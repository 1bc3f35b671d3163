"""Exact affine root-system data, translation inversion sets, Dynkin folding,
and prefundamental-module character identities, with a verification CLI."""

from .cartan import AffineData, AffineType, affine_type, bilinear, build, build_affine
from .characters import CharSeries, char_product, fold_series, series_equal
from .folding import sigma_for, verify_fold_identity
from .pbw import classify_x0, eprime_graph, minuscule_case
from .qsymbolic import LaurentPoly, eta_case, psi_from_bc, qint, serre_coeff_check
from .weyl import (
    alcove_factorize,
    inversion_set_closed_form,
    inversion_set_from_word,
    length_delta,
    translation_minus_lambda,
)

__version__ = "0.1.0"
