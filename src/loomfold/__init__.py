"""Exact affine root-system data, translation inversion sets, Dynkin folding,
and prefundamental-module character identities, with a verification CLI.

The names below load their home module on first use (PEP 562), so that
`import loomfold.cli` does not compile the layers a command never calls.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the names exported from it here
_EXPORTS = {
    "cartan": ("AffineData", "AffineType", "affine_type", "bilinear", "build", "build_affine"),
    "characters": ("CharSeries", "char_product", "fold_series", "series_equal"),
    "folding": ("sigma_for", "verify_fold_identity"),
    "pbw": ("classify_x0", "eprime_graph", "minuscule_case"),
    "qsymbolic": ("LaurentPoly", "eta_case", "psi_from_bc", "qint", "serre_coeff_check"),
    "weyl": ("alcove_factorize", "inversion_set_closed_form", "inversion_set_from_word",
             "length_delta", "translation_minus_lambda"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME]


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups find it without a call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
