"""The `loomfold` namespace: its exported names, each loaded on first use."""

import importlib
import os
import subprocess
import sys

import pytest

import loomfold

# the names `loomfold` exports, by the module that defines them
EXPORTS = {
    "cartan": ("AffineData", "AffineType", "affine_type", "bilinear", "build", "build_affine"),
    "characters": ("CharSeries", "char_product", "fold_series", "series_equal"),
    "folding": ("sigma_for", "verify_fold_identity"),
    "pbw": ("classify_x0", "eprime_graph", "minuscule_case"),
    "qsymbolic": ("LaurentPoly", "eta_case", "psi_from_bc", "qint", "serre_coeff_check"),
    "weyl": ("alcove_factorize", "inversion_set_closed_form", "inversion_set_from_word",
             "length_delta", "translation_minus_lambda"),
}
NAMES = {name for names in EXPORTS.values() for name in names}


@pytest.mark.parametrize("home, name", [(home, name) for home, names in EXPORTS.items()
                                        for name in names])
def test_each_name_is_the_object_of_its_home_module(home, name):
    ns: dict = {}
    exec(f"from loomfold import {name}", ns)
    assert ns[name] is getattr(importlib.import_module(f"loomfold.{home}"), name)
    assert getattr(loomfold, name) is ns[name]


def test_star_import_and_dir_list_the_names():
    assert len(NAMES) == 25
    ns: dict = {}
    exec("from loomfold import *", ns)
    assert set(ns) - {"__builtins__"} == NAMES == set(loomfold.__all__)
    listed = dir(loomfold)
    assert NAMES | {"__version__"} <= set(listed) and listed == sorted(listed)
    assert loomfold.__version__ == "0.1.0"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'loomfold' has no attribute 'nonesuch'$"):
        loomfold.nonesuch  # noqa: B018
    with pytest.raises(ImportError, match="cannot import name 'nonesuch'"):
        exec("from loomfold import nonesuch", {})


def test_a_name_loads_its_home_module_only():
    script = ("import sys\n"
              "import loomfold\n"
              "first = sorted(m for m in sys.modules if m.startswith('loomfold'))\n"
              "loomfold.eta_case\n"
              "print(first, sorted(m for m in sys.modules if m.startswith('loomfold')))\n")
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    proc = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("['loomfold'] "
                           "['loomfold', 'loomfold.cartan', 'loomfold.qsymbolic']\n")
