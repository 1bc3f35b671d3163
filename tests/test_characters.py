"""Character products, the series-level folding theorem, and series plumbing."""

import dataclasses
import os
import random
import subprocess
import sys

import pytest

import loomfold
from loomfold.cartan import build, build_affine, twisted_types
from loomfold.characters import (
    CharSeries,
    MultiplicityMismatch,
    NegativeDegree,
    NonIntegerExponent,
    NotPositiveRoot,
    RankMismatch,
    char_exponents,
    char_product,
    fold_series,
    one,
    product_from_exponents,
    series_equal,
)
from loomfold.folding import (
    bar_inversion_parts,
    parent_char_exponents,
    parent_positive_roots,
    sigma_for,
)
from loomfold.lattice import finite_positive_roots
from loomfold.verify import series_cells


def brute_force_product(exponents, rank, degree):
    """Independent oracle: expand each factor as an explicit multiset count.

    Treat the product over (beta, e) as a product over e copies of the plain
    geometric series 1/(1 - x^beta) and enumerate exponent combinations.
    """
    factors = []
    for beta, e in exponents:
        factors.extend([beta] * e)
    terms = {tuple([0] * (rank + 1)): 1}
    for beta in factors:
        hb = sum(beta)
        new = {}
        for m, c in terms.items():
            k = 0
            while sum(m) + k * hb <= degree:
                mm = tuple(x + k * y for x, y in zip(m, beta))
                new[mm] = new.get(mm, 0) + c
                k += 1
        terms = new
    return terms


def test_product_matches_brute_force():
    for key, s in ((("D", 3, 2), 2), (("A", 5, 2), 1), (("A", 4, 2), 2), (("D", 4, 3), 2)):
        d = build(*key)
        exps = char_exponents(d, s)
        ser = char_product(d, s, 8)
        assert ser.terms == brute_force_product(exps, d.n, 8)


def test_d32_low_order_coefficients():
    # (1-x2)^-1 (1-x1x2^2)^-1 (1-x1x2)^-1: the monomials a1+a2 and 2a2 both
    # carry coefficient 1
    d = build("D", 3, 2)
    ser = char_product(d, 2, 4)
    assert ser.coefficient((0, 1, 1)) == 1
    assert ser.coefficient((0, 0, 2)) == 1
    assert ser.coefficient((0, 0, 0)) == 1
    assert ser.coefficient((0, 0, 1)) == 1
    assert ser.coefficient((0, 1, 2)) == 2  # the factor root plus a2 + (a1+a2)
    assert ser.coefficient((0, 2, 2)) == 1


def test_a22_coefficient_law():
    d = build("A", 2, 2)
    ser = char_product(d, 1, 20)
    for k in range(21):
        assert ser.coefficient((0, k)) == (k + 2) // 2


def test_degree_zero_is_one():
    for key in (("A", 3, 1), ("E", 6, 2)):
        d = build(*key)
        for s in range(1, d.n + 1):
            ser = char_product(d, s, 0)
            assert ser.terms == {tuple([0] * d.rank): 1}


def test_exponents_are_positive_integers():
    for at in twisted_types(8):
        d = build_affine(at)
        for s in range(1, d.n + 1):
            for beta, e in char_exponents(d, s):
                assert isinstance(e, int) and e >= 1


def test_folding_theorem_series_level():
    # fold(parent product) = twisted product at height 20, every twisted
    # cell with n <= 4 (acceptance criterion 5 covers height 12, n <= 8)
    cells = list(series_cells(20, max_n=4))
    assert [c for c in cells if not c[2]] == []
    assert len(cells) == 32


def test_fold_series_a22_example():
    # parent A2 at node 1: 1/((1-y1)(1-y1y2)) folds to 1/((1-x)(1-x^2))
    d = build("A", 2, 2)
    om = sigma_for(d)
    exps = parent_char_exponents(om, 1)
    assert sorted(exps) == [((0, 1, 0), 1), ((0, 1, 1), 1)]
    parent = product_from_exponents(exps, 2, 10)
    folded = fold_series(parent, om, 10)
    assert series_equal(folded, char_product(d, 1, 10), 10).equal
    assert fold_series(one(2, 10), om, 10).terms == {(0, 0): 1}


def test_fold_series_truncates_deeper_series():
    om = sigma_for(build("E", 6, 2))
    exps = parent_char_exponents(om, 2)
    deep = fold_series(product_from_exponents(exps, 6, 9), om, 5)
    assert deep.degree == 5
    assert deep.terms == fold_series(product_from_exponents(exps, 6, 5), om, 5).terms


def test_parent_exponents_match_untwisted_affine_route():
    # the finite-parent route agrees with the untwisted affine product formula
    om = sigma_for(build("A", 5, 2))
    via_parent = sorted(parent_char_exponents(om, 1))
    a51 = build("A", 5, 1)
    via_affine = sorted(char_exponents(a51, 1))
    assert via_parent == via_affine


def test_inversion_set_support():
    # every finite part of the inversion set has a positive series coefficient
    for key, s in ((("D", 4, 2), 3), (("E", 6, 2), 2), (("A", 6, 2), 3)):
        d = build(*key)
        ser = char_product(d, s, 12)
        for beta, _ in char_exponents(d, s):
            if sum(beta) <= 12:
                assert ser.coefficient(beta) >= 1


def test_product_order_independence():
    d = build("E", 6, 2)
    exps = char_exponents(d, 2)
    ref = product_from_exponents(exps, d.n, 8).terms
    rng = random.Random(7)
    for _ in range(3):
        shuffled = exps[:]
        rng.shuffle(shuffled)
        assert product_from_exponents(shuffled, d.n, 8).terms == ref


def test_series_equal_witness():
    a = CharSeries(rank=1, degree=4, terms={(0, 0): 1})
    b = CharSeries(rank=1, degree=4, terms={(0, 0): 1, (0, 1): 1})
    rep = series_equal(a, b, 4)
    assert not rep.equal
    assert rep.witness == ((0, 1), 0, 1)
    assert series_equal(a, a, 4).equal
    with pytest.raises(RankMismatch):
        series_equal(a, CharSeries(rank=2, degree=4, terms={}), 4)
    with pytest.raises(RankMismatch):
        series_equal(a, CharSeries(rank=1, degree=2, terms={}), 4)


def test_witness_is_minimal_height():
    a = CharSeries(rank=1, degree=6, terms={(0, 0): 1, (0, 2): 5, (0, 4): 9})
    b = CharSeries(rank=1, degree=6, terms={(0, 0): 1, (0, 2): 7, (0, 4): 8})
    rep = series_equal(a, b, 6)
    assert rep.witness == ((0, 2), 5, 7)


def test_series_equal_ignores_zeros_and_higher_terms():
    a = CharSeries(rank=1, degree=4, terms={(0, 0): 1, (0, 1): 0})
    b = CharSeries(rank=1, degree=6, terms={(0, 0): 1, (0, 5): 3})
    c = CharSeries(rank=1, degree=4, terms={(0, 0): 1, (0, 6): 2})
    for x, y in ((a, b), (b, a), (a, c), (c, b)):
        assert series_equal(x, y, 4) == series_equal(y, x, 4)
        assert series_equal(x, y, 4).equal


def test_coefficients_stay_integral():
    ser = char_product(build("A", 16, 2), 8, 12)
    assert all(isinstance(c, int) for c in ser.terms.values())
    assert all(c > 0 for c in ser.terms.values())


def test_negative_exponent_rejected():
    with pytest.raises(NonIntegerExponent):
        product_from_exponents([((0, 1), -1)], 1, 4)


@pytest.mark.parametrize("exponents, rank, degree", [
    ([((0, 1, 1), 1), ((0, 0, 7), 2), ((0, 1, 0), 1)], 2, 6),   # a factor taller than D
    ([((0, 1, 0), 3), ((0, 1, 1), 2), ((0, 0, 1), 0)], 2, 7),   # e >= 2 and e == 0
    ([], 3, 5),                                                 # no factor at all
    ([((0, 1, 0), 2), ((0, 1, 1), 1)], 2, 0),                   # degree 0
    ([((0, 2, 1), 1), ((0, 0, 3), 1)], 2, 3),                   # heights exactly D
])
def test_product_edge_paths(exponents, rank, degree):
    assert (product_from_exponents(exponents, rank, degree).terms
            == brute_force_product(exponents, rank, degree))


@pytest.mark.parametrize("key, s, degree", [(("E", 6, 2), 2, 7), (("D", 4, 3), 1, 9)])
def test_parent_product_matches_brute_force(key, s, degree):
    om = sigma_for(build(*key))
    exps = parent_char_exponents(om, s)
    assert (product_from_exponents(exps, om.parent_rank, degree).terms
            == brute_force_product(exps, om.parent_rank, degree))


def test_bad_degree_or_root_rejected():
    for exps in ([], [((0, 1), 1)]):
        with pytest.raises(NegativeDegree):
            product_from_exponents(exps, 1, -1)
    with pytest.raises(NotPositiveRoot):
        product_from_exponents([((0, 0), 1)], 1, 4)


def test_multiplicity_check_survives_optimize():
    # under python -O a bare assert would let a wrong multiplicity through
    script = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "from loomfold import cartan, characters\n"
        "real = characters.bar_inversion_parts\n"
        "characters.bar_inversion_parts = lambda d, s: {b: (m + 1, f) for b, (m, f) in real(d, s).items()}\n"
        "try:\n"
        "    characters.char_exponents(cartan.build('D', 3, 2), 2)\n"
        "except characters.MultiplicityMismatch as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "D3~2 s=2" in proc.stdout
    assert issubclass(MultiplicityMismatch, ValueError)


def test_cached_results_are_immutable():
    # per-type results are computed once per process and shared by every
    # later caller, so a caller that could change one would corrupt the rest
    d = build("D", 3, 2)
    before = char_exponents(d, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        build_affine(d.type).sym = (0,) * d.rank
    with pytest.raises(TypeError):
        finite_positive_roots(d)[0] = (0, 0, 0)
    with pytest.raises(TypeError):
        parent_positive_roots(sigma_for(d))[0] = (0, 0, 0, 0)
    with pytest.raises(AttributeError):
        bar_inversion_parts(d, 1).clear()
    assert char_exponents(d, 1) == before != []
