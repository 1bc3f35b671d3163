"""Character products, the series-level folding theorem, and series plumbing."""

import random

import pytest

from loomfold.cartan import build, build_affine, twisted_types
from loomfold.characters import (
    CharSeries,
    NonIntegerExponent,
    RankMismatch,
    char_exponents,
    char_product,
    fold_series,
    one,
    product_from_exponents,
    series_equal,
)
from loomfold.folding import parent_char_exponents, sigma_for
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
    # fold(parent product) = twisted product at height 12, every twisted cell
    cells = list(series_cells(12))
    assert [c for c in cells if not c[2]] == []
    assert len(cells) == 110


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


def test_coefficients_stay_integral():
    ser = char_product(build("A", 16, 2), 8, 12)
    assert all(isinstance(c, int) for c in ser.terms.values())
    assert all(c > 0 for c in ser.terms.values())


def test_negative_exponent_rejected():
    with pytest.raises(NonIntegerExponent):
        product_from_exponents([((0, 1), -1)], 1, 4)
