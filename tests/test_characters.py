"""Character products, the series-level folding theorem, and series plumbing."""

import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loomfold
from loomfold import folding, lattice
from loomfold.cartan import build, build_affine, twisted_types
from loomfold.characters import (
    MAX_DEGREE,
    DegreeAboveCap,
    MultiplicityMismatch,
    NegativeDegree,
    NonIntegerExponent,
    NotPositiveRoot,
    RankMismatch,
    char_exponents,
    char_product,
    fold_series,
    product_from_exponents,
    series_equal,
)
from loomfold.folding import (
    bar_inversion_parts,
    parent_char_exponents,
    parent_positive_roots,
    sigma_for,
)
from loomfold.verify import series_cells

from _oracles import finite_positive_roots, fold_root, series_from_terms


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
    assert fold_series(series_from_terms(2, 10, {(0, 0, 0): 1}), om, 10).terms == {(0, 0): 1}


def test_fold_series_rejects_wrong_rank():
    # A5~2's rank-3 twisted series through its rank-5 orbit map
    d = build("A", 5, 2)
    with pytest.raises(RankMismatch):
        fold_series(char_product(d, 1, 6), sigma_for(d), 6)


def naive_fold(ser, om, degree):
    """Independent oracle: fold_root on every monomial of height <= degree, summed."""
    out = {}
    for m, c in ser.terms.items():
        if sum(m) <= degree:
            fm = fold_root(om, m)
            out[fm] = out.get(fm, 0) + c
    return out


# the orbit maps of parent rank <= 3, by parent rank (no twisted type has rank 1)
FOLD_MAPS = {om.parent_rank: om for om in (sigma_for(build("A", 2, 2)), sigma_for(build("D", 3, 2)))}


@st.composite
def product_cases(draw):
    """(exponents, rank, degree, fold degree, orbit map or None); the
    coordinates reach 4, so some factors are taller than the degree."""
    rank = draw(st.integers(1, 3))
    degree = draw(st.integers(0, 8))
    root = st.lists(st.integers(0, 4), min_size=rank, max_size=rank).filter(any)
    exps = draw(st.lists(st.tuples(root.map(lambda v: (0, *v)), st.integers(0, 3)), max_size=5))
    return exps, rank, degree, draw(st.integers(0, degree)), FOLD_MAPS.get(rank)


@settings(derandomize=True, database=None, deadline=None)
@given(product_cases())
def test_kernel_and_fold_match_naive(case):
    exps, rank, degree, fold_degree, om = case
    ser = product_from_exponents(exps, rank, degree)
    assert ser.terms == brute_force_product(exps, rank, degree)
    if om is not None:
        # the fold degree may be below the series degree: different key bases
        assert fold_series(ser, om, fold_degree).terms == naive_fold(ser, om, fold_degree)


@pytest.mark.parametrize("fold_degree", [8, 5])
@pytest.mark.parametrize("key, s", [
    (("A", 5, 2), 2), (("A", 6, 2), 3), (("D", 5, 2), 3), (("E", 6, 2), 2), (("D", 4, 3), 1),
])
def test_fold_series_matches_per_monomial_fold(key, s, fold_degree):
    # self-folded prefixes of lengths 4, 4, 5, 4 and 3 slots (order-3 sigma
    # on D4~3); below the series degree the bases differ and the prefix is empty
    om = sigma_for(build(*key))
    ser = product_from_exponents(parent_char_exponents(om, s), om.parent_rank, 8)
    assert fold_series(ser, om, fold_degree).terms == naive_fold(ser, om, fold_degree)


def test_negative_degree_rejected_before_any_work():
    om = sigma_for(build("A", 2, 2))
    ser = product_from_exponents(parent_char_exponents(om, 1), 2, 6)
    a = series_from_terms(1, 4, {(0, 0): 1})
    b = series_from_terms(1, 4, {(0, 1): 1})
    with pytest.raises(NegativeDegree):
        fold_series(ser, om, -1)
    # checked before the rank: a rank-1 series through a rank-2 orbit map
    with pytest.raises(NegativeDegree):
        fold_series(a, om, -1)
    # a comparison of nothing must not report a pass
    for x, y in ((a, b), (a, a), (a, series_from_terms(2, 4, {}))):
        with pytest.raises(NegativeDegree):
            series_equal(x, y, -1)


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


@pytest.mark.parametrize("m", [
    (0, 0, 0, 0),      # one slot too many; packs to the key of (0, 0, 0)
    (0, 5, -1),        # a negative coordinate; also packs to the key of (0, 0, 0)
    (0, 5, 0),         # taller than the degree; packs to the key of (0, 0, 1)
])
def test_coefficient_of_foreign_monomial_is_zero(m):
    ser = product_from_exponents([((0, 0, 1), 1), ((0, 1, 0), 1)], 2, 4)
    assert ser.coefficient((0, 0, 0)) == ser.coefficient((0, 0, 1)) == 1
    assert ser.coefficient(m) == 0
    assert m not in ser.terms


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
    a = series_from_terms(1, 4, {(0, 0): 1})
    b = series_from_terms(1, 4, {(0, 0): 1, (0, 1): 1})
    rep = series_equal(a, b, 4)
    assert not rep.equal
    assert rep.witness == ((0, 1), 0, 1)
    assert series_equal(a, a, 4).equal
    with pytest.raises(RankMismatch):
        series_equal(a, series_from_terms(2, 4, {}), 4)
    with pytest.raises(RankMismatch):
        series_equal(a, series_from_terms(1, 2, {}), 4)


def test_witness_is_minimal_height():
    a = series_from_terms(1, 6, {(0, 0): 1, (0, 2): 5, (0, 4): 9})
    b = series_from_terms(1, 6, {(0, 0): 1, (0, 2): 7, (0, 4): 8})
    rep = series_equal(a, b, 6)
    assert rep.witness == ((0, 2), 5, 7)


def test_series_equal_ignores_zeros_and_higher_terms():
    a = series_from_terms(1, 4, {(0, 0): 1, (0, 1): 0})
    b = series_from_terms(1, 6, {(0, 0): 1, (0, 5): 3})
    # a series holds no term above its own degree, so the taller term
    # lives in a deeper series
    c = series_from_terms(1, 6, {(0, 0): 1, (0, 6): 2})
    for x, y in ((a, b), (b, a), (a, c), (c, b)):
        assert series_equal(x, y, 4) == series_equal(y, x, 4)
        assert series_equal(x, y, 4).equal
    with pytest.raises(ValueError):
        series_from_terms(1, 4, {(0, 0): 1, (0, 6): 2})


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
    # a negative coordinate would borrow from the next packed digit
    with pytest.raises(NotPositiveRoot):
        product_from_exponents([((0, 2, -1), 1)], 2, 3)
    with pytest.raises(RankMismatch):
        product_from_exponents([((0, 1, 1), 1)], 1, 3)


def test_degree_cap_is_checked_before_allocation():
    # the height buckets are allocated up front, so a huge degree must stop first
    with pytest.raises(DegreeAboveCap, match=str(10**8)):
        product_from_exponents([], 1, 10**8)
    with pytest.raises(DegreeAboveCap):
        char_product(build("D", 3, 2), 1, MAX_DEGREE + 1)
    assert product_from_exponents([], 1, MAX_DEGREE).coefficient((0, 0)) == 1
    # series_from_terms allocates the same buckets, so it runs the same checks first
    with pytest.raises(DegreeAboveCap, match=str(10**8)):
        series_from_terms(1, 10**8, {})
    with pytest.raises(NegativeDegree, match="-1 < 0"):
        series_from_terms(1, -1, {})
    assert series_from_terms(1, MAX_DEGREE, {}).degree == MAX_DEGREE


def test_multiplicity_check_survives_optimize():
    # under python -O a bare assert would let a wrong multiplicity through
    script = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "from loomfold import cartan, characters\n"
        "real = characters.bar_inversion_parts\n"
        "characters.bar_inversion_parts = lambda d, s: {b: (m + 1, x) for b, (m, x) in real(d, s).items()}\n"
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
    with pytest.raises(AttributeError):
        build_affine(d.type).sym = (0,) * d.rank
    with pytest.raises(TypeError):
        finite_positive_roots(d)[0] = (0, 0, 0)
    with pytest.raises(TypeError):
        parent_positive_roots(sigma_for(d))[0] = (0, 0, 0, 0)
    fibers = folding._fibers(sigma_for(d))
    beta = next(iter(fibers))
    with pytest.raises(TypeError):
        fibers[beta] = ()
    with pytest.raises(TypeError):
        fibers[beta][0] = (0, 0, 0, 0)
    # the closure mapping is shared by every type with the same finite block
    with pytest.raises(TypeError):
        lattice._closure(d.gcm, range(1, d.rank))[(0, 1, 0)] = 0
    with pytest.raises(TypeError):
        lattice._closure(sigma_for(d).parent_gcm, range(1, 4))[(0, 1, 0, 0)] = 0
    assert char_exponents(d, 1) == before != []
    # bar_inversion_parts is not cached: each call builds a fresh dict, so a
    # caller that clears or rewrites one changes no later result
    exps = {s: char_exponents(d, s) for s in (1, 2)}
    reports = {s: repr(folding.verify_fold_identity(d, s)) for s in (1, 2)}
    first = bar_inversion_parts(d, 1)
    beta = next(iter(first))
    first[beta] = (first[beta][0] + 1, first[beta][1] * 2)
    bar_inversion_parts(d, 2).clear()
    assert bar_inversion_parts(d, 1) != first
    for s in (1, 2):
        assert char_exponents(d, s) == exps[s] != []
        assert repr(folding.verify_fold_identity(d, s)) == reports[s]
