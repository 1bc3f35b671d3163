"""Cartan datum fixtures and invariants for every affine type."""

import math
import random

import pytest

from loomfold import cartan
from loomfold.cartan import (
    DimensionMismatch,
    InvalidType,
    affine_type,
    all_affine_types,
    bilinear,
    build,
    build_affine,
    _leading_minors,
)
from loomfold.folding import sigma_for

from _oracles import finite_positive_roots, root_norm

# Printed node labels from the diagram table, in node order 0..n.
LABEL_FIXTURES = {
    ("A", 1, 1): (1, 1),
    ("A", 5, 1): (1, 1, 1, 1, 1, 1),
    ("B", 5, 1): (1, 1, 2, 2, 2, 2),
    ("C", 3, 1): (1, 2, 2, 1),
    ("D", 5, 1): (1, 1, 2, 2, 1, 1),
    ("E", 6, 1): (1, 1, 2, 3, 2, 1, 2),
    ("E", 7, 1): (1, 2, 3, 4, 3, 2, 1, 2),
    ("E", 8, 1): (1, 2, 3, 4, 5, 6, 4, 2, 3),
    ("F", 4, 1): (1, 2, 3, 4, 2),
    ("G", 2, 1): (1, 2, 3),
    ("A", 2, 2): (1, 2),
    ("A", 4, 2): (1, 2, 2),
    ("A", 5, 2): (1, 1, 2, 1),
    ("D", 3, 2): (1, 1, 1),
    ("D", 4, 2): (1, 1, 1, 1),
    ("E", 6, 2): (1, 2, 3, 2, 1),
    ("D", 4, 3): (1, 2, 1),
    # at the CLI's rank cap
    ("B", 64, 1): (1,) * 2 + (2,) * 63,
    ("C", 64, 1): (1,) + (2,) * 63 + (1,),
    ("D", 64, 1): (1,) * 2 + (2,) * 61 + (1,) * 2,
    ("A", 64, 2): (1,) + (2,) * 32,
    ("A", 63, 2): (1,) * 2 + (2,) * 30 + (1,),
    ("D", 64, 2): (1,) * 64,
}

SYM_FIXTURES = {
    ("A", 2, 2): (4, 1),
    ("A", 4, 2): (4, 2, 1),
    ("A", 5, 2): (1, 1, 1, 2),
    ("D", 3, 2): (1, 2, 1),
    ("D", 4, 2): (1, 2, 2, 1),
    ("E", 6, 2): (1, 1, 1, 2, 2),
    ("D", 4, 3): (1, 1, 3),
    ("C", 3, 1): (2, 1, 1, 2),
    ("B", 5, 1): (2, 2, 2, 2, 2, 1),
    ("F", 4, 1): (2, 2, 2, 1, 1),
    ("G", 2, 1): (3, 3, 1),
    ("B", 64, 1): (2,) * 64 + (1,),
    ("C", 64, 1): (2,) + (1,) * 63 + (2,),
    ("D", 64, 1): (1,) * 65,
    ("A", 64, 2): (4,) + (2,) * 31 + (1,),
    ("A", 63, 2): (1,) * 32 + (2,),
    ("D", 64, 2): (1,) + (2,) * 62 + (1,),
}

DUAL_FIXTURES = {
    ("A", 2, 2): (2, 1),
    ("A", 4, 2): (2, 2, 1),
    ("A", 5, 2): (1, 1, 2, 2),
    ("D", 3, 2): (1, 2, 1),
    ("E", 6, 2): (1, 2, 3, 4, 2),
    ("D", 4, 3): (1, 2, 3),
    ("B", 5, 1): (1, 1, 2, 2, 2, 1),
    ("C", 3, 1): (1, 1, 1, 1),
    ("G", 2, 1): (1, 2, 1),
    ("B", 64, 1): (1,) * 2 + (2,) * 62 + (1,),
    ("C", 64, 1): (1,) * 65,
    ("D", 64, 1): (1,) * 2 + (2,) * 61 + (1,) * 2,
    ("A", 64, 2): (2,) * 32 + (1,),
    ("A", 63, 2): (1,) * 2 + (2,) * 31,
    ("D", 64, 2): (1,) + (2,) * 62 + (1,),
}

FINITE_ROOT_COUNTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
}


@pytest.mark.parametrize("key", sorted(LABEL_FIXTURES))
def test_kac_labels_match_table(key):
    d = build(*key)
    assert d.kac == LABEL_FIXTURES[key]


@pytest.mark.parametrize("key", sorted(SYM_FIXTURES))
def test_symmetrizers(key):
    assert build(*key).sym == SYM_FIXTURES[key]


@pytest.mark.parametrize("key", sorted(DUAL_FIXTURES))
def test_dual_labels(key):
    assert build(*key).dual_kac == DUAL_FIXTURES[key]


def test_a2n2_reversed_numbering():
    # a_0 = 1 and theta = 2(alpha_1 + ... + alpha_n) under the reversed numbering
    for n in (1, 2, 3, 8):
        d = build("A", 2 * n, 2)
        assert d.kac[0] == 1
        assert d.dual_kac[0] == 2
        assert d.theta == tuple([0] + [2] * n)


def test_invalid_types_rejected():
    for fam, N, r in (("B", 2, 3), ("D", 2, 2), ("A", 3, 2), ("B", 2, 1),
                      ("D", 3, 1), ("E", 9, 1), ("G", 2, 2), ("C", 3, 2)):
        with pytest.raises(InvalidType):
            affine_type(fam, N, r)


def test_gcm_shape_invariants():
    for at in all_affine_types(8):
        d = build_affine(at)
        m = d.rank
        for i in range(m):
            assert d.gcm[i][i] == 2
            for j in range(m):
                if i != j:
                    assert d.gcm[i][j] <= 0
                    assert (d.gcm[i][j] == 0) == (d.gcm[j][i] == 0)
                # diag(d) * gcm symmetric
                assert d.sym[i] * d.gcm[i][j] == d.sym[j] * d.gcm[j][i]
        assert min(d.sym) == 1


def test_null_vectors_exact():
    # kac and dual_kac are the positive primitive generators of the kernels
    # of the GCM and its transpose
    for at in all_affine_types(32):
        d = build_affine(at)
        m = d.rank
        for v in (d.kac, d.dual_kac):
            assert min(v) > 0 and math.gcd(*v) == 1
        for i in range(m):
            assert sum(d.gcm[i][j] * d.kac[j] for j in range(m)) == 0
            assert sum(d.dual_kac[j] * d.gcm[j][i] for j in range(m)) == 0
            # the symmetrizer is read off the two null vectors; diag(d) * gcm symmetric
            for j in range(i):
                assert d.sym[i] * d.gcm[i][j] == d.sym[j] * d.gcm[j][i]
        assert d.dual_kac[0] == (2 if at.is_a2n2 else 1)
        assert min(d.sym) == 1


def test_symmetry_check_rejects_wrong_labels(monkeypatch):
    # a dual label vector that is not the transpose's null vector gives a d
    # that does not symmetrize the GCM; the check must catch it, not pass it on
    real = cartan._primitive_null
    monkeypatch.setattr(cartan, "_primitive_null", lambda a: real([list(c) for c in zip(*a)]))
    with pytest.raises(InvalidType, match="not symmetric"):
        cartan._build_affine.__wrapped__(affine_type("B", 4, 1))


def test_leading_minors():
    # finite A_5: the k-th leading minor is k + 1
    a5 = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(5)] for i in range(5)]
    rows = _leading_minors(a5)
    assert [row[k] for k, row in enumerate(rows)] == [2, 3, 4, 5, 6]
    assert all(row[j] == 0 for k, row in enumerate(rows) for j in range(k))
    # an affine GCM: every proper leading minor positive, the determinant 0
    d = build("D", 5, 1)
    rows = _leading_minors(d.gcm)
    assert len(rows) == d.rank and rows[-1][-1] == 0
    assert all(row[k] > 0 for k, row in enumerate(rows[:-1]))
    # elimination stops at the first pivot that is not positive
    assert _leading_minors(((2, -3), (-3, 2))) == [[2, -3], [0, -5]]


def _eager_leading_minors(a):
    """Reference: Bareiss elimination that rescales every lower row at every
    step, even when its pivot-column entry is 0."""
    rows = [list(row) for row in a]
    prev = 1
    for k, row in enumerate(rows):
        p = row[k]
        if p <= 0:
            return rows[:k + 1]
        for lower in rows[k + 1:]:
            f = lower[k]
            lower[k:] = [(p * x - f * y) // prev for x, y in zip(lower[k:], row[k:])]
        prev = p
    return rows


def test_deferred_rescaling_matches_eager_elimination():
    mats = []
    for at in all_affine_types(24):
        d = build_affine(at)
        mats += [d.gcm, tuple(zip(*d.gcm)), [row[1:] for row in d.gcm[1:]]]
        if at.r > 1:
            mats.append([row[1:] for row in sigma_for(d).parent_gcm[1:]])
    rng = random.Random(20261019)
    entries = (0, 0, 0, 1, -1, 2, -2, 3, -3)
    for _ in range(600):
        m = rng.randint(1, 9)
        mats.append([[rng.choice((0, 1, 2, 2, 3, -1)) if i == j else rng.choice(entries)
                      for j in range(m)] for i in range(m)])
    stops = set()
    for a in mats:
        rows = _leading_minors(a)
        assert rows == _eager_leading_minors(a), a
        last = rows[-1][len(rows) - 1]
        stops.add((len(rows) < len(a), (last > 0) - (last < 0)))
    # runs to the end with a positive or zero last pivot, and stops early at
    # a zero and at a negative pivot
    assert {(False, 1), (False, 0), (True, 0), (True, -1)} <= stops


def test_delta_is_isotropic():
    for at in all_affine_types(6):
        d = build_affine(at)
        for i in range(d.rank):
            e = tuple(int(j == i) for j in range(d.rank))
            assert bilinear(d, d.delta, e) == 0


def test_bilinear_examples():
    d32 = build("D", 3, 2)
    a1 = (0, 1, 0)
    a2 = (0, 0, 1)
    assert bilinear(d32, a1, a2) == d32.sym[1] * d32.gcm[1][2]  # = -2
    assert bilinear(d32, a1, a1) == 2 * d32.sym[1]
    # theta in A5~2 is short: (theta, theta) = 2 * min d
    a52 = build("A", 5, 2)
    expect = 0
    for i in range(4):
        for j in range(4):
            expect += a52.sym[i] * a52.gcm[i][j] * a52.theta[i] * a52.theta[j]
    assert expect == 2
    assert bilinear(a52, a52.theta, a52.theta) == 2


def test_bilinear_dimension_mismatch():
    d = build("A", 2, 1)
    with pytest.raises(DimensionMismatch):
        bilinear(d, (1, 0), (0, 1, 0))


def test_theta_maximal_height_in_length_class():
    # theta is the unique root of maximal height in its length class; as a
    # simple root it only degenerates for the rank-1 types
    for at in all_affine_types(6):
        d = build_affine(at)
        if at.is_a2n2:
            continue
        pos = finite_positive_roots(d)
        norm = root_norm(d, d.theta)
        same_class = [b for b in pos if root_norm(d, b) == norm]
        assert d.theta in same_class
        top = max(sum(b) for b in same_class)
        assert sum(d.theta) == top
        assert sum(1 for b in same_class if sum(b) == top) == 1
        if d.n >= 2:
            simples = {tuple(int(j == i) for j in range(d.rank)) for i in range(1, d.rank)}
            assert d.theta not in simples
            for k in (1, 2):
                shifted = tuple(d.theta[i] + k * d.delta[i] for i in range(d.rank))
                assert shifted not in simples


def test_untwisted_theta_long_twisted_theta_short():
    for at in all_affine_types(6):
        d = build_affine(at)
        if at.is_a2n2:
            continue
        norms = sorted({root_norm(d, b) for b in finite_positive_roots(d)})
        if at.r == 1:
            assert root_norm(d, d.theta) == norms[-1]
        else:
            assert root_norm(d, d.theta) == norms[0] == 2
