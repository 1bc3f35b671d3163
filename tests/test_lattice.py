"""Root enumeration, projections, and coefficient extraction."""

import pytest

from loomfold.cartan import all_affine_types, bilinear, build, build_affine
from loomfold.lattice import (
    IndexOutOfRange,
    coeff,
    finite_positive_roots,
    height,
    project_bar,
    root_norm,
)

CLASSICAL_COUNTS = {
    ("A", 1): 36, ("B", 1): None, ("C", 1): None, ("D", 1): None,
}


def finite_count(at):
    fam, n = at.family, at.n
    if at.r == 1:
        if fam == "A":
            return n * (n + 1) // 2
        if fam in ("B", "C"):
            return n * n
        if fam == "D":
            return n * (n - 1)
        if fam == "E":
            return {6: 36, 7: 63, 8: 120}[at.N]
        return {"F": 24, "G": 6}[fam]
    if at.is_a2n2 or (fam == "D" and at.r == 2):
        return n * n          # B_n
    if fam == "A":
        return n * n          # C_n
    if fam == "E":
        return 24             # F_4 with reversed arrow
    return 6                  # G_2 with reversed arrow


def test_root_counts():
    for at in all_affine_types(8):
        d = build_affine(at)
        assert len(finite_positive_roots(d)) == finite_count(at), at


def test_specific_root_sets():
    # underlying B_2 of D3~2
    d = build("D", 3, 2)
    assert finite_positive_roots(d) == ((0, 0, 1), (0, 1, 0), (0, 1, 1), (0, 1, 2))
    # underlying C_3 of A5~2 has a unique long root 2a1+2a2+a3
    d = build("A", 5, 2)
    pos = finite_positive_roots(d)
    assert len(pos) == 9
    assert (0, 2, 2, 1) in pos
    longs = [b for b in pos if root_norm(d, b) == 4]
    assert longs == [(0, 0, 0, 1), (0, 0, 2, 1), (0, 2, 2, 1)]
    # A_1 subsystem
    d = build("A", 1, 1)
    assert finite_positive_roots(d) == ((0, 1),)


def _is_finite_root(d, v):
    """Independent decision procedure: descend to a simple root by reflections.

    A positive vector is a root iff repeatedly reflecting at a node pairing
    positively lowers it to a simple root through positive vectors.
    """
    v = list(v)
    if not any(v) or any(x < 0 for x in v):
        return False
    while True:
        if sum(v) == 1:
            return True
        moved = False
        for i in range(1, d.rank):
            pairing = sum(d.gcm[i][j] * v[j] for j in range(1, d.rank))
            if pairing > 0:
                v[i] -= pairing
                if any(x < 0 for x in v):
                    return False  # a positive root of height > 1 descends inside the cone
                moved = True
                break
        if not moved:
            return False  # no descent: nonpositive norm, not a root


def test_closure_property():
    # any sum of two enumerated roots that is itself a root was enumerated
    for at in all_affine_types(6):
        d = build_affine(at)
        pos = set(finite_positive_roots(d))
        for a in pos:
            for b in pos:
                c = tuple(x + y for x, y in zip(a, b))
                if c not in pos:
                    assert not _is_finite_root(d, c), (at, a, b)


def test_two_length_classes():
    for at in all_affine_types(8):
        d = build_affine(at)
        norms = {root_norm(d, b) for b in finite_positive_roots(d)}
        if at.is_a2n2:
            assert norms == {2, 4} if at.n > 1 else norms == {2}
        else:
            assert len(norms) <= 2
            assert norms == {2 * x for x in sorted(set(d.sym[i] for i in range(1, d.rank)))}


def test_project_bar():
    for at in all_affine_types(6):
        d = build_affine(at)
        assert project_bar(d, d.delta) == tuple([0] * d.rank)
        # linear and idempotent
        for i in range(d.rank):
            e = tuple(int(j == i) for j in range(d.rank))
            bar = project_bar(d, e)
            assert project_bar(d, bar) == bar
            if i > 0:
                assert bar == e
        # bar(alpha_0) is orthogonal-projection consistent: delta pairs to zero
        e0 = tuple(int(j == 0) for j in range(d.rank))
        bar0 = project_bar(d, e0)
        assert bar0 == tuple(-d.theta[i] if i else 0 for i in range(d.rank))


def test_project_bar_examples():
    a22 = build("A", 2, 2)
    v = (1, 4)  # 2 alpha_1 + delta
    assert project_bar(a22, v) == (0, 2)
    a52 = build("A", 5, 2)
    e0 = (1, 0, 0, 0)
    assert project_bar(a52, e0) == (0, -1, -2, -1)
    # cross-check via orthogonality: (bar(a0) - a0, x) = 0 for finite x would
    # need the delta direction; instead check (delta, bar(a0)) = 0
    assert bilinear(a52, a52.delta, project_bar(a52, e0)) == 0


def test_coeff():
    v = (0, 1, 2, 1)
    assert coeff(v, 2) == 2
    assert coeff((0, 0, 0, 1), 3) == 1
    d42 = build("D", 4, 2)
    assert coeff(d42.theta, 3) == 1  # theta = a1+a2+a3
    with pytest.raises(IndexOutOfRange):
        coeff(v, 4)
    assert height(v) == 4
    with pytest.raises(IndexOutOfRange):
        project_bar(d42, (0, 1))
