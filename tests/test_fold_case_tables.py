"""Complete fold-correspondence tables and per-family fiber-count rules.

The E6~2 tables list every parent root with s-support together with its
folded image ((a1..a6) to F4-side (a1..a4) coordinates); the infinite
families are pinned by the piecewise fiber-size rules of their case
analysis.  Long images are tracked separately as a length cross-check.
"""

from loomfold.cartan import build
from loomfold.folding import (
    parent_positive_roots,
    sigma_for,
    verify_fold_identity,
)

from _oracles import fold_root, is_long, root_norm

E62_S2_TABLE = [
    ((0, 1, 0, 0, 0, 0), (0, 1, 0, 0)),
    ((1, 1, 0, 0, 0, 0), (1, 1, 0, 0)),
    ((0, 1, 1, 0, 0, 0), (0, 1, 1, 0)),
    ((1, 1, 1, 0, 0, 0), (1, 1, 1, 0)),
    ((0, 1, 1, 1, 0, 0), (0, 2, 1, 0)),
    ((1, 1, 1, 1, 0, 0), (1, 2, 1, 0)),
    ((0, 1, 1, 1, 1, 0), (1, 2, 1, 0)),
    ((1, 1, 1, 1, 1, 0), (2, 2, 1, 0)),
    ((1, 2, 2, 1, 0, 1), (1, 3, 2, 1)),
    ((1, 2, 2, 1, 1, 1), (2, 3, 2, 1)),
    ((1, 2, 2, 2, 1, 1), (2, 4, 2, 1)),
    ((1, 2, 3, 2, 1, 1), (2, 4, 3, 1)),
    ((0, 1, 1, 0, 0, 1), (0, 1, 1, 1)),
    ((0, 1, 1, 1, 0, 1), (0, 2, 1, 1)),
    ((0, 1, 2, 1, 0, 1), (0, 2, 2, 1)),
    ((1, 1, 1, 0, 0, 1), (1, 1, 1, 1)),
    ((1, 1, 1, 1, 0, 1), (1, 2, 1, 1)),
    ((1, 1, 2, 1, 0, 1), (1, 2, 2, 1)),
    ((1, 2, 3, 2, 1, 2), (2, 4, 3, 2)),
    ((0, 1, 1, 1, 1, 1), (1, 2, 1, 1)),
    ((1, 1, 1, 1, 1, 1), (2, 2, 1, 1)),
    ((0, 1, 2, 1, 1, 1), (1, 2, 2, 1)),
    ((1, 1, 2, 1, 1, 1), (2, 2, 2, 1)),
    ((0, 1, 2, 2, 1, 1), (1, 3, 2, 1)),
    ((1, 1, 2, 2, 1, 1), (2, 3, 2, 1)),
]
E62_S2_LONG = {(0, 2, 1, 0), (2, 2, 1, 0), (2, 4, 2, 1), (2, 4, 3, 1),
               (0, 2, 1, 1), (0, 2, 2, 1), (2, 4, 3, 2), (2, 2, 1, 1),
               (2, 2, 2, 1)}
E62_S2_MULTI_FIBER = {(1, 2, 1, 0), (1, 3, 2, 1), (2, 3, 2, 1),
                      (1, 2, 1, 1), (1, 2, 2, 1)}

E62_S3_TABLE = [
    ((0, 0, 1, 0, 0, 0), (0, 0, 1, 0)),
    ((0, 1, 1, 0, 0, 0), (0, 1, 1, 0)),
    ((1, 1, 1, 0, 0, 0), (1, 1, 1, 0)),
    ((0, 0, 1, 1, 0, 0), (0, 1, 1, 0)),
    ((0, 1, 1, 1, 0, 0), (0, 2, 1, 0)),
    ((1, 1, 1, 1, 0, 0), (1, 2, 1, 0)),
    ((0, 0, 1, 1, 1, 0), (1, 1, 1, 0)),
    ((0, 1, 1, 1, 1, 0), (1, 2, 1, 0)),
    ((1, 1, 1, 1, 1, 0), (2, 2, 1, 0)),
    ((1, 2, 3, 2, 1, 1), (2, 4, 3, 1)),
    ((0, 1, 2, 1, 0, 1), (0, 2, 2, 1)),
    ((0, 1, 2, 1, 1, 1), (1, 2, 2, 1)),
    ((0, 1, 2, 2, 1, 1), (1, 3, 2, 1)),
    ((1, 1, 2, 1, 0, 1), (1, 2, 2, 1)),
    ((1, 1, 2, 1, 1, 1), (2, 2, 2, 1)),
    ((1, 1, 2, 2, 1, 1), (2, 3, 2, 1)),
    ((1, 2, 2, 1, 0, 1), (1, 3, 2, 1)),
    ((1, 2, 2, 1, 1, 1), (2, 3, 2, 1)),
    ((1, 2, 2, 2, 1, 1), (2, 4, 2, 1)),
    ((1, 2, 3, 2, 1, 2), (2, 4, 3, 2)),
    ((0, 0, 1, 0, 0, 1), (0, 0, 1, 1)),
    ((0, 1, 1, 0, 0, 1), (0, 1, 1, 1)),
    ((1, 1, 1, 0, 0, 1), (1, 1, 1, 1)),
    ((0, 0, 1, 1, 0, 1), (0, 1, 1, 1)),
    ((0, 1, 1, 1, 0, 1), (0, 2, 1, 1)),
    ((1, 1, 1, 1, 0, 1), (1, 2, 1, 1)),
    ((0, 0, 1, 1, 1, 1), (1, 1, 1, 1)),
    ((0, 1, 1, 1, 1, 1), (1, 2, 1, 1)),
    ((1, 1, 1, 1, 1, 1), (2, 2, 1, 1)),
]

E62_S6_TABLE = [
    ((0, 0, 0, 0, 0, 1), (0, 0, 0, 1)),
    ((0, 0, 1, 0, 0, 1), (0, 0, 1, 1)),
    ((0, 1, 1, 0, 0, 1), (0, 1, 1, 1)),
    ((1, 1, 1, 0, 0, 1), (1, 1, 1, 1)),
    ((0, 0, 1, 1, 0, 1), (0, 1, 1, 1)),
    ((0, 1, 1, 1, 0, 1), (0, 2, 1, 1)),
    ((1, 1, 1, 1, 0, 1), (1, 2, 1, 1)),
    ((0, 0, 1, 1, 1, 1), (1, 1, 1, 1)),
    ((0, 1, 1, 1, 1, 1), (1, 2, 1, 1)),
    ((1, 1, 1, 1, 1, 1), (2, 2, 1, 1)),
    ((1, 2, 3, 2, 1, 2), (2, 4, 3, 2)),
    ((0, 1, 2, 1, 0, 1), (0, 2, 2, 1)),
    ((0, 1, 2, 1, 1, 1), (1, 2, 2, 1)),
    ((0, 1, 2, 2, 1, 1), (1, 3, 2, 1)),
    ((1, 1, 2, 1, 0, 1), (1, 2, 2, 1)),
    ((1, 1, 2, 1, 1, 1), (2, 2, 2, 1)),
    ((1, 1, 2, 2, 1, 1), (2, 3, 2, 1)),
    ((1, 2, 2, 1, 0, 1), (1, 3, 2, 1)),
    ((1, 2, 2, 1, 1, 1), (2, 3, 2, 1)),
    ((1, 2, 2, 2, 1, 1), (2, 4, 2, 1)),
    ((1, 2, 3, 2, 1, 1), (2, 4, 3, 1)),
]


def _check_table(s, parent_node, table, expected_count):
    d = build("E", 6, 2)
    om = sigma_for(d)
    parent_set = {b for b in parent_positive_roots(om) if b[parent_node] > 0}
    assert len(parent_set) == len(table) == expected_count
    assert {(0,) + p for p, _ in table} == parent_set
    for parent, image in table:
        assert fold_root(om, (0,) + parent) == (0,) + image, (s, parent)
    return d, [img for _, img in table]


def test_e62_s2_full_table():
    d, images = _check_table(2, 2, E62_S2_TABLE, 25)
    for img in set(images):
        assert (is_long(d, (0,) + img)) == (img in E62_S2_LONG)
        expect_multi = img in E62_S2_MULTI_FIBER
        assert (images.count(img) > 1) == expect_multi, img


def test_e62_s3_full_table():
    d, images = _check_table(3, 3, E62_S3_TABLE, 29)
    # all short images have fiber size 2, all long ones 1
    for img in set(images):
        size = images.count(img)
        assert size == (1 if is_long(d, (0,) + img) else 2), img


def test_e62_s6_full_table():
    # twisted node 4 carries the parent orbit {6}
    d, images = _check_table(4, 6, E62_S6_TABLE, 21)
    for img in set(images):
        size = images.count(img)
        assert size == (1 if is_long(d, (0,) + img) else 2), img


def _bn_long2_forms(n):
    """B_n roots a_j + ... + a_{l-1} + 2(a_l + ... + a_n) for j < l <= n."""
    out = {}
    for j in range(1, n + 1):
        for l in range(j + 1, n + 1):
            v = [0] * (n + 1)
            for k in range(j, l):
                v[k] = 1
            for k in range(l, n + 1):
                v[k] = 2
            out[tuple(v)] = l
    return out


def test_a2n2_fiber_rule():
    # fiber size 2 exactly at the two-coefficient long roots with l <= s
    for n in (2, 3, 4):
        d = build("A", 2 * n, 2)
        long2 = _bn_long2_forms(n)
        for s in range(1, n + 1):
            for entry in verify_fold_identity(d, s):
                expect = 2 if long2.get(entry.beta, n + 1) <= s else 1
                assert len(entry.fiber) == expect, (n, s, entry.beta)


def test_a2n12_fiber_rule():
    # s != n: short roots have fiber size [beta]_s, long ones 1;
    # s = n: short 2, long 1
    for n in (3, 4, 5):
        d = build("A", 2 * n - 1, 2)
        for s in range(1, n + 1):
            for entry in verify_fold_identity(d, s):
                long = is_long(d, entry.beta)
                if s != n:
                    expect = 1 if long else entry.beta[s]
                else:
                    expect = 1 if long else 2
                assert len(entry.fiber) == expect, (n, s, entry.beta)


def test_dn12_fiber_rule():
    # s != n: short 2, long 1; s = n: all singleton fibers
    for n in (2, 3, 4, 5):
        d = build("D", n + 1, 2)
        for s in range(1, n + 1):
            for entry in verify_fold_identity(d, s):
                long = is_long(d, entry.beta)
                if s != n:
                    expect = 1 if long else 2
                else:
                    expect = 1
                assert len(entry.fiber) == expect, (n, s, entry.beta)


def test_d43_fiber_rule():
    # s = 1: short [beta]_1, long 1; s = 2: short 3, long 1
    d = build("D", 4, 3)
    for entry in verify_fold_identity(d, 1):
        expect = 1 if is_long(d, entry.beta) else entry.beta[1]
        assert len(entry.fiber) == expect
    for entry in verify_fold_identity(d, 2):
        expect = 1 if is_long(d, entry.beta) else 3
        assert len(entry.fiber) == expect


def test_parent_root_counts_with_support():
    # E6 has 36 positive roots; those missing a given node form the
    # complementary subsystem, so the support counts are forced
    om = sigma_for(build("E", 6, 2))
    pos = parent_positive_roots(om)
    assert len(pos) == 36
    counts = {i: sum(1 for b in pos if b[i] > 0) for i in range(1, 7)}
    assert counts == {1: 16, 2: 25, 3: 29, 4: 25, 5: 16, 6: 21}
