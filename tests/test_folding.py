"""Diagram automorphisms, fold fibers, xi values, and the exponent identity."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import permutations

import pytest

import loomfold
from loomfold import folding, weyl
from loomfold.cartan import all_affine_types, build, twisted_types, build_affine
from loomfold.folding import (
    BadAutomorphism,
    FamilyMismatch,
    IdentityViolation,
    NotInInversionSet,
    NotTwisted,
    bar_inversion_parts,
    parent_positive_roots,
    sigma_for,
    verify_fold_identity,
)
from loomfold.weyl import inversion_set_detailed

from _oracles import fold_root, is_long, project_bar, root_norm


def test_sigma_fixtures():
    om = sigma_for(build("E", 6, 2))
    assert om.orbits == ((1, 5), (2, 4), (3,), (6,))
    assert om.rep_of(4) == 6
    om = sigma_for(build("A", 5, 2))
    assert om.orbits == ((1, 5), (2, 4), (3,))
    om = sigma_for(build("D", 3, 2))
    assert om.orbits == ((1,), (2, 3))
    om = sigma_for(build("D", 4, 3))
    assert om.orbits == ((1, 3, 4), (2,))
    om = sigma_for(build("A", 2, 2))
    assert om.orbits == ((1, 2),)


def test_sigma_is_unique_gcm_automorphism():
    # brute force: the only order-2 GCM-preserving permutations of the A5 and
    # D3 parents are the identity and the implemented sigma
    for key, order in ((("A", 5, 2), 2), (("D", 3, 2), 2)):
        om = sigma_for(build(*key))
        N = om.parent_rank
        a = om.parent_gcm
        autos = []
        for perm in permutations(range(1, N + 1)):
            sig = (0,) + perm
            if all(a[sig[i]][sig[j]] == a[i][j]
                   for i in range(1, N + 1) for j in range(1, N + 1)):
                autos.append(sig)
        nontrivial = [s for s in autos if s != tuple(range(N + 1))]
        assert om.sigma in nontrivial
        k = om.sigma
        composed = tuple(0 if i == 0 else k[k[i]] for i in range(N + 1))
        assert composed == tuple(range(N + 1))  # order 2


def test_sigma_preserves_parent_gcm_and_order():
    for at in twisted_types(8):
        om = sigma_for(build_affine(at))
        a, sig, N = om.parent_gcm, om.sigma, om.parent_rank
        for i in range(1, N + 1):
            for j in range(1, N + 1):
                assert a[sig[i]][sig[j]] == a[i][j]
        # order of sigma = r
        elt = list(range(N + 1))
        for _ in range(at.r):
            elt = [sig[x] for x in elt]
        assert elt == list(range(N + 1))


def test_automorphism_check_survives_optimize():
    # under python -O a bare assert would accept a sigma that breaks the parent GCM
    script = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "from loomfold import cartan, folding\n"
        "real = folding._parent_gcm\n"
        "def broken(family, N):\n"
        "    a = real(family, N)\n"
        "    a[1][2] = a[2][1] = 0\n"
        "    return a\n"
        "folding._parent_gcm = broken\n"
        "try:\n"
        "    folding.sigma_for(cartan.build('A', 5, 2))\n"
        "except folding.BadAutomorphism as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(1)\n"
    )
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "A5~2" in proc.stdout
    assert issubclass(BadAutomorphism, ValueError)


def test_not_twisted():
    with pytest.raises(NotTwisted):
        sigma_for(build("A", 3, 1))


def test_sigma_for_built_once_per_type():
    for at in twisted_types(4):
        d = build_affine(at)
        assert sigma_for(d) is sigma_for(d)


def test_batch_fold_matches_per_root_sums():
    for at in twisted_types(12):
        om = sigma_for(build_affine(at))
        roots = parent_positive_roots(om)
        expect = [(0,) + tuple(sum(b[i] for i in orb) for orb in om.orbits) for b in roots]
        assert folding._fold_roots(om, roots) == expect, at
        assert [folding._fold_roots(om, (b,))[0] for b in roots] == expect, at
    assert folding._fold_roots(om, []) == []


def test_orbit_map_hashes_by_twisted_type():
    for at in twisted_types(12):
        om = sigma_for(build_affine(at))
        copy = om._replace()
        assert hash(om) == hash(at) == hash(copy)
        assert copy == om and copy is not om
        assert folding._fibers(copy) is folding._fibers(om), at


def test_fold_root_linearity_and_sigma_compat():
    for at in twisted_types(6):
        om = sigma_for(build_affine(at))
        N = om.parent_rank
        units = [tuple(int(j == i) for j in range(N + 1)) for i in range(1, N + 1)]
        sigma_units = [tuple(int(j == om.sigma[i]) for j in range(N + 1)) for i in range(1, N + 1)]
        assert folding._fold_roots(om, units) == folding._fold_roots(om, sigma_units)
        a = tuple(min(3, i) for i in range(N + 1))
        b = tuple(1 for _ in range(N + 1))
        ab = tuple(x + y for x, y in zip(a, b))
        fa, fb, fab = folding._fold_roots(om, (a, b, ab))
        assert fab == tuple(x + y for x, y in zip(fa, fb))


def test_fold_root_e62_fixture():
    # highest parent root 12321;2 folds to the long root 2432
    om = sigma_for(build("E", 6, 2))
    top = (0, 1, 2, 3, 2, 1, 2)
    assert folding._fold_roots(om, (top, (0, 1, 0, 0, 0, 0, 0))) == [(0, 2, 4, 3, 2), (0, 1, 0, 0, 0)]
    assert is_long(om.twisted, (0, 2, 4, 3, 2))


def test_fold_root_d43_fixture():
    # the nine s=2 parent roots fold onto {01, 11, 21, 31, 32}
    d = build("D", 4, 3)
    om = sigma_for(d)
    parent_roots = [b for b in parent_positive_roots(om) if b[2] > 0]
    assert len(parent_roots) == 9
    folded = sorted({fold_root(om, b) for b in parent_roots})
    assert folded == [(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 3, 2)]
    sizes = {f: sum(1 for b in parent_roots if fold_root(om, b) == f) for f in folded}
    assert sizes == {(0, 0, 1): 1, (0, 1, 1): 3, (0, 2, 1): 3, (0, 3, 1): 1, (0, 3, 2): 1}
    # s=1 side
    parent_roots = [b for b in parent_positive_roots(om) if b[1] > 0]
    folded = sorted({fold_root(om, b) for b in parent_roots})
    assert folded == [(0, 1, 0), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 3, 2)]


XI_TABLES = {
    # (type key, s): {short: xi, long: xi} from the case analysis
    (("A", 5, 2), 1): {"short": Fraction(1), "long": Fraction(1, 2)},
    (("A", 5, 2), 3): {"short": Fraction(2), "long": Fraction(1)},
    (("D", 5, 2), 1): {"short": Fraction(2), "long": Fraction(1)},
    (("D", 5, 2), 4): {"short": Fraction(1), "long": Fraction(1, 2)},
    (("E", 6, 2), 2): {"short": Fraction(1), "long": Fraction(1, 2)},
    (("E", 6, 2), 3): {"short": Fraction(2), "long": Fraction(1)},
    (("E", 6, 2), 4): {"short": Fraction(2), "long": Fraction(1)},
    (("D", 4, 3), 1): {"short": Fraction(1), "long": Fraction(1, 3)},
    (("D", 4, 3), 2): {"short": Fraction(3), "long": Fraction(1)},
}


def test_xi_case_tables():
    # the xi that fold-verify prints, one entry per part of bar(Delta_+)
    for (key, s), table in XI_TABLES.items():
        d = build(*key)
        report = verify_fold_identity(d, s)
        assert [e.beta for e in report] == sorted(bar_inversion_parts(d, s))
        for e in report:
            expect = table["long"] if is_long(d, e.beta) else table["short"]
            assert e.xi == expect, (key, s, e.beta)


def _projected_parts(d, s):
    """The definition: every root of Delta_+(t_{-lambda_s}) projected to its
    finite part, counted with multiplicity, with its family kept."""
    expect = {}
    for v, fam in inversion_set_detailed(d, s):
        bar = project_bar(d, v)
        mult, tag = expect.get(bar, (0, fam))
        assert tag == fam, (d.type, s, bar)
        expect[bar] = (mult + 1, fam)
    return expect


def test_xi_a2n2_families():
    d = build("A", 4, 2)
    for s in (1, 2):
        families = {b: fam for b, (_, fam) in _projected_parts(d, s).items()}
        parts = bar_inversion_parts(d, s)
        report = verify_fold_identity(d, s)
        assert [e.beta for e in report] == sorted(parts) == sorted(families)
        for e in report:
            beta, fam = e.beta, families[e.beta]
            assert e.xi == parts[beta][1] == (Fraction(1) if fam == 1 else Fraction(1, 2))
            # doubled short roots are exactly the family-2 parts
            assert (fam == 2) == (beta[s] % 2 == 0 and all(x % 2 == 0 for x in beta))


def test_bar_inversion_parts_match_projected_inversion_set():
    # multiplicities as counted by the definition; xi is 1 / family on
    # A_{2n}^(2), and xi [beta]_s is the multiplicity on every type
    for at in all_affine_types(12):
        d = build_affine(at)
        for s in range(1, d.n + 1):
            expect = _projected_parts(d, s)
            parts = bar_inversion_parts(d, s)
            assert {b: m for b, (m, _) in parts.items()} == {b: m for b, (m, _) in expect.items()}, (at, s)
            for b, (m, xi) in parts.items():
                fam = expect[b][1]
                assert (fam is None) != d.type.is_a2n2, (at, s, b)
                assert fam is None or xi == Fraction(1, fam), (at, s, b)
                assert xi * b[s] == m, (at, s, b)


def test_xi_matches_root_norm_oracle():
    # xi from the bilinear form alone, not from the closure's origins:
    # d_s / gamma on twisted types (gamma = r for the roots of norm 2r),
    # 1 on untwisted types, and on A_{2n}^(2) 1/2 on the family-2 parts
    # 2 alpha, the only ones of norm 8, and 1 on the rest
    checked = 0
    for at in all_affine_types(12):
        d = build_affine(at)
        r = d.type.r
        for s in range(1, d.n + 1):
            for b, (_, xi) in bar_inversion_parts(d, s).items():
                if d.type.is_untwisted:
                    expect = Fraction(1)
                elif d.type.is_a2n2:
                    expect = Fraction(1, 2) if root_norm(d, b) == 8 else Fraction(1)
                else:
                    expect = Fraction(d.sym[s], r if root_norm(d, b) == 2 * r else 1)
                assert xi == expect, (at, s, b)
                checked += 1
    assert checked > 20_000


def test_family_mismatch_from_crafted_norms(monkeypatch):
    # no real root system reaches the check: 2 alpha is never a root.  A
    # closure where alpha_1 is short (origin node 1, d_1 = 1) and 2 alpha_1
    # is a root of its own puts family 1 and family 2 on the same finite part
    d = build("A", 2, 2)
    assert d.sym[1] == 1
    monkeypatch.setattr(weyl, "_closure", lambda gcm, nodes: {(0, 1): 1, (0, 2): 1})
    weyl._root_steps.cache_clear()
    try:
        with pytest.raises(FamilyMismatch, match=r"\(0, 2\) of A2~2 s=1 arises from families 2 and 1"):
            bar_inversion_parts(d, 1)
    finally:
        weyl._root_steps.cache_clear()


def test_fold_identity_e62_s2_fixture():
    d = build("E", 6, 2)
    report = verify_fold_identity(d, 2)
    entry = next(e for e in report if e.beta == (0, 2, 3, 2, 1))
    assert len(entry.fiber) == 2
    assert entry.lhs == 3 and entry.rhs == 3
    assert set(entry.fiber) == {(0, 1, 2, 2, 1, 1, 1), (0, 1, 1, 2, 2, 1, 1)}


def test_fold_identity_e62_s3_fiber_sizes():
    d = build("E", 6, 2)
    for entry in verify_fold_identity(d, 3):
        assert len(entry.fiber) == (1 if is_long(d, entry.beta) else 2)


def test_simple_orbit_roots_have_singleton_behaviour():
    # beta = alpha_{bar s}: fiber is {alpha_s}, both sides 1
    for key, s in ((("A", 5, 2), 1), (("D", 4, 2), 3), (("E", 6, 2), 1)):
        d = build(*key)
        report = verify_fold_identity(d, s)
        e = tuple(int(j == s) for j in range(d.rank))
        entry = next(en for en in report if en.beta == e)
        assert entry.lhs == entry.rhs == 1
        assert len(entry.fiber) == 1


def test_fault_injection_raises():
    d = build("D", 3, 2)
    with pytest.raises(IdentityViolation) as info:
        verify_fold_identity(d, 2, xi_fault=True)
    assert info.value.beta is not None


def test_identity_is_orbit_independent():
    # any member of the orbit behind s gives the same (beta, lhs, rhs) report
    for key, s in ((("A", 5, 2), 1), (("E", 6, 2), 1), (("E", 6, 2), 2),
                   (("D", 4, 3), 1), (("A", 4, 2), 2)):
        d = build(*key)
        om = sigma_for(d)
        base = {(e.beta, e.lhs, e.rhs) for e in verify_fold_identity(d, s)}
        for rep in om.orbits[s - 1]:
            alt = {(e.beta, e.lhs, e.rhs)
                   for e in verify_fold_identity(d, s, parent_node=rep)}
            assert alt == base
    with pytest.raises(NotInInversionSet):
        verify_fold_identity(build("E", 6, 2), 1, parent_node=3)


# The complete fold correspondence at E6~2, s=1: all sixteen parent roots
# with alpha_1-support. Parent roots are (a1..a6)-coordinates, images are
# F4-side (a1..a4).
E62_S1_TABLE = [
    ((1, 0, 0, 0, 0, 0), (1, 0, 0, 0)),
    ((1, 1, 0, 0, 0, 0), (1, 1, 0, 0)),
    ((1, 1, 1, 0, 0, 0), (1, 1, 1, 0)),
    ((1, 1, 1, 1, 0, 0), (1, 2, 1, 0)),
    ((1, 1, 1, 1, 1, 0), (2, 2, 1, 0)),
    ((1, 1, 1, 0, 0, 1), (1, 1, 1, 1)),
    ((1, 1, 1, 1, 0, 1), (1, 2, 1, 1)),
    ((1, 1, 2, 1, 0, 1), (1, 2, 2, 1)),
    ((1, 2, 2, 1, 0, 1), (1, 3, 2, 1)),
    ((1, 1, 1, 1, 1, 1), (2, 2, 1, 1)),
    ((1, 1, 2, 1, 1, 1), (2, 2, 2, 1)),
    ((1, 2, 2, 1, 1, 1), (2, 3, 2, 1)),
    ((1, 1, 2, 2, 1, 1), (2, 3, 2, 1)),
    ((1, 2, 2, 2, 1, 1), (2, 4, 2, 1)),
    ((1, 2, 3, 2, 1, 1), (2, 4, 3, 1)),
    ((1, 2, 3, 2, 1, 2), (2, 4, 3, 2)),
]
E62_S1_LONG_IMAGES = {(2, 2, 1, 0), (2, 2, 1, 1), (2, 2, 2, 1),
                      (2, 4, 2, 1), (2, 4, 3, 1), (2, 4, 3, 2)}


def test_e62_s1_full_table():
    d = build("E", 6, 2)
    om = sigma_for(d)
    parent_set = {b for b in parent_positive_roots(om) if b[1] > 0}
    assert len(parent_set) == len(E62_S1_TABLE) == 16
    for parent, image in E62_S1_TABLE:
        pv = (0,) + parent
        assert pv in parent_set
        assert fold_root(om, pv) == (0,) + image
    for _, image in E62_S1_TABLE:
        assert is_long(d, (0,) + image) == (image in E62_S1_LONG_IMAGES)
    # every image except 2321 has a singleton fiber
    images = [img for _, img in E62_S1_TABLE]
    for img in set(images):
        assert images.count(img) == (2 if img == (2, 3, 2, 1) else 1)


def test_fold_identity_e62_s4_fiber_sizes():
    d = build("E", 6, 2)
    for entry in verify_fold_identity(d, 4):
        assert len(entry.fiber) == (1 if is_long(d, entry.beta) else 2)
