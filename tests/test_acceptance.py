"""Acceptance suite: one test per criterion, exact tolerances, timed budgets.

Each test prints one PASS line on success (run with -s to see them inline).
"""

import time

from loomfold.cartan import all_affine_types, bilinear, build, build_affine
from loomfold.characters import char_product, product_from_exponents
from loomfold.folding import verify_fold_identity
from loomfold.pbw import classify_x0, eprime_graph, minuscule_case
from loomfold.qsymbolic import eta_case, q_power, qint, serre_coeff_check
from loomfold.weyl import (
    alcove_factorize,
    braid2_canonical,
    inversion_set_closed_form,
    length_delta,
    translation_minus_lambda,
)
from loomfold.verify import fold_cells, oracle_cells, series_cells

from _oracles import project_bar


def _elapsed(t0):
    return time.monotonic() - t0


def test_criterion_1_inversion_set_fixtures():
    t0 = time.monotonic()
    fixtures = {
        ("A", 5, 2, 1): {(0, 1, 0, 0), (0, 1, 1, 0), (0, 1, 1, 1),
                         (0, 1, 2, 1), (0, 2, 2, 1)},
        ("D", 3, 2, 2): {(0, 0, 1), (0, 1, 1), (0, 1, 2)},
        # sixth root is a1+2a2+2a3: the unique long combination; both the
        # closed form and the reduced-word route agree on it, and it is the
        # only choice that is a B_3 root at all
        ("D", 4, 2, 3): {(0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 1, 2),
                         (0, 0, 1, 1), (0, 1, 2, 2), (0, 1, 1, 1)},
        ("A", 2, 2, 1): {(0, 1), (1, 4)},   # {a1, 2a1 + delta}
    }
    for (fam, N, r, s), expect in fixtures.items():
        d = build(fam, N, r)
        assert set(inversion_set_closed_form(d, s)) == expect, (fam, N, r, s)
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 1: PASS  inversion-set fixtures exact")


def test_criterion_2_reduced_word_fixtures():
    t0 = time.monotonic()
    fixtures = {
        ("A", 5, 2, 1): (1, 2, 3, 2, 1),
        ("D", 3, 2, 2): (2, 1, 2),
        ("D", 4, 2, 3): (3, 2, 1, 3, 2, 3),
    }
    for (fam, N, r, s), expect in fixtures.items():
        d = build(fam, N, r)
        word, tau = alcove_factorize(d, translation_minus_lambda(d, s))
        assert braid2_canonical(d, word) == braid2_canonical(d, expect)
        assert word[0] == s
        assert word[-1] == tau[0]
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 2: PASS  reduced words match up to 2-braid moves")


def test_criterion_3_oracle_equivalence():
    t0 = time.monotonic()
    # word-based inversion sets equal the closed-form sets, for every type
    # with n <= 8 and every node; lengths and word endpoints come along, and
    # inversion_set_from_word raises NotReduced on a repeated beta
    cells = list(oracle_cells())
    assert [c for c in cells if not c[2]] == []
    assert len(cells) == 271
    assert _elapsed(t0) < 30.0
    print(f"ACCEPTANCE 3: PASS  word = closed-form on {len(cells)} cells")


def test_criterion_4_folding_exponent_identity():
    t0 = time.monotonic()
    # verify_fold_identity raises unless lhs == rhs == multiplicity of each
    # entry, so every xi * [beta]_s it accepts is a positive integer
    cells = list(fold_cells(inject_fault=False))
    assert [c for c in cells if not c[2]] == []
    # the E6~2 s=2 fiber over 2321 with sides 3 = 3
    report = verify_fold_identity(build("E", 6, 2), 2)
    entry = next(e for e in report if e.beta == (0, 2, 3, 2, 1))
    assert set(entry.fiber) == {(0, 1, 2, 2, 1, 1, 1), (0, 1, 1, 2, 2, 1, 1)}
    assert entry.lhs == 3 and entry.rhs == 3
    # the D4~3 folded sets
    d43 = build("D", 4, 3)
    folded1 = {e.beta for e in verify_fold_identity(d43, 1)}
    folded2 = {e.beta for e in verify_fold_identity(d43, 2)}
    assert folded1 == {(0, 1, 0), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 3, 2)}
    assert folded2 == {(0, 0, 1), (0, 1, 1), (0, 2, 1), (0, 3, 1), (0, 3, 2)}
    assert len(cells) == 110
    assert _elapsed(t0) < 10.0
    print(f"ACCEPTANCE 4: PASS  fold identity exact on {len(cells)} twisted cells")


def test_criterion_5_character_folding_series():
    t0 = time.monotonic()
    cells = list(series_cells(12))
    assert [c for c in cells if not c[2]] == []
    assert len(cells) == 110
    assert _elapsed(t0) < 60.0
    print(f"ACCEPTANCE 5: PASS  series folding theorem at D=12 on {len(cells)} cells")


def test_criterion_6_a22_coefficient_law():
    t0 = time.monotonic()
    ser = char_product(build("A", 2, 2), 1, 20)
    for k in range(21):
        assert ser.coefficient((0, k)) == (k + 2) // 2
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 6: PASS  A2~2 coefficients follow floor((k+2)/2), k <= 20")


def test_criterion_7_pbw_graph_fixtures():
    t0 = time.monotonic()
    case = minuscule_case(build("A", 5, 2), 1)
    g = eprime_graph(case)
    assert sorted(g.edges) == [(1, 1, 0), (2, 2, 1), (3, 1, 5), (4, 3, 2), (5, 2, 4)]
    assert g.composite_targets == []
    x = classify_x0(case)
    assert (set(x.j0), set(x.j1), x.exponents[2]) == ({1, 3}, {2}, -1)

    case = minuscule_case(build("D", 3, 2), 2)
    g = eprime_graph(case)
    assert sorted(g.edges) == [(1, 2, 0), (2, 2, 3), (3, 1, 1)]
    assert g.composite_targets == []
    x = classify_x0(case)
    assert (set(x.j0), set(x.j1), x.exponents[1]) == ({2}, {1}, 0)

    case = minuscule_case(build("D", 4, 2), 3)
    g = eprime_graph(case)
    assert sorted(g.edges) == [(1, 3, 0), (2, 3, 4), (3, 1, 2), (3, 3, 6),
                               (4, 2, 1), (5, 2, 3), (6, 1, 4)]
    assert g.composite_targets == [(5, 3, 1)]   # F(b1) F(b5) -> b5 under e'_3
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 7: PASS  e'-graphs reproduced edge-exactly, x_0 data exact")


def test_criterion_8_q_identities():
    t0 = time.monotonic()
    for case in ("i1j0_D", "i0j1_D"):
        for p in serre_coeff_check(case):
            assert p.is_zero()
    bracket = q_power(-1) - q_power(-3)
    for n in range(2, 11):
        for fam in ("A2n-1~2", "Dn+1~2"):
            ec = eta_case(fam, n)
            assert (ec.c + ec.b * bracket).is_zero()
    assert eta_case("Dn+1~2", 2, o=1).eta == q_power(-3) * (1 - q_power(-2))
    assert _elapsed(t0) < 1.0
    print("ACCEPTANCE 8: PASS  Serre coefficients vanish, eta cancellations hold")


def test_criterion_9_property_suite():
    # the named invariants, exercised directly (the module test files carry
    # the exhaustive versions)
    t0 = time.monotonic()
    for at in all_affine_types(6):
        d = build_affine(at)
        m = d.rank
        for i in range(m):
            assert sum(d.gcm[i][j] * d.kac[j] for j in range(m)) == 0
            for j in range(m):
                assert d.sym[i] * d.gcm[i][j] == d.sym[j] * d.gcm[j][i]
        for i in range(m):
            e = tuple(int(j == i) for j in range(m))
            assert bilinear(d, d.delta, e) == 0
            assert project_bar(d, project_bar(d, e)) == project_bar(d, e)
    # l(t_{-lambda_s}) = |Delta_+(t_{-lambda_s})| and the length_delta signs
    for key in (("D", 3, 2), ("A", 5, 2), ("C", 3, 1)):
        d = build(*key)
        for s in range(1, d.n + 1):
            word, _ = alcove_factorize(d, translation_minus_lambda(d, s))
            assert len(word) == len(inversion_set_closed_form(d, s))
            for k in range(d.rank):
                assert length_delta(d, s, k, "left") == (-1 if k == s else 1)
                assert length_delta(d, s, k, "right") == (-1 if k == 0 else 1)
    # series order-independence
    from loomfold.characters import char_exponents
    d = build("D", 4, 3)
    exps = char_exponents(d, 2)
    assert (product_from_exponents(list(reversed(exps)), d.n, 10).terms
            == product_from_exponents(exps, d.n, 10).terms)
    # qint multiplicativity
    assert qint(2) * qint(3) == qint(4) + qint(2)
    assert _elapsed(t0) < 30.0
    print("ACCEPTANCE 9: PASS  property suite invariants hold")
