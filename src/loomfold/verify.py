"""The suites of `loomfold verify-all`, over the layers' checks.

Each suite generator yields `(suite, label, ok, detail)` cells, and `cells`
chains them in verify-all's order; the tests iterate the same generators.
Layer functions are called through their modules, so that a tracer which
replaces them there also sees the calls.
"""

from __future__ import annotations

from itertools import chain, product

from . import cartan, characters, folding, pbw, qsymbolic, weyl


def oracle_cells():
    """Word vs closed-form inversion sets, word length, first letter and tau,
    on every node of every type with n <= 8 (271 cells)."""
    for at in cartan.all_affine_types(8):
        d = cartan.build_affine(at)
        for s in range(1, d.n + 1):
            word, tau, betas, closed = weyl.oracle(d, s)
            ok = weyl.oracle_agrees(s, word, tau, betas, closed)
            yield "oracle", f"{at} s={s}", ok, f"l={len(word)}"


def fold_cells(inject_fault: bool):
    """The folding exponent identity on every twisted node with n <= 8
    (110 cells); `inject_fault` doubles the xi values of D3~2 s=2."""
    for at in cartan.twisted_types(8):
        d = cartan.build_affine(at)
        for s in range(1, d.n + 1):
            fault = inject_fault and (str(at), s) == ("D3~2", 2)
            try:
                folding.verify_fold_identity(d, s, xi_fault=fault)
                yield "fold", f"{at} s={s}", True, ""
            except folding.IdentityViolation as exc:
                yield "fold", f"{at} s={s}", False, str(exc)


def series_cells(degree: int, max_n: int = 8):
    """Folded parent series vs twisted character series up to height
    `degree`, on every twisted node with n <= max_n (110 cells at 8)."""
    for at in cartan.twisted_types(max_n):
        d = cartan.build_affine(at)
        for s in range(1, d.n + 1):
            rep = characters.series_check(d, s, degree, characters.char_product(d, s, degree))
            yield "series", f"{at} s={s} D={degree}", rep.equal, str(rep.witness or "")


def pbw_cells():
    """Reduced words up to 2-braid moves and complete e'-pairings at three
    minuscule fixtures."""
    for family, big_n, r, s, expect_word in (("A", 5, 2, 1, (1, 2, 3, 2, 1)),
                                             ("D", 3, 2, 2, (2, 1, 2)),
                                             ("D", 4, 2, 3, (3, 2, 1, 3, 2, 3))):
        d = cartan.build(family, big_n, r)
        case = pbw.minuscule_case(d, s)
        g = pbw.eprime_graph(case)
        ok = (weyl.braid2_canonical(d, case.word) == weyl.braid2_canonical(d, expect_word)
              and not g.pairing_misses)
        yield "pbw", f"{d.type} s={s}", ok, f"edges={len(g.edges)}"


def _eta_failure(family: str, n: int, o: int) -> str:
    """What fails for eta_case(family, n, o), or "" when nothing does."""
    case = qsymbolic.eta_case(family, n, o)
    psi = qsymbolic.psi_from_bc("omega", case.b, case.c, o)
    if not case.cancellation_ok:
        return "eta cancellation fails"
    if psi.kind != "pole":
        return f"Psi(z) is {psi.kind}, not a single pole"
    if psi.den[1] != -(qsymbolic.a_param() * case.eta):
        return "the pole of Psi(z) is not at z = 1/(a*eta)"
    if psi.expand(6) != qsymbolic.psi_series_direct(case.b, case.c, o, 1, 6):
        return "Psi(z) expands differently from the direct series"
    return ""


def qsymbolic_cells():
    """One cell: the quantum Serre cancellations of the D cases, then, for n = 2..10,
    both minuscule families and o = +-1, the eta cancellation and
    Psi(z) = omega / (1 - a eta z)."""
    try:
        for _, kwargs in qsymbolic._SERRE_CASES[:2]:
            qsymbolic.serre_coeff_check(**kwargs)
    except qsymbolic.NonzeroCoefficient as exc:
        yield "qsymbolic", "identities", False, str(exc)
        return
    for n, family, o in product(range(2, 11), ("A2n-1~2", "Dn+1~2"), (1, -1)):
        why = _eta_failure(family, n, o)
        if why:
            yield "qsymbolic", "identities", False, f"{why} for {family} n={n} o={o}"
            return
    yield "qsymbolic", "identities", True, ""


def cells(degree: int, inject_fault: bool):
    """The whole verification matrix, suite by suite, in verify-all's order."""
    return chain(oracle_cells(), fold_cells(inject_fault), series_cells(degree),
                 pbw_cells(), qsymbolic_cells())
