"""The verification sweep of `loomfold verify-all`, one generator per suite.

Each generator yields `(suite, label, ok, detail)` cells, and `cells` chains
them in verify-all's order; the tests iterate the same generators.  Layer
functions are called through their modules, so that a tracer which replaces
them there also sees the calls made from here.
"""

from __future__ import annotations

from itertools import chain

from . import cartan, characters, folding, pbw, qsymbolic, weyl


def oracle_cells():
    """Word vs closed-form inversion sets, word length, first letter and tau,
    on every node of every type with n <= 8 (271 cells)."""
    for at in cartan.all_affine_types(8):
        d = cartan.build_affine(at)
        for s in range(1, d.n + 1):
            word, tau = weyl.alcove_factorize(d, weyl.translation_minus_lambda(d, s))
            betas = weyl.inversion_set_from_word(d, word)
            closed = weyl.inversion_set_closed_form(d, s)
            ok = (set(betas) == set(closed) and len(word) == len(closed)
                  and word[0] == s and word[-1] == tau[0])
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
        om = folding.sigma_for(d)
        for s in range(1, d.n + 1):
            parent = characters.product_from_exponents(
                folding.parent_char_exponents(om, s), om.parent_rank, degree)
            folded = characters.fold_series(parent, om, degree)
            rep = characters.series_equal(folded, characters.char_product(d, s, degree), degree)
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


def qsymbolic_cells():
    """One cell: the quantum Serre cancellations, then the eta cancellation
    for n = 2..10 in both minuscule twisted families."""
    try:
        qsymbolic.serre_coeff_check("i1j0_D")
        qsymbolic.serre_coeff_check("i0j1_D")
    except qsymbolic.NonzeroCoefficient as exc:
        yield "qsymbolic", "identities", False, str(exc)
        return
    for n in range(2, 11):
        for family in ("A2n-1~2", "Dn+1~2"):
            if not qsymbolic.eta_case(family, n).cancellation_ok:
                yield "qsymbolic", "identities", False, f"eta cancellation fails for {family} n={n}"
                return
    yield "qsymbolic", "identities", True, ""


def cells(degree: int, inject_fault: bool):
    """The whole verification matrix, suite by suite, in verify-all's order."""
    return chain(oracle_cells(), fold_cells(inject_fault), series_cells(degree),
                 pbw_cells(), qsymbolic_cells())
