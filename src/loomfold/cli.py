"""Command-line interface: every computation, and verify-all over `loomfold.verify`.

Type strings use `~` for the twist superscript (A5~2 means the second
twist of A_5) to stay shell-safe.  All subcommands are pure functions of
their arguments; JSON output has sorted keys and no timestamps.  Exit
codes: 0 ok, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import cartan, characters, folding, pbw, qsymbolic, verify, weyl
from .cartan import AffineData, InvalidType


class ParseError(ValueError):
    def __init__(self, msg: str, position: int):
        super().__init__(f"{msg} (at position {position})")
        self.position = position


class UnknownType(ValueError):
    """Well-formed type string that is not a row of the affine table."""


class OutOfRange(ValueError):
    """A --node, --degree or rank N value outside its range."""


# affine_type builds an N-long diagram and the Cartan build is O(N^3) exact
# elimination, so the CLI caps N before calling either
MAX_RANK = 64


def _node(d: AffineData, s: int) -> int:
    """s, checked to be one of the nodes 1..n of d (0 is the affine node)."""
    if not 1 <= s <= d.n:
        raise OutOfRange(f"node {s} is not in 1..{d.n} for {d.type}")
    return s


def _degree(k: int) -> int:
    """k, checked to be a height bound >= 0."""
    if k < 0:
        raise OutOfRange(f"degree {k} is negative")
    return k


def parse_type(text: str) -> cartan.AffineType:
    """Parse `<FAMILY><N>~<r>` (e.g. A5~2, D4~1) into a validated AffineType."""
    if not text or text[0] not in "ABCDEFG":
        raise ParseError("expected a family letter A..G", 0)
    k = 1
    while k < len(text) and text[k].isdigit():
        k += 1
    if k == 1:
        raise ParseError("expected the rank N after the family letter", 1)
    big_n = int(text[1:k])
    if k >= len(text) or text[k] != "~":
        raise ParseError("expected '~' before the twist", k)
    rest = text[k + 1:]
    if not rest.isdigit():
        raise ParseError("expected the twist r after '~'", k + 1)
    r = int(rest)
    if big_n > MAX_RANK:
        raise OutOfRange(f"type {text} has rank N = {big_n} above the cap {MAX_RANK}")
    try:
        return cartan.affine_type(text[0], big_n, r)
    except InvalidType as exc:
        raise UnknownType(str(exc)) from exc


def _data(args) -> AffineData:
    return cartan.build_affine(parse_type(args.type))


def _dump(obj) -> None:
    print(json.dumps(obj, sort_keys=True, indent=2))


def _monomial_key(m) -> str:
    return ",".join(str(x) for x in m[1:])


def cmd_cartan(args) -> int:
    d = _data(args)
    _dump({
        "type": str(d.type), "family": d.type.family, "N": d.type.N,
        "r": d.type.r, "n": d.n,
        "gcm": [list(row) for row in d.gcm],
        "kac": list(d.kac), "dual_kac": list(d.dual_kac), "sym": list(d.sym),
        "delta": list(d.delta), "theta": list(d.theta),
    })
    return 0


def cmd_inversions(args) -> int:
    d = _data(args)
    s = _node(d, args.node)
    out: dict = {"type": str(d.type), "node": s, "method": args.method}
    closed = weyl.inversion_set_closed_form(d, s)
    word, tau = weyl.alcove_factorize(d, weyl.translation_minus_lambda(d, s))
    betas = weyl.inversion_set_from_word(d, word)
    if args.method in ("word", "both"):
        out["word"] = list(word)
        out["tau"] = list(tau)
        out["betas"] = [list(b) for b in betas]
    if args.method in ("closed", "both"):
        out["closed"] = [list(b) for b in closed]
    out["roots"] = [{"coords": list(b), "height": sum(b), "coeff_s": b[s]}
                    for b in closed]
    ok = True
    if args.method == "both":
        ok = set(betas) == set(closed)
        out["agree"] = ok
    _dump(out)
    return 0 if ok else 1


def cmd_fold_verify(args) -> int:
    d = _data(args)
    if d.type.r == 1:
        raise UnknownType(f"{d.type} is untwisted; fold-verify needs a twisted type")
    node = None if args.node is None else _node(d, args.node)
    nodes = range(1, d.n + 1) if args.all or node is None else [node]
    cells = []
    code = 0
    for s in nodes:
        try:
            report = folding.verify_fold_identity(d, s)
            cells.append({"node": s, "ok": True, "entries": [
                {"beta": list(e.beta), "fiber": [list(b) for b in e.fiber],
                 "lhs": e.lhs, "rhs": str(e.rhs), "xi": str(e.xi)}
                for e in report]})
        except folding.IdentityViolation as exc:
            cells.append({"node": s, "ok": False, "violation": str(exc)})
            code = 1
    _dump({"type": str(d.type), "cells": cells, "ok": code == 0})
    return code


def cmd_char(args) -> int:
    d = _data(args)
    s, degree = _node(d, args.node), _degree(args.degree)
    ser = characters.char_product(d, s, degree)
    out: dict = {
        "type": str(d.type), "node": s, "degree": degree,
        "series": {_monomial_key(m): c for m, c in sorted(ser.terms.items())},
    }
    code = 0
    if args.fold_check:
        if d.type.r == 1:
            raise UnknownType(f"{d.type} is untwisted; --fold-check needs a twisted type")
        om = folding.sigma_for(d)
        parent = characters.product_from_exponents(
            folding.parent_char_exponents(om, s), om.parent_rank, degree)
        folded = characters.fold_series(parent, om, degree)
        rep = characters.series_equal(folded, ser, degree)
        out["fold_check"] = {"equal": rep.equal,
                             "witness": None if rep.witness is None else
                             {"monomial": _monomial_key(rep.witness[0]),
                              "folded": rep.witness[1], "twisted": rep.witness[2]}}
        code = 0 if rep.equal else 1
    _dump(out)
    return code


def cmd_pbw_graph(args) -> int:
    d = _data(args)
    case = pbw.minuscule_case(d, _node(d, args.node))
    g = pbw.eprime_graph(case)
    if args.format == "dot":
        print(pbw.graph_to_dot(g))
        return 0
    _dump({
        "type": str(d.type), "node": args.node,
        "word": list(case.word), "tau": list(case.tau),
        "betas": [list(b) for b in case.betas],
        "theta_index": case.theta_index,
        "edges": [{"from": k, "label": i, "to": j} for k, i, j in sorted(g.edges)],
        "pairing_misses": [list(x) for x in g.pairing_misses],
        "composite_targets": [{"target": j, "label": i, "left_factor": a}
                              for j, i, a in sorted(g.composite_targets)],
    })
    return 0


def _eta_family(at: cartan.AffineType) -> str:
    if at.r == 2 and at.family == "A" and at.N % 2 == 1:
        return "A2n-1~2"
    if at.r == 2 and at.family == "D":
        return "Dn+1~2"
    raise UnknownType(f"eta is defined for A_odd~2 and D~2 types, not {at}")


def cmd_eta(args) -> int:
    at = parse_type(args.type)
    case = qsymbolic.eta_case(_eta_family(at), at.n, o=args.o)
    _dump({
        "type": str(at), "family": case.family, "n": case.n, "o": case.o,
        "b": case.b.json_map(), "c": case.c.json_map(), "eta": case.eta.json_map(),
        "cancellation_ok": case.cancellation_ok,
        # the two module realizations shift the spectral parameter with
        # opposite signs; carried as metadata, never resolved numerically
        "spectral_shift": {"negative_module": "a*eta", "positive_module": "-a*eta"},
    })
    return 0 if case.cancellation_ok else 1


def cmd_serre_check(args) -> int:
    out: dict = {"cases": {}}
    code = 0
    for case in ("i1j0_D", "i0j1_D"):
        try:
            coeffs = qsymbolic.serre_coeff_check(case)
            out["cases"][case] = {"coefficients": [p.json_map() for p in coeffs], "ok": True}
        except qsymbolic.NonzeroCoefficient as exc:
            out["cases"][case] = {"ok": False, "error": str(exc)}
            code = 1
    for a_ij, d_i in ((0, 1), (-1, 1), (-1, 2), (-2, 1), (-3, 1)):
        name = f"generic(a_ij={a_ij},d_i={d_i})"
        try:
            coeffs = qsymbolic.serre_coeff_check("generic", a_ij=a_ij, d_i=d_i)
            out["cases"][name] = {"coefficients": [p.json_map() for p in coeffs], "ok": True}
        except qsymbolic.NonzeroCoefficient as exc:
            out["cases"][name] = {"ok": False, "error": str(exc)}
            code = 1
    out["ok"] = code == 0
    _dump(out)
    return code


def cmd_verify_all(args) -> int:
    failures = 0
    total = 0
    for suite, label, ok, detail in verify.cells(_degree(args.degree), args.inject_fault):
        total += 1
        if not ok:
            failures += 1
        line = f"{'PASS' if ok else 'FAIL'} {suite:9s} {label}"
        if detail and not ok:
            line += f"  [{detail}]"
        print(line)
    print(f"verify-all: {total - failures}/{total} cells passed")
    return 0 if failures == 0 else 1


def main(argv=None) -> int:
    top = argparse.ArgumentParser(
        prog="loomfold",
        description="Exact affine root-system data, folding, and character identities. "
                    "Types are written FAMILY N ~ r, e.g. A5~2, D4~1, E6~2, "
                    f"with N <= {MAX_RANK}.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cartan", help="dump the Cartan datum of one affine type")
    p.add_argument("--type", required=True)
    p.set_defaults(func=cmd_cartan)

    p = sub.add_parser("inversions", help="inversion set of t_{-lambda_s}, by word and/or closed form")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--method", choices=("word", "closed", "both"), default="both")
    p.set_defaults(func=cmd_inversions)

    p = sub.add_parser("fold-verify", help="check the folding exponent identity")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int)
    p.add_argument("--all", action="store_true", help="all nodes of the type")
    p.set_defaults(func=cmd_fold_verify)

    p = sub.add_parser("char", help="truncated character product of L_{s,a}")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--fold-check", action="store_true",
                   help="also compare against the folded untwisted parent series")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("pbw-graph", help="e'-derivation graph at a minuscule node")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=int, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="json")
    p.set_defaults(func=cmd_pbw_graph)

    p = sub.add_parser("eta", help="b, c and eta data for the minuscule twisted families")
    p.add_argument("--type", required=True)
    p.add_argument("--o", type=int, choices=(1, -1), default=1)
    p.set_defaults(func=cmd_eta)

    p = sub.add_parser("serre-check", help="quantum Serre coefficient cancellations")
    p.set_defaults(func=cmd_serre_check)

    p = sub.add_parser("verify-all", help="run the full verification matrix")
    p.add_argument("--degree", type=int, default=12)
    p.add_argument("--inject-fault", action="store_true",
                   help="test-only: flip one xi value and expect a failure")
    p.set_defaults(func=cmd_verify_all)

    args = top.parse_args(argv)
    try:
        return args.func(args)
    except (folding.IdentityViolation, qsymbolic.NonzeroCoefficient, weyl.NotReduced) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
