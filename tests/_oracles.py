"""Reference implementations that the tests compare library output against.

No command and no verify-all suite reaches these, so they live with the
tests.  Each is written from its definition and shares no code with the
fast path it checks.
"""

import argparse
import functools

from loomfold import cartan, characters, cli, folding, lattice
from loomfold.cartan import AffineData, IndexOutOfRange, Matrix, Vec, bilinear
from loomfold.characters import CharSeries, _check_degree
from loomfold.cli import MAX_RANK, UsageError
from loomfold.cli import _integer as _cli_integer
from loomfold.folding import OrbitMap
from loomfold.weyl import ExtWeylElt


def finite_positive_roots(data: AffineData) -> tuple[Vec, ...]:
    """Positive roots of the underlying finite system (nodes 1..n), sorted."""
    return tuple(lattice._closure(data.gcm, range(1, data.rank)))


def project_bar(data: AffineData, v: Vec) -> Vec:
    """Orthogonal projection onto the finite part: delta -> 0, alpha_i -> alpha_i.

    Uses alpha_0 = (delta - theta)/a_0 with a_0 = 1, so the result stays
    integral on the root lattice.
    """
    if len(v) != data.rank:
        raise IndexOutOfRange(f"expected length {data.rank}")
    k = v[0]  # a_0 = 1, so the alpha_0-coordinate is the delta multiple
    return tuple(0 if i == 0 else v[i] - k * data.theta[i] for i in range(data.rank))


def root_norm(data: AffineData, v: Vec) -> int:
    """(v, v) under the symmetrized form."""
    return bilinear(data, v, v)


def is_long(data: AffineData, v: Vec) -> bool:
    """Long root test for twisted types: (beta, beta) = 2r (short roots have norm 2)."""
    return root_norm(data, v) == 2 * data.type.r


def _matmul(a: Matrix, b: Matrix) -> Matrix:
    m = len(a)
    return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m))
                 for i in range(m))


def compose(x: ExtWeylElt, y: ExtWeylElt) -> ExtWeylElt:
    """The product x y, with inverse y^{-1} x^{-1}."""
    return ExtWeylElt(_matmul(x.matrix, y.matrix), _matmul(y.inverse, x.inverse))


def simple_reflection(data: AffineData, i: int) -> ExtWeylElt:
    """The reflection s_i: alpha_j -> alpha_j - a_ij alpha_i; its own inverse."""
    m = data.rank
    data.check_node(i, 0)
    mat = tuple(tuple(int(k == j) - (k == i) * data.gcm[i][j] for j in range(m)) for k in range(m))
    return ExtWeylElt(mat, mat)


def series_from_terms(rank: int, degree: int, terms) -> CharSeries:
    """The series with the given {exponent tuple: coefficient} terms."""
    _check_degree(degree)
    series = CharSeries(rank=rank, degree=degree, buckets=tuple({} for _ in range(degree + 1)))
    for m, c in terms.items():
        k = series._key(m)
        if k is None:
            raise ValueError(f"{m} is not a monomial of height <= {degree} in {rank + 1} slots")
        series.buckets[sum(m)][k] = c
    return series


def fold_root(om: OrbitMap, beta: Vec) -> Vec:
    """Pi: alpha_i -> alpha_{bar i}, summed linearly over parent coordinates."""
    return (0,) + tuple(sum(beta[i] for i in orb) for orb in om.orbits)


# The documents that `fold-verify` and `char` wrote through `cli._json` before
# they streamed their output: stdout must be json.dumps(doc, sort_keys=True,
# indent=2) and a newline.  Layer calls go through their modules, so that a
# test that replaces one there changes the reference too.

def fold_verify_doc(data: AffineData, nodes) -> dict:
    """The fold-verify document over the given nodes of a twisted type."""
    cells = []
    for s in nodes:
        try:
            report = folding.verify_fold_identity(data, s)
            cells.append({"node": s, "ok": True, "entries": [
                {"beta": list(e.beta), "fiber": [list(b) for b in e.fiber],
                 "lhs": e.lhs, "rhs": str(e.rhs), "xi": str(e.xi)}
                for e in report]})
        except folding.IdentityViolation as exc:
            cells.append({"node": s, "ok": False, "violation": str(exc)})
    return {"type": str(data.type), "cells": cells, "ok": all(c["ok"] for c in cells)}


def series_labels(ser: CharSeries) -> dict[str, int]:
    """{"m_1,...,m_n": c} over the terms of ser, from the tuple view."""
    return {",".join(map(str, m[1:])): c for m, c in ser.terms.items()}


def char_doc(data: AffineData, s: int, degree: int, fold_check: bool) -> dict:
    """The char document of node s at the given degree."""
    ser = characters.char_product(data, s, degree)
    doc = {"type": str(data.type), "node": s, "degree": degree, "series": series_labels(ser)}
    if fold_check:
        rep = characters.series_check(data, s, degree, ser)
        doc["fold_check"] = {"equal": rep.equal, "witness": None if rep.witness is None else
                             {"monomial": ",".join(map(str, rep.witness[0][1:])),
                              "folded": rep.witness[1], "twisted": rep.witness[2]}}
    return doc


def streamed_doc(argv) -> tuple[dict, int]:
    """The document and exit code of a valid fold-verify or char command line."""
    args = cli._parse(list(argv))
    data = cartan.build_affine(cli.parse_type(args.type))
    if args.command == "fold-verify":
        all_nodes = args.all or args.node is None
        doc = fold_verify_doc(data, range(1, data.n + 1) if all_nodes else [args.node])
        return doc, 0 if doc["ok"] else 1
    doc = char_doc(data, args.node, args.degree, args.fold_check)
    return doc, 0 if doc.get("fold_check", {"equal": True})["equal"] else 1


# The argparse tree that `cli._parse` replaced, kept as the reference for its
# parity test; `cli._parse` must read every command line as this one does.
# It shares only cli's integer syntax, which test_cli checks on its own.

class _Parser(argparse.ArgumentParser):
    # raise the error cli._parse raises, so that the two compare message by message
    def error(self, message):
        raise UsageError(message)


def _integer(text: str) -> int:
    """cli's integer syntax, failing with the ArgumentTypeError that argparse
    reports by its message."""
    try:
        return _cli_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def _parser() -> _Parser:
    """The argument parser, built on the first call and reused by every later one."""
    top = _Parser(
        prog="loomfold",
        description="Exact affine root-system data, folding, and character identities. "
                    "Types are written FAMILY N ~ r, e.g. A5~2, D4~1, E6~2, "
                    f"with N <= {MAX_RANK}.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cartan", help="dump the Cartan datum of one affine type")
    p.add_argument("--type", required=True)

    p = sub.add_parser("inversions", help="inversion set of t_{-lambda_s}, by word and/or closed form")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=_integer, required=True)
    p.add_argument("--method", choices=("word", "closed", "both"), default="both")

    p = sub.add_parser("fold-verify", help="check the folding exponent identity")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=_integer)
    p.add_argument("--all", action="store_true", help="all nodes of the type")

    p = sub.add_parser("char", help="truncated character product of L_{s,a}")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=_integer, required=True)
    p.add_argument("--degree", type=_integer, default=12)
    p.add_argument("--fold-check", action="store_true",
                   help="also compare against the folded untwisted parent series")

    p = sub.add_parser("pbw-graph", help="e'-derivation graph at a minuscule node")
    p.add_argument("--type", required=True)
    p.add_argument("--node", type=_integer, required=True)
    p.add_argument("--format", choices=("dot", "json"), default="json")

    p = sub.add_parser("eta", help="b, c and eta data for the minuscule twisted families")
    p.add_argument("--type", required=True)
    p.add_argument("--o", type=_integer, choices=(1, -1), default=1)

    sub.add_parser("serre-check", help="quantum Serre coefficient cancellations")

    p = sub.add_parser("verify-all", help="run the full verification matrix")
    p.add_argument("--degree", type=_integer, default=12)
    p.add_argument("--inject-fault", action="store_true",
                   help="test-only: flip one xi value and expect a failure")
    return top
