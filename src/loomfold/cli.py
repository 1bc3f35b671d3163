"""Command-line interface: every computation, and verify-all over `loomfold.verify`.

Importing it loads `cartan` only; each command imports the layers it calls
when it runs, so a query loads no layer it does not call.

Type strings use `~` for the twist superscript (A5~2 means the second
twist of A_5) to stay shell-safe.  All subcommands are pure functions of
their arguments; JSON output has sorted keys and no timestamps.  Exit
codes: 0 ok, 1 verification failure, 2 usage error, 141 (128 + SIGPIPE)
when the reader closes stdout early, which prints nothing, and 74 (EX_IOERR)
when stdout cannot be written.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, NamedTuple

from . import cartan
from .cartan import MAX_DEGREE, AffineData, InvalidType, VerificationFailure

if TYPE_CHECKING:
    from .characters import CharSeries


class ParseError(ValueError):
    def __init__(self, msg: str, position: int):
        super().__init__(f"{msg} (at position {position})")
        self.position = position


class UnknownType(ValueError):
    """Well-formed type string that is not a row of the affine table."""


class OutOfRange(ValueError):
    """A --degree or rank N value outside its range."""


class UsageError(ValueError):
    """A command line that `_parse` rejects."""


class _BadInteger(ValueError):
    """Text that is not an integer in the command line's one integer syntax."""


# affine_type builds an N-long diagram and the Cartan build is O(N^2) on a
# Dynkin diagram (Bareiss elimination with deferred rescaling), so the CLI
# caps N before calling either; at the cap, on a 2-vCPU Xeon VM, `cartan
# --type D64~1` takes about 0.07-0.10 s, mostly interpreter start, and
# building every type with n <= 64 about 0.33-0.47 s
MAX_RANK = 64


# The one integer syntax of the command line: ASCII digits after an optional
# '-', without a leading zero and without "-0", so that every accepted integer
# is written one way, as str() writes it
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")


def _integer(text: str) -> int:
    """text as an int when it is in the integer syntax, else _BadInteger."""
    if _INTEGER.fullmatch(text) is None:
        raise _BadInteger(f"{text!r} is not an integer in canonical ASCII form")
    try:
        return int(text)
    except ValueError as exc:  # more digits than sys.get_int_max_str_digits()
        raise _BadInteger(str(exc)) from None


def _degree(k: int) -> int:
    """k, checked to be a height bound in 0..MAX_DEGREE before any cell runs."""
    if k < 0:
        raise OutOfRange(f"degree {k} is negative")
    if k > MAX_DEGREE:
        raise OutOfRange(f"degree {k} is above the cap {MAX_DEGREE}")
    return k


def parse_type(text: str) -> cartan.AffineType:
    """Parse `<FAMILY><N>~<r>` (e.g. A5~2, D4~1) into a validated AffineType."""
    if not text or text[0] not in "ABCDEFG":
        raise ParseError("expected a family letter A..G", 0)
    k = 1
    while k < len(text) and text[k] in "0123456789":
        k += 1
    big_n = _type_integer(text, 1, k, "the rank N after the family letter")
    if k >= len(text) or text[k] != "~":
        raise ParseError("expected '~' before the twist", k)
    r = _type_integer(text, k + 1, len(text), "the twist r after '~'")
    if big_n > MAX_RANK:
        raise OutOfRange(f"type {text} has rank N = {big_n} above the cap {MAX_RANK}")
    try:
        return cartan.affine_type(text[0], big_n, r)
    except InvalidType as exc:
        raise UnknownType(str(exc)) from exc


def _type_integer(text: str, start: int, stop: int, what: str) -> int:
    """text[start:stop] by `_integer`, or ParseError at start."""
    try:
        return _integer(text[start:stop])
    except _BadInteger as exc:
        raise ParseError(f"expected {what}: {exc}", start) from None


def _data(args) -> AffineData:
    return cartan.build_affine(parse_type(args.type))


def _json(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)`, byte for byte, for str-keyed
    dicts, lists, str, int, bool and None; any other type raises TypeError.

    json's `indent` runs its pure-Python encoder; this writes each all-int
    list, the bulk of most outputs, with one %-format.
    """
    out: list[str] = []
    _emit(obj, "\n", out)
    return "".join(out)


def _emit(obj, pad: str, out: list[str]) -> None:
    """Append obj as JSON to out; pad is the newline and indent of obj's line."""
    kind = type(obj)
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is list or kind is dict:
        if not obj:
            out.append("[]" if kind is list else "{}")
            return
        inner = pad + "  "
        if kind is dict:
            sep = "{" + inner
            for key, value in sorted(obj.items()):
                if type(key) is not str:
                    raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
                out.append(sep + encode_basestring_ascii(key) + ": ")
                _emit(value, inner, out)
                sep = "," + inner
            out.append(pad + "}")
        elif {*map(type, obj)} == {int}:
            out.append(_ints(obj, pad))
        else:
            sep = "[" + inner
            for value in obj:
                out.append(sep)
                _emit(value, inner, out)
                sep = "," + inner
            out.append(pad + "]")
    else:
        raise TypeError(f"cannot write {kind.__name__} as JSON")


def _ints(values, pad: str) -> str:
    """A non-empty sequence of ints as JSON, as `_emit` writes it at pad."""
    return _int_list_format(len(values), pad) % tuple(values)


@functools.cache
def _int_list_format(length: int, pad: str) -> str:
    """The %-format of a JSON list of `length` ints at pad; one format call
    writes the list in a third of the time of a join over the ints' reprs."""
    inner = pad + "  "
    return "[" + inner + ("," + inner).join(["%d"] * length) + pad + "]"


def _dump(obj) -> None:
    print(_json(obj))


def _monomial_key(m) -> str:
    return ",".join(map(str, m[1:]))


# keys decoded per `_digit_columns` call, and `char` lines per write, so that
# the lists and strings built at a time stay small
_SLICE = 8192


def _series_lines(ser: CharSeries) -> list[str]:
    """The `    "label": c` line of `char`'s JSON for each term of ser, label
    `_monomial_key(m)`, sorted.  '"' sorts below every digit and ',', so the
    lines sort as their labels do, as json's sort_keys orders them."""
    from . import characters
    line = '    "' + ",".join(["%d"] * ser.rank) + '": %d'
    keys = chain.from_iterable(ser.buckets)
    coeffs = chain.from_iterable(map(dict.values, ser.buckets))
    lines: list[str] = []
    while chunk := [*islice(keys, _SLICE)]:
        cols = characters._digit_columns(chunk, ser.degree + 1, ser.rank + 1)
        lines += map(line.__mod__, zip(*cols[1:], coeffs))
    lines.sort()
    return lines


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
    from . import weyl
    d = _data(args)
    s = d.check_node(args.node)
    out: dict = {"type": str(d.type), "node": s, "method": args.method}
    word, tau, betas, closed = weyl.oracle(d, s)
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
        ok = weyl.oracle_agrees(s, word, tau, betas, closed)
        out["agree"] = ok
    _dump(out)
    return 0 if ok else 1


def cmd_fold_verify(args) -> int:
    """Writes each node's cell as soon as its identity is checked; the JSON is
    `_json`'s, byte for byte, with no document built."""
    from . import folding
    d = _data(args)
    if d.type.r == 1:
        raise UnknownType(f"{d.type} is untwisted; fold-verify needs a twisted type")
    node = None if args.node is None else d.check_node(args.node)
    nodes = range(1, d.n + 1) if args.all or node is None else [node]
    write = sys.stdout.write
    pairs: dict = {}  # (beta, fiber) -> its text; the pairs recur across nodes
    sep = '{\n  "cells": [\n    '
    code = 0
    for s in nodes:
        out = [sep]
        try:
            report = folding.verify_fold_identity(d, s)
        except folding.IdentityViolation as exc:
            _emit({"node": s, "ok": False, "violation": str(exc)}, "\n    ", out)
            code = 1
        else:
            _fold_cell(s, report, pairs, out)
        write("".join(out))
        sep = ",\n    "
    write('\n  ],\n  "ok": %s,\n  "type": %s\n}\n'
          % ("false" if code else "true", encode_basestring_ascii(str(d.type))))
    return code


# the newline and indent of a fold entry's keys, and of the items of its lists
_P10, _P12 = "\n" + " " * 10, "\n" + " " * 12
_TAIL = "%d," + _P10 + '"rhs": "%s",' + _P10 + '"xi": "%s"\n        }'


def _fold_cell(s: int, report, pairs: dict, out: list[str]) -> None:
    """Append the JSON of node s's passing cell, at indent 4, from its FoldEntry
    list, which holds alpha_s and so is never empty; pairs caches the text of
    each (beta, fiber), up to the lhs value."""
    out.append('{\n      "entries": [')
    sep = "\n        "
    for beta, fiber, lhs, rhs, xi in report:
        pair = pairs.get((beta, fiber))
        if pair is None:
            pair = pairs[beta, fiber] = (
                "{" + _P10 + '"beta": ' + _ints(beta, _P10) + "," + _P10 + '"fiber": ['
                + _P12 + ("," + _P12).join([_ints(b, _P12) for b in fiber])
                + _P10 + "]," + _P10 + '"lhs": ')
        out += sep, pair, _TAIL % (lhs, rhs, xi)
        sep = ",\n        "
    out.append('\n      ],\n      "node": %d,\n      "ok": true\n    }' % s)


def cmd_char(args) -> int:
    """Writes the series lines sorted, in chunks; the JSON is `_json`'s, byte
    for byte, with no document built."""
    from . import characters
    d = _data(args)
    s, degree = d.check_node(args.node), _degree(args.degree)
    if args.fold_check and d.type.r == 1:
        raise UnknownType(f"{d.type} is untwisted; --fold-check needs a twisted type")
    ser = characters.char_product(d, s, degree)
    code = 0
    out = ['{\n  "degree": %d,\n' % degree]
    if args.fold_check:  # "fold_check" sorts before "node" and "series"
        rep = characters.series_check(d, s, degree, ser)
        out.append('  "fold_check": ')
        _emit({"equal": rep.equal,
               "witness": None if rep.witness is None else
               {"monomial": _monomial_key(rep.witness[0]),
                "folded": rep.witness[1], "twisted": rep.witness[2]}}, "\n  ", out)
        out.append(",\n")
        code = 0 if rep.equal else 1
    lines = _series_lines(ser)  # never empty: the constant term is 1
    out.append('  "node": %d,\n  "series": {\n' % s)
    write = sys.stdout.write
    write("".join(out))
    for i in range(0, len(lines), _SLICE):
        write((",\n" if i else "") + ",\n".join(lines[i:i + _SLICE]))
    write('\n  },\n  "type": %s\n}\n' % encode_basestring_ascii(str(d.type)))
    return code


def cmd_pbw_graph(args) -> int:
    from . import pbw
    d = _data(args)
    case = pbw.minuscule_case(d, d.check_node(args.node))
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
    from . import qsymbolic
    at = parse_type(args.type)
    case = qsymbolic.eta_case(_eta_family(at), at.n, o=args.o)
    _dump({
        "type": str(at), "family": case.family, "n": case.n, "o": case.o,
        "b": case.b.json_map(), "c": case.c.json_map(), "eta": case.eta.json_map(),
        "cancellation_ok": case.cancellation_ok,
        # the two module realizations shift the spectral parameter with
        # opposite signs; verify-all's qsymbolic cell checks that a*eta is
        # the pole of Psi(z) = omega / (1 - a*eta z)
        "spectral_shift": {"negative_module": "a*eta", "positive_module": "-a*eta"},
    })
    return 0 if case.cancellation_ok else 1


@functools.cache
def _serre_report() -> tuple[str, int]:
    """serre-check's output and exit code; it takes no arguments, so they are
    computed once per process."""
    from . import qsymbolic
    out: dict = {"cases": {}}
    code = 0
    for name, kwargs in qsymbolic._SERRE_CASES:
        try:
            coeffs = qsymbolic.serre_coeff_check(**kwargs)
            out["cases"][name] = {"coefficients": [p.json_map() for p in coeffs], "ok": True}
        except qsymbolic.NonzeroCoefficient as exc:
            out["cases"][name] = {"ok": False, "error": str(exc)}
            code = 1
    out["ok"] = code == 0
    return _json(out), code


def cmd_serre_check(args) -> int:
    text, code = _serre_report()
    print(text)
    return code


def cmd_verify_all(args) -> int:
    from . import verify
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


class _Option(NamedTuple):
    """One option of a command: `convert` reads its value, which must then be
    one of `choices` when there are any; a flag takes no value."""
    help: str
    convert: Callable[[str], object] = str
    choices: tuple = ()
    default: object = None
    required: bool = False
    flag: bool = False


_TYPE = _Option("affine type FAMILY N ~ r, e.g. A5~2", required=True)
_NODE = _Option("node s in 1..n", _integer, required=True)
_DEGREE = _Option(f"height bound 0..{MAX_DEGREE}", _integer, default=12)

# command -> (help line, {option: _Option}); `main` looks up `cmd_<command>`
# by name at call time, so a function replaced on this module still runs
_COMMANDS = {
    "cartan": ("dump the Cartan datum of one affine type", {"--type": _TYPE}),
    "inversions": ("inversion set of t_{-lambda_s}, by word and/or closed form", {
        "--type": _TYPE, "--node": _NODE,
        "--method": _Option("word, closed or both", choices=("word", "closed", "both"),
                            default="both")}),
    "fold-verify": ("check the folding exponent identity", {
        "--type": _TYPE, "--node": _Option("node s in 1..n; all nodes when absent", _integer),
        "--all": _Option("all nodes of the type", default=False, flag=True)}),
    "char": ("truncated character product of L_{s,a}", {
        "--type": _TYPE, "--node": _NODE, "--degree": _DEGREE,
        "--fold-check": _Option("also compare against the folded untwisted parent series",
                                default=False, flag=True)}),
    "pbw-graph": ("e'-derivation graph at a minuscule node", {
        "--type": _TYPE, "--node": _NODE,
        "--format": _Option("dot or json", choices=("dot", "json"), default="json")}),
    "eta": ("b, c and eta data for the minuscule twisted families", {
        "--type": _TYPE, "--o": _Option("1 or -1", _integer, (1, -1), 1)}),
    "serre-check": ("quantum Serre coefficient cancellations", {}),
    "verify-all": ("run the full verification matrix", {
        "--degree": _DEGREE,
        "--inject-fault": _Option("test-only: flip one xi value and expect a failure",
                                  default=False, flag=True)}),
}

_HELP = ("-h", "--help")

_ABOUT = ("Exact affine root-system data, folding, and character identities. Types are "
          f"written FAMILY N ~ r, e.g. A5~2, D4~1, E6~2, with N <= {MAX_RANK}.")

# an argument that is no option and looks like a negative number is a value
_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _classify(arg: str, names: tuple[str, ...]) -> tuple[str | None, str | None] | None:
    """How the command line reads arg among the option names: None for a value,
    else (the option, or None for an unknown one; the text glued to it, or None).

    An option may be a unique prefix of a name (`--ty`), and may carry its
    value after '=' (`--type=A5~2`); -h may carry text directly (`-hx`).
    """
    if arg in names:
        return arg, None
    if arg[:1] != "-" or len(arg) == 1:
        return None
    head, eq, text = arg.partition("=")
    if eq and head in names:
        return head, text
    if arg[1] == "-":
        matches = [(name, text if eq else None) for name in names if name.startswith(head)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {arg} could match "
                             f"{', '.join(name for name, _ in matches)}")
    else:  # -h is the one short option, and takes text glued to it
        matches = [("-h", arg[2:])] if arg[:2] == "-h" else []
    if matches:
        return matches[0]
    return None if _NEGATIVE.match(arg) or " " in arg else (None, None)


def _flag(name: str, text: str | None, command: str | None) -> None:
    """Read a flag or -h/--help (at top level when command is None): raise
    UsageError when text is glued to it, and print the help and exit 0 for help."""
    if name == "-h" and text:
        text = text.lstrip("h") or None  # -hh is -h -h
    if text is not None:
        raise UsageError(f"argument {'-h/--help' if name in _HELP else name}: "
                         f"ignored explicit argument {text!r}")
    if name in _HELP:
        print(_help_text(command))
        raise SystemExit(0)


def _help_text(command: str | None) -> str:
    """The help of the command line (command None) or of one command, from the table."""
    if command is None:
        usage, about, kind = "[-h] COMMAND", _ABOUT, "commands"
        rows = [(name, line) for name, (line, _) in _COMMANDS.items()]
    else:
        (about, options), usage, kind = _COMMANDS[command], f"{command} [-h]", "options"
        rows = [("-h, --help", "show this help and exit")] + [
            (name, opt.help + ("" if opt.flag else " (required)" if opt.required else
                               f" (default {opt.default})")) for name, opt in options.items()]
    return "\n".join([f"usage: loomfold {usage} [OPTIONS]", "", about, "", f"{kind}:",
                      *(f"  {name:14} {text}" for name, text in rows)])


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command and its options, with the defaults of those not given.

    Each command line is read, and rejected with the same message, as by the
    argparse tree that this table replaced, but for one form: `--opt=--`
    gives the text '--'.  Options are read in order, and the last of a
    repeated one wins; a value is the next argument unless that is an option
    or '--'.  An ambiguous prefix is rejected before the rest is read;
    missing options, then unrecognized arguments, after it.
    """
    extras = []
    for i, arg in enumerate(argv):
        kind = None if arg == "--" else _classify(arg, _HELP)
        if kind is None:
            break
        if kind[0] is not None:
            _flag(*kind, None)
        extras.append(arg)
    else:
        i = len(argv)
    if argv[i:] in ([], ["--"]):  # '--' needs a command after it
        raise UsageError("the following arguments are required: command")
    command, rest = argv[i], argv[i + 1:]
    if command not in _COMMANDS:
        raise UsageError(f"argument command: invalid choice: {command!r} "
                         f"(choose from {', '.join(map(repr, _COMMANDS))})")
    options = _COMMANDS[command][1]
    stop = rest.index("--") if "--" in rest else len(rest)  # all after '--' are values
    kinds = [_classify(arg, (*_HELP, *options)) for arg in rest[:stop]]
    values = {name: opt.default for name, opt in options.items()}
    j = 0
    while j < len(rest):
        name, text = (kinds[j] if j < stop else None) or (None, None)
        j += 1
        if name is None:
            extras.append(rest[j - 1])
            continue
        opt = options.get(name)
        if opt is None or opt.flag:
            _flag(name, text, command)
            values[name] = True
            continue
        if text is None:
            if j >= stop or kinds[j] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            text = rest[j]
            j += 1
        try:
            values[name] = opt.convert(text)
        except _BadInteger as exc:
            raise UsageError(f"argument {name}: {exc}") from None
        if opt.choices and values[name] not in opt.choices:
            raise UsageError(f"argument {name}: invalid choice: {values[name]!r} "
                             f"(choose from {', '.join(map(repr, opt.choices))})")
    # a required option has no default, and a value read is never None
    missing = [name for name, opt in options.items() if opt.required and values[name] is None]
    if missing:
        raise UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **{name[2:].replace("-", "_"): value
                                               for name, value in values.items()})


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if sys.stdout is None:  # started with file descriptor 1 closed
            raise OSError("stdout is closed")
        code = globals()["cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a reader that closed the pipe is seen here, not at exit
        return code
    except OSError as exc:
        # the library does no I/O, so this is a write to stdout that failed
        if sys.stdout is not None:
            # point stdout at devnull, so the flush at exit cannot raise again
            # (as the Python docs of the signal module advise)
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return 141  # 128 + SIGPIPE, as a shell reports a stage that SIGPIPE ended; quiet
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 74  # EX_IOERR
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
