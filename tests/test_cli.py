"""CLI surface: type parsing, JSON determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import loomfold
from loomfold import cartan, characters, cli, folding, pbw, qsymbolic, verify, weyl
from loomfold.cartan import all_affine_types
from loomfold.cli import MAX_DEGREE, MAX_RANK, OutOfRange, ParseError, UnknownType, main, parse_type

import _oracles


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_type_fixtures():
    at = parse_type("A5~2")
    assert (at.family, at.N, at.r, at.n) == ("A", 5, 2, 3)
    assert parse_type("D4~3").n == 2
    assert parse_type("A16~2").n == 8
    assert parse_type("D3~2").n == 2
    assert parse_type("G2~1").n == 2


def test_parse_type_errors():
    with pytest.raises(UnknownType):
        parse_type("B2~3")
    with pytest.raises(UnknownType):
        parse_type("A3~2")
    for bad, pos in (("X5~2", 0), ("A~2", 1), ("A5-2", 2), ("A5~x", 3), ("", 0)):
        with pytest.raises(ParseError) as info:
            parse_type(bad)
        assert info.value.position == pos


def test_parse_type_round_trips_every_type():
    # every type string it accepts is written one way; N above the cap is refused
    for at in all_affine_types(64):
        if at.N > MAX_RANK:
            with pytest.raises(OutOfRange):
                parse_type(str(at))
            continue
        assert parse_type(str(at)) == at
        assert str(parse_type(str(at))) == str(at)


@pytest.mark.parametrize("text, pos", [
    ("A01~1", 1), ("A00~1", 1), ("A5~02", 3), ("A5~00", 3),
    ("A\u0665~1", 1), ("A\u00b2~1", 1), ("A5~\u0662", 3), ("A5~2 ", 3), ("A5~+2", 3),
    ("A5~-0", 3),
])
def test_parse_type_rejects_non_canonical_integers(text, pos):
    with pytest.raises(ParseError) as info:
        parse_type(text)
    assert info.value.position == pos


@pytest.mark.parametrize("argv", [
    ("cartan", "--type", "A01~1"),
    ("cartan", "--type", "A5~02"),
    ("cartan", "--type", "A\u0665~1"),
    ("cartan", "--type", "A\u00b2~1"),
    ("char", "--type", "A5~2", "--node", "\u0663", "--degree", "1"),
    ("char", "--type", "A5~2", "--node", "1", "--degree", "1_0"),
    ("char", "--type", "A5~2", "--node", " 2 ", "--degree", "1"),
    ("char", "--type", "A5~2", "--node", "+2", "--degree", "1"),
    ("char", "--type", "A5~2", "--node", "02", "--degree", "1"),
    ("char", "--type", "A5~2", "--node", "1", "--degree", "-0"),
    ("inversions", "--type", "A5~2", "--node", "\uff12"),
    ("fold-verify", "--type", "A5~2", "--node", "1.0"),
    ("verify-all", "--degree", "\u0660"),
    ("eta", "--type", "A5~2", "--o", "01"),
    ("eta", "--type", "A5~2", "--o", " 1"),
    ("inversions", "--type", "A5~2", "--node", "9" * 5000),
    ("cartan", "--type", "A" + "9" * 5000 + "~1"),
])
def test_non_canonical_integers_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.startswith("error:")


@pytest.mark.parametrize("argv, err", [
    (("inversions", "--type", "A5~2", "--node", "-1"), "error: node -1 is not in 1..3 for A5~2\n"),
    (("char", "--type", "A5~2", "--node", "1", "--degree", "-1"), "error: degree -1 is negative\n"),
    (("verify-all", "--degree", "-1"), "error: degree -1 is negative\n"),
    (("eta", "--type", "A5~2", "--o", "2"),
     "error: argument --o: invalid choice: 2 (choose from 1, -1)\n"),
])
def test_negative_and_out_of_range_integers_keep_their_messages(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_eta_accepts_o_minus_one(capsys):
    code, out, _ = run(capsys, "eta", "--type", "A5~2", "--o", "-1")
    assert code == 0 and json.loads(out)["o"] == -1


@pytest.mark.parametrize("argv", [
    ("cartan", "--type", "E6~2"),
    ("inversions", "--type", "D4~2", "--node", "3"),
    ("inversions", "--type", "A6~2", "--node", "2", "--method", "word"),
    ("inversions", "--type", "A6~2", "--node", "2", "--method", "closed"),
    ("fold-verify", "--type", "A8~2", "--node", "2"),
    ("fold-verify", "--type", "D4~3", "--all"),
    ("char", "--type", "D3~2", "--node", "2", "--degree", "6"),
    ("char", "--type", "A4~2", "--node", "1", "--degree", "6", "--fold-check"),
    ("pbw-graph", "--type", "D4~2", "--node", "3", "--format", "json"),
    ("eta", "--type", "A9~2", "--o", "-1"),
    ("serre-check",),
])
def test_json_emitter_matches_json_dumps(capsys, monkeypatch, argv):
    written = []
    real = cli._json

    def recording(obj):
        written.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "_json", recording)
    cli._serre_report.cache_clear()
    try:
        code, out, _ = run(capsys, *argv)
    finally:
        cli._serre_report.cache_clear()
    if argv[0] in ("fold-verify", "char"):
        # streamed from the records, past _json, as the reference document dumps
        doc, expect_code = _oracles.streamed_doc(argv)
        assert (code, expect_code, written) == (0, 0, [])
        assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return
    assert code == 0 and len(written) == 1
    assert out == real(written[0]) + "\n" == json.dumps(written[0], sort_keys=True, indent=2) + "\n"


def test_json_emitter_on_edge_values():
    value = {"z": [], "a": {}, "b": [True, False, None, -3, 0, 10**30],
             "\u00e9\u2603\U0001d11e": ["t\u00e4b\tq\"", [[], [1, -2], {}], {"k": [None]}],
             "n": [-1, -22, 10**30], "m": [1, True], "": None}
    for obj in (value, [], {}, [[]], "x\u0000y", -7, None, True, [value, value]):
        assert cli._json(obj) == json.dumps(obj, sort_keys=True, indent=2)
    for bad in ((1, 2), [1.5], {1: 2}, {"k": (1,)}):
        with pytest.raises(TypeError):
            cli._json(bad)


def test_cartan_json(capsys):
    code, out, _ = run(capsys, "cartan", "--type", "A5~2")
    assert code == 0
    doc = json.loads(out)
    assert doc["kac"] == [1, 1, 2, 1]
    assert doc["dual_kac"] == [1, 1, 2, 2]
    assert doc["sym"] == [1, 1, 1, 2]
    assert doc["theta"] == [0, 1, 2, 1]
    # deterministic output: same call, identical bytes
    code2, out2, _ = run(capsys, "cartan", "--type", "A5~2")
    assert out2 == out


def test_unknown_type_exit_code(capsys):
    code, _, err = run(capsys, "cartan", "--type", "B2~3")
    assert code == 2
    assert "error" in err


def test_inversions(capsys):
    code, out, _ = run(capsys, "inversions", "--type", "D4~2", "--node", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [3, 2, 1, 3, 2, 3]
    assert doc["agree"] is True
    assert sorted(doc["closed"]) == [
        [0, 0, 0, 1], [0, 0, 1, 1], [0, 0, 1, 2],
        [0, 1, 1, 1], [0, 1, 1, 2], [0, 1, 2, 2]]
    code, out, _ = run(capsys, "inversions", "--type", "A2~2", "--node", "1",
                       "--method", "closed")
    assert json.loads(out)["closed"] == [[0, 1], [1, 4]]


def test_inversions_agree_is_the_oracle_cells_verdict(capsys, monkeypatch):
    # a closed form that repeats one root has the word's set but not its length
    real = weyl.inversion_set_closed_form
    monkeypatch.setattr(weyl, "inversion_set_closed_form", lambda d, s: real(d, s) + real(d, s)[:1])
    code, out, err = run(capsys, "inversions", "--type", "A5~2", "--node", "1")
    assert (code, json.loads(out)["agree"], err) == (1, False, "")
    cell = next(c for c in verify.oracle_cells() if c[1] == "A5~2 s=1")
    assert cell[2] is False


def test_fold_verify(capsys):
    code, out, _ = run(capsys, "fold-verify", "--type", "E6~2", "--node", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    entries = doc["cells"][0]["entries"]
    e2321 = next(e for e in entries if e["beta"] == [0, 2, 3, 2, 1])
    assert e2321["lhs"] == 3 and e2321["rhs"] == "3"
    code, out, _ = run(capsys, "fold-verify", "--type", "D4~3", "--all")
    assert code == 0
    assert len(json.loads(out)["cells"]) == 2
    code, _, err = run(capsys, "fold-verify", "--type", "A3~1", "--node", "1")
    assert code == 2


def test_char(capsys):
    code, out, _ = run(capsys, "char", "--type", "A2~2", "--node", "1",
                       "--degree", "20", "--fold-check")
    assert code == 0
    doc = json.loads(out)
    assert doc["fold_check"]["equal"] is True
    for k in range(21):
        assert doc["series"][str(k)] == (k + 2) // 2
    code, out, _ = run(capsys, "char", "--type", "D3~2", "--node", "2", "--degree", "0")
    assert json.loads(out)["series"] == {"0,0": 1}
    code, _, err = run(capsys, "char", "--type", "A3~1", "--node", "1", "--fold-check")
    assert code == 2  # folding needs a twisted type


def test_series_labels_match_the_terms_view():
    # the line route decodes digit columns; the terms view decodes tuples
    for t, s, degree in (("A2~1", 1, 0), ("G2~1", 2, 1), ("E6~2", 3, 12), ("D4~3", 1, 24),
                         ("A12~2", 5, 12)):
        ser = characters.char_product(cartan.build_affine(parse_type(t)), s, degree)
        expect = {cli._monomial_key(m): c for m, c in ser.terms.items()}
        assert cli._series_lines(ser) == [f"    {json.dumps(label)}: {expect[label]}"
                                          for label in sorted(expect)], t
        assert len(expect) == len(ser.terms)


def _streamed_lines():
    """fold-verify and char command lines whose stdout the reference documents pin."""
    lines = [("fold-verify", "--type", str(at), "--all") for at in cartan.twisted_types(6)]
    for t in ("E6~2", "A8~2", "D4~3"):
        lines += [("fold-verify", "--type", t, "--node", str(s))
                  for s in range(1, parse_type(t).n + 1)]
    for t, degree in (("A2~2", 12), ("D3~2", 0), ("E6~2", 12), ("A6~2", 24)):
        for s in range(1, parse_type(t).n + 1):
            argv = ("char", "--type", t, "--node", str(s), "--degree", str(degree))
            lines += [argv, argv + ("--fold-check",)]
    return lines


@pytest.mark.parametrize("argv", _streamed_lines(), ids=" ".join)
def test_streamed_output_matches_the_reference_document(capsys, argv):
    doc, expect_code = _oracles.streamed_doc(argv)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (expect_code, "")
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_fold_verify_violation_mid_stream(capsys, monkeypatch):
    # the cells before the violation are already written when it is raised
    real = folding.verify_fold_identity

    def failing(d, s, **kwargs):
        if s == 3:
            raise folding.IdentityViolation(f"identity fails at {d.type} s={s}", beta=(0, 1))
        return real(d, s, **kwargs)

    monkeypatch.setattr(folding, "verify_fold_identity", failing)
    argv = ("fold-verify", "--type", "A9~2", "--all")
    doc, expect_code = _oracles.streamed_doc(argv)
    code, out, err = run(capsys, *argv)
    assert [c["ok"] for c in doc["cells"]] == [True, True, False, True, True]
    assert (code, expect_code, doc["ok"], err) == (1, 1, False, "")
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_char_fold_check_failure(capsys, monkeypatch):
    def failing(d, s, degree, twisted):
        return characters.EqualityReport(equal=False, witness=((0, 1, 2), 3, 4))

    monkeypatch.setattr(characters, "series_check", failing)
    argv = ("char", "--type", "A4~2", "--node", "1", "--degree", "6", "--fold-check")
    doc, expect_code = _oracles.streamed_doc(argv)
    code, out, err = run(capsys, *argv)
    assert doc["fold_check"] == {"equal": False,
                                 "witness": {"monomial": "1,2", "folded": 3, "twisted": 4}}
    assert (code, expect_code, err) == (1, 1, "")
    assert out == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_fold_check_on_untwisted_type_does_no_series_work(capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(characters, "char_product", lambda *args: calls.append(args))
    code, out, err = run(capsys, "char", "--type", "E8~1", "--node", "4",
                         "--degree", str(MAX_DEGREE), "--fold-check")
    assert (code, out, calls) == (2, "", [])
    assert err.startswith("error:") and "untwisted" in err


def test_pbw_graph(capsys):
    code, out, _ = run(capsys, "pbw-graph", "--type", "D4~2", "--node", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["word"] == [3, 2, 1, 3, 2, 3]
    assert len(doc["edges"]) == 7
    assert doc["composite_targets"] == [{"target": 5, "label": 3, "left_factor": 1}]
    code, out, _ = run(capsys, "pbw-graph", "--type", "A5~2", "--node", "1",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    code, _, err = run(capsys, "pbw-graph", "--type", "A5~2", "--node", "2")
    assert code == 2


def test_eta_and_serre(capsys):
    code, out, _ = run(capsys, "eta", "--type", "D3~2")
    assert code == 0
    doc = json.loads(out)
    assert doc["cancellation_ok"] is True
    assert doc["eta"] == {"-3": {"0": "1"}, "-5": {"0": "-1"}}
    code, out, _ = run(capsys, "eta", "--type", "A5~2")
    assert json.loads(out)["family"] == "A2n-1~2"
    code, _, err = run(capsys, "eta", "--type", "E6~2")
    assert code == 2
    code, out, _ = run(capsys, "serre-check")
    assert code == 0
    assert json.loads(out)["ok"] is True


@pytest.mark.parametrize("argv, digest", [
    (("serre-check",), "82c771c783837e08f9a982ff1435da2cd63415512e2ecb52f218c986977345b2"),
    (("eta", "--type", "A9~2", "--o", "-1"),
     "6a303702450a45e5d6c4e47115681e10179529cc313796d75fdb3c2b37b8f809"),
    (("eta", "--type", "D3~2"), "56878599f5b6ae6ef1ba7f633ee0f33b34a6e1a9224aa3ad457008cf06fc0e4d"),
])
def test_qsymbolic_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", [
    (("verify-all", "--degree", "0"),
     "90409fa436a2a81c498012b8d8ef741905697f6c9caec31aab97adb273fdfb7c"),
    (("verify-all", "--degree", "12"),
     "e53b4f2abb06ddc958f6f95b94eb8c14b508ff5060dcb1f2948fc2b470d5fc0f"),
    (("fold-verify", "--type", "E6~2", "--all"),
     "b23741efd747659fca2472a995905261cabf9a2e1ee7939527e46aef1c21585d"),
    (("fold-verify", "--type", "A9~2", "--all"),
     "99a0b91c9da93006c2dff23ed12bee8738b5833e61e1d75a857b8f0286bb1f57"),
    (("inversions", "--type", "D5~2", "--node", "4"),
     "5945040957987443eeec51c78bde633ee810cca4d6ef016a918bbe5d66d8df7a"),
    (("inversions", "--type", "E8~1", "--node", "4"),
     "9aa0824ba2557863d5664683d5d0b0e999c670da97a50fdfe2159d64110a671b"),
    # the A_{2n}^(2) family rule: 2 alpha + (2k+1) delta over short alpha, xi = 1/2
    (("fold-verify", "--type", "A8~2", "--all"),
     "da80bfedb98180e87abec89f2475eed39f4e45f7bb1a02adb217bdfb0a9dd328"),
    (("inversions", "--type", "A6~2", "--node", "2"),
     "1b82ffd6df0cace0b29316c7d09d5223dbf982735f130483554ac99eb730a0cb"),
    (("char", "--type", "A6~2", "--node", "3", "--degree", "12", "--fold-check"),
     "4344edf3c9a6625dc313737e32ee9b1b8d12e06a21a7b586724fd587d12e7cf4"),
])
def test_weyl_and_folding_output_bytes(capsys, argv, digest):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_serre_check_is_computed_once(capsys, monkeypatch):
    run(capsys, "serre-check")
    monkeypatch.setattr(qsymbolic, "serre_coeff_check", None)  # any call would fail
    code, out, _ = run(capsys, "serre-check")
    assert code == 0 and json.loads(out)["ok"] is True


def test_serre_check_failure_exits_one(capsys, monkeypatch):
    real = qsymbolic.serre_coeff_check

    def failing(case, **kwargs):
        if case == "i0j1_D":
            raise qsymbolic.NonzeroCoefficient("coefficient 1 is q")
        return real(case, **kwargs)

    monkeypatch.setattr(qsymbolic, "serre_coeff_check", failing)
    cli._serre_report.cache_clear()
    try:
        code, out, _ = run(capsys, "serre-check")
    finally:
        cli._serre_report.cache_clear()
    doc = json.loads(out)
    assert code == 1 and doc["ok"] is False
    assert doc["cases"]["i0j1_D"] == {"ok": False, "error": "coefficient 1 is q"}
    assert doc["cases"]["i1j0_D"]["ok"] is True


def test_element_of_another_rank_is_a_usage_error(capsys, monkeypatch):
    # the library raises DimensionMismatch; main turns it into one error line
    smaller = weyl.translation_minus_lambda(cartan.build("A", 2, 1), 1)
    monkeypatch.setattr(weyl, "translation_minus_lambda", lambda d, s: smaller)
    code, out, err = run(capsys, "inversions", "--type", "A3~1", "--node", "1")
    assert (code, out) == (2, "")
    assert err == "error: element of size 3 for A3~1 of rank 4\n"


def _delta_shifted(real):
    """inversion_set_from_word whose first beta gains a delta component."""
    def fake(d, word):
        betas = real(d, word)
        return [(betas[0][0] + 1, *betas[0][1:]), *betas[1:]]
    return fake


def _off_by_one(real):
    """bar_inversion_parts with every multiplicity one too high."""
    def fake(d, s):
        return {beta: (mult + 1, xi) for beta, (mult, xi) in real(d, s).items()}
    return fake


def _doubled(real):
    """_finite_parts with every finite part listed twice, as if from two families."""
    def fake(d, s):
        return [row for row in real(d, s) for _ in range(2)]
    return fake


@pytest.mark.parametrize("module, name, fake, argv, call, error", [
    (pbw, "inversion_set_from_word", _delta_shifted,
     ["pbw-graph", "--type", "A5~2", "--node", "1"],
     lambda: pbw.minuscule_case(cartan.build("A", 5, 2), 1), pbw.BadMinusculeWord),
    (characters, "bar_inversion_parts", _off_by_one,
     ["char", "--type", "A5~2", "--node", "1", "--degree", "4"],
     lambda: characters.char_product(cartan.build("A", 5, 2), 1, 4),
     characters.MultiplicityMismatch),
    (folding, "_finite_parts", _doubled,
     ["fold-verify", "--type", "A4~2", "--node", "1"],
     lambda: folding.verify_fold_identity(cartan.build("A", 4, 2), 1), folding.FamilyMismatch),
])
def test_failed_check_of_the_math_exits_one(capsys, monkeypatch, module, name, fake, argv, call,
                                            error):
    # the type and node are valid, so the failure is a bug, not a rejected input
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    code, out, err = run(capsys, *argv)
    with pytest.raises(error) as info:
        call()
    assert (code, out) == (1, "")
    assert err == f"verification failure: {info.value}\n"


def test_repeated_main_calls_are_independent(capsys):
    code, out, err = run(capsys, "cartan")
    assert (code, out) == (2, "") and err.startswith("error:")
    code, out, _ = run(capsys, "cartan", "--type", "A5~2")
    assert code == 0 and json.loads(out)["kac"] == [1, 1, 2, 1]
    run(capsys, "char", "--type", "A2~2", "--node", "1", "--degree", "2", "--fold-check")
    code, out, _ = run(capsys, "char", "--type", "A2~2", "--node", "1", "--degree", "2")
    assert code == 0 and "fold_check" not in json.loads(out)
    run(capsys, "inversions", "--type", "D4~2", "--node", "3", "--method", "word")
    code, out, _ = run(capsys, "inversions", "--type", "D4~2", "--node", "3")
    assert code == 0 and json.loads(out)["agree"] is True


def test_help_exits_zero_after_a_call(capsys):
    run(capsys, "serre-check")
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    assert "serre-check" in capsys.readouterr().out
    for command, (_, options) in cli._COMMANDS.items():
        with pytest.raises(SystemExit) as info:
            main([command, "--help"])
        assert info.value.code == 0, command
        out = capsys.readouterr().out
        assert all(name in out for name in ("--help", *options)), command


def test_command_replaced_after_first_call_is_the_one_run(capsys, monkeypatch):
    run(capsys, "serre-check")
    monkeypatch.setattr(cli, "cmd_serre_check", lambda args: 7)
    assert run(capsys, "serre-check") == (7, "", "")


def _child(args, **kwargs):
    """A fresh interpreter with this loomfold on its path, run on args."""
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=src),
                          text=True, timeout=120, **kwargs)


def test_cli_runs_without_argparse():
    # the command table is parsed by hand: neither import nor a call loads argparse
    script = ("import sys\n"
              "import loomfold.cli\n"
              "code = loomfold.cli.main(['cartan', '--type', 'A5~2'])\n"
              "sys.exit(code or 10 * ('argparse' in sys.modules))\n")
    proc = _child(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["kac"] == [1, 1, 2, 1]


# stdlib modules that importing the CLI must not pay for (dataclasses brings in
# inspect, fractions brings in decimal)
_HEAVY = ("dataclasses", "inspect", "fractions", "decimal")


def test_cli_import_loads_cartan_only():
    script = ("import sys\n"
              "before = set(sys.modules)\n"
              "import loomfold.cli\n"
              "print(sorted(m for m in sys.modules if m.split('.')[0] == 'loomfold'))\n"
              f"print(sorted((set(sys.modules) - before) & {set(_HEAVY)!r}))\n")
    proc = _child(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['loomfold', 'loomfold.cartan', 'loomfold.cli']", "[]"]


_ALL_LAYERS = {"characters", "folding", "lattice", "pbw", "qsymbolic", "verify", "weyl"}


@pytest.mark.parametrize("argv, layers", [
    (["cartan", "--type", "A5~2"], set()),
    (["eta", "--type", "A5~2"], {"qsymbolic"}),
    (["serre-check"], {"qsymbolic"}),
    (["fold-verify", "--type", "A5~2", "--all"], {"folding", "lattice", "weyl"}),
    (["pbw-graph", "--type", "A5~2", "--node", "1"], {"lattice", "pbw", "weyl"}),
    (["char", "--type", "A5~2", "--node", "1", "--degree", "4"],
     {"characters", "folding", "lattice", "weyl"}),
    (["char", "--type", "A5~2", "--node", "1", "--degree", "4", "--fold-check"],
     {"characters", "folding", "lattice", "weyl"}),
    (["inversions", "--type", "A5~2", "--node", "1"], {"lattice", "weyl"}),
    (["verify-all", "--degree", "0"], _ALL_LAYERS),
])
def test_command_loads_only_its_layers(argv, layers):
    script = ("import contextlib, io, sys\n"
              "import loomfold.cli\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    code = loomfold.cli.main({argv!r})\n"
              "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'loomfold'))\n")
    proc = _child(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    expect = sorted({"loomfold", "loomfold.cartan", "loomfold.cli"}
                    | {f"loomfold.{layer}" for layer in layers})
    assert proc.stdout == f"0 {expect}\n"


def test_library_calls_import_nothing_once_the_layers_are_in():
    # one oracle cell, one fold cell and one series cell, made by the calls
    # that a caller holding cartan, characters, folding, pbw and weyl makes
    script = ("import sys\n"
              "from loomfold import cartan, characters, cli, folding, pbw, weyl\n"
              "before = set(sys.modules)\n"
              "d = cartan.build_affine(cli.parse_type('A5~2'))\n"
              "word, tau = weyl.alcove_factorize(d, weyl.translation_minus_lambda(d, 2))\n"
              "weyl.inversion_set_from_word(d, word)\n"
              "weyl.inversion_set_closed_form(d, 2)\n"
              "folding.verify_fold_identity(d, 2)\n"
              "om = folding.sigma_for(d)\n"
              "parent = characters.product_from_exponents(\n"
              "    folding.parent_char_exponents(om, 2), om.parent_rank, 6)\n"
              "rep = characters.series_equal(characters.fold_series(parent, om, 6),\n"
              "                              characters.char_product(d, 2, 6), 6)\n"
              "print(rep.equal, sorted(set(sys.modules) - before))\n")
    proc = _child(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True []\n"


def test_verify_all_degree_zero(capsys):
    code, out, _ = run(capsys, "verify-all", "--degree", "0")
    assert code == 0
    assert "FAIL" not in out
    last = out.strip().splitlines()[-1]
    assert last.startswith("verify-all:")


def test_verify_all_fault_injection(capsys):
    code, out, _ = run(capsys, "verify-all", "--degree", "0", "--inject-fault")
    assert code == 1
    assert "FAIL fold" in out
    assert "identity fails" in out


@pytest.mark.parametrize("argv", [
    ("inversions", "--type", "A5~2", "--node", "-1"),
    ("inversions", "--type", "A5~2", "--node", "0"),
    ("inversions", "--type", "A5~2", "--node", "9"),
    ("char", "--type", "A5~2", "--node", "0"),
    ("char", "--type", "A5~2", "--node", "4"),
    ("char", "--type", "A5~2", "--node", "1", "--degree", "-3"),
    ("fold-verify", "--type", "A5~2", "--node", "7"),
    ("fold-verify", "--type", "A5~2", "--node", "0"),
    ("fold-verify", "--type", "A5~2", "--node", "-1"),
    ("fold-verify", "--type", "A5~2", "--all", "--node", "9"),
    ("verify-all", "--degree", "-1"),
    ("char", "--type", "A5~2", "--node", "1", "--degree", str(MAX_DEGREE + 1)),
    ("char", "--type", "A2~2", "--node", "1", "--degree", "1000000000", "--fold-check"),
    ("verify-all", "--degree", str(MAX_DEGREE + 1)),
    ("cartan", "--type", "A65~1"),
    ("char", "--node", "1", "--type", "A999999999~1"),
])
def test_out_of_range_node_or_degree(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    assert argv[-2].lstrip("-") in err  # names the bad node, degree or type
    assert "Traceback" not in err


def test_eta_check_survives_optimize():
    # under python -O a bare assert would let a failed eta cancellation pass
    script = (
        "import sys\n"
        "if __debug__: sys.exit(3)\n"
        "from loomfold import cli, qsymbolic\n"
        "real = qsymbolic.eta_case\n"
        "qsymbolic.eta_case = lambda *a, **k: "
        "real(*a, **k)._replace(cancellation_ok=False)\n"
        "sys.exit(cli.main(['verify-all', '--degree', '0']))\n"
    )
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL qsymbolic" in proc.stdout


@pytest.mark.parametrize("argv", [
    ["char", "--type", "A5~2", "--node", "1", "--degree", "24", "--fold-check"],
    ["verify-all"],
    ["fold-verify", "--type", "D24~2", "--all"],
])
def test_closed_stdout_pipe_exits_quietly(argv):
    # `loomfold ... | head -c 10`: the reader takes a few bytes and closes the
    # pipe; the CLI must exit 141 (128 + SIGPIPE) without a traceback.  Two
    # outputs are about 12 kB, so the pipe is shrunk to one page: the child
    # then still has output to write when the reader closes, whatever the
    # timing.  fold-verify writes 6.2 MB, node by node, as it checks them
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("the pipe size cannot be set on this platform")
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    read_end, write_end = os.pipe()
    fcntl.fcntl(read_end, fcntl.F_SETPIPE_SZ, 4096)
    with subprocess.Popen([sys.executable, "-m", "loomfold.cli", *argv], env=env,
                          stdout=write_end, stderr=subprocess.PIPE) as proc:
        os.close(write_end)
        head = os.read(read_end, 10)
        os.close(read_end)
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert head and err == b""
    assert code == 141


def _peak_kb(argv):
    """VmHWM in kB of a fresh interpreter that runs argv with stdout on devnull.

    The child reads its own VmHWM: an exec'd child's ru_maxrss carries its
    spawner's peak."""
    script = ("import contextlib, os, sys\n"
              "import loomfold.cli\n"
              "with open(os.devnull, 'w') as null, contextlib.redirect_stdout(null):\n"
              f"    code = loomfold.cli.main({argv!r})\n"
              "with open('/proc/self/status') as status:\n"
              "    peak = next(line for line in status if line.startswith('VmHWM:'))\n"
              "print(code, peak.split()[1])\n")
    proc = _child(["-c", script], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    code, peak = proc.stdout.split()
    assert code == "0"
    return int(peak)


def test_fold_verify_memory_stays_flat_with_the_output():
    # D24~2 --all writes 6.2 MB, D3~2 --all 1.2 kB; node by node, the peak
    # grows by the largest cell, not by the whole document
    if not os.path.exists("/proc/self/status"):
        pytest.skip("no /proc/self/status on this platform")
    small = _peak_kb(["fold-verify", "--type", "D3~2", "--all"])
    big = _peak_kb(["fold-verify", "--type", "D24~2", "--all"])
    assert big - small < 8 * 1024, (small, big)


def _assert_cannot_write(proc):
    lines = proc.stderr.splitlines()
    assert proc.returncode == 74, proc.stderr  # EX_IOERR
    assert len(lines) == 1 and lines[0].startswith("error: cannot write output:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [["cartan", "--type", "A5~2"], ["verify-all", "--degree", "0"]])
def test_full_disk_stdout_exits_74(argv):
    # `loomfold ... > /dev/full`: the short output fails at the flush in main,
    # the long one inside print, when the buffer first fills
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "w") as full:
        _assert_cannot_write(_child(["-m", "loomfold.cli", *argv], stdout=full,
                                    stderr=subprocess.PIPE))


def test_closed_stdout_exits_74():
    # `loomfold serre-check >&-`: Python starts with sys.stdout None
    proc = _child(["-m", "loomfold.cli", "serre-check"], stderr=subprocess.PIPE,
                  preexec_fn=lambda: os.close(1))
    _assert_cannot_write(proc)
    assert proc.stderr == "error: cannot write output: stdout is closed\n"


# valid ranks stay small so the property runs in seconds; the ranks above the
# cap are rejected before any build
TYPE_TEXTS = st.one_of(
    st.sampled_from([str(t) for t in all_affine_types(10) if t.N <= 10]),
    st.builds("{}{}~{}".format, st.sampled_from("ABCDEFG"),
              st.one_of(st.integers(1, 10), st.sampled_from((65, 999999999))),
              st.integers(0, 4)),
    st.text(alphabet="ADX019~-", max_size=6))

COMMAND_EXTRAS = {
    "cartan": [[]],
    "inversions": [["--method", m] for m in ("word", "closed", "both")],
    "fold-verify": [[], ["--all"]],
    "char": [[], ["--fold-check"]],
    "pbw-graph": [["--format", f] for f in ("dot", "json")],
    "eta": [["--o", o] for o in ("1", "-1")],
}


@st.composite
def cli_queries(draw):
    """(argv, node) for one well-formed command line; node is None when absent."""
    command = draw(st.sampled_from(sorted(COMMAND_EXTRAS)))
    argv = [command, "--type", draw(TYPE_TEXTS)]
    node = None
    if command in ("inversions", "char", "pbw-graph") or (
            command == "fold-verify" and draw(st.booleans())):
        node = draw(st.one_of(st.integers(1, 4), st.integers(-2, 12)))
        argv += ["--node", str(node)]
    if command == "char":
        # a degree above the cap must be rejected before any work
        argv += ["--degree", str(draw(st.one_of(st.integers(-2, 6),
                                                st.integers(MAX_DEGREE + 1, 10**9))))]
    argv += draw(st.sampled_from(COMMAND_EXTRAS[command]))
    return argv, node


@settings(derandomize=True, database=None, deadline=None)
@given(cli_queries())
def test_main_exit_contract(query):
    argv, node = query
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    if node is not None:
        try:
            n = parse_type(argv[2]).n
        except ValueError:
            n = 0
        if not 1 <= node <= n:
            assert code != 0
    if "--degree" in argv and int(argv[argv.index("--degree") + 1]) > MAX_DEGREE:
        assert code == 2


# Parity with the argparse tree that the command table replaced (kept in
# tests/_oracles.py): both sides accept or reject each line, parse the same
# attributes, and reject with the same message.

def _parse_outcome(parse, argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parse(list(argv))
    except cli.UsageError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, bool(out.getvalue())
    return "ok", vars(args)


def _assert_parses_as_argparse(argv):
    assert _parse_outcome(cli._parse, argv) == _parse_outcome(_oracles._parser().parse_args, argv)


PARSE_EDGE_LINES = [
    [], ["--x"], ["--"], ["--", "cartan"], ["--", "--"], ["-1"], ["foo"], ["CARTAN"], ["cart"],
    ["-h"], ["--he"], ["--help", "cartan"], ["-x", "-h"], ["--=x"], ["--he=x", "cartan"], ["-hh"],
    ["cartan"], ["cartan", "--type"], ["cartan", "--type", "-A5~2"], ["cartan", "--type", "-h"],
    ["cartan", "--type", "--", "A5~2"], ["cartan", "--type", "A5~2", "--", "x"],
    ["cartan", "--", "--type", "A5~2"], ["cartan", "--=x"], ["cartan", "--="],
    ["serre-check", "--=x"], ["serre-check", "--"], ["serre-check", "x", "--", "-h"],
    ["fold-verify", "--type", "A5~2", "--all=x"], ["fold-verify", "--type", "A5~2", "--all="],
    ["cartan", "-hx"], ["cartan", "-h="], ["cartan", "-hh=x"], ["cartan", "-hhh"], ["cartan", "-h-"],
    ["cartan", "--type", "A5~2", "-h=x"], ["cartan", "-h", "--type"], ["cartan", "-x", "-h"],
    ["eta", "--type", "A5~2", "--o", "2"], ["eta", "--type", "A5~2", "--o", "-1"],
    ["eta", "--type", "A5~2", "--o", "01"], ["eta", "--type", "A5~2", "--o=x"],
    ["char", "--node", "\u0663"], ["char", "--type", "A5~2", "--node", "1", "--degree", "-3"],
    ["cartan", "--type", "A5~2", "extra", "-1"], ["--x", "cartan", "--type", "A5~2", "--y"],
    ["cartan", "--ty", "A5~2", "--type", "A6~2"], ["inversions", "--method", "x"],
    ["inversions", "--type", "A5~2", "--node", "1", "--meth=word", "--method", "closed"],
    ["cartan", "--type", "A5~2", "--type"], ["cartan", "--type", ""], ["", "--type", "A5~2"],
    ["cartan", "--type", "A5~2", "-x y"], ["cartan", "--type", "-1.5"], ["cartan", "--type", "-.5"],
    ["cartan", "--type", "-x y"], ["cartan", "--type", "-1\n"], ["cartan", "-", "--type", "x"],
    ["char", "--ty=A5~2", "--no", "-1", "--deg=3", "--fold", "--fold-check"],
    ["verify-all", "--inject"], ["verify-all", "--de", "0", "--inject-fault", "--in"],
    ["pbw-graph", "--type", "D4~2", "--node", "3", "--form", "dot"],
    ["fold-verify", "--type", "A5~2", "--node", "9" * 5000],
]


@pytest.mark.parametrize("argv", PARSE_EDGE_LINES)
def test_parser_matches_argparse_on_edge_lines(argv):
    _assert_parses_as_argparse(argv)


PARSE_WORDS = (*cli._COMMANDS, "--type", "--node", "--degree", "--method", "--all", "--fold-check",
               "--format", "--o", "--inject-fault", "--help", "-h", "--", "--ty", "--no", "--d",
               "--fold", "--inject", "--meth", "--f", "--a", "-", "-hh", "-hx", "--=x")
PARSE_VALUES = ("-1", "-A5~2", "\u0663", "", "01", "0", "1", "2", "3", "12", "A5~2", "D4~2", "word",
                "closed", "both", "dot", "json", "x", "a b", "-x y", "-1.5", "-")


@st.composite
def command_lines(draw):
    """A command line built mostly from one command's options, whole or as
    prefixes, each with a value after it or glued by '=', among stray words."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    names = (*cli._COMMANDS[command][1], "--help")
    option = st.one_of(st.sampled_from(names),
                       st.builds(lambda name, k: name[:k], st.sampled_from(names), st.integers(2, 8)))
    values = st.sampled_from(PARSE_VALUES)
    given = st.one_of(st.tuples(option, values).map(list),
                      st.tuples(option, values).map(lambda p: ["=".join(p)]))
    stray = st.one_of(st.sampled_from(PARSE_WORDS), values).map(lambda arg: [arg])
    piece = st.one_of(given, stray) if draw(st.booleans()) else given
    argv = [command, *(arg for p in draw(st.lists(piece, max_size=5)) for arg in p)]
    if draw(st.booleans()):  # the required options first, so that more lines parse
        argv[1:1] = [arg for name, opt in cli._COMMANDS[command][1].items() if opt.required
                     for arg in (name, "A5~2" if name == "--type" else "1")]
    if draw(st.integers(0, 3)) == 0:  # no command first
        argv[0] = draw(st.one_of(st.sampled_from(PARSE_WORDS), values))
    return argv


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(command_lines())
def test_parser_matches_argparse(argv):
    _assert_parses_as_argparse(argv)


@pytest.mark.parametrize("argv, err", [
    (("inversions", "--type", "A5~2", "--node=--"),
     "error: argument --node: '--' is not an integer in canonical ASCII form\n"),
    (("inversions", "--type", "A5~2", "--node", "1", "--method=--"),
     "error: argument --method: invalid choice: '--' (choose from 'word', 'closed', 'both')\n"),
    (("verify-all", "--degree=--"),
     "error: argument --degree: '--' is not an integer in canonical ASCII form\n"),
    (("cartan", "--type=--"), "error: expected a family letter A..G (at position 0)\n"),
])
def test_value_written_as_double_dash_is_text(capsys, argv, err):
    # argparse read `--opt=--` as an empty list, which crashed int options and
    # passed choice options unchecked; the table reads the text '--'
    assert run(capsys, *argv) == (2, "", err)
