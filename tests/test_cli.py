"""CLI surface: type parsing, JSON determinism, exit codes."""

import json
import os
import subprocess
import sys

import pytest

import loomfold
from loomfold.cli import ParseError, UnknownType, main, parse_type


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
        "import dataclasses, sys\n"
        "if __debug__: sys.exit(3)\n"
        "from loomfold import cli, qsymbolic\n"
        "real = qsymbolic.eta_case\n"
        "qsymbolic.eta_case = lambda *a, **k: dataclasses.replace("
        "real(*a, **k), cancellation_ok=False)\n"
        "sys.exit(cli.main(['verify-all', '--degree', '0']))\n"
    )
    src = os.path.dirname(os.path.dirname(loomfold.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "FAIL qsymbolic" in proc.stdout
