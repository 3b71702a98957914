"""End-to-end checks of the command line surface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordpigeon.selftest as selftest_mod
from ordpigeon.cli import run
from ordpigeon.parser import EXCERPT
from ordpigeon.selftest import CriterionResult

SRC = str(Path(selftest_mod.__file__).resolve().parents[1])


def lines_of(capsys):
    return capsys.readouterr().out.splitlines()


def test_ptop_text(capsys):
    assert run(["ptop", "w+1:3"]) == 0
    out = lines_of(capsys)
    assert out[0] == "w^3+1"
    assert out[1] == "case C6cII"


def test_ptop_default_count(capsys):
    assert run(["ptop", "w+1"]) == 0
    assert lines_of(capsys)[0] == "w+1"


def test_ptop_json_envelope(capsys):
    assert run(["ptop", "w+1:3", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env == {
        "command": "ptop",
        "inputs": ["w+1:3"],
        "result": {"kind": "exists", "value": "w^3+1"},
        "case_path": "C6cII",
    }


def test_ptop_independent(capsys):
    assert run(["ptop", "w_1:2", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["result"]["kind"] == "independent"
    assert env["result"]["zfc_lower"] == "w_2"
    assert set(env["result"]["notes"]) == {
        "consistent_infinite", "consistent_equal_lower", "equiconsistency"}
    assert env["case_path"] == "C3"


def test_ptop_infinite(capsys):
    assert run(["ptop", "w_1+1", "w+1", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["result"] == {"kind": "infinite"}
    assert env["case_path"] == "C1"


def test_ptop_infinite_count(capsys):
    assert run(["ptop", "2:aleph_0"]) == 0
    assert lines_of(capsys)[0] == "w_1"


def test_pord_and_sums(capsys):
    assert run(["pord", "w+1", "w+1"]) == 0
    assert lines_of(capsys) == ["w*2+1"]
    assert run(["mrsum", "w+1", "w+1"]) == 0
    assert lines_of(capsys) == ["w*2+1"]
    assert run(["natsum", "w^2", "w*3"]) == 0
    assert lines_of(capsys) == ["w^2+w*3"]


def test_arith(capsys):
    assert run(["arith", "add", "w+1", "w"]) == 0
    assert lines_of(capsys) == ["w*2"]
    assert run(["arith", "mul", "w+1", "2"]) == 0
    assert lines_of(capsys) == ["w*2+1"]
    assert run(["arith", "cmp", "w^2", "w*5"]) == 0
    assert lines_of(capsys) == ["w^2 > w*5"]
    assert run(["arith", "cmp", "w", "w", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["result"] == {"kind": "comparison", "value": "eq"}


def test_classify(capsys):
    assert run(["classify", "w^w*2+1", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["result"] == {
        "kind": "classification",
        "canonical": "w^w*2+1",
        "is_power_of_omega": False,
        "is_order_reinforcing": True,
        "cb_rank": "0",
        "cofinality": "1",
    }


def test_classify_unicode(capsys):
    assert run(["classify", "w_1", "--unicode"]) == 0
    out = lines_of(capsys)
    assert out[0] == "canonical form: ω₁"


def test_case_trail(capsys):
    assert run(["case", "w^2:2", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    assert env["case_path"] == "C6b"
    assert env["citations"]
    assert all(isinstance(step, str) for step in env["citations"])
    assert env["result"] == {"kind": "exists", "value": "w^3"}


def test_noncanonical_note_on_stderr(capsys):
    assert run(["ptop", "1+w"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "w"
    assert "not in normal form" in captured.err


def test_witness_verify_round_trip(tmp_path, capsys):
    assert run(["witness", "w^3", "w+1:3", "--json"]) == 0
    payload = capsys.readouterr().out
    env = json.loads(payload)
    assert env["command"] == "witness"
    assert env["result"]["kind"] == "witness"
    assert env["result"]["instance"] == ["w+1:3"]
    path = tmp_path / "wit.json"
    path.write_text(payload)
    assert run(["verify", str(path)]) == 0
    assert lines_of(capsys) == ["witness verified"]


def test_verify_rejects_tampered_file(tmp_path, capsys):
    # p_top((w*2):2) = w^2*2, so w^2+1 is the last ordinal that fails
    assert run(["witness", "w^2+1", "w*2:2", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    env["result"]["certificates"][0]["claimed_target"] = "w*3"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(env))
    assert run(["verify", str(path)]) == 1
    assert lines_of(capsys) == ["witness rejected"]


def test_verify_error_paths(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert run(["verify", str(missing)]) == 2
    garbage = tmp_path / "garbage.json"
    garbage.write_text("not json")
    assert run(["verify", str(garbage)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"command": "ptop", "result": {"kind": "x"}}))
    assert run(["verify", str(wrong)]) == 2
    # an ordinal field that is not a string
    wrong.write_text(json.dumps({"result": {"domain": [1]}}))
    assert run(["verify", str(wrong)]) == 2
    capsys.readouterr()
    # deeper than the JSON decoder's recursion: a usage error, not exit 1
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    assert run(["verify", str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_witness_needs_space_below_threshold(capsys):
    # w^3+1 satisfies the (w+1, w+1, w+1) relation, so no witness exists
    assert run(["witness", "w^3+1", "w+1:3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_usage_errors(capsys):
    assert run(["ptop", "w^^2"]) == 2
    assert run(["mrsum", "0"]) == 2
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_huge_counts_outside_c6_answer_at_once(capsys):
    # only the C6 leaves list the targets one by one
    assert run(["ptop", "w_1+1", "2:10000000000"]) == 0
    assert lines_of(capsys)[:2] == ["w_1*10000000001+1", "case C2cII"]
    assert run(["case", "w_1:2", "3:10000000000"]) == 0
    assert "case C3" in lines_of(capsys)
    assert run(["witness", "w+5", "w_1+1", "2:10000000000"]) == 2
    assert capsys.readouterr().err == \
        "error: no finite certificate language for case C2cII\n"


def test_overdeep_nesting_is_a_usage_error(capsys):
    deep = "w^(" * 3000 + "1" + ")" * 3000
    assert run(["ptop", deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert len(err) < 2 * EXCERPT + 60


def loaded_after(statement, *modules):
    """Which of modules a fresh interpreter has loaded after statement;
    -S keeps site hooks from preloading any of them."""
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); "
             f"{statement}; print(*[m in sys.modules for m in sys.argv[2:]])")
    out = subprocess.run([sys.executable, "-S", "-c", probe, SRC, *modules],
                         capture_output=True, text=True, check=True).stdout
    return {m: word == "True" for m, word in zip(modules, out.split())}


def test_import_leaves_selftest_unloaded():
    # a fresh interpreter: this one imported selftest at the top of the file
    unused = ("ordpigeon.selftest", "ordpigeon.oracle", "ordpigeon.witness",
              "dataclasses")
    assert loaded_after("import ordpigeon.cli", *unused) == \
        dict.fromkeys(unused, False)
    assert loaded_after("import ordpigeon.cli", "ordpigeon.engine") == \
        {"ordpigeon.engine": True}
    # the package root loads a submodule only when one of its names is used
    submodules = ("ordpigeon.ordinal", "ordpigeon.engine", "ordpigeon.parser",
                  "ordpigeon.witness")
    assert loaded_after("import ordpigeon", *submodules) == \
        dict.fromkeys(submodules, False)
    assert loaded_after("from ordpigeon import Instance", *submodules) == \
        {"ordpigeon.ordinal": True, "ordpigeon.engine": True,
         "ordpigeon.parser": False, "ordpigeon.witness": False}


def test_closed_stdout_keeps_the_exit_code():
    argv = [sys.executable, "-m", "ordpigeon.cli",
            "witness", "w^3*2", "w^2+1", "w^2+1", "--json"]
    env = {**os.environ, "PYTHONPATH": SRC}
    open_run = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    # a pipe whose reader is gone before the child writes: every write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        closed_run = subprocess.run(argv, env=env, stdout=write_end,
                                    stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert open_run.stdout
    assert closed_run.returncode == open_run.returncode
    assert closed_run.stderr == b""


def test_selftest_reporting(monkeypatch, capsys):
    fake = [CriterionResult(1, "alpha", True, "fine", 0.01, 1.0),
            CriterionResult(2, "beta", True, "fine", 0.02, 5.0)]
    monkeypatch.setattr(selftest_mod, "run_all", lambda: fake)
    assert run(["selftest"]) == 0
    out = lines_of(capsys)
    assert out[0].startswith("[pass] 1. alpha")
    assert out[-1] == "all criteria passed"

    fake[1] = CriterionResult(2, "beta", False, "broke", 0.02, 5.0)
    assert run(["selftest", "--json"]) == 1
    env = json.loads(capsys.readouterr().out)
    assert env["result"]["passed"] is False
    assert [c["ok"] for c in env["result"]["criteria"]] == [True, False]
