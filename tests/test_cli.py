"""End-to-end checks of the command line surface."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ordpigeon.selftest as selftest_mod
import ordpigeon.witness as witness_mod
from ordpigeon.cli import _parse_instance, run
from ordpigeon.engine import normalize
from ordpigeon.parser import EXCERPT
from ordpigeon.selftest import CriterionResult
from ordpigeon.witness import CertKind, witness_from_json
from test_witness import verdict_on_fresh_and_used

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


def test_noncanonical_note_echoes_a_long_operand_briefly(capsys):
    assert run(["ptop", "1+w*2+1"]) == 0
    assert capsys.readouterr().err == \
        "note: '1+w*2+1' is not in normal form, reading it as 'w*2+1'\n"
    text = "+".join(["0"] * 20_000 + ["w*2"])
    assert run(["ptop", f"{text}:2"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("note: '0+0+") and err.count("\n") == 1
    assert len(err) < 200


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


@pytest.mark.parametrize("field,value", [
    ("colour", 1.7), ("colour", True), ("colour", "1"), ("bound", 1.0),
    ("top_point_colours", [1.5]), ("zero_colour", False),
])
def test_verify_reads_integer_fields_as_exact_ints(tmp_path, capsys, field,
                                                   value):
    # w^2+1 below p_top(w+1, w*2) = w^2*2: one top point, of colour 1
    assert run(["witness", "w^2+1", "w+1", "w*2", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    path = tmp_path / "wit.json"
    path.write_text(json.dumps(env))
    assert run(["verify", str(path)]) == 0
    capsys.readouterr()
    result = env["result"]
    assert result["top_point_colours"] == [1]
    (result if field in result else result["certificates"][1])[field] = value
    path.write_text(json.dumps(env))
    assert run(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not a witness file: ")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("args,path,value", [
    # a string or object where an array belongs would iterate by characters
    # or keys: these three verified before the reader checked JSON types
    (["2", "2", "2"], ("instance",), "22"),
    (["w^2+1", "w*2:2"], ("instance",), {"w*2:2": 1}),
    (["w^2+1", "w*2:2"], ("rank_classes", 0, 0), "12"),
    # an interval is two ordinals, and an ordinal is a string
    (["w^2+1", "w*2:2"], ("rank_classes", 0, 0), ["1", "2", "3"]),
    (["w^2+1", "w*2:2"], ("certificates", 0, "claimed_target"), ["w*2"]),
    (["w^2+1", "w*2:2"], ("instance", 0), ["w*2:2"]),
])
def test_verify_reads_arrays_and_strings_only_where_they_belong(
        tmp_path, capsys, args, path, value):
    assert run(["witness", *args, "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps(env))
    assert run(["verify", str(wit)]) == 0
    capsys.readouterr()
    node = env["result"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    wit.write_text(json.dumps(env))
    assert run(["verify", str(wit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not a witness file: ")
    assert captured.err.count("\n") == 1


def verify_with(tmp_path, capsys, path, value):
    """(exit code, stdout, stderr) of verify on the file of `witness w^2+1
    w*2:2 --json` with the value at path set to value."""
    assert run(["witness", "w^2+1", "w*2:2", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    node = env["result"]
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    wit = tmp_path / "wit.json"
    wit.write_text(json.dumps(env))
    code = run(["verify", str(wit)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("path", [
    ("certificates", 0, "colour"), ("mode",), ("certificates", 0, "kind"),
    ("rank_classes", 0, 0, 1), ("instance", 0), ("instance",)])
def test_verify_errors_echo_a_long_value_briefly(tmp_path, capsys, path):
    code, out, err = verify_with(tmp_path, capsys, path, "x" * 100_000)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert err.count("\n") == 1 and len(err.encode()) <= 200


@pytest.mark.parametrize("path,value,err", [
    # a short value is echoed in full, as the enum's own message did
    (("mode",), "ranked", "error: 'ranked' is not a valid ColouringMode\n"),
    (("certificates", 0, "kind"), ["Derivative"],
     "error: ['Derivative'] is not a valid CertKind\n"),
    (("certificates", 0, "colour"), "0",
     "error: not a witness file: '0' is not an integer\n"),
    (("instance",), "w*2:2",
     "error: not a witness file: 'w*2:2' is not an array of strings\n"),
])
def test_verify_errors_echo_a_short_value_in_full(tmp_path, capsys, path,
                                                   value, err):
    assert verify_with(tmp_path, capsys, path, value) == (2, "", err)


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
    # an instance whose colour count differs from the colouring's, compared
    # before a target is listed per colour
    assert run(["witness", "w^2", "w^2+1", "3", "--json"]) == 0
    env = json.loads(capsys.readouterr().out)
    env["result"]["instance"][1] = "3:10000000000"
    wrong.write_text(json.dumps(env))
    assert run(["verify", str(wrong)]) == 1
    assert lines_of(capsys) == ["witness rejected"]
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


@pytest.mark.parametrize("args,err", [
    # C6cI where the domain's tail is too large for residual counting
    (["w^2+w+1", "w+1", "w*2"],
     "domain tail too large for the residual-counting certificate"),
    (["3", "0", "2"], "the instance is degenerate; no witness applies"),
])
def test_witness_refusals_are_pinned(args, err):
    assert run_captured(["witness", *args]) == (2, "", f"error: {err}\n")


def test_witness_that_fails_its_own_check_is_an_error(monkeypatch, capsys):
    # the check is a plain test, so it holds under python -O too
    monkeypatch.setattr(witness_mod, "verify_certificates",
                        lambda *args: False)
    assert run(["witness", "w^3", "w+1:3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_usage_errors(capsys):
    assert run(["ptop", "w^^2"]) == 2
    assert run(["mrsum", "0"]) == 2
    assert run(["frobnicate"]) == 2
    assert run([]) == 2
    capsys.readouterr()


def test_huge_counts_outside_c6_answer_at_once(capsys):
    # every leaf reads a count as a number; the C6 leaves are tested below
    assert run(["ptop", "w_1+1", "2:10000000000"]) == 0
    assert lines_of(capsys)[:2] == ["w_1*10000000001+1", "case C2cII"]
    assert run(["case", "w_1:2", "3:10000000000"]) == 0
    assert "case C3" in lines_of(capsys)
    assert run(["witness", "w+5", "w_1+1", "2:10000000000"]) == 2
    assert capsys.readouterr().err == \
        "error: no finite certificate language for case C2cII\n"


def test_huge_counts_in_c6_answer_at_once(capsys):
    for argv, expected in [
            (["w^2+1", "3:10000000000"], ["w^2*20000000001+1", "case C6cII"]),
            (["5", "3:10000000000"], ["20000000005", "case C6a"]),
            (["w+1", "w^2", "3:10000000000"], ["w^3", "case C6b"]),
            (["w*2:10000000000"], ["w^10000000000*2", "case C6cI"])]:
        assert run(["ptop", *argv]) == 0
        assert lines_of(capsys)[:2] == expected
    # a witness lists every colour, so its build stops at a colour bound
    for count in ("256", "10000000000"):
        assert run(["witness", "w^2", "w^2+1", f"3:{count}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "at most 256 colours" in err


def test_huge_domains_stop_at_a_point_bound(capsys):
    # a witness lists a colour per point of maximal rank, so its build
    # stops at a bound on the domain's leading coefficient
    for argv, coefficient in [
            (["10000000000", "10000000001", "2"], 10000000000),
            (["w*10000000000+1", "w*10000000001+1", "2"], 10000000000),
            (["100001", "100002"], 100001)]:
        assert run(["witness", *argv]) == 2
        assert capsys.readouterr().err == "error: witnesses are built for " \
            f"a leading coefficient of at most 100000, not {coefficient}\n"


def test_overdeep_nesting_is_a_usage_error(capsys):
    deep = "w^(" * 3000 + "1" + ")" * 3000
    assert run(["ptop", deep]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert len(err) < 2 * EXCERPT + 60


def test_numerals_outside_ascii_or_the_digit_limit_are_usage_errors(capsys):
    long = "9" * 5000
    for argv, excerpt in [(["w^\u00b2"], "'w^\u00b2'"),
                          (["\u0663"], "'\u0663'"),
                          ([long], repr(long[:EXCERPT])),
                          (["w:" + long], repr(long[:EXCERPT])),
                          (["w^2*" + long], repr(("w^2*" + long)[:EXCERPT]))]:
        assert run(["ptop", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert " at column " in err and err.endswith(f" in {excerpt}\n")
        assert "Traceback" not in err and "int()" not in err


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
              "dataclasses", "json", "inspect", "ast", "dis")
    assert loaded_after("import ordpigeon.cli", *unused) == \
        dict.fromkeys(unused, False)
    assert loaded_after("import ordpigeon.cli", "ordpigeon.engine") == \
        {"ordpigeon.engine": False}
    # the witness file codec lives in the witness layer, below the CLI
    above = ("ordpigeon.cli", "ordpigeon.selftest", "ordpigeon.oracle")
    assert loaded_after("import ordpigeon.witness", *above) == \
        dict.fromkeys(above, False)
    # the package root loads a submodule only when one of its names is used
    submodules = ("ordpigeon.ordinal", "ordpigeon.engine", "ordpigeon.parser",
                  "ordpigeon.witness")
    assert loaded_after("import ordpigeon", *submodules) == \
        dict.fromkeys(submodules, False)
    assert loaded_after("from ordpigeon import Instance", *submodules) == \
        {"ordpigeon.ordinal": True, "ordpigeon.engine": True,
         "ordpigeon.parser": False, "ordpigeon.witness": False}


def loaded_by_call(argv, *modules):
    """Which of modules a fresh interpreter has loaded after cli.run(argv),
    its output captured."""
    return loaded_after(
        "import io; from ordpigeon import cli; "
        "sys.stdout = sys.stderr = io.StringIO(); "
        f"cli.run({argv!r}); sys.stdout = sys.__stdout__", *modules)


LAYERS = ("ordpigeon.engine", "ordpigeon.witness", "ordpigeon.selftest",
          "ordpigeon.oracle")


@pytest.mark.parametrize("argv", [
    ["classify", "w^2+1"], ["arith", "mul", "w+1", "w"], ["mrsum", "w", "w"],
    ["pord", "w+1", "3"], ["natsum", "w", "w^2", "--json"],
    ["ptop", "w^(:2"], ["ptop"], ["witness", "w+"], ["ptpo", "w:2"], ["-h"]])
def test_calls_that_do_not_analyse_leave_the_engine_unloaded(argv):
    assert loaded_by_call(argv, *LAYERS) == dict.fromkeys(LAYERS, False)


@pytest.mark.parametrize("argv", [["ptop", "w+1:3"],
                                  ["case", "w^2*4+1", "w_1", "--json"]])
def test_analysing_calls_load_the_engine_not_the_witness_layer(argv):
    assert loaded_by_call(argv, *LAYERS) == {
        "ordpigeon.engine": True, "ordpigeon.witness": False,
        "ordpigeon.selftest": False, "ordpigeon.oracle": False}


def test_witness_calls_load_the_witness_layer_not_the_grids(tmp_path):
    code, out, _ = run_captured(["witness", "w^3", "w+1:3", "--json"])
    assert code == 0
    path = tmp_path / "w.json"
    path.write_text(out, encoding="utf-8")
    for argv in (["witness", "w^3", "w+1:3"], ["verify", str(path)]):
        assert loaded_by_call(argv, *LAYERS) == {
            "ordpigeon.engine": True, "ordpigeon.witness": True,
            "ordpigeon.selftest": False, "ordpigeon.oracle": False}


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


def test_selftest_outputs_are_pinned(monkeypatch, capsys):
    # elapsed is rounded to 3 places in JSON, shown to 2 in text
    fake = [CriterionResult(1, "alpha", True, "fine", 0.01234, 1.0),
            CriterionResult(12, "beta", False, "broke at w+1", 2.5, 5.0)]
    monkeypatch.setattr(selftest_mod, "run_all", lambda: fake)
    assert run(["selftest"]) == 1
    assert capsys.readouterr().out == """\
[pass] 1. alpha: fine (0.01s, budget 1s)
[FAIL] 12. beta: broke at w+1 (2.50s, budget 5s)
some criteria FAILED
"""
    assert run(["selftest", "--json"]) == 1
    assert capsys.readouterr().out == """\
{
  "command": "selftest",
  "inputs": [],
  "result": {
    "kind": "selftest",
    "passed": false,
    "criteria": [
      {
        "number": 1,
        "title": "alpha",
        "ok": true,
        "detail": "fine",
        "elapsed": 0.012,
        "limit": 1.0
      },
      {
        "number": 12,
        "title": "beta",
        "ok": false,
        "detail": "broke at w+1",
        "elapsed": 2.5,
        "limit": 5.0
      }
    ]
  }
}
"""


# -- pinned texts: help, independent answers and witness files -----------------


# every --help text, wrapped at 80 columns
HELP = {
    "": """\
usage: ordpigeon [-h]
                 {ptop,pord,mrsum,natsum,arith,classify,case,witness,verify,selftest}
                 ...

pigeonhole numbers for ordinal topologies

positional arguments:
  {ptop,pord,mrsum,natsum,arith,classify,case,witness,verify,selftest}
    ptop                topological pigeonhole number
    pord                classical pigeonhole number
    mrsum               Milner-Rado sum
    natsum              natural sum
    arith               ordinal arithmetic
    classify            structural facts about one ordinal
    case                case dispatch with its reasoning trail
    witness             counterexample colouring below BETA
    verify              recheck a witness file
    selftest            run the acceptance grids

options:
  -h, --help            show this help message and exit
""",
    "ptop": """\
usage: ordpigeon ptop [-h] [--json] [--unicode]
                      TARGET[:COUNT] [TARGET[:COUNT] ...]

positional arguments:
  TARGET[:COUNT]

options:
  -h, --help      show this help message and exit
  --json          emit a JSON envelope instead of text
  --unicode       print ordinals with unicode subscripts
""",
    "pord": """\
usage: ordpigeon pord [-h] [--json] [--unicode] TARGET [TARGET ...]

positional arguments:
  TARGET

options:
  -h, --help  show this help message and exit
  --json      emit a JSON envelope instead of text
  --unicode   print ordinals with unicode subscripts
""",
    "mrsum": """\
usage: ordpigeon mrsum [-h] [--json] [--unicode] ORDINAL [ORDINAL ...]

positional arguments:
  ORDINAL

options:
  -h, --help  show this help message and exit
  --json      emit a JSON envelope instead of text
  --unicode   print ordinals with unicode subscripts
""",
    "natsum": """\
usage: ordpigeon natsum [-h] [--json] [--unicode] ORDINAL [ORDINAL ...]

positional arguments:
  ORDINAL

options:
  -h, --help  show this help message and exit
  --json      emit a JSON envelope instead of text
  --unicode   print ordinals with unicode subscripts
""",
    "arith": """\
usage: ordpigeon arith [-h] [--json] [--unicode] {add,mul,cmp} a b

positional arguments:
  {add,mul,cmp}
  a
  b

options:
  -h, --help     show this help message and exit
  --json         emit a JSON envelope instead of text
  --unicode      print ordinals with unicode subscripts
""",
    "classify": """\
usage: ordpigeon classify [-h] [--json] [--unicode] ordinal

positional arguments:
  ordinal

options:
  -h, --help  show this help message and exit
  --json      emit a JSON envelope instead of text
  --unicode   print ordinals with unicode subscripts
""",
    "case": """\
usage: ordpigeon case [-h] [--json] [--unicode]
                      TARGET[:COUNT] [TARGET[:COUNT] ...]

positional arguments:
  TARGET[:COUNT]

options:
  -h, --help      show this help message and exit
  --json          emit a JSON envelope instead of text
  --unicode       print ordinals with unicode subscripts
""",
    "witness": """\
usage: ordpigeon witness [-h] [--json] [--unicode]
                         BETA TARGET[:COUNT] [TARGET[:COUNT] ...]

positional arguments:
  BETA
  TARGET[:COUNT]

options:
  -h, --help      show this help message and exit
  --json          emit a JSON envelope instead of text
  --unicode       print ordinals with unicode subscripts
""",
    "verify": """\
usage: ordpigeon verify [-h] [--json] [--unicode] WITNESS.json

positional arguments:
  WITNESS.json

options:
  -h, --help    show this help message and exit
  --json        emit a JSON envelope instead of text
  --unicode     print ordinals with unicode subscripts
""",
    "selftest": """\
usage: ordpigeon selftest [-h] [--json] [--unicode]

options:
  -h, --help  show this help message and exit
  --json      emit a JSON envelope instead of text
  --unicode   print ordinals with unicode subscripts
""",
}


@pytest.mark.parametrize("command", list(HELP))
def test_help_texts_are_pinned(monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run_captured([command, "--help"] if command else ["--help"])
    assert (code, out, err) == (0, HELP[command], "")


def test_help_before_a_subcommand_is_the_top_level_help(monkeypatch):
    # the subcommand is read from argv[0] only, so every row is listed here
    monkeypatch.setenv("COLUMNS", "80")
    assert run_captured(["-h", "ptop"]) == (0, HELP[""], "")


# the three consistency facts of every independent answer, in their order
NOTES = {
    "consistent_infinite": "Prikry-Solovay: consistently (for instance "
    "under V=L) no ordinal satisfies the relation, so the value may fail to "
    "exist.",
    "consistent_equal_lower": "Shelah: from a supercompact cardinal it is "
    "consistent that the value exists and equals the provable lower bound.",
    "equiconsistency": "Silver, Shelah: the two-colour relation for w_1 at "
    "the lower bound w_2 is equiconsistent with a Mahlo cardinal.",
}


def test_independent_answers_are_pinned():
    trail = ["no target exceeds w_1",
             "at least two copies of w_1 among the targets"]
    notes = "".join(f"  {note}\n" for note in NOTES.values())
    assert run_captured(["ptop", "w_1:2"]) == (0, "independent of ZFC; "
                                               "provable lower bound w_2\n"
                                               + notes + "case C3\n", "")
    assert run_captured(["case", "w_1:aleph_3"]) == (
        0, "case C3\n" + "".join(f"  {step}\n" for step in trail)
        + "independent of ZFC; provable lower bound w_4\n" + notes, "")
    for command, entry, lower, extra in (
            ("ptop", "w_1:2", "w_2", {"case_path": "C3"}),
            ("case", "w_1:aleph_3", "w_4",
             {"case_path": "C3", "citations": trail})):
        envelope = {"command": command, "inputs": [entry],
                    "result": {"kind": "independent", "zfc_lower": lower,
                               "notes": NOTES}, **extra}
        assert run_captured([command, entry, "--json"]) == (
            0, json.dumps(envelope, indent=2) + "\n", "")


TOP_USAGE = """\
usage: ordpigeon [-h]
                 {ptop,pord,mrsum,natsum,arith,classify,case,witness,verify,selftest}
                 ...
"""
# a usage error prints the usage of the parser that failed and one error
# line, wrapped at 80 columns
USAGE_ERRORS = [
    ([], TOP_USAGE + "ordpigeon: error: the following arguments are "
     "required: command\n"),
    (["ptpo", "w:2"], TOP_USAGE + "ordpigeon: error: argument command: "
     "invalid choice: 'ptpo' (choose from 'ptop', 'pord', 'mrsum', 'natsum', "
     "'arith', 'classify', 'case', 'witness', 'verify', 'selftest')\n"),
    (["arith", "mul", "w"], """\
usage: ordpigeon arith [-h] [--json] [--unicode] {add,mul,cmp} a b
ordpigeon arith: error: the following arguments are required: b
"""),
    (["arith", "pow", "w", "3"], """\
usage: ordpigeon arith [-h] [--json] [--unicode] {add,mul,cmp} a b
ordpigeon arith: error: argument operation: invalid choice: 'pow' (choose \
from 'add', 'mul', 'cmp')
"""),
    (["ptop"], """\
usage: ordpigeon ptop [-h] [--json] [--unicode]
                      TARGET[:COUNT] [TARGET[:COUNT] ...]
ordpigeon ptop: error: the following arguments are required: TARGET[:COUNT]
"""),
    (["ptop", "w", "--bogus"],
     TOP_USAGE + "ordpigeon: error: unrecognized arguments: --bogus\n"),
    (["--json", "ptop", "w"],
     TOP_USAGE + "ordpigeon: error: unrecognized arguments: --json\n"),
    (["verify"], """\
usage: ordpigeon verify [-h] [--json] [--unicode] WITNESS.json
ordpigeon verify: error: the following arguments are required: WITNESS.json
"""),
    (["selftest", "x"],
     TOP_USAGE + "ordpigeon: error: unrecognized arguments: x\n"),
    (["witness", "w"], """\
usage: ordpigeon witness [-h] [--json] [--unicode]
                         BETA TARGET[:COUNT] [TARGET[:COUNT] ...]
ordpigeon witness: error: the following arguments are required: \
TARGET[:COUNT]
"""),
    # printed by the top-level parser after a subcommand was named, so a
    # build of only that subparser must keep the full choice list
    (["classify", "w", "w"],
     TOP_USAGE + "ordpigeon: error: unrecognized arguments: w\n"),
]


@pytest.mark.parametrize("argv,err", USAGE_ERRORS)
def test_usage_errors_are_pinned(monkeypatch, argv, err):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_captured(argv) == (2, "", err)


# one witness file per certificate kind; with --json a command prints its
# envelope with json.dumps(envelope, indent=2), so these pin the bytes
ENVELOPES = [
    (["w^2+1", "w*2:2"], {
        "domain": "w^2+1", "mode": "rank",
        "rank_classes": [[["1", "2"]], [["0", "1"]]],
        "top_point_colours": [0], "zero_colour": None,
        "certificates": [
            {"colour": 0, "kind": "DerivativeNotEmbeddable",
             "claimed_target": "w*2", "level": "0", "bound": None,
             "class_residual": "w+1", "target_residual": "w*2"},
            {"colour": 1, "kind": "DerivativeEmpty", "claimed_target": "w*2",
             "level": "1", "bound": None, "class_residual": None,
             "target_residual": None}],
        "instance": ["w*2:2"]}),
    (["w^3", "w+1:3"], {
        "domain": "w^3", "mode": "rank",
        "rank_classes": [[["0", "1"]], [["1", "2"]], [["2", "3"]]],
        "top_point_colours": [], "zero_colour": None,
        "certificates": [
            {"colour": i, "kind": "DerivativeEmpty", "claimed_target": "w+1",
             "level": "1", "bound": None, "class_residual": None,
             "target_residual": None} for i in range(3)],
        "instance": ["w+1:3"]}),
    (["5", "2:3", "3"], {
        "domain": "5", "mode": "rank", "rank_classes": [[], [], [], []],
        "top_point_colours": [1, 2, 3, 3], "zero_colour": 0,
        "certificates": [
            {"colour": i, "kind": "DerivativeSmall", "claimed_target": t,
             "level": "0", "bound": b, "class_residual": None,
             "target_residual": None}
            for i, t, b in [(0, "2", 1), (1, "2", 1), (2, "2", 1), (3, "3", 2)]],
        "instance": ["2:3", "3:1"]}),
    (["w_1", "w_1+1", "w+1"], {
        "domain": "w_1", "mode": "cofinality", "rank_classes": [[], []],
        "top_point_colours": [], "zero_colour": None,
        "certificates": [
            {"colour": i, "kind": "CofinalitySplit", "claimed_target": t,
             "level": None, "bound": None, "class_residual": None,
             "target_residual": None} for i, t in enumerate(["w_1+1", "w+1"])],
        "instance": ["w_1+1:1", "w+1:1"]}),
    # C6b with the power of w second: it takes both top points
    (["w^2*2+1", "w+1", "w^2"], {
        "domain": "w^2*2+1", "mode": "rank",
        "rank_classes": [[["0", "1"]], [["1", "2"]]],
        "top_point_colours": [1, 1], "zero_colour": None,
        "certificates": [
            {"colour": 0, "kind": "DerivativeEmpty", "claimed_target": "w+1",
             "level": "1", "bound": None, "class_residual": None,
             "target_residual": None},
            {"colour": 1, "kind": "DerivativeSmall", "claimed_target": "w^2",
             "level": "1", "bound": 2, "class_residual": None,
             "target_residual": None}],
        "instance": ["w+1:1", "w^2:1"]}),
]


@pytest.mark.parametrize("args,result", ENVELOPES)
def test_witness_files_are_pinned(args, result):
    envelope = {"command": "witness", "inputs": args,
                "result": {"kind": "witness", **result}}
    code, out, err = run_captured(["witness", *args, "--json"])
    assert (code, out, err) == (0, json.dumps(envelope, indent=2) + "\n", "")


# -- fuzzing: every input ends in a documented exit code ----------------------


def run_captured(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_documented_exit(code, err):
    # 0 success, 1 a clean negative answer, 2 usage: one error line
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:
        assert sum("error:" in line for line in err.split("\n")) == 1, err


SUBCOMMANDS = ["ptop", "pord", "mrsum", "natsum", "arith", "classify",
               "case", "witness", "verify", "selftest"]
# pieces of the grammar, so that many fuzzed strings get past the scanner
PIECES = st.sampled_from(["w", "w_", "^", "(", ")", "+", "*", ":", ",",
                          "aleph_", "0", "1", "2", "3", "9" * 30, " ", "-",
                          "--json", "add", "cmp", "\n", "\u00b2", "\u00e9"])
EXPRESSION = st.recursive(
    st.sampled_from(["0", "1", "3", "w", "w_1", "w_w"]),
    lambda inner: st.one_of(st.tuples(inner, inner).map("+".join),
                            inner.map(lambda x: f"{x}*2"),
                            inner.map(lambda x: f"w^({x})")),
    max_leaves=4)
ENTRY = st.tuples(EXPRESSION, st.sampled_from(
    ["", ":2", ":3", ":300", ":aleph_0", ":aleph_1"])).map("".join)
ARGUMENT = st.one_of(st.text(max_size=12),
                     st.lists(PIECES, max_size=10).map("".join),
                     ENTRY, st.sampled_from(["add", "mul", "cmp"]))


# a first token that names no subcommand builds every subparser
HEADS = [*SUBCOMMANDS, "-h", "--help", "--json", "--unicode", "ptpo", "",
         None]


@settings(max_examples=320, deadline=None)
@given(st.sampled_from(HEADS), st.lists(ARGUMENT, max_size=4),
       st.lists(st.sampled_from(["--json", "--unicode"]), max_size=2))
def test_fuzzed_arguments_end_in_a_documented_exit(head, args, flags):
    argv = [*([] if head is None else [head]), *args, *flags]
    if "selftest" in argv:
        argv.append("x")  # bare, it would run the acceptance grids
    code, _, err = run_captured(argv)
    assert_documented_exit(code, err)


# one witness per certificate kind, mutated below
BASE_WITNESSES = [["w^2+1", "w*2:2"], ["w^3", "w+1:3"], ["5", "2:3", "3"],
                  ["w_1", "w_1+1", "w+1"], ["w^2*2+w", "w^2+1", "w+2"]]
DEEP = "\u0000deep"
JUNK = st.one_of(
    st.just(DEEP),
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats()
                 | st.text(max_size=8),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=6), inner, max_size=3),
                 max_leaves=6))


@pytest.fixture(scope="module")
def witness_envelopes():
    envelopes = []
    for args in BASE_WITNESSES:
        code, out, _ = run_captured(["witness", *args, "--json"])
        assert code == 0
        envelopes.append(json.loads(out))
    return envelopes


def places(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from places(child, path + (key,))


def mutated(data, envelope):
    """The envelope with one to three nodes replaced by junk, deleted, or
    nested deeply."""
    for _ in range(data.draw(st.integers(1, 3))):
        path = data.draw(st.sampled_from(list(places(envelope))))
        action = data.draw(st.sampled_from(["junk", "delete", "nest"]))
        if not path:
            envelope = data.draw(JUNK)
            continue
        parent = envelope
        for key in path[:-1]:
            parent = parent[key]
        if action == "delete":
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JUNK) if action == "junk" else \
                [[parent[path[-1]]]]
    depth = data.draw(st.sampled_from([20, 5000]))
    return json.dumps(envelope).replace(json.dumps(DEEP),
                                        "[" * depth + "]" * depth)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_fuzzed_witness_files_end_in_a_documented_exit(
        witness_envelopes, tmp_path_factory, data):
    base = data.draw(st.sampled_from(witness_envelopes))
    envelope = json.loads(json.dumps(base))
    path = tmp_path_factory.getbasetemp() / "fuzzed-witness.json"
    path.write_text(mutated(data, envelope), encoding="utf-8")
    verified, real = [], witness_mod.verify_certificates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness_mod, "verify_certificates",
                   lambda *args: verified.append(args) or real(*args))
        code, _, err = run_captured(["verify", str(path)])
    assert_documented_exit(code, err)
    # the file's colouring, checked again with the base witness's
    # certificates and norm: the verdict does not change
    result = base["result"]
    _, base_certs = witness_from_json(result)
    base_norm = normalize(_parse_instance(result["instance"]))
    for col, norm, certs in verified:
        assert verdict_on_fresh_and_used(norm, col, certs, [
            (base_norm, base_certs), (norm, base_certs),
            (base_norm, certs)]) is (code == 0)


# valid values for each certificate field and each rank-class endpoint,
# so that every revalued file passes the reader
ORDINAL_TEXTS = st.sampled_from([
    "0", "1", "2", "3", "5", "w", "w+1", "w+2", "w*2", "w*2+1", "w*3",
    "w^2", "w^2+1", "w^2+w", "w^2*2", "w^2*2+w", "w^3", "w^w", "w_1",
    "w_1+1"])
SMALL_INTS = st.integers(-1, 4) | st.integers()
CERT_VALUES = {
    "colour": SMALL_INTS,
    "kind": st.sampled_from([k.value for k in CertKind]),
    "claimed_target": ORDINAL_TEXTS,
    "level": st.none() | ORDINAL_TEXTS,
    "bound": st.none() | SMALL_INTS,
    "class_residual": st.none() | ORDINAL_TEXTS,
    "target_residual": st.none() | ORDINAL_TEXTS,
}


def value_places(result):
    """(path in the result, strategy of valid values) for each certificate
    field and each rank-class endpoint."""
    for i, cert in enumerate(result["certificates"]):
        for field in cert:
            yield ("certificates", i, field), CERT_VALUES[field]
    for u, union in enumerate(result["rank_classes"]):
        for p in range(len(union)):
            for end in (0, 1):
                yield ("rank_classes", u, p, end), ORDINAL_TEXTS


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_revalued_witness_files_reach_the_verifier(
        witness_envelopes, tmp_path_factory, data):
    # one to three values changed, the JSON shape kept: the reader accepts
    # the file, the verifier decides it, and the exit code is its verdict
    base = data.draw(st.sampled_from(witness_envelopes))
    envelope = json.loads(json.dumps(base))
    spots = list(value_places(envelope["result"]))
    for _ in range(data.draw(st.integers(1, 3))):
        where, values = data.draw(st.sampled_from(spots))
        parent = envelope["result"]
        for key in where[:-1]:
            parent = parent[key]
        parent[where[-1]] = data.draw(values)
    path = tmp_path_factory.getbasetemp() / "revalued-witness.json"
    path.write_text(json.dumps(envelope), encoding="utf-8")
    verified, real = [], witness_mod.verify_certificates
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(witness_mod, "verify_certificates",
                   lambda *args: verified.append(args) or real(*args))
        code, _, err = run_captured(["verify", str(path)])
    assert len(verified) == 1 and code in (0, 1), err
    col, norm, certs = verified[0]
    _, base_certs = witness_from_json(base["result"])
    assert verdict_on_fresh_and_used(norm, col, certs,
                                     [(norm, base_certs)]) is (code == 0)
