"""Acceptance grids.

Each test runs one criterion from ordpigeon.selftest and prints its
pass/fail line, so `pytest tests/test_acceptance.py -s` shows the same
report as `ordpigeon selftest`.  Budgets are enforced inside the
criteria themselves.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ordpigeon.selftest as selftest
from ordpigeon.engine import Exists, Infinite
from ordpigeon.ordinal import ZERO
from ordpigeon.selftest import ALL_CRITERIA


@pytest.mark.parametrize(
    "criterion", ALL_CRITERIA,
    ids=[f"criterion_{c.__name__.rsplit('_', 1)[1]}" for c in ALL_CRITERIA])
def test_criterion(criterion, capsys):
    result = criterion()
    with capsys.disabled():
        print()
        print(result.line())
    assert result.ok, result.line()


def test_a_broken_law_fails_criterion_9_under_python_O():
    # python -O strips assert statements; the criteria check explicitly
    env = {**os.environ,
           "PYTHONPATH": str(Path(selftest.__file__).resolve().parents[1])}
    code = ("import sys\n"
            "import ordpigeon.selftest as s\n"
            "s.natural_sum = s.mul = lambda *args: 0\n"
            "r = s.criterion_9()\n"
            "print(sys.flags.optimize, r.ok, r.detail, sep='\\n')\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    optimize, ok, detail = done.stdout.splitlines()
    assert (optimize, ok) == ("1", "False")
    assert detail == "a*1 == a == 1*a failed at a=3"


def _mismatch(instances):
    return [{"instance": instances[0], "expected": "w", "actual": "w+1"}]


@pytest.mark.parametrize("criterion,name,broken,law", [
    (selftest.criterion_1, "p_top", lambda inst: Infinite(),
     "p_top((w+1) x k) == w^k+1 failed at k=1, got=Infinite"),
    (selftest.criterion_2, "p_top", lambda inst: Infinite(),
     "p_top(w^(w^a*(m+1)) x 2) == w^(w^a*(2m+1)) failed at a=0, m=0, "
     "got=Infinite"),
    (selftest.criterion_3, "p_top", lambda inst: Infinite(),
     "p_top(alpha x 2) == alpha exactly for alpha = w^(w^b) failed at "
     "alpha=w, fixed=False"),
    (selftest.criterion_4, "mr_sum_bruteforce_check", lambda *args: True,
     "the oracle rejects mr_sum(bounds)+1 failed at bounds="),
    (selftest.criterion_5, "p_top", lambda inst: Infinite(),
     "p_top(targets) == sum(t-1)+1 failed at targets=(1,)"),
    (selftest.criterion_6, "cross_check_p_top", _mismatch,
     "cross_check_p_top(grid) is empty failed at mismatches=1, first="),
    (selftest.criterion_7, "verify_certificates", lambda *args: False,
     "the witness below p_top verifies failed at inst="),
    (selftest.criterion_8, "p_top", lambda inst: Exists(ZERO),
     "p_top(w_1+1, w+1) is Infinite failed at got=Exists(0)"),
], ids=[f"criterion_{n}" for n in range(1, 9)])
def test_a_broken_check_fails_its_criterion(monkeypatch, criterion, name,
                                            broken, law):
    monkeypatch.setattr(selftest, name, broken)
    result = criterion()
    assert not result.ok
    assert result.detail.startswith(law), result.detail
    assert result.line().startswith(f"[FAIL] {result.number}. ")


def test_a_crash_fails_its_criterion(monkeypatch):
    def crash(inst):
        raise ZeroDivisionError("boom")
    monkeypatch.setattr(selftest, "p_top", crash)
    result = selftest.criterion_1()
    assert (result.ok, result.detail) == (False,
                                          "raised ZeroDivisionError: boom")
