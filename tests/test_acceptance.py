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
