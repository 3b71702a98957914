"""Smoke runs of the seeded audit scripts under scripts/."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, count, summary", [
    ("crosscheck_formulas.py", 50, r"50 instances, (\d+) mismatches"),
    ("audit_mr_sums.py", 20, r"20 bound lists, (\d+) failures"),
])
def test_script_runs_clean(script, count, summary):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), "--count", str(count)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    found = re.fullmatch(summary + r", [\d.]+s \(seed 0\)\n", done.stdout)
    assert found, done.stdout
    assert found.group(1) == "0"
