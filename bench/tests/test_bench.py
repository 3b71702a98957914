"""Self-test of the benchmark: reduced runs of every workload.

    python3 -m pytest bench/tests -q

Each workload runs for a fraction of a second (plus the decks its
digest needs), untraced and traced, and must report every metric named
in BENCHMARK.json with its unit and no failed op.  Without the program's
sources the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, cwd=ROOT, seconds=0.3):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_matches_catalogue():
    assert [w["name"] for w in SPEC["workloads"]] == list(metrics.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["end_to_end"]] \
        == list(metrics.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] \
        == [row[:3] for row in metrics.PER_LAYER]
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", metrics.WORKLOADS)
def test_reduced_run_reports_every_metric(workload, trace):
    p = run(workload, trace)
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, p.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sweep_hits_every_leaf():
    p = run("sweep", 1, seconds=1)
    values = json.loads(p.stdout.splitlines()[-1])["metrics"]
    assert all(values[f"engine.analyze.{leaf}.calls"]["value"] > 0
               for leaf in metrics.LEAVES)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = run("sweep", 0, cwd=tmp_path)
    assert p.returncode != 0
    assert '"metrics"' not in p.stdout
