"""Run the benchmark over several seeds and summarise it.

    python3 bench/collect.py --seeds 1-10 [--workloads cli,sweep]
                             [--out bench/trajectory/NN-name.json]
                             [--record-digests]

For each workload, runs bench/run.py once per seed with tracing off,
then once traced on the first seed, and prints each end-to-end
metric's median, quartiles and spread (interquartile distance over the
median) against the bound in BENCHMARK.json.  --out writes the same as
a trajectory entry; --record-digests stores each run's (input, output)
digest in bench/digests.json, so that later runs on those seeds flag a
changed answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run_once(workload, seed, seconds, trace):
    p = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {p.returncode}\n{p.stderr}")
    lines = p.stdout.splitlines()
    result = json.loads(lines[-1])
    machine = json.loads(lines[0].removeprefix("# machine "))
    digest = lines[1].split("digest=")[1].split()[0]
    return result, machine, digest


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--out")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    seeds = seeds_of(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    entry = {"seeds": seeds, "run_seconds": spec["run_seconds"], "workloads": {}}
    digests = {}
    ok = True
    for workload in args.workloads.split(","):
        values, machines = {}, []
        for seed in seeds:
            result, machine, digest = run_once(workload, seed,
                                               spec["run_seconds"], 0)
            ok &= result["correct"]
            machines.append(machine)
            digests.setdefault(workload, {})[str(seed)] = digest
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        traced, _, _ = run_once(workload, seeds[0], spec["run_seconds"], 1)
        ok &= traced["correct"]
        summary = {}
        for name, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            summary[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": spread, "values": vs}
            flag = "" if spread < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:8} {name:12} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {spread:.4f} (bound {bounds[name]})"
                  f"{flag}")
        entry["workloads"][workload] = {
            "end_to_end": summary,
            "per_layer_seed": seeds[0],
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "loadavg_1m": [(m["loadavg_1m_before"], m["loadavg_1m_after"])
                           for m in machines],
        }
        entry["machine"] = {k: v for k, v in machines[0].items()
                            if not k.startswith("loadavg")}
    if args.out:
        Path(args.out).write_text(json.dumps(entry, indent=1, sort_keys=True) + "\n")
    if args.record_digests:
        path = BENCH / "digests.json"
        table = json.loads(path.read_text()) if path.exists() else {}
        for workload, by_seed in digests.items():
            table.setdefault(workload, {}).update(by_seed)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print("all runs correct" if ok else "SOME RUNS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
