"""Run one ordpigeon benchmark workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
its src/ directory.  One client drives the program in a closed loop:
each op starts when the previous one has been checked.  The loop runs
whole decks of inputs until --seconds have passed.  With --trace 0 the
last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1, half the time runs untraced and half traced,
and the object holds the per-layer metrics.  Lines before it, starting
with '#', give the sample counts, the failed ops, the digest of
(input, output) pairs and the machine the run used.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from array import array
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import kernel
import metrics
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MAX_REPORTED_PROBLEMS = 5


def load_program(with_cli: bool) -> SimpleNamespace:
    """Import the program from src/, and refuse any other copy of it."""
    sys.path.insert(0, str(SRC))
    package = importlib.import_module("ordpigeon")
    where = Path(package.__file__).resolve()
    if SRC not in where.parents:
        raise ImportError(f"ordpigeon was found at {where}, not under {SRC}")
    names = ["ordinal", "engine", "witness", "oracle", "parser"]
    if with_cli:
        names.append("cli")
    return SimpleNamespace(**{
        n: importlib.import_module(f"ordpigeon.{n}") for n in names})


class Clock:
    """Op times rescaled to the workload's reference machine speed.

    On the 2-core Intel Xeon virtual machine the committed figures come
    from, speed drifts by up to 40% over seconds with nothing else of
    the benchmark's running.  So the workload's calibration runs before the
    first op and after every `segment_s` of op time, and each op's wall
    time is multiplied by `calibration_ref_s` over the mean calibration
    time around its segment: the op's time on a machine where the
    calibration takes `calibration_ref_s`.
    """

    def __init__(self, wl):
        self.wl = wl
        self.last = wl.calibration_s()
        self.pending = []
        self.pending_s = 0.0
        self.scaled = array("d")      # compact, so peak RSS barely grows with ops
        self.raw_s = 0.0
        self.calibrations = [self.last]

    def add(self, seconds):
        self.pending.append(seconds)
        self.pending_s += seconds
        self.raw_s += seconds
        if self.pending_s >= self.wl.segment_s:
            self.flush()

    def flush(self):
        if not self.pending:
            return
        now = self.wl.calibration_s()
        self.calibrations.append(now)
        factor = self.wl.calibration_ref_s / ((self.last + now) / 2)
        self.scaled.extend(x * factor for x in self.pending)
        self.pending, self.pending_s = [], 0.0
        self.last = now


def measure(wl, op, seconds, tracer=None, digest=None, sink=None,
            keep_inputs=False) -> dict:
    """Closed loop over whole decks until `seconds` have passed and the
    digest's decks are done.  Only the op itself is timed."""
    clock = Clock(wl)
    problems, inputs = [], []
    attempted = failed = decks = 0
    start = perf_counter()
    while perf_counter() - start < seconds or \
            (digest is not None and decks < wl.digest_decks):
        for inp in wl.deck():
            wl.prepare(inp)
            if tracer is not None:
                tracer.op = attempted
            err = out = None
            t = perf_counter()
            try:
                out = op(inp)
            except Exception:  # any raise the op does not expect is a failed op
                err = traceback.format_exc()
            clock.add(perf_counter() - t)
            attempted += 1
            found = [err] if err else wl.check(inp, out)
            if found:
                failed += 1
                if len(problems) < MAX_REPORTED_PROBLEMS:
                    problems.append(f"op {attempted - 1}: {'; '.join(found)}")
            elif digest is not None and decks < wl.digest_decks:
                digest.update((wl.describe(inp, out) + "\n").encode())
            if sink is not None and not err and len(sink) < kernel.MAX_OPERANDS:
                sink.extend(wl.operands(inp, out))
            if keep_inputs:
                inputs.append(inp)
        decks += 1
    clock.flush()
    return {"lat": clock.scaled, "attempted": attempted, "failed": failed,
            "problems": problems, "busy": sum(clock.scaled), "raw_s": clock.raw_s,
            "calibration_ms": statistics.median(clock.calibrations) * 1e3,
            "inputs": inputs}


def rate(res) -> float:
    return (res["attempted"] - res["failed"]) / res["busy"] if res["busy"] else 0.0


def latency_ms(res):
    """Median, 90th percentile, and the count of samples beyond it."""
    lat_ms = [x * 1e3 for x in res["lat"]]
    p90 = statistics.quantiles(lat_ms, n=10)[-1] if len(lat_ms) > 1 else lat_ms[0]
    return statistics.median(lat_ms), p90, sum(1 for x in lat_ms if x > p90)


def end_to_end(res, setup_s, wl) -> dict:
    p50, p90, _ = latency_ms(res)
    who = resource.RUSAGE_CHILDREN if wl.children_rss else resource.RUSAGE_SELF
    return {
        "ops_per_s": rate(res),
        "op_ms.p50": p50,
        "op_ms.p90": p90,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "setup_s": setup_s,
    }


def per_layer(tracer, extras, kernel_rows, overhead) -> dict:
    summary = tracer.summary()
    values = {}
    for name, (calls, self_s, failed) in summary.items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = self_s
        values[f"{name}.failed"] = failed
    for name, (calls, ns) in kernel_rows.items():
        values[f"ordinal.{name}.calls"] = calls
        values[f"ordinal.{name}.ns_per_call"] = ns / calls if calls else 0.0
    values.update(extras)
    values.update(overhead)
    return values


def machine_facts(load_before) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((SRC / "ordpigeon").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu": cpu,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": os.getloadavg()[0],
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
    }


def recorded_digest(workload: str, seed: int):
    try:
        with open(BENCH / "digests.json", encoding="utf-8") as fh:
            table = json.load(fh)
    except FileNotFoundError:
        return None
    return table.get(workload, {}).get(str(seed))


def run(args) -> int:
    load_before = os.getloadavg()[0]
    Workload = importlib.import_module(f"wl_{args.workload}").WORKLOAD
    before = Workload.calibration_s()
    t0 = perf_counter()
    try:
        program = load_program(with_cli=args.workload == "cli")
    except ImportError as exc:
        print(f"error: cannot import the program from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    after = Workload.calibration_s()
    ref = Workload.calibration_ref_s
    import_s *= ref / ((before + after) / 2)
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-",
                               dir=ROOT / ".bench_tmp")
    try:
        direct = tracing.layers(program)
        setups = []
        for _ in range(SETUP_REPEATS):
            t = perf_counter()
            wl = Workload(program, args.seed, workdir)
            for inp in wl.warmup_inputs():
                wl.prepare(inp)
                wl.op(direct, inp)
            took = perf_counter() - t
            now = Workload.calibration_s()
            setups.append(took * ref / ((after + now) / 2))
            after = now
        setup_s = import_s + statistics.median(setups)

        digest = hashlib.sha256()
        seconds = args.seconds if not args.trace else args.seconds / 2
        res = measure(wl, lambda inp: wl.op(direct, inp), seconds,
                      digest=digest)
        results = [res]
        if not args.trace:
            values = end_to_end(res, setup_s, wl)
            wanted = [(n, u) for n, u, _ in metrics.END_TO_END]
        else:
            tracer = tracing.Tracer()
            traced = tracing.layers(program, tracer, wl.documented)
            wl.counts = {}
            operands = []
            op = tracer.wrap("op", lambda inp: wl.op(traced, inp))
            res_t = measure(wl, op, seconds, tracer=tracer, sink=operands,
                            keep_inputs=True)
            results.append(res_t)
            extras = wl.traced_extras(traced, tracer, res_t["inputs"])
            extras.update(wl.counts)
            untraced, traced_rate = rate(res), rate(res_t)
            overhead = {
                "trace.overhead_ops_per_s": untraced - traced_rate,
                "trace.overhead_share": (1 - traced_rate / untraced
                                         if untraced else 0.0),
            }
            rows = kernel.replay(program.ordinal, operands)
            values = per_layer(tracer, extras, rows, overhead)
            wanted = [(n, u) for n, u, _, _ in metrics.PER_LAYER]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(Path(workdir).parent)
        except OSError:
            pass      # another run still uses it

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    seen = digest.hexdigest()[:16]
    recorded = recorded_digest(args.workload, args.seed)
    digest_ok = recorded is None or recorded == seen
    _, _, beyond = latency_ms(res)
    print("# machine " + json.dumps(machine_facts(load_before), sort_keys=True))
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: "
          f"{res['attempted']} ops in {res['raw_s']:.3f} s of op time, "
          f"{res['busy']:.3f} s at reference speed (calibration median "
          f"{res['calibration_ms']:.3f} ms); op_ms samples "
          f"n={len(res['lat'])}, {beyond} beyond p90; failed_ratio="
          f"{failed}/{attempted}; digest={seen} "
          f"({'matches' if recorded == seen else 'MISMATCH' if recorded else 'not recorded'})")
    for r in results:
        for line in r["problems"]:
            print(f"# failed {line}")
    out = {
        "correct": failed == 0 and digest_ok,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values.get(n, 0), "unit": u}
                    for n, u in wanted},
    }
    print(json.dumps(out))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
