"""cli: one `python -m ordpigeon.cli ...` subprocess per op.

The package is not installed; the child runs the benchmark's own
interpreter with src/ on PYTHONPATH.  A deck of twelve calls mixes
ptop (one spelled out of normal form), case, classify, mrsum, arith,
witness --json into a file, verify of that file and of a copy with one
field changed, and two malformed calls whose documented exit code is 2.
Each output is checked against the same question answered in-process.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from time import perf_counter

import inputs
import shapes
from shapes import below, count_text, shape_of, text
from workload import Workload
from wl_witness import serialize

TIMEOUT_S = 60
PROBE_RUNS = 5
TYPO_COMMANDS = ("ptpo", "clasify", "mrsun", "cas", "witnes", "verfy")


class Input:
    __slots__ = ("kind", "argv", "out_path", "tamper", "data", "texts",
                 "values")

    def __init__(self, kind, argv, data=None, texts=(), values=(),
                 out_path=None, tamper=None):
        self.kind = kind
        self.argv = argv
        self.data = data            # what the check needs to answer in-process
        self.texts = texts          # ordinal texts on the command line
        self.values = values        # their values, built from shapes
        self.out_path = out_path    # where the op's stdout goes, if a file
        self.tamper = tamper        # (witness file, field) a verify reads altered


def interpreter_start_s() -> float:
    """Wall time of a bare `python -c pass`.  Child processes track it far
    more closely than any in-process loop (op/bare within 3% while a
    pure-Python loop swung by 60%), so it calibrates this workload."""
    t = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], capture_output=True,
                   timeout=TIMEOUT_S, check=True)
    return perf_counter() - t


class Cli(Workload):
    name = "cli"
    digest_decks = 2
    warmup_ops = 2
    children_rss = True
    calibration_s = staticmethod(interpreter_start_s)
    calibration_ref_s = 0.06
    segment_s = 0.4

    def __init__(self, program, seed, workdir):
        super().__init__(program, seed, workdir)
        self.src = str(Path(program.ordinal.__file__).resolve().parent.parent)
        self.env = dict(os.environ, PYTHONPATH=self.src)
        self.files = 0

    # -- generation ------------------------------------------------------------

    def _entries_text(self, entries):
        return [f"{text(s)}:{count_text(c)}" for s, c in entries]

    def _path(self, stem):
        self.files += 1
        return os.path.join(self.workdir, f"{stem}-{self.files}.json")

    def _deck(self, rng):
        deck = []
        for _ in range(2):
            if rng.random() < 0.5:
                entries = [(inputs.criterion3_target(rng), ("n", 2))]
            else:
                entries = inputs.leaf_template(
                    rng.choice(inputs.TEMPLATE_LEAVES), rng)
            deck.append(self._instance_call("ptop", entries))
        a = inputs.criterion3_target(rng)
        loose = shapes.noncanonical_text(a)
        call = self._instance_call("ptop", [(a, ("n", 2))])
        call.argv[1] = f"{loose}:2"
        call.kind = "ptop-loose"
        deck.append(call)
        deck.append(self._instance_call("case", inputs.witness_entries(
            rng.choice(inputs.WITNESS_FAMILIES), rng)))
        a = rng.choice((inputs.criterion3_target(rng),
                        inputs.criterion3_power(rng),
                        inputs.W1_PLUS_1, inputs.W2_PLUS_W))
        deck.append(Input("classify", ["classify", text(a), "--json"],
                          texts=(text(a),), values=(self.build(a),)))
        bs = inputs.mr_bounds(rng)
        deck.append(Input("mrsum", ["mrsum", *map(text, bs), "--json"],
                          texts=tuple(map(text, bs)),
                          values=tuple(map(self.build, bs))))
        a, b = inputs.criterion3_target(rng), inputs.criterion3_target(rng)
        operation = rng.choice(("add", "mul", "cmp"))
        deck.append(Input("arith", ["arith", operation, text(a), text(b),
                                    "--json"], data=operation,
                          texts=(text(a), text(b)),
                          values=(self.build(a), self.build(b))))
        deck.append(self._witness_group(rng))
        for _ in range(2):
            deck.append(self._malformed(rng))
        rng.shuffle(deck)
        flat = []
        for item in deck:
            flat.extend(item if isinstance(item, list) else [item])
        return flat

    def _instance_call(self, command, entries):
        texts = tuple(text(s) for s, _ in entries)
        return Input(command, [command, *self._entries_text(entries), "--json"],
                     data=entries, texts=texts,
                     values=tuple(self.build(s) for s, _ in entries))

    def _witness_group(self, rng):
        """witness --json into a file, verify it, verify an altered copy."""
        family = rng.choice(inputs.WITNESS_FAMILIES)
        entries = inputs.witness_entries(family, rng)
        result = self.P.engine.analyze(self.instance(entries)).result
        if family == "C1":
            beta = rng.choice(inputs.C1_DOMAINS)
        else:
            beta = below(shape_of(result.value), rng.randint(1, 3))
        path, altered = self._path("witness"), self._path("altered")
        texts = (text(beta),) + tuple(text(s) for s, _ in entries)
        values = (self.build(beta),) + tuple(self.build(s) for s, _ in entries)
        field = rng.choice(("colour", "kind", "claimed_target", "tops"))
        return [
            Input("witness", ["witness", text(beta),
                              *self._entries_text(entries), "--json"],
                  data=(beta, entries), texts=texts, values=values,
                  out_path=path),
            Input("verify", ["verify", path, "--json"], data=path),
            Input("verify-altered", ["verify", altered, "--json"], data=altered,
                  tamper=(path, field)),
        ]

    def _malformed(self, rng):
        kind = rng.choice(inputs.MALFORMED_KINDS)
        a = text(inputs.criterion3_target(rng))
        argv = {
            "typo": [rng.choice(TYPO_COMMANDS), f"{a}:2", "--json"],
            "paren": ["ptop", f"w^({a}:2"],
            "trailing": ["classify", f"{a}+"],
            "count": ["ptop", f"{a}:two"],
            "stray": ["arith", "add", f"{a}#", "3"],
            "missing": ["arith", "mul", a],
            "empty": ["case", ""],
        }[kind]
        return Input("malformed", argv, data=kind)

    # -- the op ------------------------------------------------------------------

    def command(self, argv):
        return [sys.executable, "-m", "ordpigeon.cli", *argv]

    def prepare(self, inp):
        if inp.tamper is None:
            return
        source, field = inp.tamper
        try:
            with open(source, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            return              # no witness was written; verify must say so
        cert = doc["result"]["certificates"][0]
        if field == "colour":
            cert["colour"] += 1
        elif field == "kind":
            kinds = [k.value for k in self.P.witness.CertKind]
            cert["kind"] = kinds[(kinds.index(cert["kind"]) + 1) % len(kinds)]
        elif field == "claimed_target" or not doc["result"]["top_point_colours"]:
            cert["claimed_target"] += "+1"
        else:
            doc["result"]["top_point_colours"][0] += 1
        with open(inp.data, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    def op(self, L, inp):
        cmd = self.command(inp.argv)
        if inp.out_path is None:
            p = subprocess.run(cmd, capture_output=True, text=True,
                               env=self.env, timeout=TIMEOUT_S)
            return p.returncode, p.stdout, p.stderr
        with open(inp.out_path, "w", encoding="utf-8") as fh:
            p = subprocess.run(cmd, stdout=fh, stderr=subprocess.PIPE,
                               text=True, env=self.env, timeout=TIMEOUT_S)
        with open(inp.out_path, encoding="utf-8") as fh:
            return p.returncode, fh.read(), p.stderr

    # -- checking ----------------------------------------------------------------

    def expect(self, inp):
        """(exit code, expected "result" object or None, stderr prefix)."""
        P = self.P
        o = P.ordinal
        fmt = o.format_cnf
        kind = inp.kind
        if kind == "malformed":
            return 2, None, ""
        if kind in ("ptop", "ptop-loose", "case"):
            analysis = P.engine.analyze(self.instance(inp.data))
            r = analysis.result
            name = type(r).__name__
            if name == "Exists":
                result = {"kind": "exists", "value": fmt(r.value)}
            elif name == "Infinite":
                result = {"kind": "infinite"}
            else:
                result = {"kind": "independent", "zfc_lower": fmt(r.zfc_lower)}
            extra = {"case_path": analysis.case.value}
            if kind == "case":
                extra["citations"] = list(analysis.trail)
            return 0, (result, extra), "note:" if kind == "ptop-loose" else ""
        if kind == "classify":
            (a,) = inp.values
            return 0, ({"kind": "classification", "canonical": fmt(a),
                        "is_power_of_omega": o.is_power_of_omega(a),
                        "is_order_reinforcing": o.is_order_reinforcing(a),
                        "cb_rank": fmt(o.cb_rank(a)),
                        "cofinality": fmt(o.cofinality(a))}, {}), ""
        if kind == "mrsum":
            return 0, ({"kind": "ordinal",
                        "value": fmt(o.mr_sum(list(inp.values)))}, {}), ""
        if kind == "arith":
            a, b = inp.values
            if inp.data == "cmp":
                word = {-1: "lt", 0: "eq", 1: "gt"}[o.compare(a, b)]
                return 0, ({"kind": "comparison", "value": word}, {}), ""
            value = o.add(a, b) if inp.data == "add" else o.mul(a, b)
            return 0, ({"kind": "ordinal", "value": fmt(value)}, {}), ""
        if kind == "witness":
            built = self._witness_in_process(inp)
            if built is None:
                return 2, None, "error:"
            return 0, (built, {}), ""
        written = os.path.exists(inp.data) and os.path.getsize(inp.data) > 0
        if not written:
            return 2, None, "error:"
        if kind == "verify":
            return 0, ({"kind": "verdict", "value": True}, {}), ""
        return 1, ({"kind": "verdict", "value": False}, {}), ""

    def _witness_in_process(self, inp):
        P = self.P
        beta, entries = inp.data
        norm = P.engine.normalize(self.instance(entries))
        try:
            col, certs = P.witness.build_counterexample(self.build(beta), norm)
        except P.witness.OutOfScope:
            return None
        return serialize(P.parser, col, certs, norm.entries)

    def check(self, inp, out):
        code, stdout, stderr = out
        want_code, want, err_prefix = self.expect(inp)
        problems = []
        if code != want_code:
            problems.append(f"exit {code}, expected {want_code}")
        if "Traceback" in stderr:
            problems.append("traceback on stderr")
        if want is None:
            if stdout:
                problems.append("output on a failed call")
            if not stderr.strip():
                problems.append("no error message")
            elif not stderr.startswith(err_prefix):
                problems.append(f"stderr does not start with {err_prefix!r}")
            return problems
        if err_prefix and not stderr.startswith(err_prefix):
            problems.append(f"stderr does not start with {err_prefix!r}")
        if not err_prefix and stderr:
            problems.append(f"unexpected stderr {stderr[:80]!r}")
        try:
            envelope = json.loads(stdout)
        except ValueError:
            return problems + ["stdout is not a JSON envelope"]
        result, extra = want
        got = envelope.get("result")
        if inp.kind in ("ptop", "ptop-loose", "case") and \
                result["kind"] == "independent" and isinstance(got, dict):
            got = {k: got.get(k) for k in ("kind", "zfc_lower")}
        if got != result:
            problems.append(f"result {str(got)[:120]} != in-process "
                            f"{str(result)[:120]}")
        for key, value in extra.items():
            if envelope.get(key) != value:
                problems.append(f"{key} {envelope.get(key)} != {value}")
        if envelope.get("inputs") != [a for a in inp.argv[1:] if a != "--json"]:
            problems.append("envelope inputs differ from argv")
        return problems

    def describe(self, inp, out):
        code, stdout, _ = out
        result = json.loads(stdout)["result"] if stdout else None
        args = inp.argv[:1] if inp.kind.startswith("verify") else inp.argv
        return f"{' '.join(args)} -> {code} {json.dumps(result, sort_keys=True)}"

    def operands(self, inp, out):
        return list(inp.values)

    # -- traced run --------------------------------------------------------------

    def traced_extras(self, L, tracer, seen):
        extras = self._startup_probes()
        for inp in seen:
            self.prepare(inp)
            want_code = self.expect(inp)[0]
            stdout, stderr = StringIO(), StringIO()
            try:
                with redirect_stdout(stdout), redirect_stderr(stderr):
                    code = L.cli_run(inp.argv)
            except Exception:  # counted as a failed call by its span
                continue
            if inp.out_path is not None:
                with open(inp.out_path, "w", encoding="utf-8") as fh:
                    fh.write(stdout.getvalue())
            if code != want_code or "Traceback" in stderr.getvalue():
                tracer.mark_failed("cli.run")
        for t in dict.fromkeys(t for inp in seen for t in inp.texts):
            L.format_ordinal(L.parse_expression(t).value)
        return extras

    def _startup_probes(self) -> dict:
        """Interpreter start, import of ordpigeon.cli beyond it, and the
        -X importtime shares of selftest and oracle, each a median."""
        bare = self._median_ms(["-c", "pass"])
        imported = self._median_ms(["-c", "import ordpigeon.cli"])
        shares = {"ordpigeon.selftest": [], "ordpigeon.oracle": []}
        for _ in range(PROBE_RUNS):
            p = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import ordpigeon.cli"],
                env=self.env, capture_output=True, text=True, timeout=TIMEOUT_S)
            found = dict.fromkeys(shares, 0.0)
            for line in p.stderr.splitlines():
                parts = [x.strip() for x in line.split("|")]
                if len(parts) == 3 and parts[2] in shares:
                    found[parts[2]] = int(parts[1]) / 1e3
            for name, ms in found.items():
                shares[name].append(ms)
        return {
            "cli.interpreter_ms": bare,
            "cli.import_ms": imported - bare,
            "cli.import.selftest_ms": statistics.median(shares["ordpigeon.selftest"]),
            "cli.import.oracle_ms": statistics.median(shares["ordpigeon.oracle"]),
        }

    def _median_ms(self, args):
        times = []
        for _ in range(PROBE_RUNS):
            t = perf_counter()
            subprocess.run([sys.executable, *args], env=self.env,
                           capture_output=True, timeout=TIMEOUT_S, check=True)
            times.append((perf_counter() - t) * 1e3)
        return statistics.median(times)


WORKLOAD = Cli
