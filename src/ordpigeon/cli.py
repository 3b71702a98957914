"""Command line front end; _SUBCOMMANDS lists the subcommands.

Instances are entries of the form TARGET[:COUNT] where TARGET is an
ordinal expression ("w^2*4+1", "w_1") and COUNT a cardinal ("3",
"aleph_0"); a missing count means 1.  Exit status: 0 success (for
`verify`, a verified witness), 1 a clean negative answer, 2 bad usage
or unparseable input.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence, Tuple

from .ordinal import (
    Cardinal,
    Ordinal,
    cb_rank,
    cofinality,
    compare,
    format_cnf,
    is_order_reinforcing,
    is_power_of_omega,
    mr_sum,
    natural_sum,
    p_ord,
    add,
    mul,
)
from .parser import BRIEF, format_ordinal, parse_cardinal, parse_expression

Envelope = dict
Handler = Tuple[Envelope, List[str], int]


def _parse_operand(text: str) -> Ordinal:
    expr = parse_expression(text)
    if expr.noncanonical:
        print(f"note: {BRIEF.repr(text)} is not in normal form, reading it "
              f"as {BRIEF.repr(format_cnf(expr.value))}", file=sys.stderr)
    return expr.value


def _parse_entry(text: str) -> Tuple[Ordinal, Cardinal]:
    head, sep, tail = text.partition(":")
    target = _parse_operand(head)
    count = parse_cardinal(tail) if sep else Cardinal.finite(1)
    return target, count


def _parse_instance(texts: Sequence[str]):
    entries = [_parse_entry(t) for t in texts]
    # the engine is loaded only by the subcommands that analyse, and only
    # once their operands have parsed
    from .engine import Instance
    return Instance.of(*entries)


def _fmt(ns: argparse.Namespace):
    style = "unicode" if ns.unicode else "ascii"
    return lambda v: format_ordinal(v, style)


def _analyse(ns):
    """The analysis of ns.entries, its JSON result and its text lines."""
    inst = _parse_instance(ns.entries)
    from .engine import Exists, Infinite, analyze
    analysis = analyze(inst)
    result, fmt = analysis.result, _fmt(ns)
    if isinstance(result, Exists):
        payload = {"kind": "exists", "value": format_cnf(result.value)}
        lines = [fmt(result.value)]
    elif isinstance(result, Infinite):
        payload = {"kind": "infinite"}
        lines = ["infinite: no ordinal satisfies the relation"]
    else:
        notes = {name: getattr(result, name) for name in result.NOTES}
        payload = {"kind": "independent",
                   "zfc_lower": format_cnf(result.zfc_lower), "notes": notes}
        lines = ["independent of ZFC; provable lower bound "
                 + fmt(result.zfc_lower), *(f"  {n}" for n in notes.values())]
    return analysis, payload, lines


def _envelope(command: str, inputs: Sequence[str], result, **extra) -> Envelope:
    env = {"command": command, "inputs": list(inputs), "result": result}
    env.update(extra)
    return env


def _cmd_ptop(ns) -> Handler:
    analysis, result, lines = _analyse(ns)
    env = _envelope("ptop", ns.entries, result, case_path=analysis.case.value)
    return env, lines + [f"case {analysis.case.value}"], 0


_SUMS = {"pord": p_ord, "mrsum": mr_sum,
         "natsum": lambda operands: natural_sum(*operands)}


def _cmd_sum(ns) -> Handler:
    value = _SUMS[ns.command]([_parse_operand(t) for t in ns.ordinals])
    env = _envelope(ns.command, ns.ordinals,
                    {"kind": "ordinal", "value": format_cnf(value)})
    return env, [_fmt(ns)(value)], 0


def _cmd_arith(ns) -> Handler:
    a, b = _parse_operand(ns.a), _parse_operand(ns.b)
    inputs = [ns.operation, ns.a, ns.b]
    fmt = _fmt(ns)
    if ns.operation == "cmp":
        c = compare(a, b)
        word = {-1: "lt", 0: "eq", 1: "gt"}[c]
        sym = {-1: "<", 0: "=", 1: ">"}[c]
        env = _envelope("arith", inputs, {"kind": "comparison", "value": word})
        return env, [f"{fmt(a)} {sym} {fmt(b)}"], 0
    value = add(a, b) if ns.operation == "add" else mul(a, b)
    env = _envelope("arith", inputs,
                    {"kind": "ordinal", "value": format_cnf(value)})
    return env, [fmt(value)], 0


# classify's facts: JSON key, text label, and an ordinal or yes/no function
_FACTS = (
    ("canonical", "canonical form", lambda a: a),
    ("is_power_of_omega", "power of omega", is_power_of_omega),
    ("is_order_reinforcing", "order reinforcing", is_order_reinforcing),
    ("cb_rank", "cantor-bendixson rank", cb_rank),
    ("cofinality", "cofinality", cofinality),
)


def _cmd_classify(ns) -> Handler:
    a = _parse_operand(ns.ordinal)
    fmt = _fmt(ns)
    result, lines = {"kind": "classification"}, []
    for key, label, fact in _FACTS:
        v = fact(a)
        ordinal = isinstance(v, Ordinal)
        result[key] = format_cnf(v) if ordinal else v
        lines.append(f"{label}: {fmt(v) if ordinal else 'yes' if v else 'no'}")
    return _envelope("classify", [ns.ordinal], result), lines, 0


def _cmd_case(ns) -> Handler:
    analysis, result, lines = _analyse(ns)
    env = _envelope("case", ns.entries, result, case_path=analysis.case.value,
                    citations=list(analysis.trail))
    return env, [f"case {analysis.case.value}",
                 *(f"  {step}" for step in analysis.trail), *lines], 0


def _cmd_witness(ns) -> Handler:
    beta = _parse_operand(ns.beta)
    inst = _parse_instance(ns.entries)
    # the engine and the witness layer load here, once the operands parsed
    from .engine import NormalizedInstance, normalize
    from .witness import (build_counterexample, verify_certificates,
                          witness_to_json)
    norm = normalize(inst)
    if not isinstance(norm, NormalizedInstance):
        raise ValueError("the instance is degenerate; no witness applies")
    col, certs = build_counterexample(beta, norm)
    if not verify_certificates(col, norm, tuple(certs)):
        raise ValueError("the built witness fails its own verification")
    result = witness_to_json(col, certs)
    # entries in the CLI's TARGET:COUNT syntax, read back by verify
    result["instance"] = [f"{format_cnf(t)}:{c!r}" for t, c in norm.entries]
    env = _envelope("witness", [ns.beta] + list(ns.entries), result)
    fmt = _fmt(ns)
    lines = [f"domain {fmt(col.domain)}, mode {col.mode.value}, "
             f"{col.colours} colours"]
    for cert in certs:
        parts = [f"colour {cert.colour}: {cert.kind.value} against "
                 f"{fmt(cert.claimed_target)}"]
        if cert.level is not None:
            parts.append(f"level {fmt(cert.level)}")
        if cert.bound is not None:
            parts.append(f"bound {cert.bound}")
        lines.append(", ".join(parts))
    lines.append("use --json to capture a verifiable witness file")
    return env, lines, 0


def _cmd_verify(ns) -> Handler:
    import json
    from .engine import normalize
    # the checker alone: verify loads no builder, search or dataclasses
    from .checker import verify_certificates, witness_from_json
    with open(ns.file, "r", encoding="utf-8") as fh:
        envelope = json.load(fh)
    try:
        result = envelope["result"]
        col, certs = witness_from_json(result)
        texts = result["instance"]
        if type(texts) is not list or any(type(t) is not str for t in texts):
            raise TypeError(f"{BRIEF.repr(texts)} is not an array of strings")
        inst = _parse_instance(texts)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"not a witness file: {exc}") from exc
    ok = verify_certificates(col, normalize(inst), certs)
    env = _envelope("verify", [ns.file], {"kind": "verdict", "value": ok})
    line = "witness verified" if ok else "witness rejected"
    return env, [line], 0 if ok else 1


def _cmd_selftest(ns) -> Handler:
    # imported here so that no other subcommand pays for loading the grids
    from .selftest import run_all
    results = run_all()
    ok = all(r.ok for r in results)
    env = _envelope("selftest", [], {
        "kind": "selftest",
        "passed": ok,
        # each criterion's fields in slot order, elapsed to the millisecond
        "criteria": [{**dict(zip(r._fields, r._astuple())),
                      "elapsed": round(r.elapsed, 3)} for r in results],
    })
    lines = [r.line() for r in results]
    lines.append("all criteria passed" if ok else "some criteria FAILED")
    return env, lines, 0 if ok else 1


_ENTRIES = ("entries", {"nargs": "+", "metavar": "TARGET[:COUNT]"})
_ORDINALS = ("ordinals", {"nargs": "+", "metavar": "ORDINAL"})

# name, help, handler, and each positional argument with its options
_SUBCOMMANDS = (
    ("ptop", "topological pigeonhole number", _cmd_ptop, [_ENTRIES]),
    ("pord", "classical pigeonhole number", _cmd_sum,
     [("ordinals", {"nargs": "+", "metavar": "TARGET"})]),
    ("mrsum", "Milner-Rado sum", _cmd_sum, [_ORDINALS]),
    ("natsum", "natural sum", _cmd_sum, [_ORDINALS]),
    ("arith", "ordinal arithmetic", _cmd_arith,
     [("operation", {"choices": ["add", "mul", "cmp"]}), ("a", {}), ("b", {})]),
    ("classify", "structural facts about one ordinal", _cmd_classify,
     [("ordinal", {})]),
    ("case", "case dispatch with its reasoning trail", _cmd_case, [_ENTRIES]),
    ("witness", "counterexample colouring below BETA", _cmd_witness,
     [("beta", {"metavar": "BETA"}), _ENTRIES]),
    ("verify", "recheck a witness file", _cmd_verify,
     [("file", {"metavar": "WITNESS.json"})]),
    ("selftest", "run the acceptance grids", _cmd_selftest, []),
)


def _build_parser(argv: Sequence[str]) -> argparse.ArgumentParser:
    # only the subparser that argv[0] names, or every one when it names
    # none; the metavar keeps the full choice list in the top-level usage
    named = [row for row in _SUBCOMMANDS if argv[:1] == [row[0]]]
    parser = argparse.ArgumentParser(
        prog="ordpigeon",
        description="pigeonhole numbers for ordinal topologies")
    sub = parser.add_subparsers(dest="command", required=True, metavar=(
        "{%s}" % ",".join(row[0] for row in _SUBCOMMANDS) if named else None))
    for name, help_text, handler, arguments in named or _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON envelope instead of text")
        p.add_argument("--unicode", action="store_true",
                       help="print ordinals with unicode subscripts")
        for dest, options in arguments:
            p.add_argument(dest, **options)
        p.set_defaults(handler=handler)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        envelope, lines, code = ns.handler(ns)
    except (ValueError, ArithmeticError, OSError, RecursionError) as exc:
        # RecursionError: input nested too deeply, such as a JSON file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if ns.json:
            import json  # only --json output and verify read or write JSON
            print(json.dumps(envelope, indent=2))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left: keep the exit code, let the exit flush hit devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
