"""Command line front end.

Subcommands:
  ptop      pigeonhole number of an instance, with its case tag
  pord      classical pigeonhole number of a target list
  mrsum     Milner-Rado sum of a target list
  natsum    natural (Hessenberg) sum
  arith     add | mul | cmp on two ordinals
  classify  structural facts about one ordinal
  case      case tag plus the dispatch trail for an instance
  witness   counterexample colouring below a given ordinal, as JSON
  verify    recheck a witness file produced by `witness`
  selftest  run the acceptance grids

Instances are entries of the form TARGET[:COUNT] where TARGET is an
ordinal expression ("w^2*4+1", "w_1") and COUNT a cardinal ("3",
"aleph_0"); a missing count means 1.  Exit status: 0 success (for
`verify`, a verified witness), 1 a clean negative answer, 2 bad usage
or unparseable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .engine import (
    Analysis,
    Exists,
    Independent,
    Infinite,
    Instance,
    NormalizedInstance,
    analyze,
    normalize,
)
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
from .parser import (
    format_ordinal,
    parse_cardinal,
    parse_expression,
    parse_ordinal,
)

if TYPE_CHECKING:
    from .witness import ObstructionCertificate, RankColouring

Envelope = dict
Handler = Tuple[Envelope, List[str], int]


def _parse_operand(text: str) -> Ordinal:
    expr = parse_expression(text)
    if expr.noncanonical:
        print(f"note: {text!r} is not in normal form, reading it as "
              f"{format_cnf(expr.value)!r}", file=sys.stderr)
    return expr.value


def _parse_entry(text: str) -> Tuple[Ordinal, Cardinal]:
    head, sep, tail = text.partition(":")
    target = _parse_operand(head)
    count = parse_cardinal(tail) if sep else Cardinal.finite(1)
    return target, count


def _parse_instance(texts: Sequence[str]) -> Instance:
    return Instance.of(*(_parse_entry(t) for t in texts))


def _fmt(ns: argparse.Namespace):
    style = "unicode" if ns.unicode else "ascii"
    return lambda v: format_ordinal(v, style)


def _result_payload(result) -> dict:
    if isinstance(result, Exists):
        return {"kind": "exists", "value": format_cnf(result.value)}
    if isinstance(result, Infinite):
        return {"kind": "infinite"}
    assert isinstance(result, Independent)
    return {
        "kind": "independent",
        "zfc_lower": format_cnf(result.zfc_lower),
        "notes": {
            "consistent_infinite": result.consistent_infinite,
            "consistent_equal_lower": result.consistent_equal_lower,
            "equiconsistency": result.equiconsistency,
        },
    }


def _result_lines(result, fmt) -> List[str]:
    if isinstance(result, Exists):
        return [fmt(result.value)]
    if isinstance(result, Infinite):
        return ["infinite: no ordinal satisfies the relation"]
    return [f"independent of ZFC; provable lower bound {fmt(result.zfc_lower)}",
            f"  {result.consistent_infinite}",
            f"  {result.consistent_equal_lower}",
            f"  {result.equiconsistency}"]


def _envelope(command: str, inputs: Sequence[str], result, **extra) -> Envelope:
    env = {"command": command, "inputs": list(inputs), "result": result}
    env.update(extra)
    return env


def _cmd_ptop(ns) -> Handler:
    analysis = analyze(_parse_instance(ns.entries))
    env = _envelope("ptop", ns.entries, _result_payload(analysis.result),
                    case_path=analysis.case.value)
    lines = _result_lines(analysis.result, _fmt(ns))
    lines.append(f"case {analysis.case.value}")
    return env, lines, 0


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


def _cmd_classify(ns) -> Handler:
    a = _parse_operand(ns.ordinal)
    fmt = _fmt(ns)
    facts = {
        "canonical": format_cnf(a),
        "is_power_of_omega": is_power_of_omega(a),
        "is_order_reinforcing": is_order_reinforcing(a),
        "cb_rank": format_cnf(cb_rank(a)),
        "cofinality": format_cnf(cofinality(a)),
    }
    env = _envelope("classify", [ns.ordinal],
                    {"kind": "classification", **facts})
    lines = [
        f"canonical form: {fmt(a)}",
        f"power of omega: {'yes' if facts['is_power_of_omega'] else 'no'}",
        "order reinforcing: "
        + ("yes" if facts["is_order_reinforcing"] else "no"),
        f"cantor-bendixson rank: {fmt(cb_rank(a))}",
        f"cofinality: {fmt(cofinality(a))}",
    ]
    return env, lines, 0


def _cmd_case(ns) -> Handler:
    analysis: Analysis = analyze(_parse_instance(ns.entries))
    env = _envelope("case", ns.entries, _result_payload(analysis.result),
                    case_path=analysis.case.value,
                    citations=list(analysis.trail))
    lines = [f"case {analysis.case.value}"]
    lines += [f"  {step}" for step in analysis.trail]
    lines += _result_lines(analysis.result, _fmt(ns))
    return env, lines, 0


def _serialize_witness(col: RankColouring,
                       certs: Sequence[ObstructionCertificate],
                       entries: Sequence[Tuple[Ordinal, Cardinal]]) -> dict:
    def opt(x):
        return None if x is None else format_cnf(x)
    return {
        "kind": "witness",
        "domain": format_cnf(col.domain),
        "mode": col.mode.value,
        "rank_classes": [[[format_cnf(lo), format_cnf(hi)]
                          for lo, hi in union]
                         for union in col.rank_classes],
        "top_point_colours": list(col.top_point_colours),
        "zero_colour": col.zero_colour,
        "certificates": [{
            "colour": c.colour,
            "kind": c.kind.value,
            "claimed_target": format_cnf(c.claimed_target),
            "level": opt(c.level),
            "bound": c.bound,
            "class_residual": opt(c.class_residual),
            "target_residual": opt(c.target_residual),
        } for c in certs],
        "instance": [f"{format_cnf(t)}:{c!r}" for t, c in entries],
    }


def _deserialize_witness(result: dict):
    from .witness import (CertKind, ColouringMode, ObstructionCertificate,
                          RankColouring)

    def opt(x):
        return None if x is None else parse_ordinal(x)
    col = RankColouring(
        domain=parse_ordinal(result["domain"]),
        mode=ColouringMode(result["mode"]),
        rank_classes=tuple(
            tuple((parse_ordinal(lo), parse_ordinal(hi)) for lo, hi in union)
            for union in result["rank_classes"]),
        top_point_colours=tuple(int(c) for c in result["top_point_colours"]),
        zero_colour=(None if result["zero_colour"] is None
                     else int(result["zero_colour"])))
    certs = tuple(ObstructionCertificate(
        colour=int(c["colour"]),
        kind=CertKind(c["kind"]),
        claimed_target=parse_ordinal(c["claimed_target"]),
        level=opt(c["level"]),
        bound=None if c["bound"] is None else int(c["bound"]),
        class_residual=opt(c["class_residual"]),
        target_residual=opt(c["target_residual"]),
    ) for c in result["certificates"])
    inst = _parse_instance(result["instance"])
    return col, certs, inst


def _cmd_witness(ns) -> Handler:
    # the witness layer is imported only by the two subcommands that use it
    from .witness import build_counterexample, verify_certificates
    beta = _parse_operand(ns.beta)
    inst = _parse_instance(ns.entries)
    norm = normalize(inst)
    if not isinstance(norm, NormalizedInstance):
        raise ValueError("the instance is degenerate; no witness applies")
    col, certs = build_counterexample(beta, norm)
    assert verify_certificates(col, norm, tuple(certs))
    result = _serialize_witness(col, certs, norm.entries)
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
    from .witness import verify_certificates
    with open(ns.file, "r", encoding="utf-8") as fh:
        envelope = json.load(fh)
    try:
        col, certs, inst = _deserialize_witness(envelope["result"])
    except (KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"not a witness file: {exc}") from exc
    norm = normalize(inst)
    ok = isinstance(norm, NormalizedInstance) and \
        verify_certificates(col, norm, certs)
    env = _envelope("verify", [ns.file],
                    {"kind": "verdict", "value": bool(ok)})
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
        "criteria": [{
            "number": r.number,
            "title": r.title,
            "ok": r.ok,
            "detail": r.detail,
            "elapsed": round(r.elapsed, 3),
            "limit": r.limit,
        } for r in results],
    })
    lines = [r.line() for r in results]
    lines.append("all criteria passed" if ok else "some criteria FAILED")
    return env, lines, 0 if ok else 1


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true",
                        help="emit a JSON envelope instead of text")
    common.add_argument("--unicode", action="store_true",
                        help="print ordinals with unicode subscripts")

    parser = argparse.ArgumentParser(
        prog="ordpigeon",
        description="pigeonhole numbers for ordinal topologies")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ptop", parents=[common],
                       help="topological pigeonhole number")
    p.add_argument("entries", nargs="+", metavar="TARGET[:COUNT]")
    p.set_defaults(handler=_cmd_ptop)

    p = sub.add_parser("pord", parents=[common],
                       help="classical pigeonhole number")
    p.add_argument("ordinals", nargs="+", metavar="TARGET")
    p.set_defaults(handler=_cmd_sum)

    for name, help_text in (("mrsum", "Milner-Rado sum"),
                            ("natsum", "natural sum")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("ordinals", nargs="+", metavar="ORDINAL")
        p.set_defaults(handler=_cmd_sum)

    p = sub.add_parser("arith", parents=[common], help="ordinal arithmetic")
    p.add_argument("operation", choices=["add", "mul", "cmp"])
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(handler=_cmd_arith)

    p = sub.add_parser("classify", parents=[common],
                       help="structural facts about one ordinal")
    p.add_argument("ordinal")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("case", parents=[common],
                       help="case dispatch with its reasoning trail")
    p.add_argument("entries", nargs="+", metavar="TARGET[:COUNT]")
    p.set_defaults(handler=_cmd_case)

    p = sub.add_parser("witness", parents=[common],
                       help="counterexample colouring below BETA")
    p.add_argument("beta", metavar="BETA")
    p.add_argument("entries", nargs="+", metavar="TARGET[:COUNT]")
    p.set_defaults(handler=_cmd_witness)

    p = sub.add_parser("verify", parents=[common],
                       help="recheck a witness file")
    p.add_argument("file", metavar="WITNESS.json")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the acceptance grids")
    p.set_defaults(handler=_cmd_selftest)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
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
