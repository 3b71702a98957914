"""The benchmark's metric catalogue: names, units, direction, and for each
per-layer metric the end-to-end metric and workload it should move.

BENCHMARK.json lists the same names; tests/test_bench.py checks that the
two agree.
"""

from __future__ import annotations

WORKLOADS = ("cli", "sweep", "witness", "audit")

# name, unit, better
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms.p50", "ms", "lower"),
    ("op_ms.p90", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

LEAVES = ("Zero", "AllOnes", "C1", "C2aI", "C2aIIA", "C2aIIB", "C2aIIC_lt",
          "C2aIIC_gt", "C2bI", "C2bII", "C2cI", "C2cII", "C3", "C4", "C5",
          "C6a", "C6b", "C6cI", "C6cII")

KERNEL = ("compare", "is_countable", "hash", "construct", "add",
          "left_subtract", "mul", "natural_sum", "mr_sum")


def _span(name, moves):
    return [(f"{name}.calls", "count", "higher", moves),
            (f"{name}.self_s", "s", "lower", moves),
            (f"{name}.failed", "count", "lower", moves)]


def _per_layer():
    cli_moves = "op_ms.p50 on cli"
    rows = [
        ("cli.interpreter_ms", "ms", "lower", cli_moves),
        ("cli.import_ms", "ms", "lower", cli_moves),
        ("cli.import.selftest_ms", "ms", "lower", cli_moves),
        ("cli.import.oracle_ms", "ms", "lower", cli_moves),
    ]
    rows += _span("cli.run", cli_moves)
    parser_moves = "op_ms.p50 on cli; ops_per_s on witness"
    rows += _span("parser.parse_expression", parser_moves)
    rows += _span("parser.format_ordinal", parser_moves)
    for name in ("normalize", "analyze", "relation_holds"):
        rows += _span(f"engine.{name}", "ops_per_s on sweep")
    for leaf in LEAVES:
        moves = ("op_ms.p90 on sweep" if leaf in ("C6cI", "C6cII")
                 else "ops_per_s on sweep")
        rows += [(f"engine.analyze.{leaf}.calls", "count", "higher", moves),
                 (f"engine.analyze.{leaf}.self_s", "s", "lower", moves)]
    for name in KERNEL:
        moves = ("ops_per_s on witness and audit"
                 if name in ("construct", "add", "left_subtract")
                 else "ops_per_s on sweep")
        rows += [(f"ordinal.{name}.calls", "count", "higher", moves),
                 (f"ordinal.{name}.ns_per_call", "ns", "lower", moves)]
    rows += _span("witness.build_counterexample", "ops_per_s on witness")
    rows += _span("witness.verify_certificates", "ops_per_s on witness")
    rows += _span("witness.natsum_expressible", "ops_per_s on audit")
    rows += [
        ("witness.verify.accept_ratio", "ratio", "higher", "ops_per_s on witness"),
        ("witness.tamper.reject_ratio", "ratio", "higher", "ops_per_s on witness"),
        ("witness.build.out_of_scope", "count", "lower", "ops_per_s on witness"),
    ]
    rows += _span("oracle.enumerate_ordinals_below", "ops_per_s on audit")
    rows.append(("oracle.enumerate_ordinals_below.terms", "count", "higher",
                 "ops_per_s on audit"))
    for name in ("bruteforce_mr_sum", "mr_sum_bruteforce_check",
                 "finite_arrow_check", "cross_check_p_top"):
        rows += _span(f"oracle.{name}", "ops_per_s on audit")
    rows.append(("oracle.cross_check_p_top.mismatches", "count", "lower",
                 "ops_per_s on audit"))
    rows += [
        ("trace.overhead_ops_per_s", "1/s", "lower", "none: tracing cost"),
        ("trace.overhead_share", "ratio", "lower", "none: tracing cost"),
    ]
    return tuple(rows)


PER_LAYER = _per_layer()
