"""Spans around the benchmark's own calls into the program's layers.

Every public function a workload calls is reached through a Layers
object.  Untraced, its attributes are the program's functions
themselves; traced, each is wrapped so that a call records a span
(name, start, end, parent span, op id, tag, failed) in memory.  Nothing
inside the program is instrumented: a span covers one call the
benchmark makes, so self time is what that call cost from outside.
"""

from __future__ import annotations

from time import perf_counter
from types import SimpleNamespace

# attribute on Layers -> (span name, program module, function)
CALLS = {
    "cli_run": ("cli.run", "cli", "run"),
    "parse_expression": ("parser.parse_expression", "parser", "parse_expression"),
    "format_ordinal": ("parser.format_ordinal", "parser", "format_ordinal"),
    "normalize": ("engine.normalize", "engine", "normalize"),
    "analyze": ("engine.analyze", "engine", "analyze"),
    "relation_holds": ("engine.relation_holds", "engine", "relation_holds"),
    "build_counterexample": ("witness.build_counterexample", "witness",
                             "build_counterexample"),
    "verify_certificates": ("witness.verify_certificates", "witness",
                            "verify_certificates"),
    "natsum_expressible": ("witness.natsum_expressible", "witness",
                           "natsum_expressible"),
    "enumerate_ordinals_below": ("oracle.enumerate_ordinals_below", "oracle",
                                 "enumerate_ordinals_below"),
    "bruteforce_mr_sum": ("oracle.bruteforce_mr_sum", "oracle",
                          "bruteforce_mr_sum"),
    "mr_sum_bruteforce_check": ("oracle.mr_sum_bruteforce_check", "oracle",
                                "mr_sum_bruteforce_check"),
    "finite_arrow_check": ("oracle.finite_arrow_check", "oracle",
                           "finite_arrow_check"),
    "cross_check_p_top": ("oracle.cross_check_p_top", "oracle",
                          "cross_check_p_top"),
}


class Tracer:
    """In-memory span log.  A span is [name, start, end, parent, op, tag,
    failed]; parent is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self._open = []
        self.op = -1

    def wrap(self, name, fn, tag=None, documented=()):
        spans, stack = self.spans, self._open

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None,
                   False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except documented:
                raise
            except Exception:
                rec[6] = True
                raise
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if tag is not None:
                rec[5] = tag(out)
            return out
        return traced

    def mark_failed(self, name):
        """Flag the last span of this name, for a call that returned a
        wrong answer rather than raising."""
        for rec in reversed(self.spans):
            if rec[0] == name:
                rec[6] = True
                return

    def summary(self):
        """{name: [calls, self seconds, failed]}, with tagged spans also
        counted under name.tag."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out = {}
        for i, (name, start, end, _, _, tag, failed) in enumerate(self.spans):
            own = end - start - child[i]
            keys = (name,) if tag is None else (name, f"{name}.{tag}")
            for key in keys:
                row = out.setdefault(key, [0, 0.0, 0])
                row[0] += 1
                row[1] += own
                row[2] += failed
        return out


def layers(program, tracer=None, documented=None):
    """The program's public functions, wrapped in spans when a tracer is
    given.  documented maps an attribute to the exceptions its callers
    expect, which do not count as failed calls."""
    documented = documented or {}
    ns = SimpleNamespace()
    for attr, (name, module, fn_name) in CALLS.items():
        if not hasattr(program, module):
            continue
        fn = getattr(getattr(program, module), fn_name)
        if tracer is not None:
            tag = _leaf if attr == "analyze" else None
            fn = tracer.wrap(name, fn, tag, documented.get(attr, ()))
        setattr(ns, attr, fn)
    return ns


def _leaf(analysis):
    return analysis.case.value
