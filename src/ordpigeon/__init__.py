"""Pigeonhole numbers for ordinal spaces.

The library represents ordinals below the first epsilon-like closure of
the initial ordinals in Cantor normal form, computes the classical and
topological pigeonhole numbers of target lists, constructs counterexample
colourings just below the threshold together with checkable obstruction
certificates, and carries small brute-force oracles used to cross-check
the closed formulas.

The package root imports no submodule: each name below is resolved from
its home module on first use (PEP 562), so `from ordpigeon import
Instance` loads the kernel and the engine but not the witness layer.
The oracles live in ordpigeon.oracle and are not re-exported here.
"""

_HOMES = {
    "ordinal": """Atom Cardinal ONE OMEGA OMEGA1 OMEGA2 Ordinal Underflow ZERO
        ZeroInput add biembed_canonical cb_rank cofinality compare format_cnf
        from_int initial_ordinal is_order_reinforcing is_power_of_omega
        leading_decomposition left_subtract mr_sum mul natural_sum omega_pow
        p_ord""",
    "engine": """Analysis CasePath EmptyInstance Exists Independent Infinite
        Instance NormalizedInstance PowerOfOmegaInput RelationVerdict analyze
        case6_decompose classify minimal_omega_power_bound normalize p_top
        relation_holds""",
    "witness": """CertKind ColouringMode NotBelowThreshold ObstructionCertificate
        OutOfDomain OutOfScope PreconditionViolated RankColouring
        build_counterexample eval_colouring natsum_expressible
        verify_certificates""",
    "parser": """OrdinalExpression OrdinalSyntaxError format_ordinal
        parse_cardinal parse_expression parse_ordinal""",
}
_HOME = {name: module for module, names in _HOMES.items()
         for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
