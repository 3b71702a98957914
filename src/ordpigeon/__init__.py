"""Pigeonhole numbers for ordinal spaces.

The library represents ordinals below the first epsilon-like closure of
the initial ordinals in Cantor normal form, computes the classical and
topological pigeonhole numbers of target lists, constructs counterexample
colourings just below the threshold together with checkable obstruction
certificates, and carries small brute-force oracles used to cross-check
the closed formulas.  The oracles live in ordpigeon.oracle, which this
package does not import, so the CLI starts without them.
"""

from .ordinal import (
    Atom,
    Cardinal,
    ONE,
    OMEGA,
    OMEGA1,
    OMEGA2,
    Ordinal,
    Underflow,
    ZERO,
    ZeroInput,
    add,
    biembed_canonical,
    cb_rank,
    cofinality,
    compare,
    format_cnf,
    from_int,
    initial_ordinal,
    is_order_reinforcing,
    is_power_of_omega,
    leading_decomposition,
    left_subtract,
    mr_sum,
    mul,
    natural_sum,
    omega_pow,
    p_ord,
)
from .engine import (
    Analysis,
    CasePath,
    EmptyInstance,
    Exists,
    Independent,
    Infinite,
    Instance,
    NormalizedInstance,
    PowerOfOmegaInput,
    RelationVerdict,
    analyze,
    case6_decompose,
    classify,
    minimal_omega_power_bound,
    normalize,
    p_top,
    relation_holds,
)
from .witness import (
    CertKind,
    ColouringMode,
    NotBelowThreshold,
    ObstructionCertificate,
    OutOfDomain,
    OutOfScope,
    PreconditionViolated,
    RankColouring,
    build_counterexample,
    eval_colouring,
    natsum_expressible,
    verify_certificates,
)
from .parser import (
    OrdinalExpression,
    OrdinalSyntaxError,
    format_ordinal,
    parse_cardinal,
    parse_expression,
    parse_ordinal,
)

__all__ = [name for name in dir() if not name.startswith("_")]
