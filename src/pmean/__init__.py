"""Allocation of indivisible goods under one shared subadditive valuation,
approximating the optimal generalized-mean welfare for every exponent p <= 1
with a single allocation, plus the exact oracles and numeric checks that
verify the guarantee at desk scale."""

from .allocator import AlgTrace, alg, alg_low
from .errors import (
    BracketInvalid,
    BudgetExceeded,
    EmptyInput,
    NotPerfect,
    PmeanError,
    PreconditionViolated,
    SizeLimitExceeded,
)
from .means import NEG_INF, p_mean, p_mean_welfare, parse_exponent
from .oracle import (
    OptResult,
    check_monotonicity,
    check_structural_lemma,
    p_opt_brute,
    p_opt_grid,
)
from .swmax import (
    DEFAULT_ENUM_BUDGET,
    EXACT,
    GREEDY,
    Guarantee,
    SwEstimate,
    enumerate_labeled_partitions,
    sw_estimate,
)
from .valuations import (
    EPS,
    Additive,
    AxiomReport,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    check_axioms,
    demand,
    load_instance,
    restrict,
    save_instance,
    value,
)

__version__ = "0.1.0"

__all__ = [
    "Additive",
    "AlgTrace",
    "AxiomReport",
    "BracketInvalid",
    "BudgetAdditive",
    "BudgetExceeded",
    "DEFAULT_ENUM_BUDGET",
    "EPS",
    "EXACT",
    "EmptyInput",
    "ExplicitTable",
    "GREEDY",
    "Guarantee",
    "Instance",
    "NEG_INF",
    "NotPerfect",
    "OptResult",
    "PmeanError",
    "PreconditionViolated",
    "SizeLimitExceeded",
    "SwEstimate",
    "Xos",
    "alg",
    "alg_low",
    "check_axioms",
    "check_monotonicity",
    "check_structural_lemma",
    "demand",
    "enumerate_labeled_partitions",
    "load_instance",
    "p_mean",
    "p_mean_welfare",
    "p_opt_brute",
    "p_opt_grid",
    "parse_exponent",
    "restrict",
    "save_instance",
    "sw_estimate",
    "value",
]
