"""Ground truth: exact p-optimal allocations and the checks built on them.

Optima come from swmax.best_partition, the subset DP behind the exact welfare
subroutine, with its work capped by an explicit budget rather than sampled;
the tests check it against a pure-Python scan of every labeled partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .allocator import CONSTANTS
from .means import NEG_INF, p_mean_welfare
from .swmax import DEFAULT_ENUM_BUDGET, best_partition
from .valuations import EPS, Instance, iter_goods, value


@dataclass(frozen=True)
class OptResult:
    p: float
    alloc: tuple[int, ...]
    welfare: float


def p_opt_brute(
    inst: Instance, p: float, budget: int = DEFAULT_ENUM_BUDGET
) -> OptResult:
    """Exact p-optimal allocation and its p-mean welfare."""
    alloc = best_partition(inst, p, budget)
    return OptResult(p, alloc, p_mean_welfare(inst, alloc, p))


def check_monotonicity(
    inst: Instance, p_grid: Sequence[float], budget: int = DEFAULT_ENUM_BUDGET
) -> bool:
    """True iff the optimal average welfare dominates every grid p's optimum."""
    opt1 = p_opt_brute(inst, 1.0, budget).welfare
    return all(p_opt_brute(inst, p, budget).welfare <= opt1 + EPS for p in p_grid)


def check_structural_lemma(
    inst: Instance, p: float, f_value: float, budget: int = DEFAULT_ENUM_BUDGET
) -> bool:
    """Verify that every very high value bundle of a p-optimal allocation owes
    its value to some single good.

    Computes the exact p-optimum; for every bundle worth more than 11.33 times
    f_value, requires a good in it worth at least a fortieth of the bundle.
    Bundles below the premise threshold are ignored (vacuous).  Only exponents
    below 0.4 (including 0 and -inf) are meaningful here.
    """
    if not (p == NEG_INF or p < 0.4):
        raise ValueError(f"structural check applies to p < 0.4, got {p}")
    opt = p_opt_brute(inst, p, budget)
    v = inst.valuation
    for bundle in opt.alloc:
        worth = value(v, bundle)
        if worth <= CONSTANTS.high_bundle_factor * f_value + EPS:
            continue
        floor = worth / CONSTANTS.approx_factor - EPS
        if not any(value(v, 1 << g) >= floor for g in iter_goods(bundle)):
            return False
    return True
