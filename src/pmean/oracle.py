"""Ground truth: exact p-optimal allocations and the checks built on them.

Optima come from swmax.SubsetDP, the subset DP behind the exact welfare
subroutine, with its work capped by an explicit budget rather than sampled;
the tests check it against a pure-Python scan of every labeled partition.
p_opt_brute answers one exponent; p_opt_grid answers many from one set-up,
the value table and the layer pairs, and computes only the layers per
exponent.  p_opt_grid takes that set-up from its caller, who may have handed
the same one to alg, or builds SubsetDP(inst) at the default budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .allocator import APPROX_FACTOR, HIGH_BUNDLE_FACTOR, SPLIT_EXPONENT
from .means import NEG_INF, p_mean_welfare
from .swmax import SubsetDP
from .valuations import EPS, Instance, full_set, iter_goods, value


@dataclass(frozen=True)
class OptResult:
    p: float
    alloc: tuple[int, ...]
    welfare: float


def p_opt_brute(inst: Instance, p: float) -> OptResult:
    """Exact p-optimal allocation and its p-mean welfare, at the default budget."""
    return p_opt_grid(inst, [p])[0]


def p_opt_grid(inst: Instance, ps: Sequence[float], dp: SubsetDP | None = None) -> list[OptResult]:
    """Exact p-optimal allocation and welfare at each exponent in turn, with
    one subset-DP set-up shared by all of them: dp, or else SubsetDP(inst)."""
    if not ps:  # nothing to solve: no set-up, so no budget check
        return []
    dp = dp or SubsetDP(inst)
    everything = full_set(inst.m)
    results = []
    for p in ps:
        alloc = dp.at(p)(everything, inst.n)
        results.append(OptResult(p, alloc, p_mean_welfare(inst, alloc, p)))
    return results


def check_monotonicity(inst: Instance, p_grid: Sequence[float]) -> bool:
    """True iff the optimal average welfare dominates every grid p's optimum."""
    opt1, *opts = p_opt_grid(inst, [1.0, *p_grid])
    return all(opt.welfare <= opt1.welfare + EPS for opt in opts)


def check_structural_lemma(inst: Instance, p: float, f_value: float) -> bool:
    """Verify that every very high value bundle of a p-optimal allocation owes
    its value to some single good.

    Computes the exact p-optimum; for every bundle worth more than 11.33 times
    f_value, requires a good in it worth at least a fortieth of the bundle.
    Bundles below the premise threshold are ignored (vacuous).  Only exponents
    below 0.4 (including 0 and -inf) are meaningful here.
    """
    if not (p == NEG_INF or p < SPLIT_EXPONENT):
        raise ValueError(f"structural check applies to p < {SPLIT_EXPONENT}, got {p}")
    opt = p_opt_brute(inst, p)
    v = inst.valuation
    for bundle in opt.alloc:
        worth = value(v, bundle)
        if worth <= HIGH_BUNDLE_FACTOR * f_value + EPS:
            continue
        floor = worth / APPROX_FACTOR - EPS
        if not any(value(v, 1 << g) >= floor for g in iter_goods(bundle)):
            return False
    return True
