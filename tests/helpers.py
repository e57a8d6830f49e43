"""Shared test utilities: seeded instance draws and tiny independent oracles."""

import itertools

import numpy as np

from pmean.allocator import PHASE1_DIVISOR, AlgTrace, alg_low
from pmean.means import p_mean
from pmean.swmax import EXACT, enumerate_labeled_partitions, sw_estimate
from pmean.valuations import (
    EPS,
    Additive,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    goods_of,
    iter_goods,
    mask_of,
    restrict,
    value,
)

FAMILIES = ("additive", "budget_additive", "xos", "explicit")


def random_valuation(family, rng, m, clause_count=3):
    weights = lambda: tuple(round(float(x), 6) for x in rng.uniform(0, 100, m))
    if family == "additive":
        return Additive(weights())
    if family == "budget_additive":
        w = weights()
        return BudgetAdditive(w, round(0.6 * sum(w), 6))
    if family == "xos":
        return Xos(tuple(weights() for _ in range(clause_count)))
    x = Xos(tuple(weights() for _ in range(clause_count)))
    return ExplicitTable(tuple(value(x, s) for s in range(1 << m)))


def brute_demand(v, prices):
    """Independent oracle: enumerate every subset, return the best utility."""
    best_util = float("-inf")
    best = 0
    for s in range(1 << v.m):
        util = value(v, s) - sum(prices[j] for j in iter_goods(s))
        if util > best_util:
            best_util, best = util, s
    return best, best_util


def rescan_opts(inst, ps):
    """Independent p-optima by pure partition enumeration and scalar means."""
    rows = [
        [value(inst.valuation, b) for b in bundles]
        for bundles in enumerate_labeled_partitions(inst.m, inst.n)
    ]
    return [max(p_mean(vals, p) for vals in rows) for p in ps]


def layer_pairs_reference(m):
    """The subset DP's middle-layer pairs (T, S minus T) and group starts, by
    itertools: every S ascending, and within each S every T within S that
    holds S's lowest good, ascending."""
    subs, rests, starts = [], [], []
    for s in range(1 << m):
        starts.append(len(subs))
        goods = [j for j in range(m) if s >> j & 1]
        low, others = mask_of(goods[:1]), goods[1:]
        ts = sorted(
            low | mask_of(extra)
            for r in range(len(others) + 1)
            for extra in itertools.combinations(others, r)
        )
        subs += ts
        rests += [s ^ t for t in ts]
    return subs, rests, starts


def alg_by_restriction(inst, backend=EXACT):
    """alg with every welfare estimate made on its own sub-instance: phase one
    calls sw_estimate on the valuation restricted to the goods left, and phase
    two runs alg_low on the restricted tail, which estimates it once more."""
    v = inst.valuation
    order = sorted(range(inst.m), key=lambda j: (-value(v, 1 << j), j))
    singles, f_values = [], []
    agents, next_pick = inst.n, 0
    while agents > 1 and next_pick < inst.m:
        g = order[next_pick]
        top_value = value(v, 1 << g)
        if top_value <= 0.0:
            break
        sub = Instance(agents, restrict(v, sorted(order[next_pick:])))
        f_values.append(sw_estimate(sub, backend).f_value)
        if top_value < f_values[-1] / PHASE1_DIVISOR - EPS:
            break
        singles.append(g)
        agents -= 1
        next_pick += 1
    leftover = sorted(order[next_pick:])
    tail = Instance(agents, restrict(v, leftover))
    local = alg_low(tail, backend)
    phase2 = [mask_of(leftover[j] for j in goods_of(b)) for b in local]
    trace = AlgTrace(len(singles), singles, f_values, phase2, sw_estimate(tail, backend).guarantee)
    return tuple(1 << g for g in singles) + tuple(phase2), trace
