"""Shared test utilities: seeded instance draws and tiny independent oracles."""

import functools
import itertools
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from pmean.allocator import PHASE1_DIVISOR, AlgTrace, alg_low
from pmean.means import p_mean
from pmean.swmax import EXACT, enumerate_labeled_partitions, sw_estimate
from pmean.valuations import (
    EPS,
    Additive,
    AxiomReport,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    full_set,
    goods_of,
    iter_goods,
    mask_of,
    restrict,
    value,
    value_table,
)

FAMILIES = ("additive", "budget_additive", "xos", "explicit")

GOLDEN = Path(__file__).parent / "corpus" / "golden.json"


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


def axioms_by_scan(table):
    """Independent axiom check of a dense table: monotonicity over every
    single-good extension, subadditivity over all 4^m ordered subset pairs."""
    table = np.asarray(table, dtype=float)
    m = table.size.bit_length() - 1
    masks = np.arange(1 << m)
    monotone = True
    for j in range(m):
        without = masks[(masks >> j) & 1 == 0]
        if not np.all(table[without] <= table[without | (1 << j)] + EPS):
            monotone = False
            break
    subadditive = True
    for a in masks:
        if not np.all(table[a | masks] <= table[a] + table + EPS):
            subadditive = False
            break
    return AxiomReport(bool(table[0] == 0.0), monotone, subadditive)


def alg_by_restriction(inst, backend=EXACT):
    """alg with every welfare estimate made on its own sub-instance: phase one
    calls sw_estimate on the valuation restricted to the goods left, and phase
    two runs alg_low on a fresh estimate of the restricted tail."""
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
    est = sw_estimate(tail, backend)
    local = alg_low(tail.valuation, est, full_set(tail.m))
    phase2 = [mask_of(leftover[j] for j in goods_of(b)) for b in local]
    trace = AlgTrace(len(singles), singles, f_values, phase2, est.guarantee)
    return tuple(1 << g for g in singles) + tuple(phase2), trace


@functools.cache
def golden():
    """The committed outputs of tests/make_golden.py, by section and record key."""
    return json.loads(GOLDEN.read_text())


def instance_key(family, n, m, seed):
    return f"{family} {n} {m} {seed}"


def alg_record(alloc, trace, optima):
    """alg's allocation and whole trace, and the allocation of each optimum,
    as bitmasks."""
    return {
        "alloc": list(alloc),
        **asdict(trace),
        "guarantee": trace.guarantee.value,
        "optima": [list(opt.alloc) for opt in optima],
    }


def golden_drift(record, expected):
    """The fields in which a record differs from its golden record: the
    welfare estimates by more than 1e-12 relative, the rest at all."""
    if record.keys() != expected.keys():
        return sorted(record.keys() ^ expected.keys())
    return [
        key
        for key, want in expected.items()
        if record[key] != (pytest.approx(want, rel=1e-12, abs=0) if key == "f_values" else want)
    ]


def axiom_tables(count=300):
    """(seed, kind, m, table): seeded dense tables of 0..12 goods, a quarter of
    each kind: max of three additive rows, which holds every axiom; the same
    with one entry times U(1, 3) or times U(0, 1); and entries uniform in
    [0, 1), with v({}) = 0 in every other one."""
    kinds = ("xos", "raised", "lowered", "uniform")
    for seed in range(count):
        rng = np.random.default_rng(7000 + seed)
        kind, m = kinds[seed % 4], int(rng.integers(0, 13))
        if kind == "uniform":
            table = rng.uniform(0, 1, 1 << m)
            if seed % 8 == 3:
                table[0] = 0.0
        else:
            table = value_table(Xos(tuple(tuple(rng.uniform(0, 100, m)) for _ in range(3))))
            entry = int(rng.integers(0, 1 << m))
            if kind == "raised":
                table[entry] *= rng.uniform(1, 3)
            elif kind == "lowered":
                table[entry] *= rng.uniform(0, 1)
        yield seed, kind, m, table


def axiom_record(kind, m, report):
    return {"kind": kind, "m": m, **asdict(report)}
