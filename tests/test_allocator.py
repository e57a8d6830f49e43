import math

import numpy as np
import pytest

from pmean import allocator, swmax, valuations
from pmean.allocator import (
    APPROX_FACTOR,
    COMBINED_DIVISOR,
    HIGH_BUNDLE_FACTOR,
    PHASE1_DIVISOR,
    alg,
    alg_low,
    extract_subbundles,
)
from pmean.cli import generate_instance
from pmean.errors import PreconditionViolated
from pmean.means import p_mean
from pmean.swmax import EXACT, GREEDY, enumerate_labeled_partitions, sw_estimate
from pmean.valuations import (
    EPS,
    Additive,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    full_set,
    mask_of,
    value,
)

from helpers import FAMILIES, alg_by_restriction, random_valuation


def rescan_opt1(inst):
    """Independent average-welfare optimum by pure partition enumeration."""
    return max(
        math.fsum(value(inst.valuation, b) for b in bundles) / inst.n
        for bundles in enumerate_labeled_partitions(inst.m, inst.n)
    )


def assert_complete(bundles, n, m):
    assert len(bundles) == n
    seen = 0
    for b in bundles:
        assert b & seen == 0
        seen |= b
    assert seen == full_set(m)


def hypothesis_holds(inst, f):
    return all(
        value(inst.valuation, 1 << g) <= f / PHASE1_DIVISOR + EPS
        for g in range(inst.m)
    )


def test_constants_are_consistent():
    assert PHASE1_DIVISOR * HIGH_BUNDLE_FACTOR <= APPROX_FACTOR
    assert COMBINED_DIVISOR == 7.06 == 2 * PHASE1_DIVISOR


def test_single_agent_gets_all_goods():
    alloc, trace = alg(Instance(1, Additive((5, 1, 2))))
    assert alloc == (0b111,)
    assert trace.k == 0


def test_dominant_good_becomes_a_singleton():
    inst = Instance(2, Additive((10, 1, 1, 1)))
    alloc, trace = alg(inst)
    # hand simulation: the average-welfare estimate is 6.5, so the bar is
    # 6.5/3.53 ~ 1.84; good 0 clears it, then one agent remains
    assert trace.k == 1
    assert trace.singleton_goods == [0]
    assert trace.f_values[0] == pytest.approx(6.5)
    assert alloc == (0b0001, 0b1110)


def test_worthless_instance_short_circuits():
    alloc, trace = alg(Instance(2, Additive((0, 0, 0))))
    assert trace.k == 0
    assert_complete(alloc, 2, 3)
    assert all(value(Additive((0, 0, 0)), b) == 0 for b in alloc)


def test_no_goods():
    alloc, trace = alg(Instance(3, Additive(())))
    assert alloc == (0, 0, 0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(5))
def test_phase_one_threshold_replays_from_trace(family, seed):
    rng = np.random.default_rng(500 + seed)
    n = 2 + seed % 2
    inst = Instance(n, random_valuation(family, rng, 7))
    alloc, trace = alg(inst)
    assert_complete(alloc, n, inst.m)
    assert trace.k <= n
    assert len(set(trace.singleton_goods)) == trace.k
    for t, g in enumerate(trace.singleton_goods):
        bar = trace.f_values[t] / PHASE1_DIVISOR
        assert value(inst.valuation, 1 << g) >= bar - EPS
    again, trace_again = alg(inst)
    assert again == alloc
    assert (trace_again.k, trace_again.singleton_goods, trace_again.f_values,
            trace_again.phase2_bundles) == (
        trace.k, trace.singleton_goods, trace.f_values, trace.phase2_bundles)


@pytest.mark.parametrize("backend", (EXACT, GREEDY))
def test_shared_pass_matches_restricted_reference(backend):
    # the exact backend reads every phase-one estimate from one p = 1 DP over
    # the whole instance, and both backends re-cut the estimate that stopped
    # phase one; m = 10, 12 makes alg_low split among two or three agents
    shapes = ((2, 5, 4), (3, 7, 4), (4, 6, 2), (2, 10, 8), (3, 10, 4), (2, 12, 8), (3, 12, 4))
    splits = 0
    for family in FAMILIES:
        for n, m, seeds in shapes:
            for seed in range(seeds):
                inst = generate_instance(family, n, m, seed)
                got = alg(inst, backend)
                assert repr(got) == repr(alg_by_restriction(inst, backend))
                splits += n - got[1].k >= 2
    print(f"{backend}: alg_low split among >= 2 agents on {splits} instances")
    assert splits >= 10


def test_exact_alg_tabulates_the_valuation_once(monkeypatch):
    value_table = swmax.value_table
    calls = []

    def counted(v):
        calls.append(v)
        return value_table(v)

    monkeypatch.setattr(swmax, "value_table", counted)
    _, trace = alg(generate_instance("xos", 4, 8, 3))
    assert len(trace.f_values) >= 2
    assert len(calls) == 1


def test_phase_two_reuses_the_estimate_that_stopped_phase_one(monkeypatch):
    calls = []
    deal = swmax._round_robin

    def counted(goods, agents):
        calls.append((goods, agents))
        return deal(goods, agents)

    monkeypatch.setattr(swmax, "_round_robin", counted)
    _, trace = alg(generate_instance("xos", 3, 12, 4), GREEDY)
    assert trace.k == 1 and len(trace.f_values) == 2  # stopped below the bar, two agents left
    assert len(calls) == 2


@pytest.mark.parametrize("family", FAMILIES)
def test_greedy_backend_makes_no_demand_restrict_or_table_query(monkeypatch, family):
    def refuse(*args):
        raise AssertionError("the greedy backend made a demand, restrict or value_table call")

    for module in (valuations, swmax, allocator):
        for name in ("demand", "restrict", "value_table"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for n, m in ((1, 5), (2, 7), (3, 12)):
        for seed in range(3):
            inst = generate_instance(family, n, m, seed)
            est = sw_estimate(inst, GREEDY)
            assert est.alloc == tuple(mask_of(range(a, m, n)) for a in range(n))
            alloc, _ = alg(inst, GREEDY)
            assert_complete(alloc, n, m)


def test_alg_low_single_bundle():
    inst = Instance(1, Additive((3, 4)))
    assert alg_low(inst) == (0b11,)


def test_alg_low_equal_goods_meet_floor():
    # ten equal goods, two agents: estimate 5, every good worth estimate/5
    inst = Instance(2, Additive((1.0,) * 10))
    f = sw_estimate(inst).f_value
    assert f == pytest.approx(5.0)
    assert hypothesis_holds(inst, f)
    bundles = alg_low(inst)
    assert_complete(bundles, 2, 10)
    for b in bundles:
        assert value(inst.valuation, b) >= f / 20 - 1e-9


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(8))
def test_alg_low_bundle_floors_on_low_value_instances(family, seed):
    rng = np.random.default_rng(700 + seed)
    weights = lambda: tuple(round(float(x), 6) for x in rng.uniform(85, 100, 8))
    if family == "additive":
        val = Additive(weights())
    elif family == "budget_additive":
        w = weights()
        val = BudgetAdditive(w, round(0.7 * sum(w), 6))
    elif family == "xos":
        val = Xos(tuple(weights() for _ in range(3)))
    else:
        x = Xos(tuple(weights() for _ in range(3)))
        val = ExplicitTable(tuple(value(x, s) for s in range(1 << 8)))
    inst = Instance(2, val)
    f = sw_estimate(inst).f_value
    assert hypothesis_holds(inst, f)
    bundles = alg_low(inst)
    assert_complete(bundles, 2, 8)
    opt1 = rescan_opt1(inst)
    for b in bundles:
        worth = value(val, b)
        assert worth >= f / 20 - 1e-9
        assert worth >= opt1 / 40 - 1e-9


@pytest.mark.parametrize("seed", range(3))
def test_alg_low_three_agents_need_twelve_goods(seed):
    # with three agents the low-value bar forces at least twelve near-equal
    # goods; the fill loop then serves two bundles before the remainder dump
    rng = np.random.default_rng(800 + seed)
    val = Additive(tuple(round(float(x), 6) for x in rng.uniform(90, 100, 12)))
    inst = Instance(3, val)
    f = sw_estimate(inst).f_value
    assert hypothesis_holds(inst, f)
    bundles = alg_low(inst)
    assert_complete(bundles, 3, 12)
    for b in bundles:
        assert value(val, b) >= f / 20 - 1e-9


def test_alg_low_source_exhaustion_raises(monkeypatch):
    # drive the fill loop directly into the defensive error: a sham estimate
    # whose bundles are all empty cannot serve anyone
    from pmean import allocator as mod

    class FakeEstimate:
        f_value = 1.0
        alloc = (0, 0, 0)

    monkeypatch.setattr(mod, "sw_estimate", lambda *a, **k: FakeEstimate())
    with pytest.raises(PreconditionViolated):
        alg_low(Instance(3, Additive((0.0, 0.0))))


def test_extract_singletons_from_uniform_set():
    # six goods worth f/5 each: the peel stops each sub-bundle at one good
    f = 5.0
    v = Additive((1.0,) * 6)
    parts = extract_subbundles(0b111111, v, f)
    assert parts == [0b000001, 0b000010, 0b000100, 0b001000, 0b010000]
    assert len(parts) >= math.ceil(3 * value(v, 0b111111) / f - 1)
    for part in parts:
        assert value(v, part) >= f / 20 - 1e-9


def test_extract_boundary_value_yields_no_parts():
    f = 3.0
    v = Additive((0.5, 0.5))  # set worth exactly f/3
    assert extract_subbundles(0b11, v, f) == []


def test_extract_two_heavy_goods():
    f = 3.53
    v = Additive((1.0, 1.0))  # each good exactly f/3.53, set worth ~0.5665 f
    parts = extract_subbundles(0b11, v, f)
    assert len(parts) == 1
    assert value(v, parts[0]) >= f / 20 - 1e-9


def test_extract_preconditions():
    v = Additive((1.0, 1.0))
    with pytest.raises(PreconditionViolated):
        extract_subbundles(0b11, v, 0.0)
    with pytest.raises(PreconditionViolated):
        extract_subbundles(0b11, v, 100.0)  # set worth far less than f/3
    with pytest.raises(PreconditionViolated):
        extract_subbundles(0b11, Additive((10.0, 0.1)), 6.0)  # good above f/3.53


def test_end_to_end_floor_on_awkward_shapes():
    # zeros, dominant goods and binding caps, beyond the acceptance families
    from pmean.means import p_mean_welfare
    from pmean.oracle import p_opt_brute

    rng = np.random.default_rng(321)
    grid = [float("-inf"), -2.0, 0.0, 0.6, 1.0]
    for trial in range(120):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(0, 8))
        kind = trial % 3
        if kind == 0:
            w = rng.uniform(0, 100, m)
            w[rng.uniform(size=m) < 0.3] = 0.0
            val = Additive(tuple(w))
        elif kind == 1:
            w = rng.uniform(0, 1, m)
            if m:
                w[int(rng.integers(m))] = 1000.0
            val = Additive(tuple(w))
        else:
            w = rng.uniform(0, 100, m)
            val = BudgetAdditive(tuple(w), float(rng.uniform(0.2, 1.2) * (w.sum() or 1)))
        inst = Instance(n, val)
        alloc, _ = alg(inst)
        assert_complete(alloc, n, m)
        for p in grid:
            opt = p_opt_brute(inst, p).welfare
            if opt > 0.0:
                assert p_mean_welfare(inst, alloc, p) / opt >= 1 / 40 - 1e-9


@pytest.mark.parametrize("seed", range(10))
def test_extract_count_and_floor_on_random_sets(seed):
    rng = np.random.default_rng(900 + seed)
    f = 100.0
    cap = f / PHASE1_DIVISOR
    weights = tuple(round(float(x), 6) for x in rng.uniform(0.2 * cap, cap, 10))
    v = Additive(weights)
    total = value(v, full_set(10))
    parts = extract_subbundles(full_set(10), v, f)
    assert len(parts) >= math.ceil(3 * total / f - 1)
    used = 0
    for part in parts:
        assert part & used == 0
        used |= part
        assert value(v, part) >= f / 20 - 1e-9
