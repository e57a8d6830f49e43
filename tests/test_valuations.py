import itertools
import tracemalloc

import numpy as np
import pytest

from pmean.cli import generate_instance
from pmean.errors import SizeLimitExceeded
from pmean.valuations import (
    EPS,
    MAX_AGENTS,
    Additive,
    AxiomReport,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    check_axioms,
    demand,
    full_set,
    goods_of,
    instance_from_dict,
    instance_to_dict,
    iter_goods,
    restrict,
    value,
    value_table,
)


from helpers import (
    FAMILIES,
    axiom_record,
    axiom_tables,
    axioms_by_scan,
    brute_demand,
    golden,
    random_valuation,
)


def test_value_additive():
    assert value(Additive((3, 1, 2)), 0b101) == 5


@pytest.mark.parametrize("family", FAMILIES)
def test_value_of_empty_set_is_zero(family):
    v = random_valuation(family, np.random.default_rng(7), 5)
    assert value(v, 0) == 0.0


def test_value_xos_takes_best_clause():
    v = Xos(((1, 0, 0), (0, 1, 1)))
    # both clause sums on the full set, independently: 1 and 2
    assert value(v, 0b111) == 2


def test_demand_additive_example():
    subset, util = demand(Additive((3, 1)), [2, 2])
    # brute force over the 4 subsets: {} -> 0, {0} -> 1, {1} -> -1, {0,1} -> 0
    assert subset == 0b01
    assert util == pytest.approx(1.0)


@pytest.mark.parametrize("family", FAMILIES)
def test_demand_zero_prices_takes_everything(family):
    v = random_valuation(family, np.random.default_rng(11), 6)
    subset, util = demand(v, [0.0] * v.m)
    assert subset == full_set(v.m)
    assert util == pytest.approx(value(v, subset))


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(6))
def test_demand_matches_brute_force(family, seed):
    rng = np.random.default_rng(200 + seed)
    v = random_valuation(family, rng, 8)
    for _ in range(10):
        prices = [round(float(x), 6) for x in rng.uniform(-30, 120, v.m)]
        subset, util = demand(v, prices)
        _, best = brute_demand(v, prices)
        assert util == pytest.approx(best, abs=1e-9)
        attained = value(v, subset) - sum(prices[j] for j in iter_goods(subset))
        assert attained == pytest.approx(util, abs=1e-9)


@pytest.mark.parametrize("clause_count", (1, 2, 5, 9))
def test_xos_demand_matches_brute_force_any_clause_count(clause_count):
    rng = np.random.default_rng(40 + clause_count)
    v = random_valuation("xos", rng, 10, clause_count)
    for _ in range(8):
        prices = [float(x) for x in rng.uniform(-20, 120, v.m)]
        _, util = demand(v, prices)
        _, best = brute_demand(v, prices)
        assert util == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_single_clause_xos_is_additive_bit_for_bit(seed):
    # value_table and demand treat additive as the one-clause XOS case, and
    # value keeps a branch of its own: all three must agree exactly
    rng = np.random.default_rng(300 + seed)
    weights = tuple(round(float(x) * 100, 6) for x in rng.uniform(size=8))
    additive, xos = Additive(weights), Xos((weights,))
    assert all(value(additive, s) == value(xos, s) for s in range(1 << 8))
    assert np.array_equal(value_table(additive), value_table(xos))
    for _ in range(10):
        prices = [float(x) for x in rng.uniform(-30, 120, 8)]
        assert demand(additive, prices) == demand(xos, prices)


def test_budget_additive_demand_size_cap():
    v = BudgetAdditive((1.0,) * 25, 5.0)
    with pytest.raises(SizeLimitExceeded):
        demand(v, [0.0] * 25)


def test_check_axioms_additive_always_clean():
    report = check_axioms(Additive((4, 0, 2.5)))
    assert report.normalized and report.monotone and report.subadditive


def test_check_axioms_flags_constructed_violation():
    report = check_axioms(ExplicitTable((0, 1, 1, 3)))  # v({0,1}) = 3 > 1 + 1
    assert report.normalized and report.monotone
    assert not report.subadditive


def test_check_axioms_flags_a_non_monotone_table():
    report = check_axioms(ExplicitTable((0, 2, 1, 1)))  # v({0,1}) = 1 < v({0}) = 2
    assert report == AxiomReport(True, False, True)


def test_check_axioms_scans_all_pairs():
    report = check_axioms(ExplicitTable((0, 2, 1, 2)))
    assert report.monotone and report.subadditive


def test_check_axioms_tolerates_exactly_eps():
    assert check_axioms(ExplicitTable((0, 0, 0, EPS))).subadditive  # v({0, 1}) = 0 + 0 + EPS
    assert check_axioms(ExplicitTable((0, EPS, 0, 0))).monotone  # v({0}) = v({0, 1}) + EPS
    report = check_axioms(ExplicitTable((0, 2 * EPS, 0, 0)))
    assert report == AxiomReport(True, False, True)
    assert report.witness == f"v({{0}}) = {2 * EPS!r} > v({{0, 1}}) = 0"


def test_check_axioms_tolerance_spans_a_chain_of_steps():
    # each single-good step loses 0.9 EPS, which the per-step scan forgives,
    # but v({0}) exceeds v({0, 1, 2}) by 1.8 EPS
    table = [0.0] * 8
    table[0b001], table[0b011], table[0b101] = 1.8 * EPS, 0.9 * EPS, 0.9 * EPS
    assert axioms_by_scan(table).monotone
    report = check_axioms(ExplicitTable(tuple(table)))
    assert not report.monotone
    assert report.witness.startswith("v({0}) = ") and report.witness.endswith(" > v({0, 1, 2}) = 0")


def test_check_axioms_matches_the_golden_tables():
    expected = golden()["axiom_tables"]
    records = {
        str(seed): axiom_record(kind, m, check_axioms(ExplicitTable(tuple(map(float, table)))))
        for seed, kind, m, table in axiom_tables()
    }
    assert records == expected


def test_check_axioms_memory_is_bounded_by_a_block():
    # 12 goods: 265,721 splits in five blocks.  A float per split would be 2.1 MB;
    # the index itself is 1.1 MB of uint16.
    v = generate_instance("explicit", 3, 12, 1).valuation
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        assert check_axioms(v).all_ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.2f} MB"


def test_check_axioms_size_cap():
    with pytest.raises(SizeLimitExceeded):
        check_axioms(Additive((1.0,) * 13))


@pytest.mark.parametrize("family", FAMILIES)
def test_axiom_invariants_on_random_instances(family):
    rng = np.random.default_rng(91)
    v = random_valuation(family, rng, 7)
    assert check_axioms(v).all_ok
    table = value_table(v)
    masks = np.arange(1 << v.m)
    for a in (0b1, 0b101, 0b1110001, 0b0110110):
        assert np.all(table[a | masks] <= table[a] + table + 1e-9)


def test_constructors_reject_negative_weights():
    with pytest.raises(ValueError):
        Additive((1.0, -0.5))
    with pytest.raises(ValueError):
        Xos(((1.0, -1.0),))
    with pytest.raises(ValueError):
        BudgetAdditive((1.0,), -2.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"), -1e-300])
@pytest.mark.parametrize("at", [0, 1 << 15, (1 << 16) - 1])
def test_the_weight_check_refuses_any_bad_entry_of_a_full_table(bad, at):
    table = [1.0] * (1 << 16)
    table[0] = 0.0
    table[at] = bad
    with pytest.raises(ValueError, match="^table values must be finite and nonnegative$"):
        ExplicitTable(tuple(table))
    weights = [1.0] * 63
    weights[at % 63] = bad
    with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
        Additive(tuple(weights))


def test_the_weight_check_returns_floats_bit_for_bit():
    weights = (0, 1, 2**53 + 1, 2**70 + 5, 0.1, -0.0, 1e308, True)
    checked = Additive(weights).weights
    assert [type(w) for w in checked] == [float] * len(weights)
    assert [w.hex() for w in checked] == [float(w).hex() for w in weights]


def test_instance_bounds_the_agent_count():
    # refused in the constructor, before any consumer sizes an array by n
    with pytest.raises(SizeLimitExceeded, match=f"at most {MAX_AGENTS} agents supported, got n = {2**40}$"):
        Instance(2**40, Additive((3.0, 1.0, 2.0)))
    assert Instance(MAX_AGENTS, Additive((1.0,))).n == MAX_AGENTS


def test_explicit_table_needs_power_of_two():
    with pytest.raises(ValueError):
        ExplicitTable((0, 1, 2))


def test_value_rejects_out_of_range_subset():
    with pytest.raises(ValueError):
        value(Additive((1, 2)), 0b100)


def test_restrict_matches_expanded_subsets():
    rng = np.random.default_rng(5)
    for family in FAMILIES:
        v = random_valuation(family, rng, 8)
        goods = [1, 3, 4, 7]
        sub = restrict(v, goods)
        for local in range(1 << len(goods)):
            expanded = 0
            for j in iter_goods(local):
                expanded |= 1 << goods[j]
            assert value(sub, local) == pytest.approx(value(v, expanded), abs=1e-12)


def test_large_m_demand_for_non_enumerating_families():
    m = 40
    weights = tuple(float(j % 7) for j in range(m))
    subset, util = demand(Additive(weights), [3.0] * m)
    assert goods_of(subset) == [j for j in range(m) if j % 7 >= 3]
    assert util == pytest.approx(sum(w - 3.0 for w in weights if w >= 3.0))


def test_instance_round_trip(tmp_path):
    rng = np.random.default_rng(17)
    for family in FAMILIES:
        inst = Instance(3, random_valuation(family, rng, 5))
        data = instance_to_dict(inst)
        again = instance_from_dict(data)
        assert again == inst


def test_demand_needs_one_price_per_good():
    with pytest.raises(ValueError, match="expected 3 prices, got 2"):
        demand(Additive((1.0, 2.0, 3.0)), [0.0, 0.0])


@pytest.mark.parametrize("goods, error", [([0, 0], "duplicate goods"), ([0, 3], "good 3 out of range")])
def test_restrict_rejects_bad_goods(goods, error):
    with pytest.raises(ValueError, match=error):
        restrict(Additive((1.0, 2.0, 3.0)), goods)
