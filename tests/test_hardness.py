import numpy as np
import pytest

from pmean import hardness
from pmean.errors import BudgetExceeded, NotPerfect, SizeLimitExceeded
from pmean.hardness import (
    Gap3dmInstance,
    check_gap,
    generate_no_instance,
    generate_yes_instance,
    matching_to_allocation,
    max_matching_brute,
    reduce,
)
from pmean.means import NEG_INF, p_mean_welfare
from pmean.oracle import check_monotonicity, p_opt_brute
from pmean.valuations import demand, value

from helpers import brute_demand

P_GRID = [NEG_INF, -1.0, 0.0, 0.4, 1.0]


def branch_max_matching(edges):
    """Independent exhaustive route: include/exclude recursion over edges."""

    def go(i, used):
        if i == len(edges):
            return 0
        best = go(i + 1, used)
        e = set(edges[i])
        if not (e & used):
            best = max(best, 1 + go(i + 1, used | e))
        return best

    return go(0, set())


def test_single_edge_reduction():
    g = Gap3dmInstance(1, ((0, 1, 2),))
    inst = reduce(g)
    assert inst.n == 1 and inst.m == 3
    assert value(inst.valuation, 0b111) == 3


def test_bundle_values_are_edge_intersections():
    g = Gap3dmInstance(2, ((0, 2, 4), (1, 3, 5)))
    inst = reduce(g)
    for s in range(1 << 6):
        worth = value(inst.valuation, s)
        assert worth == max(
            len({0, 2, 4} & set_bits(s)), len({1, 3, 5} & set_bits(s))
        )
        assert worth <= 3


def set_bits(mask):
    return {j for j in range(mask.bit_length()) if mask >> j & 1}


def test_perfect_matching_allocation_hits_three_everywhere():
    g = Gap3dmInstance(2, ((0, 2, 4), (1, 3, 5)))
    alloc = matching_to_allocation(g, (0, 1))
    inst = reduce(g)
    for p in P_GRID:
        assert p_mean_welfare(inst, alloc, p) == pytest.approx(3.0)


def test_non_perfect_matching_rejected():
    g = Gap3dmInstance(2, ((0, 2, 4), (1, 3, 5), (0, 3, 5)))
    with pytest.raises(NotPerfect):
        matching_to_allocation(g, (0,))
    with pytest.raises(NotPerfect):
        matching_to_allocation(g, (0, 2))  # edges share vertex 0


def test_matching_brute_basics():
    assert max_matching_brute(Gap3dmInstance(1, ((0, 1, 2),))) == (0,)
    shared = Gap3dmInstance(2, ((0, 2, 4), (0, 3, 5)))
    assert len(max_matching_brute(shared)) == 1


def test_matching_brute_edge_cap():
    edges = tuple((0, 3, 6) for _ in range(21))
    with pytest.raises(SizeLimitExceeded):
        max_matching_brute(Gap3dmInstance(3, edges))


@pytest.mark.parametrize("seed", range(8))
def test_matching_brute_agrees_with_branch_search(seed):
    rng = np.random.default_rng(seed)
    q = 3
    edges = tuple(
        (int(rng.integers(q)), q + int(rng.integers(q)), 2 * q + int(rng.integers(q)))
        for _ in range(6)
    )
    g = Gap3dmInstance(q, edges)
    assert len(max_matching_brute(g)) == branch_max_matching(edges)


def test_edges_must_respect_blocks():
    with pytest.raises(ValueError):
        Gap3dmInstance(2, ((0, 1, 4),))  # 1 is in the X block for q = 2


@pytest.mark.parametrize("q", (1, 2, 3))
def test_yes_side_optimum_is_three(q):
    g = generate_yes_instance(q, seed=q)
    inst = reduce(g)
    for p in P_GRID:
        assert p_opt_brute(inst, p).welfare == pytest.approx(3.0, abs=1e-9)
    assert check_monotonicity(inst, P_GRID)


@pytest.mark.parametrize("q", (2, 3))
def test_no_side_bound(q):
    g = generate_no_instance(q, seed=q)
    matching = max_matching_brute(g)
    alpha = len(matching) / q
    assert alpha < 1
    inst = reduce(g)
    for p in P_GRID:
        assert p_opt_brute(inst, p).welfare <= 2 + alpha + 1e-9
    gap = check_gap(g, P_GRID)
    assert gap["ok"] and gap["alpha"] == alpha and gap["max_matching_size"] == 1
    assert [row["p"] for row in gap["table"]] == P_GRID
    for row in gap["table"]:
        assert row["ok"] and row["bound"] == 2 + alpha
        assert row["opt_welfare"] == pytest.approx(p_opt_brute(inst, row["p"]).welfare)


def test_check_gap_reads_the_side_off_the_matching():
    # a perfect matching puts the gadget on the yes side: optimum 3, no alpha or bound
    yes = check_gap(generate_yes_instance(2, seed=0), P_GRID)
    assert set(yes) == {"max_matching_size", "perfect_matching", "table", "ok"}
    assert yes["ok"] and yes["perfect_matching"] and yes["max_matching_size"] == 2
    for row in yes["table"]:
        assert set(row) == {"p", "opt_welfare", "ok"}
        assert row["ok"] and row["opt_welfare"] == pytest.approx(3.0, abs=1e-9)
    no = check_gap(generate_no_instance(2, seed=0), P_GRID)
    assert set(no) == {"max_matching_size", "alpha", "table", "ok"}
    assert all(set(row) == {"p", "opt_welfare", "bound", "ok"} for row in no["table"])


def test_check_gap_fails_a_row_past_its_claim(monkeypatch):
    from pmean.oracle import OptResult

    real = hardness.p_opt_grid

    def inflated(inst, ps, dp):  # a sham oracle: the last exponent's optimum is raised
        *rest, last = real(inst, ps, dp)
        return [*rest, OptResult(last.p, last.alloc, last.welfare + 0.5)]

    monkeypatch.setattr(hardness, "p_opt_grid", inflated)
    for g in (generate_yes_instance(2, seed=0), generate_no_instance(3, seed=0)):
        gap = check_gap(g, P_GRID)
        assert not gap["ok"]
        assert [row["ok"] for row in gap["table"]] == [True] * (len(P_GRID) - 1) + [False]


def test_check_gap_refuses_an_engine_over_budget():
    with pytest.raises(BudgetExceeded, match="over budget 10"):
        check_gap(generate_yes_instance(3, seed=0), P_GRID, budget=10)


def test_no_generator_requires_two_agents():
    with pytest.raises(ValueError):
        generate_no_instance(1)


def test_reduced_demand_oracle_matches_brute_force():
    g = generate_yes_instance(3, seed=5)
    inst = reduce(g)
    v = inst.valuation
    subset, util = demand(v, [0.0] * 9)
    assert util == pytest.approx(value(v, subset))
    assert util <= 3.0 + 1e-12
    rng = np.random.default_rng(6)
    for _ in range(25):
        prices = [float(x) for x in rng.uniform(-1, 2, 9)]
        _, got = demand(v, prices)
        _, best = brute_demand(v, prices)
        assert got == pytest.approx(best, abs=1e-9)


@pytest.mark.parametrize("q, edges, error", [(0, ((0, 0, 0),), "need q >= 1"),
                                             (2, (), "need at least one hyperedge")])
def test_gadget_rejects_an_empty_block_or_edge_list(q, edges, error):
    with pytest.raises(ValueError, match=error):
        Gap3dmInstance(q, edges)
