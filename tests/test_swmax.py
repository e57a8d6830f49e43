import math

import numpy as np
import pytest

from pmean.errors import BudgetExceeded
from pmean.oracle import p_opt_grid
from pmean.swmax import (
    EXACT,
    GREEDY,
    Guarantee,
    SubsetDP,
    enumerate_labeled_partitions,
    sw_estimate,
)
from pmean.valuations import Additive, ExplicitTable, Instance, Xos, full_set, value

from helpers import random_valuation


def m1(inst, bundles):
    return math.fsum(value(inst.valuation, b) for b in bundles) / inst.n


def test_partition_counts():
    assert len(list(enumerate_labeled_partitions(2, 2))) == 4
    assert list(enumerate_labeled_partitions(0, 3)) == [(0, 0, 0)]
    eight = list(enumerate_labeled_partitions(3, 2))
    assert len(eight) == 8 and len(set(eight)) == 8


def test_partitions_are_partitions():
    for bundles in enumerate_labeled_partitions(4, 3):
        seen = 0
        for b in bundles:
            assert b & seen == 0
            seen |= b
        assert seen == full_set(4)


def test_budget_guard():
    # the default budget, 10^7, caps 3^15 labeled partitions and 3^15 + 2^15 DP cells
    with pytest.raises(BudgetExceeded):
        list(enumerate_labeled_partitions(15, 3))
    with pytest.raises(BudgetExceeded):
        sw_estimate(Instance(3, Additive((1.0,) * 15)), EXACT)
    # the budget counts DP cells: (n - 2) * 3^m + 2^m
    inst = Instance(4, Additive((1.0,) * 5))
    cells = 2 * 3**5 + 2**5
    assert len(p_opt_grid(inst, [1.0], SubsetDP(inst, cells))[0].alloc) == 4
    with pytest.raises(BudgetExceeded):
        SubsetDP(inst, cells - 1)


def test_single_agent_gets_everything():
    inst = Instance(1, Additive((2, 3)))
    est = sw_estimate(inst)
    assert est.alloc == (0b11,)
    assert est.f_value == pytest.approx(5.0)
    assert est.guarantee is Guarantee.EXACT


def test_exact_additive_example():
    # any split of an additive instance totals 13, so the average is 6.5
    est = sw_estimate(Instance(2, Additive((10, 1, 1, 1))))
    assert est.f_value == pytest.approx(6.5)


def test_exact_explicit_example():
    # 4 labeled splits of [0,1,1,1]: the split {0} | {1} attains average 1.0
    est = sw_estimate(Instance(2, ExplicitTable((0, 1, 1, 1))))
    assert est.f_value == pytest.approx(1.0)
    assert est.alloc == (0b01, 0b10)


@pytest.mark.parametrize("family", ("additive", "budget_additive", "xos", "explicit"))
@pytest.mark.parametrize("seed", range(4))
def test_exact_beats_every_enumerated_partition(family, seed):
    rng = np.random.default_rng(300 + seed)
    inst = Instance(2 + seed % 2, random_valuation(family, rng, 6))
    est = sw_estimate(inst)
    assert est.f_value == pytest.approx(m1(inst, est.alloc), abs=1e-9)
    for bundles in enumerate_labeled_partitions(inst.m, inst.n):
        assert m1(inst, bundles) <= est.f_value + 1e-9


def test_deterministic():
    inst = Instance(3, random_valuation("xos", np.random.default_rng(9), 6))
    a = sw_estimate(inst)
    b = sw_estimate(inst)
    assert a == b


def test_greedy_is_a_valid_heuristic():
    rng = np.random.default_rng(77)
    ratios = []
    for seed in range(10):
        inst = Instance(2, random_valuation("xos", np.random.default_rng(seed), 6))
        greedy = sw_estimate(inst, GREEDY)
        exact = sw_estimate(inst, EXACT)
        assert greedy.guarantee is Guarantee.HEURISTIC
        seen = 0
        for b in greedy.alloc:
            assert b & seen == 0
            seen |= b
        assert seen == full_set(inst.m)
        assert greedy.f_value == pytest.approx(m1(inst, greedy.alloc), abs=1e-9)
        assert greedy.f_value <= exact.f_value + 1e-9
        ratios.append(greedy.f_value / exact.f_value if exact.f_value else 1.0)
    # measured, never assumed: just record how the heuristic fared
    print(f"greedy/exact average-welfare ratios: min={min(ratios):.3f} mean={sum(ratios)/len(ratios):.3f}")


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        sw_estimate(Instance(1, Additive((1,))), "lp")


def test_enumeration_rejects_a_negative_good_count():
    with pytest.raises(ValueError, match="need n >= 1 and m >= 0"):
        next(enumerate_labeled_partitions(-1, 2))
