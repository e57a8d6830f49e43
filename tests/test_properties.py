"""Property tests: seeded hypothesis draws checked against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmean import swmax
from pmean.allocator import alg
from pmean.means import NEG_INF
from pmean.oracle import p_opt_brute
from pmean.valuations import (
    EPS,
    Additive,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    check_axioms,
    full_set,
    mask_of,
    value,
    value_table,
)

from helpers import axioms_by_scan, rescan_opts


def _valuation(draw, rows):
    """A valuation of every family from integer weight rows of m goods."""
    m = len(rows[0])
    family = draw(st.sampled_from(("additive", "budget_additive", "xos", "explicit")))
    if family == "additive":
        return Additive(rows[0])
    if family == "budget_additive":
        return BudgetAdditive(rows[0], float(draw(st.integers(0, 9 * m))))
    xos = Xos(tuple(rows))
    if family == "xos":
        return xos
    return ExplicitTable(tuple(value(xos, s) for s in range(1 << m)))


@st.composite
def small_instances(draw):
    """n in 2..4 agents and up to 6 goods (5 for n = 4) with integer weights
    0..9, so values tie and goods can be worthless, in every family."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 5 if n == 4 else 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 9).map(float)] * m), min_size=1, max_size=3))
    return Instance(n, _valuation(draw, rows))


@st.composite
def phase_two_instances(draw):
    """n in {2, 3} agents and 8..11 goods with integer weights 1..9, in every
    family: enough goods of like value that phase one often stops below the
    bar and phase two splits the rest among two or more agents."""
    n = draw(st.integers(2, 3))
    m = draw(st.integers(8, 11))
    rows = draw(st.lists(st.tuples(*[st.integers(1, 9).map(float)] * m), min_size=1, max_size=3))
    return Instance(n, _valuation(draw, rows))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    inst=small_instances(),
    block=st.integers(1, 100),
    p=st.sampled_from((NEG_INF, -200.0, -1.0, -1e-9, 0.0, 1e-9, 0.4, 1.0)),
)
def test_blocked_dp_optimum_equals_the_rescan(inst, block, p):
    saved, swmax._BLOCK = swmax._BLOCK, block
    try:
        opt = p_opt_brute(inst, p)
    finally:
        swmax._BLOCK = saved
    (expected,) = rescan_opts(inst, [p])
    assert opt.welfare == pytest.approx(expected, rel=1e-12, abs=1e-9)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(inst=phase_two_instances())
def test_alg_partitions_the_goods_and_phase_two_keeps_its_floor(inst):
    # A phase-two bundle closes only when its next good, worth under f/3.53,
    # would lift it to f/3, so by subadditivity it is worth over
    # f * (1/3 - 1/3.53), about 0.0501 * f; the literals check the constants.
    for backend in (swmax.EXACT, swmax.GREEDY):
        alloc, trace = alg(inst, backend)
        assert len(alloc) == inst.n
        covered = 0
        for b in alloc:
            assert b & covered == 0
            covered |= b
        assert covered == full_set(inst.m)
        if len(trace.f_values) > trace.k:  # phase one stopped below the bar
            floor = trace.f_values[-1] * (1 / 3 - 1 / 3.53) - EPS
            for b in trace.phase2_bundles[:-1]:
                assert value(inst.valuation, b) >= floor


@st.composite
def integer_tables(draw):
    """Integer-valued tables of 0..8 goods, so that no verdict hides inside
    EPS: a max-of-additive table, which holds every axiom, the same with the
    entry of one drawn set of goods raised or lowered, or entries drawn
    uniformly from 0..9."""
    m = draw(st.integers(0, 8))
    kind = draw(st.sampled_from(("valid", "raised", "lowered", "random")))
    if kind == "random":
        return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(0, 10, 1 << m)
    rows = draw(st.lists(st.tuples(*[st.integers(0, 9).map(float)] * m), min_size=1, max_size=3))
    table = value_table(Xos(tuple(rows)))
    entry = mask_of(draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)))
    step = draw(st.integers(1, 9))
    if kind == "raised":
        table[entry] += step
    elif kind == "lowered":
        table[entry] = max(0.0, table[entry] - step)
    return table


@settings(derandomize=True, max_examples=200, deadline=None)
@given(table=integer_tables())
def test_axiom_pass_agrees_with_the_pair_scan(table):
    # the pass checks disjoint splits only, which decide subadditivity on a
    # monotone table; on other tables only the overall verdict must agree
    report = check_axioms(ExplicitTable(tuple(map(float, table))))
    reference = axioms_by_scan(table)
    assert report.all_ok == reference.all_ok
    # on integer tables a chain of steps within EPS is a step within EPS
    assert (report.normalized, report.monotone) == (reference.normalized, reference.monotone)
    if reference.monotone:
        assert report == reference
