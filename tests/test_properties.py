"""Property tests: seeded hypothesis draws checked against independent oracles."""

import pytest
from hypothesis import given, settings, strategies as st

from pmean import swmax
from pmean.means import NEG_INF
from pmean.oracle import p_opt_brute
from pmean.valuations import Additive, BudgetAdditive, ExplicitTable, Instance, Xos, value

from helpers import rescan_opts


@st.composite
def small_instances(draw):
    """n in 2..4 agents and up to 6 goods (5 for n = 4) with integer weights
    0..9, so values tie and goods can be worthless, in every family."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(0, 5 if n == 4 else 6))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 9).map(float)] * m), min_size=1, max_size=3))
    family = draw(st.sampled_from(("additive", "budget_additive", "xos", "explicit")))
    if family == "additive":
        return Instance(n, Additive(rows[0]))
    if family == "budget_additive":
        return Instance(n, BudgetAdditive(rows[0], float(draw(st.integers(0, 9 * m)))))
    xos = Xos(tuple(rows))
    if family == "xos":
        return Instance(n, xos)
    return Instance(n, ExplicitTable(tuple(value(xos, s) for s in range(1 << m))))


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
