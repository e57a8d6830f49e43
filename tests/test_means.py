import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pmean.errors import EmptyInput
from pmean.means import NEG_INF, check_allocation, p_mean, p_mean_welfare, parse_exponent
from pmean.valuations import Additive, Instance

P_GRID = [NEG_INF, -30.0, -4.0, -1.0, -0.5, -1e-5, 0.0, 1e-5, 0.25, 0.5, 1.0]


def random_vector(rng):
    n = int(rng.integers(1, 9))
    return list(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)))


def test_all_equal_is_fixed_point():
    for p in P_GRID:
        assert p_mean([3, 3, 3], p) == pytest.approx(3.0, rel=1e-12)


def test_geometric_mean_limit():
    assert p_mean([2, 8], 0.0) == pytest.approx(4.0, rel=1e-12)


def test_negative_infinity_is_min():
    assert p_mean([1, 2, 4], NEG_INF) == 1.0


def test_zero_value_forces_zero_for_nonpositive_p():
    assert p_mean([0, 5], -1.0) == 0.0
    assert p_mean([0, 5], 0.0) == 0.0
    assert p_mean([0, 5], NEG_INF) == 0.0


def test_zero_values_contribute_nothing_for_positive_p():
    # ((1/3) * 5^0.5)^(1/0.5), computed directly
    expected = (5**0.5 / 3) ** 2
    assert p_mean([0, 0, 5], 0.5) == pytest.approx(expected, rel=1e-12)


def test_empty_input_raises():
    with pytest.raises(EmptyInput):
        p_mean([], 1.0)


def test_negative_values_rejected():
    with pytest.raises(ValueError):
        p_mean([1, -2], 1.0)
    # NaN and infinite values are rejected too, at every exponent's code path
    for bad in (math.nan, math.inf, -math.inf):
        for p in (NEG_INF, -1.0, 0.0, 1e-5, 0.5, 1.0):
            with pytest.raises(ValueError, match="values must be finite and nonnegative"):
                p_mean([bad, 1.0], p)


def test_exponent_above_one_rejected():
    with pytest.raises(ValueError):
        p_mean([1, 2], 2.0)


def test_monotone_in_exponent():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x = random_vector(rng)
        vals = [p_mean(x, p) for p in P_GRID]
        for lo, hi in zip(vals, vals[1:]):
            assert lo <= hi + 1e-9


# dense near p = 0, where dividing a log-sum by p would amplify its rounding,
# and across |p| = 1e-4, where swmax changes its scores
EXPONENT_LADDER = [
    NEG_INF, -50.0, -4.0, -1.0, -0.3, -1e-3, -1.5e-4, -1e-4, -9.99e-5, -1e-6, 0.0,
    1e-6, 9.99e-5, 1e-4, 1.5e-4, 1e-3, 0.3, 0.7, 1.0,
]


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    st.lists(
        st.one_of(st.just(0.0), st.floats(1e-9, 1e6), st.floats(-9.0, 6.0).map(lambda e: 10.0**e)),
        min_size=1,
        max_size=8,
    )
)
def test_p_mean_is_monotone_in_the_exponent(x):
    # the centred form's inversions stay near 1e-15; a log-sum divided by p
    # near |p| = 1e-4 reached several 1e-12 and fails this bound
    means = [p_mean(x, p) for p in EXPONENT_LADDER]
    for i, lower in enumerate(means):
        assert all(lower <= higher * (1 + 1e-13) for higher in means[i + 1 :])


def test_near_equal_values_keep_their_order_at_small_exponents():
    # a log-sum-exp divided by p once put these two means in reverse order, by
    # 6.7e-12 relative, and 3.3e-12 away from the geometric mean
    x = [1.0696104902532623e-06, 1.0696104912343047e-06, 1.0696104885317146e-06]
    below, at, above = (p_mean(x, p) for p in (-1e-4, 0.0, 1e-4))
    assert below <= above
    assert below == pytest.approx(at, rel=1e-14, abs=0)
    assert above == pytest.approx(at, rel=1e-14, abs=0)


def test_scale_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = random_vector(rng)
        c = float(np.exp(rng.uniform(-3, 3)))
        for p in P_GRID:
            assert p_mean([c * xi for xi in x], p) == pytest.approx(
                c * p_mean(x, p), rel=1e-9
            )


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(50):
        x = random_vector(rng)
        shuffled = list(x)
        rng.shuffle(shuffled)
        for p in P_GRID:
            assert p_mean(shuffled, p) == pytest.approx(p_mean(x, p), rel=1e-12)


def test_continuity_at_zero_exponent():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x = random_vector(rng)
        m0 = p_mean(x, 0.0)
        assert abs(p_mean(x, 1e-6) - m0) <= 1e-4 * m0


def test_small_exponent_band_agrees_with_exact_two_point_form():
    # closed form for two values: M_p = ((a^p + b^p)/2)^(1/p), via mpmath-free
    # high-precision route: evaluate with exact logs at p where the raw formula
    # would cancel
    a, b = 2.0, 3.0
    p = 1e-6
    got = p_mean([a, b], p)
    # second-order expansion around 0: exact to ~1e-13 here
    la, lb = math.log(a), math.log(b)
    mean_l = (la + lb) / 2
    var_l = ((la - mean_l) ** 2 + (lb - mean_l) ** 2) / 2
    expected = math.exp(mean_l + p * var_l / 2)
    assert got == pytest.approx(expected, rel=1e-10)


def test_parse_exponent_tokens():
    assert parse_exponent("-inf") == NEG_INF
    assert parse_exponent("0") == 0.0
    assert parse_exponent("0.4") == 0.4
    assert parse_exponent(" -1 ") == -1.0
    for bad in ("2", "inf", "nan", "egal"):
        with pytest.raises(ValueError):
            parse_exponent(bad)


def test_welfare_single_agent_is_total_value():
    inst = Instance(1, Additive((4, 6)))
    for p in P_GRID:
        assert p_mean_welfare(inst, (0b11,), p) == pytest.approx(10.0)


def test_welfare_examples():
    inst = Instance(2, Additive((10, 1, 1, 1)))
    alloc = (0b0001, 0b1110)
    assert p_mean_welfare(inst, alloc, 1.0) == pytest.approx(6.5)
    assert p_mean_welfare(inst, alloc, NEG_INF) == pytest.approx(3.0)


def test_check_allocation_rejects_bad_partitions():
    with pytest.raises(ValueError, match="^bundles overlap"):
        check_allocation((0b01, 0b01), 2, 2)
    with pytest.raises(ValueError, match="^bundles do not cover all goods$"):
        check_allocation((0b01,), 2, 1)
    with pytest.raises(ValueError, match="^allocation needs at least one bundle$"):
        check_allocation((), 0, 0)
    with pytest.raises(ValueError, match="^expected 3 bundles, got 2$"):
        check_allocation((0b01, 0b10), 2, 3)
    check_allocation((0b01, 0b10, 0), 2, 3)  # empty bundles are fine


def test_welfare_rejects_a_bundle_outside_the_goods_and_a_wrong_bundle_count():
    inst = Instance(2, Additive((4, 6)))
    with pytest.raises(ValueError, match="has bits outside"):
        p_mean_welfare(inst, (0b01, 0b110), 1.0)
    with pytest.raises(ValueError, match="expected 2 bundles, got 3"):
        p_mean_welfare(inst, (0b01, 0b10, 0), 1.0)
