import numpy as np
import pytest

from pmean.analysis import (
    A,
    B,
    C,
    check_sign_ranges,
    check_upper_range_constants,
    f,
    locate_root,
)


def test_constants_ordering():
    assert 0 < C < A < B < 1
    assert A == 0.5 - 1.0 / 40.0
    assert C == 2.0 / 11.33


def test_f_vanishes_at_zero():
    assert f(0.0) == 0.0


def test_f_signs_around_the_root():
    assert f(0.4) > 0.0
    assert f(0.41) < 0.0


def test_f_negative_at_minus_one():
    # direct evaluation: 1/0.475 + 2 - 1 - 11.33/2
    assert f(-1.0) == pytest.approx(1 / 0.475 + 2 - 1 - 11.33 / 2)
    assert f(-1.0) < 0.0


def test_sign_ranges_default_grids():
    report = check_sign_ranges()
    assert report["ok"]
    assert report["negative_range"]["ok"] and report["negative_range"]["points"] == 5000
    assert report["positive_range"]["ok"] and report["positive_range"]["points"] == 400
    assert report["worst_violation"] == 0.0


def test_root_in_bracket_and_tiny_residual():
    r = locate_root()
    assert 0.4 < r < 0.41
    assert abs(f(r)) < 1e-12
    assert locate_root() == r  # deterministic bisection


def test_upper_range_constants():
    report = check_upper_range_constants()
    assert report["ok"]
    assert report["min_margin"] > 0
    # endpoints by hand
    assert 2 * 7.06**0.4 <= 40**0.4
    assert 2 * 7.06 <= 40
    assert 2**0.5 <= 2  # (x + y)^p <= x^p + y^p at x = y = 1, p = 1/2


def test_every_extremum_is_a_maximum_on_the_grid():
    # finite-difference slope over [-5, 1]: its sign may flip from + to -
    # exactly once and never back
    grid = np.arange(-5.0, 1.0, 1e-3)
    vals = np.array([f(p) for p in grid])
    slopes = np.diff(vals) / 1e-3
    signs = np.sign(slopes[np.abs(slopes) > 1e-8])
    flips = np.nonzero(np.diff(signs))[0]
    assert len(flips) == 1
    assert signs[flips[0]] > 0 and signs[flips[0] + 1] < 0


def test_f_changes_sign_once_on_the_positive_grid_and_never_below():
    neg = -50.0 + 0.01 * np.arange(5000)
    assert np.all(np.array([f(p) for p in neg[neg < 0]]) <= 1e-12)
    pos = 0.001 * np.arange(1, 1001)  # (0, 1]
    vals = np.array([f(p) for p in pos])
    signs = np.sign(vals[np.abs(vals) > 1e-15])
    assert np.count_nonzero(np.diff(signs)) == 1
