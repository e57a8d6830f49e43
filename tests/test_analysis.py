import numpy as np
import pytest

from pmean import analysis
from pmean.analysis import A, B, C, certify, f, locate_root


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


def test_certificate_covers_every_p_up_to_one():
    report = certify()
    assert report["ok"]
    parts = [report[k] for k in ("band", "negative_range", "positive_range", "upper_range")]
    assert all(part["ok"] for part in parts)
    # the parts tile (-inf, 1] with no gap
    assert report["tail"]["ok"] and report["tail"]["hi"] == report["negative_range"]["lo"]
    assert report["negative_range"]["hi"] == report["band"]["lo"]
    assert report["band"]["hi"] == report["positive_range"]["lo"]
    assert report["positive_range"]["hi"] == report["upper_range"]["lo"] == 0.4
    assert report["upper_range"]["hi"] == 1.0
    for name in ("negative_range", "positive_range"):
        assert report[name]["pieces"] > 0 and report[name]["failed_piece"] is None
        assert report[name]["min_margin"] > 0.0 and report[name]["min_rel_margin"] > 1e-12
    assert report["tail"]["ratio_sum"] < 1e-20
    assert report["band"]["min_slope"] > 0.0
    assert 0.399 < report["upper_range"]["doubling_from"] < 0.4
    assert report["upper_range"]["above_two_from"] < 0.4
    assert report["root"] == locate_root()


@pytest.mark.parametrize("sign", [-1, 1])
def test_piece_bound_is_below_sign_f_inside_the_piece(sign):
    # the lemma the bisection stands on, on seeded pieces from [-60, 0.4] on
    rng = np.random.default_rng(sign + 2)
    for lo, width in zip(rng.uniform(-60.0, 0.4, 200), rng.uniform(0.0, 2.0, 200)):
        bound, magnitude = analysis._piece_bound(lo, lo + width, sign)
        inside = np.linspace(lo, lo + width, 33)
        assert np.all(sign * f(inside) >= bound - 1e-12 * magnitude)


def test_f_is_negative_on_the_tail_below_the_grid():
    # direct evaluation overflows below about -409, where c^p passes 1.8e308;
    # that is why the certificate uses a closed form there
    grid = -400.0 + 0.01 * np.arange(35_000)
    values = f(grid[grid < -50.0])
    assert np.all(np.isfinite(values)) and np.all(values <= 0.0)


def test_root_in_bracket_and_tiny_residual():
    r = locate_root()
    assert 0.4 < r < 0.41
    assert abs(f(r)) < 1e-12
    assert locate_root() == r  # deterministic bisection


def test_upper_range_constants():
    report = certify()["upper_range"]
    assert report["ok"] and report["doubling_ok"] and report["above_two_ok"]
    assert report["min_margin"] > 0
    # endpoints by hand
    assert 2 * 7.06**0.4 <= 40**0.4
    assert 2 * 7.06 <= 40
    # (x + y)^p <= x^p + y^p on [0, 1], a theorem (t^p is concave, 0^p = 0),
    # spot-checked on seeded pairs
    rng = np.random.default_rng(0)
    xs, ys = rng.uniform(0.0, 10.0, 64), rng.uniform(0.0, 10.0, 64)
    for p in 0.4 + 0.001 * np.arange(601):
        assert np.all((xs + ys) ** p <= xs**p + ys**p + 1e-12)


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
