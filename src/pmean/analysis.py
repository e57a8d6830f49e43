"""Numeric verification of the inequalities that make the constants work.

The solver's threshold constants are tied together by the sign behaviour of

    f(p) = a^p + b^p - 1 - c^p,   a = 1/2 - 1/40,  b = 1/2,  c = 2/11.33

with 40, 11.33 and 7.06 = 2 * 3.53 read from allocator's module constants: f
vanishes at 0, stays nonpositive for negative p, nonnegative up to its unique
positive root r in (0.4, 0.41), and the upper exponent range [0.4, 1] is
covered by the doubling inequalities 2 * 7.06^p <= 40^p and 40^p > 2.  These
facts are proved analytically; this module checks them on dense grids whose
steps are fixed below, except the negative grid's step, which check-ineq's
--grid-step sets down to NEG_STEP_MIN.
"""

from __future__ import annotations

import numpy as np

from .allocator import APPROX_FACTOR, COMBINED_DIVISOR, HIGH_BUNDLE_FACTOR, SPLIT_EXPONENT
from .errors import BracketInvalid

A = 0.5 - 1.0 / APPROX_FACTOR
B = 0.5
C = 2.0 / HIGH_BUNDLE_FACTOR

SIGN_TOL = 1e-12
NEG_GRID_LO = -50.0  # the negative grid covers [-50, 0)
NEG_STEP_MIN = 1e-4  # its finest step: 500,000 points
POS_STEP = 0.001  # the grid on (0, 0.4]
UPPER_STEP = 0.001  # the grid on [0.4, 1]
ROOT_BRACKET_HI = 0.41  # f's positive root lies in (0.4, 0.41)
PAIR_SAMPLES = 64  # (x, y) pairs spot-checking (x + y)^p <= x^p + y^p, seed 0
ROOT_TOL = 1e-14
ROOT_MAX_ITER = 200


def f(p: float | np.ndarray) -> float | np.ndarray:
    """a^p + b^p - 1 - c^p in double precision, elementwise on an array."""
    return A**p + B**p - 1.0 - C**p


def neg_step_fault(step: float) -> str | None:
    """Why step cannot be the negative grid's step, or None if it can: it must
    be finite and in [NEG_STEP_MIN, 50]."""
    if not 0.0 < step <= -NEG_GRID_LO:  # nan fails this test too
        return f"must be finite and in (0, {-NEG_GRID_LO:g}], got {step}"
    if step < NEG_STEP_MIN:
        points = round(-NEG_GRID_LO / NEG_STEP_MIN)
        return f"must be at least {NEG_STEP_MIN:g} ({points:,} points), got {step}"
    return None


def check_sign_ranges(neg_step: float = 0.01) -> dict:
    """Grid-check f <= 0 on [-50, 0) at neg_step and f >= 0 on (0, 0.4] at
    POS_STEP.

    Violations beyond SIGN_TOL are collected rather than raised; the report
    carries the extreme values observed on each grid.
    """
    fault = neg_step_fault(neg_step)
    if fault:
        raise ValueError(f"neg_step {fault}")
    neg = NEG_GRID_LO + neg_step * np.arange(int(round(-NEG_GRID_LO / neg_step)))
    neg = neg[neg < 0.0]
    pos = POS_STEP * np.arange(1, int(round(SPLIT_EXPONENT / POS_STEP)) + 1)

    f_neg = f(neg)
    f_pos = f(pos)
    neg_ok = bool(np.all(f_neg <= SIGN_TOL))
    pos_ok = bool(np.all(f_pos >= -SIGN_TOL))
    worst = max(float(np.max(f_neg, initial=0.0)), float(np.max(-f_pos, initial=0.0)), 0.0)
    return {
        "negative_range": {
            "lo": NEG_GRID_LO,
            "step": neg_step,
            "points": int(neg.size),
            "ok": neg_ok,
            "max_f": float(np.max(f_neg)),
        },
        "positive_range": {
            "hi": SPLIT_EXPONENT,
            "step": POS_STEP,
            "points": int(pos.size),
            "ok": pos_ok,
            "min_f": float(np.min(f_pos)),
        },
        "ok": neg_ok and pos_ok,
        "worst_violation": worst,
    }


def locate_root() -> float:
    """Bisect the sign change of f inside [0.4, 0.41] down to |f| < ROOT_TOL.

    Deterministic: pure float bisection, so the result is bit-for-bit stable.
    """
    lo, hi = SPLIT_EXPONENT, ROOT_BRACKET_HI
    if not f(lo) > 0.0:
        raise BracketInvalid(f"f({lo}) must be positive")
    if not f(hi) < 0.0:
        raise BracketInvalid(f"f({hi}) must be negative")
    for _ in range(ROOT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < ROOT_TOL:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    raise BracketInvalid(f"bisection did not reach |f| < {ROOT_TOL} in {ROOT_MAX_ITER} steps")


def check_upper_range_constants() -> dict:
    """Grid-check the exponent range [0.4, 1] at UPPER_STEP: 2 * 7.06^p <= 40^p
    and 40^p > 2, plus spot checks of (x + y)^p <= x^p + y^p on PAIR_SAMPLES
    seeded nonnegative pairs."""
    steps = int(round((1.0 - SPLIT_EXPONENT) / UPPER_STEP))
    grid = SPLIT_EXPONENT + UPPER_STEP * np.arange(steps + 1)

    doubling_ok = bool(np.all(2.0 * COMBINED_DIVISOR**grid <= APPROX_FACTOR**grid))
    above_two_ok = bool(np.all(APPROX_FACTOR**grid > 2.0))

    rng = np.random.default_rng(0)
    xs = rng.uniform(0.0, 10.0, PAIR_SAMPLES)
    ys = rng.uniform(0.0, 10.0, PAIR_SAMPLES)
    power_ok = all(np.all((xs + ys) ** p <= xs**p + ys**p + SIGN_TOL) for p in grid)

    margin = float(np.min(APPROX_FACTOR**grid - 2.0 * COMBINED_DIVISOR**grid))
    return {
        "grid": {"lo": SPLIT_EXPONENT, "hi": 1.0, "step": UPPER_STEP, "points": int(grid.size)},
        "doubling_ok": doubling_ok,
        "above_two_ok": above_two_ok,
        "power_subadditive_ok": power_ok,
        "min_margin": margin,
        "ok": doubling_ok and above_two_ok and power_ok,
    }
