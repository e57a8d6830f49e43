"""Numeric verification of the inequalities that make the constants work.

The solver's threshold constants are tied together by the sign behaviour of

    f(p) = a^p + b^p - 1 - c^p,   a = 1/2 - 1/40,  b = 1/2,  c = 2/11.33

with 40, 11.33 and 7.06 read from allocator.CONSTANTS (ALG here): f vanishes at
0, stays nonpositive for negative p, nonnegative up to its unique positive root
r in (0.4, 0.41), and the upper exponent range [0.4, 1] is covered by the
doubling inequalities 2 * 7.06^p <= 40^p and 40^p > 2.  These facts are proved
analytically; this module checks them on dense grids with documented steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .allocator import CONSTANTS as ALG
from .errors import BracketInvalid


@dataclass(frozen=True)
class IneqConstants:
    a: float = 0.5 - 1.0 / ALG.approx_factor
    b: float = 0.5
    c: float = 2.0 / ALG.high_bundle_factor

    def __post_init__(self):
        if not 0.0 < self.c < self.a < self.b < 1.0:
            raise ValueError("constants must satisfy 0 < c < a < b < 1")


CONSTANTS = IneqConstants()

_A, _B, _C = CONSTANTS.a, CONSTANTS.b, CONSTANTS.c

SIGN_TOL = 1e-12


def f(p: float) -> float:
    """a^p + b^p - 1 - c^p in double precision."""
    return _A**p + _B**p - 1.0 - _C**p


def _f_grid(grid: np.ndarray) -> np.ndarray:
    return _A**grid + _B**grid - 1.0 - _C**grid


def check_sign_ranges(
    neg_grid_lo: float = -50.0, neg_step: float = 0.01, pos_step: float = 0.001
) -> dict:
    """Grid-check f <= 0 on [neg_grid_lo, 0) and f >= 0 on (0, 0.4].

    Violations beyond SIGN_TOL are collected rather than raised; the report
    carries the extreme values observed on each grid.
    """
    if neg_step <= 0 or pos_step <= 0:
        raise ValueError("steps must be positive")
    neg_count = int(round(-neg_grid_lo / neg_step))
    neg = neg_grid_lo + neg_step * np.arange(neg_count)
    neg = neg[neg < 0.0]
    pos = pos_step * np.arange(1, int(round(0.4 / pos_step)) + 1)
    pos = pos[pos <= 0.4 + 1e-12]

    f_neg = _f_grid(neg)
    f_pos = _f_grid(pos)
    neg_ok = bool(np.all(f_neg <= SIGN_TOL))
    pos_ok = bool(np.all(f_pos >= -SIGN_TOL))
    worst = max(float(np.max(f_neg, initial=0.0)), float(np.max(-f_pos, initial=0.0)), 0.0)
    return {
        "negative_range": {
            "lo": float(neg_grid_lo),
            "step": neg_step,
            "points": int(neg.size),
            "ok": neg_ok,
            "max_f": float(np.max(f_neg)),
        },
        "positive_range": {
            "hi": 0.4,
            "step": pos_step,
            "points": int(pos.size),
            "ok": pos_ok,
            "min_f": float(np.min(f_pos)),
        },
        "ok": neg_ok and pos_ok,
        "worst_violation": worst,
    }


def locate_root(tol: float = 1e-14, max_iter: int = 200) -> float:
    """Bisect the sign change of f inside [0.4, 0.41] down to |f| < tol.

    Deterministic: pure float bisection, so the result is bit-for-bit stable.
    """
    lo, hi = 0.4, 0.41
    if not f(lo) > 0.0:
        raise BracketInvalid("f(0.4) must be positive")
    if not f(hi) < 0.0:
        raise BracketInvalid("f(0.41) must be negative")
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if abs(fm) < tol:
            return mid
        if fm > 0.0:
            lo = mid
        else:
            hi = mid
    raise BracketInvalid(f"bisection did not reach |f| < {tol} in {max_iter} steps")


def check_upper_range_constants(
    step: float = 0.001, pair_samples: int = 64, seed: int = 0
) -> dict:
    """Grid-check the exponent range [0.4, 1]: 2 * 7.06^p <= 40^p and 40^p > 2,
    plus spot checks of (x + y)^p <= x^p + y^p on sampled nonnegative pairs."""
    if step <= 0:
        raise ValueError("step must be positive")
    grid = 0.4 + step * np.arange(int(round(0.6 / step)) + 1)
    grid = grid[grid <= 1.0 + 1e-12]

    doubling_ok = bool(np.all(2.0 * ALG.combined_divisor**grid <= ALG.approx_factor**grid))
    above_two_ok = bool(np.all(ALG.approx_factor**grid > 2.0))

    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 10.0, pair_samples)
    ys = rng.uniform(0.0, 10.0, pair_samples)
    power_ok = True
    for p in grid:
        if not np.all((xs + ys) ** p <= xs**p + ys**p + SIGN_TOL):
            power_ok = False
            break

    margin = float(np.min(ALG.approx_factor**grid - 2.0 * ALG.combined_divisor**grid))
    return {
        "grid": {"lo": 0.4, "hi": 1.0, "step": step, "points": int(grid.size)},
        "doubling_ok": doubling_ok,
        "above_two_ok": above_two_ok,
        "power_subadditive_ok": power_ok,
        "min_margin": margin,
        "ok": doubling_ok and above_two_ok and power_ok,
    }
