"""Interval certificate of the inequalities that make the constants work.

With a = 1/2 - 1/40, b = 1/2 and c = 2/11.33 (40, 11.33 and 7.06 = 2 * 3.53
are allocator's module constants), f(p) = a^p + b^p - 1 - c^p must be negative
for p < 0 and positive on (0, 0.4], and 2 * 7.06^p <= 40^p and 40^p > 2 must
hold on [0.4, 1].  certify() proves this on all of p <= 1.  As 0 < c < a < b
< 1, the ends of a piece bound f on it, and [TAIL, -BAND] and [BAND, 0.4] are
bisected until every bound has the wanted sign.  Below TAIL,
f = c^p ((a/c)^p + (b/c)^p - 1) - 1.  On [-BAND, BAND], f(0) = 0 and f' > 0.
On [0.4, 1], both inequalities are linear in p after taking logs.  A margin
must exceed REL_SLACK times the sum of its terms' magnitudes: rounding room
that stays relative where c^p reaches 10^45.
"""

from __future__ import annotations

import math

from .allocator import APPROX_FACTOR, COMBINED_DIVISOR, HIGH_BUNDLE_FACTOR, SPLIT_EXPONENT
from .errors import BracketInvalid

A = 0.5 - 1.0 / APPROX_FACTOR
B = 0.5
C = 2.0 / HIGH_BUNDLE_FACTOR

TAIL = -60.0  # below it f's sign follows from the closed form above
BAND = 0.05  # on [-BAND, BAND] it follows from f(0) = 0 and f' > 0
REL_SLACK = 1e-12
MIN_WIDTH = 1e-9  # bisection gives up on a piece this narrow
ROOT_BRACKET_HI = 0.41  # f's positive root lies in (0.4, 0.41)
ROOT_TOL = 1e-14
ROOT_MAX_ITER = 200


def f(p: float) -> float:
    """a^p + b^p - 1 - c^p in double precision, elementwise on a NumPy array."""
    return A**p + B**p - 1.0 - C**p


def _certified(margin: float, magnitude: float) -> bool:
    return margin > REL_SLACK * magnitude


def _piece_bound(lo: float, hi: float, sign: int) -> tuple[float, float]:
    """A lower bound of sign * f on [lo, hi] and the sum of its terms'
    magnitudes: a^p + b^p is extreme at one end and c^p at the other."""
    near, far = (hi, lo) if sign > 0 else (lo, hi)
    ab, cp = A**near + B**near, C**far
    return sign * (ab - 1.0 - cp), ab + 1.0 + cp


def _bisect(lo: float, hi: float, sign: int) -> dict:
    """Certify sign * f > 0 on [lo, hi], piece by piece from the left; stop at
    the first piece that is still uncertified at MIN_WIDTH and name it."""
    margins, failed, stack = [], None, [(lo, hi)]  # (margin, relative margin) per piece
    while stack and not failed:
        left, right = stack.pop()
        margin, magnitude = _piece_bound(left, right, sign)
        if _certified(margin, magnitude):
            margins.append((margin, margin / magnitude))
        elif right - left > MIN_WIDTH:
            mid = 0.5 * (left + right)
            stack += [(mid, right), (left, mid)]
        else:
            failed = [left, right]
    return {
        "lo": lo, "hi": hi, "pieces": len(margins),
        "min_margin": min((m for m, _ in margins), default=None),
        "min_rel_margin": min((r for _, r in margins), default=None),
        "failed_piece": failed, "ok": failed is None,
    }


def _tail() -> dict:
    ratio_sum = (A / C) ** TAIL + (B / C) ** TAIL
    return {"hi": TAIL, "ratio_sum": ratio_sum, "ok": _certified(1.0 - ratio_sum, 1.0 + ratio_sum)}


def _band() -> dict:
    # a^p ln a and b^p ln b rise with p, -c^p ln c falls
    terms = (A**-BAND * math.log(A), B**-BAND * math.log(B), -(C**BAND) * math.log(C))
    slope = math.fsum(terms)
    ok = f(0.0) == 0.0 and _certified(slope, sum(map(abs, terms)))
    return {"lo": -BAND, "hi": BAND, "min_slope": slope, "ok": ok}


def _upper_range() -> dict:
    doubling_from = math.log(2.0) / math.log(APPROX_FACTOR / COMBINED_DIVISOR)
    above_two_from = math.log(2.0) / math.log(APPROX_FACTOR)
    doubling_ok = _certified(SPLIT_EXPONENT - doubling_from, SPLIT_EXPONENT)
    above_two_ok = _certified(SPLIT_EXPONENT - above_two_from, SPLIT_EXPONENT)
    return {
        "lo": SPLIT_EXPONENT,
        "hi": 1.0,
        "doubling_from": doubling_from,
        "above_two_from": above_two_from,
        "min_margin": SPLIT_EXPONENT - max(doubling_from, above_two_from),
        "doubling_ok": doubling_ok,
        "above_two_ok": above_two_ok,
        "ok": doubling_ok and above_two_ok,
    }


def certify() -> dict:
    """Prove f < 0 on (-inf, 0), f > 0 on (0, 0.4] and both doubling
    inequalities on [0.4, 1], and locate f's root in (0.4, 0.41) once
    that holds.

    A part that cannot be proved makes the report's ok False; nothing raises.
    """
    parts = {
        "tail": _tail(),
        "band": _band(),
        "negative_range": _bisect(TAIL, -BAND, -1),
        "positive_range": _bisect(BAND, SPLIT_EXPONENT, 1),
        "upper_range": _upper_range(),
    }
    ok = 0.0 < C < A < B < 1.0 and all(part["ok"] for part in parts.values())
    return {
        "constants": {"a": A, "b": B, "c": C},
        **parts,
        "root": locate_root() if ok else None,
        "ok": ok,
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
