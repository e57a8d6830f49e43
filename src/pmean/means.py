"""Generalized means of bundle values for exponents p in (-inf, 1].

The exponent is an ordinary float; float("-inf") selects the minimum, 0.0 the
geometric mean, 1.0 the arithmetic mean.  Exponents above 1 are rejected.

Zero handling: a zero value forces the mean to 0 for every p <= 0 (the limit of
the defining formula); for p > 0 zero entries simply contribute nothing to the
power sum.

Numerical path: means are evaluated in log space.  For 0 < |p| < 1e-4 the power
sum is expanded around the mean log via expm1/log1p, because the raw formula
cancels catastrophically near p = 0; outside that band a max-shifted
log-sum-exp is used, which also avoids overflow for large negative p.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import EmptyInput
from .valuations import Instance, full_set, value

NEG_INF = float("-inf")

SMALL_EXPONENT_BAND = 1e-4


def parse_exponent(text: str) -> float:
    """Parse an exponent token: a decimal literal <= 1, or "-inf"."""
    token = text.strip()
    if token == "-inf":
        return NEG_INF
    try:
        p = float(token)
    except ValueError:
        raise ValueError(f"bad exponent token: {text!r}") from None
    if math.isnan(p) or math.isinf(p):
        raise ValueError(f"bad exponent token: {text!r} (only '-inf' is non-numeric)")
    if p > 1.0:
        raise ValueError(f"exponent must be <= 1, got {p}")
    return p


def p_mean(values: Sequence[float], p: float) -> float:
    """Generalized mean of finite nonnegative values with exponent p <= 1."""
    vals = [float(x) for x in values]
    if not vals:
        raise EmptyInput("p_mean of an empty list")
    if math.isnan(p) or p > 1.0:
        raise ValueError(f"exponent must be <= 1 (or -inf), got {p}")
    if any(not 0.0 <= x < math.inf for x in vals):  # NaN fails both comparisons
        raise ValueError("values must be finite and nonnegative")

    if p == NEG_INF:
        return min(vals)
    n = len(vals)
    if p == 1.0:
        return math.fsum(vals) / n

    has_zero = any(x == 0.0 for x in vals)
    if p == 0.0:
        if has_zero:
            return 0.0
        return math.exp(math.fsum(math.log(x) for x in vals) / n)
    if p < 0.0 and has_zero:
        return 0.0

    positives = [x for x in vals if x > 0.0]
    if not positives:
        return 0.0  # p > 0, all values zero
    logs = [math.log(x) for x in positives]

    if abs(p) < SMALL_EXPONENT_BAND and not has_zero:
        center = math.fsum(logs) / n
        spread = math.fsum(math.expm1(p * (l - center)) for l in logs)
        return math.exp(center + math.log1p(spread / n) / p)

    scaled = [p * l for l in logs]
    shift = max(scaled)
    total = math.fsum(math.exp(s - shift) for s in scaled)
    return math.exp((shift + math.log(total) - math.log(n)) / p)


def check_allocation(bundles: Sequence[int], m: int) -> None:
    """Raise ValueError unless bundles are disjoint bitmasks covering all m goods."""
    if not bundles:
        raise ValueError("allocation needs at least one bundle")
    seen = 0
    for b in bundles:
        if b < 0 or b >> m:
            raise ValueError(f"bundle {b:#x} has bits outside 0..{m - 1}")
        if b & seen:
            raise ValueError("bundles overlap")
        seen |= b
    if seen != full_set(m):
        raise ValueError("bundles do not cover all goods")


def bundle_values(inst: Instance, bundles: Sequence[int]) -> list[float]:
    return [value(inst.valuation, b) for b in bundles]


def p_mean_welfare(inst: Instance, bundles: Sequence[int], p: float) -> float:
    """p-mean of the bundle values of a complete allocation."""
    check_allocation(bundles, inst.m)
    if len(bundles) != inst.n:
        raise ValueError(f"expected {inst.n} bundles, got {len(bundles)}")
    return p_mean(bundle_values(inst, bundles), p)
