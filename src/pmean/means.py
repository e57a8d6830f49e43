"""Generalized means of bundle values for exponents p in (-inf, 1].

The exponent is an ordinary float; float("-inf") selects the minimum, 0.0 the
geometric mean, 1.0 the arithmetic mean.  Exponents above 1 are rejected.

Zero handling: a zero value forces the mean to 0 for every p <= 0 (the limit of
the defining formula); for p > 0 zero entries simply contribute nothing to the
power sum.

Numerical path: every finite p other than 0 and 1 takes one centred form in
log space, exp(c + log1p(sum(expm1(p * (l - c))) / n) / p) over the logs l,
with c the largest log for p > 0 and the smallest for p < 0.  Every term is
then in [-1, 0], so nothing overflows at large |p|, and expm1/log1p keep the
digits that the raw formula cancels near p = 0, so the mean is continuous and
ordered in p across small exponents.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import EmptyInput
from .valuations import Instance, full_set, value

NEG_INF = float("-inf")

SMALL_EXPONENT_BAND = 1e-4  # swmax scores |p| below it by expm1 around p = 0


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

    logs = [math.log(x) if x > 0.0 else -math.inf for x in vals]
    c = max(logs) if p > 0.0 else min(logs)
    if c == -math.inf:
        return 0.0  # p > 0, all values zero
    # every p * (l - c) <= 0, so no term overflows, and a zero adds expm1(-inf) = -1
    spread = math.fsum(math.expm1(p * (l - c)) for l in logs)
    return math.exp(c + math.log1p(spread / n) / p)


def check_allocation(bundles: Sequence[int], m: int, n: int) -> None:
    """Raise ValueError unless bundles are n disjoint bitmasks covering all m goods."""
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
    if len(bundles) != n:
        raise ValueError(f"expected {n} bundles, got {len(bundles)}")


def bundle_values(inst: Instance, bundles: Sequence[int]) -> list[float]:
    return [value(inst.valuation, b) for b in bundles]


def p_mean_welfare(inst: Instance, bundles: Sequence[int], p: float) -> float:
    """p-mean of the bundle values of a complete allocation."""
    check_allocation(bundles, inst.m, inst.n)
    return p_mean(bundle_values(inst, bundles), p)
