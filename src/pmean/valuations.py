"""Shared valuation function over indivisible goods: families, value and demand
queries, the axiom check on the subset DP's splits, and instance files.

Subsets of goods are bitmasks over indices 0..m-1 (bit j set <=> good j in the
subset).  Exact, enumerating backends require m <= 63 and declare tighter caps
where they tabulate all 2^m subsets.  All welfare and threshold comparisons in
this package use the absolute tolerance EPS = 1e-9.

Valuations are immutable after construction; every operation here is a pure
function and safe to call concurrently.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterator, Sequence, Union

import numpy as np

from .errors import SizeLimitExceeded

EPS = 1e-9

AXIOM_SCAN_MAX_GOODS = 12
TABLE_MAX_GOODS = 24
EXPLICIT_MAX_GOODS = 16
BITMASK_MAX_GOODS = 63
MAX_AGENTS = 1 << 16  # every consumer sizes per-agent arrays, so a file cannot ask for 2^40


def full_set(m: int) -> int:
    """Bitmask of all m goods."""
    return (1 << m) - 1


def iter_goods(subset: int) -> Iterator[int]:
    """Yield the good indices present in a bitmask, ascending."""
    while subset:
        low = subset & -subset
        yield low.bit_length() - 1
        subset ^= low


def goods_of(subset: int) -> list[int]:
    return list(iter_goods(subset))


def mask_of(goods: Sequence[int]) -> int:
    mask = 0
    for j in goods:
        mask |= 1 << j
    return mask


def _check_subset(subset: int, m: int) -> None:
    if subset < 0 or subset >> m:
        raise ValueError(f"subset {subset:#x} has bits outside 0..{m - 1}")


def _check_weights(weights: Sequence[float], field: str = "weights") -> tuple[float, ...]:
    fault = f"{field} must be finite and nonnegative"
    try:
        out = tuple(map(float, weights))
    except OverflowError:  # an integer too large for a float
        raise ValueError(fault) from None
    if any(not 0.0 <= w < math.inf for w in out):  # NaN fails both comparisons
        raise ValueError(fault)
    return out


@dataclass(frozen=True)
class Additive:
    """v(S) = sum of per-good weights in S."""

    weights: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weights(self.weights))

    @property
    def m(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class BudgetAdditive:
    """v(S) = min(cap, sum of weights in S)."""

    weights: tuple[float, ...]
    cap: float

    def __post_init__(self):
        object.__setattr__(self, "weights", _check_weights(self.weights))
        object.__setattr__(self, "cap", _check_weights((self.cap,), "cap")[0])

    @property
    def m(self) -> int:
        return len(self.weights)


@dataclass(frozen=True)
class Xos:
    """v(S) = max over clauses (additive weight vectors) of the clause sum on S."""

    clauses: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        clauses = tuple(_check_weights(c, "clause weights") for c in self.clauses)
        if not clauses:
            raise ValueError("need at least one clause")
        if len({len(c) for c in clauses}) != 1:
            raise ValueError("all clauses must have the same length")
        object.__setattr__(self, "clauses", clauses)

    @property
    def m(self) -> int:
        return len(self.clauses[0])


@dataclass(frozen=True)
class ExplicitTable:
    """v(S) = table[S], a dense table indexed by bitmask (m <= 16).

    The only family whose instances may violate normalization, monotonicity or
    subadditivity; run check_axioms to verify a given table.
    """

    table: tuple[float, ...]

    def __post_init__(self):
        size = len(self.table)
        if size == 0 or size & (size - 1):
            raise ValueError("table length must be a power of two")
        if size > (1 << EXPLICIT_MAX_GOODS):
            raise SizeLimitExceeded(
                f"explicit tables support at most {EXPLICIT_MAX_GOODS} goods"
            )
        object.__setattr__(self, "table", _check_weights(self.table, "table values"))

    @property
    def m(self) -> int:
        return len(self.table).bit_length() - 1


Valuation = Union[Additive, BudgetAdditive, Xos, ExplicitTable]


@dataclass(frozen=True)
class Instance:
    """n agents sharing one valuation over the valuation's goods."""

    n: int
    valuation: Valuation

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need at least one agent")
        if self.n > MAX_AGENTS:
            raise SizeLimitExceeded(f"at most {MAX_AGENTS} agents supported, got n = {self.n}")
        if self.valuation.m > BITMASK_MAX_GOODS:
            raise SizeLimitExceeded(f"at most {BITMASK_MAX_GOODS} goods supported")

    @property
    def m(self) -> int:
        return self.valuation.m


def _mask_sum(vec: Sequence[float], subset: int) -> float:
    total = 0.0
    for j in iter_goods(subset):
        total += vec[j]
    return total


def value(v: Valuation, subset: int) -> float:
    """Value query: v(S) for a bitmask S."""
    _check_subset(subset, v.m)
    if isinstance(v, Additive):
        return _mask_sum(v.weights, subset)
    if isinstance(v, BudgetAdditive):
        return min(v.cap, _mask_sum(v.weights, subset))
    if isinstance(v, Xos):
        return max(_mask_sum(c, subset) for c in v.clauses)
    return v.table[subset]


def _subset_sums(vec: Sequence[float]) -> np.ndarray:
    """All 2^len(vec) subset sums, indexed by bitmask."""
    sums = np.zeros(1 << len(vec))
    for j, w in enumerate(vec):
        np.add(sums[: 1 << j], w, out=sums[1 << j : 2 << j])
    return sums


def _clauses(v: Valuation) -> tuple[tuple[float, ...], ...] | None:
    """The additive clauses whose maximum is v (one for Additive), or None."""
    if isinstance(v, Additive):
        return (v.weights,)
    return v.clauses if isinstance(v, Xos) else None


def value_table(v: Valuation) -> np.ndarray:
    """Dense table of v over all 2^m subsets (requires small m)."""
    if v.m > TABLE_MAX_GOODS:
        raise SizeLimitExceeded(f"cannot tabulate {v.m} goods")
    if clauses := _clauses(v):
        table = _subset_sums(clauses[0])
        for clause in clauses[1:]:
            np.maximum(table, _subset_sums(clause), out=table)
        return table
    if isinstance(v, BudgetAdditive):
        return np.minimum(v.cap, _subset_sums(v.weights))
    return np.asarray(v.table, dtype=float)


def demand(v: Valuation, prices: Sequence[float]) -> tuple[int, float]:
    """Demand query: a subset S maximizing v(S) - sum of prices over S, and that utility.

    Prices may be negative.  XOS valuations, additive ones as one clause, take
    every good with weight >= price in each clause and return the first best
    clause's set.  BudgetAdditive and ExplicitTable fall back to exhaustive
    subset search (caps of 24 and 16 goods), breaking utility ties toward the
    larger bitmask so that an all-zero price vector yields the full set.
    """
    prices = [float(p) for p in prices]
    if len(prices) != v.m:
        raise ValueError(f"expected {v.m} prices, got {len(prices)}")

    if clauses := _clauses(v):
        best_subset, best_util = 0, float("-inf")
        for clause in clauses:
            subset = mask_of(j for j, w in enumerate(clause) if w >= prices[j])
            util = _mask_sum(clause, subset) - _mask_sum(prices, subset)
            if util > best_util:
                best_subset, best_util = subset, util
        # the winning clause attains v on its own demanded set, so best_util
        # equals value(best_subset) - prices(best_subset)
        return best_subset, best_util

    utilities = value_table(v) - _subset_sums(prices)
    # highest mask among ties: monotone valuations then demand the full set at zero prices
    flipped = int(np.argmax(utilities[::-1]))
    subset = len(utilities) - 1 - flipped
    return subset, float(utilities[subset])


@dataclass(frozen=True)
class AxiomReport:
    normalized: bool
    monotone: bool
    subadditive: bool
    witness: str = field(default="", compare=False)  # the first failing set, in words

    @property
    def all_ok(self) -> bool:
        return self.normalized and self.monotone and self.subadditive

    @property
    def fault(self) -> str:
        """'' if every axiom holds, else an error naming the failing ones and the witness."""
        held = {"normalized": self.normalized, "monotone": self.monotone,
                "subadditive": self.subadditive}
        fails = ", ".join(name for name, ok in held.items() if not ok)
        return fails and (
            f"table must be normalized, monotone and subadditive (fails: {fails}): {self.witness}"
        )


def _worth(table: np.ndarray, *subsets) -> str:
    """'v({0}) + v({1}) = 2': a sum of table entries, term by term, and its value."""
    terms = " + ".join("v({" + ", ".join(map(str, iter_goods(int(s)))) + "})" for s in subsets)
    return f"{terms} = {float(sum(table[s] for s in subsets))!r}".removesuffix(".0")


def check_axioms(v: Valuation) -> AxiomReport:
    """Exhaustively verify normalization, monotonicity and subadditivity on the
    subset DP's splits (T, S minus T) of every S, T holding S's lowest good:
    every proper subset of S is a T or an S minus T, so the splits decide
    monotonicity, and for a monotone table subadditivity.  Each is one blocked
    swmax._fold over those splits.  The witness is the first failing set of
    the first failing axiom, and its first failing split.  m <= 12."""
    if v.m > AXIOM_SCAN_MAX_GOODS:
        raise SizeLimitExceeded(
            f"axiom scan enumerates subset pairs; m <= {AXIOM_SCAN_MAX_GOODS} required"
        )
    from .swmax import _fold, _layer_pairs, _submasks  # swmax imports this module when it loads

    table = value_table(v)
    pairs = _layer_pairs(v.m)
    # the largest subset of S, and (negation commutes with + bit for bit) the cheapest split
    shrinks = _fold(pairs, table, table, np.maximum) > table + EPS
    exceeds = table > -_fold(pairs, -table, -table, np.add) + EPS
    report = AxiomReport(bool(table[0] == 0.0), not shrinks.any(), not exceeds.any())
    if not report.normalized:
        return replace(report, witness=_worth(table, 0))
    if report.all_ok:
        return report
    s = int(np.argmax(exceeds if report.monotone else shrinks))  # the first failing S
    ts = (s & -s) | _submasks(s & (s - 1))  # the T of its splits, in the index's order
    if not report.monotone:  # the first T or S minus T worth more than S
        us = np.stack([ts, s ^ ts], axis=1).ravel()
        u = int(us[np.argmax(table[us] > table[s] + EPS)])
        return replace(report, witness=f"{_worth(table, u)} > {_worth(table, s)}")
    t = int(ts[np.argmax(table[s] > table[ts] + table[s ^ ts] + EPS)])
    return replace(report, witness=f"{_worth(table, s)} > {_worth(table, t, s ^ t)}")


def restrict(v: Valuation, goods: Sequence[int]) -> Valuation:
    """Same-family valuation over the listed goods, re-indexed to 0..len(goods)-1."""
    goods = list(goods)
    if len(set(goods)) != len(goods):
        raise ValueError("duplicate goods in restriction")
    for j in goods:
        if not 0 <= j < v.m:
            raise ValueError(f"good {j} out of range")
    if isinstance(v, (Additive, BudgetAdditive)):
        return replace(v, weights=tuple(v.weights[j] for j in goods))
    if isinstance(v, Xos):
        return Xos(tuple(tuple(c[j] for j in goods) for c in v.clauses))
    k = len(goods)
    sub = np.arange(1 << k)
    expanded = np.zeros(1 << k, dtype=np.int64)
    for new_j, orig_j in enumerate(goods):
        expanded |= ((sub >> new_j) & 1) << orig_j
    table = np.asarray(v.table)[expanded]
    return ExplicitTable(tuple(float(x) for x in table))


# ---------------------------------------------------------------------------
# instance files
#
# JSON layout: {"n": int, "valuation": {"type": ..., ...}} with the table of an
# explicit valuation indexed by bitmask (good j at bit j).


def valuation_to_dict(v: Valuation) -> dict:
    if isinstance(v, Additive):
        return {"type": "additive", "weights": list(v.weights)}
    if isinstance(v, BudgetAdditive):
        return {"type": "budget_additive", "weights": list(v.weights), "cap": v.cap}
    if isinstance(v, Xos):
        return {"type": "xos", "clauses": [list(c) for c in v.clauses]}
    return {"type": "explicit", "table": list(v.table)}


_NUMBER = {int, float}  # the types JSON numbers load as; bool is not one
_LAYOUTS = {
    "an integer": lambda x: type(x) is int,
    "a number": lambda x: type(x) in _NUMBER,
    "an object": lambda x: isinstance(x, dict),
    "a list of numbers": lambda x: isinstance(x, list) and set(map(type, x)) <= _NUMBER,
    "a list of lists of numbers": lambda x: isinstance(x, list)
    and all(isinstance(row, list) and set(map(type, row)) <= _NUMBER for row in x),
}


def _field(data: dict, key: str, layout: str):
    """data[key] if it has the named layout, else a ValueError naming the field."""
    if key in data and _LAYOUTS[layout](data[key]):
        return data[key]
    got = reprlib.repr(data[key]) if key in data else "nothing"
    raise ValueError(f"{key} must be {layout}, got {got}")


def valuation_from_dict(data: dict) -> Valuation:
    kind = data.get("type")
    if kind == "additive":
        return Additive(tuple(_field(data, "weights", "a list of numbers")))
    if kind == "budget_additive":
        weights = _field(data, "weights", "a list of numbers")
        return BudgetAdditive(tuple(weights), _field(data, "cap", "a number"))
    if kind == "xos":
        return Xos(tuple(map(tuple, _field(data, "clauses", "a list of lists of numbers"))))
    if kind == "explicit":
        return ExplicitTable(tuple(_field(data, "table", "a list of numbers")))
    raise ValueError(f"unknown valuation type: {kind!r}")


def instance_to_dict(inst: Instance) -> dict:
    return {"n": inst.n, "valuation": valuation_to_dict(inst.valuation)}


def instance_from_dict(data: dict) -> Instance:
    """The instance a JSON document describes; a ValueError names a bad field."""
    if not isinstance(data, dict):
        raise ValueError(f"instance must be an object, got {reprlib.repr(data)}")
    n = _field(data, "n", "an integer")
    return Instance(n, valuation_from_dict(_field(data, "valuation", "an object")))


def save_instance(inst: Instance, path: str | Path) -> None:
    text = json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ValueError(f"cannot write instance file {path}: {exc.strerror}") from None


def load_instance(path: str | Path) -> Instance:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ValueError(f"cannot read instance file {path}: {exc.strerror}") from None
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or nested too deep
        raise ValueError(f"cannot parse instance file {path}: {exc}") from None
    return instance_from_dict(data)
