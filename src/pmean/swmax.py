"""Social-welfare subroutine: allocations with known average-welfare quality.

Both solver phases consult this module for an allocation whose average social
welfare (the f_value) they can trust.  estimator(inst, backend) answers for
any goods bitmask and any number of agents up to n, on global bitmasks, and
sw_estimate is its answer for the whole instance.  The exact backend is the
subset DP the oracle runs at every exponent, optimal by construction: SubsetDP
builds the per-instance part once (value table, layer pairs) and at(p) the
per-exponent layers, from which the best split of any goods set among any
number of agents is rebuilt, so one p = 1 pass serves every estimate of an alg
run.  The greedy backend deals the goods round-robin in ascending index, with
no demand query, no table and no claimed guarantee.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator

import numpy as np

from .errors import BudgetExceeded
from .means import SMALL_EXPONENT_BAND
from .valuations import Instance, full_set, goods_of, value, value_table

DEFAULT_ENUM_BUDGET = 10_000_000

EXACT = "exact"
GREEDY = "greedy"
BACKENDS = (EXACT, GREEDY)

_CHUNK = 1 << 15


class Guarantee(enum.Enum):
    EXACT = "exact"
    HEURISTIC = "heuristic"


@dataclass(frozen=True)
class SwEstimate:
    alloc: tuple[int, ...]
    f_value: float
    guarantee: Guarantee


def enumerate_labeled_partitions(
    m: int, n: int, budget: int = DEFAULT_ENUM_BUDGET
) -> Iterator[tuple[int, ...]]:
    """Yield every assignment of m goods to n labeled bundles exactly once.

    Good 0 is the most significant position: the first agent of good 0 varies
    slowest across the stream.  Single-consumer generator; the budget caps n^m.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    states = n**m
    if states > budget:
        raise BudgetExceeded(f"{n}^{m} = {states} labeled partitions exceed budget {budget}")
    for start in range(0, states, _CHUNK):
        masks = _chunk_bundle_masks(m, n, start, min(start + _CHUNK, states))
        yield from map(tuple, masks.T.tolist())


def _chunk_bundle_masks(m: int, n: int, start: int, stop: int) -> np.ndarray:
    """Bundle bitmasks for partition indices [start, stop), shape (n, stop - start):
    the agent of good j is digit j of the index in base n, good 0 most significant."""
    idx = np.arange(start, stop, dtype=np.int64)
    masks = np.zeros((n, idx.size), dtype=np.int64)
    for j in range(m):
        digit = (idx // n ** (m - 1 - j)) % n
        for agent in range(n):
            masks[agent] |= (digit == agent).astype(np.int64) << j
    return masks


def _neg_log_sum(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """-log(e^-a + e^-b), elementwise: the combine for p < 0."""
    return np.negative(np.logaddexp(np.negative(a, out=out), -b, out=out), out=out)


def _scores(table: np.ndarray, p: float):
    """Per-subset score g(v) and the combine op whose maximum ranks p-means.

    p < 0 ranks by -log(sum of v^p), so no power of a tiny or huge value
    overflows; near p = 0, sum((v^p - 1) / p) keeps digits that sum(v^p) rounds away.
    """
    with np.errstate(divide="ignore"):
        if p == -math.inf:
            return table, np.minimum
        if p == 0.0:
            return np.log(table), np.add
        if abs(p) < SMALL_EXPONENT_BAND:
            return np.expm1(p * np.log(table)) / p, np.add
        if p > 0.0:
            return table**p, np.add
        return -p * np.log(table), _neg_log_sum


def _submasks(subset: int) -> np.ndarray:
    """Every submask of a bitmask, ascending."""
    out = np.zeros(1, dtype=np.int32)
    for j in goods_of(subset):
        out = np.concatenate([out, out | (1 << j)])
    return out


def _layer_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(T, S minus T) for every S and every T within S holding S's lowest good
    (some bundle of any partition of S does), grouped by S ascending, and the
    group starts.  T number k of a group spreads the bits of k over S's other goods."""
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        counts = np.concatenate([counts, counts + 1])
    dtype = np.uint16 if m <= 16 else np.uint32
    wholes = np.arange(1 << m, dtype=dtype)
    sizes = 1 << (counts - (wholes > 0))
    starts = np.cumsum(sizes) - sizes
    whole = np.repeat(wholes, sizes)
    others = np.repeat(wholes & (wholes - 1), sizes)
    k = (np.arange(whole.size) - np.repeat(starts, sizes)).astype(dtype)
    sub = whole ^ others
    for j in range(m):
        bit = (others >> j) & 1
        sub |= (k & bit) << j
        k >>= bit
    return sub, whole ^ sub, starts


class SubsetDP:
    """The per-instance half of the subset DP, built once and shared by every
    exponent: the budget check, the value table and, for n > 2, the middle
    layers' (T, S minus T) pairs.  at(p) runs the per-exponent half.

    F_k[S], the best score of k bundles partitioning S, is the best over T in S
    of g(v(T)) combined with F_(k-1)[S minus T] (see _scores).  Layers 1 .. n-1
    cover every S; the budget caps the (S, T) pairs of all n layers,
    (n - 2) * 3^m + 2^m, of which _layer_pairs needs half.
    """

    def __init__(self, inst: Instance, budget: int = DEFAULT_ENUM_BUDGET):
        m, n = inst.m, inst.n
        self.n = n
        self.table = self.pairs = None
        if n == 1:
            return
        cells = (n - 2) * 3**m + 2**m
        if cells > budget:
            raise BudgetExceeded(f"n={n}, m={m} needs {cells} subset-DP cells, over budget {budget}")
        self.table = value_table(inst.valuation)
        if n > 2:
            self.pairs = _layer_pairs(m)

    def at(self, p: float) -> Callable[[int, int], tuple[int, ...]]:
        """best(goods, agents): an allocation of the goods bitmask among agents
        <= n that maximizes the p-mean of bundle values, as global bitmasks."""
        if self.table is None:  # one agent, who takes every good
            return partial(_rebuild, [], None)
        g, combine = _scores(self.table, p)
        layers = [g]  # layers[k - 1][S] = F_k[S]
        for _ in range(self.n - 2):
            sub, rest, starts = self.pairs
            cand = g[sub]
            combine(cand, layers[-1][rest], out=cand)
            layers.append(np.maximum.reduceat(cand, starts))
        return partial(_rebuild, layers, combine)


def _rebuild(layers: list, combine, goods: int, agents: int) -> tuple[int, ...]:
    """Top-down: each agent takes the lowest submask of the goods left that
    scores best with the best split of the rest among the agents after it.

    Restricting a valuation keeps the order of its goods, so F_k at a goods set
    is the same float as the restricted instance's and its submasks come in the
    same order: the result is the restricted instance's own tie-break.
    """
    if agents == 1:
        return (goods,)
    g = layers[0]
    bundles = []
    left = goods
    for prev in reversed(layers[1 : agents - 1]):
        subs = _submasks(left)
        scores = g[subs]
        combine(scores, prev[left ^ subs], out=scores)
        pick = int(subs[np.argmax(scores)])
        bundles.append(pick)
        left ^= pick
    # Two bundles left: T and its complement score the same, as every combine
    # is commutative bit for bit, so the lowest best T lacks left's top good.
    half = left ^ (1 << left.bit_length() >> 1)
    if left & (left + 1) == 0:  # left is goods 0 .. j: the half is 0 .. half, a slice
        scores = np.empty(half + 1)
        combine(g[: half + 1], g[left - half : left + 1][::-1], out=scores)
        pick = int(np.argmax(scores))
    else:
        subs = _submasks(half)
        scores = g[subs]
        combine(scores, g[left ^ subs], out=scores)
        pick = int(subs[np.argmax(scores)])
    return tuple(bundles) + (pick, left ^ pick)


def _round_robin(goods: int, agents: int) -> tuple[int, ...]:
    """Deal the goods of a bitmask to the agents in ascending index, one at a time."""
    bundles = [0] * agents
    for turn, g in enumerate(goods_of(goods)):
        bundles[turn % agents] |= 1 << g
    return tuple(bundles)


def estimator(
    inst: Instance, backend: str = EXACT, budget: int = DEFAULT_ENUM_BUDGET
) -> Callable[[int, int], SwEstimate]:
    """estimate(goods, agents): the backend's allocation of a goods bitmask
    among agents <= n, as global bitmasks, and its average welfare.

    exact: the optimum, from one p = 1 subset DP on the whole instance
    (Guarantee.EXACT).  greedy: the round-robin deal (Guarantee.HEURISTIC).
    """
    if backend == EXACT:
        best, guarantee = SubsetDP(inst, budget).at(1.0), Guarantee.EXACT
    elif backend == GREEDY:
        best, guarantee = _round_robin, Guarantee.HEURISTIC
    else:
        raise ValueError(f"unknown backend {backend!r}; expected one of {BACKENDS}")
    v = inst.valuation

    def estimate(goods: int, agents: int) -> SwEstimate:
        alloc = best(goods, agents)
        return SwEstimate(alloc, math.fsum(value(v, b) for b in alloc) / agents, guarantee)

    return estimate


def sw_estimate(
    inst: Instance, backend: str = EXACT, budget: int = DEFAULT_ENUM_BUDGET
) -> SwEstimate:
    """Allocation of the whole instance plus its average social welfare, per the
    selected backend (see estimator).  The greedy deal's quality is measured
    against the exact backend in tests, never assumed."""
    return estimator(inst, backend, budget)(full_set(inst.m), inst.n)
