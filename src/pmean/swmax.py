"""Social-welfare subroutine: allocations with known average-welfare quality.

Both solver phases consult this module for an allocation whose average social
welfare (the f_value) they can trust.  estimator(inst, backend) answers for
any goods bitmask and any number of agents up to n, on global bitmasks, and
sw_estimate is its answer for the whole instance.  The exact backend is the
subset DP the oracle runs at every exponent, optimal by construction: SubsetDP
builds the per-instance part once (value table, layer pairs) and at(p) the
per-exponent layers, from which the best split of any goods set among any
number of agents is rebuilt, one blocked first-best scan per agent, so one
p = 1 pass serves every estimate of an alg run.  The greedy backend deals the
goods round-robin in ascending index, with no demand query, no table and no
claimed guarantee.
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
_BLOCK = 1 << 16  # (S, T) pairs, or rebuild splits, per block of the subset DP


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
    At p = 1 and p = -inf the score is the table itself (v^1 is v bit for bit),
    and the log-domain scores are computed in place: at most one float array of
    2^m is made.
    """
    if p == -math.inf:
        return table, np.minimum
    if p == 1.0:
        return table, np.add
    if p >= SMALL_EXPONENT_BAND:
        return table**p, np.add
    with np.errstate(divide="ignore"):
        g = np.log(table)
    if p == 0.0:
        return g, np.add
    if abs(p) < SMALL_EXPONENT_BAND:
        np.multiply(g, p, out=g)
        np.expm1(g, out=g)
        return np.divide(g, p, out=g), np.add
    return np.multiply(g, -p, out=g), _neg_log_sum


def _submasks(subset: int) -> np.ndarray:
    """Every submask of a bitmask, ascending."""
    out = np.zeros(1, dtype=np.int32)
    for j in goods_of(subset):
        out = np.concatenate([out, out | (1 << j)])
    return out


def _layer_pairs(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(T, S minus T) for every S and every T within S holding S's lowest good
    (some bundle of any partition of S does), grouped by S ascending, the group
    starts, and the block bounds (S lo, S hi, pair lo, pair hi): runs of whole S
    groups of about _BLOCK pairs, which the middle layers fill one at a time.
    The pairs are built block by block too, so no temporary outgrows a block.
    """
    counts = np.zeros(1, dtype=np.int64)
    for _ in range(m):
        counts = np.concatenate([counts, counts + 1])
    dtype = np.uint16 if m <= 16 else np.uint32
    wholes = np.arange(1 << m, dtype=dtype)
    sizes = 1 << (counts - (wholes > 0))
    starts = np.cumsum(sizes) - sizes
    total = (3**m + 1) // 2
    if total <= _BLOCK:  # one block: the arrays are the block's own
        sub, rest = _pair_block(wholes, sizes, starts, m)
        return sub, rest, starts, [(0, 1 << m, 0, total)]
    # a block starts with the group that holds pair number i * _BLOCK
    cuts = np.unique(np.searchsorted(starts, np.arange(0, total, _BLOCK), "right") - 1).tolist()
    cuts.append(1 << m)
    sub = np.empty(total, dtype=dtype)
    rest = np.empty(total, dtype=dtype)
    bounds = []
    for lo, hi in zip(cuts, cuts[1:]):
        p_lo = int(starts[lo])
        p_hi = int(starts[hi]) if hi < 1 << m else total
        sub[p_lo:p_hi], rest[p_lo:p_hi] = _pair_block(
            wholes[lo:hi], sizes[lo:hi], starts[lo:hi] - p_lo, m
        )
        bounds.append((lo, hi, p_lo, p_hi))
    return sub, rest, starts, bounds


def _pair_block(wholes: np.ndarray, sizes: np.ndarray, offsets: np.ndarray, m: int):
    """The (T, S minus T) pairs of the groups of the goods sets wholes, whose
    groups hold sizes pairs from offsets on.  T number k of a group spreads the
    bits of k over S's other goods."""
    whole = np.repeat(wholes, sizes)
    others = np.repeat(wholes & (wholes - 1), sizes)
    k = (np.arange(whole.size) - np.repeat(offsets, sizes)).astype(wholes.dtype)
    sub = whole ^ others
    for j in range(m):
        bit = (others >> j) & 1
        sub |= (k & bit) << j
        k >>= bit
    return sub, whole ^ sub


class SubsetDP:
    """The per-instance half of the subset DP, built once and shared by every
    exponent: the budget check, the value table and, for n > 2, the middle
    layers' (T, S minus T) pairs.  at(p) runs the per-exponent half.

    F_k[S], the best score of k bundles partitioning S, is the best over T in S
    of g(v(T)) combined with F_(k-1)[S minus T] (see _scores).  Layers 1 .. n-1
    cover every S; the budget caps the (S, T) pairs of all n layers,
    (n - 2) * 3^m + 2^m, of which _layer_pairs needs half.  Each middle layer
    is filled one block of S groups at a time, so apart from the 2^m layers no
    float array outgrows a block of _BLOCK pairs.
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
            layers.append(self._layer(g, layers[-1], combine))
        return partial(_rebuild, layers, combine)

    def _layer(self, g: np.ndarray, prev: np.ndarray, combine) -> np.ndarray:
        """F_k from F_(k-1) = prev: each S group's best g(v(T)) combined with
        prev[S minus T], one block of groups at a time."""
        sub, rest, starts, bounds = self.pairs
        if len(bounds) == 1:
            cand = g[sub]
            combine(cand, prev[rest], out=cand)
            return np.maximum.reduceat(cand, starts)
        # one block's indices, widened once, and its two gathers, reused by every block
        width = max(p_hi - p_lo for _, _, p_lo, p_hi in bounds)
        index, cand, other = np.empty(width, dtype=np.intp), np.empty(width), np.empty(width)
        layer = np.empty(g.size)
        for lo, hi, p_lo, p_hi in bounds:
            idx, c, o = index[: p_hi - p_lo], cand[: p_hi - p_lo], other[: p_hi - p_lo]
            # every index is below 2^m, so "clip" only skips the bounds check
            np.copyto(idx, sub[p_lo:p_hi])
            np.take(g, idx, out=c, mode="clip")
            np.copyto(idx, rest[p_lo:p_hi])
            np.take(prev, idx, out=o, mode="clip")
            combine(c, o, out=c)
            np.maximum.reduceat(c, starts[lo:hi] - p_lo, out=layer[lo:hi])
        return layer


def _rebuild(layers: list, combine, goods: int, agents: int) -> tuple[int, ...]:
    """Top-down: each agent takes the lowest submask of the goods left that
    scores best with the best split of the rest among the agents after it.

    Restricting a valuation keeps the order of its goods, so F_k at a goods set
    is the same float as the restricted instance's and its submasks come in the
    same order: the result is the restricted instance's own tie-break.  Each
    step restricts g and the next layer to the submasks of the goods left, as
    views when those are goods 0 .. j, and scans them with _first_best.
    """
    if agents == 1:
        return (goods,)
    g = layers[0]
    bundles = []
    left = goods
    for prev in reversed(layers[: agents - 1]):
        if left & (left + 1) == 0:  # goods 0 .. j: the submasks are 0 .. left
            subs, own, rest = None, g[: left + 1], prev[: left + 1]
        else:
            subs = _submasks(left)
            own, rest = g[subs], prev[subs]
        # Two bundles left (prev is g): T and its complement score the same, as
        # every combine is commutative bit for bit, so the lowest best T lacks
        # left's top good and lies in the first half.
        count = (own.size + 1) // 2 if prev is g else own.size
        i = _first_best(own, rest, combine, count)
        pick = i if subs is None else int(subs[i])
        bundles.append(pick)
        left ^= pick
    return (*bundles, left)


def _first_best(own: np.ndarray, rest: np.ndarray, combine, count: int) -> int:
    """The lowest i < count maximizing own[i] combined with rest[size - 1 - i],
    the entry of i's complement, scanned in blocks of _BLOCK: a later block
    wins only by a strictly higher score, so the first best stands."""
    top = own.size - 1
    scores = np.empty(min(count, _BLOCK))
    best, pick = -math.inf, 0
    for lo in range(0, count, _BLOCK):
        hi = min(lo + _BLOCK, count)
        block = scores[: hi - lo]
        combine(own[lo:hi], rest[top - hi + 1 : top - lo + 1][::-1], out=block)
        i = int(np.argmax(block))
        if block[i] > best:
            best, pick = block[i], lo + i
    return pick


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
