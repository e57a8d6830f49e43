"""Gap-3DM gadgets: reduction to welfare instances and desk-scale gap checks.

A matching problem over three vertex blocks of size q (goods 0..q-1, q..2q-1,
2q..3q-1) reduces to q agents sharing an XOS valuation with one unit-weight
clause per hyperedge, so a bundle is worth the largest number of vertices it
shares with any single edge (at most 3).  A perfect matching turns into an
allocation worth 3 everywhere; when the best matching has only alpha*q edges,
no allocation can average above 2 + alpha.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .errors import NotPerfect, SizeLimitExceeded
from .oracle import p_opt_grid
from .swmax import DEFAULT_ENUM_BUDGET
from .valuations import EPS, Instance, Xos, full_set

MATCHING_MAX_EDGES = 20


@dataclass(frozen=True)
class Gap3dmInstance:
    """|X| = |Y| = |Z| = q; each hyperedge takes one vertex from each block."""

    q: int
    hyperedges: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("need q >= 1")
        edges = tuple(tuple(int(v) for v in e) for e in self.hyperedges)
        if not edges:
            raise ValueError("need at least one hyperedge")
        q = self.q
        for x, y, z in edges:
            if not (0 <= x < q and q <= y < 2 * q and 2 * q <= z < 3 * q):
                raise ValueError(f"edge ({x},{y},{z}) leaves the three vertex blocks")
        object.__setattr__(self, "hyperedges", edges)


def _edges_disjoint(edges: Sequence[tuple[int, int, int]]) -> bool:
    seen: set[int] = set()
    for e in edges:
        for vtx in e:
            if vtx in seen:
                return False
            seen.add(vtx)
    return True


def reduce(g: Gap3dmInstance) -> Instance:
    """Welfare instance with q agents, 3q goods, and max-over-edges valuation."""
    m = 3 * g.q
    clauses = []
    for edge in g.hyperedges:
        clause = [0.0] * m
        for vtx in edge:
            clause[vtx] = 1.0
        clauses.append(tuple(clause))
    return Instance(g.q, Xos(tuple(clauses)))


def matching_to_allocation(
    g: Gap3dmInstance, matched: Sequence[int]
) -> tuple[int, ...]:
    """Turn a perfect matching (edge indices) into the allocation that gives
    each agent one matched edge's three goods."""
    matched = list(matched)
    if len(matched) != g.q:
        raise NotPerfect(f"need {g.q} matched edges, got {len(matched)}")
    edges = [g.hyperedges[i] for i in matched]
    if not _edges_disjoint(edges):
        raise NotPerfect("matched edges share a vertex")
    bundles = []
    for edge in edges:
        mask = 0
        for vtx in edge:
            mask |= 1 << vtx
        bundles.append(mask)
    leftover = full_set(3 * g.q)
    for b in bundles:
        leftover &= ~b
    bundles[-1] |= leftover  # empty when the matching is perfect
    return tuple(bundles)


def max_matching_brute(g: Gap3dmInstance) -> tuple[int, ...]:
    """Maximum-cardinality set of pairwise disjoint edges by subset enumeration."""
    t = len(g.hyperedges)
    if t > MATCHING_MAX_EDGES:
        raise SizeLimitExceeded(f"matching search enumerates 2^T subsets; T <= {MATCHING_MAX_EDGES}")
    best: tuple[int, ...] = ()
    for size in range(min(t, g.q), 0, -1):
        for combo in combinations(range(t), size):
            if _edges_disjoint([g.hyperedges[i] for i in combo]):
                return combo
    return best


def verify_no_side(
    g: Gap3dmInstance,
    alpha: float,
    p_grid: Sequence[float],
    budget: int = DEFAULT_ENUM_BUDGET,
) -> bool:
    """If the best matching has at most alpha*q edges, confirm by brute force
    that no grid exponent admits welfare above 2 + alpha.  Vacuously true when
    the matching premise fails."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    if len(max_matching_brute(g)) > alpha * g.q + EPS:
        return True
    inst = reduce(g)
    bound = 2.0 + alpha + EPS
    return all(opt.welfare <= bound for opt in p_opt_grid(inst, p_grid, budget))


def generate_yes_instance(q: int, seed: int = 0) -> Gap3dmInstance:
    """Instance with a planted perfect matching plus q random decoy edges.

    The matching pairs block positions through two seeded permutations; decoy
    edges are sampled uniformly and may overlap anything.
    """
    rng = np.random.default_rng(seed)
    sigma = rng.permutation(q)
    tau = rng.permutation(q)
    edges = [(i, q + int(sigma[i]), 2 * q + int(tau[i])) for i in range(q)]
    for _ in range(q):
        edges.append(
            (
                int(rng.integers(q)),
                q + int(rng.integers(q)),
                2 * q + int(rng.integers(q)),
            )
        )
    return Gap3dmInstance(q, tuple(edges))


def generate_no_instance(q: int, seed: int = 0) -> Gap3dmInstance:
    """Instance of q + 1 distinct edges that all share the first X vertex, so
    the best matching has exactly one edge and the matching ratio is 1/q.

    Requires q >= 2: with a single agent any nonempty instance already has a
    perfect matching.  q + 1 <= q^2 such edges exist, so the draw ends.
    """
    if q < 2:
        raise ValueError("no-side instances need q >= 2")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int, int]] = []
    while len(edges) < q + 1:
        e = (0, q + int(rng.integers(q)), 2 * q + int(rng.integers(q)))
        if e not in edges:
            edges.append(e)
    return Gap3dmInstance(q, tuple(edges))
