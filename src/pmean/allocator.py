"""Two-phase allocation of indivisible goods under one shared subadditive valuation.

Phase one (alg) walks the goods in non-increasing singleton value and hands a
good to its own agent whenever that good alone is worth at least a 1/3.53
fraction of the current sub-instance's social-welfare estimate; each such
assignment removes the good and one agent.  Phase two (alg_low) takes over once
no good clears the bar: it asks the welfare subroutine for a near-optimal
allocation, then re-cuts its high-value bundles good by good so every remaining
agent ends up with at least a 1/20 fraction of the estimate.

Inside alg, every estimate comes from one swmax.estimator on goods bitmasks,
for either backend: the exact one reads each sub-instance's optimum from a
single p = 1 subset DP over the whole instance, the greedy one deals the goods
left round-robin, and neither restricts the valuation.  Phase two re-cuts the
estimate that stopped phase one instead of computing it again.

All threshold comparisons accept an absolute slack of EPS on the >= side.
Every tie is broken by ascending good index (bundle sorts by descending value,
then ascending original position), so identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionViolated
from .swmax import DEFAULT_ENUM_BUDGET, EXACT, Guarantee, estimator, sw_estimate
from .valuations import EPS, Instance, full_set, goods_of, mask_of, value


@dataclass(frozen=True)
class AlgConstants:
    phase1_divisor: float = 3.53
    alglow_fraction: float = 1.0 / 3.0
    approx_factor: float = 40.0
    high_bundle_factor: float = 11.33
    extraction_floor_divisor: float = 20.0
    combined_divisor: float = 7.06

    def __post_init__(self):
        if self.phase1_divisor * self.high_bundle_factor > self.approx_factor:
            raise ValueError("phase1_divisor * high_bundle_factor must stay <= approx_factor")
        if abs(self.combined_divisor - 2.0 * self.phase1_divisor) > 1e-12:
            raise ValueError("combined_divisor must equal 2 * phase1_divisor")


CONSTANTS = AlgConstants()


@dataclass
class AlgTrace:
    """What phase one did: singleton picks and the welfare estimate behind each
    test; what phase two cut; and the guarantee of the estimates alg used."""

    k: int = 0
    singleton_goods: list[int] = field(default_factory=list)
    f_values: list[float] = field(default_factory=list)
    phase2_bundles: list[int] = field(default_factory=list)
    guarantee: Guarantee | None = None


def alg(
    inst: Instance,
    backend: str = EXACT,
    budget: int = DEFAULT_ENUM_BUDGET,
    constants: AlgConstants = CONSTANTS,
) -> tuple[tuple[int, ...], AlgTrace]:
    """Run both phases and return a complete n-bundle allocation plus its trace.

    The singleton loop additionally stops when only one agent is left (that
    agent then receives everything still unassigned, which can only help every
    welfare objective) and when the best remaining good is worthless (an
    all-zero tail makes any allocation optimal).  When it stops below the bar,
    phase two re-cuts the estimate that stopped it instead of asking again.
    """
    v = inst.valuation
    order = sorted(range(inst.m), key=lambda j: (-value(v, 1 << j), j))
    estimate = estimator(inst, backend, budget)

    trace = AlgTrace()
    singles: list[int] = []
    agents_left = inst.n
    next_pick = 0
    est = None  # the estimate that stopped phase one below the bar, if one did

    while agents_left > 1 and next_pick < inst.m:
        g = order[next_pick]
        top_value = value(v, 1 << g)
        if top_value <= 0.0:
            break
        tail = estimate(mask_of(order[next_pick:]), agents_left)
        trace.f_values.append(tail.f_value)
        if top_value < tail.f_value / constants.phase1_divisor - EPS:
            est = tail
            break
        singles.append(g)
        agents_left -= 1
        next_pick += 1

    leftover = mask_of(order[next_pick:])
    est = est or estimate(leftover, agents_left)
    phase2 = _recut(v, est.alloc, est.f_value, leftover, constants)

    trace.k = len(singles)
    trace.singleton_goods = list(singles)
    trace.phase2_bundles = list(phase2)
    trace.guarantee = est.guarantee
    return tuple(1 << g for g in singles) + tuple(phase2), trace


def alg_low(
    inst: Instance,
    backend: str = EXACT,
    budget: int = DEFAULT_ENUM_BUDGET,
    constants: AlgConstants = CONSTANTS,
) -> tuple[int, ...]:
    """Allocate an instance in which no single good is worth more than a
    1/3.53 fraction of the welfare estimate: sw_estimate, then the re-cut."""
    est = sw_estimate(inst, backend, budget)
    return _recut(inst.valuation, est.alloc, est.f_value, full_set(inst.m), constants)


def _recut(
    v, alloc: tuple[int, ...], f: float, goods: int, constants: AlgConstants
) -> tuple[int, ...]:
    """Re-cut an estimate's allocation of the goods bitmask, worth f on average.

    Sorts its bundles by descending value and moves goods one at a time into
    output bundles, starting a new bundle as soon as the next good would lift
    the current one to a third of the estimate; whatever is left lands in the
    last bundle.  The low-value hypothesis is not checked up front: if it fails
    badly enough, the source bundles run out early and PreconditionViolated is
    raised.
    """
    bar = f * constants.alglow_fraction
    u = len(alloc)
    if bar <= EPS:
        # worthless instance: any split meets every bound trivially
        return (0,) * (u - 1) + (goods,)

    order = sorted(range(u), key=lambda i: (-value(v, alloc[i]), i))
    sources = [goods_of(alloc[i]) for i in order]

    bundles = [0] * u
    a = 0
    i = 0
    while a < u - 1:
        if i >= u:
            raise PreconditionViolated(
                "source bundles ran out before every agent was served; "
                "a good above the low-value bar can cause this"
            )
        if sources[i]:
            g = sources[i][0]
            if value(v, bundles[a] | (1 << g)) < bar - EPS:
                bundles[a] |= 1 << g
                sources[i].pop(0)
            else:
                a += 1
        remaining_mask = 0
        for g in sources[i]:
            remaining_mask |= 1 << g
        if value(v, remaining_mask) < bar - EPS:
            i += 1

    assigned = 0
    for b in bundles[: u - 1]:
        assigned |= b
    bundles[u - 1] = goods & ~assigned
    return tuple(bundles)


def extract_subbundles(
    subset: int,
    v,
    f: float,
    constants: AlgConstants = CONSTANTS,
) -> list[int]:
    """Peel a high-value set into sub-bundles each worth at least f/20.

    Fills a sub-bundle good by good in ascending index, handing the good back
    the moment it would push the fill past f/3, and repeats while the remainder
    is still worth more than f/3.  Yields at least ceil(3*v(subset)/f - 1)
    sub-bundles.  Requires f > 0, v(subset) >= f/3, and every good in the
    subset worth at most f/3.53.
    """
    if not f > 0.0:
        raise PreconditionViolated("need a positive welfare estimate f")
    bar = f * constants.alglow_fraction
    if value(v, subset) < bar - EPS:
        raise PreconditionViolated("subset is worth less than f/3")
    single_cap = f / constants.phase1_divisor + EPS
    for g in goods_of(subset):
        if value(v, 1 << g) > single_cap:
            raise PreconditionViolated(f"good {g} exceeds the low-value cap f/3.53")

    parts: list[int] = []
    remaining = goods_of(subset)
    remaining_mask = subset
    while value(v, remaining_mask) > bar + EPS:
        part = 0
        for g in list(remaining):
            if part and value(v, part | (1 << g)) > bar + EPS:
                break
            part |= 1 << g
            remaining.remove(g)
            remaining_mask &= ~(1 << g)
        parts.append(part)
    return parts
