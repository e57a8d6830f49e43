"""Two-phase allocation of indivisible goods under one shared subadditive valuation.

Phase one (alg) walks the goods in non-increasing singleton value and hands a
good to its own agent whenever that good alone is worth at least a 1/3.53
fraction of the current sub-instance's social-welfare estimate; each such
assignment removes the good and one agent.  Phase two (alg_low) takes over once
no good clears the bar: it takes the welfare subroutine's allocation and
re-cuts its high-value bundles good by good so every remaining agent ends up
with at least a 1/20 fraction of the estimate.

Both phases work on goods bitmasks.  Phase one keeps the mask of the goods not
yet handed out, and every estimate comes from one swmax.estimator on such masks
for either backend: the exact one reads each sub-instance's optimum from a
single p = 1 subset DP over the whole instance, the greedy one deals the goods
left round-robin, and neither restricts the valuation.  Phase two re-cuts the
estimate that stopped phase one instead of computing it again, taking each
source bundle's lowest good with s & -s.  A closed phase-two bundle stopped
short of f/3 only because its next good, worth under f/3.53, would have lifted
it there, so by subadditivity it is worth at least f * (1/3 - 1/3.53) >= f/20.

The paper proves its factor of 40 for the fixed constants 3.53, 11.33, 20 and
40, not for a family of settings, so they are module constants below and
nothing takes them as options; analysis, oracle and cli read them from here,
with SPLIT_EXPONENT, the 0.4 at which the analysis changes arguments.

All threshold comparisons accept an absolute slack of EPS on the >= side.
Every tie is broken by ascending good index (bundle sorts by descending value,
then ascending original position), so identical inputs give identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import PreconditionViolated
from .swmax import EXACT, Guarantee, SubsetDP, SwEstimate, estimator
from .valuations import EPS, Instance, full_set, value

PHASE1_DIVISOR = 3.53  # phase one: a good worth f/3.53 alone becomes a singleton
ALGLOW_FRACTION = 1.0 / 3.0  # phase two: a bundle closes before it reaches f/3
COMBINED_DIVISOR = 2 * PHASE1_DIVISOR  # 7.06, in the doubling inequality of analysis
HIGH_BUNDLE_FACTOR = 11.33  # the structural lemma's "very high" bundle, times f
APPROX_FACTOR = 40.0  # the guarantee: within 1/40 of the optimum at every p
SPLIT_EXPONENT = 0.4  # the structural lemma covers p below it, the doubling inequalities the rest


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
    inst: Instance, backend: str = EXACT, dp: SubsetDP | None = None
) -> tuple[tuple[int, ...], AlgTrace]:
    """Run both phases and return a complete n-bundle allocation plus its trace.

    The exact backend estimates from the subset-DP set-up dp, which a caller
    may share with the oracle, or else from SubsetDP(inst) (swmax.estimator).

    The singleton loop additionally stops when only one agent is left (that
    agent then receives everything still unassigned, which can only help every
    welfare objective) and when the best remaining good is worthless (an
    all-zero tail makes any allocation optimal).  When it stops below the bar,
    alg_low re-cuts the estimate that stopped it instead of asking again.
    """
    v = inst.valuation
    single = [value(v, 1 << j) for j in range(inst.m)]
    estimate = estimator(inst, backend, dp)

    trace = AlgTrace()
    left = full_set(inst.m)  # the goods not yet handed out
    agents = inst.n
    stop = None  # the estimate that stopped phase one below the bar, if one did

    for g in sorted(range(inst.m), key=lambda j: -single[j]):
        if agents == 1 or single[g] <= 0.0:
            break
        tail = estimate(left, agents)
        trace.f_values.append(tail.f_value)
        if single[g] < tail.f_value / PHASE1_DIVISOR - EPS:
            stop = tail
            break
        trace.singleton_goods.append(g)
        left &= ~(1 << g)
        agents -= 1

    est = stop or estimate(left, agents)
    phase2 = alg_low(v, est, left)

    trace.k = len(trace.singleton_goods)
    trace.phase2_bundles = list(phase2)
    trace.guarantee = est.guarantee
    return tuple(1 << g for g in trace.singleton_goods) + phase2, trace


def alg_low(v, est: SwEstimate, goods: int) -> tuple[int, ...]:
    """Phase two: re-cut the estimate's allocation of the goods bitmask, worth
    est.f_value on average, into len(est.alloc) bundles.

    Sorts its bundles by descending value and moves each one's lowest good at a
    time into the open output bundle, closing it as soon as the next good would
    lift it to a third of the estimate; a source is done once what is left of it
    is worth less than that third, and whatever no closed bundle took lands in
    the last bundle.  The low-value hypothesis is not checked up front: if it
    fails badly enough, the sources run out early and PreconditionViolated is
    raised.  A whole instance is re-cut with
    alg_low(inst.valuation, sw_estimate(inst, backend), full_set(inst.m)).
    """
    bar = est.f_value * ALGLOW_FRACTION
    u = len(est.alloc)
    if bar <= EPS:
        # worthless instance: any split meets every bound trivially
        return (0,) * (u - 1) + (goods,)

    sources = sorted(est.alloc, key=lambda s: -value(v, s))
    closed: list[int] = []
    assigned = bundle = 0
    i = 0
    while len(closed) < u - 1:
        if i >= u:
            raise PreconditionViolated(
                "source bundles ran out before every agent was served; "
                "a good above the low-value bar can cause this"
            )
        s = sources[i]
        if s:
            low = s & -s
            if value(v, bundle | low) < bar - EPS:
                bundle |= low
                s ^= low
                sources[i] = s
            else:
                closed.append(bundle)
                assigned |= bundle
                bundle = 0
        if value(v, s) < bar - EPS:
            i += 1
    return tuple(closed) + (goods & ~assigned,)
