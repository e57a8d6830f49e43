import itertools
import math
import operator

import numpy as np
import pytest

from pmean import swmax
from pmean.allocator import alg
from pmean.errors import BudgetExceeded
from pmean.means import NEG_INF, p_mean_welfare
from pmean.oracle import check_monotonicity, check_structural_lemma, p_opt_brute, p_opt_grid
from pmean.swmax import sw_estimate
from pmean.valuations import Additive, BudgetAdditive, ExplicitTable, Instance, Xos, value

from helpers import FAMILIES, layer_pairs_reference, random_valuation, rescan_opts

P_GRID = [NEG_INF, -4.0, -1.0, 0.0, 0.25, 0.7, 1.0]


def zero_goods_valuation(family, rng, m, zeros=(0, 2)):
    """A random valuation of the family under which the listed goods are worth nothing."""
    drawn = random_valuation("xos", rng, m)
    clauses = tuple(
        tuple(0.0 if j in zeros else w for j, w in enumerate(c)) for c in drawn.clauses
    )
    if family == "additive":
        return Additive(clauses[0])
    if family == "budget_additive":
        return BudgetAdditive(clauses[0], round(0.6 * sum(clauses[0]), 6))
    if family == "xos":
        return Xos(clauses)
    return ExplicitTable(tuple(value(Xos(clauses), s) for s in range(1 << m)))


def test_single_agent():
    inst = Instance(1, Additive((4, 2)))
    res = p_opt_brute(inst, NEG_INF)
    assert res.alloc == (0b11,)
    assert res.welfare == pytest.approx(6.0)


def test_min_welfare_example():
    inst = Instance(2, Additive((10, 1, 1, 1)))
    # 16 labeled splits; the best min is {10} vs {1,1,1}
    res = p_opt_brute(inst, NEG_INF)
    assert res.welfare == pytest.approx(3.0)
    assert sorted(value(inst.valuation, b) for b in res.alloc) == [3.0, 10.0]


def test_mean_welfare_is_constant_for_additive():
    inst = Instance(2, Additive((10, 1, 1, 1)))
    assert p_opt_brute(inst, 1.0).welfare == pytest.approx(6.5)


def test_budget_guard():
    with pytest.raises(BudgetExceeded):
        swmax.SubsetDP(Instance(3, Additive((1.0,) * 12)), 1000)
    # 4 * 3^12 + 2^12 DP cells fit the default budget (6^12 partitions would not)
    six = Instance(6, Additive(tuple(float(j + 1) for j in range(12))))
    assert p_opt_brute(six, 1.0).welfare == pytest.approx(78.0 / 6.0)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("seed", range(3))
def test_matches_pure_python_rescan(family, seed):
    # n = 2, 3, 4; n > m leaves bundles empty, and zero-valued goods give
    # bundles worth 0, both of which score -inf at p <= 0
    rng = np.random.default_rng(1000 + seed)
    instances = [
        Instance(n, random_valuation(family, rng, m))
        for n, m in ((2, 6), (3, 6), (4, 5), (4, 3))
    ]
    instances.append(Instance(3, zero_goods_valuation(family, rng, 5)))
    for inst in instances:
        assert inst.n**inst.m <= 10_000
        for p, expected in zip(P_GRID, rescan_opts(inst, P_GRID)):
            res = p_opt_brute(inst, p)
            assert res.welfare == pytest.approx(p_mean_welfare(inst, res.alloc, p), abs=1e-9)
            assert res.welfare == pytest.approx(expected, abs=1e-9)


def rescan_tie_break(inst, p):
    """The optimum p_opt_brute returns, by enumerating every labeled
    partition with exact scores (integer values summed or minimized): the best
    score, then the lowest first bundle, then the best score of the bundles
    after it, the lowest second bundle, and so on.  At p = 1 that is the
    lexicographically smallest optimal partition.  At p = -inf it is not always:
    a lower later bundle can keep the minimum without splitting the rest best."""
    vals = [value(inst.valuation, s) for s in range(1 << inst.m)]
    combine = min if p == NEG_INF else operator.add
    best_key, best = None, None
    for labels in itertools.product(range(inst.n), repeat=inst.m):
        bundles = [0] * inst.n
        for j, agent in enumerate(labels):
            bundles[agent] |= 1 << j
        key, score = [], None
        for b in reversed(bundles):
            score = vals[b] if score is None else combine(vals[b], score)
            key[:0] = (-score, b)
        if best_key is None or key < best_key:
            best_key, best = key, tuple(bundles)
    return best


def integer_valuations(rng, m):
    """Integer-valued draws, so every sum is exact: all-equal goods, goods worth
    nothing, a binding cap, and XOS clauses as formulas and as a table."""
    equal = (5.0,) * m
    zeros = tuple(float(x) if j % 3 else 0.0 for j, x in enumerate(rng.integers(1, 10, m)))
    drawn = tuple(float(x) for x in rng.integers(0, 10, m))
    return [
        Additive(equal),
        Additive(zeros),
        BudgetAdditive(drawn, float(sum(drawn) // 2)),
        Xos((zeros, drawn)),
        ExplicitTable(tuple(value(Xos((equal, drawn)), s) for s in range(1 << m))),
    ]


def test_tie_break_is_the_rescan_minimum():
    rng = np.random.default_rng(1300)
    for n, m in ((2, 6), (3, 5), (3, 6), (4, 3), (4, 5)):
        for v in integer_valuations(rng, m):
            inst = Instance(n, v)
            for p in (NEG_INF, 1.0):
                assert p_opt_brute(inst, p).alloc == rescan_tie_break(inst, p)
            assert p_opt_grid(inst, P_GRID) == [p_opt_brute(inst, p) for p in P_GRID]


def test_extreme_exponents_match_rescan():
    # values spread over nine decades: v^p over- and underflows at p = -200,
    # and near p = 0 the power sum differs from n only in its last digits
    rng = np.random.default_rng(1051)
    ps = [-200.0, -1e-9, 1e-9]
    for n in (2, 3):
        for _ in range(10):
            inst = Instance(n, Additive(tuple(float(x) for x in 10 ** rng.uniform(-6, 3, 6))))
            for p, expected in zip(ps, rescan_opts(inst, ps)):
                assert p_opt_brute(inst, p).welfare == pytest.approx(expected, rel=1e-12)


BLOCK_PS = [NEG_INF, -200.0, -1.0, -1e-9, 0.0, 1e-9, 0.4, 1.0]


@pytest.mark.parametrize("block", [1, 5, 64, swmax._BLOCK])
def test_layer_pairs_match_the_itertools_reference(monkeypatch, block):
    monkeypatch.setattr(swmax, "_BLOCK", block)
    for m in range(9):
        blocks = swmax._layer_pairs(m)
        # the blocks, concatenated, are the index: their group starts shift by
        # the pairs of the blocks before them
        sub, rest, starts, p_lo = [], [], [], 0
        for block_sub, block_rest, block_starts, _, _ in blocks:
            sub += block_sub.tolist()
            rest += block_rest.tolist()
            starts += [p_lo + s for s in block_starts.tolist()]
            p_lo += block_sub.size
        assert [sub, rest, starts] == list(layer_pairs_reference(m))
        # a block starts with each group that holds pair number i * block, and
        # the blocks tile the groups and their pairs in order
        edges = starts + [len(sub)]
        firsts = sorted(
            {max(S for S in range(1 << m) if edges[S] <= i) for i in range(0, len(sub), block)}
        )
        los, his = [lo for *_, lo, _ in blocks], [hi for *_, hi in blocks]
        assert los == firsts and his == los[1:] + [1 << m]
        for block_sub, _, block_starts, lo, hi in blocks:
            assert lo < hi and block_starts.size == hi - lo
            assert block_sub.size == edges[hi] - edges[lo] < block + edges[lo + 1] - edges[lo]


@pytest.mark.parametrize(
    "n, m", [(2, 0), (3, 1), (5, 3), (2, 4), (5, 4), (4, 5), (3, 6), (2, 7), (2, 8)]
)
def test_blocked_engine_matches_one_block_and_rescan(monkeypatch, n, m):
    # blocks of 1 pair or split cut every middle layer and last-two-bundle
    # scan of these shapes, blocks of 5 and 64 cut them at other bounds; ties
    # between integer values and goods worth nothing must still go to the
    # first best, as in one block
    rng = np.random.default_rng(1500 + 10 * n + m)
    valuations = integer_valuations(rng, m)
    valuations += [random_valuation(family, rng, m) for family in FAMILIES]
    for v in valuations:
        inst = Instance(n, v)
        one_block = repr((p_opt_grid(inst, BLOCK_PS), alg(inst)))
        for block in (1, 5, 64):
            monkeypatch.setattr(swmax, "_BLOCK", block)
            assert repr((p_opt_grid(inst, BLOCK_PS), alg(inst))) == one_block
            monkeypatch.undo()
        for opt, expected in zip(p_opt_grid(inst, BLOCK_PS), rescan_opts(inst, BLOCK_PS)):
            assert opt.welfare == pytest.approx(expected, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("seed", range(5))
def test_optimum_is_monotone_in_p(seed):
    rng = np.random.default_rng(1100 + seed)
    inst = Instance(3, random_valuation("xos", rng, 6))
    opts = [p_opt_brute(inst, p).welfare for p in P_GRID]
    for lo, hi in zip(opts, opts[1:]):
        assert lo <= hi + 1e-9


def test_mean_optimum_agrees_with_sw_backend():
    rng = np.random.default_rng(1200)
    for family in FAMILIES:
        inst = Instance(3, random_valuation(family, rng, 5))
        assert p_opt_brute(inst, 1.0).welfare == pytest.approx(
            sw_estimate(inst).f_value, abs=1e-9
        )


def test_check_monotonicity_trivial_and_random():
    assert check_monotonicity(Instance(1, Additive((2, 3))), P_GRID)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        inst = Instance(2, random_valuation("additive", rng, 6))
        assert check_monotonicity(inst, P_GRID)


def test_structural_check_vacuous_when_no_bundle_is_high():
    # with the exact average optimum as the estimate, no bundle of a small
    # instance can be 11.33 times larger than it
    inst = Instance(3, Additive((50, 30, 20, 10, 5, 5)))
    opt1 = p_opt_brute(inst, 1.0).welfare
    assert check_structural_lemma(inst, -1.0, opt1)


def test_structural_check_dominant_good_is_its_own_witness():
    # one huge good; with a deliberately small estimate the premise fires and
    # the huge good itself is the witness
    inst = Instance(2, Additive((100.0, 0.001, 0.002)))
    assert check_structural_lemma(inst, -1.0, 5.0)


def test_structural_check_detects_a_genuine_counterexample_shape():
    # forty-one equal goods in one bundle have no single witness good; with a
    # tiny estimate the premise fires and the check must say no
    inst = Instance(1, Additive((1.0,) * 41))
    assert not check_structural_lemma(inst, 0.0, 0.01)


def test_structural_check_rejects_high_exponents():
    with pytest.raises(ValueError):
        check_structural_lemma(Instance(1, Additive((1,))), 0.7, 1.0)


def test_empty_exponent_grid_skips_the_budget_check():
    inst = Instance(8, Additive((1.0,) * 20))  # (8 - 2) * 3^20 cells, far over any budget
    assert p_opt_grid(inst, []) == []
    with pytest.raises(BudgetExceeded):
        p_opt_grid(inst, [1.0])
