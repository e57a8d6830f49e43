"""Acceptance gate: every stated guarantee checked end to end at its pinned
tolerance, one printed PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines and the
logged worst-case ratios.

Criterion 4 is split: 4a covers the mean properties and the optimum-dominance
check; 4b is the minimum-proxy gate.  The p = -30 mean of a positive vector of
length n lies between min x and min x * n^(1/30), and the upper end is
approached when the other entries dwarf the minimum, so its attainable
deviation from the minimum is n^(1/30) - 1.  That is 4.73% at n = 4 but 5.51%
to 7.18% at n = 5..8, so a 5% tolerance can hold only up to length 4.  4b
checks the bound at every length up to 8, the 5% tolerance at lengths up to 4,
and that the worst deviation seen at lengths 5..8 comes within 1e-3 of the
bound.
"""

import math
import time

import numpy as np
import pytest

from pmean.allocator import PHASE1_DIVISOR, alg, alg_low
from pmean.analysis import check_sign_ranges, check_upper_range_constants, f, locate_root
from pmean.cli import generate_instance
from pmean.errors import PreconditionViolated
from pmean.hardness import (
    generate_no_instance,
    generate_yes_instance,
    max_matching_brute,
    reduce,
)
from pmean.means import NEG_INF, p_mean, p_mean_welfare
from pmean.oracle import check_structural_lemma, p_opt_brute
from pmean.swmax import enumerate_labeled_partitions, sw_estimate
from pmean.valuations import (
    EPS,
    Additive,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    demand,
    iter_goods,
    value,
)

from helpers import FAMILIES, brute_demand

P_GRID = [
    ("-inf", NEG_INF),
    ("-4", -4.0),
    ("-1", -1.0),
    ("-0.5", -0.5),
    ("0", 0.0),
    ("0.25", 0.25),
    ("0.4", 0.4),
    ("0.7", 0.7),
    ("1", 1.0),
]

RATIO_FLOOR = 1.0 / 40.0


def _report(tag, ok, detail=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


def _suite_instances(seeds=range(50)):
    for family in FAMILIES:
        for n in (2, 3):
            for m in (4, 6, 8):
                for seed in seeds:
                    yield family, n, m, seed, generate_instance(family, n, m, seed)


def test_criterion_1_uniform_ratio_suite():
    start = time.time()
    worst = math.inf
    worst_cell = None
    cells = vacuous = 0
    failures = []
    for family, n, m, seed, inst in _suite_instances():
        alloc, _ = alg(inst)
        for token, p in P_GRID:
            cells += 1
            opt = p_opt_brute(inst, p).welfare
            if opt <= 0.0:
                vacuous += 1
                continue
            ratio = p_mean_welfare(inst, alloc, p) / opt
            if ratio < worst:
                worst, worst_cell = ratio, (family, n, m, seed, token)
            if ratio < RATIO_FLOOR - 1e-9:
                failures.append((family, n, m, seed, token, ratio))
    elapsed = time.time() - start
    ok = not failures and elapsed < 300
    detail = (
        f"{cells} cells, {vacuous} vacuous, worst ratio {worst:.4f} at {worst_cell}, "
        f"floor {RATIO_FLOOR:.4f}, {elapsed:.1f}s"
    )
    assert _report("1 uniform-ratio", ok, detail), failures[:5]


def _low_value_corpus():
    """Narrow-band draws keep every good below the estimate/3.53 bar.

    Two agents need eight near-equal goods for that; three agents need twelve
    (with fewer, the largest good always exceeds a 1/3.53 share of the
    per-agent average), so the three-agent slice is smaller.
    """
    for family in FAMILIES:
        for seed in range(60):
            rng = np.random.default_rng(4000 + seed)
            draw = lambda: tuple(round(float(x), 6) for x in rng.uniform(85, 100, 8))
            if family == "additive":
                val = Additive(draw())
            elif family == "budget_additive":
                w = draw()
                val = BudgetAdditive(w, round(0.7 * sum(w), 6))
            elif family == "xos":
                val = Xos(tuple(draw() for _ in range(3)))
            else:
                x = Xos(tuple(draw() for _ in range(3)))
                val = ExplicitTable(tuple(value(x, s) for s in range(1 << 8)))
            yield Instance(2, val)
    for seed in range(6):
        rng = np.random.default_rng(4600 + seed)
        wide = tuple(round(float(x), 6) for x in rng.uniform(90, 100, 12))
        yield Instance(3, Additive(wide))
        clauses = tuple(
            tuple(round(float(x), 6) for x in rng.uniform(90, 100, 12)) for _ in range(2)
        )
        yield Instance(3, Xos(clauses))


def test_criterion_2_per_bundle_floors():
    kept = 0
    worst_f = worst_opt = math.inf
    failures = []
    raised = 0
    for inst in _low_value_corpus():
        f_val = sw_estimate(inst).f_value
        bar = f_val / PHASE1_DIVISOR
        if any(value(inst.valuation, 1 << g) > bar + EPS for g in range(inst.m)):
            continue
        kept += 1
        try:
            bundles = alg_low(inst)
        except PreconditionViolated:
            raised += 1
            continue
        opt1 = p_opt_brute(inst, 1.0).welfare
        for b in bundles:
            worth = value(inst.valuation, b)
            worst_f = min(worst_f, worth - f_val / 20)
            worst_opt = min(worst_opt, worth - opt1 / 40)
            if worth < f_val / 20 - 1e-9 or worth < opt1 / 40 - 1e-9:
                failures.append((inst, worth, f_val, opt1))
    ok = kept >= 200 and raised == 0 and not failures
    detail = (
        f"{kept} hypothesis instances, {raised} precondition errors, "
        f"min slack over f/20: {worst_f:.3f}, over opt1/40: {worst_opt:.3f}"
    )
    assert _report("2 per-bundle-floors", ok, detail)


def test_criterion_3_inequality_suite():
    start = time.time()
    checks = {
        "f(0) exactly 0": f(0.0) == 0.0,
        "f(0.4) > 0": f(0.4) > 0.0,
        "f(0.41) < 0": f(0.41) < 0.0,
    }
    ranges = check_sign_ranges()
    upper = check_upper_range_constants()
    # the grids are fixed in analysis; pin them through the report
    checks["grids (-50, 0.01, 0.001, 0.001)"] = (
        ranges["negative_range"]["lo"],
        ranges["negative_range"]["step"],
        ranges["positive_range"]["step"],
        upper["grid"]["step"],
    ) == (-50.0, 0.01, 0.001, 0.001)
    checks["f <= 1e-12 on [-50, 0) step 0.01"] = ranges["negative_range"]["ok"]
    checks["f >= -1e-12 on (0, 0.4] step 0.001"] = ranges["positive_range"]["ok"]
    root = locate_root()
    checks["root in (0.4, 0.41)"] = 0.4 < root < 0.41
    checks["|f(root)| < 1e-12"] = abs(f(root)) < 1e-12
    checks["2*7.06^p <= 40^p on [0.4, 1]"] = upper["doubling_ok"]
    checks["40^p > 2 on [0.4, 1]"] = upper["above_two_ok"]
    elapsed = time.time() - start
    checks["runtime < 1s"] = elapsed < 1.0
    bad = [name for name, ok in checks.items() if not ok]
    assert _report("3 inequalities", not bad, f"root={root:.6f}, {elapsed * 1000:.0f}ms"), bad


def _random_positive_vectors(count=1000, max_len=8, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, max_len + 1))
        yield list(np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n)))


def test_criterion_4a_mean_properties_and_optimum_dominance():
    grid = [NEG_INF, -4.0, -1.0, -0.5, 0.0, 0.25, 0.5, 1.0]
    bad = []
    rng = np.random.default_rng(7)
    for x in _random_positive_vectors():
        vals = [p_mean(x, p) for p in grid]
        if any(lo > hi + 1e-9 for lo, hi in zip(vals, vals[1:])):
            bad.append(("monotone", x))
        c = float(np.exp(rng.uniform(-2, 2)))
        if any(
            abs(p_mean([c * xi for xi in x], p) - c * mp) > 1e-9 * max(1.0, c * mp)
            for p, mp in zip(grid, vals)
        ):
            bad.append(("scale", x))
        perm = list(x)
        rng.shuffle(perm)
        if any(abs(p_mean(perm, p) - mp) > 1e-9 * max(1.0, mp) for p, mp in zip(grid, vals)):
            bad.append(("permutation", x))
        m0 = p_mean(x, 0.0)
        if abs(p_mean(x, 1e-6) - m0) > 1e-4 * m0:
            bad.append(("continuity-at-0", x))
        withzero = [0.0] + list(x)
        if any(p_mean(withzero, p) != 0.0 for p in (NEG_INF, -1.0, 0.0)):
            bad.append(("zero-handling", x))

    dominance_checked = 0
    for family in FAMILIES:
        for seed in range(20):
            inst = generate_instance(family, 2, 5, 9000 + seed)
            opt1 = p_opt_brute(inst, 1.0).welfare
            for _, p in P_GRID:
                dominance_checked += 1
                if p_opt_brute(inst, p).welfare > opt1 + 1e-9:
                    bad.append(("optimum-dominance", (family, seed, p)))
    ok = not bad
    assert _report(
        "4a mean-properties", ok, f"1000 vectors, {dominance_checked} dominance cells"
    ), bad[:5]


def test_criterion_4b_minimum_proxy_tolerance():
    # min x <= M_{-30}(x) <= min x * n^(1/30), the upper end approached as the
    # other entries dwarf the minimum; 5% is implied only for n <= 4.  The
    # tightness check at n = 5..8 keeps a mean that returned min x from passing.
    worst = {}
    violations = 0
    total = 0
    for x in _random_positive_vectors(seed=2025):
        total += 1
        n = len(x)
        lo = min(x)
        proxy = p_mean(x, -30.0)
        dev = abs(proxy - lo) / lo
        worst[n] = max(worst.get(n, 0.0), dev)
        within_bound = lo * (1 - 1e-12) <= proxy <= lo * n ** (1 / 30) * (1 + 1e-12)
        if not within_bound or (n <= 4 and dev > 0.05):
            violations += 1
    loose = [n for n in range(5, 9) if abs(worst.get(n, 0.0) - (n ** (1 / 30) - 1)) > 1e-3]
    ok = violations == 0 and not loose
    detail = (
        f"{violations}/{total} vectors outside n^(1/30)-1 or the 5% gate at n <= 4, "
        f"lengths 5..8 whose worst is not within 1e-3 of it: {loose or 'none'}, "
        f"worst {max(worst.values()):.4f} vs 8^(1/30)-1 = {8 ** (1 / 30) - 1:.4f}"
    )
    assert _report("4b minimum-proxy-tolerance", ok, detail)


def _dominant_good_draws(seeds=range(5)):
    """Seeded n = 6, m = 7 instances in every family: one good drawn in
    [50, 150] at a drawn position, the other six in [0, 0.1], so a p-optimal
    bundle can be worth more than 11.33 times half the average optimum."""
    for family in FAMILIES:
        for seed in seeds:
            rng = np.random.default_rng(5500 + seed)
            weights = [round(float(x), 6) for x in rng.uniform(0.0, 0.1, 7)]
            big = round(float(rng.uniform(50.0, 150.0)), 6)
            weights[int(rng.integers(7))] = big
            weights = tuple(weights)
            if family == "additive":
                yield Instance(6, Additive(weights))
            elif family == "budget_additive":
                yield Instance(6, BudgetAdditive(weights, round(1.5 * big, 6)))
            else:
                tiny = tuple(round(float(x), 6) for x in rng.uniform(0.0, 0.1, 7))
                xos = Xos((weights, tiny))
                table = ExplicitTable(tuple(value(xos, s) for s in range(1 << 7)))
                yield Instance(6, xos if family == "xos" else table)


def test_criterion_5_structural_suite():
    random_checked = vacuous = 0
    bad = []
    for p in (NEG_INF, -1.0, 0.0, 0.25):
        for seed in range(50):
            rng = np.random.default_rng(5000 + seed)
            family = FAMILIES[seed % 4]
            n = 2 + seed % 2
            inst = generate_instance(family, n, 6, 5000 + seed)
            opt1 = p_opt_brute(inst, 1.0).welfare
            random_checked += 1
            if not check_structural_lemma(inst, p, opt1):
                bad.append(("random", family, seed, p))
            opt = p_opt_brute(inst, p)
            if all(
                value(inst.valuation, b) <= 11.33 * opt1 + EPS for b in opt.alloc
            ):
                vacuous += 1

    tiny = (0.01, 0.02, 0.01, 0.03, 0.02, 0.01)
    adversarial = [
        Instance(6, Additive((100.0,) + tiny)),
        Instance(6, Additive(tiny[:3] + (100.0,) + tiny[3:])),
        Instance(6, BudgetAdditive((100.0,) + tiny, 150.0)),
        Instance(6, Xos(((100.0,) + tiny, (0.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)))),
        Instance(
            6,
            ExplicitTable(
                tuple(
                    value(Xos(((100.0,) + tiny,)), s) for s in range(1 << 7)
                )
            ),
        ),
    ]
    nonvacuous = {"adversarial": 0, "drawn": 0}
    cases = [("adversarial", idx, inst) for idx, inst in enumerate(adversarial)]
    cases += [("drawn", idx, inst) for idx, inst in enumerate(_dominant_good_draws())]
    for kind, idx, inst in cases:
        half_opt1 = p_opt_brute(inst, 1.0).welfare / 2
        for p in (NEG_INF, -1.0, 0.0, 0.25):
            opt = p_opt_brute(inst, p)
            premise = [
                b for b in opt.alloc if value(inst.valuation, b) > 11.33 * half_opt1
            ]
            if premise:
                nonvacuous[kind] += 1
            if not check_structural_lemma(inst, p, half_opt1):
                bad.append((kind, idx, p))
    drawn = len(cases) - len(adversarial)
    ok = not bad and nonvacuous["adversarial"] > 0 and nonvacuous["drawn"] > 0
    detail = (
        f"{random_checked} random checks ({vacuous} premise-vacuous), "
        f"5 dominant-good instances with {nonvacuous['adversarial']} non-vacuous cells, "
        f"{drawn} drawn dominant-good instances with {nonvacuous['drawn']} of "
        f"{4 * drawn} cells non-vacuous"
    )
    assert _report("5 structural", ok, detail), bad[:5]


def test_criterion_6_gap_suite():
    bad = []
    for q in (1, 2, 3):
        inst = reduce(generate_yes_instance(q, seed=q))
        for token, p in P_GRID:
            if abs(p_opt_brute(inst, p).welfare - 3.0) > 1e-9:
                bad.append(("yes", q, token))
    alphas = []
    for q in (2, 3):
        gadget = generate_no_instance(q, seed=q)
        alpha = len(max_matching_brute(gadget)) / q
        alphas.append(alpha)
        inst = reduce(gadget)
        for token, p in P_GRID:
            if p_opt_brute(inst, p).welfare > 2 + alpha + 1e-9:
                bad.append(("no", q, token))

    gadget = generate_yes_instance(3, seed=11)
    inst = reduce(gadget)
    rng = np.random.default_rng(42)
    demand_checked = 0
    for _ in range(100):
        prices = [float(x) for x in rng.uniform(-1.5, 2.5, 9)]
        subset, util = demand(inst.valuation, prices)
        _, best = brute_demand(inst.valuation, prices)
        attained = value(inst.valuation, subset) - sum(prices[j] for j in iter_goods(subset))
        demand_checked += 1
        if abs(util - best) > 1e-9 or abs(attained - util) > 1e-9:
            bad.append(("demand", prices))
    ok = not bad
    detail = f"yes q=1..3 all 3.0, no-side alphas {alphas}, {demand_checked} demand vectors"
    assert _report("6 matching-gap", ok, detail), bad[:5]


def test_criterion_7_oracle_cross_checks():
    bad = []
    checked = 0
    for family, n, m, seed, inst in _suite_instances(seeds=range(10)):
        checked += 1
        exact = sw_estimate(inst).f_value
        opt1 = p_opt_brute(inst, 1.0).welfare
        if abs(exact - opt1) > 1e-9:
            bad.append((family, n, m, seed, exact, opt1))
    counts_ok = True
    for m, n in ((3, 2), (4, 2), (4, 3)):
        allocs = list(enumerate_labeled_partitions(m, n))
        if len(allocs) != n**m or len(set(allocs)) != n**m:
            counts_ok = False
            bad.append(("count", m, n, len(allocs)))
    ok = not bad and counts_ok
    assert _report(
        "7 oracle-cross-checks", ok, f"{checked} instances, partition counts 8/16/81"
    ), bad[:5]
