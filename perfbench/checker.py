"""Output checker for the benchmark, written apart from the pmean package.

It reads instances in pmean's JSON instance layout
(``{"n": int, "valuation": {"type": ..., ...}}``) and recomputes everything it
checks with its own code: bundle values (a sum, ``min(cap, sum)``, the largest
clause sum or a table lookup), generalized means, and exact optima (a scan of
the 2^m splits for two agents, a subset DP over submask pairs for three or
more).  Nothing here imports pmean, so a fault in pmean cannot hide itself.

Every ``check_*`` function returns a list of problem strings; an empty list
means the outputs passed.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence

import numpy as np

NEG_INF = float("-inf")
RATIO_FLOOR = 1.0 / 40.0
REL_TOL = 1e-9
ABS_TOL = 1e-9
# the one failure greedy_wide expects: budget-additive demand refuses m > 24
NAMED_FAULT = "error: budget-additive demand enumerates subsets"


def close(a: float, b: float) -> bool:
    return abs(a - b) <= ABS_TOL + REL_TOL * max(abs(a), abs(b))


def leq(a: float, b: float) -> bool:
    return a <= b + ABS_TOL + REL_TOL * max(abs(a), abs(b))


def goods_count(inst: dict) -> int:
    val = inst["valuation"]
    if val["type"] in ("additive", "budget_additive"):
        return len(val["weights"])
    if val["type"] == "xos":
        return len(val["clauses"][0])
    return len(val["table"]).bit_length() - 1


def bundle_value(inst: dict, goods: Sequence[int]) -> float:
    """v(S) for a list of good indices, straight from the instance data."""
    val = inst["valuation"]
    kind = val["type"]
    if kind == "additive":
        return math.fsum(val["weights"][j] for j in goods)
    if kind == "budget_additive":
        return min(val["cap"], math.fsum(val["weights"][j] for j in goods))
    if kind == "xos":
        return max(math.fsum(c[j] for j in goods) for c in val["clauses"])
    if kind == "explicit":
        return val["table"][sum(1 << j for j in goods)]
    raise ValueError(f"unknown valuation type {kind!r}")


def _subset_sums(weights: Sequence[float]) -> np.ndarray:
    sums = np.zeros(1 << len(weights))
    for j, w in enumerate(weights):
        half = 1 << j
        sums[half : 2 * half] = sums[:half] + w
    return sums


def value_table(inst: dict) -> np.ndarray:
    """v over all 2^m subsets, indexed by bitmask (good j at bit j)."""
    val = inst["valuation"]
    kind = val["type"]
    if kind == "additive":
        return _subset_sums(val["weights"])
    if kind == "budget_additive":
        return np.minimum(val["cap"], _subset_sums(val["weights"]))
    if kind == "xos":
        table = _subset_sums(val["clauses"][0])
        for clause in val["clauses"][1:]:
            np.maximum(table, _subset_sums(clause), out=table)
        return table
    return np.asarray(val["table"], dtype=float)


def pmean(values: Sequence[float], p: float) -> float:
    """Generalized mean by its defining formula, with the p <= 0 zero rule."""
    vals = [float(x) for x in values]
    n = len(vals)
    if p == NEG_INF:
        return min(vals)
    if p <= 0.0 and min(vals) == 0.0:
        return 0.0
    if p == 0.0:
        return math.exp(math.fsum(math.log(x) for x in vals) / n)
    return (math.fsum(x**p for x in vals) / n) ** (1.0 / p)


# ---------------------------------------------------------------------------
# exact optima
#
# A p-mean ranks allocations by a sum over bundles of g(v) (or by the minimum
# for p = -inf), so the best n-bundle split of S is the best choice of one
# bundle T inside S plus the best (n-1)-bundle split of S \ T.


def _gain(values: np.ndarray, p: float) -> np.ndarray:
    """Per-bundle score to maximize: v^p (p > 0), log v (p = 0), -v^p (p < 0)."""
    with np.errstate(divide="ignore"):
        if p == 0.0:
            return np.log(values)
        if p > 0.0:
            return values**p
        return np.where(values > 0.0, -(np.where(values > 0.0, values, 1.0) ** p), -np.inf)


def _welfare_from_score(score: float, n: int, p: float) -> float:
    if p == NEG_INF:
        return score
    if p == 0.0:
        return 0.0 if score == -np.inf else math.exp(score / n)
    if p < 0.0:
        return 0.0 if score == -np.inf else (-score / n) ** (1.0 / p)
    return (score / n) ** (1.0 / p)


_PAIRS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


def _submask_pairs(m: int):
    """All (S, T) with T a subset of S, grouped by S ascending: 3^m pairs.

    Returns (S, T, starts), where starts[s] is the first pair with S == s.
    """
    if m not in _PAIRS:
        s = np.zeros(1, dtype=np.int64)
        t = np.zeros(1, dtype=np.int64)
        for j in range(m):
            bit = 1 << j
            s = np.concatenate([s, s | bit, s | bit])
            t = np.concatenate([t, t, t | bit])
        order = np.argsort(s, kind="stable")
        s, t = s[order], t[order]
        starts = np.searchsorted(s, np.arange(1 << m))
        _PAIRS[m] = (s, t, starts)
    return _PAIRS[m]


def optimum(inst: dict, p: float, table: np.ndarray | None = None) -> float:
    """Optimal p-mean welfare over every split of the m goods into n bundles."""
    n, m = inst["n"], goods_count(inst)
    if table is None:
        table = value_table(inst)
    full = (1 << m) - 1
    if n == 1:
        return float(table[full])
    if n == 2:
        a = table
        b = table[full ^ np.arange(1 << m)]
        if p == NEG_INF:
            return float(np.minimum(a, b).max())
        return _welfare_from_score(float((_gain(a, p) + _gain(b, p)).max()), n, p)

    s, t, starts = _submask_pairs(m)
    if p == NEG_INF:
        best = table.copy()
        for _ in range(n - 2):
            best = np.maximum.reduceat(np.minimum(table[t], best[s ^ t]), starts)
        return float(np.minimum(table, best[full ^ np.arange(1 << m)]).max())
    gain = _gain(table, p)
    best = gain.copy()
    for _ in range(n - 2):
        best = np.maximum.reduceat(gain[t] + best[s ^ t], starts)
    return _welfare_from_score(float((gain + best[full ^ np.arange(1 << m)]).max()), n, p)


# ---------------------------------------------------------------------------
# checks


def check_partition(bundles: Sequence[Sequence[int]], n: int, m: int) -> list[str]:
    """Bundles must be n disjoint lists of goods that together hold all m goods."""
    problems = []
    if len(bundles) != n:
        problems.append(f"{len(bundles)} bundles for {n} agents")
    seen: list[int] = []
    for b in bundles:
        seen.extend(b)
    if sorted(seen) != list(range(m)):
        dup = len(seen) - len(set(seen))
        missing = m - len(set(seen) & set(range(m)))
        problems.append(f"not a partition of {m} goods ({dup} repeated, {missing} missing)")
    return problems


def check_welfare(inst: dict, bundles, p: float, reported: float, what: str) -> list[str]:
    """The reported p-mean welfare of an allocation must match a recomputation."""
    mine = pmean([bundle_value(inst, b) for b in bundles], p)
    if not close(mine, reported):
        return [f"{what} at p={p}: reported {reported!r}, recomputed {mine!r}"]
    return []


def check_exact_cells(
    inst: dict,
    exponents: Sequence[float],
    alg_welfare: Sequence[float],
    opt_welfare: Sequence[float],
    table: np.ndarray | None = None,
) -> list[str]:
    """Rows of one exactly solved instance: the optimum matches this module's
    optimizer, alg <= opt, opt_p <= opt_1, and the ratio clears 1/40 wherever
    the optimum is positive.  ``exponents`` must include 1."""
    problems = []
    if table is None:
        table = value_table(inst)
    opt_one = opt_welfare[list(exponents).index(1.0)]
    for p, a, o in zip(exponents, alg_welfare, opt_welfare):
        mine = optimum(inst, p, table)
        if not close(mine, o):
            problems.append(f"optimum at p={p}: reported {o!r}, independent {mine!r}")
        if not leq(a, o):
            problems.append(f"alg {a!r} above optimum {o!r} at p={p}")
        if not leq(o, opt_one):
            problems.append(f"optimum {o!r} at p={p} above the p=1 optimum {opt_one!r}")
        if o > 0.0 and a / o < RATIO_FLOOR - ABS_TOL:
            problems.append(f"ratio {a / o:.6f} below 1/40 at p={p}")
    return problems


def check_heuristic_cells(
    inst: dict, exponents: Sequence[float], alg_welfare: Sequence[float]
) -> list[str]:
    """Rows of an instance solved without an exact optimum: the p-mean does not
    decrease as p rises, and the average welfare stays within the certified
    bound min(v(M), sum_j v({j}) / n) that subadditivity and monotonicity give."""
    problems = []
    ranked = sorted(zip(exponents, alg_welfare))
    for (p_lo, w_lo), (p_hi, w_hi) in zip(ranked, ranked[1:]):
        if not leq(w_lo, w_hi):
            problems.append(f"p-mean falls from {w_lo!r} at p={p_lo} to {w_hi!r} at p={p_hi}")
    n, m = inst["n"], goods_count(inst)
    bound = min(
        bundle_value(inst, range(m)),
        math.fsum(bundle_value(inst, [j]) for j in range(m)) / n,
    )
    average = dict(ranked).get(1.0)
    if average is not None and not leq(average, bound):
        problems.append(f"average welfare {average!r} above certified bound {bound!r}")
    return problems


# ---------------------------------------------------------------------------
# benchmark records: one JSON object per operation, as the benchmark writes them


def _check_solution(inst: dict, allocation, exponents, alg_welfare, what: str) -> list[str]:
    problems = check_partition(allocation, inst["n"], goods_count(inst))
    if problems:
        return [f"{what}: {x}" for x in problems]
    for p, w in zip(exponents, alg_welfare):
        problems += check_welfare(inst, allocation, p, w, what)
    return problems


def _check_library(rec: dict) -> list[str]:
    inst = rec["instance"]
    exponents = [float(t) for t in rec["exponents"]]
    problems = _check_solution(inst, rec["allocation"], exponents, rec["alg_welfare"], "alg")
    for p, opt in zip(exponents, rec["opt"]):
        problems += _check_solution(inst, opt["allocation"], [p], [opt["welfare"]], "optimum")
    if problems:
        return problems
    opt_welfare = [o["welfare"] for o in rec["opt"]]
    return check_exact_cells(inst, exponents, rec["alg_welfare"], opt_welfare)


def _load_report(run: dict, command: str) -> tuple[dict | None, list[str]]:
    if run["rc"] != 0:
        return None, [f"{command} exited {run['rc']}: {run['stderr'].strip()[:200]}"]
    return json.loads(run["stdout"]), []


def _check_report_values(inst: dict, report: dict, exponents) -> list[str]:
    allocation = report["allocation"]
    problems = _check_solution(
        inst, allocation, exponents, [row["alg_welfare"] for row in report["table"]], "alg"
    )
    for b, reported in zip(allocation, report["bundle_values"]):
        if not close(bundle_value(inst, b), reported):
            problems.append(f"bundle value {reported!r} of {b} does not match the instance")
    return problems


def _check_verify(rec: dict) -> list[str]:
    inst = json.loads(Path(rec["path"]).read_text())
    exponents = [float(t) for t in rec["exponents"]]
    solve, problems = _load_report(rec["solve"], "solve")
    verify, more = _load_report(rec["verify"], "verify")
    problems += more
    if problems:
        return problems
    if json.dumps(solve["allocation"]) != json.dumps(verify["allocation"]):
        problems.append("solve and verify returned different allocations")
    problems += _check_report_values(inst, solve, exponents)
    problems += _check_report_values(inst, verify, exponents)
    if problems:
        return problems
    rows = verify["table"]
    if [row["p"] for row in rows] != rec["exponents"]:
        return [f"verify rows {[row['p'] for row in rows]} for exponents {rec['exponents']}"]
    if not verify["all_pass"] or any(row["status"] == "fail" for row in rows):
        problems.append("verify reports a failing row")
    for row in rows:
        vacuous = row["opt_welfare"] <= 0.0
        if (row["status"] == "vacuous") != vacuous:
            problems.append(f"row p={row['p']} has status {row['status']!r}")
    alg_welfare = [row["alg_welfare"] for row in rows]
    opt_welfare = [row["opt_welfare"] for row in rows]
    return problems + check_exact_cells(inst, exponents, alg_welfare, opt_welfare)


def _check_greedy(rec: dict) -> list[str]:
    run = rec["solve"]
    if run["rc"] != 0:
        if rec["expect_fail"] and run["rc"] == 2 and run["stderr"].startswith(NAMED_FAULT):
            return []
        return [f"solve exited {run['rc']}: {run['stderr'].strip()[:200]}"]
    inst = json.loads(Path(rec["path"]).read_text())
    exponents = [float(t) for t in rec["exponents"]]
    report = json.loads(run["stdout"])
    problems = _check_report_values(inst, report, exponents)
    if problems:
        return problems
    return check_heuristic_cells(inst, exponents, [row["alg_welfare"] for row in report["table"]])


CHECKS = {"library": _check_library, "verify": _check_verify, "greedy": _check_greedy}


def check_records(path) -> dict:
    """Check every record of a results file; return a summary."""
    checked = 0
    problems: list[str] = []
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            checked += 1
            problems += [f"{rec['label']}: {x}" for x in CHECKS[rec["kind"]](rec)]
    return {"checked": checked, "problem_count": len(problems), "problems": problems[:20]}


if __name__ == "__main__":
    import sys

    print(json.dumps(check_records(sys.argv[1])))
