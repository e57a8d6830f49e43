"""Tests of the benchmark's output checker (no pmean import).

    python3 perfbench/checker_selftest.py

The checker must accept correct outputs and reject a perturbed optimum, an
overlapping or incomplete allocation, and a ratio below 1/40.  Its optimizer is
compared with a plain enumeration of every labeled partition.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checker  # noqa: E402

EXPONENTS = [float("-inf"), -4.0, -1.0, -0.5, 0.0, 0.25, 0.4, 0.7, 1.0]


def random_instance(family: str, n: int, m: int, rng: random.Random) -> dict:
    draw = lambda: [round(rng.uniform(0, 100), 6) for _ in range(m)]
    if family == "additive":
        val = {"type": "additive", "weights": draw()}
    elif family == "budget_additive":
        w = draw()
        val = {"type": "budget_additive", "weights": w, "cap": round(0.5 * sum(w), 6)}
    elif family == "xos":
        val = {"type": "xos", "clauses": [draw() for _ in range(3)]}
    else:
        clauses = [draw() for _ in range(3)]
        table = [max(sum(c[j] for j in range(m) if s >> j & 1) for c in clauses) for s in range(1 << m)]
        val = {"type": "explicit", "table": table}
    return {"n": n, "valuation": val}


def enumerate_optimum(inst: dict, p: float) -> tuple[float, list[list[int]]]:
    n, m = inst["n"], checker.goods_count(inst)
    best, best_alloc = -1.0, None
    for labels in itertools.product(range(n), repeat=m):
        alloc = [[j for j in range(m) if labels[j] == i] for i in range(n)]
        w = checker.pmean([checker.bundle_value(inst, b) for b in alloc], p)
        if w > best:
            best, best_alloc = w, alloc
    return best, best_alloc


def library_record(inst: dict, alloc: list[list[int]]) -> dict:
    """A correct record for ``alloc``, with every optimum taken by enumeration."""
    opts = [enumerate_optimum(inst, p) for p in EXPONENTS]
    values = [checker.bundle_value(inst, b) for b in alloc]
    return {
        "kind": "library",
        "label": "selftest",
        "instance": inst,
        "exponents": [str(p) for p in EXPONENTS],
        "allocation": alloc,
        "alg_welfare": [checker.pmean(values, p) for p in EXPONENTS],
        "opt": [{"allocation": a, "welfare": w} for w, a in opts],
    }


def problems(rec: dict) -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "results.jsonl"
        path.write_text(json.dumps(rec) + "\n")
        summary = checker.check_records(path)
    return summary["problems"] if summary["problem_count"] else []


class PmeanTest(unittest.TestCase):
    def test_known_values(self):
        self.assertAlmostEqual(checker.pmean([1.0, 4.0], 0.0), 2.0)
        self.assertAlmostEqual(checker.pmean([1.0, 3.0], 1.0), 2.0)
        self.assertAlmostEqual(checker.pmean([2.0, 2.0], -1.0), 2.0)
        self.assertAlmostEqual(checker.pmean([1.0, 9.0], 0.5), 4.0)
        self.assertEqual(checker.pmean([3.0, 1.0], float("-inf")), 1.0)
        for p in (float("-inf"), -1.0, 0.0):
            self.assertEqual(checker.pmean([2.0, 0.0], p), 0.0)


class OptimumTest(unittest.TestCase):
    def test_matches_enumeration(self):
        rng = random.Random(7)
        for family in ("additive", "budget_additive", "xos", "explicit"):
            for n, m in ((1, 3), (2, 5), (3, 5), (4, 4), (5, 3)):
                inst = random_instance(family, n, m, rng)
                for p in EXPONENTS:
                    want, _ = enumerate_optimum(inst, p)
                    got = checker.optimum(inst, p)
                    self.assertTrue(checker.close(got, want), (family, n, m, p, got, want))

    def test_zero_valued_goods(self):
        inst = {"n": 3, "valuation": {"type": "additive", "weights": [5.0, 0.0, 0.0]}}
        self.assertEqual(checker.optimum(inst, 0.0), 0.0)
        self.assertEqual(checker.optimum(inst, -1.0), 0.0)
        self.assertAlmostEqual(checker.optimum(inst, 1.0), 5.0 / 3.0)


class RecordTest(unittest.TestCase):
    def setUp(self):
        self.inst = random_instance("xos", 3, 5, random.Random(11))
        _, self.best = enumerate_optimum(self.inst, 1.0)

    def test_accepts_correct_outputs(self):
        self.assertEqual(problems(library_record(self.inst, self.best)), [])

    def test_rejects_perturbed_optimum(self):
        rec = library_record(self.inst, self.best)
        rec["opt"][4]["welfare"] *= 1.0 + 1e-6
        self.assertTrue(problems(rec))

    def test_rejects_optimum_that_is_not_optimal(self):
        rec = library_record(self.inst, self.best)
        worse = [[0, 1, 2, 3, 4], [], []]
        values = [checker.bundle_value(self.inst, b) for b in worse]
        rec["opt"][-1] = {"allocation": worse, "welfare": checker.pmean(values, 1.0)}
        self.assertTrue(any("independent" in x for x in problems(rec)))

    def test_rejects_overlapping_allocation(self):
        rec = library_record(self.inst, self.best)
        rec["allocation"] = [[0, 1], [1, 2], [3, 4]]
        self.assertTrue(any("not a partition" in x for x in problems(rec)))

    def test_rejects_incomplete_allocation(self):
        rec = library_record(self.inst, self.best)
        rec["allocation"] = [[0], [1, 2], [3]]
        self.assertTrue(any("not a partition" in x for x in problems(rec)))

    def test_rejects_ratio_below_floor(self):
        inst = {"n": 2, "valuation": {"type": "additive", "weights": [100.0, 1.0, 1.0, 1.0]}}
        # everything to one agent: zero welfare for p <= 0 against a positive optimum
        rec = library_record(inst, [[0, 1, 2, 3], []])
        self.assertTrue(any("below 1/40" in x for x in problems(rec)))


class HeuristicTest(unittest.TestCase):
    def greedy_record(
        self, inst: dict, report: dict | None, rc: int = 0, expect_fail=False, stderr=None
    ):
        tmp = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        self.addCleanup(Path(tmp.name).unlink)
        with tmp:
            json.dump(inst, tmp)
        return {
            "kind": "greedy",
            "label": "selftest",
            "path": tmp.name,
            "exponents": [str(p) for p in EXPONENTS],
            "expect_fail": expect_fail,
            "solve": {
                "rc": rc,
                "stdout": json.dumps(report) if report else "",
                "stderr": (checker.NAMED_FAULT + "; m <= 24 required" if rc else "")
                if stderr is None
                else stderr,
            },
        }

    def report(self, inst: dict, alloc) -> dict:
        values = [checker.bundle_value(inst, b) for b in alloc]
        return {
            "allocation": alloc,
            "bundle_values": values,
            "table": [{"p": str(p), "alg_welfare": checker.pmean(values, p)} for p in EXPONENTS],
        }

    def test_accepts_round_robin(self):
        inst = random_instance("additive", 3, 30, random.Random(3))
        alloc = [list(range(i, 30, 3)) for i in range(3)]
        self.assertEqual(problems(self.greedy_record(inst, self.report(inst, alloc))), [])

    def test_named_failure_is_not_a_problem_but_others_are(self):
        inst = random_instance("budget_additive", 8, 6, random.Random(4))
        self.assertEqual(problems(self.greedy_record(inst, None, rc=2, expect_fail=True)), [])
        self.assertTrue(problems(self.greedy_record(inst, None, rc=2, expect_fail=False)))
        self.assertTrue(problems(self.greedy_record(inst, None, rc=1, expect_fail=True)))
        other = "error: precondition violated: tail is not low-valued"
        self.assertTrue(
            problems(self.greedy_record(inst, None, rc=2, expect_fail=True, stderr=other))
        )

    def test_rejects_mean_falling_with_p(self):
        inst = random_instance("additive", 2, 6, random.Random(5))
        welfare = [10.0, 11.0, 12.0, 9.0, 13.0, 14.0, 15.0, 16.0, 17.0]
        self.assertTrue(checker.check_heuristic_cells(inst, EXPONENTS, welfare))

    def test_rejects_average_above_certified_bound(self):
        inst = {"n": 2, "valuation": {"type": "budget_additive", "weights": [4.0, 4.0], "cap": 5.0}}
        # min(v(M), (v({0}) + v({1})) / 2) = min(5, 4) = 4
        self.assertEqual(checker.check_heuristic_cells(inst, [1.0], [4.0]), [])
        self.assertTrue(checker.check_heuristic_cells(inst, [1.0], [4.1]))


if __name__ == "__main__":
    unittest.main()
