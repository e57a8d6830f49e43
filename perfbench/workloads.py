"""The benchmark's three workloads, driven in one process, one call at a time.

Each workload makes its inputs from the run's seed, round by round: round r
draws fresh instances from ``SeedSequence([seed, r, ...])``, so no round
repeats an earlier one and the same seed always yields the same rounds.  A
round holds the same operations in the same order every time, only the drawn
numbers change; runs attempt whole rounds, which keeps the share of failed
operations fixed.

Instances come from ``pmean.cli.generate_instance``, the generator behind
``pmean gen``.  Functions are called through their module attributes
(``allocator.alg``, ``cli.main``) so the tracer's replacements take effect.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from pmean import allocator, cli, means, oracle, valuations

# the acceptance sweep's exponents (tests/test_acceptance.py P_GRID)
GRID_TOKENS = ("-inf", "-4", "-1", "-0.5", "0", "0.25", "0.4", "0.7", "1")
VERIFY_TOKENS = ("-inf", "-1", "0", "0.4", "1")
FAMILIES = ("additive", "budget_additive", "xos", "explicit")


def derived_seed(*path: int) -> int:
    return int(np.random.SeedSequence(list(path)).generate_state(1)[0])


@dataclass
class Op:
    label: str
    instance: object = None  # a pmean Instance (library workload)
    path: str = ""  # an instance file (CLI workloads)
    expect_fail: bool = False


@dataclass
class Outcome:
    work_s: float  # all timed work of the operation
    instance_s: float  # the per-instance latency sample
    solve_s: float  # the solver's share of it
    cells: int  # (instance, exponent) cells completed
    failed: bool
    report_bytes: int
    record: dict = field(default_factory=dict)  # outputs for the checker


def _run_cli(argv: list[str]) -> tuple[int, str, str, float]:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue(), time.perf_counter() - start


class AcceptGrid:
    """The acceptance sweep's grid through the library: 4 families x n in {2, 3}
    x m in {4, 6, 8} x 50 seeds; per instance alg, then p_opt_brute and the
    alg allocation's p-mean at each of the 9 exponents."""

    name = "accept_grid"
    seeds_per_round = 50
    exponents = [float(t) for t in GRID_TOKENS]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def make_round(self, r: int) -> list[Op]:
        ops = []
        for s in range(self.seeds_per_round):
            inst_seed = derived_seed(self.seed, r, s)
            for family in FAMILIES:
                for n in (2, 3):
                    for m in (4, 6, 8):
                        inst = cli.generate_instance(family, n, m, inst_seed)
                        ops.append(Op(f"{family}-n{n}-m{m}", instance=inst))
        return ops

    def warm_up(self) -> None:
        inst = cli.generate_instance("xos", 2, 4, derived_seed(self.seed, 1 << 30))
        self.run(Op("warm-up", instance=inst))

    def run(self, op: Op) -> Outcome:
        inst = op.instance
        start = time.perf_counter()
        alloc, _ = allocator.alg(inst)
        solved = time.perf_counter()
        opts = [oracle.p_opt_brute(inst, p) for p in self.exponents]
        alg_welfare = [means.p_mean_welfare(inst, alloc, p) for p in self.exponents]
        end = time.perf_counter()
        goods = valuations.goods_of
        record = {
            "kind": "library",
            "label": op.label,
            "instance": valuations.instance_to_dict(inst),
            "exponents": list(GRID_TOKENS),
            "allocation": [goods(b) for b in alloc],
            "alg_welfare": alg_welfare,
            "opt": [{"allocation": [goods(b) for b in o.alloc], "welfare": o.welfare} for o in opts],
        }
        return Outcome(end - start, end - start, solved - start, len(opts), False, 0, record)


class _CliWorkload:
    tokens: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def _write(self, name: str, inst) -> str:
        path = self.workdir / f"{name}.json"
        valuations.save_instance(inst, path)
        return str(path)

    def warm_up(self) -> None:
        inst = cli.generate_instance("xos", 2, 4, derived_seed(self.seed, 1 << 30))
        self.run(Op("warm-up", path=self._write("warm-up", inst)))

    @property
    def p_flag(self) -> str:
        return "--p=" + ",".join(self.tokens)


class VerifyLarge(_CliWorkload):
    """`pmean solve` then `pmean verify` on instances of 1-2 million labeled
    partitions, one instance per shape in a round.  Every round has the same
    family at each shape, so the number of rounds a run completes changes only
    its sample count, never its mix; the four families are spread over the
    five shapes (explicit tables stop at m = 16)."""

    name = "verify_large"
    tokens = VERIFY_TOKENS
    shapes = (
        ("xos", 2, 20), ("explicit", 3, 13), ("budget_additive", 4, 10),
        ("additive", 5, 9), ("xos", 8, 7),
    )  # fmt: skip

    def make_round(self, r: int) -> list[Op]:
        ops = []
        for i, (family, n, m) in enumerate(self.shapes):
            inst = cli.generate_instance(family, n, m, derived_seed(self.seed, r, i))
            label = f"{family}-n{n}-m{m}"
            ops.append(Op(label, path=self._write(f"r{r}-{label}", inst)))
        return ops

    def run(self, op: Op) -> Outcome:
        base = ["--instance", op.path, self.p_flag]
        rc_s, out_s, err_s, solve_s = _run_cli(["solve", *base])
        rc_v, out_v, err_v, verify_s = _run_cli(["verify", *base])
        record = {
            "kind": "verify",
            "label": op.label,
            "path": op.path,
            "exponents": list(self.tokens),
            "solve": {"rc": rc_s, "stdout": out_s, "stderr": err_s},
            "verify": {"rc": rc_v, "stdout": out_v, "stderr": err_v},
        }
        failed = rc_s != 0 or rc_v != 0
        cells = 0 if failed else len(self.tokens)
        nbytes = len(out_s) + len(out_v)
        return Outcome(solve_s + verify_s, verify_s, solve_s, cells, failed, nbytes, record)


class GreedyWide(_CliWorkload):
    """`pmean solve --sw-backend greedy` at the 9 exponents on wide instances:
    additive and XOS up to m = 63 and n = 32, an explicit table at m = 16, and
    budget-additive at m = 12, 16, 20, 24.  Budget-additive instances at m = 32,
    48, 63 are kept as operations that fail on every run: the greedy backend's
    demand query tabulates 2^m subsets and refuses m > 24.

    15 shapes succeed, an odd number, so the median solve time of a run lies
    among the samples of one shape; with an even number it would lie between
    the slowest sample of one shape and the fastest of the next."""

    name = "greedy_wide"
    tokens = GRID_TOKENS
    shapes = (
        ("additive", 2, 16), ("additive", 4, 24), ("additive", 8, 32),
        ("additive", 16, 48), ("additive", 32, 63),
        ("xos", 2, 16), ("xos", 4, 24), ("xos", 8, 32), ("xos", 16, 48), ("xos", 32, 63),
        ("explicit", 4, 16),
        ("budget_additive", 2, 12), ("budget_additive", 2, 16), ("budget_additive", 4, 20),
        ("budget_additive", 8, 24),
        ("budget_additive", 8, 32), ("budget_additive", 16, 48), ("budget_additive", 32, 63),
    )  # fmt: skip

    def make_round(self, r: int) -> list[Op]:
        ops = []
        for i, (family, n, m) in enumerate(self.shapes):
            inst = cli.generate_instance(family, n, m, derived_seed(self.seed, r, i))
            label = f"{family}-n{n}-m{m}"
            expect_fail = family == "budget_additive" and m > 24
            ops.append(Op(label, path=self._write(f"r{r}-{label}", inst), expect_fail=expect_fail))
        return ops

    def run(self, op: Op) -> Outcome:
        rc, out, err, solve_s = _run_cli(
            ["solve", "--instance", op.path, self.p_flag, "--sw-backend", "greedy"]
        )
        record = {
            "kind": "greedy",
            "label": op.label,
            "path": op.path,
            "exponents": list(self.tokens),
            "expect_fail": op.expect_fail,
            "solve": {"rc": rc, "stdout": out, "stderr": err},
        }
        failed = rc != 0
        cells = 0 if failed else len(self.tokens)
        return Outcome(solve_s, solve_s, solve_s, cells, failed, len(out), record)


WORKLOADS = {w.name: w for w in (AcceptGrid, VerifyLarge, GreedyWide)}


def write_records(path: Path, outcomes: list[Outcome]) -> None:
    """Append each outcome's record to the results file and drop it from memory."""
    with open(path, "a") as fh:
        for outcome in outcomes:
            fh.write(json.dumps(outcome.record) + "\n")
            outcome.record = {}
