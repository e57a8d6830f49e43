"""Benchmark for pmean: one workload per run, closed loop, one process.

    python3 perfbench/run.py --workload accept_grid --seed 1 --seconds 20 --trace 0

Runs the workload's rounds one call at a time until --seconds of measured time
have passed (the set-up samples, taken in fresh processes between calls, do not
count), checks every output in a separate checker process that does not import
pmean, and prints human-readable metric lines followed by one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run alternates
untraced and traced passes over the first round (as many pairs as fit in
--seconds, at least one) and reports per-layer metrics,
writes the spans and a per-layer table under perfbench/out/, and reports the
tracing overhead.

The program is imported from src/ next to this directory; without it the
benchmark exits 2 before printing any result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 120


def tail_percentile(samples: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, and its value;
    None below forty samples, where such a percentile would be no tail."""
    n = len(samples)
    if n < 40:
        return None
    ordered = sorted(samples)
    index = n - 11  # ten samples lie above this one
    return 100.0 * (index + 1) / n, ordered[index]


class SetupSampler:
    """Set-up time, measured SETUP_SAMPLES times in fresh processes that do
    everything before the first timed call: start the interpreter, import
    pmean, generate the first round's instances and files, and warm up.

    The samples are taken between operations, spread evenly over the timed
    window, so that their median sees the same stretch of host speed as the
    timed work.  Their own wall time is left out of the window.
    """

    def __init__(self, args):
        self.cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0", "--setup-only",
        ]  # fmt: skip
        self.seconds = args.seconds
        self.samples: list[float] = []
        self.start = time.perf_counter()

    def measured_s(self) -> float:
        """Wall time of the window so far, set-up samples left out."""
        return time.perf_counter() - self.start - sum(self.samples)

    def before_op(self) -> None:
        due = len(self.samples) * self.seconds / SETUP_SAMPLES
        if len(self.samples) < SETUP_SAMPLES and self.measured_s() >= due:
            self.take()

    def take(self) -> None:
        start = time.perf_counter()
        subprocess.run(self.cmd, check=True, stdout=subprocess.DEVNULL, timeout=CHILD_TIMEOUT_S)
        self.samples.append(time.perf_counter() - start)

    def median(self) -> float:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return statistics.median(self.samples)


def run_round(workload, ops, before_op):
    outcomes = []
    for op in ops:
        before_op()
        outcomes.append(workload.run(op))
    return outcomes


def check(results: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "checker.py"), str(results)],
        check=True, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )  # fmt: skip
    return json.loads(proc.stdout.strip().splitlines()[-1])


def timed_run(args, workload, first_round, results):
    from workloads import write_records

    outcomes = []
    setup = SetupSampler(args)
    ops, r = first_round, 0
    while True:
        done = run_round(workload, ops, setup.before_op)
        write_records(results, done)
        outcomes += done
        r += 1
        if setup.measured_s() >= args.seconds:
            break
        ops = workload.make_round(r)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ok = [o for o in outcomes if not o.failed]
    work_s = sum(o.work_s for o in outcomes)
    instance_ms = [o.instance_s * 1000.0 for o in ok]
    metrics = {
        "cells_per_s": (sum(o.cells for o in ok) / work_s, "1/s"),
        "instance_ms_p50": (statistics.median(instance_ms), "ms"),
        "solve_ms_p50": (statistics.median(o.solve_s * 1000.0 for o in ok), "ms"),
        "peak_rss_mb": (peak_mb, "MB"),
        "setup_s": (setup.median(), "s"),
    }
    tail = tail_percentile(instance_ms)
    if tail is None:
        note = f"instance_ms_tail not reported: {len(instance_ms)} instances, fewer than 40"
    else:
        note = f"instance_ms_tail = p{tail[0]:.2f} {tail[1]:.4f} ms over {len(instance_ms)} instances"
    print(f"{args.workload}: {r} rounds, {len(outcomes)} operations, {work_s:.3f} s timed work")
    print(note)
    return metrics, len(outcomes), len(outcomes) - len(ok), []


def traced_run(args, workload, first_round, results, setup_times):
    from tracer import Tracer
    from workloads import write_records

    untraced_s, traced_s, passes = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # alternate which pass of a pair runs first, so order effects cancel
        for traced in (False, True) if len(passes) % 2 == 0 else (True, False):
            tracer = Tracer() if traced else None
            if tracer:
                tracer.install()
            try:
                before_op = tracer.begin_request if tracer else lambda: None
                done = run_round(workload, first_round, before_op)
            finally:
                if tracer:
                    tracer.uninstall()
            write_records(results, done)
            attempted += len(done)
            failed += sum(o.failed for o in done)
            work = sum(o.work_s for o in done)
            if traced:
                traced_s.append(work)
                layers = tracer.layer_metrics()
                layers["cli.report_bytes"] = sum(o.report_bytes for o in done)
                passes.append((tracer, layers))
            else:
                untraced_s.append(work)
        elapsed = time.perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > args.seconds:
            break  # one more pair would end past --seconds

    first_tracer, first = passes[0]
    problems = []
    if any(t.counts_signature() != first_tracer.counts_signature() for t, _ in passes):
        problems.append("exact counts differ between traced passes of the same round")
    # counts come from the first traced pass, times are medians over all of them
    metrics = {
        key: value if isinstance(value, int) else statistics.median(p[key] for _, p in passes)
        for key, value in first.items()
    }
    metrics.update(setup_times)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    metrics["trace.overhead_pct"] = 100.0 * overhead

    first_tracer.write_spans(OUT / f"spans-{args.workload}.jsonl")
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    table = [f"# per-layer metrics: {args.workload}, seed {args.seed}, {len(passes)} traced passes", "",
             "| metric | value | unit |", "|---|---|---|"]  # fmt: skip
    table += [f"| {k} | {v:.6g} | {units.get(k, '')} |" for k, v in sorted(metrics.items())]
    (OUT / f"layers-{args.workload}.md").write_text("\n".join(table) + "\n")
    print("\n".join(table))
    print(f"tracing overhead {100.0 * overhead:.1f}% "
          f"(traced {statistics.median(traced_s):.3f} s vs untraced {statistics.median(untraced_s):.3f} s per round)")  # fmt: skip
    out = {k: (v, units[k]) for k, v in metrics.items()}
    return out, attempted, failed, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "pmean" / "__init__.py").is_file():
        print(f"error: the pmean sources are missing ({SRC / 'pmean'})", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    start = time.perf_counter()
    import pmean

    import_s = time.perf_counter() - start
    if Path(pmean.__file__).resolve().parent != SRC / "pmean":
        print(f"error: imported pmean from {pmean.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        start = time.perf_counter()
        first_round = workload.make_round(0)
        generate_s = time.perf_counter() - start
        workload.warm_up()
        if args.setup_only:
            return 0

        results = workdir / "results.jsonl"
        if args.trace:
            setup_times = {"setup.import_s": import_s, "setup.generate_s": generate_s}
            outcome = traced_run(args, workload, first_round, results, setup_times)
        else:
            outcome = timed_run(args, workload, first_round, results)
        metrics, attempted, failed, problems = outcome
        verdict = check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"checked {verdict['checked']} operations, {verdict['problem_count']} problems")
    for problem in problems + verdict["problems"]:
        print(f"  problem: {problem}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    result = {
        "correct": not problems and verdict["problem_count"] == 0 and verdict["checked"] == attempted,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
