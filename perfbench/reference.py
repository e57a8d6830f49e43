"""Run the benchmark several times per workload and record reference figures.

    python3 perfbench/reference.py --trace --out perfbench/reference.json

Every workload in BENCHMARK.json runs once per seed in SEEDS, each run a fresh
``run.py`` process.  For every end-to-end metric the file keeps the ten values,
their median and their spread, the distance between the first and third
quartiles as a share of the median (``statistics.quantiles(values, n=4)``),
next to the metric's bound from BENCHMARK.json, plus the machine it ran on.
``--trace`` adds one traced run per workload, whose per-layer figures are
stored as measured.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]  # fmt: skip
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True, timeout=900)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.perf_counter() - start
    return result


def spread(values: list[float]) -> float:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    import numpy

    report = {
        "machine": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in SEEDS:
            result = run_once(name, seed, seconds, 0)
            runs.append(result)
            print(name, seed, json.dumps(result), flush=True)
        entry = {
            "seeds": list(SEEDS),
            "correct": all(r["correct"] for r in runs),
            "failed_share": sorted({f"{r['failed']}/{r['attempted']}" for r in runs}),
            "wall_s": [round(r["wall_s"], 1) for r in runs],
            "end_to_end": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            entry["end_to_end"][metric["name"]] = {
                "unit": metric["unit"],
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": metric["bound"],
                "values": values,
            }
            print(f"  {name} {metric['name']}: median {statistics.median(values):.6g} "
                  f"{metric['unit']}, spread {spread(values):.4f} (bound {metric['bound']})", flush=True)  # fmt: skip
        if args.trace:
            traced = run_once(name, 1, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["traced_wall_s"] = round(traced["wall_s"], 1)
        report["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
