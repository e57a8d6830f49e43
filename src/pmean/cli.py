"""Command-line front end: instance generation, solving, exact verification,
inequality checks and hardness demos as reproducible file-driven runs.

Exit codes: 0 success / all checks passed, 1 a ratio check failed, 2 usage,
size or budget errors.  The exact engine's budget defaults to 10^7 subset-DP
cells, (n - 2) * 3^m + 2^m for n bundles of m goods, and can be overridden per
run with --budget or globally with the PMEAN_BUDGET environment variable.
`exact`, `verify` and `hardness-demo` build the DP's value table and layer
pairs once per instance and share them across all requested exponents.

Instances are generated with NumPy's PCG64 generator (np.random.default_rng
seeded with the documented 64-bit seed), so a (family, n, m, seed) tuple always
reproduces the same file.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import analysis, hardness
from .allocator import APPROX_FACTOR, alg
from .errors import PmeanError
from .means import bundle_values, p_mean_welfare, parse_exponent
from .oracle import p_opt_grid
from .swmax import BACKENDS, DEFAULT_ENUM_BUDGET, EXACT
from .valuations import (
    AXIOM_SCAN_MAX_GOODS,
    EPS,
    Additive,
    BudgetAdditive,
    ExplicitTable,
    Instance,
    Xos,
    check_axioms,
    goods_of,
    load_instance,
    save_instance,
    value_table,
)

RATIO_FLOOR = 1.0 / APPROX_FACTOR

FAMILIES = ("additive", "budget_additive", "xos", "explicit")

WEIGHT_SCALE = 100.0
WEIGHT_GRID = 6  # weights are rounded to a 1e-6 grid for reproducible files


def _draw_weights(rng: np.random.Generator, m: int) -> tuple[float, ...]:
    return tuple(round(float(u) * WEIGHT_SCALE, WEIGHT_GRID) for u in rng.uniform(size=m))


def generate_instance(
    family: str,
    n: int,
    m: int,
    seed: int,
    cap: float | None = None,
    clauses: int = 3,
) -> Instance:
    """Deterministic random instance of the requested family.

    Weights are uniform on [0, 1], scaled by 100 and rounded to the 1e-6 grid.
    budget_additive caps at half the total weight unless a cap is given;
    explicit tables are tabulated from a max-of-additive draw, which keeps them
    normalized, monotone and subadditive.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    if m < 0:
        raise ValueError(f"m must be a nonnegative number of goods, got {m}")
    rng = np.random.default_rng(seed)
    if family == "additive":
        return Instance(n, Additive(_draw_weights(rng, m)))
    if family == "budget_additive":
        weights = _draw_weights(rng, m)
        if cap is None:
            cap = round(0.5 * math.fsum(weights), WEIGHT_GRID)
        return Instance(n, BudgetAdditive(weights, cap))
    clause_rows = tuple(_draw_weights(rng, m) for _ in range(clauses))
    if family == "xos":
        return Instance(n, Xos(clause_rows))
    if m > 16:
        raise PmeanError("explicit tables support at most 16 goods")
    return Instance(n, ExplicitTable(tuple(value_table(Xos(clause_rows)).tolist())))


def _parse_p_list(text: str) -> list[tuple[str, float]]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("need at least one exponent")
    return [(t, parse_exponent(t)) for t in tokens]


def _resolve_budget(flag: int | None) -> int:
    """The exact engine's cell budget: --budget, else PMEAN_BUDGET, else the
    default; whichever is given must be a positive integer."""
    if flag is not None:
        source, raw = "--budget", flag
    elif "PMEAN_BUDGET" in os.environ:
        source, raw = "PMEAN_BUDGET", os.environ["PMEAN_BUDGET"]
    else:
        return DEFAULT_ENUM_BUDGET
    try:
        budget = int(raw)
        if budget >= 1:
            return budget
    except ValueError:
        pass
    raise PmeanError(f"{source} must be a positive integer, got {raw!r}")


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    rows = report.get("table", [])
    out = io.StringIO()
    if rows:
        writer = csv.DictWriter(out, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(out.getvalue(), end="")


def _bundles_as_lists(bundles) -> list[list[int]]:
    return [goods_of(b) for b in bundles]


def _cmd_gen(args) -> int:
    inst = generate_instance(args.family, args.n, args.m, args.seed, args.cap, args.clauses)
    save_instance(inst, args.out)
    print(f"wrote {args.family} instance (n={inst.n}, m={inst.m}) to {args.out}")
    return 0


def _load_model_instance(path: str) -> Instance:
    """load_instance, plus the axiom scan for explicit tables small enough to
    scan: the solver's guarantee needs a normalized, monotone, subadditive v."""
    inst = load_instance(path)
    v = inst.valuation
    if isinstance(v, ExplicitTable) and v.m <= AXIOM_SCAN_MAX_GOODS:
        report = check_axioms(v)
        axioms = ("normalized", "monotone", "subadditive")
        fails = [name for name in axioms if not getattr(report, name)]
        if fails:
            raise PmeanError(
                f"table must be normalized, monotone and subadditive (fails: {', '.join(fails)})"
            )
    return inst


def _solve_report(inst: Instance, ps, backend: str, budget: int) -> dict:
    start = time.perf_counter()
    alloc, trace = alg(inst, backend, budget)
    solve_s = time.perf_counter() - start
    table = [
        {"p": token, "alg_welfare": p_mean_welfare(inst, alloc, p)} for token, p in ps
    ]
    return {
        "n": inst.n,
        "m": inst.m,
        "sw_backend": backend,
        "guarantee": trace.guarantee.value,
        "allocation": _bundles_as_lists(alloc),
        "bundle_values": bundle_values(inst, alloc),
        "trace": {
            "k": trace.k,
            "singleton_goods": trace.singleton_goods,
            "f_values": trace.f_values,
            "phase2_bundles": _bundles_as_lists(trace.phase2_bundles),
        },
        "table": table,
        "timings": {"solve_s": solve_s},
    }


def _cmd_solve(args) -> int:
    inst = _load_model_instance(args.instance)
    report = _solve_report(inst, _parse_p_list(args.p), args.sw_backend, _resolve_budget(args.budget))
    report["command"] = "solve"
    report["instance"] = args.instance
    _emit(report, args.output)
    return 0


def _cmd_exact(args) -> int:
    inst = load_instance(args.instance)
    budget = _resolve_budget(args.budget)
    start = time.perf_counter()
    ps = _parse_p_list(args.p)
    opts = p_opt_grid(inst, [p for _, p in ps], budget)
    table = [
        {"p": token, "opt_welfare": opt.welfare, "allocation": _bundles_as_lists(opt.alloc)}
        for (token, _), opt in zip(ps, opts)
    ]
    report = {
        "command": "exact",
        "instance": args.instance,
        "n": inst.n,
        "m": inst.m,
        "table": table,
        "timings": {"total_s": time.perf_counter() - start},
    }
    _emit(report, args.output)
    return 0


def _cmd_verify(args) -> int:
    inst = _load_model_instance(args.instance)
    budget = _resolve_budget(args.budget)
    ps = _parse_p_list(args.p)
    start = time.perf_counter()
    report = _solve_report(inst, ps, args.sw_backend, budget)
    table = []
    all_pass = True
    opts = p_opt_grid(inst, [p for _, p in ps], budget)
    for row, (token, _), opt in zip(report["table"], ps, opts):
        alg_w = row["alg_welfare"]
        if opt.welfare <= 0.0:
            status, ratio = "vacuous", None
        else:
            ratio = alg_w / opt.welfare
            if ratio >= RATIO_FLOOR - EPS:
                status = "pass"
            else:
                status = "fail"
                all_pass = False
        table.append(
            {
                "p": token,
                "alg_welfare": alg_w,
                "opt_welfare": opt.welfare,
                "ratio": ratio,
                "status": status,
            }
        )
    report.update(
        command="verify",
        instance=args.instance,
        table=table,
        ratio_floor=RATIO_FLOOR,
        all_pass=all_pass,
    )
    report["timings"]["total_s"] = time.perf_counter() - start
    _emit(report, args.output)
    return 0 if all_pass else 1


def _cmd_check_ineq(args) -> int:
    if not 0.0 < args.grid_step <= -analysis.NEG_GRID_LO:  # also false for nan
        raise PmeanError(f"--grid-step must be finite and in (0, 50], got {args.grid_step}")
    ranges = analysis.check_sign_ranges(args.grid_step)
    upper = analysis.check_upper_range_constants()
    root = analysis.locate_root()
    ok = ranges["ok"] and upper["ok"] and 0.4 < root < 0.41
    report = {
        "command": "check-ineq",
        "constants": {"a": analysis.A, "b": analysis.B, "c": analysis.C},
        "ranges": ranges,
        "upper_range": upper,
        "root": root,
        "worst_violation": ranges["worst_violation"],
        "ok": ok,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


def _cmd_hardness_demo(args) -> int:
    ps = _parse_p_list(args.p)
    budget = _resolve_budget(args.budget)
    if args.mode == "yes":
        gadget = hardness.generate_yes_instance(args.q, args.seed)
    else:
        if args.q < 2:
            raise PmeanError("no-side gadgets need q >= 2 (one edge is already a perfect matching)")
        gadget = hardness.generate_no_instance(args.q, args.seed)
    inst = hardness.reduce(gadget)
    if args.out:
        save_instance(inst, args.out)

    matching = hardness.max_matching_brute(gadget)
    opts = [opt.welfare for opt in p_opt_grid(inst, [p for _, p in ps], budget)]
    table = []
    ok = True
    if args.mode == "yes":
        expected_perfect = len(matching) == gadget.q
        ok &= expected_perfect
        for (token, _), opt in zip(ps, opts):
            row_ok = abs(opt - 3.0) <= 1e-9
            ok &= row_ok
            table.append({"p": token, "opt_welfare": opt, "ok": row_ok})
        summary = {"perfect_matching": expected_perfect}
    else:
        alpha = len(matching) / gadget.q
        bound = 2.0 + alpha
        for (token, _), opt in zip(ps, opts):
            row_ok = opt <= bound + EPS
            ok &= row_ok
            table.append({"p": token, "opt_welfare": opt, "bound": bound, "ok": row_ok})
        summary = {"alpha": alpha}
    report = {
        "command": "hardness-demo",
        "mode": args.mode,
        "q": gadget.q,
        "hyperedges": [list(e) for e in gadget.hyperedges],
        "max_matching_size": len(matching),
        **summary,
        "table": table,
        "instance_file": args.out,
        "ok": ok,
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pmean",
        description="Allocate indivisible goods under one shared subadditive valuation "
        "and check the allocation against exact optima.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a deterministic random instance file")
    gen.add_argument("--family", choices=FAMILIES, required=True)
    gen.add_argument("--n", type=int, required=True)
    gen.add_argument("--m", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--cap", type=float, default=None, help="budget_additive cap")
    gen.add_argument("--clauses", type=int, default=3, help="xos/explicit clause count")
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_gen)

    def run_flags(p, with_backend=True):
        p.add_argument("--instance", required=True)
        p.add_argument("--p", required=True, help='comma-separated exponents, e.g. "--p=-inf,-1,0,1"')
        if with_backend:
            p.add_argument("--sw-backend", choices=BACKENDS, default=EXACT)
        p.add_argument("--output", choices=("json", "csv"), default="json")
        p.add_argument("--budget", type=int, default=None)

    solve = sub.add_parser("solve", help="run the allocator and report its welfare table")
    run_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="exact optimal welfare per exponent")
    run_flags(exact, with_backend=False)
    exact.set_defaults(func=_cmd_exact)

    verify = sub.add_parser("verify", help="solve, compute exact optima, and check the 1/40 ratio")
    run_flags(verify)
    verify.set_defaults(func=_cmd_verify)

    ineq = sub.add_parser("check-ineq", help="verify the constant inequalities on dense grids")
    ineq.add_argument("--grid-step", type=float, default=0.01)
    ineq.set_defaults(func=_cmd_check_ineq)

    demo = sub.add_parser("hardness-demo", help="generate a matching gadget and verify its gap side")
    demo.add_argument("--q", type=int, required=True)
    demo.add_argument("--mode", choices=("yes", "no"), required=True)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--p", default="-inf,-1,0,0.4,1")
    demo.add_argument("--out", default=None, help="write the reduced instance here")
    demo.add_argument("--budget", type=int, default=None)
    demo.set_defaults(func=_cmd_hardness_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PmeanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
