"""Command-line front end: instance generation, solving, exact verification,
the certificate of the constants' inequalities and hardness demos as
reproducible file-driven runs.

Exit codes: 0 success / all checks passed, 1 a ratio check, a gap check or the
certificate failed, 2 usage, size or budget errors, malformed, unreadable,
unparsable or unwritable instance files, and explicit tables of up to 12 goods
that fail an axiom.  The exact
engine's budget defaults to 10^7 subset-DP cells, (n - 2) * 3^m + 2^m for n
bundles of m goods, and --budget overrides it per run.
Each command builds at most one swmax.SubsetDP (value table and layer pairs)
under that budget: `verify` shares it between alg and the oracle, `exact` and
`hardness-demo` across all exponents, and `solve` builds one only for the
exact backend.  The axiom check of explicit tables keeps its own.
Every call of main in a process shares one argparse parser, which keeps no
state between parse_args calls.

Instances are generated with NumPy's PCG64 generator (np.random.default_rng
seeded with the documented 64-bit seed), so a (family, n, m, seed) tuple always
reproduces the same file.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time

import numpy as np

from . import analysis, hardness
from .allocator import APPROX_FACTOR, alg
from .errors import PmeanError
from .means import bundle_values, check_allocation, p_mean, parse_exponent
from .oracle import p_opt_grid
from .swmax import BACKENDS, DEFAULT_ENUM_BUDGET, EXACT, SubsetDP
from .valuations import (
    AXIOM_SCAN_MAX_GOODS,
    EPS,
    EXPLICIT_MAX_GOODS,
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
CLAUSES = 3  # clauses of an xos draw, and of the draw an explicit table tabulates


def _draw_weights(rng: np.random.Generator, m: int) -> tuple[float, ...]:
    return tuple(round(float(u) * WEIGHT_SCALE, WEIGHT_GRID) for u in rng.uniform(size=m))


def generate_instance(family: str, n: int, m: int, seed: int) -> Instance:
    """Deterministic random instance of the requested family.

    Weights are uniform on [0, 1], scaled by 100 and rounded to the 1e-6 grid.
    budget_additive caps at half the total weight, on the same grid; xos draws
    CLAUSES weight vectors, and explicit tables tabulate such a max-of-additive
    draw, which keeps them normalized, monotone and subadditive.
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
        return Instance(n, BudgetAdditive(weights, round(0.5 * math.fsum(weights), WEIGHT_GRID)))
    clause_rows = tuple(_draw_weights(rng, m) for _ in range(CLAUSES))
    if family == "xos":
        return Instance(n, Xos(clause_rows))
    if m > EXPLICIT_MAX_GOODS:
        raise PmeanError(f"explicit tables support at most {EXPLICIT_MAX_GOODS} goods")
    return Instance(n, ExplicitTable(tuple(value_table(Xos(clause_rows)).tolist())))


def _parse_p_list(text: str) -> list[tuple[str, float]]:
    tokens = [t.strip() for t in text.split(",") if t.strip()]
    if not tokens:
        raise ValueError("need at least one exponent")
    return [(t, parse_exponent(t)) for t in tokens]


def _resolve_budget(flag: int | None) -> int:
    """The exact engine's cell budget: --budget if given, which must be a
    positive integer, else the default."""
    if flag is None:
        return DEFAULT_ENUM_BUDGET
    if flag < 1:
        raise PmeanError(f"--budget must be a positive integer, got {flag!r}")
    return flag


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
    inst = generate_instance(args.family, args.n, args.m, args.seed)
    save_instance(inst, args.out)
    print(f"wrote {args.family} instance (n={inst.n}, m={inst.m}) to {args.out}")
    return 0


def _load_model_instance(path: str) -> Instance:
    """load_instance, plus the axiom scan for explicit tables small enough to
    scan: the solver's guarantee needs a normalized, monotone, subadditive v."""
    inst = load_instance(path)
    v = inst.valuation
    if isinstance(v, ExplicitTable) and v.m <= AXIOM_SCAN_MAX_GOODS:
        fault = check_axioms(v).fault
        if fault:
            raise PmeanError(fault)
    return inst


def _solve_report(inst: Instance, ps, backend: str, dp: SubsetDP | None) -> dict:
    start = time.perf_counter()
    alloc, trace = alg(inst, backend, dp)
    solve_s = time.perf_counter() - start
    check_allocation(alloc, inst.m, inst.n)
    values = bundle_values(inst, alloc)
    table = [{"p": token, "alg_welfare": p_mean(values, p)} for token, p in ps]
    return {
        "n": inst.n,
        "m": inst.m,
        "sw_backend": backend,
        "guarantee": trace.guarantee.value,
        "allocation": _bundles_as_lists(alloc),
        "bundle_values": values,
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
    ps, budget = _parse_p_list(args.p), _resolve_budget(args.budget)
    dp = SubsetDP(inst, budget) if args.sw_backend == EXACT else None  # greedy tabulates nothing
    report = _solve_report(inst, ps, args.sw_backend, dp)
    report["command"] = "solve"
    report["instance"] = args.instance
    _emit(report, args.output)
    return 0


def _cmd_exact(args) -> int:
    inst = load_instance(args.instance)
    budget = _resolve_budget(args.budget)
    start = time.perf_counter()
    ps = _parse_p_list(args.p)
    opts = p_opt_grid(inst, [p for _, p in ps], SubsetDP(inst, budget))
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
    dp = SubsetDP(inst, budget)  # one set-up for alg and the oracle
    report = _solve_report(inst, ps, args.sw_backend, dp)
    table = []
    all_pass = True
    opts = p_opt_grid(inst, [p for _, p in ps], dp)
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
    report = {"command": "check-ineq", **analysis.certify()}
    _emit(report, "json")
    return 0 if report["ok"] else 1


def _cmd_hardness_demo(args) -> int:
    yes, edges = args.mode == "yes", hardness.MATCHING_MAX_EDGES
    largest = edges // 2 if yes else edges - 1  # a yes gadget has 2q edges, a no gadget q + 1
    if args.q > largest:  # refused before the gadget is drawn
        raise PmeanError(f"--q {args.q} is too large: --mode {args.mode} checks q <= {largest}, "
                         f"as the matching search stops at {edges} edges")
    ps = _parse_p_list(args.p)
    budget = _resolve_budget(args.budget)
    draw = hardness.generate_yes_instance if yes else hardness.generate_no_instance
    gadget = draw(args.q, args.seed)
    if args.out:
        save_instance(hardness.reduce(gadget), args.out)
    gap = hardness.check_gap(gadget, [p for _, p in ps], budget)
    for row, (token, _) in zip(gap["table"], ps):
        row["p"] = token
    _emit({"command": "hardness-demo", "mode": args.mode, "q": gadget.q, **gap,
           "hyperedges": [list(e) for e in gadget.hyperedges], "instance_file": args.out}, "json")
    return 0 if gap["ok"] else 1


@functools.cache
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

    ineq = sub.add_parser("check-ineq", help="certify the constant inequalities on all of p <= 1")
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
    except (PmeanError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
