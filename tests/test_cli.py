import argparse
import json
import time

import pytest

from pmean import analysis, cli, swmax
from pmean.means import bundle_values, p_mean_welfare, parse_exponent
from pmean.swmax import Guarantee
from pmean.valuations import check_axioms, load_instance, mask_of, value


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_gen_is_byte_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        code, _ = run(capsys, "gen", "--family", "xos", "--n", "2", "--m", "5",
                      "--seed", "3", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    for option in ("--cap", "--clauses"):  # gen draws with fixed rules and takes neither
        with pytest.raises(SystemExit) as exc:
            cli.main(["gen", "--family", "xos", "--n", "2", "--m", "5", option, "1",
                      "--out", str(a)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err


def test_gen_explicit_passes_axiom_check(tmp_path, capsys):
    path = tmp_path / "e.json"
    code, _ = run(capsys, "gen", "--family", "explicit", "--n", "2", "--m", "6",
                  "--seed", "1", "--out", str(path))
    assert code == 0
    explicit = load_instance(path).valuation
    assert check_axioms(explicit).all_ok
    # every entry is the drawn XOS valuation's value, bit for bit
    xos = cli.generate_instance("xos", 2, 6, 1).valuation
    assert all(explicit.table[s] == value(xos, s) for s in range(1 << 6))


def test_gen_explicit_size_cap(tmp_path, capsys):
    code, _ = run(capsys, "gen", "--family", "explicit", "--n", "2", "--m", "17",
                  "--seed", "0", "--out", str(tmp_path / "x.json"))
    assert code == 2
    # a negative size is named at the boundary, not left to numpy
    for family in cli.FAMILIES:
        code = cli.main(["gen", "--family", family, "--n", "2", "--m", "-1",
                         "--out", str(tmp_path / "x.json")])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: m must be a nonnegative number of goods, got -1\n"


@pytest.fixture
def instance_file(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run(capsys, "gen", "--family", "additive", "--n", "2", "--m", "6", "--seed", "0",
        "--out", str(path))
    return str(path)


def test_solve_report_schema(instance_file, capsys):
    code, out = run(capsys, "solve", "--instance", instance_file, "--p=-inf,0,1")
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "solve"
    assert [row["p"] for row in report["table"]] == ["-inf", "0", "1"]
    assert len(report["allocation"]) == 2
    assert report["trace"]["k"] == len(report["trace"]["singleton_goods"])


def test_exact_report(instance_file, capsys):
    code, out = run(capsys, "exact", "--instance", instance_file, "--p=1")
    assert code == 0
    report = json.loads(out)
    assert report["table"][0]["opt_welfare"] > 0


def test_verify_passes_on_generated_instance(instance_file, capsys):
    code, out = run(capsys, "verify", "--instance", instance_file,
                    "--p=-inf,-1,0,0.4,1")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    for row in report["table"]:
        assert row["status"] in ("pass", "vacuous")
        if row["status"] == "pass":
            assert row["ratio"] >= 1 / 40 - 1e-9


def test_verify_single_agent_ratio_is_one(tmp_path, capsys):
    path = tmp_path / "one.json"
    run(capsys, "gen", "--family", "additive", "--n", "1", "--m", "4", "--seed", "2",
        "--out", str(path))
    code, out = run(capsys, "verify", "--instance", str(path), "--p=-inf,0,1")
    assert code == 0
    for row in json.loads(out)["table"]:
        assert row["ratio"] == pytest.approx(1.0)


def test_verify_reports_vacuous_rows_and_passes(tmp_path, capsys):
    # three agents, two goods: some agent gets nothing, so the optimum is 0
    # at p <= 0 and those rows are vacuous, not failures
    path = tmp_path / "short.json"
    run(capsys, "gen", "--family", "additive", "--n", "3", "--m", "2", "--out", str(path))
    code, out = run(capsys, "verify", "--instance", str(path), "--p=-inf,0,0.5,1")
    assert code == 0
    report = json.loads(out)
    assert report["all_pass"]
    assert [row["status"] for row in report["table"]] == ["vacuous", "vacuous", "pass", "pass"]
    for row in report["table"][:2]:
        assert row["opt_welfare"] == 0.0 and row["ratio"] is None


def test_verify_reports_violations_with_exit_one(instance_file, capsys, monkeypatch):
    # the exit contract, driven by a sham oracle that inflates the optimum
    from pmean.oracle import OptResult

    real = cli.p_opt_grid

    def inflated(inst, ps, dp):
        return [OptResult(r.p, r.alloc, r.welfare * 1000.0) for r in real(inst, ps, dp)]

    monkeypatch.setattr(cli, "p_opt_grid", inflated)
    code, out = run(capsys, "verify", "--instance", instance_file, "--p=1")
    assert code == 1
    assert json.loads(out)["table"][0]["status"] == "fail"


@pytest.mark.parametrize(
    "command, backend, set_ups",
    [("verify", "exact", 1), ("verify", "greedy", 1), ("solve", "exact", 1), ("solve", "greedy", 0),
     ("exact", None, 1), ("hardness-demo", None, 1)],
)
def test_each_command_builds_at_most_one_engine_set_up(tmp_path, capsys, monkeypatch, command,
                                                       backend, set_ups):
    # verify hands alg and the oracle one SubsetDP: one value table and one
    # pair index per run (an XOS file, so the axiom check does not run), and
    # the greedy solve tabulates nothing; hardness-demo --q 3 has three agents
    path = str(tmp_path / "x.json")
    run(capsys, "gen", "--family", "xos", "--n", "3", "--m", "8", "--seed", "2", "--out", path)
    calls = dict.fromkeys(("value_table", "_layer_pairs"), 0)
    for name in calls:

        def counted(*args, _real=getattr(swmax, name), _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(swmax, name, counted)
    flags = ["--instance", path, *(["--sw-backend", backend] if backend else [])]
    if command == "hardness-demo":
        flags = ["--q", "3", "--mode", "yes"]
    code, _ = run(capsys, command, "--p=-inf,0,1", *flags)
    assert code == 0
    assert calls == {"value_table": set_ups, "_layer_pairs": set_ups}


def test_greedy_solve_deals_wide_budget_additive_instances(tmp_path, capsys):
    # budget-additive demand queries tabulate 2^m subsets and stop at m = 24;
    # the greedy deal makes none, so m = 40 solves
    path = str(tmp_path / "wide.json")
    run(capsys, "gen", "--family", "budget_additive", "--n", "8", "--m", "40",
        "--seed", "1", "--out", path)
    code, out = run(capsys, "solve", "--instance", path, "--p=0,1", "--sw-backend", "greedy")
    assert code == 0
    bundles = json.loads(out)["allocation"]
    assert len(bundles) == 8
    assert sorted(g for b in bundles for g in b) == list(range(40))


@pytest.mark.parametrize(
    "document, error",
    [
        ({"n": 2, "valuation": {"type": "additive", "weights": [float("nan"), 1.0, 2.0]}},
         "weights must be"),
        ({"n": 2, "valuation": {"type": "budget_additive", "weights": [1.0, 2.0],
                                "cap": float("inf")}}, "cap must be"),
        ({"n": 2.7, "valuation": {"type": "additive", "weights": [1.0, 2.0, 3.0]}}, "n must be"),
        ({"n": 2, "valuation": {"type": "xos", "clauses": [[1.0, float("-inf")]]}},
         "clause weights must be"),
        ({"n": 2, "valuation": {"type": "explicit", "table": [0.0, 1.0, float("inf"), 2.0]}},
         "table values must be"),
        # a JSON integer too large for a float counts as infinite, in every field
        ({"n": 2, "valuation": {"type": "additive", "weights": [1.0, 10**400]}},
         "weights must be finite and nonnegative\n"),
        ({"n": 2, "valuation": {"type": "budget_additive", "weights": [1.0, 2.0],
                                "cap": 10**400}}, "cap must be finite and nonnegative\n"),
        ({"n": 2, "valuation": {"type": "xos", "clauses": [[1.0, 2.0], [10**400, 0.0]]}},
         "clause weights must be finite and nonnegative\n"),
        ({"n": 2, "valuation": {"type": "explicit", "table": [0.0, 1.0, 2.0, 10**400]}},
         "table values must be finite and nonnegative\n"),
        ({"n": 2, "valuation": {"type": "explicit", "table": [0, 1, 1, 10]}},
         "table must be normalized, monotone and subadditive (fails: subadditive): "
         "v({0, 1}) = 10 > v({0}) + v({1}) = 2\n"),
        ({"n": 2, "valuation": {"type": "explicit", "table": [0, 2, 1, 1]}},
         "table must be normalized, monotone and subadditive (fails: monotone): "
         "v({0}) = 2 > v({0, 1}) = 1\n"),
        ({"n": 2}, "valuation must be an object, got nothing"),
        ({"n": 2, "valuation": {"type": "additive"}},
         "weights must be a list of numbers, got nothing"),
        ([1, 2], "instance must be an object, got [1, 2]"),
        ({"n": 2, "valuation": {"type": "additive", "weights": 5}},
         "weights must be a list of numbers, got 5"),
        ({"n": 2, "valuation": [1]}, "valuation must be an object, got [1]"),
        ({"n": 2, "valuation": {"type": "xos", "clauses": [1, 2]}},
         "clauses must be a list of lists of numbers, got [1, 2]"),
        (None, "cannot read instance file "),
        (b"nonsense", "cannot parse instance file "),
        (b"\xff\xfe", "cannot parse instance file "),
        (b"[" * 200_000, "cannot parse instance file "),
        ({"n": 0, "valuation": {"type": "additive", "weights": [1.0]}},
         "need at least one agent"),
        ({"n": 2, "valuation": {"type": "additive", "weights": [1.0] * 64}},
         "at most 63 goods supported"),
        ({"n": 2, "valuation": {"type": "foo"}}, "unknown valuation type: 'foo'"),
        ({"n": 2, "valuation": {"type": "xos", "clauses": []}}, "need at least one clause"),
        ({"n": 2, "valuation": {"type": "xos", "clauses": [[1.0], [1.0, 2.0]]}},
         "all clauses must have the same length"),
        ({"n": 2, "valuation": {"type": "explicit", "table": [0.0] * (1 << 17)}},
         "explicit tables support at most 16 goods"),
    ],
    ids=["nan-weight", "infinite-cap", "fractional-n", "infinite-clause", "infinite-table",
         "huge-weight", "huge-cap", "huge-clause", "huge-table",
         "superadditive-table", "non-monotone-table", "no-valuation", "no-weights",
         "top-level-list", "scalar-weights", "list-valuation", "scalar-clauses", "missing-file",
         "not-json", "not-utf8", "too-deep", "no-agents", "64-goods", "unknown-type",
         "no-clauses", "ragged-clauses", "17-goods-table"],
)
def test_verify_rejects_a_bad_field_with_exit_two(tmp_path, capsys, document, error):
    path = tmp_path / "bad.json"
    if isinstance(document, bytes):
        path.write_bytes(document)
    elif document is not None:  # None leaves the file missing
        path.write_text(json.dumps(document))  # NaN / Infinity tokens
    code = cli.main(["verify", "--instance", str(path), "--p=-inf,0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {error}")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    if error.startswith("cannot "):
        assert str(path) in captured.err


def test_every_command_refuses_more_agents_than_the_bound(tmp_path, capsys):
    # refused when the file loads: the greedy deal would size its arrays by n
    path = tmp_path / "many.json"
    path.write_text(json.dumps({"n": 2**40, "valuation": {"type": "additive",
                                                          "weights": [3.0, 1.0, 2.0]}}))
    flags = ["--instance", str(path), "--p=1"]
    for argv in (["solve", *flags, "--sw-backend", "greedy"], ["solve", *flags],
                 ["verify", *flags, "--sw-backend", "greedy"], ["exact", *flags],
                 ["gen", "--family", "additive", "--n", str(2**40), "--m", "3",
                  "--out", str(tmp_path / "gen.json")]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: at most 65536 agents supported, got n = 1099511627776\n"
    assert not (tmp_path / "gen.json").exists()


def test_verify_needs_an_exponent(instance_file, capsys):
    code = cli.main(["verify", "--instance", instance_file, "--p=,"])
    assert code == 2
    assert capsys.readouterr().err == "error: need at least one exponent\n"


def test_generate_rejects_an_unknown_family():
    with pytest.raises(ValueError, match="unknown family 'foo'"):
        cli.generate_instance("foo", 2, 3, 0)


def test_verify_csv_rows_mirror_json(instance_file, capsys):
    code, out = run(capsys, "verify", "--instance", instance_file, "--p=0,1",
                    "--output", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "p,alg_welfare,opt_welfare,ratio,status"
    assert len(lines) == 3


def test_budget_errors_exit_two(instance_file, capsys):
    code = cli.main(["exact", "--instance", instance_file, "--p=1", "--budget", "10"])
    assert code == 2
    assert "over budget 10" in capsys.readouterr().err
    # the greedy solve builds no set-up, so a small budget passes, but a bad
    # one is still refused
    greedy = ["solve", "--instance", instance_file, "--p=1", "--sw-backend", "greedy"]
    assert cli.main([*greedy, "--budget", "10"]) == 0
    capsys.readouterr()
    for argv in (["exact", "--instance", instance_file, "--p=1"], greedy):
        for bad in ("-5", "0"):
            code = cli.main([*argv, "--budget", bad])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert captured.err == f"error: --budget must be a positive integer, got {bad}\n"


@pytest.mark.parametrize("backend, guarantee", [("exact", "exact"), ("greedy", "heuristic")])
def test_reports_carry_the_estimates_guarantee(instance_file, capsys, monkeypatch, backend,
                                              guarantee):
    for command in ("solve", "verify"):
        code, out = run(capsys, command, "--instance", instance_file, "--p=0,1",
                        "--sw-backend", backend)
        assert code == 0
        assert json.loads(out)["guarantee"] == guarantee
    # the tag is the one alg's trace recorded, not a second lookup by backend
    real = cli.alg

    def relabeled(*args, **kwargs):
        alloc, trace = real(*args, **kwargs)
        trace.guarantee = Guarantee.HEURISTIC if backend == "exact" else Guarantee.EXACT
        return alloc, trace

    monkeypatch.setattr(cli, "alg", relabeled)
    code, out = run(capsys, "solve", "--instance", instance_file, "--p=1", "--sw-backend", backend)
    assert json.loads(out)["guarantee"] != guarantee


def test_check_ineq_report(capsys):
    code, out = run(capsys, "check-ineq")
    assert code == 0
    report = json.loads(out)
    assert report["ok"]
    assert 0.4 < report["root"] < 0.41
    parts = ("tail", "band", "negative_range", "positive_range", "upper_range")
    assert all(report[part]["ok"] for part in parts)
    assert report["positive_range"]["min_margin"] > 0.0
    with pytest.raises(SystemExit) as exc:  # the sampling grid and its step are gone
        cli.main(["check-ineq", "--grid-step", "0.01"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --grid-step 0.01" in capsys.readouterr().err


@pytest.mark.parametrize(
    "constant, value, failing",
    [
        # f'(0) = ln(ab/c) turns negative, so f > 0 just below 0 and < 0 just above
        ("C", 2.0 / 8.0, {"band", "negative_range", "positive_range"}),
        # 2 * 8^p <= 40^p only from p = ln 2 / ln 5 = 0.4307 up
        ("COMBINED_DIVISOR", 8.0, {"upper_range"}),
    ],
    ids=["c", "combined-divisor"],
)
def test_check_ineq_fails_on_wrong_constants(capsys, monkeypatch, constant, value, failing):
    monkeypatch.setattr(analysis, constant, value)
    code, out = run(capsys, "check-ineq")
    assert code == 1
    report = json.loads(out)
    assert not report["ok"] and report["root"] is None
    parts = {"tail", "band", "negative_range", "positive_range", "upper_range"}
    assert {part for part in parts if not report[part]["ok"]} == failing
    for name in failing & {"negative_range", "positive_range"}:
        lo, hi = report[name]["failed_piece"]
        assert report[name]["lo"] <= lo < hi <= report[name]["hi"] and hi - lo <= 1e-9


@pytest.mark.parametrize(
    "argv",
    [["gen", "--family", "additive", "--n", "2", "--m", "3"],
     ["hardness-demo", "--q", "2", "--mode", "yes"]],
    ids=["gen", "hardness-demo"],
)
@pytest.mark.parametrize(
    "target, reason",
    [("missing/x.json", "No such file or directory"), ("", "Is a directory")],
    ids=["missing-dir", "directory"],
)
def test_unwritable_out_exits_two_with_one_line(tmp_path, capsys, argv, target, reason):
    path = tmp_path / target
    code = cli.main([*argv, "--out", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: cannot write instance file {path}: {reason}\n"


def test_hardness_demo_yes(tmp_path, capsys):
    out_file = tmp_path / "gadget.json"
    code, out = run(capsys, "hardness-demo", "--q", "2", "--mode", "yes",
                    "--seed", "1", "--out", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "mode", "q", "hyperedges", "max_matching_size",
                           "perfect_matching", "table", "instance_file", "ok"}
    assert report["perfect_matching"] and report["ok"] and report["max_matching_size"] == 2
    assert report["instance_file"] == str(out_file) and len(report["hyperedges"]) == 4
    assert [row["p"] for row in report["table"]] == ["-inf", "-1", "0", "0.4", "1"]
    for row in report["table"]:
        assert set(row) == {"p", "opt_welfare", "ok"}
        assert row["ok"] and abs(row["opt_welfare"] - 3.0) <= 1e-9
    inst = load_instance(out_file)
    assert inst.n == 2 and inst.m == 6


def test_hardness_demo_no(capsys):
    code, out = run(capsys, "hardness-demo", "--q", "3", "--mode", "no", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert set(report) == {"command", "mode", "q", "hyperedges", "max_matching_size", "alpha",
                           "table", "instance_file", "ok"}
    assert report["alpha"] == 1 / 3 and report["max_matching_size"] == 1 and report["ok"]
    assert report["instance_file"] is None and len(report["hyperedges"]) == 4
    for row in report["table"]:
        assert set(row) == {"p", "opt_welfare", "bound", "ok"}
        assert row["ok"] and row["bound"] == 2 + 1 / 3
        assert row["opt_welfare"] <= row["bound"] + 1e-9


def test_hardness_demo_exits_one_when_a_row_fails(capsys, monkeypatch):
    from pmean import hardness
    from pmean.oracle import OptResult

    real = hardness.p_opt_grid

    def inflated(inst, ps, dp):
        return [OptResult(r.p, r.alloc, r.welfare + 1.0) for r in real(inst, ps, dp)]

    monkeypatch.setattr(hardness, "p_opt_grid", inflated)
    code, out = run(capsys, "hardness-demo", "--q", "2", "--mode", "yes", "--p=0,1")
    assert code == 1
    report = json.loads(out)
    assert not report["ok"] and [row["ok"] for row in report["table"]] == [False, False]


@pytest.mark.parametrize(
    "q, mode, largest",
    [(11, "yes", 10), (20, "no", 19), (100000, "yes", 10), (100000, "no", 19)],
)
def test_hardness_demo_refuses_a_gadget_too_large_to_check(tmp_path, capsys, q, mode, largest):
    # refused before the gadget is drawn, so nothing is built or written
    out_file = tmp_path / "gadget.json"
    start = time.perf_counter()
    code = cli.main(["hardness-demo", "--q", str(q), "--mode", mode, "--out", str(out_file)])
    assert time.perf_counter() - start < 0.5
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == (f"error: --q {q} is too large: --mode {mode} checks q <= {largest}, "
                            "as the matching search stops at 20 edges\n")
    assert not out_file.exists()


def test_hardness_demo_no_rejects_single_agent(capsys):
    code, _ = run(capsys, "hardness-demo", "--q", "1", "--mode", "no")
    assert code == 2


def test_verify_on_matching_gadget_reports_optimum_three(tmp_path, capsys):
    gadget_file = tmp_path / "gadget.json"
    run(capsys, "hardness-demo", "--q", "2", "--mode", "yes", "--seed", "0",
        "--out", str(gadget_file))
    code, out = run(capsys, "verify", "--instance", str(gadget_file), "--p=-inf,0,1")
    assert code == 0
    report = json.loads(out)
    for row in report["table"]:
        assert row["opt_welfare"] == pytest.approx(3.0, abs=1e-9)
        assert row["status"] == "pass"


def test_the_parser_is_built_once_and_keeps_no_state(instance_file, capsys, monkeypatch):
    parsers = []
    real = argparse.ArgumentParser.parse_args

    def recorded(self, *args, **kwargs):
        parsers.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
    solve = ["solve", "--instance", instance_file, "--p=-inf,0,1"]
    # a budget given once is not remembered by the next call
    code = cli.main([*solve, "--budget", "5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "over budget 5" in captured.err
    code, out = run(capsys, *solve)
    assert code == 0 and json.loads(out)["table"][0]["p"] == "-inf"
    # nor is an output format
    code, out = run(capsys, *solve, "--output", "csv")
    assert code == 0 and out.splitlines()[0] == "p,alg_welfare"
    code, out = run(capsys, *solve, "--output", "json")
    assert code == 0 and json.loads(out)["command"] == "solve"
    # nor a parse failure
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--instance", instance_file])
    assert exc.value.code == 2
    assert "required: --p" in capsys.readouterr().err
    code, out = run(capsys, *solve, "--sw-backend", "greedy")
    assert code == 0 and json.loads(out)["sw_backend"] == "greedy"
    assert len(parsers) == 6
    assert all(parser is cli.build_parser() for parser in parsers)


@pytest.mark.parametrize("backend", ["exact", "greedy"])
@pytest.mark.parametrize("family", cli.FAMILIES)
def test_report_welfare_is_p_mean_welfare_bit_for_bit(tmp_path, capsys, monkeypatch, family,
                                                     backend):
    path = str(tmp_path / f"{family}.json")
    run(capsys, "gen", "--family", family, "--n", "3", "--m", "7", "--seed", "5", "--out", path)
    inst = load_instance(path)
    valued = []

    def counted(*args):
        valued.append(args)
        return bundle_values(*args)

    monkeypatch.setattr(cli, "bundle_values", counted)
    tokens = ["-inf", "-30", "-1", "-0.5", "0", "1e-05", "0.4", "0.9", "1"]
    for command in ("solve", "verify"):
        code, out = run(capsys, command, "--instance", path, "--p=" + ",".join(tokens),
                        "--sw-backend", backend)
        assert code == 0
        report = json.loads(out)
        alloc = [mask_of(goods) for goods in report["allocation"]]
        assert report["bundle_values"] == bundle_values(inst, alloc)
        for row, token in zip(report["table"], tokens, strict=True):
            assert row["alg_welfare"] == p_mean_welfare(inst, alloc, parse_exponent(token))
    assert len(valued) == 2  # once per report
