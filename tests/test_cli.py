import json

import pytest

from pmean import cli
from pmean.swmax import Guarantee
from pmean.valuations import check_axioms, load_instance, value


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


def test_gen_single_clause_xos_is_additive(tmp_path, capsys):
    xp, ap = tmp_path / "x.json", tmp_path / "a.json"
    run(capsys, "gen", "--family", "xos", "--n", "2", "--m", "8", "--seed", "4",
        "--clauses", "1", "--out", str(xp))
    run(capsys, "gen", "--family", "additive", "--n", "2", "--m", "8", "--seed", "4",
        "--out", str(ap))
    xv = load_instance(xp).valuation
    av = load_instance(ap).valuation
    for s in range(1 << 8):
        assert value(xv, s) == pytest.approx(value(av, s), abs=1e-12)


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


def test_verify_reports_violations_with_exit_one(instance_file, capsys, monkeypatch):
    # the exit contract, driven by a sham oracle that inflates the optimum
    from pmean.oracle import OptResult

    real = cli.p_opt_grid

    def inflated(inst, ps, budget):
        return [OptResult(r.p, r.alloc, r.welfare * 1000.0) for r in real(inst, ps, budget)]

    monkeypatch.setattr(cli, "p_opt_grid", inflated)
    code, out = run(capsys, "verify", "--instance", instance_file, "--p=1")
    assert code == 1
    assert json.loads(out)["table"][0]["status"] == "fail"


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
    "n, valuation, field",
    [
        (2, {"type": "additive", "weights": [float("nan"), 1.0, 2.0]}, "weights"),
        (2, {"type": "budget_additive", "weights": [1.0, 2.0], "cap": float("inf")}, "cap"),
        (2.7, {"type": "additive", "weights": [1.0, 2.0, 3.0]}, "n"),
        (2, {"type": "xos", "clauses": [[1.0, float("-inf")]]}, "clause weights"),
        (2, {"type": "explicit", "table": [0.0, 1.0, float("inf"), 2.0]}, "table values"),
        (2, {"type": "explicit", "table": [0, 1, 1, 10]}, "table"),
    ],
    ids=["nan-weight", "infinite-cap", "fractional-n", "infinite-clause", "infinite-table",
         "superadditive-table"],
)
def test_verify_rejects_a_bad_field_with_exit_two(tmp_path, capsys, n, valuation, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": n, "valuation": valuation}))  # NaN / Infinity tokens
    code = cli.main(["verify", "--instance", str(path), "--p=-inf,0,1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {field} must be")


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
    for bad in ("-5", "0"):
        code = cli.main(["exact", "--instance", instance_file, "--p=1", "--budget", bad])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: --budget must be a positive integer, got {bad}\n"


def test_budget_env_override(instance_file, capsys, monkeypatch):
    monkeypatch.setenv("PMEAN_BUDGET", "10")
    code, _ = run(capsys, "exact", "--instance", instance_file, "--p=1")
    assert code == 2
    monkeypatch.setenv("PMEAN_BUDGET", "100")
    code, _ = run(capsys, "exact", "--instance", instance_file, "--p=1")
    assert code == 0
    for bad in ("abc", "-5", "0", "1.5", ""):
        monkeypatch.setenv("PMEAN_BUDGET", bad)
        code = cli.main(["exact", "--instance", instance_file, "--p=1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: PMEAN_BUDGET must be a positive integer, got {bad!r}\n"
    # the flag wins over the variable, bad or not
    code, _ = run(capsys, "exact", "--instance", instance_file, "--p=1", "--budget", "100")
    assert code == 0


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
    assert report["worst_violation"] == 0.0


@pytest.mark.parametrize("step", ["nan", "100", "inf", "0", "-0.01"])
def test_check_ineq_rejects_a_bad_grid_step(capsys, step):
    code = cli.main(["check-ineq", "--grid-step", step])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: --grid-step must be finite and in (0, 50], got {float(step)}\n"


def test_hardness_demo_yes(tmp_path, capsys):
    out_file = tmp_path / "gadget.json"
    code, out = run(capsys, "hardness-demo", "--q", "2", "--mode", "yes",
                    "--seed", "1", "--out", str(out_file))
    assert code == 0
    report = json.loads(out)
    assert report["perfect_matching"]
    assert all(abs(row["opt_welfare"] - 3.0) <= 1e-9 for row in report["table"])
    inst = load_instance(out_file)
    assert inst.n == 2 and inst.m == 6


def test_hardness_demo_no(capsys):
    code, out = run(capsys, "hardness-demo", "--q", "3", "--mode", "no", "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["alpha"] < 1
    for row in report["table"]:
        assert row["opt_welfare"] <= row["bound"] + 1e-9


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
