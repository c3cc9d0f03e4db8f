"""End-to-end command tests; every command runs in process through main()."""

import csv
import json
import math

import numpy as np
import pytest

from edgemarket import market
from edgemarket.benchmarks import METHODS, run_method
from edgemarket.cli import main
from edgemarket.experiments import SweepSpec, run_sweep
from edgemarket.scenario import default_scenario_obj, load_scenario

SMALL = ("--set", "population.total_users=24", "--set", "population.n_types=3")
SOLVE_OUTPUTS = ("menus.json", "matching.csv", "assignment.json", "trace.csv",
                 "metrics.json")
BENCH_OUTPUTS = ("bench_ours.json", "bench_ct.json", "bench_mc.json",
                 "bench_gsmc.json", "comparison.csv", "totals.json")


def read(path):
    return path.read_text(encoding="utf-8")


def read_csv(path):
    """Header and rows, past any leading `#` version line."""
    lines = [line for line in read(path).splitlines() if not line.startswith("#")]
    header, *rows = csv.reader(lines)
    return header, rows


def floats(cells):
    # Each cell is the repr of a float, which reads back to the same float.
    assert all(cell == repr(float(cell)) for cell in cells), cells
    return [float(cell) for cell in cells]


def assert_menus_read_back(menus_obj, menus):
    assert len(menus_obj) == len(menus)
    for rows, menu in zip(menus_obj, menus):
        assert [row["latency_s"] for row in rows] == list(menu.latencies)
        assert [row["price_usd"] for row in rows] == list(menu.prices)


def test_solve_writes_all_outputs(tmp_path):
    out = tmp_path / "solve"
    assert main(["solve", "--out", str(out)]) == 0
    for name in SOLVE_OUTPUTS:
        assert (out / name).exists(), name

    metrics = json.loads(read(out / "metrics.json"))
    assert metrics["converged"] is True
    assert metrics["projected"]["max_user_regret"] <= 5e-3
    assert metrics["projected"]["max_operator_gain_ratio"] <= 0.01
    assert all(w == 0.0 for w in metrics["shadow_prices"])

    menus = json.loads(read(out / "menus.json"))["menus"]
    assert len(menus) == 3
    assert all(len(m) == 8 for m in menus)
    assert menus[0][0]["type_index"] == 1
    assert {"latency_s", "price_usd"} <= set(menus[0][0])

    assignment = json.loads(read(out / "assignment.json"))
    assert assignment["columns"] == ["opt_out", "op_1", "op_2", "op_3"]
    assert all(sum(row) == 1 for row in assignment["assignment"])

    trace = read(out / "trace.csv").splitlines()
    assert trace[0] == "# edgemarket trace v1"
    assert trace[1].startswith("iteration,temperature,matching_residual")
    assert len(trace) == 2 + metrics["iterations"]

    matching = read(out / "matching.csv").splitlines()
    assert matching[0] == "type,opt_out,op_1,op_2,op_3"
    assert len(matching) == 9
    for line in matching[1:]:
        probs = [float(x) for x in line.split(",")[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-9)


def test_solve_without_convergence_exits_2_with_all_outputs(tmp_path, capsys):
    out = tmp_path / "solve"
    assert main(["solve", "--out", str(out), "--set", "solver.max_iters=1"]) == 2
    assert "no convergence in 1 iterations" in capsys.readouterr().err
    for name in SOLVE_OUTPUTS:
        assert (out / name).exists(), name
    assert json.loads(read(out / "metrics.json"))["converged"] is False


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON")


def test_solve_writes_strict_json_when_an_idle_operator_could_gain(tmp_path):
    # At 600 users an operator the projection leaves idle could still gain,
    # so its best-response gain ratio is infinite; JSON writes it as null.
    out = tmp_path / "solve"
    assert main(["solve", "--out", str(out),
                 "--set", "population.total_users=600"]) == 2
    for name in ("menus.json", "assignment.json", "metrics.json"):
        json.loads(read(out / name), parse_constant=_reject_constant)
    metrics = json.loads(read(out / "metrics.json"))
    assert metrics["projected"]["max_operator_gain_ratio"] is None


def test_solve_files_read_back_as_the_in_memory_result(tmp_path):
    out = tmp_path / "solve"
    assert main(["solve", "--out", str(out), *SMALL]) == 0
    scn = load_scenario(None, SMALL[1::2])
    outcome = market.run_fixed_point(scn)
    assignment = market.project_matching(
        outcome.matching, market.capacities(scn), scn.population,
        scn.task.arrival_rate_per_user,
    )
    report = market.verify_selection_equilibrium(assignment, outcome.menus, scn)

    assert_menus_read_back(json.loads(read(out / "menus.json"))["menus"],
                           outcome.menus)
    _, rows = read_csv(out / "matching.csv")
    assert [floats(row[1:]) for row in rows] == outcome.matching.probs.tolist()
    assert json.loads(read(out / "assignment.json"))["assignment"] == \
        assignment.tolist()
    _, rows = read_csv(out / "trace.csv")
    assert len(rows) == len(outcome.trace)
    for row, rec in zip(rows, outcome.trace):
        assert int(row[0]) == rec.iteration
        assert floats(row[1:]) == [rec.temperature, rec.matching_residual,
                                   rec.menu_residual, *rec.shadow_prices,
                                   *rec.objectives]

    metrics = json.loads(read(out / "metrics.json"))
    assert metrics["converged"] == outcome.converged
    assert metrics["iterations"] == outcome.iterations
    assert metrics["shadow_prices"] == list(outcome.shadow_prices.omegas)
    for key, matching in (("mixed", outcome.matching.probs),
                          ("projected", assignment)):
        totals = market.evaluate_matching(matching, outcome.menus, scn)
        assert metrics[key]["total_operator_utility"] == \
            totals.total_operator_utility
        assert metrics[key]["social_welfare"] == totals.social_welfare
        assert metrics[key]["per_operator_utility"] == \
            list(totals.per_operator_utility)
    assert metrics["projected"]["max_user_regret"] == report.max_regret
    # An infinite gain ratio is written as null.
    ratio = report.max_gain_ratio
    assert metrics["projected"]["max_operator_gain_ratio"] == (
        ratio if math.isfinite(ratio) else None
    )


def test_solve_rejects_bad_override(tmp_path, capsys):
    code = main(["solve", "--out", str(tmp_path / "x"),
                 "--set", "solver.zeta=1.5"])
    assert code == 1
    assert "zeta" in capsys.readouterr().err


def test_solve_rejects_unknown_key(tmp_path, capsys):
    code = main(["solve", "--out", str(tmp_path / "x"),
                 "--set", "solver.nope=1"])
    assert code == 1
    assert "nope" in capsys.readouterr().err


def test_unwritable_output_directory(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory", encoding="utf-8")
    code = main(["solve", "--out", str(blocker / "sub")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bench_outputs_and_determinism(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bench", "--out", str(out1)]) == 0
    assert main(["bench", "--out", str(out2)]) == 0
    for name in BENCH_OUTPUTS:
        assert (out1 / name).exists(), name
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    totals = json.loads(read(out1 / "totals.json"))
    assert set(totals) == {"OURS", "CT", "MC", "GSMC"}
    comparison = read(out1 / "comparison.csv").splitlines()
    assert comparison[0] == ("type,ours_opt_out,ours_op_1,ours_op_2,ours_op_3"
                             ",ct,mc,gsmc")
    assert len(comparison) == 9


def test_bench_files_read_back_as_the_in_memory_results(tmp_path):
    out = tmp_path / "bench"
    assert main(["bench", "--out", str(out), *SMALL]) == 0
    scn = load_scenario(None, SMALL[1::2])
    results = {name: run_method(scn, name) for name in METHODS}
    totals = json.loads(read(out / "totals.json"))
    for name, result in results.items():
        obj = json.loads(read(out / f"bench_{name.lower()}.json"))
        assert obj["assignment"] == result.assignment.tolist()
        assert_menus_read_back(obj["menus"], result.menus)
        assert obj["design_congestion"] == result.design_congestion.tolist()
        if result.mixed_matching is not None:
            assert obj["mixed_matching"] == result.mixed_matching.tolist()
        for record in (obj, totals[name]):
            assert record["total_operator_utility"] == result.total_operator_utility
            assert record["social_welfare"] == result.social_welfare
            assert record["converged"] == result.converged
    _, rows = read_csv(out / "comparison.csv")
    n_ops = scn.n_operators
    assert len(rows) == scn.n_types
    for n, row in enumerate(rows):
        assert floats(row[1:n_ops + 2]) == results["OURS"].mixed_matching[n].tolist()
        assert [int(x) for x in row[n_ops + 2:]] == [
            int(np.argmax(results[name].assignment[n])) for name in METHODS[1:]
        ]


def test_seed_flag_is_applied_after_set(tmp_path):
    # --seed applies after every --set, whatever their order on the command
    # line, so the composition is drawn at seed 3.
    outs = {}
    for label, flags in (("flag", ("--seed", "3", "--set", "seed=5")),
                         ("three", ("--seed", "3")), ("five", ("--seed", "5"))):
        outs[label] = tmp_path / label
        assert main(["bench", "--out", str(outs[label]), *SMALL, *flags]) == 0
    flag, three, five = (read(outs[k] / "bench_ct.json")
                         for k in ("flag", "three", "five"))
    assert flag == three
    assert flag != five


def test_seed_flag_changes_the_composition(tmp_path):
    out1, out2 = tmp_path / "s0", tmp_path / "s3"
    assert main(["bench", "--out", str(out1), *SMALL]) == 0
    assert main(["bench", "--out", str(out2), *SMALL, "--seed", "3"]) == 0
    a = json.loads(read(out1 / "bench_ct.json"))
    b = json.loads(read(out2 / "bench_ct.json"))
    assert a["design_congestion"] != b["design_congestion"]


def test_scenario_file_flag(tmp_path):
    scn_path = tmp_path / "scn.json"
    scn_path.write_text(json.dumps({
        "population": {"total_users": 24, "n_types": 3},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert main(["solve", "--scenario", str(scn_path), "--out", str(out)]) == 0
    menus = json.loads(read(out / "menus.json"))["menus"]
    assert all(len(m) == 3 for m in menus)


def test_sweep_writes_detail_and_mean(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), *SMALL,
                 "--sweep", "total_users=24,30", "--replicates", "1"]) == 0
    detail = read(out / "sweep_total_users.csv").splitlines()
    mean = read(out / "sweep_total_users_mean.csv").splitlines()
    assert detail[0] == "# edgemarket sweep v1"
    assert mean[0] == "# edgemarket sweep v1"
    # 2 values x 1 replicate x 4 methods, plus version and header lines
    assert len(detail) == 2 + 8
    assert len(mean) == 2 + 8


def test_sweep_csvs_end_every_line_in_a_newline(tmp_path):
    # As every other CSV does; the csv module's own default row end is "\r\n".
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), *SMALL,
                 "--sweep", "total_users=24", "--replicates", "1"]) == 0
    for name in ("sweep_total_users.csv", "sweep_total_users_mean.csv"):
        assert b"\r" not in (out / name).read_bytes()


def test_sweep_csvs_read_back_as_the_in_memory_rows(tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--out", str(out), *SMALL,
                 "--sweep", "total_users=24", "--replicates", "1"]) == 0
    rows = run_sweep(load_scenario(None, SMALL[1::2]),
                     SweepSpec(axis="total_users", values=(24.0,), replicates=1))
    text = read(out / "sweep_total_users.csv").splitlines()
    assert text[0] == "# edgemarket sweep v1"
    parsed = list(csv.DictReader(text[1:]))
    assert len(parsed) == len(rows)
    for row, rec in zip(rows, parsed):
        # repr round-trips floats exactly
        assert float(rec["total_operator_utility"]) == row.total_operator_utility
        assert float(rec["social_welfare"]) == row.social_welfare
    assert read(out / "sweep_total_users_mean.csv").startswith(
        "# edgemarket sweep v1\n"
    )


# The solve's prices and utilities overflow to inf at this alpha_worst (a
# magnitude bound on such inputs is still open), and GSMC's margins overflow
# with a RuntimeWarning on the way.
OVERFLOWING = ("--set", "population.alpha_worst=1e308", *SMALL)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("command, extra, outputs", [
    ("solve", (), SOLVE_OUTPUTS),
    ("bench", (), BENCH_OUTPUTS),
    ("sweep", ("--sweep", "total_users=24", "--replicates", "1"),
     ("sweep_total_users.csv", "sweep_total_users_mean.csv")),
], ids=["solve", "bench", "sweep"])
def test_a_non_finite_output_writes_no_file(tmp_path, capsys, command, extra,
                                           outputs):
    out = tmp_path / command
    assert main([command, "--out", str(out), *OVERFLOWING, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "non-finite" in err
    assert any(str(out / name) in err for name in outputs), err
    assert list(out.iterdir()) == []


def test_sweep_rejects_malformed_axis(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path / "x"), "--sweep", "zeta"])
    assert code == 1
    assert "AXIS=" in capsys.readouterr().err
    # Not a number, or not an integer on an integer axis.
    for sweep in ("zeta=abc", "total_users=inf", "num_types=nan",
                  "num_types=2.5", "total_users=150.7"):
        code = main(["sweep", "--out", str(tmp_path / "x"), "--sweep", sweep])
        assert code == 1, sweep
        assert capsys.readouterr().err.startswith("error:"), sweep
    # Not finite, on any axis: the error names the axis.
    for sweep in ("violation_cost_scale=inf", "violation_cost_scale=nan",
                  "dirichlet_alpha=inf"):
        code = main(["sweep", "--out", str(tmp_path / "x"), "--sweep", sweep,
                     "--replicates", "1"])
        assert code == 1, sweep
        err = capsys.readouterr().err
        assert err.startswith("error:") and sweep.split("=")[0] in err, sweep


def test_validate_prints_one_line_per_check(capsys):
    # The second composition leaves the small-menu oracle's three types empty;
    # the third gives it fewer than three types.
    for args in (SMALL, ("--set", "population.counts=[0,0,0,5,5,5,5,5]"),
                 ("--set", "population.n_types=2")):
        code = main(["validate", *args])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        assert len(out) == 4
        assert all(line.startswith("PASS ") for line in out)
        names = [line.split()[1].rstrip(":") for line in out]
        assert names == ["floor-stability", "bound-dominance", "menu-ic-ir",
                         "small-menu-oracle"]
        assert float(out[1].split("worst margin ")[1]) > 0.0
        assert out[3].split(": ", 1)[1].startswith("objective gap ")


# (scenario file contents or None, --set override or None, key the error names)
MALFORMED = [
    ({"task": {"bogus": 1}}, None, "task.bogus"),
    ({"bogus": 1}, None, "bogus"),
    ({"solver": {"bogus": 1}}, None, "solver.bogus"),
    ({"operators": [{"quality": 2.0}]}, None, "operators.0.uplink"),
    ({"operators": [{"quality": 2.0, "bogus": 1}]}, None, "operators.0.bogus"),
    (None, "solver.max_iters=abc", "solver.max_iters"),
    (None, "seed=x", "seed"),
    (None, "operators.0.uplink.servers=2.7", "operators.0.uplink.servers"),
    # Not finite: JSON's NaN and Infinity, in --set and in a file.
    (None, "operators.0.violation_cost=NaN", "operators.0.violation_cost"),
    (None, "operators.0.exec_cost_per_task=Infinity",
     "operators.0.exec_cost_per_task"),
    (None, "operators.0.refund=NaN", "operators.0.refund"),
    (None, "task.input_size_mb=Infinity", "task.input_size_mb"),
    (None, "solver.temp_start=Infinity", "solver.temp_start"),
    (None, "solver.price_step=Infinity", "solver.price_step"),
    (None, "solver.latency_hi=Infinity", "solver.latency_hi"),
    ({"solver": {"latency_hi": math.inf}}, None, "solver.latency_hi"),
    ({"population": {"betas": [1e-4, math.nan]}}, None, "population.betas.1"),
    # An object or list set by --set is key-checked as a file's is.
    (None, "task=" + json.dumps({**default_scenario_obj()["task"], "bogus": 1}),
     "task.bogus"),
    (None, "operators=" + json.dumps([{**default_scenario_obj()["operators"][0],
                                       "srvers": 48}]),
     "operators.0.srvers"),
    (None, 'operators.0={"quality": 2.0, "bogus": 1}', "operators.0.bogus"),
]


@pytest.mark.parametrize("file_obj, override, key", MALFORMED,
                         ids=[f"{key}-{'file' if obj else 'set'}"
                              for obj, _, key in MALFORMED])
def test_validate_rejects_malformed_scenarios(tmp_path, capsys, file_obj,
                                              override, key):
    args = ["validate"]
    if file_obj is not None:
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(file_obj), encoding="utf-8")
        args += ["--scenario", str(path)]
    if override is not None:
        args += ["--set", override]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert f"'{key}" in err


@pytest.mark.parametrize("content", [b'{"seed": 1,', b"\xff\xfe{}"],
                         ids=["truncated", "not-utf8"])
def test_validate_rejects_an_undecodable_scenario_file(tmp_path, capsys, content):
    path = tmp_path / "scenario.json"
    path.write_bytes(content)
    assert main(["validate", "--scenario", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err


def test_validate_fails_on_unstable_floor(capsys):
    code = main(["validate", "--set", "operators.2.processing.servers=1",
                 "--set", "operators.2.processing.unit_throughput=3.6e11"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL floor-stability" in out


def test_emit_plots_writes_scripts(tmp_path):
    out = tmp_path / "plots"
    assert main(["emit-plots", "--out", str(out)]) == 0
    for name in ("plot_market_structure.py", "plot_economics.py",
                 "plot_robustness.py", "PLOTS.txt"):
        assert (out / name).exists(), name
    text = read(out / "plot_market_structure.py")
    assert "total_users" in text and "matplotlib" in text
    compile(text, "plot_market_structure.py", "exec")
