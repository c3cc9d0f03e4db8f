"""Scenario construction, user composition draws, overrides, file round
trips, and the sweep machinery built on top of them."""

import inspect
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from edgemarket import (
    DomainError,
    Scenario,
    SetupError,
    SolverConfig,
    StageResources,
    default_scenario,
    dirichlet_composition,
    effective_capacity,
    load_scenario,
)
from edgemarket.contracts import optimize_menu, optimize_menu_with_profile
from edgemarket.market import check_floor_feasible
from edgemarket.scenario import (
    apply_override,
    default_betas,
    default_scenario_obj,
    save_scenario,
    scenario_from_obj,
    scenario_to_obj,
)
from edgemarket.experiments import (
    SweepSpec,
    aggregate_rows,
    run_sweep,
    scenario_for_cell,
)
from edgemarket.benchmarks import run_method


def test_default_scenario_shape_and_frozen_values():
    scn = default_scenario()
    assert scn == load_scenario(None)
    assert scn.seed == 0
    assert scn.dirichlet_alpha == 10.0
    assert scn.population.alpha_worst == 1.0
    assert len(scn.operators) == 3
    assert scn.population.n_types == 8
    assert scn.population.total_users == 150
    assert scn.population.betas == default_betas(8)
    assert scn.population.betas[0] == pytest.approx(8e-4)
    assert scn.task.arrival_rate_per_user == 24.0
    # full market peak demand
    assert scn.population.total_users * scn.task.arrival_rate_per_user == 3600.0
    caps = [effective_capacity(s, scn.task, scn.solver.safety)
            for s in scn.operators]
    assert caps[0] > caps[1] > caps[2]
    for op in scn.operators:
        assert op.quality == 1.5
        assert op.refund == pytest.approx(1.2e-4)
        assert op.violation_cost == pytest.approx(1.2e-3)
        assert op.exec_cost_per_task == pytest.approx(8e-6)


def test_menu_solve_defaults_are_the_solver_defaults():
    # optimize_menu's keyword defaults and SolverConfig's fields read the same
    # constants, so a changed default changes both.
    cfg = SolverConfig()
    for fn in (optimize_menu, optimize_menu_with_profile):
        params = inspect.signature(fn).parameters
        bounds = params["latency_bounds"].default
        assert bounds == cfg.latency_bounds == (1e-3, 10.0)
    zeta = inspect.signature(optimize_menu).parameters["zeta"].default
    assert zeta == cfg.zeta == 0.9


def test_default_composition_is_reproducible():
    a = default_scenario(seed=0).population.counts
    b = default_scenario(seed=0).population.counts
    c = default_scenario(seed=1).population.counts
    assert a == b
    assert a != c
    assert sum(a) == sum(c) == 150


def test_dirichlet_composition_sums_exactly():
    for seed in range(20):
        counts = dirichlet_composition(10.0, 8, 150, seed)
        assert sum(counts) == 150
        assert all(c >= 0 for c in counts)
    assert dirichlet_composition(10.0, 3, 0, 0) == (0, 0, 0)


def test_dirichlet_concentration_limits():
    # huge alpha: essentially even split
    counts = dirichlet_composition(1e6, 8, 150, 3)
    assert all(abs(c - 150 / 8) <= 1.0 for c in counts)
    # tiny alpha: one type frequently dominates
    dominated = sum(
        max(dirichlet_composition(0.1, 8, 150, seed)) > 75
        for seed in range(300)
    )
    assert dominated >= 90


def test_dirichlet_tracks_raw_shares():
    rng = np.random.default_rng(5)
    shares = rng.dirichlet(np.full(8, 10.0))
    counts = dirichlet_composition(10.0, 8, 150, 5)
    assert all(abs(c - s * 150) < 1.0 for c, s in zip(counts, shares))


def test_floor_feasibility_guard():
    check_floor_feasible(default_scenario())
    obj = default_scenario_obj()
    obj["operators"][2]["processing"]["servers"] = 1
    obj["operators"][2]["processing"]["unit_throughput"] = 3.6e11
    scn = scenario_from_obj(obj)
    with pytest.raises(SetupError, match="operator 3"):
        check_floor_feasible(scn)


def test_scenario_file_round_trip(tmp_path):
    scn = default_scenario(seed=4)
    path = tmp_path / "scenario.json"
    save_scenario(scn, path)
    again = load_scenario(path)
    assert scenario_to_obj(again) == scenario_to_obj(scn)
    assert again == scn
    # Every section off its default: a field the file form dropped would
    # come back as its default and break the equality.
    moved = load_scenario(None, (
        "seed=7", "dirichlet_alpha=3.5", "task.input_size_mb=0.2",
        "task.arrival_rate_per_user=20", "population.alpha_worst=0.8",
        "population.betas=[9e-4, 5e-4, 2e-4]", "population.counts=[4, 0, 11]",
        "operators.1.processing.servers=17", "operators.2.refund=2e-4",
        "solver.max_iters=33", "solver.zeta=0.85", "solver.latency_hi=8",
    ))
    moved_path = tmp_path / "moved.json"
    save_scenario(moved, moved_path)
    assert load_scenario(moved_path) == moved
    # counts are pinned in the file, so the seed no longer matters for them
    bumped = load_scenario(path, seed=9)
    assert bumped.population.counts == scn.population.counts
    assert bumped.seed == 9


def test_partial_scenario_file_merges_over_defaults(tmp_path):
    path = tmp_path / "partial.json"
    path.write_text(json.dumps({"solver": {"zeta": 0.8}}), encoding="utf-8")
    scn = load_scenario(path)
    assert scn.solver.zeta == 0.8
    assert scn.solver.damping == default_scenario().solver.damping


def test_save_scenario_rejects_a_non_finite_number(tmp_path):
    # load_scenario rejects a non-finite float field, so such a file could
    # not be read back: it is not written.
    scn = replace(default_scenario(), solver=SolverConfig(price_step=math.inf))
    path = tmp_path / "scenario.json"
    with pytest.raises(DomainError, match="scenario.json"):
        save_scenario(scn, path)
    assert not path.exists()


def test_set_merges_an_object_as_a_scenario_file_does(tmp_path):
    path = tmp_path / "solver.json"
    path.write_text(json.dumps({"solver": {"damping": 0.5}}), encoding="utf-8")
    from_set = load_scenario(None, ('solver={"damping": 0.5}',))
    assert from_set == load_scenario(path)
    assert from_set.solver == SolverConfig(damping=0.5)


def test_apply_override_paths():
    obj = default_scenario_obj()
    apply_override(obj, "solver.damping", "0.5")
    assert obj["solver"]["damping"] == 0.5
    apply_override(obj, "operators.1.quality", "2.0")
    assert obj["operators"][1]["quality"] == 2.0
    apply_override(obj, "population.total_users", "90")
    assert obj["population"]["total_users"] == 90
    with pytest.raises(DomainError, match="bogus"):
        apply_override(obj, "solver.bogus", "1")
    with pytest.raises(DomainError, match="quality"):
        apply_override(obj, "operators.quality", "2.0")
    with pytest.raises(DomainError, match="out of range"):
        apply_override(obj, "operators.7.quality", "2.0")


def test_validation_errors_name_the_field():
    with pytest.raises(DomainError, match="zeta"):
        load_scenario(None, overrides=("solver.zeta=1.5",))
    with pytest.raises(DomainError, match="damping"):
        SolverConfig(damping=0.0)
    with pytest.raises(DomainError, match="temperature"):
        SolverConfig(temp_start=0.001, temp_end=0.01)
    with pytest.raises(DomainError, match="KEY=VALUE"):
        load_scenario(None, overrides=("solver.zeta",))
    with pytest.raises(DomainError):
        StageResources(0, 9.0)
    for override in ("solver.price_step=0", "solver.demand_floor=1",
                     "solver.safety=1.5", "solver.max_iters=0",
                     "solver.matching_tol=0", "solver.menu_tol=-1",
                     "solver.latency_lo=0", "solver.latency_hi=5e-4",
                     "operators=[]", "dirichlet_alpha=0"):
        field = override.split("=")[0].rpartition(".")[2]
        with pytest.raises(DomainError, match=field):
            load_scenario(None, overrides=(override,))
    # With the counts pinned no composition is drawn; the scenario's own check
    # rejects the concentration.
    with pytest.raises(DomainError, match="dirichlet_alpha"):
        load_scenario(None, overrides=("population.counts=[20,20,20,20,20,20,20,10]",
                                       "dirichlet_alpha=0"))


def test_scenario_for_cell_axes():
    base = default_scenario(total_users=30, n_types=4)
    scn = scenario_for_cell(base, "total_users", 60, 7)
    assert scn.population.total_users == 60
    assert scn.seed == 7
    scn = scenario_for_cell(base, "num_types", 6, 0)
    assert scn.population.n_types == 6
    scn = scenario_for_cell(base, "refund_scale", 2.0, 0)
    assert scn.operators[0].refund == pytest.approx(2.4e-4)
    scn = scenario_for_cell(base, "violation_cost_scale", 0.5, 0)
    assert scn.operators[0].violation_cost == pytest.approx(0.6e-3)
    scn = scenario_for_cell(base, "zeta", 0.7, 0)
    assert scn.solver.zeta == 0.7
    scn = scenario_for_cell(base, "dirichlet_alpha", 0.5, 3)
    assert scn.dirichlet_alpha == 0.5
    assert scn.population.total_users == 30
    with pytest.raises(DomainError):
        scenario_for_cell(base, "nonsense", 1.0, 0)
    with pytest.raises(DomainError):
        SweepSpec(axis="nonsense", values=(1.0,))
    with pytest.raises(DomainError):
        SweepSpec(axis="zeta", values=())
    with pytest.raises(DomainError):
        SweepSpec(axis="zeta", values=(0.9,), replicates=0)


@pytest.mark.parametrize("axis, value, key", [
    ("total_users", 60, "population.total_users"),
    ("num_types", 5, "population.n_types"),
    ("zeta", 0.7, "solver.zeta"),
    ("dirichlet_alpha", 0.5, "dirichlet_alpha"),
])
def test_a_sweep_cell_is_the_scenario_its_override_loads(axis, value, key):
    base = load_scenario(None)
    for seed in (0, 7):
        assert (scenario_for_cell(base, axis, value, seed)
                == load_scenario(None, (f"{key}={value}",), seed))


def test_a_sweep_cell_redraws_the_pinned_counts_of_its_base():
    base = load_scenario(None, ("population.betas=[3e-4,2e-4,1e-4]",
                                "population.counts=[5,6,7]"))
    cell = scenario_for_cell(base, "total_users", 30, 4)
    assert cell.population.betas == base.population.betas
    assert cell.population.counts == dirichlet_composition(
        base.dirichlet_alpha, 3, 30, 4)


def test_sweep_single_cell_matches_direct_run():
    base = default_scenario(total_users=24, n_types=3)
    spec = SweepSpec(axis="total_users", values=(24.0,), replicates=1)
    rows = run_sweep(base, spec)
    assert [r.method for r in rows] == ["OURS", "CT", "MC", "GSMC"]
    cell = scenario_for_cell(base, "total_users", 24.0, base.seed)
    for row in rows:
        direct = run_method(cell, row.method)
        assert row.total_operator_utility == direct.total_operator_utility
        assert row.social_welfare == direct.social_welfare
        assert row.converged == direct.converged

    means = aggregate_rows(rows)
    assert [m["method"] for m in means] == ["OURS", "CT", "MC", "GSMC"]
    assert means[0]["replicates"] == 1
    assert means[0]["total_operator_utility"] == rows[0].total_operator_utility


def test_aggregate_rows_sorts_and_averages():
    base = default_scenario(total_users=24, n_types=3)
    spec = SweepSpec(axis="total_users", values=(30.0, 24.0), replicates=2)
    rows = run_sweep(base, spec)
    means = aggregate_rows(rows)
    assert [m["value"] for m in means] == [24.0, 24.0, 24.0, 24.0,
                                           30.0, 30.0, 30.0, 30.0]
    group = [r for r in rows
             if r.value == 24.0 and r.method == "CT"]
    mean_ct = next(m for m in means if m["value"] == 24.0 and m["method"] == "CT")
    assert mean_ct["replicates"] == 2
    assert mean_ct["total_operator_utility"] == pytest.approx(
        sum(r.total_operator_utility for r in group) / 2, rel=1e-15
    )
    assert mean_ct["converged_share"] == 1.0
