"""Acceptance suite: one test per release criterion, one printed verdict line
each. Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import time

import numpy as np
import pytest

from edgemarket import (
    StageParams,
    ViolationModel,
    check_feasibility,
    check_ic_ir,
    default_scenario,
    menu_objective,
    optimize_menu,
    sample_sojourn,
    verify_selection_equilibrium,
    violation_prob,
    violation_profile,
)
from edgemarket.benchmarks import METHODS, posted_menus, run_method, run_ours
from edgemarket.cli import main as cli_main
from edgemarket.contracts import UserTypePopulation
from edgemarket.market import run_fixed_point
from edgemarket.scenario import default_betas, default_scenario_obj, scenario_from_obj


def _verdict(num: int, slug: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num} ({slug}): {detail}")
    assert ok, f"criterion {num} ({slug}): {detail}"


@pytest.fixture(scope="module")
def default_outcome():
    return run_fixed_point(default_scenario())


def test_criterion_1_chernoff_dominates_monte_carlo():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    n_samples = 1_000_000
    worst = np.inf
    for _ in range(100):
        stages = []
        for _ in range(3):
            servers = int(rng.integers(1, 9))
            unit_rate = float(rng.uniform(0.5, 50.0))
            utilization = float(rng.uniform(0.1, 0.95))
            stages.append(StageParams(
                servers, unit_rate, utilization * servers * unit_rate
            ))
        stages = tuple(stages)
        zeta = float(rng.uniform(0.5, 0.95))
        model = ViolationModel.from_stages(stages, zeta)
        total = sum(
            sample_sojourn(s, int(rng.integers(0, 2**31)), n_samples)
            for s in stages
        )
        for t in np.linspace(0.0, 4.0 * model.mean_total(), 20):
            emp = float(np.mean(total > t))
            sigma = (emp * (1.0 - emp) / n_samples) ** 0.5
            worst = min(worst, violation_prob(model, float(t)) - (emp - 3.0 * sigma))
    elapsed = time.perf_counter() - started
    ok = worst >= 0.0 and elapsed < 120.0
    _verdict(1, "chernoff-dominance",
             ok, f"worst margin {worst:.3e} over 100 configs x 20 points, "
                 f"{elapsed:.1f}s")


def test_criterion_2_every_menu_is_ic_ir():
    scn = default_scenario()
    pop = scn.population
    produced = []  # (label, spec, menu, congestion row)

    small = UserTypePopulation(betas=default_betas(3), counts=(10, 12, 8))
    masses = np.asarray(small.counts, float) * 24.0
    produced.append((
        "standalone", scn.operators[0],
        optimize_menu(small, scn.operators[0], scn.task, masses,
                      np.cumsum(masses)),
        small, np.cumsum(masses),
    ))

    menus, design = posted_menus(scn)
    for m, spec in enumerate(scn.operators):
        produced.append((f"posted-op{m + 1}", spec, menus[m], pop, design[m]))

    outcome = run_fixed_point(scn, keep_history=True)
    for k, (snap_menus, snap_congestion) in enumerate(outcome.history):
        for m, spec in enumerate(scn.operators):
            produced.append((
                f"loop-iter{k}-op{m + 1}", spec, snap_menus[m], pop,
                snap_congestion[m],
            ))

    for name in METHODS:
        result = run_method(scn, name)
        for m, spec in enumerate(scn.operators):
            produced.append((
                f"{name}-op{m + 1}", spec, result.menus[m], pop,
                result.design_congestion[m],
            ))

    worst_slack = np.inf
    worst_bind = 0.0
    for label, spec, menu, menu_pop, congestion in produced:
        profile = violation_profile(spec, scn.task, congestion, scn.solver.zeta)
        full = check_ic_ir(menu, menu_pop, spec.quality, spec.refund, profile)
        worst_slack = min(worst_slack, full.ic_slack, full.ir_slack)
        rep = check_feasibility(menu, menu_pop, spec.quality, spec.refund, profile)
        worst_bind = max(worst_bind, abs(rep.ir_worst_slack))
        if menu_pop.n_types > 1:
            worst_bind = max(worst_bind, abs(rep.ic_down_slack))
        assert full.passed, (label, full)
    ok = worst_slack >= -1e-9 and worst_bind <= 1e-12
    _verdict(2, "screening-correctness",
             ok, f"{len(produced)} menus audited; worst IC/IR slack "
                 f"{worst_slack:.3e}, worst binding error {worst_bind:.3e}")


def test_criterion_3_optimizer_matches_exhaustive_grid():
    started = time.perf_counter()
    scn = default_scenario()
    spec = scn.operators[0]
    grid = np.linspace(scn.solver.latency_lo, scn.solver.latency_hi, 40)
    gaps = []
    for n_types in (1, 2, 3):
        pop = UserTypePopulation(betas=default_betas(n_types),
                                 counts=(10, 12, 8)[:n_types])
        masses = np.asarray(pop.counts, float) * 24.0
        congestion = np.cumsum(masses)
        profile = violation_profile(spec, scn.task, congestion, scn.solver.zeta)
        menu = optimize_menu(pop, spec, scn.task, masses, congestion)
        solved = menu_objective(menu.latencies, pop, spec, masses, profile)

        best = -np.inf
        idx = [0] * n_types

        def scan(level, start):
            nonlocal best
            if level == n_types:
                lats = tuple(grid[i] for i in idx)
                best = max(best, menu_objective(lats, pop, spec, masses, profile))
                return
            for i in range(start, 40):
                idx[level] = i
                scan(level + 1, i)

        scan(0, 0)
        gaps.append(abs(best - solved) / max(abs(best), 1e-12))
    elapsed = time.perf_counter() - started
    ok = max(gaps) <= 1e-3 and elapsed < 60.0
    _verdict(3, "menu-oracle-equivalence",
             ok, "relative gaps " + ", ".join(f"N={n}: {g:.2e}"
                 for n, g in zip((1, 2, 3), gaps)) + f"; {elapsed:.1f}s")


def test_criterion_4_default_scenario_converges(default_outcome):
    started = time.perf_counter()
    outcome = run_fixed_point(default_scenario())
    elapsed = time.perf_counter() - started
    monotone = all(
        all(a <= b + 1e-12 for a, b in zip(menu.latencies, menu.latencies[1:]))
        for menu in outcome.menus
    )
    residual = outcome.trace[-1].matching_residual
    ok = (outcome.converged and residual < 1e-4 and monotone
          and outcome.iterations <= 50 and elapsed < 60.0)
    _verdict(4, "fixed-point-convergence",
             ok, f"converged={outcome.converged} at iteration "
                 f"{outcome.iterations}, matching residual {residual:.3e}, "
                 f"monotone menus={monotone}, {elapsed:.1f}s")


def test_criterion_5_matching_structure(default_outcome):
    z = default_outcome.matching.probs
    row1 = z[0]
    near_uniform = bool(np.all(np.abs(row1 - 0.25) <= 0.05))
    top_op = int(np.argmax(z[-1, 1:]) + 1)
    ok = near_uniform and top_op == 3
    _verdict(5, "matching-structure",
             ok, f"type-1 probabilities {np.round(row1, 3).tolist()} "
                 f"(within 0.25 +/- 0.05: {near_uniform}); type-8 favors "
                 f"operator {top_op}")


def test_criterion_6_dominance_at_90_users():
    totals = {name: [] for name in METHODS}
    welfare = {name: [] for name in METHODS}
    for seed in range(5):
        scn = default_scenario(seed=seed, total_users=90)
        for name in METHODS:
            result = run_method(scn, name)
            totals[name].append(result.total_operator_utility)
            welfare[name].append(result.social_welfare)
    mean_total = {k: float(np.mean(v)) for k, v in totals.items()}
    mean_welfare = {k: float(np.mean(v)) for k, v in welfare.items()}
    ok = all(
        mean_total["OURS"] >= mean_total[b] and
        mean_welfare["OURS"] >= mean_welfare[b]
        for b in ("CT", "MC", "GSMC")
    )
    gaps = ", ".join(
        f"{b}: utility +{mean_total['OURS'] - mean_total[b]:.4f} / "
        f"welfare +{mean_welfare['OURS'] - mean_welfare[b]:.4f}"
        for b in ("CT", "MC", "GSMC")
    )
    _verdict(6, "benchmark-dominance",
             ok, f"5-seed means at 90 users; OURS vs {gaps}")


def test_criterion_7_equilibrium_residuals():
    scn = default_scenario()
    result, _ = run_ours(scn)
    report = verify_selection_equilibrium(result.assignment, result.menus, scn)
    ok = report.max_regret <= 5e-3 and report.max_gain_ratio <= 0.01
    _verdict(7, "equilibrium-residuals",
             ok, f"max user regret {report.max_regret:.3e} (<= 5e-3), max "
                 f"operator gain {report.max_gain_ratio:.3e} (<= 1e-2)")


def test_criterion_8_bench_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli_main(["bench", "--out", str(out1)]) == 0
    assert cli_main(["bench", "--out", str(out2)]) == 0
    names = sorted(p.name for p in out1.iterdir())
    identical = all(
        (out1 / name).read_bytes() == (out2 / name).read_bytes()
        for name in names
    )
    _verdict(8, "bench-determinism",
             identical, f"{len(names)} files byte-identical across two runs")


def test_criterion_9_user_side_update_is_linear_in_mn():
    base = default_scenario_obj()
    cells = []
    for n_ops in range(2, 7):
        for n_types in (4, 8, 12, 16):
            obj = default_scenario_obj()
            obj["operators"] = [dict(base["operators"][0]) for _ in range(n_ops)]
            obj["population"]["n_types"] = n_types
            obj["population"]["total_users"] = 40
            obj["solver"]["max_iters"] = 3
            scn = scenario_from_obj(obj)
            outcome = run_fixed_point(scn)
            cells.append((n_ops * n_types,
                          outcome.counter.total / outcome.iterations))
    x = np.array([c[0] for c in cells])
    y = np.array([c[1] for c in cells])
    coeffs = np.polyfit(x, y, 1)
    fit = np.polyval(coeffs, x)
    residual = float(np.max(np.abs(y - fit) / y))
    ok = residual <= 0.10
    _verdict(9, "linear-complexity",
             ok, f"ops/iteration ~ {coeffs[1]:.1f} + {coeffs[0]:.2f}*MN over "
                 f"{len(cells)} cells, max fit residual {residual:.1%}")
