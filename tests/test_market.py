"""Market fixed point: elementary update steps, the annealed loop, projection
to deterministic assignments, and the equilibrium audit."""

import hashlib
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from edgemarket import (
    ContractMenu,
    DomainError,
    MixedMatching,
    OperatorSpec,
    Scenario,
    ShadowPrices,
    SolverConfig,
    StageResources,
    TaskSpec,
    UserTypePopulation,
    default_scenario,
    effective_capacity,
    optimize_menu,
    project_matching,
    run_fixed_point,
    verify_selection_equilibrium,
)
from edgemarket import contracts, experiments, market
from edgemarket.market import (
    CongestionVector,
    anneal,
    capacities,
    cumulative_load,
    damp,
    demand_mass,
    evaluate_matching,
    menus_for,
    mixed_response,
    profiles_at,
    type_traffic,
    update_shadow_prices,
)

TASK = TaskSpec(0.18, 3.6e11, 0.27, 24.0)
SPEC = OperatorSpec(
    uplink=StageResources(48, 9.0),
    processing=StageResources(24, 3.6e13),
    downlink=StageResources(194, 5.4),
    quality=1.5,
    exec_cost_per_task=8e-6,
    violation_cost=1.2e-3,
    refund=1.2e-4,
)


@pytest.fixture(scope="module")
def default_outcome():
    return run_fixed_point(default_scenario())


def small_scenario(counts, n_ops=1, **solver_kw):
    betas = tuple((len(counts) - i) * 1e-4 for i in range(len(counts)))
    return Scenario(
        task=TASK,
        operators=tuple(SPEC for _ in range(n_ops)),
        population=UserTypePopulation(betas=betas, counts=tuple(counts)),
        solver=SolverConfig(**solver_kw),
    )


def test_effective_capacity_defaults():
    scn = default_scenario()
    caps = [effective_capacity(s, scn.task, 0.95) for s in scn.operators]
    assert caps == pytest.approx([2280.0, 1520.0, 1140.0], rel=1e-12)
    assert effective_capacity(scn.operators[0], scn.task, 1.0) == pytest.approx(2400.0)
    with pytest.raises(DomainError):
        effective_capacity(SPEC, TASK, 0.0)


def test_effective_capacity_scales_with_servers():
    bigger = OperatorSpec(
        uplink=StageResources(2 * SPEC.uplink.servers, SPEC.uplink.unit_throughput),
        processing=StageResources(2 * SPEC.processing.servers,
                                  SPEC.processing.unit_throughput),
        downlink=StageResources(2 * SPEC.downlink.servers,
                                SPEC.downlink.unit_throughput),
        quality=SPEC.quality,
        exec_cost_per_task=SPEC.exec_cost_per_task,
        violation_cost=SPEC.violation_cost,
        refund=SPEC.refund,
    )
    assert effective_capacity(bigger, TASK, 0.95) == pytest.approx(
        2 * effective_capacity(SPEC, TASK, 0.95), rel=1e-12
    )


def test_cumulative_load_worked_example():
    per_type = type_traffic(np.array([[0.5, 0.5], [0.75, 0.25]]), (10, 20), 24.0)
    assert per_type == pytest.approx(np.array([[120.0], [120.0]]), rel=1e-12)
    loads = cumulative_load(per_type)
    assert loads == pytest.approx(np.array([[120.0, 240.0]]), rel=1e-12)


def test_cumulative_load_edge_cases():
    out = np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.all(cumulative_load(type_traffic(out, (10, 20), 24.0)) == 0.0)
    full = np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    loads = cumulative_load(type_traffic(full, (10, 20), 24.0))
    assert loads[0, -1] == pytest.approx(30 * 24.0, rel=1e-12)
    assert loads[1, -1] == 0.0


def test_type_traffic_rejects_a_row_count_mismatch():
    # One row would broadcast against every type's count.
    for probs in (np.array([[0.0, 1.0]]), np.full((3, 2), 0.5)):
        with pytest.raises(DomainError,
                           match=f"matching has {len(probs)} rows, population "
                                 "has 2 types"):
            type_traffic(probs, (10, 20), 24.0)
        with pytest.raises(DomainError, match="population has 2 types"):
            demand_mass(probs, np.array([240.0, 480.0]), 0.05)


def test_mixed_response_uniform_and_argmax():
    adj = np.zeros((2, 3))
    probs = mixed_response(adj, 0.0, 1.0)
    assert probs == pytest.approx(np.full((2, 4), 0.25), abs=1e-15)

    adj = np.array([[0.2, 0.9, 0.1]])
    probs = mixed_response(adj, 0.0, 1e-4)
    assert probs[0, 2] == pytest.approx(1.0, abs=1e-12)

    shifted = mixed_response(adj + 3.0, 3.0, 1e-4)
    assert shifted == pytest.approx(probs, abs=1e-12)

    with pytest.raises(DomainError):
        mixed_response(adj, 0.0, 0.0)


def test_damp_blending():
    prev = np.array([[0.5, 0.5], [0.5, 0.5]])
    resp = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(damp(prev, resp, 1.0), resp)
    assert damp(prev, prev, 0.35) == pytest.approx(prev, abs=0)
    mixed = damp(prev, resp, 0.35)
    assert np.all(mixed >= 0.0) and np.all(mixed <= 1.0)
    assert mixed[0, 0] == pytest.approx(0.65 * 0.5 + 0.35 * 1.0)
    with pytest.raises(DomainError):
        damp(prev, np.array([[0.5, 0.25, 0.25]]), 0.35)
    with pytest.raises(DomainError):
        damp(prev, resp, 0.0)


def test_update_shadow_prices_steps():
    demand = type_traffic(np.array([[0.0, 1.0]]), (10,), 24.0).sum(axis=0)
    assert demand.tolist() == [10 * 24.0]
    # demand equal to capacity: no movement
    w = update_shadow_prices(np.array([0.3]), demand, demand, 0.5)
    assert w[0] == pytest.approx(0.3, abs=1e-15)
    # slack capacity: price pinned at zero
    w = update_shadow_prices(np.zeros(1), demand, 10 * demand, 0.5)
    assert w[0] == 0.0
    # demand at twice capacity moves 0 -> price_step
    w = update_shadow_prices(np.zeros(1), demand, demand / 2, 0.5)
    assert w[0] == pytest.approx(0.5)
    with pytest.raises(DomainError):
        update_shadow_prices(np.zeros(1), demand, demand, 0.0)
    with pytest.raises(DomainError, match="capacities must be > 0"):
        update_shadow_prices(np.zeros(1), demand, np.array([0.0]), 0.5)


def test_demand_mass_floor_and_example():
    traffic = np.array([10.0, 20.0]) * 24.0
    out = np.array([[1.0, 0.0], [1.0, 0.0]])
    masses = demand_mass(out, traffic, 0.05)
    assert masses == pytest.approx(np.array([[0.05 * 240.0, 0.05 * 480.0]]),
                                   rel=1e-12)

    full = np.array([[0.0, 1.0], [0.0, 1.0]])
    assert demand_mass(full, traffic, 0.05) == pytest.approx(
        np.array([[240.0, 480.0]])
    )

    mixed = np.array([[0.5, 0.5], [0.75, 0.25]])
    masses = demand_mass(mixed, traffic, 0.05)
    assert masses[0, 0] == pytest.approx(126.0, rel=1e-12)
    assert masses[0, 1] == pytest.approx(138.0, rel=1e-12)

    with pytest.raises(DomainError):
        demand_mass(full, traffic, 0.0)


def test_anneal_schedule():
    assert anneal((0.05, 0.002), 0, 50) == pytest.approx(0.05)
    assert anneal((0.05, 0.002), 50, 50) == pytest.approx(0.002)
    temps = [anneal((0.05, 0.002), k, 50) for k in range(51)]
    assert all(a >= b for a, b in zip(temps, temps[1:]))
    assert anneal((0.002, 0.002), 17, 50) == 0.002
    with pytest.raises(DomainError):
        anneal((0.001, 0.01), 0, 50)
    with pytest.raises(DomainError):
        anneal((0.05, 0.002), 51, 50)
    with pytest.raises(DomainError):
        anneal((0.05, 0.002), 0, 0)


def test_matching_and_congestion_validation():
    with pytest.raises(DomainError):
        MixedMatching(np.array([[0.5, 0.6]]))
    with pytest.raises(DomainError):
        MixedMatching(np.array([[1.2, -0.2]]))
    with pytest.raises(DomainError):
        MixedMatching(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        CongestionVector(np.array([[2.0, 1.0]]))
    with pytest.raises(DomainError):
        CongestionVector(np.array([[-1.0, 1.0]]))
    with pytest.raises(DomainError):
        ShadowPrices(np.array([-0.1]))


def test_mixed_matching_rejects_non_finite_entries():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            MixedMatching(np.array([[bad, 0.5, 0.5], [0.0, 0.5, 0.5]]))


def test_shadow_prices_reject_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            ShadowPrices(np.array([bad, 0.1]))
    # An infinite step would make the stepped prices infinite.
    with pytest.raises(DomainError, match="finite"):
        update_shadow_prices(np.zeros(1), np.array([240.0]), np.array([100.0]),
                             math.inf)


def test_congestion_vector_rejects_non_finite_entries():
    for bad in (math.nan, math.inf):
        with pytest.raises(DomainError):
            CongestionVector(np.array([[bad, 1.0]]))


def test_mixed_response_rejects_nan_and_infinite_utilities():
    with pytest.raises(DomainError, match="finite"):
        mixed_response(np.array([[math.nan, 0.1], [0.2, 0.1]]), 0.0, 1.0)
    # An infinite score, given or from dividing by the temperature, is
    # rejected before the softmax meets inf - inf: the error comes alone,
    # without a numpy warning (the suite turns warnings into errors).
    for adjusted, temperature in ((np.array([[math.inf, 0.1]]), 1.0),
                                  (np.array([[-math.inf, 0.1]]), 1.0),
                                  (np.array([[1e300, 0.1]]), 1e-300),
                                  (np.array([[1e306, 0.1]]), 1e-6)):
        with pytest.raises(DomainError, match="finite"):
            mixed_response(adjusted, 0.0, temperature)
    with pytest.raises(DomainError, match="finite"):
        mixed_response(np.array([[0.1, 0.2]]), math.inf, 1.0)


def test_single_operator_degenerates_quickly():
    scn = small_scenario((5,))
    outcome = run_fixed_point(scn)
    assert outcome.converged
    assert outcome.iterations <= 5
    # The returned menus are the best response to the returned matching:
    # designed at the realized congestion with floor-adjusted demand masses.
    traffic = np.asarray(scn.population.counts, float) * TASK.arrival_rate_per_user
    masses = demand_mass(outcome.matching.probs, traffic, scn.solver.demand_floor)
    standalone = optimize_menu(
        scn.population, SPEC, TASK, masses[0], outcome.congestion.loads[0],
    )
    assert outcome.menus[0].latencies == pytest.approx(
        standalone.latencies, rel=1e-9
    )
    assert outcome.menus[0].prices == pytest.approx(standalone.prices, rel=1e-9)


def test_identical_operators_get_symmetric_matching():
    scn = small_scenario((5, 8), n_ops=2)
    outcome = run_fixed_point(scn)
    assert outcome.converged
    z = outcome.matching.probs
    assert z[:, 1] == pytest.approx(z[:, 2], abs=1e-6)
    assert outcome.menus[0].latencies == pytest.approx(
        outcome.menus[1].latencies, abs=1e-6
    )


def test_default_run_trace_is_consistent(default_outcome):
    out = default_outcome
    assert out.converged
    last = out.trace[-1]
    assert last.iteration == out.iterations
    assert last.matching_residual < default_scenario().solver.matching_tol
    assert last.menu_residual < default_scenario().solver.menu_tol
    # capacity never binds on the default instance
    for rec in out.trace:
        assert all(w == 0.0 for w in rec.shadow_prices)
    assert np.all(np.diff([r.temperature for r in out.trace]) <= 0.0)


def test_default_run_congestion_matches_matching(default_outcome):
    out = default_outcome
    scn = default_scenario()
    loads = cumulative_load(type_traffic(out.matching.probs, scn.population.counts,
                                         scn.task.arrival_rate_per_user))
    assert out.congestion.loads == pytest.approx(loads, rel=1e-12)
    metrics = evaluate_matching(out.matching.probs, out.menus, scn)
    assert metrics.total_operator_utility == pytest.approx(
        sum(metrics.per_operator_utility), rel=1e-12
    )


def test_op_counter_totals():
    scn = default_scenario(total_users=30, n_types=4)
    out = run_fixed_point(scn)
    m, n = 3, 4
    per_iter = 5 * m * n + 2 * n + m
    assert out.user_side_ops == per_iter * out.iterations
    assert out.ops_per_iteration == pytest.approx(per_iter)


def test_project_matching_rounding_rules():
    pop = UserTypePopulation(betas=(2e-4, 1e-4), counts=(10, 20))
    caps = np.array([1e6, 1e6])
    near = MixedMatching(np.array([[0.01, 0.98, 0.01], [0.02, 0.03, 0.95]]))
    got = project_matching(near, caps, pop, 24.0)
    assert got.tolist() == [[0, 1, 0], [0, 0, 1]]

    uniform = MixedMatching(np.full((2, 3), 1.0 / 3.0))
    got = project_matching(uniform, caps, pop, 24.0)
    assert got.tolist() == [[0, 1, 0], [0, 1, 0]]


def test_project_matching_respects_capacity():
    rng = np.random.default_rng(11)
    pop = UserTypePopulation(betas=(4e-4, 3e-4, 2e-4, 1e-4),
                             counts=(10, 20, 15, 5))
    traffic = np.asarray(pop.counts, float) * 24.0
    for _ in range(50):
        raw = rng.uniform(0.01, 1.0, (4, 3))
        probs = raw / raw.sum(axis=1, keepdims=True)
        caps = rng.uniform(0.6, 1.4, 2) * traffic.max()
        got = project_matching(MixedMatching(probs), caps, pop, 24.0)
        assert np.all(got.sum(axis=1) == 1)
        served = (traffic[:, None] * got[:, 1:]).sum(axis=0)
        assert np.all(served <= caps + 1e-9)


def test_equilibrium_audit_clean_assignment():
    scn = small_scenario((5, 8))
    assignment = np.array([[0, 1], [0, 1]])
    loads = np.asarray(scn.population.counts, float) * 24.0
    menu = optimize_menu(scn.population, SPEC, TASK, loads, np.cumsum(loads))
    report = verify_selection_equilibrium(assignment, (menu,), scn)
    assert report.max_regret <= 1e-9
    assert report.max_gain_ratio <= 1e-6
    assert report.regrets == pytest.approx((0.0, 0.0), abs=1e-9)


def test_equilibrium_audit_blames_cheaper_rival():
    scn = small_scenario((5,), n_ops=2)
    loads = np.asarray(scn.population.counts, float) * 24.0
    menu = optimize_menu(scn.population, SPEC, TASK, loads, np.cumsum(loads))
    pricier = ContractMenu(menu.latencies, tuple(p + 0.5 for p in menu.prices))
    assignment = np.array([[0, 0, 1]])
    report = verify_selection_equilibrium(assignment, (menu, pricier), scn)
    assert report.max_regret >= 0.4
    assert report.worst_pair == (1, 1)


def test_equilibrium_audit_flags_ir_shortfall():
    scn = small_scenario((5,))
    loads = np.asarray(scn.population.counts, float) * 24.0
    menu = optimize_menu(scn.population, SPEC, TASK, loads, np.cumsum(loads))
    pricier = ContractMenu(menu.latencies, tuple(p + 0.5 for p in menu.prices))
    report = verify_selection_equilibrium(np.array([[0, 1]]), (pricier,), scn)
    assert report.max_regret >= 0.4
    assert report.worst_pair == (1, 1)


def test_equilibrium_audit_ignores_opted_out_types():
    scn = small_scenario((5,))
    loads = np.asarray(scn.population.counts, float) * 24.0
    menu = optimize_menu(scn.population, SPEC, TASK, loads, np.cumsum(loads))
    report = verify_selection_equilibrium(np.array([[1, 0]]), (menu,), scn)
    assert report.max_regret == 0.0
    assert report.worst_pair is None


@pytest.mark.parametrize("case", ["too long", "too short", "missing"])
def test_evaluators_reject_menus_that_do_not_fit_the_scenario(case):
    scn = small_scenario((5, 8, 3), n_ops=2)
    loads = np.asarray(scn.population.counts, float) * 24.0
    menu = optimize_menu(scn.population, SPEC, TASK, loads, np.cumsum(loads))
    lats, prices = menu.latencies, menu.prices
    if case == "too long":
        menus = (menu, ContractMenu(lats + lats[-1:], prices + prices[-1:]))
        message = r"operator 2's menu has 4 items, expected one per type \(3\)"
    elif case == "too short":
        menus = (ContractMenu(lats[:-1], prices[:-1]), menu)
        message = r"operator 1's menu has 2 items, expected one per type \(3\)"
    else:
        menus = (menu,)
        message = "operator 2 has no menu: got 1 menus for 2 operators"
    assignment = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    with pytest.raises(DomainError, match=message):
        evaluate_matching(assignment, menus, scn)
    with pytest.raises(DomainError, match=message):
        verify_selection_equilibrium(assignment, menus, scn)


@pytest.mark.parametrize("rows", [1, 7, 9])
def test_evaluators_reject_assignments_with_the_wrong_row_count(
    default_outcome, rows
):
    # A 1-row assignment is a valid matching matrix, and its one row would
    # broadcast against all 8 types' counts.
    scn = default_scenario()
    assignment = np.zeros((rows, scn.n_operators + 1), dtype=int)
    assignment[:, 1] = 1
    message = f"matching has {rows} rows, population has 8 types"
    with pytest.raises(DomainError, match=message):
        evaluate_matching(assignment, default_outcome.menus, scn)
    with pytest.raises(DomainError, match=message):
        verify_selection_equilibrium(assignment, default_outcome.menus, scn)


def test_equilibrium_audit_rejects_a_mixed_matching(default_outcome):
    # The fixed point's near-uniform matching passes every matching-matrix
    # check, but it is no assignment: the audit takes one operator per type.
    scn = default_scenario()
    probs = default_outcome.matching.probs
    evaluate_matching(probs, default_outcome.menus, scn)
    message = f"type 1 has {float(probs[0, 0])!r} in column 0"
    with pytest.raises(DomainError, match=re.escape(message)):
        verify_selection_equilibrium(probs, default_outcome.menus, scn)

    assignment = np.zeros((scn.n_types, scn.n_operators + 1))
    assignment[:, 2] = 1.0
    assignment[3, 1:3] = 0.5
    message = "assignment must hold only 0 and 1: type 4 has 0.5 in column 1"
    with pytest.raises(DomainError, match=message):
        verify_selection_equilibrium(assignment, default_outcome.menus, scn)


_USER_SIDE = ("cumulative_load", "demand_mass", "mixed_response", "damp",
              "update_shadow_prices")


def _count_user_side_calls(monkeypatch, scn):
    calls = dict.fromkeys(_USER_SIDE, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in _USER_SIDE:
        monkeypatch.setattr(market, name, counted(name, getattr(market, name)))
    return calls, run_fixed_point(scn)


def test_each_round_calls_every_user_side_step_once(monkeypatch):
    # A converged solve: one call per round, plus the final redesign's loads
    # and masses.
    calls, out = _count_user_side_calls(monkeypatch, default_scenario())
    assert out.converged
    k = out.iterations
    assert calls == {"cumulative_load": k + 1, "demand_mass": k + 1,
                     "mixed_response": k, "damp": k, "update_shadow_prices": k}
    # The returned state is the checked, read-only types.
    assert isinstance(out.matching, MixedMatching)
    assert isinstance(out.shadow_prices, ShadowPrices)
    assert isinstance(out.congestion, CongestionVector)
    for arr in (out.matching.probs, out.shadow_prices.omegas, out.congestion.loads):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0

    # An unconverged solve that returns an earlier best iterate reuses the
    # round after it, so no final loads or masses are computed.
    calls, out = _count_user_side_calls(monkeypatch,
                                        default_scenario(seed=1, total_users=400))
    assert not out.converged
    assert calls == dict.fromkeys(_USER_SIDE, out.iterations)


def test_unconverged_solve_reuses_the_round_after_its_best_iterate(monkeypatch):
    # At 400 users the fixed point stops at its iteration cap and returns its
    # best iterate, from which a later round started. The returned menus are
    # that round's redesign, equal to a fresh one at the returned matching,
    # and the final redesign solves no menu again.
    scn = default_scenario(seed=1, total_users=400)
    solves = []
    solve_one = contracts.optimize_menu_with_profile

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_one(*args, **kwargs)

    monkeypatch.setattr(contracts, "optimize_menu_with_profile", counted)
    out = run_fixed_point(scn)
    assert not out.converged
    residuals = [rec.matching_residual for rec in out.trace]
    assert residuals.index(min(residuals)) + 1 < out.iterations
    assert len(solves) == scn.n_operators * (out.iterations + 1)
    pop, delta = scn.population, scn.task.arrival_rate_per_user
    loads = cumulative_load(type_traffic(out.matching.probs, pop.counts, delta))
    masses = demand_mass(out.matching.probs, np.asarray(pop.counts, float) * delta,
                         scn.solver.demand_floor)
    assert out.congestion.loads.tobytes() == loads.tobytes()
    assert out.menus == menus_for(scn, masses, profiles_at(scn, loads)).menus()


def test_capped_solve_whose_best_iterate_is_its_last_returns_its_redesign(
        monkeypatch):
    # Three rounds of the default scenario stop at the cap with the residual
    # falling every round, so the last state is the best one. Its round ends
    # with the redesign at it, and that redesign is returned.
    base = default_scenario()
    scn = replace(base, solver=replace(base.solver, max_iters=3))
    solves = []
    solve_one = contracts.optimize_menu_with_profile

    def counted(*args, **kwargs):
        solves.append(1)
        return solve_one(*args, **kwargs)

    monkeypatch.setattr(contracts, "optimize_menu_with_profile", counted)
    calls, out = _count_user_side_calls(monkeypatch, scn)
    assert not out.converged and out.iterations == 3
    residuals = [rec.matching_residual for rec in out.trace]
    assert all(a > b for a, b in zip(residuals, residuals[1:]))
    k = out.iterations
    assert calls["cumulative_load"] == calls["demand_mass"] == k + 1
    # The floor design, the uniform start's and one per round.
    assert len(solves) == scn.n_operators * (k + 2)
    pop, delta = scn.population, scn.task.arrival_rate_per_user
    loads = cumulative_load(type_traffic(out.matching.probs, pop.counts, delta))
    masses = demand_mass(out.matching.probs, np.asarray(pop.counts, float) * delta,
                         scn.solver.demand_floor)
    assert out.congestion.loads.tobytes() == loads.tobytes()
    assert out.menus == menus_for(scn, masses, profiles_at(scn, loads)).menus()


# `run_fixed_point`'s iterations, matching, menus and the projected matching's
# social welfare, as float.hex, recorded before the small-market round was
# restructured and re-recorded once, when the softmax took `math.exp`'s bits
# through `queueing.libm_exp` (one matching entry of the default solve moved
# by 2.8e-17, and the 256-type matching's digest below); since then they are
# the same under every CPU dispatch of numpy. Every later change must
# reproduce them bit for bit.
_PINNED_DEFAULT = {
    "iterations": 18,
    "welfare": "0x1.516bd24891f98p+12",
    "matching": [
        "0x1.fffffffffffacp-3", "0x1.000000000002bp-2", "0x1.0000000000004p-2",
        "0x1.ffffffffffff8p-3", "0x1.fa3f4193db6a8p-3", "0x1.00fa7ed21c7d9p-2",
        "0x1.00f7e441654c6p-2", "0x1.00edfc229080cp-2", "0x1.f4688b5b542cep-3",
        "0x1.01f7c80e965cbp-2", "0x1.01f26f141640dp-2", "0x1.01e1832fa94c2p-2",
        "0x1.ee9d8bbe2d8f2p-3", "0x1.02f325715bb5fp-2", "0x1.02eb08c50fd40p-2",
        "0x1.02d30bea7dae8p-2", "0x1.e84343fe780f2p-3", "0x1.03fa7bb7646aep-2",
        "0x1.03f42ceaf95b4p-2", "0x1.03efb55e66324p-2", "0x1.e1dadc093ee30p-3",
        "0x1.04fdf45a67372p-2", "0x1.04fbcdd08df1dp-2", "0x1.0518cfd06b659p-2",
        "0x1.dae1faba72b2ep-3", "0x1.060a94d3954cap-2", "0x1.061262014715ep-2",
        "0x1.06720bcdea441p-2", "0x1.d39debe85a44ep-3", "0x1.071950c64532ep-2",
        "0x1.072eff9d92f68p-2", "0x1.07e8b9a7fab44p-2",
    ],
    "latencies": [
        "0x1.35ae845cc1383p-2", "0x1.3c692f9099c6cp-2", "0x1.3c692f9099c6cp-2",
        "0x1.5a167f3200a2dp-2", "0x1.5e65e7351527ep-2", "0x1.7cd8c6f351dc1p-2",
        "0x1.8e7135fd513e3p-2", "0x1.ed9532ee06054p-2", "0x1.34deea3396277p-2",
        "0x1.3b900b71d65ddp-2", "0x1.3b900b71d65ddp-2", "0x1.5aa740f334b31p-2",
        "0x1.5fae3c9796586p-2", "0x1.7fe39c73ccf27p-2", "0x1.92a79d44913abp-2",
        "0x1.f69ad4e6e5c26p-2", "0x1.31c8f47420a52p-2", "0x1.3965bc051cd75p-2",
        "0x1.3965bc051cd75p-2", "0x1.60b1c78505e0dp-2", "0x1.69f33b92d0b59p-2",
        "0x1.9430c1865ab10p-2", "0x1.addd56dddd5f4p-2", "0x1.16dcbcdc625b7p-1",
    ],
    "prices": [
        "0x1.7ff0b9c8c7843p+0", "0x1.7ff055f81c7a0p+0", "0x1.7ff055129d009p+0",
        "0x1.7fef37240f93dp+0", "0x1.7fef1933d97b3p+0", "0x1.7fee6a66c4bf5p+0",
        "0x1.7fee26881068cp+0", "0x1.7fed6abce7f8dp+0", "0x1.7ff0c515fbd5ep+0",
        "0x1.7ff0622cb749ap+0", "0x1.7ff06220303f6p+0", "0x1.7fef387d91a04p+0",
        "0x1.7fef1634129b4p+0", "0x1.7fee5e5dce3e8p+0", "0x1.7fee1677432dbp+0",
        "0x1.7fed51b3d0b79p+0", "0x1.7ff0f0905a243p+0", "0x1.7ff084f30afe7p+0",
        "0x1.7ff08a286654dp+0", "0x1.7fef1c75d7589p+0", "0x1.7feee08619da4p+0",
        "0x1.7fedf5b7b30dep+0", "0x1.7fed964f97c4bp+0", "0x1.7fec9e0a3b7acp+0",
    ],
}
_PINNED_400_USERS_SEED_1 = {
    "iterations": 50,
    "welfare": "0x1.a6e6f32344c58p+12",
    "matching": [
        "0x1.ffffffffffffep-3", "0x1.0000000000024p-2", "0x1.0000000000021p-2",
        "0x1.fffffffffff76p-3", "0x1.fe154b657b73cp-3", "0x1.005a4c9cfb81dp-2",
        "0x1.00553a893eb99p-2", "0x1.0045d327080acp-2", "0x1.fc2b70d78b46ap-3",
        "0x1.00b82aa23ce94p-2", "0x1.00a882cc09b2dp-2", "0x1.00899a25f3c0ap-2",
        "0x1.fa385490bc6d5p-3", "0x1.012955b9a63d3p-2", "0x1.00f48001ff326p-2",
        "0x1.00c5fffbfc59dp-2", "0x1.f845859345321p-3", "0x1.019f7f075e2f7p-2",
        "0x1.013df597a50dap-2", "0x1.00ffc8975a29fp-2", "0x1.f63a288ce41e0p-3",
        "0x1.0241ecb710e84p-2", "0x1.017770e276837p-2", "0x1.01298e2006854p-2",
        "0x1.f411b4fb12be2p-3", "0x1.031922187a896p-2", "0x1.019dcca3c3738p-2",
        "0x1.014036c638a40p-2", "0x1.f18995e88e2aap-3", "0x1.0491799e616c6p-2",
        "0x1.018b6573bfa7bp-2", "0x1.011e55f997d6ap-2",
    ],
    "latencies": [
        "0x1.2c8d2d213ff6dp-2", "0x1.3165492f59819p-2", "0x1.48d339e92b0fcp-2",
        "0x1.4f2bc703881e3p-2", "0x1.83b675f70fcd1p-2", "0x1.c4253457f2b35p-2",
        "0x1.43ab82c45cbc2p-1", "0x1.43ab82c45cbc2p-1", "0x1.281c9f057f964p-2",
        "0x1.281c9f057f964p-2", "0x1.281c9f057f964p-2", "0x1.281c9f057f964p-2",
        "0x1.281c9f057f964p-2", "0x1.281c9f057f964p-2", "0x1.281c9f057f964p-2",
        "0x1.281c9f057f964p-2", "0x1.1a68f3fe0c9e4p-2", "0x1.1a68f3fe0c9e4p-2",
        "0x1.1a68f3fe0c9e4p-2", "0x1.1a68f3fe0c9e4p-2", "0x1.1a68f3fe0c9e4p-2",
        "0x1.1a68f3fe0c9e4p-2", "0x1.1a68f3fe0c9e4p-2", "0x1.1a68f3fe0c9e4p-2",
    ],
    "prices": [
        "0x1.7ff13e947c1e0p+0", "0x1.7ff0ffc3abd91p+0", "0x1.7ff0055c85c60p+0",
        "0x1.7fefded68d96cp+0", "0x1.7fee64037b51ep+0", "0x1.7fed16a79bbc3p+0",
        "0x1.7feae39ddb832p+0", "0x1.7ff2135d2f67bp+0", "0x1.7ff183cd95d77p+0",
        "0x1.7ff18c03b1b30p+0", "0x1.7ff1b2b8c96e9p+0", "0x1.7ff1dd01c2b70p+0",
        "0x1.7ff8b411beac8p+0", "0x1.7ff8b411beac8p+0", "0x1.7ff8b411beac8p+0",
        "0x1.7ff8b411beac8p+0", "0x1.7ff2603650094p+0", "0x1.7ff28546cde6ep+0",
        "0x1.7ff304d03a37ap+0", "0x1.7ff967a973b06p+0", "0x1.7ff967a973b06p+0",
        "0x1.7ff967a973b06p+0", "0x1.7ff967a973b06p+0", "0x1.7ff967a973b06p+0",
    ],
}


def _pinned_outputs(scn, out):
    assignment = project_matching(out.matching, capacities(scn), scn.population,
                                  scn.task.arrival_rate_per_user)
    return {
        "iterations": out.iterations,
        "welfare": evaluate_matching(assignment, out.menus, scn).social_welfare.hex(),
        "matching": [x.hex() for x in out.matching.probs.ravel().tolist()],
        "latencies": [x.hex() for menu in out.menus for x in menu.latencies],
        "prices": [x.hex() for menu in out.menus for x in menu.prices],
    }


def test_fixed_point_reproduces_its_recorded_outputs_bit_for_bit(default_outcome):
    assert _pinned_outputs(default_scenario(), default_outcome) == _PINNED_DEFAULT
    scn = default_scenario(seed=1, total_users=400)
    assert _pinned_outputs(scn, run_fixed_point(scn)) == _PINNED_400_USERS_SEED_1


# The same outputs of a 256-type solve (the `types256` benchmark cell at seed
# 57, which runs the array paths of the profile build and the menu solve),
# recorded at the same point. Its 2 560 matching, latency and price floats are
# pinned as the SHA-256 of their float.hex strings, joined by spaces.
_PINNED_256_TYPES_SEED_57 = {
    "iterations": 15,
    "welfare": "0x1.5143e59cc3c16p+12",
    "matching": "405f2fbd1d667d3d6848ca3a096d6677fe3c1b631599694df77b9fa315a4f891",
    "latencies": "4262d815480e657ebd64cacd25ec029d3eea5684af33fdbb88080e23721b8e94",
    "prices": "67ed8772927971ce48d3a04e1b429c0e6c3ff2278d8c41061e4c48cac21eedc9",
}


def test_256_type_fixed_point_reproduces_its_recorded_outputs_bit_for_bit():
    scn = experiments.scenario_for_cell(default_scenario(), "num_types", 256, 57)
    outputs = _pinned_outputs(scn, run_fixed_point(scn))
    for key in ("matching", "latencies", "prices"):
        outputs[key] = hashlib.sha256(" ".join(outputs[key]).encode()).hexdigest()
    assert outputs == _PINNED_256_TYPES_SEED_57


def test_pinned_fixed_points_reproduce_under_the_non_avx512_dispatch(run_without_avx512):
    # The three pinned solves again, in a child process with numpy's AVX-512
    # dispatch off.
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('market_tests', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module.test_fixed_point_reproduces_its_recorded_outputs_bit_for_bit(\n"
        "    module.run_fixed_point(module.default_scenario()))\n"
        "module.test_256_type_fixed_point_reproduces_its_recorded_outputs_bit_for_bit()\n"
    )
    proc = run_without_avx512(code, __file__)
    assert proc.returncode == 0, proc.stderr
