"""Market fixed point: elementary update steps, the annealed loop, projection
to deterministic assignments, and the equilibrium audit."""

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
from edgemarket.market import (
    CongestionVector,
    anneal,
    cumulative_load,
    damp,
    demand_mass,
    evaluate_matching,
    mixed_response,
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
    pop = UserTypePopulation(betas=(2e-4, 1e-4), counts=(10, 20))
    matching = MixedMatching(np.array([[0.5, 0.5], [0.75, 0.25]]))
    loads = cumulative_load(matching, pop, 24.0).loads
    assert loads == pytest.approx(np.array([[120.0, 240.0]]), rel=1e-12)


def test_cumulative_load_edge_cases():
    pop = UserTypePopulation(betas=(2e-4, 1e-4), counts=(10, 20))
    out = MixedMatching(np.array([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert np.all(cumulative_load(out, pop, 24.0).loads == 0.0)
    full = MixedMatching(np.array([[0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]))
    loads = cumulative_load(full, pop, 24.0).loads
    assert loads[0, -1] == pytest.approx(30 * 24.0, rel=1e-12)
    assert loads[1, -1] == 0.0


def test_mixed_response_uniform_and_argmax():
    adj = np.zeros((2, 3))
    probs = mixed_response(adj, 0.0, 1.0).probs
    assert probs == pytest.approx(np.full((2, 4), 0.25), abs=1e-15)

    adj = np.array([[0.2, 0.9, 0.1]])
    probs = mixed_response(adj, 0.0, 1e-4).probs
    assert probs[0, 2] == pytest.approx(1.0, abs=1e-12)

    shifted = mixed_response(adj + 3.0, 3.0, 1e-4).probs
    assert shifted == pytest.approx(probs, abs=1e-12)

    with pytest.raises(DomainError):
        mixed_response(adj, 0.0, 0.0)


def test_damp_blending():
    prev = MixedMatching(np.array([[0.5, 0.5], [0.5, 0.5]]))
    resp = MixedMatching(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert np.array_equal(damp(prev, resp, 1.0).probs, resp.probs)
    assert damp(prev, prev, 0.35).probs == pytest.approx(prev.probs, abs=0)
    mixed = damp(prev, resp, 0.35).probs
    assert np.all(mixed >= 0.0) and np.all(mixed <= 1.0)
    assert mixed[0, 0] == pytest.approx(0.65 * 0.5 + 0.35 * 1.0)
    with pytest.raises(DomainError):
        damp(prev, MixedMatching(np.array([[0.5, 0.25, 0.25]])), 0.35)


def test_update_shadow_prices_steps():
    pop = UserTypePopulation(betas=(1e-4,), counts=(10,))
    demand = 10 * 24.0
    matched = MixedMatching(np.array([[0.0, 1.0]]))
    # demand equal to capacity: no movement
    w = update_shadow_prices(ShadowPrices(np.array([0.3])), matched, pop, 24.0,
                             np.array([demand]), 0.5)
    assert w.omegas[0] == pytest.approx(0.3, abs=1e-15)
    # slack capacity: price pinned at zero
    w = update_shadow_prices(ShadowPrices.zeros(1), matched, pop, 24.0,
                             np.array([10 * demand]), 0.5)
    assert w.omegas[0] == 0.0
    # demand at twice capacity moves 0 -> price_step
    w = update_shadow_prices(ShadowPrices.zeros(1), matched, pop, 24.0,
                             np.array([demand / 2]), 0.5)
    assert w.omegas[0] == pytest.approx(0.5)
    with pytest.raises(DomainError):
        update_shadow_prices(ShadowPrices.zeros(1), matched, pop, 24.0,
                             np.array([demand]), 0.0)


def test_demand_mass_floor_and_example():
    pop = UserTypePopulation(betas=(2e-4, 1e-4), counts=(10, 20))
    out = MixedMatching(np.array([[1.0, 0.0], [1.0, 0.0]]))
    masses = demand_mass(out, pop, 24.0, 0.05)
    assert masses == pytest.approx(np.array([[0.05 * 240.0, 0.05 * 480.0]]),
                                   rel=1e-12)

    full = MixedMatching(np.array([[0.0, 1.0], [0.0, 1.0]]))
    assert demand_mass(full, pop, 24.0, 0.05) == pytest.approx(
        np.array([[240.0, 480.0]])
    )

    mixed = MixedMatching(np.array([[0.5, 0.5], [0.75, 0.25]]))
    masses = demand_mass(mixed, pop, 24.0, 0.05)
    assert masses[0, 0] == pytest.approx(126.0, rel=1e-12)
    assert masses[0, 1] == pytest.approx(138.0, rel=1e-12)

    with pytest.raises(DomainError):
        demand_mass(full, pop, 24.0, 0.0)


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


def test_single_operator_degenerates_quickly():
    scn = small_scenario((5,))
    outcome = run_fixed_point(scn)
    assert outcome.converged
    assert outcome.iterations <= 5
    # The returned menus are the best response to the returned matching:
    # designed at the realized congestion with floor-adjusted demand masses.
    masses = demand_mass(outcome.matching, scn.population,
                         TASK.arrival_rate_per_user, scn.solver.demand_floor)
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
    loads = cumulative_load(out.matching, scn.population,
                            scn.task.arrival_rate_per_user).loads
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
