"""Benchmark assignment rules: posted-menu greedy selection, post-hoc menu
redesign, deferred acceptance, and the shared result container."""

import json

import numpy as np
import pytest

from edgemarket import (
    DomainError,
    OperatorSpec,
    Scenario,
    SolverConfig,
    StageResources,
    TaskSpec,
    UserTypePopulation,
    check_feasibility,
    default_scenario,
    effective_capacity,
    menu_objective,
    optimize_menu,
    user_utility,
    violation_profile,
)
from edgemarket.benchmarks import (
    METHODS,
    _TIE_TOL,
    posted_menus,
    result_from_obj,
    result_to_obj,
    run_method,
    run_ours,
)
from edgemarket.market import evaluate_matching

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
def default_results():
    scn = default_scenario()
    return scn, {name: run_method(scn, name) for name in METHODS}


def single_op_scenario(counts=(5,)):
    betas = tuple((len(counts) - i) * 1e-4 for i in range(len(counts)))
    return Scenario(
        task=TASK,
        operators=(SPEC,),
        population=UserTypePopulation(betas=betas, counts=tuple(counts)),
        solver=SolverConfig(),
    )


def test_posted_menu_is_the_standalone_full_market_solve():
    scn = single_op_scenario((5, 8))
    menus, design = posted_menus(scn)
    masses = np.asarray(scn.population.counts, float) * 24.0
    standalone = optimize_menu(scn.population, SPEC, TASK, masses,
                               np.cumsum(masses))
    assert menus[0].latencies == standalone.latencies
    assert menus[0].prices == standalone.prices
    assert design == pytest.approx(np.cumsum(masses)[None, :])


def test_stored_totals_match_recomputation(default_results):
    scn, results = default_results
    for result in results.values():
        metrics = evaluate_matching(result.assignment, result.menus, scn)
        assert result.total_operator_utility == pytest.approx(
            metrics.total_operator_utility, abs=1e-9
        )
        assert result.social_welfare == pytest.approx(
            metrics.social_welfare, abs=1e-9
        )


def test_all_methods_respect_capacity(default_results):
    scn, results = default_results
    caps = np.array([
        effective_capacity(s, scn.task, scn.solver.safety)
        for s in scn.operators
    ])
    traffic = np.asarray(scn.population.counts, float) * 24.0
    for result in results.values():
        assert np.all(result.assignment.sum(axis=1) == 1)
        served = (traffic[:, None] * result.assignment[:, 1:]).sum(axis=0)
        assert np.all(served <= caps + 1e-9)


def test_all_menus_are_feasible_at_design_congestion(default_results):
    scn, results = default_results
    for result in results.values():
        for m, spec in enumerate(scn.operators):
            profile = violation_profile(spec, scn.task,
                                        result.design_congestion[m],
                                        scn.solver.zeta)
            rep = check_feasibility(result.menus[m], scn.population,
                                    spec.quality, spec.refund, profile)
            assert rep.passed, f"{result.name} operator {m + 1}: {rep}"


def test_ct_default_assignment_pattern(default_results):
    scn, results = default_results
    cols = results["CT"].assignment.argmax(axis=1)
    # ties resolve to the lowest operator index, so the most latency-sensitive
    # types fill operator 1 to its capacity before anyone touches operator 2
    assert cols[0] == 1
    assert sorted(set(cols.tolist())) == [1, 2]
    assert cols.tolist() == sorted(cols.tolist())


def test_mc_improves_on_ct_operator_by_operator(default_results):
    scn, results = default_results
    ct, mc = results["CT"], results["MC"]
    assert np.array_equal(ct.assignment, mc.assignment)
    delta = scn.task.arrival_rate_per_user
    counts = np.asarray(scn.population.counts, float)
    for m, spec in enumerate(scn.operators):
        demand = counts * mc.assignment[:, m + 1] * delta
        profile = violation_profile(spec, scn.task, mc.design_congestion[m],
                                    scn.solver.zeta)
        ct_val = menu_objective(ct.menus[m].latencies, scn.population, spec,
                                demand, profile)
        mc_val = menu_objective(mc.menus[m].latencies, scn.population, spec,
                                demand, profile)
        assert mc_val >= ct_val - 1e-9


def test_mc_equals_ct_when_redesign_changes_nothing():
    scn = single_op_scenario((5,))
    ct = run_method(scn, "CT")
    mc = run_method(scn, "MC")
    assert np.array_equal(ct.assignment, mc.assignment)
    if np.all(ct.assignment[:, 1] == 1):
        # served load equals the posted design load, so the redesign re-solves
        # the identical problem
        assert mc.menus[0].latencies == ct.menus[0].latencies
        assert mc.menus[0].prices == ct.menus[0].prices


def test_gsmc_ample_capacity_gives_first_choices():
    counts = (3, 4)
    betas = (2e-4, 1e-4)
    scn = Scenario(
        task=TASK,
        operators=(SPEC, SPEC),
        population=UserTypePopulation(betas=betas, counts=counts),
        solver=SolverConfig(),
    )
    result = run_method(scn, "GSMC")
    # identical operators post identical menus; ties prefer operator 1
    assert result.assignment[:, 1].tolist() == [1, 1]


def test_gsmc_has_no_blocking_pair(default_results):
    scn, results = default_results
    result = results["GSMC"]
    pop = scn.population
    delta = scn.task.arrival_rate_per_user
    n_ops = len(scn.operators)
    menus, design0 = posted_menus(scn)

    utilities = np.zeros((pop.n_types, n_ops))
    margins = np.zeros((n_ops, pop.n_types))
    for m, spec in enumerate(scn.operators):
        profile = violation_profile(spec, scn.task, design0[m], scn.solver.zeta)
        for n in range(pop.n_types):
            item = menus[m].items[n]
            viol = profile.prob(n, item.latency)
            utilities[n, m] = user_utility(item, pop.betas[n], pop.alpha_worst,
                                           spec.quality, viol, spec.refund)
            margins[m, n] = pop.counts[n] * delta * (
                item.price - spec.violation_cost * viol
                - spec.exec_cost_per_task
            )
    utilities = np.round(utilities / _TIE_TOL) * _TIE_TOL
    margins = np.round(margins / _TIE_TOL) * _TIE_TOL

    quotas = [
        int(effective_capacity(spec, scn.task, scn.solver.safety) // delta)
        for spec in scn.operators
    ]
    held = [
        [n for n in range(pop.n_types) if result.assignment[n, m + 1] == 1]
        for m in range(n_ops)
    ]
    used = [sum(pop.counts[n] for n in held[m]) for m in range(n_ops)]

    def prefers(n, m):
        # strictly better than the current match under the quantized ranking
        if utilities[n, m] < scn.solver.opt_out_utility:
            return False
        cur = int(result.assignment[n].argmax())
        if cur == 0:
            return True
        cur -= 1
        if utilities[n, m] != utilities[n, cur]:
            return utilities[n, m] > utilities[n, cur]
        return m < cur

    for n in range(pop.n_types):
        for m in range(n_ops):
            if result.assignment[n, m + 1] == 1 or not prefers(n, m):
                continue
            # free quota must not fit the type
            assert used[m] + pop.counts[n] > quotas[m], (n, m)
            # nor may evicting any worse-ranked member make room
            for j in held[m]:
                worse = (margins[m, j], -j) < (margins[m, n], -n)
                if worse:
                    assert used[m] - pop.counts[j] + pop.counts[n] > quotas[m], (n, m, j)


def test_ours_dominates_on_the_default_instance(default_results):
    scn, results = default_results
    ours = results["OURS"]
    for name in ("CT", "MC", "GSMC"):
        assert ours.total_operator_utility >= (
            results[name].total_operator_utility - 1e-6
        )


def test_ours_carries_the_mixed_matching(default_results):
    scn, results = default_results
    ours = results["OURS"]
    assert ours.converged
    assert ours.mixed_matching is not None
    assert ours.mixed_matching.shape == (scn.population.n_types,
                                         len(scn.operators) + 1)
    assert np.all(np.abs(ours.mixed_matching.sum(axis=1) - 1.0) < 1e-9)


def test_run_ours_returns_untouched_fixed_point():
    scn = default_scenario(total_users=30, n_types=4)
    result, outcome = run_ours(scn)
    assert result.name == "OURS"
    assert outcome.menus is not result.menus
    # the projection is one of the rows' argmax choices unless capacity binds
    assert np.all(result.assignment.sum(axis=1) == 1)


def test_methods_are_deterministic(default_results):
    scn, results = default_results
    for name in ("CT", "MC", "GSMC"):
        again = run_method(scn, name)
        assert json.dumps(result_to_obj(again), sort_keys=True) == json.dumps(
            result_to_obj(results[name]), sort_keys=True
        )


def test_result_serialization_round_trip(default_results):
    _, results = default_results
    for result in results.values():
        back = result_from_obj(json.loads(json.dumps(result_to_obj(result))))
        assert back.name == result.name
        assert np.array_equal(back.assignment, result.assignment)
        assert back.design_congestion == pytest.approx(result.design_congestion)
        assert back.total_operator_utility == result.total_operator_utility
        assert back.social_welfare == result.social_welfare
        for a, b in zip(back.menus, result.menus):
            assert a.latencies == b.latencies
            assert a.prices == b.prices
        if result.mixed_matching is None:
            assert back.mixed_matching is None
        else:
            assert np.array_equal(back.mixed_matching, result.mixed_matching)


def test_run_method_rejects_unknown_names():
    scn = single_op_scenario((5,))
    with pytest.raises(DomainError):
        run_method(scn, "BOGUS")
