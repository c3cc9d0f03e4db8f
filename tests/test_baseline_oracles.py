"""The benchmark baselines and the screening check against plain reference
implementations.

`greedy_selection` prices its items from one stage table, deferred acceptance
keeps each operator's held types in a heap and `project_matching` orders every
row with one sort. The references below are the straightforward forms they
replaced: a checked `ViolationModel` per (operator, load), a scan of every
held type on each rejection and a per-type `sorted`. Each pair must return the
same assignment on seeded markets with ties, zero-count types, binding
capacities, a stage at the resonance nudge and a load that leaves a stage
unstable.

`check_ic_ir` reads the type x item utility table in blocks of rows; its
reference builds the whole table as lists of Python floats and scans it in one
double loop. Their reports must agree bit for bit.
"""

import math
import tracemalloc

import numpy as np
import pytest

from edgemarket import (
    ContractMenu,
    OperatorSpec,
    Scenario,
    SolverConfig,
    StageResources,
    TaskSpec,
    UserTypePopulation,
    default_scenario,
    load_scenario,
)
from edgemarket.benchmarks import (
    METHODS,
    _TIE_TOL,
    deferred_acceptance,
    greedy_selection,
    posted_menus,
    run_gsmc,
    run_method,
    run_ours,
)
from edgemarket.contracts import (
    ItemUtilities,
    ScreeningReport,
    check_ic_ir,
    optimize_menu,
    stage_params_for,
    stage_table,
    user_utility,
    violation_profile,
)
from edgemarket.market import (
    MixedMatching,
    capacities,
    evaluate_matching,
    project_matching,
)
from edgemarket.queueing import (
    ViolationModel,
    ViolationProfile,
    violation_curve,
    violation_prob,
)
from edgemarket.scenario import default_scenario_obj, scenario_from_obj

TASK = TaskSpec(0.18, 3.6e11, 0.27, 24.0)


# ---------------------------------------------------------------------------
# references


def reference_greedy(scenario, menus):
    """Greedy selection with one checked `ViolationModel` per (operator, load)."""
    pop = scenario.population
    task = scenario.task
    cfg = scenario.solver
    delta = task.arrival_rate_per_user
    n_ops = len(scenario.operators)
    caps = capacities(scenario)
    assigned = np.zeros(n_ops)
    out = np.zeros((pop.n_types, n_ops + 1), dtype=int)
    models = {}
    for n in range(pop.n_types):
        traffic = pop.counts[n] * delta
        best_m, best_u = None, None
        for m, spec in enumerate(scenario.operators):
            if assigned[m] + traffic > caps[m] + 1e-9:
                continue
            latency = menus[m].latencies[n]
            key = (m, float(assigned[m] + traffic))
            if key not in models:
                stages = stage_params_for(spec, task, key[1])
                models[key] = (ViolationModel.from_stages(stages, cfg.zeta)
                               if all(s.is_stable for s in stages) else None)
            model = models[key]
            viol = violation_prob(model, latency) if model is not None else 1.0
            u = (pop.alpha_worst * spec.quality - pop.betas[n] * latency
                 - menus[m].prices[n] + spec.refund * viol)
            if best_u is None or u > best_u + _TIE_TOL:
                best_m, best_u = m, u
        if best_u is not None and best_u >= cfg.opt_out_utility - _TIE_TOL:
            out[n, best_m + 1] = 1
            assigned[best_m] += traffic
        else:
            out[n, 0] = 1
    return out


def reference_deferred_acceptance(utilities, margins, counts, quotas, opt_out):
    """Deferred acceptance that scans every held type on each rejection."""
    n_types, n_ops = utilities.shape
    type_prefs = []
    for n in range(n_types):
        ranked = sorted(range(n_ops), key=lambda m: (-utilities[n, m], m))
        type_prefs.append([m for m in ranked if utilities[n, m] >= opt_out])
    op_rank = []
    for m in range(n_ops):
        ranked = sorted(range(n_types), key=lambda n: (-margins[m, n], n))
        op_rank.append({n: i for i, n in enumerate(ranked)})
    holds = [set() for _ in range(n_ops)]
    held = [0] * n_ops
    next_choice = [0] * n_types
    free = list(range(n_types))
    while free:
        n = free.pop(0)
        if next_choice[n] >= len(type_prefs[n]):
            continue
        m = type_prefs[n][next_choice[n]]
        next_choice[n] += 1
        holds[m].add(n)
        held[m] += counts[n]
        while held[m] > quotas[m]:
            worst = max(holds[m], key=lambda j: op_rank[m][j])
            holds[m].discard(worst)
            held[m] -= counts[worst]
            free.append(worst)
    assignment = np.zeros((n_types, n_ops + 1), dtype=int)
    for m, members in enumerate(holds):
        for n in members:
            assignment[n, m + 1] = 1
    assignment[assignment.sum(axis=1) == 0, 0] = 1
    return assignment


def reference_gsmc_assignment(scenario):
    """GSMC's preferences from the posted menus, then the scanning reference."""
    pop = scenario.population
    delta = scenario.task.arrival_rate_per_user
    specs = scenario.operators
    posted = posted_menus(scenario)[0]
    utilities = ItemUtilities(pop, specs).rows(
        posted.latencies, posted.prices, posted.violations
    ).T
    cost = np.array([spec.violation_cost for spec in specs])
    exec_cost = np.array([spec.exec_cost_per_task for spec in specs])
    margins = (np.asarray(pop.counts, dtype=float) * delta
               * (posted.prices - cost[:, None] * posted.violations
                  - exec_cost[:, None]))
    utilities = np.round(utilities / _TIE_TOL) * _TIE_TOL
    margins = np.round(margins / _TIE_TOL) * _TIE_TOL
    quotas = [int(cap // delta) for cap in capacities(scenario)]
    return reference_deferred_acceptance(
        utilities, margins, pop.counts, quotas, scenario.solver.opt_out_utility
    )


def reference_projection(matching, caps, population, delta):
    """Projection with a per-type sort of the options."""
    n_types, n_ops = matching.n_types, matching.n_operators
    assigned = np.zeros(n_ops)
    out = np.zeros((n_types, n_ops + 1), dtype=int)
    for n in range(n_types):
        row = matching.probs[n]
        candidates = sorted(
            range(n_ops + 1),
            key=lambda c: (-row[c], n_ops + 1 if c == 0 else c),
        )
        traffic = population.counts[n] * delta
        for c in candidates:
            if c == 0:
                out[n, 0] = 1
                break
            if assigned[c - 1] + traffic <= caps[c - 1] + 1e-9:
                assigned[c - 1] += traffic
                out[n, c] = 1
                break
    return out


def reference_check_ic_ir(menu, population, quality, refund, profile):
    """`check_ic_ir` over the whole N x N table u[n][j] of Python floats, type
    n's utility from item j, scanned in one double loop."""
    viols = profile.probs(menu.latencies)
    items = list(zip(menu.latencies, menu.prices, viols))
    u = [
        [
            user_utility(lat, price, beta, population.alpha_worst, quality, viol,
                         refund)
            for lat, price, viol in items
        ]
        for beta in population.betas
    ]
    n_types = population.n_types
    ic_slack, ic_pair = math.inf, None
    for n in range(n_types):
        for j in range(n_types):
            if j == n:
                continue
            slack = u[n][n] - u[n][j]
            if slack < ic_slack:
                ic_slack, ic_pair = slack, (n, j)
    if n_types == 1:
        ic_slack = 0.0
    ir_slack, ir_type = min((u[n][n], n) for n in range(n_types))
    lats = menu.latencies
    return ScreeningReport(
        ic_slack=ic_slack,
        ic_pair=ic_pair,
        ir_slack=ir_slack,
        ir_type=ir_type,
        monotone_slack=min(
            (lats[n + 1] - lats[n] for n in range(n_types - 1)), default=0.0
        ),
        ir_first_slack=u[0][0],
        ic_down_slack=min(
            (u[n][n] - u[n][n - 1] for n in range(1, n_types)), default=0.0
        ),
        ic_up_slack=min(
            (u[n][n] - u[n][n + 1] for n in range(n_types - 1)), default=0.0
        ),
    )


# ---------------------------------------------------------------------------
# seeded markets


def _random_spec(rng):
    return OperatorSpec(
        uplink=StageResources(int(rng.integers(1, 60)), float(rng.uniform(3.0, 12.0))),
        processing=StageResources(int(rng.integers(1, 40)),
                                  float(rng.uniform(1e13, 5e13))),
        downlink=StageResources(int(rng.integers(1, 200)), float(rng.uniform(2.0, 8.0))),
        quality=float(rng.uniform(1.0, 2.0)),
        exec_cost_per_task=8e-6,
        violation_cost=float(rng.uniform(5e-4, 2e-3)),
        refund=float(rng.uniform(0.0, 3e-4)),
    )


def _random_counts(rng, n_types, total):
    counts = rng.multinomial(total, rng.dirichlet(np.full(n_types, 0.7)))
    counts[rng.random(n_types) < 0.3] = 0  # zero-count types
    if not counts.any():
        counts[0] = 1
    return tuple(int(c) for c in counts)


def _random_market(seed):
    """N from 1 to 300 and M from 1 to 6; some operators repeat another's spec
    (exact utility ties), the load runs from light to past the capacities."""
    rng = np.random.default_rng(seed)
    n_types = int(rng.choice([1, 2, 3, 8, 40, 150, 300]))
    n_ops = int(rng.integers(1, 7))
    specs = [_random_spec(rng)]
    for _ in range(n_ops - 1):
        specs.append(specs[int(rng.integers(len(specs)))] if rng.random() < 0.3
                     else _random_spec(rng))
    total = int(rng.integers(1, 40 * n_ops + 2))
    betas = tuple(sorted(rng.uniform(1e-5, 1e-3, n_types).tolist(), reverse=True))
    return Scenario(
        task=TASK,
        operators=tuple(specs),
        population=UserTypePopulation(betas, _random_counts(rng, n_types, total)),
        solver=SolverConfig(safety=float(rng.choice([0.5, 0.95, 1.0]))),
    )


def _random_menus(rng, scenario, posted):
    """The posted menus, some operators' items copied from another operator's
    (exact ties) or from it with prices moved by less than the tie tolerance,
    and some random items."""
    n_types = scenario.n_types
    menus = list(posted)
    for m in range(len(menus)):
        pick = rng.random()
        if pick < 0.25 and m:
            menus[m] = menus[int(rng.integers(m))]
        elif pick < 0.5 and m:
            source = menus[int(rng.integers(m))]
            shift = rng.choice([-0.4, 0.0, 0.4], n_types) * _TIE_TOL
            menus[m] = ContractMenu(source.latencies,
                                    tuple((np.array(source.prices) + shift).tolist()))
        elif pick < 0.7:
            menus[m] = ContractMenu(
                tuple(rng.uniform(1e-3, 0.2, n_types).tolist()),
                tuple(rng.uniform(-0.5, 2.0, n_types).tolist()),
            )
    return tuple(menus)


def _nudged_market(counts):
    """One operator whose uplink has 2 servers of rate 48 tasks/s: a load of
    48 puts its excess capacity 96 - 48 on the resonance nudge, and with
    safety 1 a load of 96 is admitted and leaves the stage unstable. A second
    operator with ample capacity catches what the first cannot take."""
    task = TaskSpec(0.25, 1.0, 0.25, 24.0)
    tight = OperatorSpec(
        uplink=StageResources(2, 12.0),
        processing=StageResources(10, 1000.0),
        downlink=StageResources(50, 12.0),
        quality=1.5, exec_cost_per_task=8e-6, violation_cost=1.2e-3, refund=1.2e-4,
    )
    ample = OperatorSpec(
        uplink=StageResources(40, 12.0),
        processing=StageResources(10, 1000.0),
        downlink=StageResources(50, 12.0),
        quality=1.4, exec_cost_per_task=8e-6, violation_cost=1.2e-3, refund=1.2e-4,
    )
    betas = tuple((len(counts) - i) * 1e-4 for i in range(len(counts)))
    return Scenario(
        task=task,
        operators=(tight, ample),
        population=UserTypePopulation(betas, counts),
        solver=SolverConfig(safety=1.0),
    )


@pytest.mark.parametrize("seed", range(24))
def test_greedy_selection_equals_the_violation_model_reference(seed):
    scn = _random_market(seed)
    rng = np.random.default_rng(1000 + seed)
    posted = posted_menus(scn)[0].menus()
    for menus in (posted, _random_menus(rng, scn, posted)):
        want = reference_greedy(scn, menus)
        assert greedy_selection(scn, menus).tolist() == want.tolist()


def test_greedy_selection_at_the_resonance_nudge_and_an_unstable_stage():
    # Loads 48 (nudged stage) and 96 (unstable stage) at the first operator,
    # with zero-count types between them meeting the same loads again.
    for counts in ((2, 0, 2, 0, 1, 3), (2, 2, 1), (4, 0, 1), (0, 2, 0, 2, 2)):
        scn = _nudged_market(counts)
        menus = posted_menus(scn)[0].menus()
        uniform = tuple(ContractMenu((0.05,) * len(counts), (0.1,) * len(counts))
                        for _ in scn.operators)
        for offer in (menus, uniform):
            want = reference_greedy(scn, offer)
            assert greedy_selection(scn, offer).tolist() == want.tolist()
    # The two loads reach the first operator in the uniform offer.
    scn = _nudged_market((2, 0, 2, 0, 1, 3))
    uniform = tuple(ContractMenu((0.05,) * 6, (0.1,) * 6) for _ in scn.operators)
    assert greedy_selection(scn, uniform)[:4, 1].tolist() == [1, 1, 1, 1]


def test_violation_curve_equals_the_scalar_model():
    # Random stable loads, a zero load, loads on the resonance nudge (excess
    # capacity c*mu - load equal to mu) and loads at or past a capacity.
    rng = np.random.default_rng(3)
    for _ in range(60):
        spec = _random_spec(rng)
        table = stage_table((spec,), TASK)
        stages = stage_params_for(spec, TASK, 0.0)
        capacity = min(s.service_capacity for s in stages)
        loads = [0.0, capacity, capacity * 1.5,
                 *rng.uniform(0.0, capacity, 8).tolist()]
        loads += [(s.servers - 1) * s.unit_rate for s in stages]
        zeta = float(rng.uniform(0.05, 0.95))
        for load in loads:
            params = stage_params_for(spec, TASK, load)
            if all(s.is_stable for s in params):
                model = ViolationModel.from_stages(params, zeta)
                want = (model.eta.hex(), model.g_product.hex())
            else:
                want = ((0.0).hex(), (1.0).hex())
            eta, g = violation_curve(table.lanes[0], load, zeta)
            assert (eta.hex(), g.hex()) == want, load


@pytest.mark.parametrize("seed", range(40))
def test_deferred_acceptance_equals_the_scanning_reference(seed):
    rng = np.random.default_rng(seed)
    n_types = int(rng.choice([1, 2, 5, 30, 120, 300]))
    n_ops = int(rng.integers(1, 7))
    # Small integer levels tie often, within rows and across them.
    utilities = rng.integers(-2, 4, (n_types, n_ops)).astype(float)
    margins = rng.integers(0, 5, (n_ops, n_types)).astype(float)
    counts = [int(c) for c in rng.integers(0, 6, n_types)]
    total = max(sum(counts), 1)
    quotas = [int(q) for q in rng.integers(0, total // max(n_ops, 1) + 2, n_ops)]
    got = deferred_acceptance(utilities, margins, counts, quotas, 0.0)
    want = reference_deferred_acceptance(utilities, margins, counts, quotas, 0.0)
    assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(16))
def test_gsmc_equals_the_scanning_reference(seed):
    scn = _random_market(100 + seed)
    assert run_gsmc(scn).assignment.tolist() == reference_gsmc_assignment(scn).tolist()


@pytest.mark.parametrize("seed", range(30))
def test_projection_equals_the_per_type_sort(seed):
    rng = np.random.default_rng(seed)
    n_types = int(rng.choice([1, 2, 7, 60, 300]))
    n_ops = int(rng.integers(1, 7))
    # Integer weights over their row sum: equal weights give equal floats,
    # the opt-out column included.
    weights = rng.integers(0, 4, (n_types, n_ops + 1)).astype(float)
    if rng.random() < 0.5:
        weights[:, 0] = weights[:, 1]  # opt-out tied with operator 1
    weights[weights.sum(axis=1) == 0] = 1.0
    matching = MixedMatching(weights / weights.sum(axis=1, keepdims=True))
    counts = tuple(int(c) for c in rng.integers(0, 5, n_types))
    if not any(counts):
        counts = (1,) + counts[1:]
    pop = UserTypePopulation(tuple(np.linspace(2e-3, 1e-4, n_types).tolist()),
                             counts)
    traffic = 24.0 * sum(counts)
    caps = rng.uniform(0.0, 0.6, n_ops) * traffic  # binding capacities
    caps[rng.random(n_ops) < 0.2] = 24.0 * 3  # exactly a few types' traffic
    got = project_matching(matching, caps, pop, 24.0)
    assert got.tolist() == reference_projection(matching, caps, pop, 24.0).tolist()


# ---------------------------------------------------------------------------
# bench results


def _fleet_scenario():
    obj = default_scenario_obj()
    for op in obj["operators"]:
        for stage in ("uplink", "processing", "downlink"):
            op[stage]["servers"] *= 100
    obj["population"]["total_users"] = 15_000
    return scenario_from_obj(obj)


BENCH_SCENARIOS = {
    "default": default_scenario,
    "256 types": lambda: default_scenario(n_types=256),
    "x100 fleet": _fleet_scenario,
    "400 users, seed 1": lambda: load_scenario(
        None, ("population.total_users=400",), seed=1),
}


@pytest.mark.parametrize("name", BENCH_SCENARIOS)
def test_stored_totals_equal_a_fresh_evaluation_bit_for_bit(name):
    scn = BENCH_SCENARIOS[name]()
    for method in METHODS:
        result = run_method(scn, method)
        fresh = evaluate_matching(result.assignment, result.menus, scn)
        assert result.social_welfare.hex() == fresh.social_welfare.hex()
        assert result.total_operator_utility.hex() == (
            fresh.total_operator_utility.hex())


def test_run_method_ours_is_run_ours_result():
    scn = default_scenario()
    got = run_method(scn, "OURS")
    want = run_ours(scn)[0]
    assert got.name == want.name == "OURS"
    assert got.assignment.tolist() == want.assignment.tolist()
    assert got.menus == want.menus
    assert got.design_congestion.tobytes() == want.design_congestion.tobytes()
    assert got.total_operator_utility.hex() == want.total_operator_utility.hex()
    assert got.social_welfare.hex() == want.social_welfare.hex()
    assert got.converged == want.converged
    assert got.mixed_matching.tobytes() == want.mixed_matching.tobytes()


# ---------------------------------------------------------------------------
# screening check

_SLACKS = ("ic_slack", "ir_slack", "monotone_slack", "ir_first_slack",
           "ic_down_slack", "ic_up_slack")


def _report_bits(report):
    for name in _SLACKS:
        assert type(getattr(report, name)) is float, name
    assert type(report.ir_type) is int
    assert report.ic_pair is None or all(type(x) is int for x in report.ic_pair)
    return ([getattr(report, name).hex() for name in _SLACKS],
            report.ic_pair, report.ir_type)


def _screening_cases(n_types):
    """(label, menu, population, quality, refund, profile) on a seeded market
    with n_types types: each operator's solved menu, constructed IC and IR
    violations, non-monotone menus, all-identical items, signed-zero ties and
    overflowing utilities."""
    scn = default_scenario(n_types=n_types, seed=n_types)
    pop = scn.population
    rng = np.random.default_rng(n_types)
    masses = np.asarray(pop.counts, float) * scn.task.arrival_rate_per_user / 3
    congestion = np.cumsum(masses)
    for m, spec in enumerate(scn.operators):
        profile = violation_profile(spec, scn.task, congestion, scn.solver.zeta)
        menu = optimize_menu(pop, spec, scn.task, masses, congestion)
        yield f"solved {m}", menu, pop, spec.quality, spec.refund, profile
    lats, prices = menu.latencies, menu.prices
    cases = {
        # item N // 2 a dollar cheaper: every other type gains by taking it
        "IC violation": (lats, tuple(p - 1.0 if n == n_types // 2 else p
                                     for n, p in enumerate(prices))),
        "IR violation": (lats, tuple(p + 0.5 for p in prices)),
        "shuffled": (tuple(rng.permutation(lats).tolist()), prices),
        "random": (tuple(rng.uniform(1e-3, 0.5, n_types).tolist()),
                   tuple(rng.uniform(-0.5, 2.0, n_types).tolist())),
    }
    for label, (case_lats, case_prices) in cases.items():
        yield (label, ContractMenu(case_lats, case_prices), pop, spec.quality,
               spec.refund, profile)
    # Equal items and equal bounds: every off-diagonal slack is exactly 0.0.
    flat = ViolationProfile(np.full(n_types, 3.0), np.full(n_types, 1.5))
    yield ("identical", ContractMenu((0.3,) * n_types, (1.2,) * n_types), pop,
           spec.quality, spec.refund, flat)
    # Worth -0.0, beta x latency underflowing to 0.0 and refund -0.0: an item
    # priced +0.0 is worth -0.0 and one priced -0.0 is worth +0.0, so slacks
    # tie at zeros of both signs.
    tiny = UserTypePopulation((1e-200,) * n_types, pop.counts)
    yield ("signed zeros",
           ContractMenu((1e-200,) * n_types,
                        tuple(rng.choice([0.0, -0.0], n_types).tolist())),
           tiny, -0.0, -0.0, profile)
    # beta x latency overflows on the long items: utilities of -inf and
    # slacks of +-inf and NaN.
    huge = UserTypePopulation(
        tuple(sorted(rng.uniform(1e299, 1e300, n_types).tolist(), reverse=True)),
        pop.counts)
    yield ("overflow",
           ContractMenu(tuple(rng.choice([1e-3, 1e10], n_types).tolist()),
                        tuple(rng.uniform(-0.5, 2.0, n_types).tolist())),
           huge, spec.quality, spec.refund, profile)


@pytest.mark.parametrize("n_types", [1, 2, 3, 8, 127, 128, 129, 300, 1024])
def test_check_ic_ir_equals_the_list_table_reference(n_types):
    for label, menu, pop, quality, refund, profile in _screening_cases(n_types):
        got = check_ic_ir(menu, pop, quality, refund, profile)
        want = reference_check_ic_ir(menu, pop, quality, refund, profile)
        assert _report_bits(got) == _report_bits(want), label
        if label == "identical" and n_types > 1:
            assert got.ic_slack == 0.0 and got.ic_pair == (0, 1)
        if label in ("IC violation", "IR violation") and n_types > 1:
            assert not got.passed, label
    if n_types == 1:
        assert (got.ic_slack, got.ic_pair, got.monotone_slack, got.ic_down_slack,
                got.ic_up_slack) == (0.0, None, 0.0, 0.0, 0.0)


def test_check_ic_ir_memory_stays_flat_in_the_number_of_types():
    # The list table at N = 4 096 holds 16.8 million floats, about 540 MB.
    n_types = 4096
    rng = np.random.default_rng(4096)
    pop = UserTypePopulation(
        tuple(np.linspace(1e-3, 1e-5, n_types).tolist()), (1,) * n_types)
    menu = ContractMenu(tuple(np.sort(rng.uniform(1e-3, 0.5, n_types)).tolist()),
                        tuple(rng.uniform(0.0, 2.0, n_types).tolist()))
    profile = ViolationProfile(rng.uniform(1.0, 50.0, n_types),
                               rng.uniform(1.0, 3.0, n_types))
    tracemalloc.start()
    try:
        check_ic_ir(menu, pop, 1.5, 1e-4, profile)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
