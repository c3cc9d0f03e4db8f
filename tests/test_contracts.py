"""Contract menus: utilities, reward recovery, the screening check, the menu
optimizer against brute-force oracles, and welfare accounting."""

import dataclasses
import json
import math

import numpy as np
import pytest

from edgemarket import (
    ContractMenu,
    DomainError,
    OperatorSpec,
    StageParams,
    TaskSpec,
    UserTypePopulation,
    ViolationProfile,
    check_ic_ir,
    menu_grid_gap,
    menu_objective,
    operator_utility,
    optimize_menu,
    recover_rewards,
    social_welfare,
    user_utility,
    violation_profile,
)
from edgemarket import contracts
from edgemarket.contracts import (
    SCREENING_TOL,
    ItemUtilities,
    StageResources,
    _ListedRows,
    _block_argmin,
    _bounds,
    _isotonic_minimize,
    _latency_terms,
    _term_argmin,
    _term_argmins,
    menu_profit,
    menu_to_obj,
    optimize_menu_with_profile,
    optimize_menus,
    stage_params_for,
    stage_table,
)
from edgemarket.queueing import (
    _ARRAY_MIN_LANES,
    StageTable,
    ViolationModel,
    build_profiles,
    violation_prob,
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


def make_population(n=3, counts=(10, 12, 8)):
    betas = tuple((n - i) * 1e-4 for i in range(n))
    return UserTypePopulation(betas=betas, counts=tuple(counts[:n]))


def make_profile(pop):
    congestion = np.cumsum(np.asarray(pop.counts, float) * 24.0)
    return violation_profile(SPEC, TASK, congestion, 0.9), congestion


def test_violation_profile_equals_scalar_model_bit_for_bit():
    # Each trial stacks 4 random operators with 24 loads each: the stacked call
    # has enough distinct (operator, stage, load) lanes for the array Erlang-C,
    # while each operator's own profile stays on the scalar path.
    rng = np.random.default_rng(59)
    for trial in range(60):
        specs, rows, lanes = [], [], 0
        for _ in range(4):
            spec = OperatorSpec(
                uplink=StageResources(int(rng.integers(1, 60)),
                                      float(rng.uniform(1.0, 20.0))),
                processing=StageResources(int(rng.integers(1, 40)),
                                          float(rng.uniform(1e13, 6e13))),
                downlink=StageResources(int(rng.integers(1, 200)),
                                        float(rng.uniform(1.0, 10.0))),
                quality=1.5, exec_cost_per_task=8e-6, violation_cost=1.2e-3,
                refund=1.2e-4,
            )
            stages = stage_params_for(spec, TASK, 0.0)
            capacity = min(s.service_capacity for s in stages)
            loads = np.sort(rng.uniform(0.0, 1.2 * capacity, 24))
            loads[:2] = 0.0                  # types with no traffic yet
            loads[5] = loads[4]              # a type adding no traffic repeats a load
            loads[-1] = 1.5 * capacity       # pinned: some stage unstable
            up = stages[0]
            loads[-2] = (up.servers - 1) * up.unit_rate  # r == mu at the uplink
            specs.append(spec)
            rows.append(loads)
            lanes += 3 * len({x for x in loads.tolist() if 0.0 < x < capacity})
        assert lanes >= _ARRAY_MIN_LANES > 3 * 24
        zeta = float(rng.uniform(0.1, 0.95))
        stacked = build_profiles(stage_table(specs, TASK), np.array(rows), zeta)
        for spec, loads, profile in zip(specs, rows, stacked):
            single = violation_profile(spec, TASK, loads, zeta)
            assert len(profile) == len(single) == len(loads)
            for n, lam in enumerate(loads.tolist()):
                at_load = stage_params_for(spec, TASK, lam)
                if all(s.is_stable for s in at_load):
                    model = ViolationModel.from_stages(at_load, zeta)
                    for p in (profile, single):
                        assert p.eta[n] == model.eta and p.g[n] == model.g_product
                        for t in (1e-3, 0.05, 0.4, 3.0):
                            assert p.prob(n, t) == violation_prob(model, t)
                else:
                    for p in (profile, single):
                        assert p.eta[n] == 0.0 and p.g[n] == 1.0
                        assert p.prob(n, 0.05) == 1.0


def test_violation_profile_rejects_bad_loads_and_lengths():
    with pytest.raises(DomainError):
        violation_profile(SPEC, TASK, [10.0, -1.0], 0.9)
    pop = make_population(3)
    profile, _ = make_profile(make_population(2, counts=(10, 12)))
    with pytest.raises(DomainError):
        recover_rewards([0.2, 0.3, 0.4], pop, SPEC.quality, SPEC.refund, profile)
    with pytest.raises(DomainError):
        menu_objective([0.2, 0.3, 0.4], pop, SPEC, [1.0, 1.0, 1.0], profile)
    for lats in ([0.2], [0.2, 0.3, 0.4]):
        with pytest.raises(DomainError, match="latencies must have 2 entries"):
            profile.probs(lats)
    # One ulp below capacity, lam / c rounds up to mu, so eta would be 0: the
    # scalar model and the profile both refuse the load.
    c, mu = 286, 16.24996048184168
    lam = math.nextafter(c * mu, 0.0)
    with pytest.raises(DomainError):
        ViolationModel.from_stages((StageParams(c, mu, lam),) * 3, 0.9)
    with pytest.raises(DomainError):
        build_profiles(StageTable([(c,) * 3], [(mu,) * 3]), [[lam]], 0.9)
    # The stage table checks what erlang_c checks of a stage, once.
    for servers, rates in (([(0, 2, 3)], [(1.0,) * 3]),
                           ([(1, 2, 3)], [(1.0, 0.0, 1.0)]),
                           ([(1, 2)], [(1.0,) * 3])):
        with pytest.raises(DomainError):
            StageTable(servers, rates)
    with pytest.raises(DomainError, match="one row per operator"):
        build_profiles(StageTable([(c,) * 3], [(mu,) * 3]), [[1.0], [2.0]], 0.9)


def test_population_rejects_non_finite_betas():
    pop = UserTypePopulation(betas=(2e-4, 1e-4), counts=(5, 5))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="betas must be positive and finite"):
            dataclasses.replace(pop, betas=(bad, 1e-4))


def test_population_rejects_non_finite_alpha_worst():
    pop = UserTypePopulation(betas=(2e-4, 1e-4), counts=(5, 5))
    for bad in (math.inf, math.nan):
        with pytest.raises(DomainError, match="alpha_worst must be positive and finite"):
            dataclasses.replace(pop, alpha_worst=bad)


def test_population_rejects_increasing_betas():
    with pytest.raises(DomainError):
        UserTypePopulation(betas=(1e-4, 2e-4), counts=(5, 5))
    with pytest.raises(DomainError):
        UserTypePopulation(betas=(1e-4, -1e-5), counts=(5, 5))


def test_user_utility_cancellation_limit():
    beta = 8e-4
    u = user_utility(1e-6, 1.0 * 1.5 + 1.2e-4, beta, 1.0, 1.5, violation=1.0,
                     refund=1.2e-4)
    assert u == pytest.approx(-beta * 1e-6, abs=1e-15)


def test_user_utility_direct_arithmetic():
    u = user_utility(100.0, 0.0, 8e-4, 1.0, 1.5, violation=0.0, refund=1.2e-4)
    assert u == pytest.approx(1.42, abs=1e-12)


def test_recovered_single_item_gives_worst_type_zero():
    pop = make_population(1, counts=(10,))
    profile, _ = make_profile(pop)
    prices = recover_rewards([0.4], pop, SPEC.quality, SPEC.refund, profile)
    u = user_utility(0.4, prices[0], pop.betas[0], pop.alpha_worst, SPEC.quality,
                     profile.prob(0, 0.4), SPEC.refund)
    assert abs(u) <= 1e-12


def test_operator_utility_examples():
    menu = ContractMenu((0.5,), (1e-3,))
    pop1 = UserTypePopulation(betas=(8e-4,), counts=(1,))
    assert operator_utility(menu, [0.0], SPEC, [0.1]) == 0.0
    got = operator_utility(menu, [24.0], SPEC, [0.1])
    assert got == pytest.approx(24.0 * (1e-3 - 1.2e-4 - 8e-6), rel=1e-12)
    assert operator_utility(menu, [48.0], SPEC, [0.1]) == pytest.approx(2 * got, rel=1e-12)
    with pytest.raises(DomainError):
        operator_utility(menu, [1.0, 2.0], SPEC, [0.1])
    with pytest.raises(DomainError):
        ContractMenu((0.5, 0.6), (1e-3,))
    del pop1


def test_recover_rewards_branches():
    pop = make_population(3)
    profile, _ = make_profile(pop)
    single = make_population(1, counts=(10,))
    sprofile, _ = make_profile(single)
    r1 = recover_rewards([0.4], single, SPEC.quality, SPEC.refund, sprofile)[0]
    want = (1.0 * SPEC.quality - single.betas[0] * 0.4
            + SPEC.refund * sprofile.prob(0, 0.4))
    assert r1 == pytest.approx(want, rel=1e-15)

    flat = ViolationProfile(eta=np.zeros(3), g=np.full(3, 0.05))
    equal = recover_rewards([0.3, 0.3, 0.3], pop, SPEC.quality, SPEC.refund, flat)
    assert equal[0] == equal[1] == equal[2]

    with pytest.raises(DomainError):
        recover_rewards([0.4, 0.3, 0.5], pop, SPEC.quality, SPEC.refund, profile)


def test_recovery_binds_adjacent_constraints():
    pop = make_population(3)
    profile, _ = make_profile(pop)
    rng = np.random.default_rng(23)
    for _ in range(25):
        lats = np.sort(rng.uniform(0.05, 2.0, 3))
        prices = recover_rewards(lats, pop, SPEC.quality, SPEC.refund, profile)
        menu = ContractMenu(tuple(lats), tuple(prices))
        rep = check_ic_ir(menu, pop, SPEC.quality, SPEC.refund, profile)
        assert abs(rep.ir_first_slack) <= 1e-12
        assert abs(rep.ic_down_slack) <= 1e-12
        assert rep.passed
        assert min(rep.monotone_slack, rep.ic_up_slack) >= -SCREENING_TOL


def test_check_ic_ir_flags_constructed_violations():
    pop = make_population(2, counts=(10, 12))
    profile, _ = make_profile(pop)
    prices = recover_rewards([0.2, 0.6], pop, SPEC.quality, SPEC.refund, profile)
    good = ContractMenu((0.2, 0.6), tuple(prices))
    rep = check_ic_ir(good, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.passed
    assert min(rep.monotone_slack, rep.ir_first_slack, rep.ic_down_slack,
               rep.ic_up_slack) >= -SCREENING_TOL

    swapped = ContractMenu((0.6, 0.2), tuple(prices))
    rep = check_ic_ir(swapped, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.monotone_slack < 0 and not rep.passed

    greedy = ContractMenu(good.latencies, (prices[0] + 1.0, good.prices[1]))
    rep = check_ic_ir(greedy, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.ir_first_slack < 0 and not rep.passed


def test_check_ic_ir_full_scan():
    pop = make_population(3)
    profile, congestion = make_profile(pop)
    menu = optimize_menu(pop, SPEC, TASK, [240.0, 288.0, 192.0], congestion)
    rep = check_ic_ir(menu, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.passed and rep.ic_slack >= -1e-9 and rep.ir_slack >= -1e-9

    single = make_population(1, counts=(10,))
    sprofile, _ = make_profile(single)
    prices = recover_rewards([0.4], single, SPEC.quality, SPEC.refund, sprofile)
    rep1 = check_ic_ir(ContractMenu((0.4,), (prices[0],)),
                       single, SPEC.quality, SPEC.refund, sprofile)
    assert rep1.ic_slack == 0.0 and abs(rep1.ir_slack) <= 1e-12

    # Item 3 is strictly cheaper at nearly the same latency, so the worst
    # defection is type 1 grabbing it; the pair is 0-based (type, item).
    bad = ContractMenu((0.3, 0.3, 0.35), (1.2, 1.1, 1.0))
    rep_bad = check_ic_ir(bad, pop, SPEC.quality, SPEC.refund, profile)
    assert rep_bad.ic_slack < 0
    assert rep_bad.ic_pair == (0, 2)


def test_separable_objective_matches_direct_evaluation():
    # The solver's per-latency decomposition must equal the posted-price
    # objective: sum d(R - Cp) == a1*q*sum(d) - sum[A_n L + d(C-R)p(L)].
    pop = make_population(3)
    profile, _ = make_profile(pop)
    masses = [240.0, 288.0, 192.0]
    rng = np.random.default_rng(31)
    betas = list(pop.betas) + [0.0]
    for _ in range(40):
        lats = np.sort(rng.uniform(0.02, 3.0, 3))
        direct = menu_objective(lats, pop, SPEC, masses, profile)
        tails = [sum(masses[j] for j in range(n, 3)) for n in range(3)] + [0.0]
        reorganized = pop.alpha_worst * SPEC.quality * sum(masses)
        for n in range(3):
            a_n = betas[n] * tails[n] - betas[n + 1] * tails[n + 1]
            reorganized -= a_n * lats[n]
            reorganized -= (masses[n] * (SPEC.violation_cost - SPEC.refund)
                            * profile.prob(n, lats[n]))
        assert direct == pytest.approx(reorganized, rel=1e-12)


def grid_best_single(pop, masses, profile, points):
    lats = np.linspace(1e-3, 10.0, points)
    best = -math.inf
    alpha_q = pop.alpha_worst * SPEC.quality
    for lat in lats:
        viol = profile.prob(0, lat)
        price = alpha_q - pop.betas[0] * lat + SPEC.refund * viol
        best = max(best, masses[0] * (price - SPEC.violation_cost * viol))
    return best


def test_optimize_menu_single_type_matches_dense_grid():
    pop = make_population(1, counts=(10,))
    profile, congestion = make_profile(pop)
    menu = optimize_menu(pop, SPEC, TASK, [240.0], congestion)
    got = menu_objective(menu.latencies, pop, SPEC, [240.0], profile)
    want = grid_best_single(pop, [240.0], profile, 200_001)
    assert got >= want - 1e-6 * abs(want)


def test_optimize_menu_two_types_matches_exhaustive_grid():
    pop = make_population(2, counts=(10, 12))
    # The grid's schedules are feasible for the exact solve, so it never wins.
    assert -1e-3 <= menu_grid_gap(pop, SPEC, TASK, 0.9, (1e-3, 10.0)) <= 1e-12


def test_identical_betas_flat_congestion_pool_to_one_latency():
    # With equal betas and a shared violation curve every item solves the same
    # per-type problem, so the menu collapses to a single latency.
    pop = UserTypePopulation(betas=(4e-4, 4e-4, 4e-4), counts=(10, 12, 8))
    congestion = np.full(3, 720.0)
    menu = optimize_menu(pop, SPEC, TASK, [240.0, 288.0, 192.0], congestion)
    assert menu.latencies[0] == pytest.approx(menu.latencies[1], rel=1e-9)
    assert menu.latencies[1] == pytest.approx(menu.latencies[2], rel=1e-9)


def test_optimizer_dominates_random_feasible_menus():
    pop = make_population(3)
    profile, congestion = make_profile(pop)
    masses = [240.0, 288.0, 192.0]
    menu = optimize_menu(pop, SPEC, TASK, masses, congestion)
    got = menu_objective(menu.latencies, pop, SPEC, masses, profile)
    rng = np.random.default_rng(47)
    for _ in range(1000):
        lats = np.sort(rng.uniform(1e-3, 10.0, 3))
        assert got >= menu_objective(lats, pop, SPEC, masses, profile) - 1e-9


def test_ironing_output_is_monotone_under_stress():
    # Heavy low-type demand pushes the relaxed solution against monotonicity.
    pop = make_population(3)
    _, congestion = make_profile(pop)
    for masses in ([1000.0, 1.0, 1.0], [1.0, 1000.0, 1.0], [500.0, 1.0, 500.0]):
        menu = optimize_menu(pop, SPEC, TASK, masses, congestion)
        lats = menu.latencies
        assert all(a <= b for a, b in zip(lats, lats[1:]))


LO, HI = 1e-3, 10.0


def random_term(rng, sign):
    """One (a, w, eta, g) term: pinned, always decaying (g <= 1), or with a
    kink ln(g)/eta anywhere from inside [LO, HI] to beyond HI."""
    w = sign * float(rng.uniform(0.1, 20.0))
    kind = rng.random()
    if kind < 0.15:
        eta, g = 0.0, 1.0
    elif kind < 0.45:
        eta, g = float(rng.uniform(0.2, 30.0)), float(rng.uniform(0.0, 1.0))
    else:
        eta = float(rng.uniform(0.2, 30.0))
        g = math.exp(eta * float(rng.uniform(0.0, 14.0)))
    if rng.random() < 0.2:
        a = 0.0
    else:
        # Scale a so that the stationary point lands anywhere in [0, 1.1*HI].
        at = min(1.0, g * math.exp(-eta * float(rng.uniform(0.0, 1.1 * HI))))
        a = (abs(w) or 1.0) * max(eta, 0.1) * at * float(rng.uniform(0.5, 2.0))
    return a, w, eta, g


def term_value(term, x):
    # a*x + w*min(1, g*exp(-eta*x)), the clamp read as ViolationProfile.prob.
    a, w, eta, g = term
    value = g * math.exp(-eta * x)
    return a * x + w * (1.0 if value > 1.0 else value)


def test_exact_block_minimum_beats_dense_grid_and_kinks():
    rng = np.random.default_rng(2024)
    grid = np.linspace(LO, HI, 20_001)
    for _ in range(400):
        sign = float(rng.choice([1.0, -1.0, 0.0]))
        block = [random_term(rng, sign) for _ in range(int(rng.integers(1, 9)))]
        kinks = [math.log(g) / eta for _, _, eta, g in block
                 if eta > 0.0 and g > 1.0 and LO < math.log(g) / eta < HI]
        xs = np.concatenate([grid, kinks])
        total = np.zeros_like(xs)
        for a, w, eta, g in block:
            total += a * xs + w * np.minimum(1.0, g * np.exp(-eta * xs))
        if len(block) == 1:
            x = _term_argmin(block[0], LO, HI)
        else:
            x = _block_argmin(block, LO, HI)
        assert LO <= x <= HI
        got = sum(term_value(term, x) for term in block)
        scale = sum(a * HI + abs(w) for a, w, _, _ in block)
        assert got <= total.min() + 1e-12 * scale
        # A single term must agree with the pooled solve of itself.
        if len(block) == 1:
            pooled = _block_argmin(block, LO, HI)
            assert term_value(block[0], pooled) <= got + 1e-12 * scale


def test_optimized_menus_are_monotone_with_pooled_members_identical():
    rng = np.random.default_rng(77)
    for trial in range(60):
        n = int(rng.integers(2, 40))
        betas = tuple(np.sort(rng.uniform(1e-5, 5e-4, n))[::-1].tolist())
        counts = tuple(int(c) for c in rng.integers(0, 20, n))
        if not any(counts):
            counts = (1,) + counts[1:]
        pop = UserTypePopulation(betas=betas, counts=counts)
        refund = float(rng.choice([1.2e-4, 1.2e-3, 3e-3]))
        spec = OperatorSpec(SPEC.uplink, SPEC.processing, SPEC.downlink,
                            SPEC.quality, SPEC.exec_cost_per_task, 1.2e-3, refund)
        eta = rng.uniform(0.5, 40.0, n)
        g = np.exp(eta * rng.uniform(-0.5, 2.0, n))
        pinned = rng.random(n) < 0.2
        profile = ViolationProfile(eta=np.where(pinned, 0.0, eta),
                                   g=np.where(pinned, 1.0, g))
        masses = (np.asarray(counts, float) * rng.uniform(0.0, 30.0, n)).tolist()
        lats = optimize_menu_with_profile(pop, spec, masses, profile).latencies
        assert all(LO <= x <= HI for x in lats)
        for prev, cur in zip(lats, lats[1:]):
            assert prev <= cur
            # Pooled members share one float; no separately solved neighbours
            # land a rounding error apart.
            if cur - prev <= 1e-9 * cur:
                assert cur == prev
        # Each run of equal latencies sits at the exact minimum of its terms.
        terms = _latency_terms(pop, spec, masses, profile)
        start = 0
        for end in range(1, n + 1):
            if end == n or lats[end] != lats[start]:
                run = terms[start:end]
                want = (_term_argmin(run[0], LO, HI) if len(run) == 1
                        else _block_argmin(run, LO, HI))
                assert lats[start] == want
                start = end


def test_interior_single_term_is_the_closed_form_stationary_point():
    pop = UserTypePopulation(betas=(2e-4,), counts=(10,))
    eta, g, mass = 4.0, 2.5, 240.0
    profile = ViolationProfile(eta=[eta], g=[g])
    menu = optimize_menu_with_profile(pop, SPEC, [mass], profile, (LO, HI))
    a = pop.betas[0] * mass - 0.0 * 0.0
    w = mass * (SPEC.violation_cost - SPEC.refund)
    want = math.log(w * eta * g / a) / eta
    assert math.log(g) / eta < want < HI
    assert menu.latencies[0] == pytest.approx(want, rel=1e-15, abs=0.0)


def test_degenerate_terms_return_exactly_lo():
    # Flat: no slope and no weight, or a curve clamped at 1 up to past HI.
    for term in ((0.0, 0.0, 3.0, 2.0), (0.0, 0.0, 0.0, 1.0),
                 (0.0, 3.0, 1.0, math.exp(20.0))):
        assert _term_argmin(term, LO, HI) == LO
        assert _block_argmin([term, term], LO, HI) == LO
    for w in (5.0, 0.0, -5.0):  # pinned, a > 0
        term = (0.7, w, 0.0, 1.0)
        assert _term_argmin(term, LO, HI) == LO
        assert _block_argmin([term, (0.1, w, 0.0, 1.0)], LO, HI) == LO


def test_refund_above_violation_cost_lands_on_bound_or_kink():
    for a, eta, g in ((0.0, 3.0, 2.0), (0.4, 3.0, 2.0), (0.0, 2.0, 0.5),
                      (1e-3, 0.5, 1e9), (0.2, 0.0, 1.0)):
        term = (a, -4.0, eta, g)
        kink = math.log(g) / eta if eta > 0.0 and g > 1.0 else LO
        assert _term_argmin(term, LO, HI) in (LO, kink, HI)
        x = _block_argmin([term, (a, -1.0, 2.0 * eta, g)], LO, HI)
        kinks = {LO, HI, kink}
        if eta > 0.0 and g > 1.0:
            kinks.add(math.log(g) / (2.0 * eta))
        assert x in kinks


def golden_term(rng, hi, sign):
    """One (a, w, eta, g) term scaled to [LO, hi]: pinned, always decaying
    (g <= 1), or with a kink ln(g)/eta from below LO to past hi; a is 0 or
    puts the term's own stationary point anywhere in [0, 1.1*hi]."""
    w = sign * float(rng.uniform(0.1, 20.0))
    eta = float(rng.uniform(0.5, 20.0)) / hi
    kind = rng.random()
    if kind < 0.1:
        return float(rng.uniform(0.0, 1.0)) * abs(w), w, 0.0, 1.0
    if kind < 0.35:
        kink, g = -math.inf, float(rng.uniform(0.05, 1.0))
    else:
        kink = float(rng.uniform(-0.2, 1.2)) * hi
        g = math.exp(eta * kink)
    if rng.random() < 0.1:
        return 0.0, w, eta, g
    s = float(rng.uniform(0.0, 1.1)) * hi
    bound = min(1.0, g * math.exp(-eta * max(s, kink)))
    return abs(w) * eta * bound * float(rng.uniform(0.2, 1.2)), w, eta, g


# `_block_argmin` and `_term_argmin` on `golden_cases()`, as float.hex. The
# draws hold blocks without a positive-w member, single-member blocks, a = 0,
# g <= 1, kinks inside and outside [LO, hi], and 13 blocks whose Newton
# iteration runs in two or more segments.
_GOLDEN_BLOCK_ARGMINS = [
    "0x1.7525f7a8427b0p+1", "0x1.33840abfdcca2p-5", "0x1.0624dd2f1a9fcp-10",
    "0x1.01af4ed05ac46p-6", "0x1.07079e69834e7p-1", "0x1.678ceb46c980bp-7",
    "0x1.ec1e856e3b7f7p-2", "0x1.0624dd2f1a9fcp-10", "0x1.b76b8d620132ep+1",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.f18feebb40c33p-8", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.5420eb1fbe938p-7", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.78774e9978754p+2",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.13686930e6efap+3",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.3951a1009a7e3p-5", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.de3648f047d75p-3", "0x1.5242f397c8d28p-7",
    "0x1.f8a8c17b73e03p+2", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.23179a3466c54p-5", "0x1.bcb52820c9028p+0",
    "0x1.635a8d44ffa04p-7", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10"
]

_GOLDEN_TERM_ARGMINS = [
    "0x1.7525f7a8427b0p+1", "0x1.999999999999ap-5", "0x1.d249a96114fcep-6",
    "0x1.0624dd2f1a9fcp-10", "0x1.530255fe53a91p+1", "0x1.11df9f1cb5058p-5",
    "0x1.a13309d0ef6b3p-8", "0x1.4000000000000p+3", "0x1.7483d3059ae1fp+0",
    "0x1.034dad85f62b5p-8", "0x1.08504ff70cf26p-6", "0x1.ec1e856e3b7f7p-2",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.3644cb5676d67p+3",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.4000000000000p+3", "0x1.0624dd2f1a9fcp-10", "0x1.4e19ff5700052p-5",
    "0x1.3c75639b28e9fp-5", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.50761215f8b03p-5",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.68ab96355df20p-5", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.57048fc4dcadep-5", "0x1.6e4311ef69692p-6",
    "0x1.0624dd2f1a9fcp-10", "0x1.72e7d77eb745cp+2",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.78774e9978754p+2", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.4000000000000p+3", "0x1.f7e5343ff70a8p+2",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.b44fbd78f8a36p+2", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.4000000000000p+3",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.d554d7ba07da9p-6", "0x1.0624dd2f1a9fcp-10", "0x1.4000000000000p+3",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.3f4f7105a67c3p+3", "0x1.218ebd95d113ep+3",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.2917a05a72d13p+2", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.4000000000000p+3", "0x1.42792716c65c0p-5", "0x1.1607aca977e94p-6",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.70fee6aaacf65p+1", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.4f6fc9bfb0a60p+2", "0x1.0624dd2f1a9fcp-10", "0x1.1d6f02bfbdd9ap-6",
    "0x1.f8a8c17b73e01p+2", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.33d64dfbfcb23p-5", "0x1.057d330692981p-5",
    "0x1.0624dd2f1a9fcp-10", "0x1.4000000000000p+3", "0x1.813bb048741c2p-5",
    "0x1.999999999999ap-5", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10",
    "0x1.ce1aba0245d0bp+2", "0x1.0624dd2f1a9fcp-10",
    "0x1.0624dd2f1a9fcp-10", "0x1.0624dd2f1a9fcp-10"
]


def golden_cases():
    rng = np.random.default_rng(1212)
    cases = []
    for i in range(64):
        hi = (HI, 0.05)[i % 2]
        sign = -1.0 if i % 8 == 7 else 1.0
        cases.append(([golden_term(rng, hi, sign) for _ in range(1 + i % 6)], hi))
    return cases


def test_menu_core_reproduces_its_recorded_minimisers_bit_for_bit():
    cases = golden_cases()
    blocks = [_block_argmin(block, LO, hi).hex() for block, hi in cases]
    assert blocks == _GOLDEN_BLOCK_ARGMINS
    terms = [_term_argmin(term, LO, hi).hex()
             for block, hi in cases for term in block[:2]]
    assert terms == _GOLDEN_TERM_ARGMINS


def _random_market(rng, n_ops, n_types):
    betas = tuple(np.sort(rng.uniform(1e-5, 5e-4, n_types))[::-1].tolist())
    counts = tuple(int(c) for c in rng.integers(0, 20, n_types))
    if not any(counts):
        counts = (1,) + counts[1:]
    pop = UserTypePopulation(betas=betas, counts=counts)
    # Operator 1 refunds at least its violation cost (w <= 0).
    specs = [
        OperatorSpec(SPEC.uplink, SPEC.processing, SPEC.downlink,
                     float(rng.uniform(1.0, 2.0)), SPEC.exec_cost_per_task, 1.2e-3,
                     float(rng.uniform(1.2e-3, 3e-3)) if m == 1
                     else float(rng.choice([0.0, 1.2e-4, 6e-4])))
        for m in range(n_ops)
    ]
    profiles = []
    for _ in range(n_ops):
        eta = rng.uniform(0.5, 40.0, n_types)
        g = np.exp(eta * rng.uniform(-0.5, 2.0, n_types))
        pinned = rng.random(n_types) < 0.2  # eta 0, g 1
        profiles.append(ViolationProfile(eta=np.where(pinned, 0.0, eta),
                                         g=np.where(pinned, 1.0, g)))
    masses = np.asarray(counts, float) * rng.uniform(0.0, 30.0, (n_ops, n_types))
    masses[0] = 0.0  # no demand: the population-count fallback
    masses[-1, n_types // 2:] = 0.0  # zero tail mass: a = 0 there
    return pop, specs, masses, profiles


def _assert_equals_per_operator_solve(pop, specs, masses, profiles, bounds):
    got = optimize_menus(pop, specs, masses, profiles, bounds)
    utilities = ItemUtilities(pop, specs).rows(got.latencies, got.prices,
                                               got.violations)
    for m, (spec, profile) in enumerate(zip(specs, profiles)):
        menu = optimize_menu_with_profile(pop, spec, masses[m], profile, bounds)
        viols = profile.probs(menu.latencies)
        assert got.menus()[m] == menu
        for row, want in ((got.latencies[m], menu.latencies),
                          (got.prices[m], menu.prices),
                          (got.prices[m], recover_rewards(menu.latencies, pop,
                                                          spec.quality,
                                                          spec.refund, profile)),
                          (got.violations[m], viols),
                          (utilities[m],
                           [user_utility(lat, price, beta, pop.alpha_worst,
                                         spec.quality, viol, spec.refund)
                            for lat, price, beta, viol in zip(
                                menu.latencies, menu.prices, pop.betas, viols)])):
            assert row.tobytes() == np.array(want).tobytes()
        want = menu_profit(menu.prices, viols, pop, spec, masses[m])
        assert got.profits[m].tobytes() == np.float64(want).tobytes()
        # The equilibrium audit reads profits[m] as the re-solved objective.
        want = menu_objective(got.latencies[m], pop, spec, masses[m], profile)
        assert got.profits[m].tobytes() == np.float64(want).tobytes()
    return got


@pytest.mark.parametrize("array_min_entries", [0, contracts._ARRAY_MIN_ENTRIES])
def test_optimize_menus_equals_per_operator_solve_bit_for_bit(
    monkeypatch, array_min_entries
):
    # With the gate at 0 every draw takes the array path; at its own value
    # the draws fall on both sides of it.
    monkeypatch.setattr(contracts, "_ARRAY_MIN_ENTRIES", array_min_entries)
    rng = np.random.default_rng(61)
    sizes = set()
    for trial in range(40):
        n_ops, n_types = int(rng.integers(1, 5)), int(rng.integers(1, 60))
        sizes.add(n_ops * n_types >= contracts._ARRAY_MIN_ENTRIES)
        bounds = (LO, float(rng.choice([HI, 0.5, 0.05])))
        _assert_equals_per_operator_solve(
            *_random_market(rng, n_ops, n_types), bounds
        )
    assert sizes == ({True} if array_min_entries == 0 else {True, False})
    # One row whose per-type minimisers fall type by type pools into one block.
    n = 6
    pop = UserTypePopulation(betas=tuple(np.linspace(0.2, 0.1, n).tolist()),
                             counts=(5,) * n)
    spec = OperatorSpec(SPEC.uplink, SPEC.processing, SPEC.downlink,
                        5.0, 0.1, 2.0, 0.5)
    profile = ViolationProfile(eta=np.full(n, 4.0), g=np.geomspace(1e4, 2.0, n))
    got = _assert_equals_per_operator_solve(
        pop, [spec, SPEC], np.full((2, n), 5.0), [profile, profile], (LO, HI)
    )
    assert len(set(got.menus()[0].latencies)) == 1 and got.latencies[0, 0] > LO


@pytest.mark.parametrize("array_min_entries", [0, contracts._ARRAY_MIN_ENTRIES])
def test_menu_solves_reject_non_finite_demand_masses(monkeypatch, array_min_entries):
    # NaN and inf fail the check a negative mass fails, on the per-operator
    # path (2 x 3 entries, below the gate) and on the array path (gate 0).
    monkeypatch.setattr(contracts, "_ARRAY_MIN_ENTRIES", array_min_entries)
    pop = make_population(3)
    profile, _ = make_profile(pop)
    for bad in (math.nan, math.inf, -1.0):
        masses = [[10.0, bad, 12.0], [10.0, 12.0, 8.0]]
        with pytest.raises(DomainError, match="demand_masses must be >= 0"):
            optimize_menus(pop, [SPEC, SPEC], masses, [profile, profile])
        with pytest.raises(DomainError, match="demand_masses must be >= 0"):
            optimize_menu_with_profile(pop, SPEC, masses[0], profile)
        with pytest.raises(DomainError, match="demand_masses must be >= 0"):
            menu_profit([1.0] * 3, [0.1] * 3, pop, SPEC, masses[0])


def test_term_argmins_equal_the_scalar_closed_form():
    # Every branch of `_term_argmin`: flat, pinned, w <= 0, a = 0, the kink
    # past hi, and interior, kink and bound minimisers; then random terms.
    terms = [(0.0, 0.0, 3.0, 2.0), (0.0, 0.0, 0.0, 1.0), (0.0, 3.0, 1.0, 5e8),
             (0.7, 5.0, 0.0, 1.0), (0.4, -4.0, 3.0, 2.0), (0.0, 3.0, 2.0, 0.5),
             (0.0, 3.0, 2.0, 5.0), (1e-3, 0.5, 1e9, 2.0), (5.0, 1.0, 2.0, 3.0),
             (1e-4, 1.0, 2.0, 3.0), (1e-4, 1.0, 0.5, 1e3)]
    rng = np.random.default_rng(67)
    eta = rng.uniform(0.0, 40.0, 200)
    terms += zip(rng.uniform(0.0, 1e-2, 200).tolist(),
                 rng.uniform(-1.0, 1.0, 200).tolist(), eta.tolist(),
                 np.exp(eta * rng.uniform(-0.5, 2.0, 200)).tolist())
    # Terms whose a*x equals their value at lo exactly, so the bound at x is
    # skipped on the boundary: a = 0 with the bound underflowing at lo (x = hi,
    # both values 0), and x = lo with w*bound below half an ulp of a*lo.
    exact = [(0.0, 3.0, 1e6, 2.0), (1.0, 1e-30, 1.0, 0.5)]
    for (ta, tw, teta, tg), x in zip(exact, (HI, LO)):
        bound_lo = tg * math.exp(-teta * LO)
        assert ta * x == ta * LO + tw * min(1.0, bound_lo)
    terms += exact
    a, w, eta, g = (np.array(column) for column in zip(*terms))
    for hi in (HI, 0.05):
        got = _term_argmins(a, w, eta, g, _bounds(eta, g, LO), LO, hi)
        want = [_term_argmin(term, LO, hi) for term in terms]
        assert got.tobytes() == np.array(want).tobytes()


def _reference_isotonic_minimize(terms, argmins, lo, hi):
    """Pool-adjacent-violators as a plain stack loop: every block, one at lo
    included, stays on the stack until the end."""
    starts, values = [], []
    for n, value in enumerate(argmins):
        start = n
        while values and value < values[-1]:
            values.pop()
            start = starts.pop()
            value = _block_argmin(terms[start:n + 1], lo, hi)
        starts.append(start)
        values.append(value)
    out = []
    for start, stop, value in zip(starts, starts[1:] + [len(argmins)], values):
        out += [value] * (stop - start)
    return out


def _pav_terms(rng, n, zero_share):
    """A menu solve's n terms, each type without demand (w = 0, minimiser lo)
    with probability zero_share; or, for zero_share None, n terms whose own
    minimisers all lie above lo."""
    if zero_share is None:
        terms = []
        while len(terms) < n:
            term = golden_term(rng, HI, 1.0)
            if _term_argmin(term, LO, HI) > LO:
                terms.append(term)
        return terms
    pop = UserTypePopulation(
        betas=tuple(np.sort(rng.uniform(1e-5, 5e-4, n))[::-1].tolist()),
        counts=(1,) * n,
    )
    eta = rng.uniform(0.5, 40.0, n)
    profile = ViolationProfile(eta=eta, g=np.exp(eta * rng.uniform(-0.5, 2.0, n)))
    masses = rng.uniform(0.0, 30.0, n) * (rng.random(n) >= zero_share)
    return _latency_terms(pop, SPEC, masses.tolist(), profile)


def test_isotonic_minimize_equals_the_plain_stack_loop(monkeypatch):
    # The solve drops blocks at lo from its stack; the plain loop keeps them.
    # Seeded sequences of 1 to 300 types: long runs at lo with bumps that pool
    # down to lo or stay above it, mixed demand, all at lo, and none at lo
    # (up to 40 types: their blocks pool across the whole row).
    # Both the per-operator form (a list of tuples) and the array form (rows
    # of one array, listed per block) must return the plain loop's floats.
    pooled = []

    def spy(block, lo, hi):
        pooled.append(_block_argmin(block, lo, hi))
        return pooled[-1]

    monkeypatch.setattr(contracts, "_block_argmin", spy)
    rng = np.random.default_rng(83)
    at_lo = {"all": 0, "none": 0}
    for trial in range(40):
        n = (1, 2, 300)[trial] if trial < 3 else int(rng.integers(1, 301))
        zero_share = (0.95, 0.5, 0.0, 1.0, None)[trial % 5]
        if zero_share is None:
            n = min(n, 40)
        terms = _pav_terms(rng, n, zero_share)
        argmins = [_term_argmin(term, LO, HI) for term in terms]
        at_lo["all"] += all(x == LO for x in argmins)
        at_lo["none"] += all(x > LO for x in argmins)
        want = np.array(_reference_isotonic_minimize(terms, argmins, LO, HI))
        got = _isotonic_minimize(terms, argmins, LO, HI)
        assert np.array(got).tobytes() == want.tobytes()
        got = _isotonic_minimize(_ListedRows(np.array(terms)), argmins, LO, HI)
        assert np.array(got).tobytes() == want.tobytes()
    assert at_lo["all"] > 0 and at_lo["none"] > 0
    # Pooled blocks both landed on lo and stayed above it.
    assert LO in pooled and max(pooled) > LO


def test_latency_bounds_must_be_ordered():
    pop = make_population(2, counts=(10, 12))
    profile, _ = make_profile(pop)
    for bounds in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(DomainError):
            optimize_menu_with_profile(pop, SPEC, [240.0, 288.0], profile, bounds)


def test_alpha_shift_never_changes_item_comparisons():
    pop = make_population(2, counts=(10, 12))
    profile, _ = make_profile(pop)
    prices = recover_rewards([0.2, 0.7], pop, SPEC.quality, SPEC.refund, profile)
    beta = pop.betas[1]
    v0, v1 = profile.prob(0, 0.2), profile.prob(1, 0.7)
    for alpha in (1.0, 3.7, 0.2):
        diff = (
            user_utility(0.2, prices[0], beta, alpha, SPEC.quality, v0, SPEC.refund)
            - user_utility(0.7, prices[1], beta, alpha, SPEC.quality, v1, SPEC.refund)
        )
        base = (
            user_utility(0.2, prices[0], beta, 1.0, SPEC.quality, v0, SPEC.refund)
            - user_utility(0.7, prices[1], beta, 1.0, SPEC.quality, v1, SPEC.refund)
        )
        assert diff == pytest.approx(base, abs=1e-12)


def test_menu_serialization_round_trip_is_exact():
    pop = make_population(3)
    _, congestion = make_profile(pop)
    menu = optimize_menu(pop, SPEC, TASK, [240.0, 288.0, 192.0], congestion)
    rows = json.loads(json.dumps(menu_to_obj(menu)))
    assert [row["type_index"] for row in rows] == [1, 2, 3]
    assert tuple(row["latency_s"] for row in rows) == menu.latencies
    assert tuple(row["price_usd"] for row in rows) == menu.prices


def make_market(pop, n_ops=1):
    specs = tuple(SPEC for _ in range(n_ops))
    congestion = np.tile(np.cumsum(np.asarray(pop.counts, float) * 24.0), (n_ops, 1))
    menus = tuple(
        optimize_menu(pop, s, TASK, np.asarray(pop.counts, float) * 24.0, congestion[m])
        for m, s in enumerate(specs)
    )
    profiles = [
        violation_profile(s, TASK, congestion[m], 0.9) for m, s in enumerate(specs)
    ]
    return specs, menus, profiles


def _violations(menus, profiles):
    # Each operator's bounds at its own items, as `social_welfare` reads them.
    return [profile.probs(menu.latencies) for menu, profile in zip(menus, profiles)]


def test_social_welfare_all_opt_out_is_zero():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.array([[1.0, 0.0], [1.0, 0.0]])
    viols = _violations(menus, profiles)
    assert social_welfare(menus, matching, pop, TASK, specs, viols) == 0.0


def test_social_welfare_single_operator_definition():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.array([[0.0, 1.0], [0.0, 1.0]])
    got = social_welfare(menus, matching, pop, TASK, specs,
                         _violations(menus, profiles))
    profile = profiles[0]
    loads = np.asarray(pop.counts, float) * 24.0
    viols = [profile.prob(n, menus[0].latencies[n]) for n in range(2)]
    op = operator_utility(menus[0], loads, specs[0], viols)
    users = sum(
        loads[n] * user_utility(menus[0].latencies[n], menus[0].prices[n],
                                pop.betas[n], pop.alpha_worst,
                                specs[0].quality, viols[n], specs[0].refund)
        for n in range(2)
    )
    assert got == pytest.approx(op + users, rel=1e-12)


def test_social_welfare_price_transfers_cancel():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.array([[0.0, 1.0], [0.4, 0.6]])
    # Bumping prices leaves the latencies, so the violations, as they are.
    viols = _violations(menus, profiles)
    base = social_welfare(menus, matching, pop, TASK, specs, viols)
    bumped = tuple(
        ContractMenu(m.latencies, tuple(p + 0.05 for p in m.prices))
        for m in menus
    )
    shifted = social_welfare(bumped, matching, pop, TASK, specs, viols)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_social_welfare_dimension_mismatch():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.ones((2, 2)) / 2.0
    viols = _violations(menus, profiles)
    with pytest.raises(DomainError):
        social_welfare(menus, matching, pop, TASK, specs, [viols[0][:1]])
    with pytest.raises(DomainError):
        social_welfare(menus, matching, pop, TASK, specs, [])
    with pytest.raises(DomainError):
        social_welfare(menus, matching, pop, TASK, specs * 2, viols)
    with pytest.raises(DomainError):
        social_welfare(menus, np.ones((2, 3)) / 3.0, pop, TASK, specs, viols)
