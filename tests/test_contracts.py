"""Contract menus: utilities, reward recovery, feasibility checks, the menu
optimizer against brute-force oracles, and welfare accounting."""

import math

import numpy as np
import pytest

from edgemarket import (
    ContractItem,
    ContractMenu,
    DomainError,
    OperatorSpec,
    StageParams,
    TaskSpec,
    UserTypePopulation,
    ViolationProfile,
    check_feasibility,
    check_ic_ir,
    menu_objective,
    operator_utility,
    optimize_menu,
    recover_rewards,
    social_welfare,
    user_utility,
    violation_profile,
)
from edgemarket.contracts import (
    StageResources,
    _block_argmin,
    _latency_terms,
    _term_argmin,
    _term_value,
    menu_from_obj,
    menu_to_obj,
    optimize_menu_with_profile,
    stage_params_for,
)
from edgemarket.queueing import ViolationModel, violation_prob

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
    rng = np.random.default_rng(59)
    for trial in range(60):
        spec = OperatorSpec(
            uplink=StageResources(int(rng.integers(1, 60)),
                                  float(rng.uniform(1.0, 20.0))),
            processing=StageResources(int(rng.integers(1, 40)),
                                      float(rng.uniform(1e13, 6e13))),
            downlink=StageResources(int(rng.integers(1, 200)),
                                    float(rng.uniform(1.0, 10.0))),
            quality=1.5, exec_cost_per_task=8e-6, violation_cost=1.2e-3, refund=1.2e-4,
        )
        stages = stage_params_for(spec, TASK, 0.0)
        capacity = min(s.service_capacity for s in stages)
        loads = np.sort(rng.uniform(0.0, 1.2 * capacity, 12))
        loads[:2] = 0.0                  # types with no traffic yet
        loads[5] = loads[4]              # a type adding no traffic repeats a load
        loads[-1] = 1.5 * capacity       # pinned: some stage unstable
        up = stages[0]
        loads[-2] = (up.servers - 1) * up.unit_rate  # r == mu at the uplink
        zeta = float(rng.uniform(0.1, 0.95))
        profile = violation_profile(spec, TASK, loads, zeta)
        assert len(profile) == len(loads)
        for n, lam in enumerate(loads.tolist()):
            at_load = stage_params_for(spec, TASK, lam)
            if all(s.is_stable for s in at_load):
                model = ViolationModel.from_stages(at_load, zeta)
                assert profile.eta[n] == model.eta and profile.g[n] == model.g_product
                for t in (1e-3, 0.05, 0.4, 3.0):
                    assert profile.prob(n, t) == violation_prob(model, t)
            else:
                assert profile.eta[n] == 0.0 and profile.g[n] == 1.0
                assert profile.prob(n, 0.05) == 1.0


def test_violation_profile_rejects_bad_loads_and_lengths():
    with pytest.raises(DomainError):
        violation_profile(SPEC, TASK, [10.0, -1.0], 0.9)
    pop = make_population(3)
    profile, _ = make_profile(make_population(2, counts=(10, 12)))
    with pytest.raises(DomainError):
        recover_rewards([0.2, 0.3, 0.4], pop, SPEC.quality, SPEC.refund, profile)
    with pytest.raises(DomainError):
        menu_objective([0.2, 0.3, 0.4], pop, SPEC, [1.0, 1.0, 1.0], profile)
    # One ulp below capacity, lam / c rounds up to mu, so eta would be 0: the
    # scalar model and the profile both refuse the load.
    c, mu = 286, 16.24996048184168
    lam = math.nextafter(c * mu, 0.0)
    with pytest.raises(DomainError):
        ViolationModel.from_stages((StageParams(c, mu, lam),) * 3, 0.9)
    with pytest.raises(DomainError):
        ViolationProfile.at_loads((c,) * 3, (mu,) * 3, [lam], 0.9)


def test_population_rejects_increasing_betas():
    with pytest.raises(DomainError):
        UserTypePopulation(betas=(1e-4, 2e-4), counts=(5, 5))
    with pytest.raises(DomainError):
        UserTypePopulation(betas=(1e-4, -1e-5), counts=(5, 5))


def test_user_utility_cancellation_limit():
    beta = 8e-4
    item = ContractItem(latency=1e-6, price=1.0 * 1.5 + 1.2e-4)
    u = user_utility(item, beta, 1.0, 1.5, violation=1.0, refund=1.2e-4)
    assert u == pytest.approx(-beta * 1e-6, abs=1e-15)


def test_user_utility_direct_arithmetic():
    item = ContractItem(latency=100.0, price=0.0)
    u = user_utility(item, 8e-4, 1.0, 1.5, violation=0.0, refund=1.2e-4)
    assert u == pytest.approx(1.42, abs=1e-12)


def test_recovered_single_item_gives_worst_type_zero():
    pop = make_population(1, counts=(10,))
    profile, _ = make_profile(pop)
    prices = recover_rewards([0.4], pop, SPEC.quality, SPEC.refund, profile)
    item = ContractItem(0.4, prices[0])
    u = user_utility(item, pop.betas[0], pop.alpha_worst, SPEC.quality,
                     profile.prob(0, 0.4), SPEC.refund)
    assert abs(u) <= 1e-12


def test_operator_utility_examples():
    menu = ContractMenu((ContractItem(0.5, 1e-3),))
    pop1 = UserTypePopulation(betas=(8e-4,), counts=(1,))
    assert operator_utility(menu, [0.0], SPEC, [0.1]) == 0.0
    got = operator_utility(menu, [24.0], SPEC, [0.1])
    assert got == pytest.approx(24.0 * (1e-3 - 1.2e-4 - 8e-6), rel=1e-12)
    assert operator_utility(menu, [48.0], SPEC, [0.1]) == pytest.approx(2 * got, rel=1e-12)
    with pytest.raises(DomainError):
        operator_utility(menu, [1.0, 2.0], SPEC, [0.1])
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
        menu = ContractMenu(tuple(ContractItem(l, p) for l, p in zip(lats, prices)))
        rep = check_feasibility(menu, pop, SPEC.quality, SPEC.refund, profile)
        assert abs(rep.ir_worst_slack) <= 1e-12
        assert abs(rep.ic_down_slack) <= 1e-12
        assert rep.passed


def test_check_feasibility_flags_constructed_violations():
    pop = make_population(2, counts=(10, 12))
    profile, _ = make_profile(pop)
    prices = recover_rewards([0.2, 0.6], pop, SPEC.quality, SPEC.refund, profile)
    good = ContractMenu((ContractItem(0.2, prices[0]), ContractItem(0.6, prices[1])))
    assert check_feasibility(good, pop, SPEC.quality, SPEC.refund, profile).passed

    swapped = ContractMenu((ContractItem(0.6, prices[0]), ContractItem(0.2, prices[1])))
    rep = check_feasibility(swapped, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.monotone_slack < 0 and not rep.passed

    greedy = ContractMenu((ContractItem(0.2, prices[0] + 1.0), good.items[1]))
    rep = check_feasibility(greedy, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.ir_worst_slack < 0 and not rep.passed


def test_check_ic_ir_full_scan():
    pop = make_population(3)
    profile, congestion = make_profile(pop)
    menu = optimize_menu(pop, SPEC, TASK, [240.0, 288.0, 192.0], congestion)
    rep = check_ic_ir(menu, pop, SPEC.quality, SPEC.refund, profile)
    assert rep.passed and rep.ic_slack >= -1e-9 and rep.ir_slack >= -1e-9

    single = make_population(1, counts=(10,))
    sprofile, _ = make_profile(single)
    prices = recover_rewards([0.4], single, SPEC.quality, SPEC.refund, sprofile)
    rep1 = check_ic_ir(ContractMenu((ContractItem(0.4, prices[0]),)),
                       single, SPEC.quality, SPEC.refund, sprofile)
    assert rep1.ic_slack == 0.0 and abs(rep1.ir_slack) <= 1e-12

    # Item 3 is strictly cheaper at nearly the same latency, so the worst
    # defection is type 1 grabbing it; the pair is 0-based (type, item).
    bad = ContractMenu((ContractItem(0.3, 1.2), ContractItem(0.3, 1.1),
                        ContractItem(0.35, 1.0)))
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
    profile, congestion = make_profile(pop)
    masses = [240.0, 288.0]
    menu = optimize_menu(pop, SPEC, TASK, masses, congestion)
    got = menu_objective(menu.latencies, pop, SPEC, masses, profile)
    grid = np.linspace(1e-3, 10.0, 25)
    best = -math.inf
    for i, l1 in enumerate(grid):
        for l2 in grid[i:]:
            best = max(best, menu_objective([l1, l2], pop, SPEC, masses, profile))
    assert got >= best - 1e-3 * abs(best)


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
        got = sum(_term_value(term, x) for term in block)
        scale = sum(a * HI + abs(w) for a, w, _, _ in block)
        assert got <= total.min() + 1e-12 * scale
        # A single term must agree with the pooled solve of itself.
        if len(block) == 1:
            pooled = _block_argmin(block, LO, HI)
            assert _term_value(block[0], pooled) <= got + 1e-12 * scale


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
    items = tuple(ContractItem(l, p) for l, p in zip((0.2, 0.7), prices))
    beta = pop.betas[1]
    v0, v1 = profile.prob(0, 0.2), profile.prob(1, 0.7)
    for alpha in (1.0, 3.7, 0.2):
        diff = (
            user_utility(items[0], beta, alpha, SPEC.quality, v0, SPEC.refund)
            - user_utility(items[1], beta, alpha, SPEC.quality, v1, SPEC.refund)
        )
        base = (
            user_utility(items[0], beta, 1.0, SPEC.quality, v0, SPEC.refund)
            - user_utility(items[1], beta, 1.0, SPEC.quality, v1, SPEC.refund)
        )
        assert diff == pytest.approx(base, abs=1e-12)


def test_menu_serialization_round_trip_is_exact():
    pop = make_population(3)
    _, congestion = make_profile(pop)
    menu = optimize_menu(pop, SPEC, TASK, [240.0, 288.0, 192.0], congestion)
    again = menu_from_obj(menu_to_obj(menu))
    assert again.latencies == menu.latencies
    assert again.prices == menu.prices


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


def test_social_welfare_all_opt_out_is_zero():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert social_welfare(menus, matching, pop, TASK, specs, profiles) == 0.0


def test_social_welfare_single_operator_definition():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.array([[0.0, 1.0], [0.0, 1.0]])
    got = social_welfare(menus, matching, pop, TASK, specs, profiles)
    profile = profiles[0]
    loads = np.asarray(pop.counts, float) * 24.0
    viols = [profile.prob(n, menus[0].items[n].latency) for n in range(2)]
    op = operator_utility(menus[0], loads, specs[0], viols)
    users = sum(
        loads[n] * user_utility(menus[0].items[n], pop.betas[n], pop.alpha_worst,
                                specs[0].quality, viols[n], specs[0].refund)
        for n in range(2)
    )
    assert got == pytest.approx(op + users, rel=1e-12)


def test_social_welfare_price_transfers_cancel():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.array([[0.0, 1.0], [0.4, 0.6]])
    base = social_welfare(menus, matching, pop, TASK, specs, profiles)
    bumped = tuple(
        ContractMenu(tuple(ContractItem(i.latency, i.price + 0.05) for i in m.items))
        for m in menus
    )
    shifted = social_welfare(bumped, matching, pop, TASK, specs, profiles)
    assert shifted == pytest.approx(base, abs=1e-9)


def test_social_welfare_dimension_mismatch():
    pop = make_population(2, counts=(10, 12))
    specs, menus, profiles = make_market(pop)
    matching = np.ones((2, 2)) / 2.0
    short = [ViolationProfile(eta=profiles[0].eta[:1], g=profiles[0].g[:1])]
    with pytest.raises(DomainError):
        social_welfare(menus, matching, pop, TASK, specs, short)
    with pytest.raises(DomainError):
        social_welfare(menus, matching, pop, TASK, specs, [])
    with pytest.raises(DomainError):
        social_welfare(menus, np.ones((2, 3)) / 3.0, pop, TASK, specs, profiles)
