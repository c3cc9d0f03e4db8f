"""Queueing layer: Erlang-C, sojourn tails, the exponential violation bound,
and the Monte Carlo sampler the bound is validated against."""

import math

import numpy as np
import pytest

from edgemarket import (
    DomainError,
    StageParams,
    ViolationModel,
    chernoff_eta,
    chernoff_g,
    erlang_c,
    sample_sojourn,
    stage_rate,
    stage_tail,
    violation_prob,
)
from edgemarket.queueing import StageTail


def erlang_c_direct(c: int, a: float) -> float:
    """Independent oracle: the textbook finite-series Erlang-C expression."""
    rho = a / c
    num = a**c / math.factorial(c) / (1.0 - rho)
    den = sum(a**k / math.factorial(k) for k in range(c)) + num
    return num / den


def test_erlang_c_mm1_equals_utilization():
    assert erlang_c(1, 0.5, 1.0) == pytest.approx(0.5, abs=1e-12)


def test_erlang_c_two_server_value():
    assert erlang_c(2, 1.0, 1.0) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_erlang_c_matches_direct_series():
    rng = np.random.default_rng(3)
    for _ in range(200):
        c = int(rng.integers(1, 51))
        rho = rng.uniform(0.05, 0.98)
        mu = rng.uniform(0.2, 40.0)
        lam = rho * c * mu
        got = erlang_c(c, lam, mu)
        want = erlang_c_direct(c, lam / mu)
        assert got == pytest.approx(want, rel=1e-12)


def erlang_c_full_loop(c: int, lam: float, mu: float) -> float:
    """The Erlang-B recurrence run to k = c with no early exit."""
    offered = lam / mu
    blocking = 1.0
    for k in range(1, c + 1):
        blocking = offered * blocking / (k + offered * blocking)
    rho = offered / c
    return blocking / (1.0 - rho * (1.0 - blocking))


def test_erlang_c_early_exit_is_exact():
    # Leaving the loop once blocking underflows to 0 must not move a bit.
    servers = (1, 2, 3, 7, 20, 55, 150, 400, 1000, 2500, 6000, 12000, 20000)
    for c in servers:
        for rho in np.linspace(0.05, 0.98, 12):
            for mu in (0.37, 20.0):
                lam = float(rho) * c * mu
                assert erlang_c(c, lam, mu) == erlang_c_full_loop(c, lam, mu)


def test_erlang_c_near_stability_boundary():
    assert erlang_c(3, 3.0 * (1.0 - 1e-9), 1.0) > 1.0 - 1e-6


def test_erlang_c_rejects_bad_inputs():
    with pytest.raises(DomainError, match="arrival_rate"):
        erlang_c(2, 2.0, 1.0)
    with pytest.raises(DomainError, match="servers"):
        erlang_c(0, 0.5, 1.0)
    with pytest.raises(DomainError, match="unit_rate"):
        erlang_c(2, 0.5, 0.0)


def test_stage_rate_default_task_arithmetic():
    assert stage_rate(0.18, 0.18) == pytest.approx(1.0)
    assert stage_rate(3.6e11, 3.6e13) == pytest.approx(100.0)
    assert stage_rate(0.27, 5.4) == pytest.approx(20.0)


def test_stage_rate_rejects_nonpositive():
    with pytest.raises(DomainError):
        stage_rate(0.0, 5.4)
    with pytest.raises(DomainError):
        stage_rate(0.27, -1.0)


def test_stage_params_stability_flag():
    assert StageParams(2, 1.0, 1.9).is_stable
    assert not StageParams(2, 1.0, 2.0).is_stable
    with pytest.raises(DomainError):
        StageParams(0, 1.0, 0.5)


def test_stage_tail_is_one_at_zero():
    rng = np.random.default_rng(11)
    for _ in range(20):
        c = int(rng.integers(1, 30))
        mu = rng.uniform(0.5, 20.0)
        lam = rng.uniform(0.0, 0.95) * c * mu
        assert stage_tail(StageParams(c, mu, lam), 0.0) == 1.0


def test_stage_tail_mm1_collapses_to_exponential():
    # With one server the two-exponential mixture reduces to e^{-(mu-lam) t}.
    params = StageParams(1, 1.0, 0.5)
    assert stage_tail(params, 1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert stage_tail(params, 3.0) == pytest.approx(math.exp(-1.5), abs=1e-12)


def test_stage_tail_vanishes_at_large_t():
    assert stage_tail(StageParams(2, 1.0, 1.0), 80.0) < 1e-12


def test_stage_tail_monotone_in_t():
    params = StageParams(4, 2.0, 6.0)
    ts = np.linspace(0.0, 10.0, 200)
    vals = [stage_tail(params, t) for t in ts]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_stage_tail_degenerate_excess_equals_service_rate():
    # c*mu - lam == mu makes both exponents coincide; the analytic limit is
    # (1 + P*mu*t) e^{-mu t}, approached via the documented nudge.
    c, mu = 2, 1.0
    params = StageParams(c, mu, c * mu - mu)
    wait = erlang_c(c, params.arrival_rate, mu)
    for t in (0.3, 1.0, 4.0):
        want = (1.0 + wait * mu * t) * math.exp(-mu * t)
        assert stage_tail(params, t) == pytest.approx(want, rel=1e-5)


def simpson(fn, lo, hi, n):
    xs = np.linspace(lo, hi, 2 * n + 1)
    ys = np.array([fn(x) for x in xs])
    h = (hi - lo) / (2 * n)
    return h / 3.0 * (ys[0] + ys[-1] + 4 * ys[1:-1:2].sum() + 2 * ys[2:-1:2].sum())


def test_stage_tail_integrates_to_mean_sojourn():
    for c, mu, lam in ((1, 1.0, 0.5), (3, 2.0, 4.5), (8, 5.0, 30.0)):
        params = StageParams(c, mu, lam)
        wait = erlang_c(c, lam, mu)
        r = c * mu - lam
        want = 1.0 / mu + wait / r
        got = simpson(lambda t: stage_tail(params, t), 0.0, 60.0 / min(mu, r), 4000)
        assert got == pytest.approx(want, rel=1e-6)


def _stage(c, mu, lam):
    return StageParams(c, mu, lam)


def test_chernoff_eta_example_and_min_selection():
    same = (_stage(1, 2.0, 1.0),) * 3
    assert chernoff_eta(same, 0.9) == pytest.approx(0.9, abs=1e-12)
    mixed = (_stage(2, 5.0, 4.0), _stage(3, 1.0, 2.4), _stage(10, 2.0, 10.0))
    # slacks: 5-2=3, 1-0.8=0.2, 2-1=1 -> processing stage binds
    assert chernoff_eta(mixed, 0.5) == pytest.approx(0.5 * 0.2, rel=1e-12)
    assert chernoff_eta(same, 1e-9) == pytest.approx(1e-9, rel=1e-9)


def test_chernoff_eta_rejects_unstable_stage():
    with pytest.raises(DomainError):
        chernoff_eta((_stage(1, 2.0, 1.0), _stage(1, 1.0, 1.0), _stage(1, 2.0, 1.0)), 0.9)


def test_chernoff_g_examples():
    some = StageTail(wait_prob=0.3, unit_rate=2.0, excess_capacity=1.7)
    assert chernoff_g(some, 0.0) == pytest.approx(1.0, abs=1e-15)
    no_wait = StageTail(wait_prob=0.0, unit_rate=2.0, excess_capacity=5.0)
    assert chernoff_g(no_wait, 1.0) == pytest.approx(2.0, abs=1e-12)
    all_wait = StageTail(wait_prob=1.0, unit_rate=2.0, excess_capacity=3.0)
    assert chernoff_g(all_wait, 1.0) == pytest.approx(3.0, abs=1e-12)


def test_chernoff_g_at_least_one_and_domain():
    rng = np.random.default_rng(5)
    for _ in range(50):
        tail = StageTail(
            wait_prob=rng.uniform(0.0, 1.0),
            unit_rate=rng.uniform(0.5, 10.0),
            excess_capacity=rng.uniform(0.5, 10.0),
        )
        eta = 0.9 * min(tail.unit_rate, tail.excess_capacity) * rng.uniform(0.0, 1.0)
        assert chernoff_g(tail, eta) >= 1.0 - 1e-12
    with pytest.raises(DomainError):
        chernoff_g(StageTail(0.5, 2.0, 1.0), 1.5)


def _model(lams=(1.0, 0.8, 1.2), cs=(2, 2, 3), mus=(1.0, 0.9, 0.7), zeta=0.9):
    stages = tuple(_stage(c, mu, lam) for c, mu, lam in zip(cs, mus, lams))
    return ViolationModel.from_stages(stages, zeta)


def test_violation_prob_clamps_and_decays():
    model = _model()
    assert violation_prob(model, 0.0) == 1.0
    assert violation_prob(model, 1e9) == pytest.approx(0.0, abs=1e-300)
    ts = np.linspace(0.0, 40.0, 300)
    vals = [violation_prob(model, t) for t in ts]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_violation_prob_increases_with_load():
    base = _model(lams=(1.0, 0.8, 1.2))
    heavier = _model(lams=(1.3, 1.0, 1.5))
    for t in (5.0, 10.0, 20.0):
        lo, hi = violation_prob(base, t), violation_prob(heavier, t)
        if lo < 1.0:
            assert hi > lo


def test_bound_dominates_small_monte_carlo():
    # Small-scale version of the dominance acceptance check.
    rng = np.random.default_rng(17)
    n = 100_000
    for trial in range(3):
        stages = tuple(
            _stage(c, mu, rho * c * mu)
            for c, mu, rho in zip(
                rng.integers(1, 8, 3), rng.uniform(0.5, 4.0, 3), rng.uniform(0.2, 0.9, 3)
            )
        )
        model = ViolationModel.from_stages(stages, 0.8)
        total = sum(
            sample_sojourn(s, rng_seed=100 * trial + i, n=n) for i, s in enumerate(stages)
        )
        for t in np.linspace(0.2, 4.0, 8) * model.mean_total():
            emp = float(np.mean(total > t))
            sigma = math.sqrt(max(emp * (1 - emp), 1e-12) / n)
            assert violation_prob(model, t) >= emp - 3 * sigma


def test_sample_sojourn_mm1_mean():
    draws = sample_sojourn(StageParams(1, 1.0, 0.5), rng_seed=7, n=1_000_000)
    assert abs(float(draws.mean()) - 2.0) < 0.01


def test_sample_sojourn_deterministic_per_seed():
    params = StageParams(3, 1.5, 3.0)
    a = sample_sojourn(params, rng_seed=42, n=1000)
    b = sample_sojourn(params, rng_seed=42, n=1000)
    assert np.array_equal(a, b)
    c = sample_sojourn(params, rng_seed=43, n=1000)
    assert not np.array_equal(a, c)


def test_sample_sojourn_rejects_bad_counts_and_instability():
    with pytest.raises(DomainError):
        sample_sojourn(StageParams(1, 1.0, 0.5), rng_seed=1, n=0)
    with pytest.raises(DomainError):
        sample_sojourn(StageParams(1, 1.0, 1.5), rng_seed=1, n=10)


def test_sample_sojourn_survival_matches_stage_tail():
    params = StageParams(4, 2.0, 6.0)
    draws = sample_sojourn(params, rng_seed=19, n=400_000)
    for t in (0.2, 0.5, 1.0, 2.0):
        emp = float(np.mean(draws > t))
        want = stage_tail(params, t)
        sigma = math.sqrt(max(want * (1 - want), 1e-12) / draws.size)
        assert abs(emp - want) < 5 * sigma
