"""Queueing layer: Erlang-C, sojourn tails, the exponential violation bound,
and the Monte Carlo sampler the bound is validated against."""

import decimal
import math

import numpy as np
import pytest

from edgemarket import (
    DomainError,
    StageParams,
    ViolationModel,
    bound_dominance_margin,
    chernoff_eta,
    chernoff_g,
    erlang_c,
    sample_sojourn,
    stage_rate,
    violation_prob,
)
from edgemarket.queueing import (
    _ARRAY_MIN_LANES,
    _BLOCK,
    _EPS,
    StageTable,
    StageTail,
    _bd0,
    _bd0_lanes,
    _erlang_c_lanes,
    _erlang_c_table,
    _stirlerr,
    left_sum,
    libm_exp,
    libm_log,
)


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


def erlang_c_decimal(c: int, offered: float) -> decimal.Decimal:
    """Oracle: the Erlang-B recurrence run to k = c in 50-digit arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        a = decimal.Decimal(offered)
        blocking = decimal.Decimal(1)
        for k in range(1, c + 1):
            t = a * blocking
            blocking = t / (k + t)
        rho = a / c
        return blocking / (1 - rho * (1 - blocking))


def test_erlang_c_matches_high_precision_oracle():
    # The oracle runs on the offered load lam / mu as erlang_c forms it, so
    # the comparison measures the algorithm, not the rounding of lam / mu.
    servers = (1, 2, 3, 7, 20, 55, 150, 400, 1000, 2500, 6000, 12000, 20000)
    worst_abs = worst_rel = decimal.Decimal(0)
    for c in servers:
        for rho in np.linspace(0.05, 0.999, 14):
            for mu in (0.37, 20.0):
                lam = float(rho) * c * mu
                want = erlang_c_decimal(c, lam / mu)
                err = abs(decimal.Decimal(erlang_c(c, lam, mu)) - want)
                worst_abs = max(worst_abs, err)
                if want >= decimal.Decimal("1e-280"):
                    worst_rel = max(worst_rel, err / want)
    assert worst_abs <= decimal.Decimal("1e-15")
    assert worst_rel <= decimal.Decimal("1e-12")


def test_array_erlang_c_equals_scalar_bit_for_bit():
    # One single-stage operator per (c, mu), its loads on a rho grid up to
    # 0.999 plus rho = 1/2 (bd0's branch point): enough lanes for the array
    # kernel, which must return exactly what scalar erlang_c returns. The grid
    # holds underflowed lanes (result 0) and tails of over a thousand terms.
    servers = (1, 2, 3, 7, 15, 16, 20, 55, 150, 400, 1000, 2500, 6000, 12000,
               20000)
    rhos = np.append(np.linspace(0.001, 0.999, 40), 0.5).tolist()
    rows = [(c, mu) for c in servers for mu in (0.37, 20.0)]
    loads = np.array([[rho * c * mu for rho in rhos] for c, mu in rows])
    assert loads.size >= _ARRAY_MIN_LANES
    table = _erlang_c_table(
        StageTable([[c] for c, _ in rows], [[mu] for _, mu in rows]), loads
    )
    zeros = 0
    for (c, mu), waits, row in zip(rows, table[:, 0].tolist(), loads.tolist()):
        for got, lam in zip(waits, row):
            assert got == erlang_c(c, lam, mu), (c, mu, lam)
            zeros += got == 0.0
    assert zeros > 0


def _series_terms(c: int, a: float) -> tuple[int, int]:
    """How many terms erlang_c's scalar loops sum for c servers at offered
    load a: the tail ratio's, and bd0's series (0 where it is not used)."""
    bd0_terms = 0
    if a > 0.5 * c:
        v = (c - a) / (c + a)
        s, ej, v = (c - a) * v, 2.0 * c * v, v * v
        while True:
            bd0_terms += 1
            ej *= v
            s1 = s + ej / (2 * bd0_terms + 1)
            if s1 == s:
                break
            s = s1
    pmf = math.exp(-_stirlerr(c) - _bd0(c, a)) / math.sqrt(2.0 * math.pi * c)
    k, tail_terms = c + 1, 1
    tail = term = a / k
    while pmf * term >= _EPS * (1.0 - pmf * tail):
        k, tail_terms = k + 1, tail_terms + 1
        term *= a / k
        tail += term
    return tail_terms, bd0_terms


def test_array_erlang_c_stops_lanes_at_the_block_edges():
    # The tail ratio sums its first term before its blocks; the first block
    # holds 16 more terms and the next 24, so lanes of 16 and 40 terms stop
    # on a block's last row and lanes of 17 and 41 on the first row of the
    # next. bd0's series fills exactly one block at 16 terms. Lanes with
    # those counts, their neighbours and 32 to 34 terms, all in one call,
    # must equal scalar erlang_c.
    assert _BLOCK == 16
    tail_wanted = {1, 2, 15, 16, 17, 18, 32, 33, 34, 39, 40, 41, 42}
    bd0_wanted = {15, 16}
    lanes = {}
    for c in (4, 8, 16):
        for i in range(1, 400):
            tail_terms, bd0_terms = _series_terms(c, c * i / 400)
            lanes.setdefault(("tail", tail_terms), (c, c * i / 400))
            lanes.setdefault(("bd0", bd0_terms), (c, c * i / 400))
    picked = [lanes[("tail", n)] for n in sorted(tail_wanted)]
    picked += [lanes[("bd0", n)] for n in sorted(bd0_wanted)]
    c = np.array([float(c) for c, _ in picked])
    offered = np.array([a for _, a in picked])
    got = _erlang_c_lanes(c, offered, np.array([_stirlerr(int(x)) for x in c]),
                          np.sqrt(2.0 * math.pi * c))
    want = [erlang_c(int(x), a, 1.0) for x, a in zip(c, offered)]
    assert got.tobytes() == np.array(want).tobytes()
    series = offered > 0.5 * c
    assert _bd0_lanes(c[series], offered[series]).tobytes() == np.array(
        [_bd0(x, a) for x, a in zip(c[series], offered[series])]).tobytes()


# Arguments on which a contiguous np.exp / np.log differs from math.exp /
# math.log in the last bit under numpy 2.4.6's AVX-512 dispatch on an Intel
# Xeon: a helper that reached numpy's SIMD loops would fail on them there.
_SIMD_EXP_ARGS = (
    "-0x1.622aa756956a4p+9", "-0x1.61c20f2953a04p+9", "-0x1.c49d2e4776702p+8",
    "-0x1.6524c30643ae4p+8", "-0x1.3b2835f4763e1p+6", "-0x1.bfa3bf3c2eb98p+3",
    "-0x1.9c687d9364405p-1", "-0x1.b837939246b24p-2",
)
_SIMD_LOG_ARGS = (
    "0x1.f0b3fb7eb7edep-1", "0x1.fe4aec127937ap-1", "0x1.0007233a2e8d7p+0",
    "0x1.0035fa63a27e7p+0", "0x1.04c400c7525c1p+0", "0x1.09d22a7124e5fp+0",
    "0x1.528555f5de01bp+12", "0x1.8cf2b50b01afbp+19",
)


def _assert_math_bits(helper, reference, x) -> None:
    got = helper(x)
    assert got.shape == np.shape(x) and got.dtype == np.float64
    want = [reference(v).hex() for v in np.ravel(x).tolist()]
    assert [v.hex() for v in got.ravel().tolist()] == want


def test_libm_helpers_give_math_bits():
    rng = np.random.default_rng(2101)
    # The callers' ranges: exp of -eta*x and of -stirlerr - bd0, log of
    # g > 1, rate/a > 1 and c/offered >= 2; log arguments near 1, where
    # the SIMD log differs most often, get half of the draws.
    x = rng.uniform(-750.0, 0.0, 200_000)
    y = np.concatenate([
        np.exp(rng.uniform(math.log(5e-324), math.log(1e300), 100_000)),
        rng.uniform(0.5, 2.0, 100_000),
    ])
    _assert_math_bits(libm_exp, math.exp, x)
    _assert_math_bits(libm_log, math.log, y)
    recorded = [
        (libm_exp, math.exp, np.array([float.fromhex(v) for v in _SIMD_EXP_ARGS])),
        (libm_log, math.log, np.array([float.fromhex(v) for v in _SIMD_LOG_ARGS])),
    ]
    for helper, reference, args in recorded:
        _assert_math_bits(helper, reference, args)
        for arg in args:
            _assert_math_bits(helper, reference, np.array([arg]))
    # -0.0 and 0.0; results that are subnormal or underflow to 0.0.
    _assert_math_bits(libm_exp, math.exp, np.array(
        [-0.0, 0.0, -708.5, -740.0, -745.1, -745.2, -746.0, -750.0, -1e4]))
    _assert_math_bits(libm_log, math.log, np.array(
        [5e-324, 1e-310, 2.2250738585072014e-308, 1.0, 1e300, 1.7976931348623157e308]))
    for helper, reference, values in ((libm_exp, math.exp, x), (libm_log, math.log, y)):
        _assert_math_bits(helper, reference, np.empty(0))
        _assert_math_bits(helper, reference, np.empty((0, 3)))
        _assert_math_bits(helper, reference, values[0])
        head = values[:20_000]
        table = head.reshape(100, 200)
        for view in (table, table[::-1], table.T, table[:, ::3], table[::-2, 1::2],
                     head[::2], head[::-1], head[::-3]):
            _assert_math_bits(helper, reference, view)


def test_libm_helpers_give_math_bits_under_the_non_avx512_dispatch(run_without_avx512):
    # The same check in a child process with numpy's AVX-512 dispatch off.
    code = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('queueing_tests', sys.argv[1])\n"
        "module = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(module)\n"
        "module.test_libm_helpers_give_math_bits()\n"
    )
    proc = run_without_avx512(code, __file__)
    assert proc.returncode == 0, proc.stderr


def test_left_sum_adds_left_to_right_from_zero():
    # Uncompensated: 1e16 + 1.0 rounds back to 1e16, so the 1.0 is lost,
    # where math.fsum (and builtin sum() from Python 3.12 on) keep it.
    values = [1e16, 1.0, -1e16]
    assert left_sum(values) == 0.0
    assert math.fsum(values) == 1.0
    assert left_sum(iter(values)) == 0.0
    # From 0.0, so a lone -0.0 sums to +0.0.
    assert left_sum([]) == 0.0 and math.copysign(1.0, left_sum([-0.0])) == 1.0


def test_erlang_c_is_robust_across_accepted_regimes():
    # Finite and in [0, 1], nondecreasing in the arrival rate, and exactly 0
    # where the Poisson pmf at c underflows.
    rhos = (1e-12, 1e-6, 1e-3, 0.05, 0.3, 0.5, 0.7, 0.9, 0.99, 1.0 - 1e-6,
            1.0 - 1e-12)
    zeros = 0
    for c in (1, 2, 5, 15, 16, 100, 1000, 10_000, 100_000, 1_000_000):
        for mu in (1e-3, 1.0, 250.0):
            previous = 0.0
            for rho in rhos:
                lam = rho * c * mu
                got = erlang_c(c, lam, mu)
                assert math.isfinite(got) and 0.0 <= got <= 1.0
                assert got >= previous
                previous = got
                a = lam / mu
                log_pmf = c * math.log(a) - a - math.lgamma(c + 1.0)
                if log_pmf < -750.0:
                    assert got == 0.0
                    zeros += 1
                elif log_pmf > -700.0:
                    assert got > 0.0
    assert zeros > 0


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
        assert StageTail.from_params(StageParams(c, mu, lam)).survival(0.0) == 1.0


def test_stage_tail_mm1_collapses_to_exponential():
    # With one server the two-exponential mixture reduces to e^{-(mu-lam) t}.
    tail = StageTail.from_params(StageParams(1, 1.0, 0.5))
    assert tail.survival(1.0) == pytest.approx(math.exp(-0.5), abs=1e-12)
    assert tail.survival(3.0) == pytest.approx(math.exp(-1.5), abs=1e-12)


def test_stage_tail_vanishes_at_large_t():
    assert StageTail.from_params(StageParams(2, 1.0, 1.0)).survival(80.0) < 1e-12


def test_stage_tail_monotone_in_t():
    tail = StageTail.from_params(StageParams(4, 2.0, 6.0))
    ts = np.linspace(0.0, 10.0, 200)
    vals = [tail.survival(t) for t in ts]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_stage_tail_degenerate_excess_equals_service_rate():
    # c*mu - lam == mu makes both exponents coincide; the analytic limit is
    # (1 + P*mu*t) e^{-mu t}, approached via the documented nudge.
    c, mu = 2, 1.0
    params = StageParams(c, mu, c * mu - mu)
    wait = erlang_c(c, params.arrival_rate, mu)
    tail = StageTail.from_params(params)
    for t in (0.3, 1.0, 4.0):
        want = (1.0 + wait * mu * t) * math.exp(-mu * t)
        assert tail.survival(t) == pytest.approx(want, rel=1e-5)


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
        got = simpson(StageTail.from_params(params).survival, 0.0, 60.0 / min(mu, r), 4000)
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
    assert bound_dominance_margin(np.random.default_rng(17), 3, 100_000) > 0.0


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
    tail = StageTail.from_params(params)
    for t in (0.2, 0.5, 1.0, 2.0):
        emp = float(np.mean(draws > t))
        want = tail.survival(t)
        sigma = math.sqrt(max(want * (1 - want), 1e-12) / draws.size)
        assert abs(emp - want) < 5 * sigma
