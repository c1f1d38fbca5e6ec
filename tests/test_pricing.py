"""Payoff contracts, estimator examples, and cross-estimator structure."""

import sys

import numpy as np
import pytest
from scipy.integrate import quad

from klpricer import pricing, process
from klpricer.klcore import CLIP, wiener_eval, wiener_eval_horner
from klpricer.pricing import (
    AsianPayoffSpec,
    geometric_asian_closed_form,
    price_baseline,
    price_kl_nested,
    price_subsample,
)
from klpricer.process import GbmParams, TimeGrid

MARKET = GbmParams(100.0, 0.05, 0.2)
SPEC64 = AsianPayoffSpec(strike=100.0, monitoring_count=64)
TAG_GEOMETRIC = 4  # stream tag of the geometric-average Monte Carlo oracle
GRID100 = TimeGrid(np.arange(101) / 100)  # k/100 for k = 0..100, with a leading t = 0


def average_call(path_values, strike):
    """The flat estimators' payoff (T^-1 sum_i S_i - K)^+ on rows of path values."""
    values = np.atleast_2d(np.asarray(path_values, dtype=float))
    payoff = pricing._average_call(MARKET, values.shape[-1], strike)
    return payoff(np.log(values / MARKET.s0))


class TestPayoff:
    def test_at_the_money_average(self):
        assert average_call([100.0, 100.0, 100.0], 100.0)[0] == 0.0

    def test_zero_strike_is_weighted_mean(self):
        assert average_call([90.0, 100.0, 110.0], 0.0)[0] == pytest.approx(100.0)

    def test_simple_value(self):
        assert average_call([90.0, 100.0, 110.0], 95.0)[0] == pytest.approx(5.0)

    def test_length_mismatch(self):
        payoff = pricing._average_call(MARKET, 3, 95.0)
        with pytest.raises(ValueError):
            payoff(np.zeros((1, 2)))

    def test_lipschitz_property_exact(self):
        # the payoff exponentiates in place and scales by s0, so x and y are
        # built the same way and carry the exact path values it averages
        rng = np.random.default_rng(0)
        w = np.full(16, 1.0 / 16)
        payoff = pricing._average_call(MARKET, 16, 100.0)
        log_x = rng.standard_normal((10_000, 16)) * 0.3
        log_y = rng.standard_normal((10_000, 16)) * 0.3
        x = np.exp(log_x) * MARKET.s0
        y = np.exp(log_y) * MARKET.s0
        lhs = np.abs(payoff(log_x) - payoff(log_y))
        assert np.all(lhs <= np.abs(x - y) @ w + 1e-12)


class TestBaseline:
    def test_terminal_mean_at_zero_strike(self):
        spec = AsianPayoffSpec(strike=0.0, monitoring_count=1)
        est = price_baseline(MARKET, spec, 1_000_000, seed=41)
        target = 100.0 * np.exp(0.05)
        assert abs(est.value - target) <= 3.0 * est.std_error

    def test_degenerate_diffusion(self):
        params = GbmParams(100.0, 0.05, 1e-12)
        est = price_baseline(params, SPEC64, 100, seed=1)
        det = max(np.mean(100.0 * np.exp(0.05 * np.arange(1, 65) / 64)) - 100.0, 0.0)
        assert est.value == pytest.approx(det, rel=1e-9)
        assert est.std_error < 1e-9

    def test_deterministic_and_extensible(self):
        a = price_baseline(MARKET, SPEC64, 30_000, seed=5)
        b = price_baseline(MARKET, SPEC64, 30_000, seed=5)
        assert a == b
        # payoffs are a pure function of (seed, path index): growing the run
        # cannot change the shared prefix, so the two means are consistent
        big = price_baseline(MARKET, SPEC64, 60_000, seed=5)
        assert abs(big.value - a.value) < 5.0 * a.std_error

    def test_needs_two_paths(self):
        with pytest.raises(ValueError):
            price_baseline(MARKET, SPEC64, 1, seed=0)


def _reference_block_payoffs(params, times, rows, seed, tag, block_idx, payoff):
    """The flat kernel before it worked in place: the block is drawn in full,
    sliced to the rows kept, and transformed out of place in one piece."""
    dt = np.diff(times, prepend=0.0)
    drift_leg = params.effective_drift * dt
    vol_leg = params.sigma * np.sqrt(dt)
    block = pricing._block_size(times.size)
    z = process.stream(seed, tag, block_idx).standard_normal((block, times.size))[:rows]
    return payoff(np.cumsum(drift_leg + vol_leg * z, axis=1))


def _reference_flat(params, times, n_paths, seed, tag, payoff):
    """Blocks summed one after another, each from ``_reference_block_payoffs``."""
    block = pricing._block_size(times.size)
    total = total_sq = 0.0
    for block_idx, start in enumerate(range(0, n_paths, block)):
        rows = min(block, n_paths - start)
        pay = _reference_block_payoffs(params, times, rows, seed, tag, block_idx, payoff)
        total += float(pay.sum())
        total_sq += float(pay @ pay)
    mean = total / n_paths
    var = max(total_sq - n_paths * mean * mean, 0.0) / (n_paths - 1)
    return mean, float(np.sqrt(var / n_paths))


def _geometric_mc(params, grid, strike, n_paths, seed):
    """Flat MC of the geometric-average call: the closed form's brute-force oracle.

    A leading t = 0 costs no draw: S(0) = s0 enters the mean log as log(s0).
    """
    times = grid.points[1:] if grid.points[0] == 0.0 else grid.points
    n_fixed = grid.points.size - times.size
    log_s0 = np.log(params.s0)

    def payoff(logs):
        logs += log_s0
        mean_log = (logs.sum(axis=1) + n_fixed * log_s0) / grid.points.size
        return np.maximum(np.exp(mean_log) - strike, 0.0)

    return pricing._flat_moments(params, times, n_paths, seed, TAG_GEOMETRIC, payoff)


def _reference_arithmetic(params, times, weights, strike, n_paths, seed):
    def payoff(logs):
        return np.maximum(params.s0 * np.exp(logs) @ weights - strike, 0.0)

    return _reference_flat(params, times, n_paths, seed, process.TAG_PATHS, payoff)


class TestFlatKernel:
    @pytest.mark.parametrize("n_paths", [
        2, 1000, 65537,
        # a 1-row chunk tail, in the first block and in the second
        pricing._chunk_rows(64) + 1, 65536 + pricing._chunk_rows(64) + 1,
    ])
    def test_baseline_matches_reference(self, n_paths):
        est = price_baseline(MARKET, SPEC64, n_paths, seed=21)
        t = TimeGrid.uniform_monitoring(64).points
        ref = _reference_arithmetic(MARKET, t, np.full(64, 1 / 64), 100.0, n_paths, 21)
        assert (est.value, est.std_error) == ref

    def test_subsample_matches_reference(self):
        est = price_subsample(MARKET, SPEC64, epsilon=0.05, n_paths=5000, seed=23)
        t = np.arange(1, 401) / 400
        ref = _reference_arithmetic(MARKET, t, np.full(400, 1 / 400), 100.0, 5000, 23)
        assert (est.value, est.std_error) == ref

    def test_geometric_mc_matches_reference(self):
        # the grid has a leading t = 0, which costs no draw
        est = _geometric_mc(MARKET, GRID100, 100.0, 5000, seed=24)
        log_s0 = np.log(MARKET.s0)

        def payoff(logs):
            mean_log = ((logs + log_s0).sum(axis=1) + log_s0) / 101
            return np.maximum(np.exp(mean_log) - 100.0, 0.0)

        ref = _reference_flat(MARKET, GRID100.points[1:], 5000, 24, TAG_GEOMETRIC, payoff)
        assert est == ref

    def test_one_row_tail_keeps_every_path_bit(self):
        # a 1-row tail is folded into the chunk before it: a lone row through
        # the matrix-vector product can come out a bit off, which the block
        # sums mostly absorb, so every path's payoff is compared; at strike 0
        # no payoff is clipped
        t = TimeGrid.uniform_monitoring(64).points
        payoff = pricing._average_call(MARKET, 64, 0.0)
        rows = pricing._chunk_rows(64) + 1
        for block_idx in range(8):
            pay = pricing._block_payoffs(MARKET, t, rows, 28, process.TAG_PATHS, block_idx, payoff)
            ref = _reference_block_payoffs(MARKET, t, rows, 28, process.TAG_PATHS, block_idx,
                                           lambda logs: MARKET.s0 * np.exp(logs) @ np.full(64, 1 / 64))
            assert np.array_equal(pay, ref)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_independent_of_thread_count(self, monkeypatch, threads):
        # blocks are summed in block order, so the thread count cannot move
        # a bit; a short switch interval interleaves the workers finely
        monkeypatch.setattr(pricing, "_cpu_count", lambda: threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            base = price_baseline(MARKET, SPEC64, 3 * 65536 + 1000, seed=26)
            sub = price_subsample(MARKET, SPEC64, 0.1, 2 * 65536 + 1000, seed=27)
        finally:
            sys.setswitchinterval(interval)
        t64 = TimeGrid.uniform_monitoring(64).points
        t100 = np.arange(1, 101) / 100
        assert (base.value, base.std_error) == _reference_arithmetic(
            MARKET, t64, np.full(64, 1 / 64), 100.0, 3 * 65536 + 1000, 26)
        assert (sub.value, sub.std_error) == _reference_arithmetic(
            MARKET, t100, np.full(100, 1 / 100), 100.0, 2 * 65536 + 1000, 27)

    @pytest.mark.parametrize("price, n_paths, n_times", [
        pytest.param(lambda n: price_baseline(MARKET, SPEC64, n, seed=25), 1000, 64,
                     id="baseline-1000"),
        pytest.param(lambda n: price_baseline(MARKET, SPEC64, n, seed=25), 65537, 64,
                     id="baseline-65537"),
        pytest.param(lambda n: price_subsample(MARKET, SPEC64, 0.1, n, seed=25), 3000, 100,
                     id="subsample"),
        pytest.param(lambda n: _geometric_mc(MARKET, GRID100, 100.0, n, 25), 3000, 100,
                     id="geometric-mc"),
    ])
    def test_draws_only_the_rows_used(self, monkeypatch, price, n_paths, n_times):
        drawn = []
        original = process.stream

        class Counting(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                z = super().standard_normal(size, dtype=dtype, out=out)
                drawn.append(z.size)
                return z

        monkeypatch.setattr(process, "stream", lambda *key: Counting(original(*key).bit_generator))
        price(n_paths)
        assert sum(drawn) == n_paths * n_times


class TestSubsample:
    def test_grid_size_from_epsilon(self):
        est = price_subsample(MARKET, SPEC64, epsilon=0.05, n_paths=1000, seed=3)
        assert (est.n_outer, est.n_inner) == (1000, 1)

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            price_subsample(MARKET, SPEC64, epsilon=1e-5, n_paths=10, seed=0)

    def test_degenerate_riemann_sum(self):
        params = GbmParams(100.0, 0.05, 1e-12)
        est = price_subsample(params, SPEC64, epsilon=0.1, n_paths=64, seed=2)
        m = 100
        det = max(np.mean(100.0 * np.exp(0.05 * np.arange(1, m + 1) / m)) - 100.0, 0.0)
        assert est.value == pytest.approx(det, rel=1e-9)
        integral = quad(lambda t: 100.0 * np.exp(0.05 * t), 0, 1)[0]
        assert abs(det - max(integral - 100.0, 0.0)) < 2.0 / m * 100 * 0.05

    def test_matches_baseline_when_grid_refines(self):
        est_s = price_subsample(MARKET, SPEC64, epsilon=0.05, n_paths=200_000, seed=11)
        est_b = price_baseline(MARKET, SPEC64, 200_000, seed=12)
        se = np.hypot(est_s.std_error, est_b.std_error)
        gap = geometric_asian_closed_form(MARKET, TimeGrid.uniform_monitoring(64), 100.0) - \
            geometric_asian_closed_form(MARKET, TimeGrid.uniform_monitoring(400), 100.0)
        assert abs(est_s.value - est_b.value) <= 3.0 * se + 2.0 * abs(gap)


class TestNested:
    def test_degenerate_flat_path(self):
        # sigma -> 0 with zero effective drift: inner average is constant,
        # both inner modes return the deterministic payoff
        params = GbmParams(100.0, 0.0, 1e-12)
        spec = AsianPayoffSpec(strike=95.0, monitoring_count=8)
        for mode in ("acceptance", "uniform"):
            est = price_kl_nested(
                params, spec, epsilon=0.3, M0=8, M1=8, seed=2, inner_mode=mode
            )
            assert est.value == pytest.approx(5.0, rel=1e-6)
            assert est.std_error < 1e-6

    def test_default_sizing(self):
        est = price_kl_nested(MARKET, SPEC64, epsilon=0.3, seed=4)
        assert est.n_outer == int(np.ceil(4.0 / 0.3**2))
        assert est.n_inner == est.n_outer

    def test_inner_modes_agree(self):
        kw = dict(epsilon=0.1, M0=400, M1=400, seed=9)
        a = price_kl_nested(MARKET, SPEC64, inner_mode="acceptance", **kw)
        u = price_kl_nested(MARKET, SPEC64, inner_mode="uniform", **kw)
        # shared outer draws cancel the outer noise; both inner means are
        # unbiased, so the gap is inner noise and O(1/M1) convexity bias
        assert abs(a.value - u.value) <= 0.35

    def test_haldane_inner_ratio_is_unbiased(self):
        # one fixed path and M1 = 4, where the naive M1 / n_prop ratio is ~9% high
        coeffs = process.sample_coefficients(process.stream(31, 1, 0), 21)
        t = np.arange(1, 65) / 64
        exact = process.gbm_from_bm(wiener_eval_horner(coeffs, t), t, MARKET).mean()
        n = 4000
        inner = np.array([
            pricing._acceptance_inner_mean(process.stream(31, 3, i), coeffs, 4, MARKET, 64)
            for i in range(n)
        ])
        assert abs(inner.mean() - exact) <= 3.0 * inner.std(ddof=1) / np.sqrt(n)

    def test_snapped_price_pinned(self):
        # the series evaluated at each proposal's monitoring time, bit for bit
        # (T = 7 is no power of 2)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=7)
        est = price_kl_nested(MARKET, spec, epsilon=0.2, M0=50, M1=50, seed=2)
        assert (est.value, est.std_error) == (6.683862017650072, 1.3923213599432533)

    def test_batch_sizes_leave_price_unchanged(self, monkeypatch):
        kw = dict(epsilon=0.2, M0=40, M1=50, seed=12)
        specs = [SPEC64, AsianPayoffSpec(strike=100.0, monitoring_count=7)]
        ref = [price_kl_nested(MARKET, spec, **kw) for spec in specs]
        # one proposal per batch, and the old 4096 floor with a 1e-2 guess
        for floor, rate in ((1, 1.0), (4096, 1e-2)):
            monkeypatch.setattr(process, "_MIN_BATCH", floor)
            monkeypatch.setattr(process, "_first_batch_rate", lambda *args, r=rate: r)
            assert [price_kl_nested(MARKET, spec, **kw) for spec in specs] == ref

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            price_kl_nested(MARKET, SPEC64, epsilon=0.1, M0=1, M1=10, seed=0)
        with pytest.raises(ValueError):
            price_kl_nested(MARKET, SPEC64, epsilon=0.1, inner_mode="nope", seed=0)

    def test_inner_noise_shrinks_with_m1(self):
        # MSE against an exact-inner reference must decrease in M1 (3 sigma),
        # holding the outer sample fixed
        reference = _nested_reference_price(MARKET, 100.0, L=8, n_outer=200_000, seed=77)
        mses, sds = [], []
        reps = 24
        for m1 in (16, 64, 256):
            errs = np.empty(reps)
            for r in range(reps):
                est = price_kl_nested(
                    MARKET, SPEC64, epsilon=0.5, M0=500, M1=m1, L=8, seed=1000 + 97 * r
                )
                errs[r] = est.value - reference
            sq = errs**2
            mses.append(sq.mean())
            sds.append(sq.std(ddof=1) / np.sqrt(reps))
        assert mses[0] - mses[1] > -3.0 * np.hypot(sds[0], sds[1])
        assert mses[1] - mses[2] > -3.0 * np.hypot(sds[1], sds[2])
        assert mses[0] > mses[2]  # overall decrease is unmistakable


def _nested_reference_price(params, strike, L, n_outer, seed):
    """Exact-inner reference for the truncated-series price at T = 64.

    Replaces the sampled inner mean with the smoothed path's mean over the 64
    monitoring points, leaving only outer sampling error.
    """
    t = np.arange(1, 65) / 64
    total = 0.0
    chunk = 50_000
    done = 0
    while done < n_outer:
        b = min(chunk, n_outer - done)
        rng = process.stream(seed, 99, done)
        a = np.clip(rng.standard_normal((b, L + 1)), -CLIP, CLIP)
        g = params.s0 * np.exp(params.sigma * wiener_eval(a, t) + params.effective_drift * t)
        gbar = g.mean(axis=1)
        total += float(np.maximum(gbar - strike, 0.0).sum())
        done += b
    return total / n_outer


class TestGeometricClosedForm:
    def test_degenerate_sigma(self):
        params = GbmParams(100.0, 0.05, 1e-14)
        grid = TimeGrid.uniform_monitoring(16)
        got = geometric_asian_closed_form(params, grid, 100.0)
        expect = max(100.0 * np.exp(0.05 * grid.points.mean()) - 100.0, 0.0)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_zero_strike_limit(self):
        grid = TimeGrid.uniform_monitoring(16)
        got = geometric_asian_closed_form(MARKET, grid, 0.0)
        t = grid.points
        m = np.log(100.0) + MARKET.effective_drift * t.mean()
        counts = 2.0 * (t.size - 1.0 - np.arange(t.size)) + 1.0
        v = MARKET.sigma**2 / t.size**2 * float(np.sort(t) @ counts)
        assert got == pytest.approx(np.exp(m + v / 2), rel=1e-12)

    def test_brute_force_monte_carlo_agreement(self):
        grid = TimeGrid.uniform_monitoring(64)
        cf = geometric_asian_closed_form(MARKET, grid, 100.0)
        mc, se = _geometric_mc(MARKET, grid, 100.0, 1_000_000, seed=13)
        assert abs(cf - mc) <= 3.0 * se

    def test_min_sum_identity(self):
        # the sorted-counts shortcut must equal the O(M^2) double sum
        t = np.array([0.1, 0.4, 0.45, 0.9, 1.0])
        double = sum(min(a, b) for a in t for b in t)
        counts = 2.0 * (t.size - 1.0 - np.arange(t.size)) + 1.0
        assert float(np.sort(t) @ counts) == pytest.approx(double, rel=1e-12)


class TestPayoffMseTransfer:
    def test_truncated_vs_reference_paths(self):
        # payoff MSE is bounded by the worst per-point MSE (shared randomness)
        L, L_ref, T, n = 16, 512, 32, 20_000
        t = np.arange(1, T + 1) / T
        rng = process.stream(31, 98)
        a = rng.standard_normal((n, L_ref + 1))
        b_ref = wiener_eval(a, t)
        b_trunc = wiener_eval(a[:, : L + 1], t)
        s_ref = 100.0 * np.exp(MARKET.sigma * b_ref + MARKET.effective_drift * t)
        s_tr = 100.0 * np.exp(MARKET.sigma * b_trunc + MARKET.effective_drift * t)
        pay_ref = np.maximum(s_ref.mean(axis=1) - 100.0, 0.0)
        pay_tr = np.maximum(s_tr.mean(axis=1) - 100.0, 0.0)
        payoff_mse = float(np.mean((pay_ref - pay_tr) ** 2))
        point_mse = float(np.mean((s_ref - s_tr) ** 2, axis=0).max())
        assert payoff_mse <= point_mse * 1.05
