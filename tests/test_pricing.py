"""Payoff contracts, estimator examples, and cross-estimator structure."""

import concurrent.futures
import functools
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from klpricer import klcore, pricing, process
from klpricer.klcore import CLIP, truncation_index_bm, wiener_eval, wiener_eval_horner
from klpricer.pricing import (
    AsianPayoffSpec,
    geometric_asian_closed_form,
    price_baseline,
    price_kl_nested,
    price_subsample,
)
from klpricer.process import GbmParams

MARKET = GbmParams(100.0, 0.05, 0.2)
SPEC64 = AsianPayoffSpec(strike=100.0, monitoring_count=64)
TAG_GEOMETRIC = 4  # stream tag of the geometric-average Monte Carlo oracle
GRID100 = np.arange(101) / 100  # k/100 for k = 0..100, with a leading t = 0
# kl-nested requests (T, sizing) and their (value, std_error), which the
# one-draw-at-a-time sampler gives too
NESTED_PINS = [
    (64, dict(epsilon=0.1, M0=400, M1=400, seed=7), (5.637365153050679, 0.3748328926207405)),
    (7, dict(epsilon=0.2, M0=40, M1=50, seed=12), (9.006881925846029, 2.007792403820802)),
    (1 << 20, dict(epsilon=0.2, M0=40, M1=50, seed=3), (7.55079604839279, 1.6256486148212501)),
]


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
    """Flat MC of the geometric-average call on the increasing times ``grid``.

    The closed form's brute-force oracle.  A leading t = 0 costs no draw:
    S(0) = s0 enters the mean log as log(s0).
    """
    times = grid[1:] if grid[0] == 0.0 else grid
    n_fixed = grid.size - times.size
    log_s0 = np.log(params.s0)

    def payoff(logs):
        logs += log_s0
        mean_log = (logs.sum(axis=1) + n_fixed * log_s0) / grid.size
        return np.maximum(np.exp(mean_log) - strike, 0.0)

    return pricing._flat_moments(params, times, n_paths, seed, TAG_GEOMETRIC, payoff)


def _reference_arithmetic(params, times, strike, n_paths, seed):
    def payoff(logs):
        return np.maximum(np.einsum("ij->i", np.exp(logs)) * (params.s0 / times.size) - strike, 0.0)

    return _reference_flat(params, times, n_paths, seed, process.TAG_PATHS, payoff)


def _run_payoffs(n_times, n_paths):
    """Per-path payoffs, at strike 0 so none is clipped, of an n_paths flat run (seed 29)."""
    times = np.arange(1, n_times + 1) / n_times
    payoff = pricing._average_call(MARKET, n_times, 0.0)
    return np.concatenate([
        pricing._block_payoffs(MARKET, times, rows, 29, process.TAG_PATHS, block_idx, payoff)
        for block_idx, rows in enumerate(pricing._block_rows(n_times, n_paths))
    ])


def _prefix_run(n_times):
    """Paths of the run the prefix test cuts: a block, two chunks and a 1-row tail."""
    return pricing._block_size(n_times) + 2 * pricing._chunk_rows(n_times) + 1


@functools.lru_cache(maxsize=2)
def _prefix_payoffs(n_times):
    return _run_payoffs(n_times, _prefix_run(n_times))


@st.composite
def _prefix_cases(draw):
    """(grid width, n) with n below ``_prefix_run``: anywhere, or next to a chunk or block edge."""
    n_times = draw(st.sampled_from([64, 400]))
    chunk, block = pricing._chunk_rows(n_times), pricing._block_size(n_times)
    edges = [edge + d for edge in (chunk, 2 * chunk, block, block + chunk) for d in (-1, 0, 1)]
    n = draw(st.one_of(st.sampled_from(edges), st.integers(1, _prefix_run(n_times) - 1)))
    return n_times, n


class TestFlatKernel:
    @pytest.mark.parametrize("n_paths", [
        2, 1000, 65537,
        # a 1-row chunk tail, in the first block and in the second
        pricing._chunk_rows(64) + 1, 65536 + pricing._chunk_rows(64) + 1,
    ])
    def test_baseline_matches_reference(self, n_paths):
        est = price_baseline(MARKET, SPEC64, n_paths, seed=21)
        t = np.arange(1, 65) / 64
        ref = _reference_arithmetic(MARKET, t, 100.0, n_paths, 21)
        assert (est.value, est.std_error) == ref

    def test_subsample_matches_reference(self):
        est = price_subsample(MARKET, SPEC64, epsilon=0.05, n_paths=5000, seed=23)
        t = np.arange(1, 401) / 400
        ref = _reference_arithmetic(MARKET, t, 100.0, 5000, 23)
        assert (est.value, est.std_error) == ref

    def test_geometric_mc_matches_reference(self):
        # the grid has a leading t = 0, which costs no draw
        est = _geometric_mc(MARKET, GRID100, 100.0, 5000, seed=24)
        log_s0 = np.log(MARKET.s0)

        def payoff(logs):
            mean_log = ((logs + log_s0).sum(axis=1) + log_s0) / 101
            return np.maximum(np.exp(mean_log) - 100.0, 0.0)

        ref = _reference_flat(MARKET, GRID100[1:], 5000, 24, TAG_GEOMETRIC, payoff)
        assert est == ref

    def test_one_row_tail_keeps_every_path_bit(self):
        # the last chunk holds one row; a lone row that came out a bit off
        # would mostly vanish in the block sums, so every path's payoff is
        # compared, at strike 0 where none is clipped
        t = np.arange(1, 65) / 64
        payoff = pricing._average_call(MARKET, 64, 0.0)
        rows = pricing._chunk_rows(64) + 1

        def reference(logs):
            return np.einsum("ij->i", np.exp(logs)) * (MARKET.s0 / 64)

        for block_idx in range(8):
            pay = pricing._block_payoffs(MARKET, t, rows, 28, process.TAG_PATHS, block_idx, payoff)
            ref = _reference_block_payoffs(MARKET, t, rows, 28, process.TAG_PATHS, block_idx,
                                           reference)
            assert np.array_equal(pay, ref)

    @pytest.mark.parametrize("price", [
        pytest.param(lambda: price_baseline(MARKET, AsianPayoffSpec(100.0, 5_000_000), 8, seed=1),
                     id="baseline"),
        pytest.param(lambda: price_subsample(MARKET, SPEC64, 4e-4, 8, seed=1), id="subsample"),
    ])
    def test_buffer_guard_runs_before_allocating(self, price):
        # 8 rows of 5 x 10^6 or 6.25 x 10^6 points pass the guard; a guard
        # checked after the grid and the first buffer peaked at 81 and 95 MiB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the 268435456-byte guard"):
                price()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_buffer_guard_caps_threads(self, monkeypatch):
        # each thread holds one chunk buffer: a guard with room for two
        # buffers runs two threads, not three, and moves no bit
        ref = price_baseline(MARKET, SPEC64, 3 * 65536, seed=26)
        pools = []

        class Pool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, workers):
                pools.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
        monkeypatch.setattr(pricing, "_cpu_count", lambda: 3)
        buffer = pricing._check_flat_buffers(64, 3 * 65536)
        monkeypatch.setattr(pricing, "_FLAT_BYTES", 2 * buffer + 1)
        assert price_baseline(MARKET, SPEC64, 3 * 65536, seed=26) == ref
        assert pools == [2]

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
        t64 = np.arange(1, 65) / 64
        t100 = np.arange(1, 101) / 100
        assert (base.value, base.std_error) == _reference_arithmetic(
            MARKET, t64, 100.0, 3 * 65536 + 1000, 26)
        assert (sub.value, sub.std_error) == _reference_arithmetic(
            MARKET, t100, 100.0, 2 * 65536 + 1000, 27)

    def test_flat_prices_pinned(self):
        # the draws and the arithmetic of both flat estimators, bit for bit:
        # the reference comparisons above share the streams, so only a pin
        # catches a change to the draws
        base = price_baseline(MARKET, SPEC64, 3 * 65536 + 1000, seed=26)
        sub = price_subsample(MARKET, SPEC64, 0.1, 2 * 65536 + 1000, seed=27)
        assert (base.value, base.std_error) == (6.142440897203286, 0.019149469729579354)
        assert (sub.value, sub.std_error) == (6.104296589901404, 0.023264262156032323)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=_prefix_cases())
    # a 1-row chunk tail, in the first block and in the second
    @example(case=(64, pricing._chunk_rows(64) + 1))
    @example(case=(64, 65536 + pricing._chunk_rows(64) + 1))
    def test_payoffs_prefix_stable(self, case):
        # a path's payoff is a pure function of (seed, path index): an n-path
        # run gives the first n payoffs of a longer run, bit for bit, wherever
        # n cuts a chunk or a block
        n_times, n = case
        assert np.array_equal(_run_payoffs(n_times, n), _prefix_payoffs(n_times)[:n])

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
        gap = geometric_asian_closed_form(MARKET, SPEC64) - \
            geometric_asian_closed_form(MARKET, AsianPayoffSpec(100.0, 400))
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
        env = process.path_envelope(MARKET, coeffs.a)
        n = 4000
        n_prop = np.array([
            process.rejection_sample_times(process.stream(31, 3, i), coeffs, 4, env, MARKET, 64)[1]
            for i in range(n)
        ])
        inner = pricing._haldane_mean(env, 4, n_prop)
        assert abs(inner.mean() - exact) <= 3.0 * inner.std(ddof=1) / np.sqrt(n)

    def test_snapped_price_pinned(self):
        # the series evaluated at each proposal's monitoring time, bit for bit
        # (T = 7 is no power of 2)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=7)
        est = price_kl_nested(MARKET, spec, epsilon=0.2, M0=50, M1=50, seed=2)
        assert (est.value, est.std_error) == (8.212183629969001, 1.5192642043083722)

    def test_batch_sizes_leave_price_unchanged(self, monkeypatch):
        kw = dict(epsilon=0.2, M0=40, M1=50, seed=12)
        specs = [SPEC64, AsianPayoffSpec(strike=100.0, monitoring_count=7)]

        def prices():
            # series_points counts evaluations, which batch sizes do change
            return [(e.value, e.std_error, e.diagnostics["proposals"])
                    for e in (price_kl_nested(MARKET, spec, **kw) for spec in specs)]

        ref = prices()
        # one proposal per batch, and the old 4096 floor with a 1e-2 guess
        for floor, rate in ((1, 1.0), (4096, 1e-2)):
            monkeypatch.setattr(process, "_MIN_BATCH", floor)
            monkeypatch.setattr(process, "_first_batch_rate",
                                lambda a, *args, r=rate: np.full(np.shape(a)[:-1], r))
            assert prices() == ref

    @pytest.mark.parametrize("T, kw, pinned", NESTED_PINS)
    def test_grouped_round_matches_per_draw_sampler(self, T, kw, pinned):
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        est = price_kl_nested(MARKET, spec, **kw)
        assert (est.value, est.std_error) == pinned
        assert (*pinned, est.diagnostics["proposals"]) == _per_draw_nested(MARKET, spec, **kw)

    @pytest.mark.parametrize("T, kw, pinned", NESTED_PINS)
    def test_grouping_leaves_estimate_unchanged(self, monkeypatch, T, kw, pinned):
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        ref = price_kl_nested(MARKET, spec, **kw)
        ref.diagnostics.pop("series_points")
        # one draw per group and no path table, then every draw in one group
        # with one table of every path, unless T = 2^20 is more than a draw's
        # first batch; series points count evaluations, which tables change
        for budget in (1, 1 << 40):
            monkeypatch.setattr(pricing, "_GROUP_BYTES", budget)
            est = price_kl_nested(MARKET, spec, **kw)
            points = est.diagnostics.pop("series_points")
            assert est == ref
            if budget > 1 and T < 1 << 20:
                assert points == kw["M0"] * T
            else:
                assert points >= ref.diagnostics["proposals"]

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 2.0),
        T=st.one_of(st.integers(1, 200), st.just(1 << 20)),
        M0=st.integers(2, 20),
        M1=st.integers(2, 60),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_rounds_match_per_draw_sampler(self, sigma, T, M0, M1, seed):
        # small T reads path tables, draws with short first batches and
        # T = 2^20 evaluate every proposal, and a high sigma or small M1
        # sends draws into later rounds; at T <= 2 a sigma near 2 can push a
        # draw's acceptance rate below the starvation guard's 10^-6
        assume(T > 2 or sigma <= 1.5)
        params = GbmParams(100.0, 0.05, sigma)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        kw = dict(epsilon=0.2, M0=M0, M1=M1, seed=seed)
        est = price_kl_nested(params, spec, **kw)
        got = (est.value, est.std_error, est.diagnostics["proposals"])
        assert got == _per_draw_nested(params, spec, **kw)

    def test_tables_bounded_and_split_by_draw(self, monkeypatch):
        # at sigma = 2 and T = 1000 most draws spend more than T proposals:
        # each of those reads one path row, in tables of at most 8 rows
        # (64 KiB), and the others evaluate their proposals; a per-draw
        # first-round dedup evaluated 243,056 points here
        tables = []

        def clenshaw(a, t, rows=None):
            if rows is None and a.ndim == 2:  # not a lone draw's proposals
                tables.append(a.shape[0] * t.size)
            return klcore._clenshaw(a, t, rows)

        monkeypatch.setattr(pricing, "_clenshaw", clenshaw)
        params = GbmParams(100.0, 0.05, 2.0)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=1000)
        kw = dict(epsilon=0.2, M0=40, M1=50, seed=3)
        est = price_kl_nested(params, spec, **kw)
        assert est.diagnostics["series_points"] == 37_668
        assert tables == [8000, 8000, 8000, 8000, 1000]
        assert (est.value, est.std_error, est.diagnostics["proposals"]) == _per_draw_nested(
            params, spec, **kw)

    def test_cost_does_not_grow_with_T(self):
        # the paper's poly-log-in-T cost: past the path table's bounds every
        # proposal is evaluated at its own time, so T enters only through
        # floor(u T) and the counts are the same at every T
        counts = {
            (d["proposals"], d["series_points"])
            for d in (
                price_kl_nested(
                    MARKET, AsianPayoffSpec(100.0, T), epsilon=0.1, M0=400, M1=400, seed=1
                ).diagnostics
                for T in (1 << 20, 1 << 30, 1 << 40, 1 << 50)
            )
        }
        assert counts == {(252_205, 305_528)}

    def test_monitoring_count_past_2_53_rejected(self):
        # floor(u T) reaches every index up to T = 2^53 and no further
        kw = dict(epsilon=0.3, M0=2, M1=2, seed=1)
        price_kl_nested(MARKET, AsianPayoffSpec(100.0, 1 << 53), **kw)
        for mode in ("acceptance", "uniform"):
            with pytest.raises(ValueError, match=r"T <= 2\^53"):
                price_kl_nested(
                    MARKET, AsianPayoffSpec(100.0, (1 << 53) + 1), inner_mode=mode, **kw
                )

    def test_series_guard_stated_in_bytes(self):
        # a draw peaks near 4 arrays of L + 1 doubles: 10^8 coefficients pass
        pricing._series_order(0.1, 10**8 - 1, 64)
        with pytest.raises(ValueError, match="needs about 3200000032 bytes per draw, "
                                             "past the 3200000000-byte guard"):
            pricing._series_order(0.1, 10**8, 64)

    def test_starvation_guard_in_round_loop(self, monkeypatch):
        # an envelope 10^9 times too high accepts almost nothing; the guard
        # budget is scaled down so the request fails fast
        envelope = process.path_envelope
        monkeypatch.setattr(process, "path_envelope", lambda params, a: 1e9 * envelope(params, a))
        monkeypatch.setattr(process, "_STARVATION_FACTOR", 1000)
        with pytest.raises(process.RejectionStarvedError, match="/10 acceptances"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=3, M1=10, seed=1)

    def test_envelope_below_path_violates_contract(self, monkeypatch):
        envelope = process.path_envelope
        monkeypatch.setattr(process, "path_envelope", lambda params, a: 0.5 * envelope(params, a))
        with pytest.raises(ValueError, match="exceeded the envelope"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=10, M1=10, seed=1)

    def test_diagnostics_at_golden_market(self, golden_market, golden_spec):
        kw = dict(epsilon=0.2, M0=100, M1=100, seed=5)
        counts = price_kl_nested(golden_market, golden_spec, **kw).diagnostics
        assert set(counts) == {"clipped", "proposals", "accepted", "series_points"}
        assert counts["clipped"] == 0
        assert counts["accepted"] == 100 * 100
        assert counts["proposals"] == _per_draw_nested(golden_market, golden_spec, **kw)[2]

    def test_grouped_round_memory_is_bounded(self):
        # the benchmark's nested request: about 0.4 MiB once warm; the first
        # call peaks near 1.1 MiB (one-time allocations), and one group of
        # all 400 draws would peak near 30 MiB
        kw = dict(epsilon=0.1, M0=400, M1=400)
        price_kl_nested(MARKET, SPEC64, seed=1, **kw)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            price_kl_nested(MARKET, SPEC64, seed=2, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1 << 20

    @pytest.mark.parametrize("mode", ["acceptance", "uniform"])
    def test_negative_order_rejected_before_any_draw(self, monkeypatch, mode):
        streams = []
        monkeypatch.setattr(process, "stream", lambda *key: streams.append(key))
        with pytest.raises(ValueError, match="L must be >= 0"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=4, M1=4, L=-1, seed=1,
                            inner_mode=mode)
        assert streams == []

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


def _per_draw_nested(params, spec, epsilon, M0, M1, seed):
    """kl-nested in acceptance mode, one outer draw at a time through the sampler.

    The reference for the grouped first round: returns (value, std_error,
    proposals through every draw's M1-th acceptance).
    """
    L = truncation_index_bm(epsilon)
    total = total_sq = 0.0
    proposals = 0
    for i in range(M0):
        rng = process.stream(seed, process.TAG_NESTED, i)
        coeffs = process.sample_coefficients(rng, L)
        env = process.path_envelope(params, coeffs.a)
        _, n_prop = process.rejection_sample_times(
            rng, coeffs, M1, env, params, spec.monitoring_count
        )
        pay = max(pricing._haldane_mean(env, M1, n_prop) - spec.strike, 0.0)
        total += pay
        total_sq += pay * pay
        proposals += n_prop
    return (*pricing._mean_and_se(total, total_sq, M0), proposals)


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
    def test_golden_value_pinned(self, golden, golden_market, golden_spec):
        assert geometric_asian_closed_form(golden_market, golden_spec) == \
            golden["geometric_closed_form"]

    def test_degenerate_sigma(self):
        params = GbmParams(100.0, 0.05, 1e-14)
        got = geometric_asian_closed_form(params, AsianPayoffSpec(100.0, 16))
        expect = max(100.0 * np.exp(0.05 * (np.arange(1, 17) / 16).mean()) - 100.0, 0.0)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_zero_strike_limit(self):
        got = geometric_asian_closed_form(MARKET, AsianPayoffSpec(0.0, 16))
        t = np.arange(1, 17) / 16
        m = np.log(100.0) + MARKET.effective_drift * t.mean()
        counts = 2.0 * (t.size - 1.0 - np.arange(t.size)) + 1.0
        v = MARKET.sigma**2 / t.size**2 * float(np.sort(t) @ counts)
        assert got == pytest.approx(np.exp(m + v / 2), rel=1e-12)

    def test_brute_force_monte_carlo_agreement(self):
        cf = geometric_asian_closed_form(MARKET, SPEC64)
        mc, se = _geometric_mc(MARKET, np.arange(1, 65) / 64, 100.0, 1_000_000, seed=13)
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
