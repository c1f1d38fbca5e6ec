"""Payoff contracts, estimator examples, and cross-estimator structure."""

import concurrent.futures
import functools
import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from conftest import scaled_cells, wiener_eval
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad
from scipy.special import ndtr

from klpricer import klcore, pricing, process
from klpricer.klcore import CLIP, truncation_index_bm, wiener_eval_horner
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
# T above ceil(1/eps^2) at eps = 0.1 and 0.05, where sub-sampling prices M < T points
SPEC1000 = AsianPayoffSpec(strike=100.0, monitoring_count=1000)
TAG_GEOMETRIC = 4  # stream tag of the geometric-average Monte Carlo oracle
GRID100 = np.arange(101) / 100  # k/100 for k = 0..100, with a leading t = 0
# kl-nested requests (T, sizing) and their (value, std_error, plain_value,
# plain_std_error), which the one-draw-at-a-time reference gives too: every
# draw is tabulated at T = 64 and 7, and none at T = 2^20, where each inner
# mean is a quadrature
NESTED_PINS = [
    (64, dict(epsilon=0.1, M0=400, M1=400, seed=7),
     (6.149554500287312, 0.025300657977833322, 5.738419265106029, 0.3739724689424547)),
    (7, dict(epsilon=0.2, M0=40, M1=50, seed=12),
     (6.53209602649077, 0.30545550433880964, 7.695979425528101, 1.6132400540097747)),
    (1 << 20, dict(epsilon=0.2, M0=40, M1=50, seed=3),
     (5.820147751359673, 0.3116031619556222, 6.30113970436941, 1.309374621883273)),
]


def _nested_fields(est):
    """(value, std_error, plain_value, plain_std_error, proposals) of a kl-nested estimate."""
    d = est.diagnostics
    return est.value, est.std_error, d["plain_value"], d["plain_std_error"], d["proposals"]


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        rows=st.integers(1, 64).flatmap(
            lambda n: st.tuples(*[st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)] * 2)
        ),
        strike=st.floats(0.0, 300.0),
    )
    # two rows whose averages both sit at the strike, the kink of the payoff
    @example(rows=([0.0, 0.0], [np.log(0.5), np.log(1.5)]), strike=100.0)
    def test_lipschitz_in_the_sum_of_path_values(self, rows, strike):
        # |pay(x) - pay(y)| <= (s0/T) |sum e^x - sum e^y|, up to rounding
        x, y = (np.array([row]) for row in rows)
        n_times = x.shape[1]
        bound = MARKET.s0 / n_times * abs(np.exp(x).sum() - np.exp(y).sum())
        payoff = pricing._average_call(MARKET, n_times, strike)
        gap = abs(payoff(x)[0] - payoff(y)[0])
        assert gap <= bound + 1e-12 * (MARKET.s0 * np.exp(3.0) + strike)

    @pytest.mark.parametrize("strike", [np.nan, np.inf])
    def test_spec_rejects_non_finite_strike(self, strike):
        with pytest.raises(ValueError, match="^strike must be finite$"):
            AsianPayoffSpec(strike, 64)

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
        total_sq += float(np.einsum("i,i->", pay, pay))
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

    sums = pricing._flat_moments(params, times, n_paths, seed, TAG_GEOMETRIC, payoff)
    return pricing._mean_and_se(*sums, n_paths)


def _reference_arithmetic(params, times, strike, n_paths, seed):
    def payoff(logs):
        return np.maximum(np.einsum("ij->i", np.exp(logs)) * (params.s0 / times.size) - strike, 0.0)

    return _reference_flat(params, times, n_paths, seed, process.TAG_PATHS, payoff)


def _run_payoffs(n_times, n_paths, seed=29):
    """Per-path payoffs, at strike 0 so none is clipped, of an n_paths flat run."""
    times = np.arange(1, n_times + 1) / n_times
    average = pricing._average_call(MARKET, n_times, 0.0)
    blocks = []

    def payoff(logs):
        blocks.append(average(logs))
        return blocks[-1]

    # one thread, in block order
    pricing._flat_moments(MARKET, times, n_paths, seed, process.TAG_PATHS, payoff)
    return np.concatenate(blocks)


def _reference_payoffs(n_times, n_paths, seed=29):
    """``_run_payoffs`` from ``_reference_block_payoffs``."""
    times = np.arange(1, n_times + 1) / n_times
    block = pricing._block_size(n_times)
    payoff = pricing._average_call(MARKET, n_times, 0.0)
    return np.concatenate([
        _reference_block_payoffs(MARKET, times, min(block, n_paths - start), seed,
                                 process.TAG_PATHS, block_idx, payoff)
        for block_idx, start in enumerate(range(0, n_paths, block))
    ])


def _prefix_run(n_times):
    """Paths of the run the prefix test cuts: three blocks and a 2-row tail."""
    return 3 * pricing._block_size(n_times) + 2


@functools.lru_cache(maxsize=2)
def _prefix_payoffs(n_times):
    return _run_payoffs(n_times, _prefix_run(n_times))


@st.composite
def _prefix_cases(draw):
    """(grid width, n) with n below ``_prefix_run``: anywhere, or next to a block edge."""
    n_times = draw(st.sampled_from([64, 400]))
    block = pricing._block_size(n_times)
    edges = [k * block + d for k in (1, 2, 3) for d in (-1, 0, 1)]
    n = draw(st.one_of(st.sampled_from(edges), st.integers(1, _prefix_run(n_times) - 1)))
    return n_times, n


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the thread pools opened."""
    opened = []

    class Pool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, workers):
            opened.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Pool)
    return opened


class TestFlatKernel:
    @pytest.mark.parametrize("n_paths", [
        2, 1000, 65537,
        # a 1-row last block, the second and the 34th
        pricing._block_size(64) + 1, 33 * pricing._block_size(64) + 1,
    ])
    def test_baseline_matches_reference(self, n_paths):
        est = price_baseline(MARKET, SPEC64, n_paths, seed=21)
        t = np.arange(1, 65) / 64
        ref = _reference_arithmetic(MARKET, t, 100.0, n_paths, 21)
        assert (est.value, est.std_error) == ref

    def test_subsample_matches_reference(self):
        est = price_subsample(MARKET, SPEC1000, epsilon=0.05, n_paths=5000, seed=23)
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
        # the last block holds one row, in the first row of the buffer the
        # full block used; a lone row that came out a bit off would mostly
        # vanish in the block sums, so every path's payoff is compared, at
        # strike 0 where none is clipped, over eight seeds
        for n_times, seed in itertools.product((64, 400), range(8)):
            n_paths = pricing._block_size(n_times) + 1
            assert np.array_equal(_run_payoffs(n_times, n_paths, seed),
                                  _reference_payoffs(n_times, n_paths, seed))

    @pytest.mark.parametrize("price", [
        pytest.param(lambda: price_baseline(MARKET, AsianPayoffSpec(100.0, 13_000_000), 8, seed=1),
                     id="baseline"),
        pytest.param(lambda: price_subsample(MARKET, AsianPayoffSpec(100.0, 10**8), 2.5e-4, 8,
                                             seed=1), id="subsample"),
    ])
    def test_buffer_guard_runs_before_allocating(self, price):
        # 8 rows of 1.3 x 10^7 or 1.6 x 10^7 points and the grid vectors need
        # 1.14 or 1.41 GB, past the 1 GiB guard; a guard checked after the
        # grid and the first buffer would have allocated about 1 GB first
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"flat kernel buffer needs \d+ bytes, "
                                                 "past the 1073741824-byte guard"):
                price()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("n_times", [64, 400])
    def test_buffer_guard_counts_what_a_thread_holds(self, monkeypatch, n_times):
        # a warm run of a full block per thread peaks within 10 % of the
        # guard's count per thread: the grid vectors, the block buffers and
        # their payoff vectors, and numpy's 64 KiB ufunc buffer per thread,
        # which is about 6 % of a full block
        t = np.arange(1, n_times + 1) / n_times
        payoff = pricing._average_call(MARKET, n_times, 100.0)
        rows = pricing._block_size(n_times)
        need = pricing._check_flat_buffers(n_times, rows)
        monkeypatch.setattr(pricing, "_cpu_count", lambda: 2)
        for threads in (1, 2):
            run = functools.partial(pricing._flat_moments, MARKET, t, threads * rows, 30,
                                    process.TAG_PATHS, payoff, threads)
            run()
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                run()
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert need <= peak <= 1.1 * threads * need, threads

    def test_buffer_guard_caps_threads(self, monkeypatch, pools):
        # each thread holds one block buffer: a guard with room for two
        # buffers runs two threads, not three, and moves no bit
        monkeypatch.setattr(pricing, "_cpu_count", lambda: 1)
        ref = price_baseline(MARKET, SPEC64, 3 * 65536, seed=26)
        monkeypatch.setattr(pricing, "_cpu_count", lambda: 3)
        buffer = pricing._check_flat_buffers(64, 3 * 65536)
        monkeypatch.setattr(process, "GUARD_BYTES", 2 * buffer + 1)
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
            sub = price_subsample(MARKET, SPEC1000, 0.1, 2 * 65536 + 1000, seed=27)
        finally:
            sys.setswitchinterval(interval)
        t64 = np.arange(1, 65) / 64
        t100 = np.arange(1, 101) / 100
        assert (base.value, base.std_error) == _reference_arithmetic(
            MARKET, t64, 100.0, 3 * 65536 + 1000, 26)
        assert (sub.value, sub.std_error) == _reference_arithmetic(
            MARKET, t100, 100.0, 2 * 65536 + 1000, 27)

    def test_two_cores_share_a_two_block_request(self, monkeypatch, pools):
        # 4,000 paths at T = 64 are two blocks of at most 2,048 rows: two
        # usable cores run them on two threads, with the reference's bits
        monkeypatch.setattr(pricing, "_cpu_count", lambda: 2)
        est = price_baseline(MARKET, SPEC64, 4000, seed=26)
        ref = _reference_arithmetic(MARKET, np.arange(1, 65) / 64, 100.0, 4000, 26)
        assert (pools, (est.value, est.std_error)) == ([2], ref)

    def test_diagnostics_pinned(self):
        # blocks of 2,048 rows at T = 64 and 327 rows at M = 400
        base = price_baseline(MARKET, SPEC64, 4000, seed=1)
        sub = price_subsample(MARKET, SPEC1000, epsilon=0.05, n_paths=5000, seed=1)
        assert base.diagnostics == {"grid_points": 64, "blocks": 2, "normals_drawn": 256_000}
        assert sub.diagnostics == {"grid_points": 400, "blocks": 16, "normals_drawn": 2_000_000}
        assert pricing._block_size(400) == 327

    def test_flat_prices_pinned(self):
        # the draws and the arithmetic of both flat estimators, bit for bit:
        # the reference comparisons above share the streams, so only a pin
        # catches a change to the draws
        base = price_baseline(MARKET, SPEC64, 3 * 65536 + 1000, seed=26)
        sub = price_subsample(MARKET, SPEC1000, 0.1, 2 * 65536 + 1000, seed=27)
        assert (base.value, base.std_error) == (6.116572063332924, 0.019051434772774958)
        assert (sub.value, sub.std_error) == (6.08593176707843, 0.023261183474407823)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(case=_prefix_cases())
    # a 1-row last block, the second and the fourth
    @example(case=(64, pricing._block_size(64) + 1))
    @example(case=(64, 3 * pricing._block_size(64) + 1))
    def test_payoffs_prefix_stable(self, case):
        # a path's payoff is a pure function of (seed, path index): an n-path
        # run gives the first n payoffs of a longer run, bit for bit, wherever
        # n cuts a block
        n_times, n = case
        assert np.array_equal(_run_payoffs(n_times, n), _prefix_payoffs(n_times)[:n])

    @pytest.mark.parametrize("price, n_paths, n_times", [
        pytest.param(lambda n: price_baseline(MARKET, SPEC64, n, seed=25), 1000, 64,
                     id="baseline-1000"),
        pytest.param(lambda n: price_baseline(MARKET, SPEC64, n, seed=25), 65537, 64,
                     id="baseline-65537"),
        pytest.param(lambda n: price_subsample(MARKET, SPEC1000, 0.1, n, seed=25), 3000, 100,
                     id="subsample"),
        pytest.param(lambda n: _geometric_mc(MARKET, GRID100, 100.0, n, 25), 3000, 100,
                     id="geometric-mc"),
    ])
    def test_draws_only_the_rows_used(self, monkeypatch, price, n_paths, n_times):
        # one stream and one fill per block; the flat prices count both
        drawn = []
        original = process.stream

        class Counting(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                z = super().standard_normal(size, dtype=dtype, out=out)
                drawn.append(z.size)
                return z

        monkeypatch.setattr(process, "stream", lambda *key: Counting(original(*key).bit_generator))
        result = price(n_paths)
        assert sum(drawn) == n_paths * n_times
        assert len(drawn) == -(-n_paths // pricing._block_size(n_times))
        if isinstance(result, pricing.Estimate):
            assert result.diagnostics == {
                "grid_points": n_times, "blocks": len(drawn), "normals_drawn": sum(drawn)}


class TestSubsample:
    def test_grid_size_from_epsilon(self):
        est = price_subsample(MARKET, SPEC64, epsilon=0.05, n_paths=1000, seed=3)
        assert (est.n_outer, est.n_inner) == (1000, 1)

    def test_resource_guard(self):
        # the 10^10-point grid is below T, so it is priced, and guarded
        with pytest.raises(ValueError):
            price_subsample(MARKET, AsianPayoffSpec(100.0, 10**11), epsilon=1e-5, n_paths=10,
                            seed=0)

    def test_degenerate_riemann_sum(self):
        params = GbmParams(100.0, 0.05, 1e-12)
        est = price_subsample(params, SPEC1000, epsilon=0.1, n_paths=64, seed=2)
        m = 100
        det = max(np.mean(100.0 * np.exp(0.05 * np.arange(1, m + 1) / m)) - 100.0, 0.0)
        assert est.value == pytest.approx(det, rel=1e-9)
        integral = quad(lambda t: 100.0 * np.exp(0.05 * t), 0, 1)[0]
        assert abs(det - max(integral - 100.0, 0.0)) < 2.0 / m * 100 * 0.05

    def test_matches_baseline_when_grid_refines(self):
        # ceil(1/eps^2) = 400 >= T: both price the T points, on their own seeds
        est_s = price_subsample(MARKET, SPEC64, epsilon=0.05, n_paths=200_000, seed=11)
        est_b = price_baseline(MARKET, SPEC64, 200_000, seed=12)
        se = np.hypot(est_s.std_error, est_b.std_error)
        assert abs(est_s.value - est_b.value) <= 3.0 * se

    @pytest.mark.parametrize("spec, epsilon", [
        (SPEC64, 0.1), (SPEC64, 0.05), (SPEC64, 1e-200),
        (AsianPayoffSpec(100.0, 100), 0.1),  # M = T exactly
    ], ids=["T64-eps0.1", "T64-eps0.05", "T64-eps1e-200", "T100-eps0.1"])
    def test_is_the_baseline_when_its_grid_reaches_t(self, spec, epsilon):
        # nothing to sub-sample: the same stream tag, kernel and Estimate
        est = price_subsample(MARKET, spec, epsilon, 3000, seed=5)
        assert est == price_baseline(MARKET, spec, 3000, seed=5)
        assert est.diagnostics["grid_points"] == spec.monitoring_count

    @pytest.mark.parametrize("epsilon, T, m", [
        (0.05, 1000, 400), (0.05, 400, 400), (0.05, 64, 64), (0.1, 101, 100),
        (2e-4, 64, 64), (2e-4, 10**8, 25_000_000),
        (1e-160, 64, 64), (1e-200, 10**400, 10**400),
        (1e-150, 10**400, math.ceil(1.0 / 1e-150**2)),
    ])
    def test_grid_size_is_capped_at_t(self, epsilon, T, m):
        # eps^2 underflows at 1e-200, and 1/eps^2 overflows at 1e-160
        assert pricing._subsample_points(epsilon, T) == m


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

    @pytest.mark.parametrize("T, kw, pinned", [
        (64, dict(epsilon=0.1, M0=400, M1=400, seed=9),
         (6.172993305224018, 0.030513722475157972, {
             "clipped": 0, "series_points": 25_600, "normals_drawn": 8_800,
             "plain_value": 6.945911129726653, "plain_std_error": 0.45019188648794667})),
        (7, dict(epsilon=0.2, M0=50, M1=50, seed=2),
         (6.74437641323396, 0.14384451930638678, {
             "clipped": 0, "series_points": 350, "normals_drawn": 350,
             "plain_value": 7.702115242618369, "plain_std_error": 1.407684916221365})),
        (1 << 20, dict(epsilon=0.2, M0=40, M1=40, seed=1),
         (6.029468491113838, 0.17715719667919436, {
             "clipped": 0, "series_points": 1_600, "normals_drawn": 280,
             "plain_value": 7.042035884344702, "plain_std_error": 1.3686326740295258})),
    ])
    def test_uniform_mode_pinned(self, T, kw, pinned):
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        est = price_kl_nested(MARKET, spec, inner_mode="uniform", **kw)
        assert (est.value, est.std_error, est.diagnostics) == pinned

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

    @pytest.mark.parametrize("T", [64, 7, 1 << 20])
    def test_tabulated_count_follows_the_sampler_law(self, T):
        # a draw's count, M1 + NegBin(M1, p) for its inner mean (a table at
        # T = 64 and 7, a quadrature at T = 2^20) over its cells' mean
        # envelope, against the proposals the rejection sampler spends on
        # the same fixed path and the same cell bounds, M1 = 4: a two-sample
        # KS test, and the Haldane mean within 3 SE of the exact mean over
        # the T points.  Counts drawn at 0.95 p, or without the + M1, fail
        # both checks.
        n, M1 = 20_000, 4
        coeffs = process.sample_coefficients(process.stream(31, 1, 0), 21)
        env = np.array([process.path_envelope(MARKET, coeffs.a)])
        grid = np.arange(1, T + 1) / T
        exact = process.gbm_from_bm(wiener_eval_horner(coeffs, grid), grid, MARKET).mean()
        mean, ebar, inner = pricing._inner_means(coeffs.a[None], env, MARKET, T)
        assert inner["tabulated_draws"] == (T < 1 << 20)
        nodes = pricing._quadrature_nodes(coeffs.a[None], MARKET, T)[0]
        bound = process.cell_envelopes(MARKET, coeffs.a[None], env, T, nodes or T, {})[0][0]
        sampled = np.array([
            process.rejection_sample_times(process.stream(31, 3, i), coeffs, M1, bound, MARKET, T)[1]
            for i in range(n)
        ])

        def law_holds(counts):
            with np.errstate(divide="ignore", invalid="ignore"):
                inner = pricing._haldane_mean(ebar[0], M1, counts)
                se = inner.std(ddof=1) / np.sqrt(n)
            agrees = stats.ks_2samp(sampled, counts).pvalue > 1e-3
            return bool(agrees and abs(inner.mean() - exact) <= 3.0 * se)

        counts = pricing._tabled_counts(
            list(process.streams(31, 5, range(n))), np.full(n, mean[0]), np.full(n, ebar[0]), M1
        )
        assert law_holds(counts)
        rng = process.stream(31, 6, T)
        assert not law_holds(M1 + rng.negative_binomial(M1, 0.95 * exact / ebar[0], n))
        assert not law_holds(rng.negative_binomial(M1, exact / ebar[0], n))

    def test_snapped_price_pinned(self):
        # the path tabulated on the monitoring points i/T, bit for bit
        # (T = 7 is no power of 2)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=7)
        est = price_kl_nested(MARKET, spec, epsilon=0.2, M0=50, M1=50, seed=2)
        assert _nested_fields(est)[:4] == (
            6.7373747317750805, 0.22740955321843515, 7.69511356115949, 1.3936341292556123)

    def test_batch_sizes_leave_price_unchanged(self, monkeypatch):
        # every count is drawn from its law, so nothing of the sampler's
        # batching, nor the sampler itself, is called on the price path
        kw = dict(epsilon=0.2, M0=40, M1=50, seed=12)
        specs = [AsianPayoffSpec(strike=100.0, monitoring_count=T) for T in (100, 8193, 1 << 20)]

        def prices():
            return [price_kl_nested(MARKET, spec, **kw) for spec in specs]

        ref = prices()

        def unused(*args):
            raise AssertionError("the price path ran the sampler")

        monkeypatch.setattr(process, "rejection_sample_times", unused)
        assert prices() == ref

    @pytest.mark.parametrize("T, kw, pinned", NESTED_PINS)
    def test_grouped_round_matches_per_draw_sampler(self, T, kw, pinned):
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        est = price_kl_nested(MARKET, spec, **kw)
        assert _nested_fields(est)[:4] == pinned
        assert _nested_fields(est) == _per_draw_nested(MARKET, spec, **kw)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        M0=st.one_of(st.integers(2, 3 * pricing._SUM_BLOCK + 2), st.sampled_from(
            [k * pricing._SUM_BLOCK + d for k in (1, 2, 3) for d in (-1, 0, 1)])),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_payoff_sums_are_the_draw_order_loop(self, M0, seed):
        # a block of payoffs at a time, by np.add.accumulate from the running
        # totals: the bits of one Python loop over the draws, in draw order,
        # wherever M0 cuts a _SUM_BLOCK; the inner means and a.w are stubbed
        rng = np.random.default_rng(seed)
        gbar, aw = 100.0 * np.exp(0.2 * rng.standard_normal(M0)), rng.standard_normal(M0)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pricing, "_acceptance_means", lambda *args: (gbar, aw, {"proposals": 0}))
            est = price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=M0, M1=4, seed=1)
        L = truncation_index_bm(0.2)
        w0 = pricing._geometric_weights(64, L)[0]
        twin = geometric_asian_closed_form(MARKET, SPEC64, L)
        geo = MARKET.s0 * np.exp(MARKET.sigma * aw + MARKET.effective_drift * w0)
        sums = [0.0] * 4
        for g, x in zip(gbar.tolist(), geo.tolist()):
            pay = max(g - 100.0, 0.0)
            ctrl = pay - max(x - 100.0, 0.0) + twin
            for j, v in enumerate((pay, pay * pay, ctrl, ctrl * ctrl)):
                sums[j] += v
        want = (*pricing._mean_and_se(*sums[2:], M0), *pricing._mean_and_se(*sums[:2], M0), 0)
        assert _nested_fields(est) == want

    @pytest.mark.parametrize("T, kw, pinned", NESTED_PINS)
    def test_grouping_leaves_estimate_unchanged(self, monkeypatch, T, kw, pinned):
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        ref = price_kl_nested(MARKET, spec, **kw)
        # one path row per table, then every draw of a run in one table; T
        # points and the edges of each cell that holds one a tabulated draw
        # (J = 64 cells at eps = 0.1, 65 edges; at eps = 0.2 and T = 7 the
        # 7 cells of 16 that hold a point have 14), 64 Gauss-Legendre
        # nodes, 2 ends and J + 1 = 17 edges a quadrature draw at T = 2^20
        per_draw = {64: 64 + 65, 7: 7 + 14, 1 << 20: 66 + 17}[T]
        assert ref.diagnostics["series_points"] == kw["M0"] * per_draw
        for budget in (1, 1 << 40):
            monkeypatch.setattr(pricing, "_GROUP_BYTES", budget)
            assert price_kl_nested(MARKET, spec, **kw) == ref

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 2.0),
        T=st.one_of(st.integers(1, 200), st.just(8193), st.just(1 << 20)),
        M0=st.integers(2, 20),
        M1=st.integers(2, 60),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_grouped_request_matches_per_draw_reference(self, sigma, T, M0, M1, seed):
        # small T tabulates paths, T = 8193 and 2^20 take quadratures, and
        # a high sigma raises T_EM and n; at T <= 2 a sigma near 2 can push a
        # draw's acceptance rate below the starvation guard's 10^-6
        assume(T > 2 or sigma <= 1.5)
        params = GbmParams(100.0, 0.05, sigma)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        kw = dict(epsilon=0.2, M0=M0, M1=M1, seed=seed)
        est = price_kl_nested(params, spec, **kw)
        assert _nested_fields(est) == _per_draw_nested(params, spec, **kw)

    def test_tables_bounded_and_split_by_draw(self, monkeypatch):
        # at sigma = 2 and T = 500 some draws' T_EM passes T: those are
        # tabulated, with 257 cell edges, the others take 64-node
        # quadratures with 65, each table at most 64 KiB; at L = 507 and
        # T = 10,000 each draw is tabulated, with 2,049 edges, and its
        # row is summed in chunks of 8,192 points, the series of each chunk
        # 258 points (1 MiB of basis) at a time
        tables = []
        contract = klcore._series

        def series(a, basis):
            tables.append((a.shape[0], basis.shape[1]))
            return contract(a, basis)

        def by_basis(rows, points):
            step = (1 << 20) // (8 * 508)
            return [(rows, min(step, points - lo)) for lo in range(0, points, step)]

        monkeypatch.setattr(klcore, "_series", series)
        for sigma, T, kw, want in [
            (2.0, 500, dict(epsilon=0.2, M0=40, M1=50, seed=3),
             [(10, 257), (10, 500), (30, 65), (30, 66)]),
            (0.2, 10_000, dict(epsilon=0.02, M0=2, M1=50, seed=3),
             (by_basis(1, 2049) + by_basis(1, 8192) + by_basis(1, 1808)) * 2),
        ]:
            tables.clear()
            params = GbmParams(100.0, 0.05, sigma)
            spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
            est = price_kl_nested(params, spec, **kw)
            assert tables == want
            assert est.diagnostics["series_points"] == sum(r * t for r, t in want)
            assert _nested_fields(est) == _per_draw_nested(params, spec, **kw)

    def test_cost_does_not_grow_with_T(self):
        # the paper's poly-log-in-T cost: past T_EM and n every draw takes
        # its quadrature, n + 2 = 130 points and the J + 1 = 65 cell edges here,
        # at every T
        counts = {
            (d["series_points"], d["tabulated_draws"])
            for d in (
                price_kl_nested(
                    MARKET, AsianPayoffSpec(100.0, T), epsilon=0.1, M0=400, M1=400, seed=1
                ).diagnostics
                for T in (1 << 20, 1 << 30, 1 << 40, 1 << 50)
            )
        }
        assert counts == {(400 * (130 + 65), 0)}

    @pytest.mark.parametrize("T", [8193, 1 << 20])
    @pytest.mark.parametrize("sigma", [0.2, 3.0])
    @pytest.mark.parametrize("L", [21, 82])
    def test_inner_mean_matches_the_t_point_sum(self, T, sigma, L):
        # Gauss-Legendre with Euler-Maclaurin corrections against the brute
        # T-point mean of the same rows, summed through _series in chunks
        params = GbmParams(100.0, 0.05, sigma)
        a, _ = process._coefficient_rows(list(process.streams(5, 3, range(6))), L)
        env = process.path_envelope(params, a)
        assert np.all(pricing._quadrature_nodes(a, params, T) > 0)
        mean, _, inner = pricing._inner_means(a, env, params, T)
        chunks = (np.arange(lo + 1, min(lo + 4096, T) + 1) / T for lo in range(0, T, 4096))
        brute = sum(process.gbm_from_bm(klcore._series(a, klcore.series_basis(L, t)), t, params)
                    .sum(axis=1) for t in chunks) / T
        assert inner["tabulated_draws"] == 0 and inner["series_points"] < 6 * T
        np.testing.assert_allclose(mean, brute, rtol=1e-12, atol=0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.05, 3.0),
        L=st.integers(0, 60),
        T=st.integers(65, 1 << 16),
        mu=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_quadrature_error_within_its_stated_bound(self, sigma, L, T, mu, seed):
        # the rule's promise: a draw's inner mean is within _INNER_TOL
        # (1e-13) of its T-point sum, relative, whichever way it is taken
        params = GbmParams(100.0, mu, sigma)
        a, _ = process._coefficient_rows(list(process.streams(seed, 3, range(4))), L)
        env = process.path_envelope(params, a)
        mean = pricing._inner_means(a, env, params, T)[0]
        t = np.arange(1, T + 1) / T
        brute = process.gbm_from_bm(wiener_eval(a, t), t, params).mean(axis=1)
        assert np.all(np.abs(mean - brute) <= pricing._INNER_TOL * brute)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.05, 3.0),
        L=st.integers(0, 8),
        T=st.integers(1, 64),
        mu=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_euler_maclaurin_remainder_within_its_bound(self, sigma, L, T, mu, seed):
        # the corrections through G^(5) at small T, where each of them
        # matters: 512-node Gauss-Legendre plus the corrections errs from
        # the T-point mean by at most the stated remainder,
        # 2 zeta(7) (2 pi T)^-7 Y_7 int G, recomputed here from the bounds on
        # |phi^(j)|, plus 1e-13 for the quadrature and rounding
        params = GbmParams(100.0, mu, sigma)
        a, _ = process._coefficient_rows(list(process.streams(seed, 3, range(4))), L)
        env = process.path_envelope(params, a)[:, None]  # one cell
        mean = pricing._quadrature_means(a, env, params, T, 512, {})
        t = np.arange(1, T + 1) / T
        brute = process.gbm_from_bm(wiener_eval(a, t), t, params).mean(axis=1)
        nodes, weights = pricing._gauss_legendre(512)
        integral = (process.gbm_from_bm(wiener_eval(a, nodes), nodes, params) * weights).sum(axis=1)
        k = np.arange(1, L + 1)
        x = [sigma * np.sqrt(2) * np.pi**j * (np.abs(a[:, 1:]) * k**j).sum(axis=1) for j in range(7)]
        x[0] = x[0] + sigma * np.abs(a[:, 0]) + abs(params.effective_drift)
        y = [np.ones(len(a))]  # complete Bell polynomials of x
        for m in range(7):
            y.append(sum(math.comb(m, i) * y[m - i] * x[i] for i in range(m + 1)))
        remainder = 2 * 1.0083492773819228 * (2 * np.pi * T) ** -7.0 * y[7] * integral
        assert np.all(np.abs(mean - brute) <= remainder + 1e-13 * brute)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        sigma=st.floats(0.1, 3.0),
        T=st.one_of(st.integers(1, 200), st.just(1 << 20)),
        L=st.integers(0, 100),
        mu=st.floats(-1.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cell_bounds_dominate_the_path(self, sigma, T, L, mu, seed):
        # each cell bound dominates G_L, evaluated by the direct sum, at
        # every table point (4,096 of them, drawn, at T = 2^20) and every
        # quadrature node and end in its cell, within the contract's
        # 1e-12; and the cells' mean over the T points is at most the
        # per-path envelope, so no draw's acceptance rate falls below that
        # envelope's
        params = GbmParams(100.0, mu, sigma)
        a, _ = process._coefficient_rows(list(process.streams(seed, 3, range(4))), L)
        env = process.path_envelope(params, a)
        points = np.arange(1, T + 1) if T <= 200 else np.random.default_rng(seed).integers(1, T + 1, 4096)
        for row, n in enumerate(pricing._quadrature_nodes(a, params, T).tolist()):
            size = n or min(T, pricing._TABLE_POINTS)
            bound, ebar, _ = process.cell_envelopes(params, a[row : row + 1], env[row : row + 1], T, size, {})
            assert ebar[0] <= env[row]
            t = np.concatenate([points / T, [0.0, 1.0], pricing._gauss_legendre(max(n, 64))[0]])
            g = process.gbm_from_bm(wiener_eval(a[row], t), t, params)
            cell = np.maximum(np.ceil(t * bound.shape[1]) - 1.0, 0.0).astype(np.intp)
            assert np.all(g <= bound[0, cell] * (1.0 + 1e-12))

    def test_convexity_bias_falls_with_m1(self, golden_market, golden_spec):
        # d = f(Haldane mean) - f(exact mean) samples the nested estimator's
        # convexity bias draw by draw, with only inner noise: at the golden
        # market (T = 64, eps = 0.1) about 2/M1, 0.117 +- 0.012 at M1 = 16 and
        # 0.006 +- 0.003 at M1 = 400 at this seed, against the cells' mean
        # envelope; a cell bound from the midpoint plus a Lipschitz margin,
        # (sigma Lip + |drift|)/(2J) with Lip = |a0| + sqrt(2) sum_k |a_k|,
        # reads 16 b16 = 6.27 and b400 = 0.022, past both ceilings
        M0, L = 20_000, truncation_index_bm(0.1)
        a, _ = process._coefficient_rows(list(process.streams(17, process.TAG_NESTED, range(M0))), L)
        env = process.path_envelope(golden_market, a)
        exact, ebar = np.concatenate([
            pricing._inner_means(a[lo : lo + 256], env[lo : lo + 256], golden_market, 64)[:2]
            for lo in range(0, M0, 256)
        ], axis=1)
        bias = {}
        for M1 in (16, 400):
            counts = pricing._tabled_counts(list(process.streams(17, 9, range(M0))), exact, ebar, M1)
            d = (np.maximum(pricing._haldane_mean(ebar, M1, counts) - golden_spec.strike, 0.0)
                 - np.maximum(exact - golden_spec.strike, 0.0))
            bias[M1] = (d.mean(), d.std(ddof=1) / np.sqrt(M0))
        (b16, se16), (b400, se400) = bias[16], bias[400]
        assert b16 - b400 > 5.0 * np.hypot(se16, se400)
        assert 1.0 < 16 * b16 < 3.0 and 0.0 < b400 < 0.015

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
        # a draw peaks near 5 arrays of L + 1 doubles, the geometric weights
        # among them: 26,843,545 coefficients, 40 bytes each, fit 1 GiB
        pricing._series_order(0.1, 26_843_544, 64)
        with pytest.raises(ValueError, match="a draw's series of 26843546 coefficients needs "
                                             "1073741840 bytes, past the 1073741824-byte guard"):
            pricing._series_order(0.1, 26_843_545, 64)

    @pytest.mark.parametrize("mode", ["acceptance", "uniform"])
    def test_outer_draw_guard_stated_in_bytes(self, monkeypatch, mode):
        # each outer draw holds 16 bytes: 2^26 draws fill the 1 GiB guard;
        # the inner means are stubbed so that nothing runs
        means = []
        monkeypatch.setattr(pricing, f"_{mode}_means", lambda params, T, L, M0, *rest: (
            means.append(M0) or (np.ones(2), np.zeros(2), {})))
        kw = dict(epsilon=0.2, M1=4, seed=1, inner_mode=mode)
        price_kl_nested(MARKET, SPEC64, M0=1 << 26, **kw)
        with pytest.raises(ValueError, match="outer sample of 67108865 draws needs 1073741840 "
                                             "bytes, past the 1073741824-byte guard"):
            price_kl_nested(MARKET, SPEC64, M0=(1 << 26) + 1, **kw)
        assert means == [1 << 26]

    def test_outer_draws_hold_16_bytes_each(self, monkeypatch):
        # the rate the M0 guard counts: the inner means and the rows times
        # the geometric weights, 16 bytes a draw, and the payoffs summed over
        # bounded blocks of them; summed over gbar.tolist(), a Python float
        # and list slot a draw, this read 8 MB more.  The inner means are
        # stubbed, so the test reads what the outer sum holds; every
        # geometric mean is below the strike, so X = 0
        M0 = 200_000
        monkeypatch.setattr(pricing, "_acceptance_means", lambda params, T, L, M0, *rest: (
            np.full(M0, 101.0), np.full(M0, -10.0), {}))
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            est = price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=M0, M1=4, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        twin = geometric_asian_closed_form(MARKET, SPEC64, truncation_index_bm(0.2))
        assert (est.diagnostics["plain_value"], est.diagnostics["plain_std_error"]) == (1.0, 0.0)
        # M0 sequential adds of one value drift by at most M0 ulps
        assert est.value == pytest.approx(1.0 + twin, rel=M0 * 2**-52) and est.std_error < 1e-6
        assert 16 * M0 <= peak - start <= 16 * M0 + (1 << 18)

    def test_uniform_inner_guard_stated_in_bytes(self, draws):
        # a uniform-mode draw holds 64 bytes per inner sample: 2^24 samples
        # fill the 1 GiB guard, checked before anything is drawn
        with pytest.raises(ValueError, match="uniform-mode draw of 16777217 inner samples needs "
                                             "1073741888 bytes, past the 1073741824-byte guard"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=2, M1=(1 << 24) + 1, seed=1,
                            inner_mode="uniform")
        assert draws == []

    def test_starvation_guard_on_quadrature_draws(self, monkeypatch):
        # cell bounds, and the path envelope that caps their mean, 10^9 times
        # too high accept almost nothing; the guard
        # budget is scaled down so the request fails fast.  At T = 2^20 the
        # first draw's count, drawn from its quadrature's law, is past it.
        envelope, cells = process.path_envelope, process.cell_envelopes
        monkeypatch.setattr(process, "path_envelope", lambda params, a: 1e9 * envelope(params, a))
        monkeypatch.setattr(process, "cell_envelopes", scaled_cells(1e9, cells))
        monkeypatch.setattr(process, "_STARVATION_FACTOR", 1000)
        with pytest.raises(process.RejectionStarvedError,
                           match="10 acceptances at rate 9.85e-10 take 3.90932e[+]09 proposals, "
                                 "past the budget of 10000"):
            price_kl_nested(MARKET, AsianPayoffSpec(100.0, 1 << 20), epsilon=0.2, M0=3, M1=10,
                            seed=1)

    def test_starvation_guard_on_tabulated_draws(self, monkeypatch):
        # the same envelopes at T = 64: the first draw's count, drawn from
        # its law, is past the budget
        envelope, cells = process.path_envelope, process.cell_envelopes
        monkeypatch.setattr(process, "path_envelope", lambda params, a: 1e9 * envelope(params, a))
        monkeypatch.setattr(process, "cell_envelopes", scaled_cells(1e9, cells))
        monkeypatch.setattr(process, "_STARVATION_FACTOR", 1000)
        with pytest.raises(process.RejectionStarvedError,
                           match="10 acceptances at rate 9.86e-10 take 3.90648e[+]09 proposals, "
                                 "past the budget of 10000"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=3, M1=10, seed=1)

    @pytest.mark.parametrize("M1", [2, 400])
    def test_rate_too_small_to_draw_is_starved(self, monkeypatch, M1):
        # at p below about 1e-18 numpy's negative_binomial raises ValueError,
        # which the CLI would report as bad input; the draw is starved
        envelope, cells = process.path_envelope, process.cell_envelopes
        monkeypatch.setattr(process, "path_envelope", lambda params, a: 1e20 * envelope(params, a))
        monkeypatch.setattr(process, "cell_envelopes", scaled_cells(1e20, cells))
        with pytest.raises(process.RejectionStarvedError, match=r"acceptances at rate \d\.\d+e-2\d take "):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=3, M1=M1, seed=1)

    def test_underflowing_envelope_is_starved_at_rate_0(self):
        # at sigma = 40 and T = 1 each draw's path and its cell bound
        # underflow to 0: the rate is 0, not 0/0
        with pytest.raises(process.RejectionStarvedError, match="20 acceptances at rate 0 take inf "):
            price_kl_nested(GbmParams(100.0, 0.05, 40.0), AsianPayoffSpec(100.0, 1), epsilon=0.2,
                            M0=20, M1=20, seed=1)

    def test_envelope_below_path_violates_contract(self, monkeypatch):
        cells = process.cell_envelopes
        monkeypatch.setattr(process, "cell_envelopes", scaled_cells(0.5, cells))
        with pytest.raises(RuntimeError, match="exceeded the envelope"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=10, M1=10, seed=1)

    def test_diagnostics_at_golden_market(self, golden_market, golden_spec):
        kw = dict(epsilon=0.2, M0=100, M1=100, seed=5)
        counts = price_kl_nested(golden_market, golden_spec, **kw).diagnostics
        assert list(counts) == [
            "clipped", "proposals", "accepted", "series_points", "tabulated_draws",
            "envelope_cells", "normals_drawn", "plain_value", "plain_std_error",
        ]
        assert counts["clipped"] == 0
        assert counts["accepted"] == 100 * 100
        # T = 64 points and the J + 1 edges of J = 16 cells, and L + 1 normals a draw
        assert counts["envelope_cells"] == 16 and counts["series_points"] == 100 * (64 + 17)
        assert counts["normals_drawn"] == 100 * (truncation_index_bm(0.2) + 1)
        assert counts["proposals"] == _per_draw_nested(golden_market, golden_spec, **kw)[-1]

    def test_proposals_per_acceptance_at_the_nested_shape(self):
        # the benchmark's nested request: the cells' edge bounds with their
        # curvature margin spend 161,709 proposals for 160,000 acceptances
        # (1.0107); a cell bound from the midpoint plus a Lipschitz margin
        # spends 166,170 (1.0386)
        d = price_kl_nested(MARKET, SPEC64, epsilon=0.1, M0=400, M1=400, seed=1).diagnostics
        assert d["accepted"] == 400 * 400
        assert d["proposals"] / d["accepted"] < 1.02

    @pytest.mark.parametrize("T, tabulated", [(64, 400), (1 << 20, 0)])
    def test_tabulated_draws_reported(self, T, tabulated):
        # the benchmark's nested sizing: every draw is tabulated at T = 64,
        # and none past the tables' 8,192 points
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        est = price_kl_nested(MARKET, spec, epsilon=0.1, M0=400, M1=400, seed=1)
        assert est.diagnostics["tabulated_draws"] == tabulated

    @pytest.mark.parametrize("budget", [1, 1 << 40])
    @pytest.mark.parametrize("T, kw, pinned", NESTED_PINS[:2])
    def test_tabulated_p_is_the_one_row_mean(self, monkeypatch, budget, T, kw, pinned):
        # a draw's value sees its table only through the negative binomial
        # draw of p, which a last-bit change in p almost never moves; so each
        # p drawn is compared, bit for bit, with the mean of the draw's own
        # path row over its cells' mean bound, one table row per draw and
        # all in one
        drawn = []

        class Spy:
            def __init__(self, rng):
                self.rng = rng

            def negative_binomial(self, n, p):
                drawn.append(p)
                return self.rng.negative_binomial(n, p)

        tabled_counts = pricing._tabled_counts
        monkeypatch.setattr(pricing, "_tabled_counts",
                            lambda rngs, *rest: tabled_counts([Spy(r) for r in rngs], *rest))
        monkeypatch.setattr(pricing, "_GROUP_BYTES", budget)
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        est = price_kl_nested(MARKET, spec, **kw)
        assert _nested_fields(est)[:4] == pinned
        L, grid = truncation_index_bm(kw["epsilon"]), np.arange(1, T + 1) / T
        want = []
        for i in range(kw["M0"]):  # every draw is tabulated at these T
            coeffs = process.sample_coefficients(
                process.stream(kw["seed"], process.TAG_NESTED, i), L)
            row = process.gbm_from_bm(wiener_eval_horner(coeffs, grid), grid, MARKET)
            env = np.array([process.path_envelope(MARKET, coeffs.a)])
            ebar = process.cell_envelopes(MARKET, coeffs.a[None], env, T, min(T, pricing._TABLE_POINTS), {})[1][0]
            want.append(min(row.mean() / ebar, 1.0))
        assert drawn == want

    def test_grouped_round_memory_is_bounded(self):
        # the benchmark's nested request: about 0.65 MiB once warm; the first
        # call peaks higher (one-time allocations)
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

    @pytest.mark.parametrize("T, kw", [
        (1 << 20, dict(epsilon=0.1, M0=400, M1=400)),
        (64, dict(epsilon=0.1, L=1, M0=8192, M1=400)),
        (64, dict(epsilon=0.1, L=0, M0=8192, M1=400)),
    ], ids=["T2^20", "L1", "L0"])
    def test_run_memory_is_bounded(self, T, kw):
        # a run holds one stream per draw, about 740 bytes each: sized by
        # its coefficient rows alone, a run at L = 0 held 8,192 of them and
        # the nested sizing at T = 2^20 peaked at 1.02 MiB; now at most
        # about 0.9 MiB, the 64 KiB of inner means of 8,192 draws included
        spec = AsianPayoffSpec(strike=100.0, monitoring_count=T)
        price_kl_nested(MARKET, spec, seed=1, **kw)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            price_kl_nested(MARKET, spec, seed=2, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 1 << 20

    @pytest.mark.parametrize("mode", ["acceptance", "uniform"])
    def test_negative_order_rejected_before_any_draw(self, draws, mode):
        with pytest.raises(ValueError, match="L must be >= 0"):
            price_kl_nested(MARKET, SPEC64, epsilon=0.2, M0=4, M1=4, L=-1, seed=1,
                            inner_mode=mode)
        assert draws == []

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
    """kl-nested in acceptance mode, one outer draw at a time.

    The reference for the grouped runs: each draw's count is
    M1 + NegBin(M1, p) on its own stream, for p its exact inner mean over its
    envelope.  A tabulated draw's mean is its path's mean on the T points,
    computed here; a quadrature draw's comes from ``pricing._inner_means`` on
    its row alone.  Each draw's payoff Y carries its control variate,
    Y - X + E[X], with X from its own row.  Returns (value, std_error,
    plain_value, plain_std_error, proposals through every draw's M1-th
    acceptance).  The envelope is the draw's cells' mean over the T points,
    from ``process.cell_envelopes`` on its row alone.
    """
    L = truncation_index_bm(epsilon)
    T = spec.monitoring_count
    w = pricing._geometric_weights(T, L)
    twin = geometric_asian_closed_form(params, spec, L)
    total = total_sq = plain = plain_sq = 0.0
    proposals = 0
    for i in range(M0):
        rng = process.stream(seed, process.TAG_NESTED, i)
        coeffs = process.sample_coefficients(rng, L)
        env = np.array([process.path_envelope(params, coeffs.a)])
        nodes = pricing._quadrature_nodes(coeffs.a[None], params, T)[0]
        size = nodes or min(T, pricing._TABLE_POINTS)
        ebar = process.cell_envelopes(params, coeffs.a[None], env, T, size, {})[1][0]
        if nodes == 0 and T <= 8192:
            grid = np.arange(1, T + 1) / T
            mean = process.gbm_from_bm(wiener_eval_horner(coeffs, grid), grid, params).mean()
        else:
            mean = pricing._inner_means(coeffs.a[None], env, params, T)[0][0]
        n_prop = M1 + int(rng.negative_binomial(M1, min(mean / ebar, 1.0)))
        pay = max(pricing._haldane_mean(ebar, M1, n_prop) - spec.strike, 0.0)
        log_geo = params.sigma * np.einsum("ij,j->i", coeffs.a[None], w)[0]
        geo = params.s0 * np.exp(log_geo + params.effective_drift * w[0])
        ctrl = pay - max(geo - spec.strike, 0.0) + twin
        plain += pay
        plain_sq += pay * pay
        total += ctrl
        total_sq += ctrl * ctrl
        proposals += n_prop
    return (*pricing._mean_and_se(total, total_sq, M0),
            *pricing._mean_and_se(plain, plain_sq, M0), proposals)


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


def test_golden_file_matches_the_draws(golden, golden_market, golden_spec):
    # scripts/regenerate_golden.py writes the estimate from the first paths
    # of its reference run too; recomputed here, it fails on a change to the
    # draws or the flat arithmetic that did not regenerate tests/golden.json
    est = price_baseline(golden_market, golden_spec, golden["check_paths"], golden["seed"])
    assert (est.value, est.std_error) == (golden["check_value"], golden["check_std_error"])


def test_golden_subsample_prices_the_golden_option(golden):
    # ceil(1/eps^2) >= T at the golden eps and T, so the sub-sampling
    # reference is a T-point price on its own seed: it agrees with the
    # baseline's to within sampling error
    assert math.ceil(1.0 / golden["epsilon"] ** 2) >= golden["monitoring_count"]
    se = math.hypot(golden["std_error"], golden["subsample_std_error"])
    assert abs(golden["subsample_value"] - golden["value"]) <= 3.0 * se


class TestGeometricClosedForm:
    def test_golden_value_pinned(self, golden, golden_market, golden_spec):
        assert geometric_asian_closed_form(golden_market, golden_spec) == \
            golden["geometric_closed_form"]

    @pytest.mark.parametrize("T, L", [(1, 40), (7, 21), (64, 21), (64, 500), (1000, 507)])
    def test_l_mode_weights_are_the_direct_sums(self, T, L):
        # w_0 the mean of i/T and w_k = (sqrt(2)/pi) sum_i sin(k pi i/T)/(kT),
        # each sine's argument reduced mod 2 pi in integers; L passes 2T at
        # T = 1, 7 and 64
        i, k = np.arange(1, T + 1), np.arange(1, L + 1)
        sines = np.sin(np.pi * (np.outer(k, i) % (2 * T)) / T).sum(axis=1)
        direct = np.concatenate(([i.mean() / T], np.sqrt(2) / np.pi * sines / (k * T)))
        np.testing.assert_allclose(pricing._geometric_weights(T, L), direct, rtol=0, atol=2e-16)

    @pytest.mark.parametrize("sigma", [0.2, 1.0])
    def test_l_mode_matches_monte_carlo(self, sigma):
        # the geometric mean of G_L over the T points, from the tests' direct
        # series on unclipped rows, against the L-mode closed form; L = 40 > 2T
        params = GbmParams(100.0, 0.05, sigma)
        T, L, n = 16, 40, 100_000
        t = np.arange(1, T + 1) / T
        a = process.stream(14, 98).standard_normal((n, L + 1))
        log_mean = (params.sigma * wiener_eval(a, t) + params.effective_drift * t).mean(axis=1)
        pay = np.maximum(params.s0 * np.exp(log_mean) - 100.0, 0.0)
        cf = geometric_asian_closed_form(params, AsianPayoffSpec(100.0, T), L)
        assert abs(pay.mean() - cf) <= 3.0 * pay.std(ddof=1) / np.sqrt(n)

    def test_l_mode_tends_to_the_t_point_form(self):
        # B_L tends to Brownian motion, so its geometric twin to the T-point one
        exact = geometric_asian_closed_form(MARKET, SPEC64)
        assert abs(geometric_asian_closed_form(MARKET, SPEC64, 10**5) - exact) <= 1e-6

    def test_degenerate_sigma(self):
        params = GbmParams(100.0, 0.05, 1e-14)
        got = geometric_asian_closed_form(params, AsianPayoffSpec(100.0, 16))
        expect = max(100.0 * np.exp(0.05 * (np.arange(1, 17) / 16).mean()) - 100.0, 0.0)
        assert got == pytest.approx(expect, rel=1e-6)

    def test_zero_strike_limit(self):
        # K = 0 prices the mean of A_G, e^{m + v/2}, here on brute-force grid moments
        for T in (1, 2, 7, 16, 64, 1000):
            got = geometric_asian_closed_form(MARKET, AsianPayoffSpec(0.0, T))
            t = np.arange(1, T + 1) / T
            m = np.log(100.0) + MARKET.effective_drift * t.mean()
            v = MARKET.sigma**2 / T**2 * float(np.minimum.outer(t, t).sum())
            assert got == pytest.approx(np.exp(m + v / 2), rel=1e-12)

    def test_brute_force_monte_carlo_agreement(self):
        cf = geometric_asian_closed_form(MARKET, SPEC64)
        mc, se = _geometric_mc(MARKET, np.arange(1, 65) / 64, 100.0, 1_000_000, seed=13)
        assert abs(cf - mc) <= 3.0 * se

    def test_min_sum_identity(self):
        # the closed-form grid moments must equal the O(T^2) double sum and
        # the O(T) mean: sum_{i,j} min(i, j) = T(T+1)(2T+1)/6 in integers
        for T in (1, 2, 7, 64, 1000):
            i = np.arange(1, T + 1)
            assert int(np.minimum.outer(i, i).sum()) == T * (T + 1) * (2 * T + 1) // 6
            t = i / T
            double = float(np.minimum.outer(t, t).sum()) / T**2
            assert (T + 1) * (2 * T + 1) / (6 * T * T) == pytest.approx(double, rel=1e-12)
            assert (T + 1) / (2 * T) == pytest.approx(t.mean(), rel=1e-15)

    def test_norm_cdf_matches_ndtr(self):
        # below the smallest normal double, where ndtr flushes to zero near
        # x = -37.5, neither value has relative precision
        x = np.linspace(-38.0, 9.0, 100_001)
        got = np.array([pricing._norm_cdf(v) for v in x.tolist()])
        np.testing.assert_allclose(got, ndtr(x), rtol=1e-12, atol=np.finfo(float).tiny)


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
