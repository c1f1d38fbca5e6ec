"""Path generation, coefficient draws, envelopes, rejection sampling, and the byte guard."""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, kstest, norm

from klpricer import analysis, pricing, process, qsim
from klpricer.klcore import CLIP, WienerCoefficients, wiener_eval_horner
from klpricer.process import (
    GbmParams,
    g_max_bound,
    gbm_from_bm,
    path_envelope,
    rejection_sample_times,
    sample_coefficients,
    stream,
)

MARKET = GbmParams(100.0, 0.05, 0.2)
SPEC64 = pricing.AsianPayoffSpec(100.0, 64)


def _eight_qubit_state():
    """A 4 KiB state with a 4-qubit value register, ready for the value rotation."""
    layout = qsim.RegisterLayout(coeff_qubits=2, n_coeff_registers=2, time_qubits=0, value_qubits=4)
    return qsim.StateVector(np.full(256, 1 / 16, dtype=complex), layout,
                            qsim.FixedPointCodec.for_range(4, 10.0))


class TestGbmParams:
    def test_effective_drift(self):
        assert MARKET.effective_drift == pytest.approx(0.05 - 0.02, rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            GbmParams(-1.0, 0.0, 0.2)
        with pytest.raises(ValueError):
            GbmParams(1.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["s0", "mu", "sigma"])
    def test_non_finite_rejected(self, name, value):
        market = {"s0": 100.0, "mu": 0.05, "sigma": 0.2, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            GbmParams(**market)

    def test_overflowing_median_rejected(self):
        # s0 exp(mu - sigma^2/2) overflows at mu = 1000, so about half of all
        # paths would; at mu = 705 the median is finite
        with pytest.raises(ValueError, match="overflows"):
            GbmParams(100.0, 1000.0, 0.2)
        assert GbmParams(100.0, 705.0, 0.2).mu == 705.0

    def test_overflowing_sigma_squared_rejected(self):
        # a float ** raises OverflowError past sigma of about 1.34e154
        with pytest.raises(ValueError, match="^sigma\\^2 overflows$"):
            GbmParams(100.0, 0.05, 1e160)
        assert np.isfinite(GbmParams(100.0, 0.05, 1e154).effective_drift)


class TestGuardBytes:
    @pytest.mark.parametrize("run, what, need", [
        (lambda: pricing.price_baseline(MARKET, SPEC64, 1000, seed=1),
         "flat kernel buffer", 521_536),
        (lambda: pricing.price_subsample(MARKET, pricing.AsianPayoffSpec(100.0, 1000), 0.1, 1000,
                                         seed=1), "flat kernel buffer", 810_400),
        (lambda: analysis.truncation_error_sweep([8, 32]), "truncation probe", 156_416),
        (lambda: analysis.smoothness_probe(0.05), "smoothness probe", 145_232),
        (lambda: analysis.subsample_error_probe([0.1], T=1024), "subsample-error probe", 44_960),
        (lambda: pricing.price_kl_nested(MARKET, SPEC64, 0.1, M0=2, M1=2, L=1000, seed=1),
         "a draw's series of 1001 coefficients", 40_040),
        (lambda: pricing.price_kl_nested(MARKET, SPEC64, 0.1, seed=1),
         "outer sample of 400 draws", 6_400),
        (lambda: pricing.price_kl_nested(MARKET, SPEC64, 0.1, M0=2, seed=1, inner_mode="uniform"),
         "uniform-mode draw of 400 inner samples", 25_600),
        (lambda: qsim.RegisterLayout(coeff_qubits=3, n_coeff_registers=3, time_qubits=0,
                                     value_qubits=0), "9-qubit complex128 state", 8_192),
        (lambda: qsim.attach_value_rotation(_eight_qubit_state()), "9-qubit complex128 state",
         8_192),
    ], ids=["baseline", "subsample", "truncation", "smoothness", "subsample-error",
            "nested-series", "nested-outer", "nested-uniform", "layout", "rotation"])
    def test_one_constant_moves_every_guard(self, monkeypatch, draws, run, what, need):
        # a 4 KiB budget refuses each small request, at its own count and
        # with the one message, before anything is drawn or allocated
        monkeypatch.setattr(process, "GUARD_BYTES", 1 << 12)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == f"{what} needs {need} bytes, past the 4096-byte guard"
        assert (draws, peak < 1 << 20) == ([], True)


class TestStreams:
    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 3])
    def test_streams_match_stream(self, seed):
        # seeds of 1 to 5 words; the first draws of each stream, bit for bit
        indices = [0, 1, 399, 2**31, 2**32 - 1]
        for tag in (process.TAG_PATHS, process.TAG_NESTED):
            many = process.streams(seed, tag, indices)
            for i, rng in zip(indices, many, strict=True):
                ref = stream(seed, tag, i)
                assert rng.random(5).tolist() == ref.random(5).tolist()
                assert rng.standard_normal(5).tolist() == ref.standard_normal(5).tolist()

    def test_streams_cross_hash_blocks(self, monkeypatch):
        monkeypatch.setattr(process, "_HASH_BLOCK", 3)
        many = [rng.random() for rng in process.streams(11, process.TAG_NESTED, range(8))]
        assert many == [stream(11, process.TAG_NESTED, i).random() for i in range(8)]

    @pytest.mark.parametrize("seed, indices", [
        (1, [2**32]), (1, [5, -1]), (-1, [0]),
    ])
    def test_keys_outside_the_hash_rejected(self, seed, indices):
        # an index is one 32-bit word of SeedSequence entropy; a seed is >= 0
        with pytest.raises(ValueError):
            next(process.streams(seed, process.TAG_NESTED, indices))


class TestSampleCoefficients:
    def test_deterministic_given_seed(self):
        a = sample_coefficients(stream(7, 1, 0), 16)
        b = sample_coefficients(stream(7, 1, 0), 16)
        assert np.array_equal(a.a, b.a)

    def test_mean_near_zero(self):
        rng = stream(5, 1, 1)
        draws = np.concatenate([sample_coefficients(rng, 999).a for _ in range(1000)])
        assert abs(draws.mean()) < 4.0 / np.sqrt(draws.size)

    def test_no_clipping_at_eight(self):
        rng = stream(5, 1, 2)
        c = sample_coefficients(rng, 200_000)
        assert c.n_clipped == 0

    def test_clip_accounting_exact(self):
        # normals scaled to standard deviation 2 CLIP: about 62% of the draws
        # lie beyond +-CLIP
        class Wide(np.random.Generator):
            def standard_normal(self, size=None, dtype=np.float64, out=None):
                z = super().standard_normal(size, dtype=dtype, out=out)
                z *= 2.0 * CLIP  # in place: the rows are filled through out=
                return z

        c = sample_coefficients(Wide(stream(5, 1, 3).bit_generator), 100_000)
        raw = 2.0 * CLIP * stream(5, 1, 3).standard_normal(100_001)
        assert c.n_clipped == int(np.count_nonzero(np.abs(raw) > CLIP))
        assert c.n_clipped > 0
        assert np.abs(c.a).max() <= CLIP
        assert np.array_equal(c.a, np.clip(raw, -CLIP, CLIP))

    def test_invalid_stream_fatal(self):
        with pytest.raises(TypeError):
            sample_coefficients(np.random.RandomState(0), 4)


class TestGbmFromBm:
    def test_identity_at_origin(self):
        assert gbm_from_bm(0.0, 0.0, MARKET) == pytest.approx(100.0)

    def test_drift_cancellation(self):
        flat = GbmParams(100.0, 0.02, 0.2)  # mu = sigma^2/2
        for t in (0.0, 0.3, 1.0):
            assert gbm_from_bm(0.0, t, flat) == pytest.approx(100.0, rel=1e-14)

    def test_closed_value(self):
        assert gbm_from_bm(0.5, 1.0, MARKET) == pytest.approx(100.0 * np.exp(0.13), rel=1e-12)


def _kernel_column(times, n, seed, col):
    """Column ``col`` of log(S(t)/s0) over n paths of the flat estimators' kernel."""
    columns = []

    def payoff(logs):
        columns.append(logs[:, col].copy())  # the next block reuses the buffer
        return columns[-1]

    pricing._flat_moments(MARKET, times, n, seed, process.TAG_PATHS, payoff)  # in block order
    return np.concatenate(columns)


class TestSequentialPaths:
    def test_terminal_log_mean(self):
        # terminal column of the flat estimators' path kernel: E log(S_1/s0) = drift
        n = 200_000
        times = np.array([0.25, 0.5, 0.75, 1.0])
        terminal = _kernel_column(times, n, 9, -1)
        assert np.unique(terminal).size == n
        assert abs(terminal.mean() - MARKET.effective_drift) < 4.0 * MARKET.sigma / np.sqrt(n)

    @pytest.mark.parametrize("t_idx, t", [(0, 0.25), (3, 1.0)])
    def test_marginal_law_ks(self, t_idx, t):
        # the flat estimators' path kernel, over four blocks (one partial)
        n = 100_000
        times = np.array([0.25, 0.5, 0.75, 1.0])
        vals = np.log(100.0) + _kernel_column(times, n, 17, t_idx)
        assert np.unique(vals).size == n
        mean = np.log(100.0) + MARKET.effective_drift * t
        sd = MARKET.sigma * np.sqrt(t)
        res = kstest(vals, norm(loc=mean, scale=sd).cdf)
        assert res.pvalue > 1e-3


class TestGmaxBound:
    def test_no_diffusion_limit(self):
        params = GbmParams(1.0, 0.0, 1e-15)
        assert g_max_bound(params, 5) == pytest.approx(1.0, rel=1e-9)

    def test_l_zero_closed_form(self):
        # sup |a0 t| = CLIP and a negative drift: s0 exp(sigma CLIP) = e
        params = GbmParams(1.0, 0.0, 1.0 / CLIP)
        assert g_max_bound(params, 0) == pytest.approx(np.e, rel=1e-12)

    @pytest.mark.parametrize("L", [0, 1, 21, 4095])
    @pytest.mark.parametrize("market", ["golden", (80.0, -0.1, 0.5)], ids=["golden", "s0=80"])
    def test_bits_pinned(self, L, market, golden_market):
        # the closed formula, s0 exp(sigma CLIP (1 + sqrt(2)/pi H_L) + max(drift, 0)),
        # with the harmonic number H_L summed by np.sum; g_max_bound is
        # path_envelope at the all-CLIP row, and CLIP = 8 being a power of
        # two makes the two roundings agree
        params = golden_market if market == "golden" else GbmParams(*market)
        harmonic = float(np.sum(1.0 / np.arange(1, L + 1))) if L > 0 else 0.0
        sup_b = CLIP * (1.0 + np.sqrt(2.0) / np.pi * harmonic)
        expect = float(params.s0 * np.exp(params.sigma * sup_b + max(params.effective_drift, 0.0)))
        assert g_max_bound(params, L) == expect

    def test_dominates_sampled_paths(self):
        L = 24
        bound = g_max_bound(MARKET, L)
        rng = stream(21, 1, 9)
        worst = 0.0
        for _ in range(100):
            coeffs = sample_coefficients(rng, L)
            t = rng.random(1000)
            g = gbm_from_bm(wiener_eval_horner(coeffs, t), t, MARKET)
            worst = max(worst, float(np.max(g)))
        assert worst <= bound


@st.composite
def clipped_draws(draw):
    L = draw(st.integers(0, 48))
    a = draw(st.lists(st.floats(-CLIP, CLIP), min_size=L + 1, max_size=L + 1))
    params = GbmParams(
        s0=draw(st.floats(1.0, 200.0)),
        mu=draw(st.floats(-1.0, 1.0)),
        sigma=draw(st.floats(0.01, 1.0)),
    )
    return WienerCoefficients(a=np.array(a)), params


class TestPathEnvelope:
    @settings(max_examples=200, deadline=None)
    @given(clipped_draws())
    def test_dominates_path_on_dense_grid(self, draw):
        coeffs, params = draw
        t = np.linspace(0.0, 1.0, 4097)
        g = gbm_from_bm(wiener_eval_horner(coeffs, t), t, params)
        assert np.max(g) <= path_envelope(params, coeffs.a) * (1.0 + 1e-12)

    def test_rows_match_one_row_calls(self):
        a = np.array([sample_coefficients(stream(3, 3, i), 21).a for i in range(50)])
        env = path_envelope(MARKET, a)
        assert env.tolist() == [path_envelope(MARKET, row) for row in a]

    def test_all_coefficients_at_clip_match_global_bound(self):
        coeffs = WienerCoefficients(a=np.full(13, -CLIP))
        assert path_envelope(MARKET, coeffs.a) == pytest.approx(g_max_bound(MARKET, 12), rel=1e-12)


def grid_pmf(coeffs, params, T):
    """Exact target of the sampler: G_L(i/T) / sum_j G_L(j/T) over i = 1..T."""
    t = np.arange(1, T + 1) / T
    g = gbm_from_bm(wiener_eval_horner(coeffs, t), t, params)
    return g / g.sum(), float(g.mean())


def chi2_stat(times, pmf):
    T = pmf.size
    observed = np.bincount(np.rint(times * T).astype(int) - 1, minlength=T)
    expected = times.size * pmf
    return float(((observed - expected) ** 2 / expected).sum())


class TestRejectionSampler:
    def test_flat_target_accepts_everything(self):
        coeffs = WienerCoefficients(a=np.zeros(3))
        # flat path at s0: envelope equal to the path accepts every proposal
        flat = GbmParams(100.0, 0.0, 1e-13)
        gmax = 100.0 * (1 + 1e-10)
        times, n_prop = rejection_sample_times(stream(2, 3, 0), coeffs, 20_000, gmax, flat, 16)
        assert n_prop == 20_000
        assert chi2_stat(times, np.full(16, 1.0 / 16)) < chi2.ppf(1.0 - 1e-3, df=16 - 1)

    def test_goodness_of_fit_against_grid_pmf(self):
        L, T = 16, 50
        rng = stream(4, 3, 1)
        coeffs = sample_coefficients(rng, L)
        gmax = g_max_bound(MARKET, L)
        n = 50_000
        times, n_prop = rejection_sample_times(stream(4, 3, 2), coeffs, n, gmax, MARKET, T)
        pmf, mean = grid_pmf(coeffs, MARKET, T)
        assert chi2_stat(times, pmf) < chi2.ppf(1.0 - 1e-3, df=T - 1)
        # acceptance rate against the grid mean of the target over the envelope
        rate = n / n_prop
        p = mean / gmax
        assert abs(rate - p) <= 3.0 * np.sqrt(p * (1 - p) / n_prop)

    def test_envelope_scaling_invariance(self):
        L, T = 8, 64
        coeffs = sample_coefficients(stream(6, 3, 3), L)
        g1 = g_max_bound(MARKET, L)
        g2 = 2.0 * g1
        t1, n1 = rejection_sample_times(stream(6, 3, 4), coeffs, 20_000, g1, MARKET, T)
        t2, n2 = rejection_sample_times(stream(6, 3, 5), coeffs, 20_000, g2, MARKET, T)
        assert n2 / n1 == pytest.approx(2.0, rel=0.05)
        pmf, _ = grid_pmf(coeffs, MARKET, T)
        for times in (t1, t2):
            assert chi2_stat(times, pmf) < chi2.ppf(1.0 - 1e-3, df=T - 1)

    def test_snap_mode_hits_grid(self):
        # every proposal snaps to a monitoring time i/T
        coeffs = sample_coefficients(stream(8, 3, 6), 4)
        gmax = g_max_bound(MARKET, 4)
        times, _ = rejection_sample_times(stream(8, 3, 7), coeffs, 5000, gmax, MARKET, 16)
        assert np.array_equal(times * 16, np.round(times * 16))
        assert times.min() >= 1.0 / 16 and times.max() <= 1.0

    def test_large_T_evaluates_only_proposals(self, monkeypatch):
        T = 1 << 20
        evaluated = []

        def recording(coeffs, t):
            evaluated.append(np.array(t))
            return wiener_eval_horner(coeffs, t)

        class Counting(np.random.Generator):
            drawn = 0

            def random(self, size=None, dtype=np.float64, out=None):
                u = super().random(size, dtype=dtype, out=out)
                Counting.drawn += u.shape[0]
                return u

        monkeypatch.setattr(process, "wiener_eval_horner", recording)
        coeffs = sample_coefficients(stream(8, 3, 6), 12)
        env = path_envelope(MARKET, coeffs.a)
        rng = Counting(stream(8, 3, 7).bit_generator)
        times, n_prop = rejection_sample_times(rng, coeffs, 400, env, MARKET, T)
        points = np.concatenate(evaluated)
        # one series point per proposal drawn, each a monitoring time
        assert points.size == Counting.drawn
        assert n_prop <= points.size <= T // 1000
        assert np.array_equal(points * T, np.round(points * T))
        assert np.isin(times, points).all()

    def test_starvation_guard(self):
        coeffs = WienerCoefficients(a=np.zeros(2))
        with pytest.raises(process.RejectionStarvedError):
            rejection_sample_times(stream(1, 3, 8), coeffs, 1, 1e12, MARKET, 64)

    @pytest.mark.parametrize("gmax", [0.0, -1.0])
    def test_non_positive_envelope_violates_contract(self, gmax):
        # the path is positive, so it exceeds any gmax <= 0 on the first proposal
        coeffs = WienerCoefficients(a=np.zeros(2))
        with np.errstate(divide="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="exceeded the envelope"):
                rejection_sample_times(stream(1, 3, 8), coeffs, 1, gmax, MARKET, 64)

    @pytest.mark.parametrize("T", [16, 1 << 20])
    def test_batch_sizes_do_not_change_result(self, monkeypatch, T):
        coeffs = sample_coefficients(stream(14, 3, 0), 12)
        env = path_envelope(MARKET, coeffs.a)
        ref = rejection_sample_times(stream(14, 3, 1), coeffs, 300, env, MARKET, T)
        # a ceiling of 7 makes every batch short of the proposals it needs
        for floor, ceiling in ((1, 1 << 20), (4096, 1 << 20), (100_000, 1 << 20), (1, 7)):
            monkeypatch.setattr(process, "_MIN_BATCH", floor)
            monkeypatch.setattr(process, "_MAX_BATCH", ceiling)
            got = rejection_sample_times(stream(14, 3, 1), coeffs, 300, env, MARKET, T)
            assert got[1] == ref[1]
            assert np.array_equal(got[0], ref[0])

    @pytest.mark.parametrize("T, n_prop, digest", [
        (16, 422, "98e83817b9f5fea11225fdb897d67bdde4c69d5c30a81bef60eaca65e232629b"),
        (1 << 20, 425, "91a73332a101a92425bcc1571695dc7751449f606070b90fdfbd689f21d5ad36"),
    ])
    def test_draws_pinned(self, T, n_prop, digest):
        # the batch-invariance test above compares the sampler with itself;
        # this pins its proposal count and the bits of its accepted times
        coeffs = sample_coefficients(stream(14, 3, 0), 12)
        env = path_envelope(MARKET, coeffs.a)
        times, got = rejection_sample_times(stream(14, 3, 1), coeffs, 300, env, MARKET, T)
        assert got == n_prop
        assert hashlib.sha256(times.tobytes()).hexdigest() == digest

    @pytest.mark.parametrize("T", [16, 1 << 20])
    def test_one_cell_is_the_scalar_bound(self, T):
        coeffs = sample_coefficients(stream(14, 3, 0), 12)
        env = path_envelope(MARKET, coeffs.a)
        times, n_prop = rejection_sample_times(stream(14, 3, 1), coeffs, 300, env, MARKET, T)
        cell_times, cell_prop = rejection_sample_times(
            stream(14, 3, 1), coeffs, 300, np.array([env]), MARKET, T)
        assert cell_prop == n_prop and np.array_equal(cell_times, times)

    @pytest.mark.parametrize("T", [50, 7])
    def test_cells_keep_the_target_pmf(self, T):
        # proposals by cells, a cell with probability n_c env_c / sum, then
        # a point in it: the accepted times keep the pmf G_L(i/T) / sum_j,
        # and the rate is the path's mean over the cells' mean, sum_c n_c
        # env_c / T; J = 64 cells here, so 14 hold no point at T = 50 and
        # 57 at T = 7
        L, n = 16, 50_000
        coeffs = sample_coefficients(stream(4, 3, 1), L)
        env = np.array([path_envelope(MARKET, coeffs.a)])
        bound, ebar, _ = process.cell_envelopes(MARKET, coeffs.a[None], env, T, T, {})
        assert bound.shape == (1, 64)
        times, n_prop = rejection_sample_times(stream(4, 3, 2), coeffs, n, bound[0], MARKET, T)
        pmf, mean = grid_pmf(coeffs, MARKET, T)
        assert chi2_stat(times, pmf) < chi2.ppf(1.0 - 1e-3, df=T - 1)
        p = mean / ebar[0]
        assert abs(n / n_prop - p) <= 3.0 * np.sqrt(p * (1 - p) / n_prop)

    def test_determinism(self):
        coeffs = sample_coefficients(stream(12, 3, 9), 8)
        gmax = g_max_bound(MARKET, 8)
        t1, n1 = rejection_sample_times(stream(12, 3, 10), coeffs, 1000, gmax, MARKET, 64)
        t2, n2 = rejection_sample_times(stream(12, 3, 10), coeffs, 1000, gmax, MARKET, 64)
        assert n1 == n2
        assert np.array_equal(t1, t2)
