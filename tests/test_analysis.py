"""Bound-verification probes: trivial identities, reproducibility, schema."""

import csv
import decimal
import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpricer import analysis, pricing, process
from klpricer.analysis import (
    BoundReport,
    smoothness_probe,
    subsample_error_probe,
    truncation_error_sweep,
    verify_mapped_bound,
    write_report_csv,
    write_report_json,
)
from klpricer.process import GbmParams


class TestTruncationSweep:
    def test_bounds_hold_at_reduced_size(self):
        rep = truncation_error_sweep([8, 32])
        assert rep.all_pass
        assert rep.measured[0] > rep.measured[1]  # monotone decrease in L

    def test_rejects_zero_order(self):
        # the bound 2/(pi^2 L) needs L >= 1
        with pytest.raises(ValueError):
            truncation_error_sweep([0, 8])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            truncation_error_sweep([])

    def test_measured_is_the_exact_tail(self):
        # E[(B(t) - B_L(t))^2] = sum_{k>L} 2 sin^2(k pi t)/(pi^2 k^2), and the
        # sum over all k is t(1 - t); the rounding of L terms of size at most
        # 1/4 bounds the difference
        L_values = [8, 32, 128]
        rep = truncation_error_sweep(L_values)
        t = (np.arange(64) + 0.5) / 64
        for L, m in zip(L_values, rep.measured):
            k = np.arange(1, L + 1)[:, None]
            head = np.sum(2.0 * np.sin(k * np.pi * t) ** 2 / (np.pi * k) ** 2, axis=0)
            assert m == pytest.approx(np.max(t * (1.0 - t) - head), rel=0, abs=1e-16 * L)

    def test_measured_pinned(self):
        # the bits of the probe's sums over the series_basis modes
        assert truncation_error_sweep([8, 32, 128]).measured == [
            0.015992183497106446, 0.004111812635997032, 0.0007915556294589565,
        ]


class TestMappedBound:
    def test_zero_epsilon_is_zero(self):
        rep = verify_mapped_bound(0.0, 0.2, [0.0])
        assert rep.measured == [0.0]
        assert rep.all_pass

    def test_pure_noise_case_matches_quadrature(self):
        # mu = 0, sigma = 0 collapses to E[(1 - e^Z)^2]; the closed form
        # cancels to eps^2 = 0.01, so it holds about 14 digits
        rep = verify_mapped_bound(0.0, 0.0, [0.1])
        closed = 1.0 - 2.0 * np.exp(0.1**2 / 2) + np.exp(2 * 0.1**2)
        assert rep.measured[0] == pytest.approx(closed, rel=1e-12, abs=0)

    def test_golden_parameters(self):
        rep = verify_mapped_bound(0.0, 0.2, [0.05])
        closed = np.exp(0.08) * (1.0 - 2.0 * np.exp(0.05**2 / 2) + np.exp(2 * 0.05**2))
        assert rep.measured[0] == pytest.approx(closed, rel=1e-12, abs=0)
        bound = np.exp(0.08 + 2 * 0.05**2) * 0.0025
        assert rep.bound_values[0] == pytest.approx(bound, rel=1e-15, abs=0)
        assert rep.measured[0] <= rep.bound_values[0]

    @pytest.mark.parametrize("eps", [5e-9, 1e-10, 3e-14, 1e-60])
    def test_passes_where_rounding_hides_the_margin(self, eps):
        # the bound exceeds the distance by a relative eps^2/4, below a
        # double's rounding here: the two closed forms, compared in floating
        # point, read a failed check at each of these
        rep = verify_mapped_bound(0.05, 0.2, [eps])
        assert rep.all_pass
        assert rep.measured[0] == pytest.approx(np.exp(0.18) * eps**2, rel=1e-15, abs=0)

    def test_epsilon_range_guard(self):
        with pytest.raises(ValueError):
            verify_mapped_bound(0.0, 0.2, [0.7])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            verify_mapped_bound(0.0, 0.2, [])

    @pytest.mark.parametrize("eps", [0.05, 0.1])
    def test_bound_dominates_exact_distance(self, eps):
        # the distance is E[e^{2X}] E[(1 - e^Z)^2], and E[e^{2X}] = e^{2 mu + 2 sigma^2}
        # exceeds (E e^X)^2 = e^{2 mu + sigma^2} by e^{sigma^2}: about 28% at sigma = 0.5
        mu, sigma = 0.05, 0.5
        rep = verify_mapped_bound(mu, sigma, [eps])
        exact = np.exp(2 * mu + 2 * sigma**2) * (1 - 2 * np.exp(eps**2 / 2) + np.exp(2 * eps**2))
        assert rep.measured[0] == pytest.approx(exact, rel=1e-12, abs=0)
        assert exact <= rep.bound_values[0] <= exact * np.exp(2 * eps**2)


def _pair_index(report, s, t):
    """Index of the (s, t) pair in a smoothness report's grid."""
    return [(p["s"], p["t"]) for p in report.parameter_grid].index((s, t))


class TestSmoothnessProbe:
    def test_coincident_pair_is_zero(self):
        rep = smoothness_probe(0.1)
        assert rep.measured[_pair_index(rep, 0.5, 0.5)] == 0.0
        assert rep.all_pass

    def test_exact_bm_reference_reported(self):
        rep = smoothness_probe(0.1)
        i = _pair_index(rep, 0.2, 0.7)
        assert rep.extras["exact_bm_value"][i] == pytest.approx(0.5)
        # truncated increments stay close to the Brownian value
        assert rep.measured[i] == pytest.approx(0.5, rel=0.1)

    def test_default_grid_passes(self):
        rep = smoothness_probe(0.1)
        assert rep.all_pass
        assert all(b2 >= b1 for b1, b2 in zip(rep.bound_values, rep.extras["bounds_cm2"]))

    @pytest.mark.parametrize("eps", [0.1, 0.02])
    def test_measured_is_the_exact_increment_variance(self, eps):
        # B_L(t) - B_L(s) = a_0 (t - s)
        #                   + sum_{k<=L} a_k (sqrt(2)/(pi k)) (sin k pi t - sin k pi s);
        # the rounding of a sum of L terms bounds the difference
        rep = smoothness_probe(eps)
        k = np.arange(1, rep.parameter_grid[0]["L"] + 1)
        for p, m in zip(rep.parameter_grid, rep.measured):
            s, t = p["s"], p["t"]
            modes = 2.0 * (np.sin(k * np.pi * t) - np.sin(k * np.pi * s)) ** 2 / (np.pi * k) ** 2
            assert m == pytest.approx((t - s) ** 2 + np.sum(modes), rel=1e-13, abs=1e-15)

    def test_measured_pinned(self):
        # the bits of the probe's increments over the series_basis modes, pair by pair
        assert smoothness_probe(0.1).measured == [
            0.09503785516938812, 0.19510862287866185, 0.3453045714788991,
            0.4953976543748543, 0.6952421959743315, 0.8950378551693882,
            1.0, 0.09033858242548645, 0.24054223237810624,
            0.39016836335290306, 0.5900555693617853, 0.7899892753196653,
            0.8950378551693882, 0.14070781974155297, 0.2900098739906646,
            0.4899259381492088, 0.6899824875771787, 0.7951086228786619,
            0.14132601479062112, 0.3411765323402171, 0.5405885134890942,
            0.6453045714788991, 0.1900066869573645, 0.39016836335290306,
            0.4953976543748543, 0.19013851572517218, 0.29524219597433154,
            0.09503785516938806, 0.0,
        ]

    def test_fine_epsilon_runs(self):
        # L = 202,643 modes on the 8 distinct times: a 13 MB mode matrix
        rep = smoothness_probe(0.001)
        assert (rep.parameter_grid[0]["L"], rep.all_pass) == (202_643, True)


def _exact_grid_mse(s0, mu, sigma, T, M):
    """E[(A_T - A_M)^2] as the sum over all pairs of points of both grids, to 60 digits.

    The weights and times are exact fractions, and E[S(s) S(t)] =
    s0^2 e^{mu (s + t) + sigma^2 min(s, t)} is summed with no split, so the
    60 digits carry the cancellation of the weights, which sum to zero.
    Row i of the pair sum is d_i (sum_{j<i} d_j c_j + c_i sum_{j>=i} d_j),
    with d_i = w_i e^{mu u_i} and c_i = e^{sigma^2 u_i}.
    """
    weights = {}
    for n, sign in ((T, 1), (M, -1)):
        for i in range(1, n + 1):
            weights[Fraction(i, n)] = weights.get(Fraction(i, n), 0) + Fraction(sign, n)
    with decimal.localcontext(decimal.Context(prec=60)):
        D = decimal.Decimal
        pts = [(D(u.numerator) / D(u.denominator), D(w.numerator) / D(w.denominator))
               for u, w in sorted(weights.items())]
        drift = [w * (D(mu) * u).exp() for u, w in pts]
        vol = [(D(sigma) ** 2 * u).exp() for u, _ in pts]
        total, below, rest = D(0), D(0), sum(drift)
        for d, c in zip(drift, vol):
            total += d * (below + c * rest)
            below += d * c
            rest -= d
        return float(D(s0) ** 2 * total)


class TestSubsampleProbe:
    def test_exact_refinement_is_zero(self):
        # M = 256 >= T = 64 and a multiple of it: rounding is the identity
        rep = subsample_error_probe([1.0 / 16.0], T=64)
        assert rep.measured == [0.0]

    def test_grid_capped_at_t_is_zero_error(self, monkeypatch):
        # ceil(1/eps^2) = 100, 400 and beyond are past T = 64, which does not
        # divide them: the estimator prices the T points, M = T, and no sum is
        # taken
        monkeypatch.setattr(analysis, "_grid_mse", None)
        rep = subsample_error_probe([0.1, 0.05, 1e-200], T=64)
        assert rep.measured == [0.0, 0.0, 0.0]
        assert [p["M"] for p in rep.parameter_grid] == [64, 64, 64]

    def test_point_ratio_quadratic(self):
        # the bound, a per-point mean square over gaps below 1/M, falls
        # about 4-fold as eps halves; the averaged payoff cancels most of the
        # per-point error, so the measured ratio is larger
        rep = subsample_error_probe([0.1, 0.05], T=512)
        r = rep.bound_values[0] / rep.bound_values[1]
        assert 3.0 <= r <= 5.0
        assert rep.all_pass
        assert rep.measured[0] / rep.measured[1] > r

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_epsilon_range_guard(self, eps):
        with pytest.raises(ValueError):
            subsample_error_probe([0.1, eps], T=64)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            subsample_error_probe([], T=64)

    @pytest.mark.parametrize("T", [0, -1])
    def test_monitoring_count_checked(self, T):
        with pytest.raises(ValueError, match=r"^T must be >= 1$"):
            subsample_error_probe([0.1, 0.05], T=T)

    def test_overflowing_market_rejected(self):
        with pytest.raises(ValueError, match=r"overflows at s0 = 100.0, mu = 400.0, sigma = 0.2$"):
            subsample_error_probe([0.1], params=GbmParams(100.0, 400.0, 0.2))

    def test_measured_prices_the_estimators_grid(self):
        # on a deterministic path the error is A_T - A_M, the T-point mean
        # less the M-point grid mean that price_subsample averages
        params = GbmParams(100.0, 0.05, 1e-12)
        rep = subsample_error_probe([0.2, 0.1], T=256, params=params)
        for point, measured in zip(rep.parameter_grid, rep.measured):
            a_t, a_m = (np.mean(100.0 * np.exp(params.effective_drift * np.arange(1, n + 1) / n))
                        for n in (256, point["M"]))
            assert measured == pytest.approx((a_t - a_m) ** 2, rel=1e-9, abs=0)
        assert [p["M"] for p in rep.parameter_grid] == [25, 100]

    @pytest.mark.parametrize("s0, mu, sigma, T, eps", [
        (100.0, 0.05, 0.2, 64, [0.5, 0.25, 0.2]),
        # the split form's case: w C w in doubles reads 0 and 3.9e-30 here, for
        # a true 1.89e-22 and 3.02e-24
        (100.0, 0.0, 1e-12, 64, [0.5, 0.2]),
        (1.0, -0.3, 0.8, 37, [0.5, 0.3]),
        (50.0, 1.5, 0.05, 20, [0.6, 0.4]),
        (100.0, 0.05, 0.2, 1024, [0.1, 0.05]),
    ], ids=["golden", "sigma-1e-12", "negative-drift", "strong-drift", "cli-defaults"])
    def test_measured_matches_an_exact_reference(self, s0, mu, sigma, T, eps):
        rep = subsample_error_probe(eps, T=T, params=GbmParams(s0, mu, sigma))
        for point, measured in zip(rep.parameter_grid, rep.measured):
            exact = _exact_grid_mse(s0, mu, sigma, T, point["M"])
            assert measured == pytest.approx(exact, rel=1e-12, abs=0)

    @settings(max_examples=150, deadline=None)
    @given(
        s0=st.floats(1e-3, 1e3),
        mu=st.floats(-3.0, 3.0),
        sigma=st.floats(1e-8, 3.0),
        T=st.integers(1, 3000),
        eps=st.floats(0.01, 0.99),
    )
    def test_bound_holds_over_random_markets(self, s0, mu, sigma, T, eps):
        rep = subsample_error_probe([eps], T=T, params=GbmParams(s0, mu, sigma))
        assert rep.all_pass
        assert 0.0 <= rep.measured[0] <= rep.bound_values[0]

    def test_measured_agrees_with_coupled_monte_carlo(self):
        # one exact path per draw on the union of the two grids, read on
        # each: the mean of (A_T - A_M)^2 lies within 3 SE of the closed form
        params, T = GbmParams(100.0, 0.05, 0.2), 256
        rep = subsample_error_probe([0.2], T=T, params=params)
        M = rep.parameter_grid[0]["M"]
        fine, coarse = np.arange(1, T + 1) / T, np.arange(1, M + 1) / M
        union = np.union1d(fine, coarse)
        fi, ci = np.searchsorted(union, fine), np.searchsorted(union, coarse)

        def payoff(logs):
            s = np.exp(logs, out=logs)
            gap = params.s0 * (s[:, fi].mean(axis=1) - s[:, ci].mean(axis=1))
            return gap * gap

        n = 100_000
        sums = pricing._flat_moments(params, union, n, 7, process.TAG_PATHS, payoff)
        mean, se = pricing._mean_and_se(*sums, n)
        assert abs(mean - rep.measured[0]) <= 3.0 * se


@pytest.mark.parametrize("run, message", [
    # two equal levels give a rank-deficient slope fit
    (lambda: truncation_error_sweep([8, 32, 8]),
     r"L values must be distinct, got \[8, 8, 32\]"),
    (lambda: verify_mapped_bound(0.0, 0.2, [0.1, 0.1]),
     r"eps values must be distinct, got \[0.1, 0.1\]"),
    (lambda: subsample_error_probe([0.2, 0.1, 0.2], T=64),
     r"eps values must be distinct, got \[0.2, 0.1, 0.2\]"),
], ids=["truncation", "mapped", "subsample-error"])
def test_repeated_grid_values_rejected_before_any_draw(draws, run, message):
    with pytest.raises(ValueError, match=message):
        run()
    assert draws == []


@pytest.mark.parametrize("run", [
    lambda: truncation_error_sweep([8, 32, 128]),
    lambda: smoothness_probe(0.1),
    lambda: verify_mapped_bound(0.05, 0.2, [0.1, 0.05]),
    lambda: subsample_error_probe([0.1, 0.05], T=1024, params=GbmParams(100.0, 0.05, 0.2)),
], ids=["truncation", "smoothness", "mapped", "subsample-error"])
def test_exact_probes_draw_nothing_and_pass_at_the_cli_defaults(draws, run):
    rep = run()
    assert (draws, rep.all_pass) == ([], True)


def _probe_peak(monkeypatch, run):
    """Bytes a probe's guard counts, and the tracemalloc peak of a warm run."""
    counted = []
    check = process.check_bytes
    monkeypatch.setattr(process, "check_bytes",
                        lambda what, need: counted.append(need) or check(what, need))
    run()
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return max(counted), peak


@pytest.mark.parametrize("run", [
    lambda: truncation_error_sweep([8, 32, 2048]),
    lambda: smoothness_probe(0.005),
    lambda: subsample_error_probe([0.2, 0.1], T=4096),
], ids=["truncation", "smoothness", "subsample-error"])
def test_probe_guard_counts_what_the_probe_holds(monkeypatch, run):
    # the count bounds the measured peak, and is not so loose that it
    # rejects requests the probe could run
    counted, peak = _probe_peak(monkeypatch, run)
    assert peak <= counted <= 1.5 * peak


@pytest.mark.parametrize("run, need", [
    (lambda: smoothness_probe(1e-4), 1_459_164_392),
    (lambda: truncation_error_sweep([8, 32, 3 * 10**6]), 1_560_139_776),
    (lambda: subsample_error_probe([0.1, 0.05], T=40_000_000), 1_600_004_000),
], ids=["smoothness", "truncation", "subsample-error"])
def test_probe_guard_runs_before_anything_is_allocated(draws, run, need):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"probe needs {need} bytes, "
                                             "past the 1073741824-byte guard"):
            run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (draws, peak < 1 << 20) == ([], True)


class TestReportFiles:
    def test_csv_schema(self, tmp_path):
        rep = BoundReport(
            bound_name="demo",
            parameter_grid=[{"L": 8}],
            measured=[0.1],
            bound_values=[0.2],
            passes=[True],
        )
        path = tmp_path / "demo.csv"
        write_report_csv(rep, path)
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bound_name", "parameters", "measured", "bound", "pass"]
        assert rows[1][0] == "demo"
        assert json.loads(rows[1][1]) == {"L": 8}
        assert float(rows[1][2]) == 0.1

    def test_json_round_trip(self, tmp_path):
        rep = truncation_error_sweep([16, 64])
        path = tmp_path / "r.json"
        write_report_json(rep, path)
        data = json.loads(path.read_text())
        assert data["bound_name"] == "truncation_tail"
        assert data["passes"] == [True, True]
        assert "loglog_slope" in data["extras"]
