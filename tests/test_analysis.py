"""Bound-verification probes: trivial identities, reproducibility, schema."""

import csv
import json
import tracemalloc

import numpy as np
import pytest

from klpricer import analysis
from klpricer.analysis import (
    BoundReport,
    convergence_study,
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
        assert (rep.n_samples, rep.seed) == (0, 0)


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

    def test_fine_epsilon_runs(self):
        # L = 202,643 modes on the 8 distinct times: a 13 MB mode matrix
        rep = smoothness_probe(0.001)
        assert (rep.parameter_grid[0]["L"], rep.all_pass) == (202_643, True)


class TestSubsampleProbe:
    def test_exact_refinement_is_zero(self):
        # M = 256 >= T = 64 and a multiple of it: rounding is the identity
        rep = subsample_error_probe([1.0 / 16.0], T=64, n_paths=100, seed=1)
        assert rep.measured == [0.0]

    def test_grid_capped_at_t_is_zero_error(self, draws):
        # ceil(1/eps^2) = 100, 400 and beyond are past T = 64, which does not
        # divide them: the estimator prices the T points, M = T, and no path
        # is drawn
        rep = subsample_error_probe([0.1, 0.05, 1e-200], T=64, n_paths=100, seed=1)
        assert (rep.measured, draws) == ([0.0, 0.0, 0.0], [])
        assert [p["M"] for p in rep.parameter_grid] == [64, 64, 64]

    def test_point_ratio_quadratic(self):
        rep = subsample_error_probe([0.1, 0.05], T=512, n_paths=12_000, seed=2)
        r = rep.extras["point_mse_halving_ratios"][0]
        assert 3.0 <= r <= 5.0
        assert rep.all_pass
        # the averaged payoff cancels most of the error: its ratio is larger
        assert rep.extras["payoff_mse_halving_ratios"][0] > r

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1])
    def test_epsilon_range_guard(self, eps):
        with pytest.raises(ValueError):
            subsample_error_probe([0.1, eps], T=64, n_paths=10, seed=1)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            subsample_error_probe([], T=64, n_paths=10, seed=1)

    def test_fitted_constant_bounds_measured(self):
        rep = subsample_error_probe([0.2, 0.1], T=256, n_paths=5_000, seed=3)
        for m, b in zip(rep.measured, rep.bound_values):
            assert m <= b * (1 + 1e-12)


class TestConvergenceStudy:
    def test_baseline_slope(self, golden):
        rep = convergence_study(
            "baseline",
            [500, 2000, 8000, 32000],
            n_replicates=30,
            seed=4,
            oracle=golden["value"],
        )
        assert abs(rep.extras["slope"] + 0.5) <= 0.15

    def test_degenerate_zero_variance(self):
        params = GbmParams(100.0, 0.05, 1e-12)
        rep = convergence_study(
            "baseline", [100, 200, 400, 800], params=params, n_replicates=3, seed=5
        )
        assert rep.extras["degenerate"]
        assert rep.all_pass

    def test_needs_four_budgets(self):
        with pytest.raises(ValueError):
            convergence_study("baseline", [100, 200], n_replicates=3, seed=6)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            convergence_study("nope", [1, 2, 3, 4], seed=0)

    @pytest.mark.parametrize("budgets, message", [
        ([100, 100, 100, 100], "budgets must be distinct"),
        ([100, 200, 400, 400], "budgets must be distinct"),
        ([1, 200, 400, 800], "each >= 2"),
    ])
    def test_budgets_checked_before_the_oracle(self, draws, budgets, message):
        # the 10^6-path oracle runs only for a grid that can be fitted
        with pytest.raises(ValueError, match=message):
            convergence_study("baseline", budgets, n_replicates=3, seed=6)
        assert draws == []


@pytest.mark.parametrize("run, message", [
    # two equal levels give a rank-deficient slope fit
    (lambda: truncation_error_sweep([8, 32, 8]),
     r"L values must be distinct, got \[8, 8, 32\]"),
    (lambda: verify_mapped_bound(0.0, 0.2, [0.1, 0.1]),
     r"eps values must be distinct, got \[0.1, 0.1\]"),
    (lambda: subsample_error_probe([0.2, 0.1, 0.2], T=64, n_paths=10),
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
], ids=["truncation", "smoothness", "mapped"])
def test_exact_probes_draw_nothing_and_pass_at_the_cli_defaults(draws, run):
    rep = run()
    assert (draws, rep.n_samples, rep.all_pass) == ([], 0, True)


def _probe_peak(monkeypatch, run):
    """Bytes a probe's guard counts, and the tracemalloc peak of a warm run."""
    counted = []
    check = analysis._check_probe_bytes
    monkeypatch.setattr(analysis, "_check_probe_bytes",
                        lambda probe, n: counted.append(8 * n) or check(probe, n))
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
    lambda: subsample_error_probe([0.2, 0.1], T=4096, n_paths=3_000, seed=1),
], ids=["truncation", "smoothness", "subsample-error"])
def test_probe_guard_counts_what_the_probe_holds(monkeypatch, run):
    # the count bounds the measured peak, and is not so loose that it
    # rejects requests the probe could run
    counted, peak = _probe_peak(monkeypatch, run)
    assert peak <= counted <= 1.5 * peak


@pytest.mark.parametrize("run, need", [
    (lambda: smoothness_probe(1e-4), 4_052_847_400),
    (lambda: truncation_error_sweep([8, 32, 10**6]), 1_536_000_000),
    (lambda: subsample_error_probe([0.1, 0.05], T=40_000_000, n_paths=100_000), 11_200_028_000),
], ids=["smoothness", "truncation", "subsample-error"])
def test_probe_guard_runs_before_anything_is_allocated(draws, run, need):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"holds {need} bytes, past the 268435456-byte guard"):
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
            n_samples=10,
            seed=1,
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
        rep = truncation_error_sweep([16])
        path = tmp_path / "r.json"
        write_report_json(rep, path)
        data = json.loads(path.read_text())
        assert data["bound_name"] == "truncation_tail"
        assert data["passes"] == [True]
        assert "loglog_slope" in data["extras"]
