"""Bound-verification probes: trivial identities, reproducibility, schema."""

import csv
import json

import numpy as np
import pytest

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
        rep = truncation_error_sweep([8, 32], L_ref=512, n_paths=20_000, seed=3)
        assert rep.all_pass
        assert rep.measured[0] > rep.measured[1]  # monotone decrease in L

    def test_requires_wide_reference(self):
        with pytest.raises(ValueError):
            truncation_error_sweep([128], L_ref=256)

    def test_rejects_zero_order(self):
        # the bound 2/(pi^2 L) needs L >= 1
        with pytest.raises(ValueError):
            truncation_error_sweep([0, 8], L_ref=512, n_paths=10)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            truncation_error_sweep([])

    def test_reproducible_bit_for_bit(self):
        a = truncation_error_sweep([16], L_ref=256, n_paths=5_000, seed=9)
        b = truncation_error_sweep([16], L_ref=256, n_paths=5_000, seed=9)
        assert a.measured == b.measured


class TestMappedBound:
    def test_zero_epsilon_is_zero(self):
        rep = verify_mapped_bound(0.0, 0.2, [0.0], n_samples=100)
        assert rep.measured == [0.0]
        assert rep.all_pass

    def test_pure_noise_case_matches_quadrature(self):
        # mu = 0, sigma = 0 collapses to E[(1 - e^Z)^2]
        rep = verify_mapped_bound(0.0, 0.0, [0.1], n_samples=400_000, seed=5)
        closed = 1.0 - 2.0 * np.exp(0.1**2 / 2) + np.exp(2 * 0.1**2)
        assert rep.extras["quadrature_oracle"][0] == pytest.approx(closed, rel=1e-9)
        assert abs(rep.extras["oracle_z_scores"][0]) < 3.0

    def test_golden_parameters(self):
        rep = verify_mapped_bound(0.0, 0.2, [0.05], n_samples=400_000, seed=6)
        assert rep.measured[0] <= np.exp(0.04) * 0.0025 * 1.1
        assert abs(rep.extras["oracle_z_scores"][0]) < 3.0

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
        rep = verify_mapped_bound(mu, sigma, [eps], n_samples=1000, seed=1)
        exact = np.exp(2 * mu + 2 * sigma**2) * (1 - 2 * np.exp(eps**2 / 2) + np.exp(2 * eps**2))
        assert rep.extras["quadrature_oracle"][0] == pytest.approx(exact, rel=1e-12)
        assert exact <= rep.bound_values[0] <= exact * np.exp(2 * eps**2)


def _pair_index(report, s, t):
    """Index of the (s, t) pair in a smoothness report's grid."""
    return [(p["s"], p["t"]) for p in report.parameter_grid].index((s, t))


class TestSmoothnessProbe:
    def test_coincident_pair_is_zero(self):
        rep = smoothness_probe(0.1, n_paths=2_000, seed=7)
        assert rep.measured[_pair_index(rep, 0.5, 0.5)] == 0.0
        assert rep.all_pass

    def test_exact_bm_reference_reported(self):
        rep = smoothness_probe(0.1, n_paths=50_000, seed=8)
        i = _pair_index(rep, 0.2, 0.7)
        assert rep.extras["exact_bm_value"][i] == pytest.approx(0.5)
        # truncated increments stay close to the Brownian value
        assert rep.measured[i] == pytest.approx(0.5, rel=0.1)

    def test_default_grid_passes(self):
        rep = smoothness_probe(0.1, n_paths=30_000, seed=9)
        assert rep.all_pass
        assert all(b2 >= b1 for b1, b2 in zip(rep.bound_values, rep.extras["bounds_cm2"]))


class TestSubsampleProbe:
    def test_exact_refinement_is_zero(self):
        # M = 256 >= T = 64 and a multiple of it: rounding is the identity
        rep = subsample_error_probe([1.0 / 16.0], T=64, n_paths=100, seed=1)
        assert rep.measured == [0.0]

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
    def test_baseline_slope(self):
        rep = convergence_study(
            "baseline",
            [500, 2000, 8000, 32000],
            n_replicates=30,
            seed=4,
            oracle=6.137688417341827,
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
        rep = truncation_error_sweep([16], L_ref=256, n_paths=2_000, seed=10)
        path = tmp_path / "r.json"
        write_report_json(rep, path)
        data = json.loads(path.read_text())
        assert data["bound_name"] == "truncation_tail"
        assert data["passes"] == [True]
        assert "loglog_slope" in data["extras"]
