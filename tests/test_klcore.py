"""Eigenbasis values, truncation bookkeeping, and series evaluation."""

import numpy as np
import pytest

from klpricer import klcore
from klpricer.klcore import (
    KlBasis,
    WienerCoefficients,
    kl_eigenfunction,
    kl_eigenvalue,
    kl_lipschitz_constant,
    tail_variance_bound,
    truncation_index_bm,
    wiener_eval,
    wiener_eval_horner,
)


def brute_tail(L, n_terms=10**7):
    """Independent oracle: explicit partial sum of the tail variance."""
    k = np.arange(L + 1, L + n_terms + 1, dtype=float)
    partial = np.sum(2.0 / ((k - 0.5) ** 2 * np.pi**2))
    return partial + 2.0 / (np.pi**2 * (L + n_terms))


class TestEigenpairs:
    def test_first_eigenvalue(self):
        assert kl_eigenvalue(1) == pytest.approx(4.0 / np.pi**2, rel=1e-14)
        assert kl_eigenvalue(1) == pytest.approx(0.4052847, abs=5e-7)

    def test_second_eigenvalue(self):
        assert kl_eigenvalue(2) == pytest.approx(4.0 / (9.0 * np.pi**2), rel=1e-14)

    def test_tenth_eigenvalue(self):
        assert kl_eigenvalue(10) == pytest.approx(1.0 / (9.5**2 * np.pi**2), rel=1e-14)

    def test_index_convention(self):
        with pytest.raises(ValueError):
            kl_eigenvalue(0)
        with pytest.raises(ValueError):
            kl_eigenfunction(0, 0.5)

    def test_eigenfunction_values(self):
        assert kl_eigenfunction(1, 0.0) == 0.0
        assert kl_eigenfunction(1, 0.5) == pytest.approx(1.0, rel=1e-14)
        assert kl_eigenfunction(3, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_time_domain_rejected(self):
        with pytest.raises(ValueError):
            kl_eigenfunction(1, 1.5)
        with pytest.raises(ValueError):
            kl_eigenfunction(1, -0.1)

    def test_eigenvalues_strictly_decreasing_to_1e4(self):
        basis = KlBasis.up_to(10_000)
        assert np.all(np.diff(basis.eigenvalues) < 0)

    def test_uniform_constant_is_two(self):
        basis = KlBasis.up_to(10_000)
        prod = basis.eigenvalues * basis.lipschitz_constants**2
        assert np.allclose(prod, 2.0, rtol=1e-12)
        assert basis.assumption_constant() == pytest.approx(2.0, rel=1e-12)
        assert kl_eigenvalue(7) * kl_lipschitz_constant(7) ** 2 == pytest.approx(2.0)


class TestTruncationIndex:
    def test_eps_point_one(self):
        # closed bound gives ceil(2/(pi^2 0.01)) = 21; exact summation agrees
        L = truncation_index_bm(0.1)
        assert L == 21
        assert brute_tail(L) <= 0.01 < brute_tail(L - 1)

    def test_eps_one_is_minimal_index(self):
        assert truncation_index_bm(1.0) == 1
        assert brute_tail(1) <= 1.0

    def test_quadratic_scaling(self):
        L1, L2 = truncation_index_bm(0.1), truncation_index_bm(0.05)
        assert L2 == 82
        assert L2 / L1 == pytest.approx(4.0, abs=0.2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            truncation_index_bm(0.0)
        with pytest.raises(ValueError):
            truncation_index_bm(-0.5)

    def test_matches_brute_oracle_on_a_grid(self):
        for eps in (0.5, 0.2, 0.08, *np.geomspace(0.9, 0.01, 12)):
            L = truncation_index_bm(eps)
            assert brute_tail(L) <= eps**2
            if L > 1:
                assert brute_tail(L - 1) > eps**2


class TestTailBound:
    def test_closed_form_values(self):
        assert tail_variance_bound(1).closed_form == pytest.approx(2.0 / np.pi**2)
        assert tail_variance_bound(100).closed_form == pytest.approx(0.002026, abs=5e-7)

    def test_exact_below_closed_and_monotone(self):
        prev = np.inf
        for L in (1, 4, 16, 64, 256):
            tb = tail_variance_bound(L)
            assert tb.exact == pytest.approx(brute_tail(L), rel=1e-12)
            assert tb.exact < tb.closed_form
            assert tb.closed_form < prev
            prev = tb.closed_form


class TestWienerEval:
    def test_drift_mode_only(self):
        c = WienerCoefficients(a=np.array([1.0, 0.0, 0.0]), clip_bound=8.0)
        for t in (0.0, 0.25, 0.8, 1.0):
            assert wiener_eval(c, t) == pytest.approx(t, abs=1e-15)

    def test_zero_at_origin(self):
        rng = np.random.default_rng(3)
        c = WienerCoefficients(a=np.clip(rng.standard_normal(17), -8, 8), clip_bound=8.0)
        assert wiener_eval(c, 0.0) == 0.0
        assert wiener_eval_horner(c, 0.0) == 0.0

    def test_first_sine_mode(self):
        c = WienerCoefficients(a=np.array([0.0, 1.0]), clip_bound=8.0)
        assert wiener_eval(c, 0.5) == pytest.approx(np.sqrt(2.0) / np.pi, rel=1e-14)
        assert wiener_eval_horner(c, 0.5) == pytest.approx(np.sqrt(2.0) / np.pi, rel=1e-14)

    def test_boundary_identities(self):
        rng = np.random.default_rng(11)
        for L in (0, 1, 8, 64):
            a = np.clip(rng.standard_normal(L + 1), -8, 8)
            c = WienerCoefficients(a=a, clip_bound=8.0)
            assert wiener_eval_horner(c, 0.0) == 0.0
            assert wiener_eval_horner(c, 1.0) == pytest.approx(a[0], abs=1e-12)

    @pytest.mark.parametrize("L", [8, 64, 512])
    def test_horner_matches_direct(self, L):
        rng = np.random.default_rng(100 + L)
        t = rng.random(1000)
        a = np.clip(10.0 * rng.standard_normal(L + 1), -10, 10)
        c = WienerCoefficients(a=a, clip_bound=10.0)
        direct = wiener_eval(c, t)
        horner = wiener_eval_horner(c, t)
        rel = np.abs(horner - direct) / (1.0 + np.abs(direct))
        assert rel.max() < 1e-9


class TestCoefficientValidation:
    def test_clip_bound_enforced(self):
        with pytest.raises(ValueError):
            WienerCoefficients(a=np.array([0.0, 9.0]), clip_bound=8.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            WienerCoefficients(a=np.array([np.nan]), clip_bound=8.0)

    def test_order(self):
        c = WienerCoefficients(a=np.zeros(5), clip_bound=8.0)
        assert c.order == 4


def test_truncation_report_rule():
    rep = klcore.TruncationReport(
        L=8, analytic_tail_bound=0.025, empirical_tail_mse=0.016, epsilon_target=0.1
    )
    assert rep.ok()
    assert not klcore.TruncationReport(8, 0.025, 0.03, 0.1).ok()
