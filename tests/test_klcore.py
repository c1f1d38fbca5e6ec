"""Eigenbasis values, truncation bookkeeping, and series evaluation."""

import numpy as np
import pytest
from conftest import wiener_eval
from scipy.special import polygamma

from klpricer import klcore
from klpricer.klcore import (
    CLIP,
    WienerCoefficients,
    sine_basis,
    truncation_index_bm,
    wiener_eval_horner,
)


def brute_tail(L, n_terms=10**7):
    """Independent oracle: explicit partial sum of the tail variance."""
    k = np.arange(L + 1, L + n_terms + 1, dtype=float)
    partial = np.sum(2.0 / ((k - 0.5) ** 2 * np.pi**2))
    return partial + 2.0 / (np.pi**2 * (L + n_terms))


def scipy_tail(L):
    """The tail (2/pi^2) psi_1(L + 1/2) on scipy's trigamma, elementwise in L."""
    return 2.0 / np.pi**2 * polygamma(1, np.asarray(L) + 0.5)


def scipy_truncation_index(eps):
    """Smallest L with scipy_tail(L) <= eps^2, bisected for all eps at once."""
    target = eps * eps
    lo = np.zeros(eps.shape, dtype=np.int64)  # scipy_tail(0) = 1 > eps^2
    hi = np.maximum(1, np.ceil(2.0 / (np.pi**2 * target))).astype(np.int64)
    while np.any(hi - lo > 1):
        mid = (lo + hi) // 2
        below = scipy_tail(mid) <= target
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid)
    return hi


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
    def test_exact_below_closed_and_monotone(self):
        # truncation_index_bm takes L = ceil(2/(pi^2 eps^2)) as qualifying,
        # which needs the exact tail to stay below the closed bound 2/(pi^2 L)
        prev = np.inf
        for L in (1, 4, 16, 64, 256):
            exact = klcore._tail_exact(L)
            assert exact == pytest.approx(brute_tail(L), rel=1e-12)
            assert exact < 2.0 / (np.pi**2 * L)
            assert exact < prev
            prev = exact

    def test_numpy_trigamma_matches_scipy(self):
        Ls = np.concatenate([
            np.arange(1, 5000), np.unique(np.geomspace(1, 1e9, 20_000).astype(np.int64))
        ])
        exact = np.array([klcore._tail_exact(int(L)) for L in Ls])
        assert np.max(np.abs(exact - scipy_tail(Ls)) / scipy_tail(Ls)) <= 1e-15

    def test_index_matches_scipy_bisection(self):
        # and where 2/(pi^2 eps^2) is an integer L, with the float neighbours
        # of those eps: the closed form decides between ceil(b) - 1 and ceil(b)
        at_integer = np.sqrt(2.0 / (np.pi**2 * np.arange(1, 5000)))
        eps = np.concatenate([
            np.geomspace(1e-4, 0.99, 50_000),
            np.nextafter(at_integer, 0.0), at_integer, np.nextafter(at_integer, 1.0),
        ])
        assert [truncation_index_bm(e) for e in eps] == scipy_truncation_index(eps).tolist()

    @pytest.mark.parametrize("L", [1, 8, 21, 82])
    def test_kl_tail_dominates_wiener_tail(self, L):
        # synthesis truncates the Wiener series, the index is chosen on the KL
        # tail; sum_{k>=1} 2 sin^2(k pi t)/(pi^2 k^2) = t(1 - t), the bridge
        # variance, gives the Wiener tail past L exactly
        t = np.linspace(0.0, 1.0, 1025)
        head = sine_basis(np.arange(1, L + 1, dtype=float), t)
        wiener_tail = t * (1.0 - t) - np.sum(head**2, axis=0)
        assert wiener_tail.min() > -1e-15
        assert wiener_tail.max() <= klcore._tail_exact(L)


class TestWienerEval:
    def test_drift_mode_only(self):
        c = WienerCoefficients(a=np.array([1.0, 0.0, 0.0]))
        for t in (0.0, 0.25, 0.8, 1.0):
            assert wiener_eval(c.a, t) == pytest.approx(t, abs=1e-15)

    def test_time_domain_rejected(self):
        c = WienerCoefficients(a=np.zeros(3))
        for t in (1.5, -0.1):
            with pytest.raises(ValueError):
                wiener_eval(c.a, t)
            with pytest.raises(ValueError):
                wiener_eval_horner(c, t)

    def test_zero_at_origin(self):
        rng = np.random.default_rng(3)
        c = WienerCoefficients(a=np.clip(rng.standard_normal(17), -CLIP, CLIP))
        assert wiener_eval(c.a, 0.0) == 0.0
        assert wiener_eval_horner(c, 0.0) == 0.0

    def test_first_sine_mode(self):
        c = WienerCoefficients(a=np.array([0.0, 1.0]))
        assert wiener_eval(c.a, 0.5) == pytest.approx(np.sqrt(2.0) / np.pi, rel=1e-14)
        assert wiener_eval_horner(c, 0.5) == pytest.approx(np.sqrt(2.0) / np.pi, rel=1e-14)

    def test_boundary_identities(self):
        rng = np.random.default_rng(11)
        for L in (0, 1, 8, 64):
            a = np.clip(rng.standard_normal(L + 1), -CLIP, CLIP)
            c = WienerCoefficients(a=a)
            assert wiener_eval_horner(c, 0.0) == 0.0
            assert wiener_eval_horner(c, 1.0) == pytest.approx(a[0], abs=1e-12)

    @pytest.mark.parametrize("L", [8, 64, 512])
    def test_horner_matches_direct(self, L):
        rng = np.random.default_rng(100 + L)
        t = rng.random(1000)
        a = np.clip(CLIP * rng.standard_normal(L + 1), -CLIP, CLIP)
        c = WienerCoefficients(a=a)
        direct = wiener_eval(c.a, t)
        horner = wiener_eval_horner(c, t)
        rel = np.abs(horner - direct) / (1.0 + np.abs(direct))
        assert rel.max() < 1e-9

    def test_direct_series_over_rows(self):
        rng = np.random.default_rng(7)
        a = np.clip(rng.standard_normal((5, 13)), -CLIP, CLIP)
        t = rng.random((3, 4))
        rows = wiener_eval(a, t)
        assert rows.shape == (5, 3, 4)
        for row, coeffs in zip(rows, a):
            assert np.allclose(row, wiener_eval(coeffs, t), rtol=1e-14, atol=1e-14)
            horner = wiener_eval_horner(WienerCoefficients(a=coeffs), t)
            assert np.allclose(row, horner, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("L", [0, 1, 21])
    def test_recurrence_over_rows_is_bitwise_one_row(self, L):
        # every row at every point, one contraction over a grid, gives each
        # point the one-row bits of wiener_eval_horner
        rng = np.random.default_rng(8)
        a = np.clip(rng.standard_normal((5, L + 1)), -CLIP, CLIP)
        t = rng.random(300)
        grid = klcore._series(a, klcore.series_basis(L, t))
        assert grid.shape == (5, 300)
        for r in range(5):
            every = wiener_eval_horner(WienerCoefficients(a=a[r]), t)
            assert np.array_equal(grid[r], every)


def modes_in_k_order(a, basis):
    """a0 t + a_1 basis_1 + ... + a_L basis_L, one ufunc add per mode, in k order."""
    out = a[..., :1] * basis[0]
    for k in range(1, basis.shape[0]):
        out = out + a[..., k : k + 1] * basis[k]
    return out


class TestSeriesContraction:
    @pytest.mark.parametrize("L", [0, 1, 21, 507])
    def test_adds_modes_in_k_order(self, L):
        # the contraction's bits are the k-order loop's, for one row, one
        # point, and any subset of rows or points: no value depends on what
        # shares its call
        rng = np.random.default_rng(40 + L)
        a = np.clip(rng.standard_normal((7, L + 1)), -CLIP, CLIP)
        t = np.concatenate([[0.0, 1.0], rng.random(63)])
        basis = klcore.series_basis(L, t)
        full = klcore._series(a, basis)
        assert np.array_equal(full, modes_in_k_order(a, basis))
        for r in range(len(a)):
            assert np.array_equal(klcore._series(a[r], basis), full[r])
            for j in (0, 1, 30, 64):
                assert np.array_equal(klcore._series(a[r], basis[:, j : j + 1]), full[r, j : j + 1])
        for rows in (slice(0, 1), slice(2, 5), [6, 0, 3]):
            for cols in (slice(0, 1), slice(1, 3), slice(5, 64), [64, 2, 9]):
                part = klcore._series(a[rows], basis[:, cols])
                assert np.array_equal(part, full[rows][:, cols])

    @pytest.mark.parametrize("L", [0, 1, 21, 507])
    def test_basis_rows_are_the_sine_modes(self, L):
        t = np.random.default_rng(3).random(50)
        basis = klcore.series_basis(L, t)
        assert np.array_equal(basis[0], t)
        assert np.array_equal(basis[1:], sine_basis(np.arange(1.0, L + 1), t))

    def test_chunked_points_keep_their_bits(self, monkeypatch):
        # wiener_eval_horner evaluates its points in chunks of _BASIS_BYTES
        # of basis; each point keeps its bits whatever the chunk
        coeffs = WienerCoefficients(a=np.clip(np.random.default_rng(9).standard_normal(22), -CLIP, CLIP))
        t = np.random.default_rng(10).random((40, 25))
        ref = wiener_eval_horner(coeffs, t)
        for budget in (1, 8 * 22 * 7, 1 << 40):
            monkeypatch.setattr(klcore, "_BASIS_BYTES", budget)
            assert np.array_equal(wiener_eval_horner(coeffs, t), ref)


class TestCoefficientValidation:
    def test_clip_bound_enforced(self):
        assert WienerCoefficients(a=np.array([CLIP, -CLIP])).order == 1
        with pytest.raises(ValueError):
            WienerCoefficients(a=np.array([0.0, np.nextafter(CLIP, np.inf)]))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            WienerCoefficients(a=np.array([np.nan]))

    def test_order(self):
        c = WienerCoefficients(a=np.zeros(5))
        assert c.order == 4
