"""Spectral basis of Brownian motion on [0, 1] and truncated path synthesis.

The covariance kernel min(s, t) has eigenvalues lambda_k = 1/((k - 1/2)^2 pi^2)
with eigenfunctions sqrt(2) sin((k - 1/2) pi t).  Smoothed sample paths are
built from the sine-series form

    B_L(t) = a0 t + (sqrt(2)/pi) * sum_{k=1..L} (a_k / k) sin(k pi t)

with i.i.d. standard-normal coefficients a_k.  ``series_basis(L, t)``, the
one sine-basis builder, holds the rows t and (sqrt(2)/pi) sin(k pi t)/k at a
grid of points; ``_series`` contracts coefficient rows against it in one
``np.einsum``.  ``_grid_series`` is the one evaluator of coefficient rows at
points, with a per-request basis cache and no basis part past
``_BASIS_BYTES``: the nested estimator's tables, the cell edges of
``process.cell_envelopes``, the encodings in ``qsim`` and
``wiener_eval_horner`` (one checked ``WienerCoefficients`` row, for the
rejection sampler) all read paths through it.  Everything here is stateless
and safe to call concurrently.

Two bases meet here.  The tail bounds and the truncation index use the KL
eigenpairs (index k - 1/2), while synthesis uses the Wiener sine series
sin(k pi t)/k.  The Wiener tail variance past L at any t is at most
sum_{k>L} 2/(pi^2 k^2) = (2/pi^2) psi_1(L + 1), below the KL tail
(2/pi^2) psi_1(L + 1/2), so the KL tail dominates pointwise and the
truncation index is conservative for synthesis.  The trigamma function psi_1
is computed here in numpy/float arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "CLIP",
    "WienerCoefficients",
    "series_basis",
    "truncation_index_bm",
    "wiener_eval_horner",
]

# Every Gaussian coefficient, sampled or encoded on a register grid, is
# clipped to [-CLIP, CLIP], so the path supremum admits a finite envelope.
CLIP = 8.0

_SQRT2_OVER_PI = np.sqrt(2.0) / np.pi
_BASIS_BYTES = 1 << 20  # most bytes of a series basis built at once: a larger grid's goes in parts


def _check_unit_interval(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("time argument must lie in [0, 1]")
    return t


@dataclass
class WienerCoefficients:
    """One coefficient draw a = (a_0, ..., a_L) defining a smoothed path.

    a_0 multiplies the linear drift mode; a_1..a_L the sine modes.  Every
    entry lies in [-CLIP, CLIP] (sampling clamps the raw draws), so the path
    supremum admits a finite envelope; ``n_clipped`` counts how many raw
    draws were clamped.
    """

    a: np.ndarray
    n_clipped: int = 0

    def __post_init__(self) -> None:
        self.a = np.asarray(self.a, dtype=float)
        if self.a.ndim != 1 or self.a.size < 1:
            raise ValueError("coefficient vector must be one-dimensional and non-empty")
        if not np.all(np.isfinite(self.a)):
            raise ValueError("coefficient vector contains non-finite entries")
        if np.any(np.abs(self.a) > CLIP):
            raise ValueError("coefficients exceed the clip bound")

    @property
    def order(self) -> int:
        """Number of oscillatory modes L (vector length minus one)."""
        return self.a.size - 1


# Bernoulli numbers B_2, B_4, ..., B_16 of the asymptotic trigamma series
_BERNOULLI_EVEN = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


def _trigamma(x: float) -> float:
    """Trigamma psi_1(x) for x > 0.

    The recurrence psi_1(x) = psi_1(x + 1) + 1/x^2 moves x to >= 10, where
    psi_1(x) ~ 1/x + 1/(2x^2) + sum_k B_2k / x^(2k+1) with eight terms
    leaves a remainder below 1e-16 relative.
    """
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    series = 0.0
    for b in reversed(_BERNOULLI_EVEN):
        series = series * inv2 + b
    return shift + inv + 0.5 * inv2 + inv * inv2 * series


def _tail_exact(L: int) -> float:
    # sum_{k>L} 1/(k - 1/2)^2 = psi_1(L + 1/2), the trigamma function
    return float(2.0 / np.pi**2 * _trigamma(L + 0.5))


def truncation_index_bm(epsilon: float) -> int:
    """Smallest L whose tail variance bound is at most epsilon^2, in closed form.

    With b = 2/(pi^2 eps^2), L = ceil(b) qualifies, since the tail is below
    2/(pi^2 L).  No L <= ceil(b) - 2 does: psi_1(x) > 1/x + 1/(2x^2) gives
    psi_1(L + 1/2) > (L + 1)/(L + 1/2)^2 > 1/(L + 1) > 1/b there.  So the
    index is ceil(b) - 1 when its exact trigamma tail is at most eps^2, and
    ceil(b) otherwise.  An epsilon whose closed bound is not finite (eps^2
    underflows, or b overflows) is rejected.
    """
    if not (0.0 < epsilon):
        raise ValueError("epsilon must be positive")
    target = epsilon * epsilon
    bound = 2.0 / (np.pi**2 * target) if target > 0.0 else np.inf
    if not np.isfinite(bound):
        raise ValueError(f"truncation bound 2/(pi^2 eps^2) is not finite at eps = {epsilon}")
    hi = max(1, int(np.ceil(bound)))
    return hi - 1 if hi > 1 and _tail_exact(hi - 1) <= target else hi


def series_basis(L: int, t: np.ndarray) -> np.ndarray:
    """The (L + 1, t.size) matrix whose rows are t and (sqrt(2)/pi) sin(k pi t)/k, k = 1..L.

    ``_series`` contracts coefficient rows against it.  It holds 8 (L + 1)
    bytes a point and is built in place, with no temporary as large, so
    callers size it in bytes by that before they build it.
    """
    basis = np.empty((L + 1, t.size))
    basis[0] = t
    k = np.arange(1.0, L + 1)
    modes = np.multiply.outer(k, t, out=basis[1:])
    modes *= np.pi
    np.sin(modes, out=modes)
    modes *= _SQRT2_OVER_PI
    modes /= k[:, None]
    return basis


def _series(a: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """The series of each row of ``a`` at the basis's points: shape a.shape[:-1] + (points,).

    ``np.einsum`` runs no BLAS, and with the points in its inner loop, which
    a C-contiguous basis of two or more points puts there, it adds
    a0 t + a_1 basis_1 + ... in k order at every point.  So a value does not
    depend on which other rows or points share the call, nor on a thread
    count.  At one point the mode axis would be einsum's inner loop, a dot
    product that adds in SIMD lanes, so there the terms are accumulated in k
    order instead, in place.
    """
    if basis.shape[1] == 1:
        terms = a * basis[:, 0]
        return np.add.accumulate(terms, axis=-1, out=terms)[..., -1:].copy()
    return np.einsum("...k,kt->...t", a, np.ascontiguousarray(basis))


def _grid_series(a: np.ndarray, t: np.ndarray, bases: dict, key) -> np.ndarray:
    """The one series evaluator: each row of ``a`` at the points t, shape a.shape[:-1] + (t.size,).

    A grid's ``series_basis`` is kept in ``bases[key]``, the caller's
    per-request cache, when it holds at most ``_BASIS_BYTES``; a larger one is
    built that many bytes of points at a time, at each call, with the same
    bits (``_series``).  No part can pass ``process.GUARD_BYTES``, which this
    module cannot import: each holds at most max(``_BASIS_BYTES``, 8 (L + 1))
    bytes, and ``pricing._series_order`` guards 40 (L + 1).
    """
    if key not in bases:
        L = a.shape[-1] - 1
        step = max(1, _BASIS_BYTES // (8 * (L + 1)))
        if t.size > step:
            out = np.empty(a.shape[:-1] + t.shape)
            for lo in range(0, t.size, step):
                out[..., lo : lo + step] = _series(a, series_basis(L, t[lo : lo + step]))
            return out
        bases[key] = series_basis(L, t)
    return _series(a, bases[key])


def wiener_eval_horner(coeffs: WienerCoefficients, t):
    """The series of one coefficient row at the times t in [0, 1], by ``_grid_series``.

    Each point's value has the bits of the same contraction at that point
    alone.  Agrees with the direct sum over the sine modes (the tests'
    reference form) to ~1e-9 relative error for |a_k| <= CLIP and L <= 512.
    """
    t = _check_unit_interval(t)
    out = _grid_series(coeffs.a, t.ravel(), {}, None)
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)
