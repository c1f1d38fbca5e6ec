"""Spectral basis of Brownian motion on [0, 1] and truncated path synthesis.

The covariance kernel min(s, t) has eigenvalues lambda_k = 1/((k - 1/2)^2 pi^2)
with eigenfunctions sqrt(2) sin((k - 1/2) pi t).  Smoothed sample paths are
built from the sine-series form

    B_L(t) = a0 t + (sqrt(2)/pi) * sum_{k=1..L} (a_k / k) sin(k pi t)

with i.i.d. standard-normal coefficients a_k.  The one evaluator of the
series is a contraction, ``_series(a, basis)``: one ``np.einsum`` of the
coefficient rows against ``series_basis(L, t)``, the rows [t; sine_basis(1..L,
t)] at a grid of points, which a caller builds once per grid.  It takes one
coefficient row, or a 2-D array of rows, each at every point: the nested
estimator's path and quadrature tables and cell midpoints, the sampler and
the amplitude encodings in ``qsim`` all read paths through it.
``wiener_eval_horner`` is its checked front for one ``WienerCoefficients``
row at any points, and ``sine_basis`` builds the mode matrices
(sqrt(2)/pi) sin(k pi t)/k for the probes in ``analysis``; ``series_basis``
holds its rows bit for bit.  Everything here is stateless and safe to call
concurrently.

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
    "sine_basis",
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


def sine_basis(k: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Mode functions (sqrt(2)/pi) sin(k pi t)/k, one row per mode index in k.

    ``k`` is a float array of mode indices and ``t`` an array of times; the
    result has shape (k.size, t.size).
    """
    return _SQRT2_OVER_PI * np.sin(np.pi * np.outer(k, t)) / k[:, None]


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
    """The (L + 1, t.size) matrix whose rows are t and ``sine_basis(1..L, t)``, bit for bit.

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


def wiener_eval_horner(coeffs: WienerCoefficients, t):
    """The series of one coefficient row at the times t in [0, 1], by ``_series``.

    The points are evaluated in chunks whose basis holds at most
    ``_BASIS_BYTES``, or one point, 8 (L + 1) bytes (the nested estimator's
    series guard bounds L).  Each point's value has the bits of the same
    contraction at that point alone.  Agrees with the direct sum over
    ``sine_basis`` (the tests' reference form) to ~1e-9 relative error for
    |a_k| <= CLIP and L <= 512.
    """
    t = _check_unit_interval(t)
    flat, out = t.ravel(), np.empty(t.size)
    step = max(1, _BASIS_BYTES // (8 * coeffs.a.size))
    for lo in range(0, flat.size, step):
        out[lo : lo + step] = _series(coeffs.a, series_basis(coeffs.order, flat[lo : lo + step]))
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)
