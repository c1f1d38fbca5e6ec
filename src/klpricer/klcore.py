"""Spectral basis of Brownian motion on [0, 1] and truncated path synthesis.

The covariance kernel min(s, t) has eigenvalues lambda_k = 1/((k - 1/2)^2 pi^2)
with eigenfunctions sqrt(2) sin((k - 1/2) pi t).  Smoothed sample paths are
built from the sine-series form

    B_L(t) = a0 t + (sqrt(2)/pi) * sum_{k=1..L} (a_k / k) sin(k pi t)

with i.i.d. standard-normal coefficients a_k.  The one evaluator of the
series is the Clenshaw recurrence in cos(pi t), ``_clenshaw``, using
sin(k pi t) = sin(pi t) U_{k-1}(cos pi t) with U the Chebyshev polynomials of
the second kind.  It takes one coefficient row, or a 2-D array of rows, each
at every point: the nested estimator's path and quadrature tables, the
sampler and the amplitude encodings in ``qsim`` all read paths through it.
``wiener_eval_horner`` is its checked front for one ``WienerCoefficients``
row, and ``sine_basis`` builds the mode matrices (sqrt(2)/pi) sin(k pi t)/k
for the probes in ``analysis``.  Everything here is stateless and safe to
call concurrently.

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
    "sine_basis",
    "truncation_index_bm",
    "wiener_eval_horner",
]

# Every Gaussian coefficient, sampled or encoded on a register grid, is
# clipped to [-CLIP, CLIP], so the path supremum admits a finite envelope.
CLIP = 8.0

_SQRT2_OVER_PI = np.sqrt(2.0) / np.pi


def _check_unit_interval(t) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("time argument must lie in [0, 1]")
    return t


def _sinpi(u):
    """sin(pi u) for u in [0, 2), with exact zeros at 0 and 1 (quadrant-folded argument)."""
    r = np.where(u > 1.0, u - 1.0, u)
    s = np.sin(np.pi * np.minimum(r, 1.0 - r))
    return np.where(u > 1.0, -s, s)


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


def _clenshaw(a: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The series at each t by the Clenshaw recurrence in cos(pi t), unchecked.

    ``a`` is one coefficient row, giving t's shape, or a 2-D array of rows,
    each at every t, giving shape a.shape[:-1] + t.shape.  Every point goes
    through the same elementwise operations, so its value does not depend on
    which other points or rows share the call.  A 2-D array runs
    points-major, on shape (t.size, rows), so that each step adds one
    contiguous row of a_k / k; the result is C-contiguous.
    """
    a0, d = a[..., 0], (a[..., 1:] / np.arange(1, a.shape[-1])).T  # d[k - 1] holds a_k / k
    grid_shape = a0.shape + t.shape if a.ndim == 2 else None
    if grid_shape is not None:
        t, d = t.reshape(-1, 1), np.ascontiguousarray(d)
    out = a0 * t
    if len(d):
        b1 = np.zeros(np.shape(out))
        b2 = np.zeros_like(b1)
        tmp = np.empty_like(b1)
        x2 = np.multiply(2.0, _sinpi(t + 0.5), out=np.empty_like(b1))  # full shape, made once
        for k in range(len(d) - 1, -1, -1):
            np.multiply(x2, b1, out=tmp)
            tmp -= b2
            tmp += d[k]
            b2, b1, tmp = b1, tmp, b2
        out += _SQRT2_OVER_PI * _sinpi(t) * b1
    return out if grid_shape is None else np.ascontiguousarray(out.T).reshape(grid_shape)


def wiener_eval_horner(coeffs: WienerCoefficients, t):
    """Clenshaw-recurrence evaluation of the same series, O(L) per point.

    Uses sin(k pi t) = sin(pi t) U_{k-1}(cos pi t) and runs the standard
    second-kind Chebyshev recurrence backwards with preallocated buffers.
    Agrees with the direct sum over ``sine_basis`` (the tests' reference
    form) to ~1e-9 relative error for |a_k| <= CLIP and L <= 512.
    """
    out = _clenshaw(coeffs.a, _check_unit_interval(t))
    return float(out) if out.ndim == 0 else out
