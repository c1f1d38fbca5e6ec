"""Spectral basis of Brownian motion on [0, 1] and truncated path synthesis.

The covariance kernel min(s, t) has eigenvalues lambda_k = 1/((k - 1/2)^2 pi^2)
with eigenfunctions sqrt(2) sin((k - 1/2) pi t).  Smoothed sample paths are
built from the sine-series form

    B_L(t) = a0 t + (sqrt(2)/pi) * sum_{k=1..L} (a_k / k) sin(k pi t)

with i.i.d. standard-normal coefficients a_k.  ``sine_basis`` is the one
builder of the mode functions (sqrt(2)/pi) sin(k pi t)/k; ``wiener_eval`` is
the direct series on it (the reference form, for one coefficient row or a
batch of rows); ``wiener_eval_horner`` evaluates the same series through a
single Clenshaw recurrence in cos(pi t), using
sin(k pi t) = sin(pi t) U_{k-1}(cos pi t) with U the Chebyshev polynomials of
the second kind.  Its recurrence, ``_clenshaw``, also takes a 2-D array of
rows, on a grid or one row per point, for the nested estimator's runs of
draws.  Everything here is stateless and safe to call concurrently.

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
    "wiener_eval",
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
    """sin(pi u) with exact zeros at integer u (quadrant-folded argument)."""
    r = np.mod(u, 2.0)
    sign = np.where(r > 1.0, -1.0, 1.0)
    r = np.where(r > 1.0, r - 1.0, r)
    r = np.where(r > 0.5, 1.0 - r, r)
    return sign * np.sin(np.pi * r)


def _cospi(u):
    return _sinpi(np.asarray(u, dtype=float) + 0.5)


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
    """Smallest L whose tail variance bound is at most epsilon^2.

    The search brackets with the closed bound 2/(pi^2 L) <= eps^2 (valid
    since sum_{k>L} 1/(k - 1/2)^2 < 1/L) and then bisects on the exact
    trigamma tail, so the returned index is the exact minimizer of the
    criterion.  An epsilon whose closed bound is not finite (eps^2 underflows,
    or 2/(pi^2 eps^2) overflows) is rejected.
    """
    if not (0.0 < epsilon):
        raise ValueError("epsilon must be positive")
    target = epsilon * epsilon
    bound = 2.0 / (np.pi**2 * target) if target > 0.0 else np.inf
    if not np.isfinite(bound):
        raise ValueError(f"truncation bound 2/(pi^2 eps^2) is not finite at eps = {epsilon}")
    hi = max(1, int(np.ceil(bound)))
    if _tail_exact(1) <= target:
        return 1
    lo = 1  # invariant: tail(lo) > target, tail(hi) <= target
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _tail_exact(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def wiener_eval(a, t):
    """Direct sine-series evaluation of smoothed paths at t in [0, 1].

    This is the reference form a0 t + (sqrt(2)/pi) sum_k (a_k/k) sin(k pi t).
    ``a`` is one coefficient row (a_0, ..., a_L) or a 2-D array of such rows;
    the result has shape a.shape[:-1] + t.shape.
    """
    t = _check_unit_interval(t)
    a = np.asarray(a, dtype=float)
    tt = t.ravel()
    k = np.arange(1, a.shape[-1], dtype=float)
    out = np.multiply.outer(a[..., 0], tt) + a[..., 1:] @ sine_basis(k, tt)
    out = out.reshape(a.shape[:-1] + t.shape)
    return float(out) if out.ndim == 0 else out


def _clenshaw(a: np.ndarray, t: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
    """The series at each t by the Clenshaw recurrence in cos(pi t), unchecked.

    ``a`` is one coefficient row or a 2-D array of rows: each row at every t,
    with shape a.shape[:-1] + t.shape, or, with ``rows``, row rows[j] at t[j].
    Every point goes through the same elementwise operations, so its value
    does not depend on which other points or rows share the call.  Every row
    at every t runs points-major, on shape (t.size, rows), so that each step
    adds one contiguous row of a_k / k; the result is C-contiguous.
    """
    a0, d = a[..., 0], (a[..., 1:] / np.arange(1, a.shape[-1])).T  # d[k - 1] holds a_k / k
    grid_shape = a0.shape + t.shape if rows is None and a.ndim == 2 else None
    if rows is not None:
        a0 = a0[rows]
    elif grid_shape is not None:
        t, d = t.reshape(-1, 1), np.ascontiguousarray(d)
    out = a0 * t
    if len(d):
        b1 = np.zeros(np.shape(out))
        b2 = np.zeros_like(b1)
        tmp = np.empty_like(b1)
        x2 = np.multiply(2.0, _cospi(t), out=np.empty_like(b1))  # full shape, made once
        for k in range(len(d) - 1, -1, -1):
            np.multiply(x2, b1, out=tmp)
            tmp -= b2
            tmp += d[k] if rows is None else d[k].take(rows)
            b2, b1, tmp = b1, tmp, b2
        out += _SQRT2_OVER_PI * _sinpi(t) * b1
    return out if grid_shape is None else np.ascontiguousarray(out.T).reshape(grid_shape)


def wiener_eval_horner(coeffs: WienerCoefficients, t):
    """Clenshaw-recurrence evaluation of the same series, O(L) per point.

    Uses sin(k pi t) = sin(pi t) U_{k-1}(cos pi t) and runs the standard
    second-kind Chebyshev recurrence backwards with preallocated buffers.
    Agrees with ``wiener_eval`` to ~1e-9 relative error for |a_k| <= CLIP and
    L <= 512.
    """
    out = _clenshaw(coeffs.a, _check_unit_interval(t))
    return float(out) if out.ndim == 0 else out
