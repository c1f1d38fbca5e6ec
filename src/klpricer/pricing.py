"""Payoff definitions and the price estimators for the discretely
monitored arithmetic Asian call.

Four routes to a price are provided:

* ``price_baseline``: exact sequential GBM paths on the monitoring grid and
  a flat Monte Carlo average (the reference estimator).
* ``price_kl_nested``: outer sampling of smoothed-path coefficient vectors,
  inner recovery of each path's average over the T monitoring points from
  the rejection sampler's acceptance rate against the path's own envelope
  (or from a plain average at uniformly drawn monitoring points,
  switchable); its estimand is E[(T^-1 sum_i G_L(i/T) - K)^+].
* ``price_subsample``: flat Monte Carlo on a coarser uniform grid of
  M = ceil(1/eps^2) points, exploiting that the process is fast-forwardable.
* ``geometric_asian_closed_form``: the lognormal closed form for the
  geometric-average payoff, used as an analytic oracle.

The flat estimators (baseline, sub-sampling) share one kernel.  Paths
come in fixed-size blocks, one counter-based stream per block, and each
block is built in chunks of about 1 MiB in one reused buffer.  Several
blocks run at once on one thread per usable core, and their payoff sums are
added in block order, so every value is a pure function of (seed, path
index) whatever the number of cores.

No discounting is applied (riskless rate zero); callers that need a
discount factor scale the final value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import process
from .klcore import WienerCoefficients, truncation_index_bm, wiener_eval_horner
from .process import GbmParams, TimeGrid

__all__ = [
    "AsianPayoffSpec",
    "Estimate",
    "price_baseline",
    "price_kl_nested",
    "price_subsample",
    "geometric_asian_closed_form",
]

# Flat Monte Carlo runs in fixed-size path blocks, one counter-based stream
# per block; block size depends only on the grid width so results are a pure
# function of (seed, path index).
def _block_size(n_times: int) -> int:
    if n_times <= 128:
        return 65536
    if n_times <= 512:
        return 32768
    if n_times <= 4096:
        return 4096
    if n_times <= 32768:
        return 512
    return 64

_CHUNK_BYTES = 1 << 20  # about one core's L2 share
_SUBSAMPLE_GRID_LIMIT = 100_000_000
_DEFAULT_SIZING = 4.0  # M0 = M1 = ceil(_DEFAULT_SIZING / eps^2)


@dataclass
class AsianPayoffSpec:
    """Strike and monitoring count T of the Asian call on the uniform 1/T average."""

    strike: float
    monitoring_count: int

    def __post_init__(self) -> None:
        if self.strike < 0:
            raise ValueError("strike must be non-negative")
        if self.monitoring_count < 1:
            raise ValueError("monitoring_count must be >= 1")


@dataclass
class Estimate:
    """A Monte Carlo price: value, outer standard error, and provenance."""

    value: float
    std_error: float
    n_outer: int
    n_inner: int
    seed: int
    method: str


def _block_rows(n_times: int, n_paths: int) -> list[int]:
    """Path counts of the blocks that hold n_paths paths, in block order."""
    block = _block_size(n_times)
    return [min(block, n_paths - start) for start in range(0, n_paths, block)]


def _chunk_rows(n_times: int) -> int:
    """Rows of the about 1 MiB chunk a block is built in: a multiple of 8, at least 8."""
    return max(8, _CHUNK_BYTES // (8 * n_times) // 8 * 8)


def _block_payoffs(
    params: GbmParams,
    times: np.ndarray,
    rows: int,
    seed: int,
    tag: int,
    block_idx: int,
    payoff,
) -> np.ndarray:
    """Per-path payoffs of the first ``rows`` exact paths of block ``block_idx``.

    The block's log(S(t)/s0) on ``times`` is built chunk by chunk in one
    reused buffer: fill from stream (seed, tag, block_idx), scale and shift
    in place, cumsum in place, then ``payoff(logs)`` maps the chunk's rows to
    their payoffs (and may overwrite ``logs``).  Philox fills row-major, so
    the chunks draw the same normals as one fill of the whole block.  Chunks
    are a multiple of 8 rows and a 1-row tail is folded into the chunk before
    it, so that the BLAS matrix-vector kernel gives every row the bits it
    gives it inside the whole block.
    """
    n_times = times.size
    chunk = _chunk_rows(n_times)
    dt = np.diff(times, prepend=0.0)
    drift_leg = params.effective_drift * dt
    vol_leg = params.sigma * np.sqrt(dt)
    rng = process.stream(seed, tag, block_idx)
    buf = np.empty((min(rows, chunk + 1), n_times))
    pay = np.empty(rows)
    start = 0
    for stop in [*range(chunk, rows - 1, chunk), rows]:
        logs = buf[: stop - start]
        rng.standard_normal(out=logs)
        logs *= vol_leg
        logs += drift_leg
        np.cumsum(logs, axis=1, out=logs)
        pay[start:stop] = payoff(logs)
        start = stop
    return pay


def _mean_and_se(total: float, total_sq: float, n: int) -> tuple[float, float]:
    """Sample mean and its standard error from the sum and sum of squares."""
    mean = total / n
    var = max(total_sq - n * mean * mean, 0.0) / (n - 1)
    return mean, float(np.sqrt(var / n))


def _cpu_count() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _flat_moments(
    params: GbmParams,
    times: np.ndarray,
    n_paths: int,
    seed: int,
    tag: int,
    payoff,
) -> tuple[float, float]:
    """Flat MC: mean of ``payoff`` over n_paths exact paths on ``times``, and its SE.

    Each block's payoff sum and sum of squares are added up in block order,
    so the result is the same whatever the number of threads.  Several
    blocks run on one thread per usable core (numpy's fills, ufuncs and BLAS
    release the GIL), each under the caller's numpy error state, which
    worker threads do not inherit.
    """
    rows = _block_rows(times.size, n_paths)
    err = np.geterr()

    def moments(block_idx: int) -> tuple[float, float]:
        with np.errstate(**err):
            pay = _block_payoffs(params, times, rows[block_idx], seed, tag, block_idx, payoff)
            return float(pay.sum()), float(pay @ pay)

    if len(rows) == 1:
        parts = [moments(0)]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(min(_cpu_count(), len(rows))) as pool:
            parts = list(pool.map(moments, range(len(rows))))
    # left-to-right adds; sum() compensates its float adds from Python 3.12 on
    total = total_sq = 0.0
    for block_sum, block_sq in parts:
        total += block_sum
        total_sq += block_sq
    return _mean_and_se(total, total_sq, n_paths)


def _average_call(params: GbmParams, n_times: int, strike: float):
    """Payoff (mean_i S(t_i) - K)^+ of each row of log(S(t)/s0), computed in place."""
    weights = np.full(n_times, 1.0 / n_times)

    def payoff(logs: np.ndarray) -> np.ndarray:
        paths = np.exp(logs, out=logs)
        paths *= params.s0
        pay = paths @ weights
        pay -= strike
        return np.maximum(pay, 0.0, out=pay)

    return payoff


def price_baseline(params: GbmParams, spec: AsianPayoffSpec, n_paths: int, seed: int) -> Estimate:
    """Reference estimator: exact paths on the T-point monitoring grid.

    Unbiased for the discrete Asian price; standard error is the sample
    standard deviation of per-path payoffs over sqrt(n_paths).
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    times = TimeGrid.uniform_monitoring(spec.monitoring_count).points
    payoff = _average_call(params, times.size, spec.strike)
    mean, se = _flat_moments(params, times, n_paths, seed, process.TAG_PATHS, payoff)
    return Estimate(mean, se, n_paths, 1, seed, "baseline")


def _subsample_points(epsilon: float) -> int:
    """Grid size M = ceil(1/eps^2) of the sub-sampling estimator, within the guard."""
    m = int(np.ceil(1.0 / epsilon**2))
    if m > _SUBSAMPLE_GRID_LIMIT:
        raise ValueError(f"sub-sampling grid of {m} points exceeds the resource guard")
    return m


def price_subsample(
    params: GbmParams, spec: AsianPayoffSpec, epsilon: float, n_paths: int, seed: int
) -> Estimate:
    """Flat MC on the uniform M = ceil(1/eps^2) point grid with 1/M weights.

    The coarse grid stands in for the T monitoring points; its payoff MSE
    against the T-point payoff is O(eps^2), so the estimate carries an
    O(eps) bias allowance on top of the sampling error.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    m = _subsample_points(epsilon)
    times = np.arange(1, m + 1) / m
    payoff = _average_call(params, m, spec.strike)
    mean, se = _flat_moments(params, times, n_paths, seed, process.TAG_PATHS, payoff)
    return Estimate(mean, se, n_paths, 1, seed, "subsample")


def _acceptance_inner_mean(
    rng: np.random.Generator,
    coeffs: WienerCoefficients,
    M1: int,
    params: GbmParams,
    T: int,
) -> float:
    """Unbiased mean of one path over the T monitoring points from M1 acceptances.

    Proposals until the M1-th acceptance are negative binomial with success
    probability p = mean_i G_L(i/T) / env, and (M1 - 1)/(n_prop - 1) is unbiased
    for p (Haldane 1945), so env (M1 - 1)/(n_prop - 1) is unbiased for the
    mean.  The naive M1 / n_prop overstates it by a factor of about
    1 + (1 - p)/M1.
    """
    env = process.path_envelope(params, coeffs)
    _, n_prop = process.rejection_sample_times(rng, coeffs, M1, env, params, T)
    return env * (M1 - 1) / (n_prop - 1)


def price_kl_nested(
    params: GbmParams,
    spec: AsianPayoffSpec,
    epsilon: float,
    M0: int | None = None,
    M1: int | None = None,
    L: int | None = None,
    seed: int = 0,
    inner_mode: str = "acceptance",
) -> Estimate:
    """Nested estimator over smoothed-path coefficient draws.

    Outer loop: sample a coefficient vector per path.  Inner loop, default
    mode ``acceptance``: run the rejection sampler against the path's own
    envelope (``process.path_envelope``) for M1 accepted monitoring times and
    recover the path's monitoring average as env (M1 - 1)/(n_prop - 1),
    mirroring how that average appears as a measurement probability in the
    amplitude encoding.  Mode ``uniform`` instead averages the path value at
    M1 uniformly drawn monitoring times.  Both draw their times through
    ``process.monitoring_times``, so the series is evaluated at the
    proposals only, whatever T is.  Standard error comes from outer
    variation only.

    Estimand: E[(T^-1 sum_i G_L(i/T) - K)^+] for the smoothed path G_L and
    T = ``spec.monitoring_count``.  Both inner means are unbiased per path, so
    what remains is the O(1/M1) convexity bias of a nested estimator (the
    payoff is convex in the inner mean) and the bias of clipping
    coefficients at ``klcore.CLIP``, whose per-draw probability is below 1.3e-15.

    Defaults: L is the truncation index for ``epsilon`` and
    M0 = M1 = ceil(4 / eps^2).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if inner_mode not in ("acceptance", "uniform"):
        raise ValueError("inner_mode must be 'acceptance' or 'uniform'")
    if L is None:
        L = truncation_index_bm(epsilon)
    if M0 is None:
        M0 = int(np.ceil(_DEFAULT_SIZING / epsilon**2))
    if M1 is None:
        M1 = int(np.ceil(_DEFAULT_SIZING / epsilon**2))
    if M0 < 2 or M1 < 2:
        raise ValueError("M0 and M1 must be >= 2")
    T = spec.monitoring_count
    strike = spec.strike
    total = 0.0
    total_sq = 0.0
    for i in range(M0):
        rng = process.stream(seed, process.TAG_NESTED, i)
        coeffs = process.sample_coefficients(rng, L)
        if inner_mode == "acceptance":
            gbar = _acceptance_inner_mean(rng, coeffs, M1, params, T)
        else:
            t = process.monitoring_times(rng.random(M1), T)
            gbar = float(np.mean(process.gbm_from_bm(wiener_eval_horner(coeffs, t), t, params)))
        pay = max(gbar - strike, 0.0)
        total += pay
        total_sq += pay * pay
    mean, se = _mean_and_se(total, total_sq, M0)
    return Estimate(mean, se, M0, M1, seed, "kl_nested")


def _log_average_moments(params: GbmParams, points: np.ndarray) -> tuple[float, float]:
    """Mean and variance of ln of the discrete geometric average."""
    m = float(np.log(params.s0) + params.effective_drift * points.mean())
    # sum_{i,j} min(t_i, t_j) for sorted t: each t_(i) is the minimum in
    # 2(M - i) + 1 of the M^2 ordered pairs.
    t = np.sort(points)
    M = t.size
    counts = 2.0 * (M - 1.0 - np.arange(M)) + 1.0
    v = float(params.sigma**2 / M**2 * np.dot(t, counts))
    return m, v


def geometric_asian_closed_form(params: GbmParams, grid: TimeGrid, strike: float) -> float:
    """Closed-form price of the discretely monitored geometric-average call.

    The log of the geometric average A_G = (prod_k S(t_k))^(1/M) is Gaussian
    with mean m = ln s0 + drift * mean(t) and variance
    v = sigma^2 / M^2 * sum_{i,j} min(t_i, t_j), so

        E[(A_G - K)^+] = e^{m + v/2} Phi((m - ln K + v)/sqrt(v))
                         - K Phi((m - ln K)/sqrt(v)).

    Degenerate variance collapses to the deterministic payoff and K <= 0
    collapses to the mean of A_G.  Phi is scipy's ``ndtr``, imported here so
    that the other estimators load numpy only.
    """
    from scipy.special import ndtr

    m, v = _log_average_moments(params, grid.points)
    if strike <= 0.0:
        return float(np.exp(m + 0.5 * v) - strike)
    if v <= 0.0:
        return float(max(np.exp(m) - strike, 0.0))
    sd = np.sqrt(v)
    d2 = (m - np.log(strike)) / sd
    d1 = d2 + sd
    return float(np.exp(m + 0.5 * v) * ndtr(d1) - strike * ndtr(d2))
