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
* ``price_subsample``: flat Monte Carlo on the uniform grid of
  m = min(ceil(1/eps^2), T) points, exploiting that the process is
  fast-forwardable; at m = T it is the baseline, bit for bit.
* ``geometric_asian_closed_form``: the lognormal closed form for the
  geometric-average payoff, on the exact path or on kl-nested's G_L, used as
  an analytic oracle and as kl-nested's control variate.

Every route averages over a uniform grid i/m, i = 1..m: m = T for the
baseline, the nested estimator and the closed form, and
m = min(ceil(1/eps^2), T) for sub-sampling, whose estimand is the price on
that grid: it is the T-point price, with no bias, when ceil(1/eps^2) >= T,
and below that overstates it by about c (1/m - 1/T), with c about 4.9 at
the golden market (``price_subsample``).  The flat estimators (baseline,
sub-sampling) share one body, ``_price_flat``, and one kernel: blocks of
about 1 MiB of grid rows, each drawn from its own stream keyed by (seed,
block index) and built in one pass in one of the request's block buffers,
run on one thread per usable core, with their payoff sums added in block
order, so every value is a pure function of (seed, path index) whatever
the number of cores.  The buffer guard runs before anything is allocated.

The nested estimator's acceptance mode draws each outer draw's rejection
sampler count from its law, M1 + NegBin(M1, p), with p the draw's exact
inner mean over its cell envelope's mean: a T-point table sum, or
Gauss-Legendre quadrature with Euler-Maclaurin corrections within 1e-13
relative.  The envelope and its mean come from one call,
``process.cell_envelopes``, and every series value from one evaluator,
``klcore._grid_series``.  A draw's cost is bounded by its own row, whatever
T or sigma is, and values do not depend on how draws are grouped
(``price_kl_nested``).  Its payoffs carry their geometric twins as a
control variate, at one dot product a draw.

No discounting is applied (riskless rate zero); callers that need a
discount factor scale the final value.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import process
from .klcore import _SQRT2_OVER_PI, _grid_series, truncation_index_bm, wiener_eval_horner
from .process import GbmParams

__all__ = [
    "AsianPayoffSpec",
    "Estimate",
    "price_baseline",
    "price_kl_nested",
    "price_subsample",
    "geometric_asian_closed_form",
]

_BLOCK_BYTES = 1 << 20  # one flat-kernel block buffer: about one core's L2 share
_GROUP_BYTES = 1 << 16  # one path or quadrature table of kl-nested draws
_RUN_DRAWS = 256  # most kl-nested draws of one run: their streams hold about 190 KB
_TABLE_POINTS = _GROUP_BYTES // 8  # most monitoring points of one path-table row: 8,192
_SUM_BLOCK = 4096  # kl-nested draws whose payoffs are summed at a time
_INNER_TOL = 1e-13  # relative error bound of a kl-nested inner mean by quadrature
_MIN_NODES = 64  # fewest Gauss-Legendre nodes of a kl-nested inner mean
_DEFAULT_SIZING = 4.0  # M0 = M1 = ceil(_DEFAULT_SIZING / eps^2)


@dataclass
class AsianPayoffSpec:
    """Strike and monitoring count T of the Asian call on the uniform 1/T average."""

    strike: float
    monitoring_count: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.strike):
            raise ValueError("strike must be finite")
        if self.strike < 0:
            raise ValueError("strike must be non-negative")
        if self.monitoring_count < 1:
            raise ValueError("monitoring_count must be >= 1")


@dataclass
class Estimate:
    """A Monte Carlo price: value, outer standard error, sample counts and counters.

    ``diagnostics`` holds deterministic integer counters of the run, a pure
    function of the request like the value: the flat estimators give the
    ``grid_points`` they priced and count their ``blocks`` and
    ``normals_drawn``; ``price_kl_nested`` gives ``clipped``,
    ``series_points`` and ``normals_drawn``, in acceptance mode also
    ``proposals``, ``accepted``, ``tabulated_draws`` and ``envelope_cells``,
    and two floats, its ``plain_value`` and ``plain_std_error``.
    """

    value: float
    std_error: float
    n_outer: int
    n_inner: int
    diagnostics: dict = field(default_factory=dict)


def _block_size(n_times: int) -> int:
    """Paths of one flat-kernel block: about ``_BLOCK_BYTES`` of grid rows, at least 8.

    It depends on the grid width alone, so that every value is a pure
    function of (seed, path index).
    """
    return max(8, _BLOCK_BYTES // (8 * n_times))


def _block_payoffs(
    logs: np.ndarray, legs: tuple, seed: int, tag: int, block_idx: int, payoff
) -> np.ndarray:
    """Payoffs of the first ``len(logs)`` exact paths of block ``block_idx``, in one pass.

    Their log(S(t)/s0) is built in place in ``logs``: filled from stream
    (seed, tag, block_idx), scaled and shifted by the increments' ``legs``
    (volatility, drift) and summed along each row; then ``payoff(logs)``
    maps the rows to their payoffs (and may overwrite them).  A
    ``Generator`` fills row-major, so a short block draws the first rows of a
    full one, and every step works row by row, so a path's payoff has the
    same bits however many rows its block holds, one included: an n-path
    run gives the first n payoffs of any longer run.
    """
    vol_leg, drift_leg = legs
    process.stream(seed, tag, block_idx).standard_normal(out=logs)
    logs *= vol_leg
    logs += drift_leg
    np.cumsum(logs, axis=1, out=logs)
    return payoff(logs)


def _check_flat_buffers(n_times: int, n_paths: int) -> int:
    """Bytes a one-thread flat run holds, checked by ``process.check_bytes``.

    The run holds three vectors as long as the grid (``dt`` and the two
    legs), one block buffer of min(block, n_paths) grid rows, and that
    block's payoff vector.  Each further thread holds another buffer and
    payoff vector, so ``process.GUARD_BYTES`` // this many threads fit the
    guard.  Not counted: the iteration buffer, at most 64 KiB, that numpy's
    broadcasting ufuncs allocate in each thread.
    """
    rows = min(_block_size(n_times), n_paths)
    return process.check_bytes("flat kernel buffer", ((rows + 3) * n_times + rows) * 8)


def _flat_threads(n_times: int, n_paths: int) -> int:
    """Threads of a guarded flat run: min(usable cores, blocks, threads whose buffers fit)."""
    need = _check_flat_buffers(n_times, n_paths)
    return min(_cpu_count(), -(-n_paths // _block_size(n_times)), process.GUARD_BYTES // need)


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
    threads: int = 1,
) -> tuple[float, float]:
    """Flat MC: sum and sum of squares of ``payoff`` over n_paths exact paths on ``times``.

    Paths come in blocks of ``_block_size`` rows, block i from stream
    (seed, tag, i), and the block sums are added in block order, so the
    result is the same whatever the number of threads.  Blocks run on
    ``threads`` threads (numpy's fills and ufuncs release the GIL), each
    under the caller's numpy error state, which worker threads do not
    inherit; a single thread is the calling thread.  The legs are computed
    once, and each thread's block buffer is allocated here, in the calling
    thread: buffers allocated in the workers grew the peak RSS through
    glibc's per-thread arenas.  ``_price_flat`` takes ``threads`` from
    ``_flat_threads``, so that their buffers together stay within the guard.
    """
    block = _block_size(times.size)
    rows = [min(block, n_paths - start) for start in range(0, n_paths, block)]
    dt = np.diff(times, prepend=0.0)
    legs = params.sigma * np.sqrt(dt), params.effective_drift * dt
    free = [np.empty((rows[0], times.size)) for _ in range(threads)]
    err = np.geterr()

    def sums(block_idx: int) -> tuple[float, float]:
        logs = free.pop()  # never empty: at most ``threads`` blocks run at once
        try:
            with np.errstate(**err):
                pay = _block_payoffs(logs[: rows[block_idx]], legs, seed, tag, block_idx, payoff)
                # einsum, not BLAS: a threaded BLAS dot splits the sum by its thread count
                return float(pay.sum()), float(np.einsum("i,i->", pay, pay))
        finally:
            free.append(logs)

    if threads == 1:
        parts = map(sums, range(len(rows)))
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(threads) as pool:
            parts = list(pool.map(sums, range(len(rows))))
    # left-to-right adds; sum() compensates its float adds from Python 3.12 on
    total = total_sq = 0.0
    for block_sum, block_sq in parts:
        total += block_sum
        total_sq += block_sq
    return total, total_sq


def _average_call(params: GbmParams, n_times: int, strike: float):
    """Payoff (mean_i S(t_i) - K)^+ of each row of log(S(t)/s0), computed in place.

    Each row is summed on its own by ``einsum``, so a path's payoff has the
    same bits however many rows share its block; a BLAS matrix-vector product
    can give the rows past a block's last multiple of 4 other bits.
    """
    scale = params.s0 / n_times

    def payoff(logs: np.ndarray) -> np.ndarray:
        if logs.shape[-1] != n_times:
            raise ValueError(f"payoff rows need {n_times} monitoring points, got {logs.shape[-1]}")
        pay = np.einsum("ij->i", np.exp(logs, out=logs))
        pay *= scale
        pay -= strike
        return np.maximum(pay, 0.0, out=pay)

    return payoff


def _price_flat(params: GbmParams, strike: float, m: int, n_paths: int, seed: int) -> Estimate:
    """Flat MC of the average call on the grid i/m, i = 1..m, guarded before it allocates.

    ``diagnostics`` gives the m ``grid_points`` and counts the ``blocks`` and
    the ``normals_drawn``, one per path and grid point.
    """
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    threads = _flat_threads(m, n_paths)
    times = np.arange(1, m + 1) / m
    payoff = _average_call(params, m, strike)
    sums = _flat_moments(params, times, n_paths, seed, process.TAG_PATHS, payoff, threads)
    diagnostics = {
        "grid_points": m,
        "blocks": -(-n_paths // _block_size(m)),
        "normals_drawn": n_paths * m,
    }
    return Estimate(*_mean_and_se(*sums, n_paths), n_paths, 1, diagnostics)


def price_baseline(params: GbmParams, spec: AsianPayoffSpec, n_paths: int, seed: int) -> Estimate:
    """Reference estimator: exact paths on the T-point monitoring grid.

    Unbiased for the discrete Asian price; standard error is the sample
    standard deviation of per-path payoffs over sqrt(n_paths).
    """
    return _price_flat(params, spec.strike, spec.monitoring_count, n_paths, seed)


def _subsample_points(epsilon: float, T: int) -> int:
    """Grid size m = min(ceil(1/eps^2), T) of the sub-sampling estimator.

    1/eps^2 is compared with T before it is rounded up, so an eps whose
    square underflows or whose 1/eps^2 overflows gives T.  The grid priced
    is guarded by ``_check_flat_buffers``.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    sq = float(epsilon) ** 2
    if sq == 0.0 or 1.0 / sq >= T:  # Python floats: a 1/sq past the range is inf, no error
        return T
    return math.ceil(1.0 / sq)


def _series_order(epsilon: float, L: int | None, T: int) -> int:
    """Series order L >= 0 of kl-nested, the truncation index for eps by default, and T <= 2^53.

    An outer draw holds its L + 1 coefficients and, while its envelope is
    computed, three more arrays as long, beside the request's L + 1 geometric
    weights: about 40 (L + 1) bytes (tracemalloc reads 5.0 times 8 (L + 1) at
    L = 10^6), which ``process.check_bytes`` guards: a series past 26,843,545
    coefficients, 1 GiB, is rejected.  A grid's series basis past 1 MiB is
    built a point at a time at such L, and the series costs a sine per point
    and coefficient: at L = 10^6 on a 2-core Xeon a draw took 2.5 s
    (acceptance, T = 64), 1.1 s (uniform mode, M1 = 400, T = 64) and 6.6 s
    (uniform mode at T = 2^20), so a few minutes at the guard.
    """
    if T > 1 << 53:
        raise ValueError("kl-nested needs T <= 2^53, the monitoring points a uniform can reach")
    if L is None:
        L = truncation_index_bm(epsilon)
    if L < 0:
        raise ValueError("L must be >= 0")
    process.check_bytes(f"a draw's series of {L + 1} coefficients", 40 * (L + 1))
    return L


def price_subsample(
    params: GbmParams, spec: AsianPayoffSpec, epsilon: float, n_paths: int, seed: int
) -> Estimate:
    """Flat MC on the uniform grid of m = min(ceil(1/eps^2), T) points with 1/m weights.

    Estimand: the average call on the grid i/m.  When ceil(1/eps^2) >= T
    there is nothing to sub-sample: m = T, and the estimate is
    ``price_baseline``'s, bit for bit, with no bias.  Below that the m-point
    grid stands in for the T monitoring points, and its price overstates
    theirs by about c (1/m - 1/T): c is about 4.9 at the golden market
    (s0 = K = 100, mu = 0.05, sigma = 0.2), from the level means of coupled
    grids of 1 to 4,096 points.  That is about 4.9 eps^2 at m = ceil(1/eps^2),
    0.044 at eps = 0.1 and T = 1,000.  Its cost does not grow with T.
    """
    m = _subsample_points(epsilon, spec.monitoring_count)
    return _price_flat(params, spec.strike, m, n_paths, seed)


def _haldane_mean(env, M1: int, n_prop):
    """Unbiased mean of a path over the T monitoring points from M1 acceptances.

    With p = mean_i G_L(i/T) / env, (M1 - 1)/(n_prop - 1) is unbiased for p
    (Haldane 1945), where the naive M1 / n_prop overstates it by a factor of
    about 1 + (1 - p)/M1.  Takes scalars or arrays.
    """
    return env * (M1 - 1) / (n_prop - 1)


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on [0, 1], n even.

    Newton's method on P_n, by its three-term recurrence, from
    cos(pi (i - 1/4)/(n + 1/2)), in elementwise numpy: no bit depends on BLAS.
    It runs in place on the n/2 roots in (0, 1] alone, and mirrors them.
    """
    x = np.cos(np.pi * (np.arange(n // 2, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1, step = np.ones(x.size), x.copy(), np.empty_like(x)
        for k in range(1, n):  # ((2k + 1) x P_k - k P_(k-1))/(k + 1)
            np.multiply(np.multiply(x, 2 * k + 1, out=step), p1, out=step)
            step -= np.multiply(p0, k, out=p0)
            p0, p1, step = p1, np.divide(step, k + 1, out=step), p0
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - (dx := p1 / dp)
        if np.max(np.abs(dx)) <= 1e-15:
            break
    weights = 1.0 / ((1.0 - x * x) * dp * dp)
    nodes, weights = (1.0 + np.concatenate((-x[::-1], x))) / 2, np.concatenate((weights[::-1], weights))
    nodes.flags.writeable = weights.flags.writeable = False  # the cache hands them to every caller
    return nodes, weights


def _quadrature_nodes(a: np.ndarray, params: GbmParams, T: int) -> np.ndarray:
    """Gauss-Legendre nodes n of each row's inner mean, 0 where it sums its T-point table.

    The rule and its two bounds are stated in ``price_kl_nested``.
    """
    n = np.zeros(len(a), dtype=np.int64)
    if T <= _MIN_NODES:
        return n
    A, k = np.abs(a[:, 1:]), np.arange(1.0, a.shape[1])
    sigma, drift = params.sigma, params.effective_drift
    x = [sigma * np.sqrt(2.0) * np.pi**j * np.einsum("ij,j->i", A, k**j) for j in range(7)]
    x[0] += sigma * np.abs(a[:, 0]) + abs(drift)  # x[j] bounds |phi^(j+1)|
    y = [np.ones(len(a))]  # complete Bell polynomials Y_0..Y_7 of x
    for m in range(7):
        y.append(sum(math.comb(m, i) * y[m - i] * x[i] for i in range(m + 1)))
    t_em = (2 * 1.0083492773819228 * y[7] / _INNER_TOL) ** (1 / 7) / (2 * np.pi)  # zeta(7)
    need = np.flatnonzero(T > np.maximum(_MIN_NODES, t_em))
    if need.size:
        A /= k  # in place: a row holds at most 4 arrays of L doubles, its own included
        sup = np.abs(a[need, 0]) + _SQRT2_OVER_PI * np.einsum("ij->i", A)[need]  # of |B_L|
        rho = 1.0 + 2.0 ** np.arange(-30.0, 7.0)  # the Bernstein ellipses tried
        c, s = (rho + 1 / rho) / 2, (rho - 1 / rho) / 2
        with np.errstate(over="ignore", invalid="ignore"):
            sines = sum(  # sum_k |a_k|/k cosh(k pi Im t) on E_rho, 256 k at a time
                np.einsum("ij,jg->ig", A[need, lo : lo + 256], np.cosh(np.outer(k[lo : lo + 256], np.pi * s / 2)))
                for lo in range(0, k.size, 256)
            )
            log_m = np.abs(a[need, :1]) * (1 + c) / 2 + _SQRT2_OVER_PI * sines  # of M(rho) / s0
            log_m = sigma * (log_m + sup[:, None]) + abs(drift) * (1 + c) / 2
            excess = math.log(32 / 15 / _INNER_TOL) + log_m - np.log(rho * rho - 1)
            best = np.fmin.reduce(1 + excess / (2 * np.log(rho)), axis=1)
        nodes = np.maximum(_MIN_NODES, 2.0 ** np.ceil(np.log2(np.fmin(best, 2.0**62))))
        n[need] = np.where(nodes < T, nodes, 0)
    return n


def _path(a: np.ndarray, t: np.ndarray, bound: np.ndarray, params: GbmParams, bases: dict, key):
    """Rows of G_L at the times t, each checked against its row's bound on the cell that holds it."""
    g = process.gbm_from_bm(_grid_series(a, t, bases, key), t, params)
    J = bound.shape[1]
    cell = np.maximum(np.ceil(t * J) - 1.0, 0.0).astype(np.intp)  # t J is exact: J is a power of 2
    if np.any(g > bound[:, cell] * (1.0 + 1e-12)):
        raise RuntimeError("path value exceeded the envelope; gmax contract violated")
    return g


def _quadrature_means(a: np.ndarray, bound: np.ndarray, params: GbmParams, T: int, n: int, bases: dict):
    """Each row's T^-1 sum_i G_L(i/T) by n-node Gauss-Legendre and Euler-Maclaurin through G^(5)."""
    x, w = _gauss_legendre(n)
    g = _path(a, np.concatenate(([0.0], x, [1.0])), bound, params, bases, ("nodes", n))
    k, b = np.arange(1.0, a.shape[1]), []
    for j in (0, 2, 4):  # sqrt(2) pi^j sum_k k^j a_k e^k, e = 1 at t = 0 and -1 at t = 1
        odd, even = (np.einsum("ij,j->i", a[:, 1 + p :: 2], k[p::2] ** j) for p in (0, 1))
        b.append(np.sqrt(2.0) * np.pi**j * np.stack([even + odd, even - odd], axis=1))
    d1 = params.sigma * (a[:, :1] + b[0]) + params.effective_drift  # phi' at both ends
    d3, d5 = -params.sigma * b[1], params.sigma * b[2]  # phi''' and phi^(5)
    ends = g[:, [0, -1]]
    terms = (ends, ends * d1, ends * (d1**3 + d3), ends * (d1**5 + 10 * d1**2 * d3 + d5))
    mean = np.einsum("ij,j->i", g[:, 1:-1], w)
    for term, div in zip(terms, (2 * T, 12 * T**2, -720 * T**4, 30240 * T**6)):
        mean += (term[:, 1] - term[:, 0]) / div
    return mean


def _inner_means(a: np.ndarray, env: np.ndarray, params: GbmParams, T: int, bases: dict | None = None):
    """Exact inner means T^-1 sum_i G_L(i/T) of the rows, their cell bounds' means, and counters.

    ``bases`` keeps the request's grid bases (``klcore._grid_series``).
    Tables hold at most ``_GROUP_BYTES``, or one row; a row's mean has the
    same bits whichever rows share its table.  A T-point row is summed in
    chunks of ``_TABLE_POINTS``: up to that, its mean is ``table.mean``'s.
    Every point is checked against its cell's bound.  The counters are the
    ``series_points`` evaluated, cell edges included, the
    ``tabulated_draws`` and the most ``envelope_cells`` of a draw.
    """
    bases = {} if bases is None else bases
    n = _quadrature_nodes(a, params, T)
    means, ebar = np.empty(len(a)), np.empty(len(a))
    counts = {"series_points": 0, "tabulated_draws": int(np.count_nonzero(n == 0)), "envelope_cells": 0}
    for size in sorted(set(n.tolist())):  # np.unique imports numpy.ma: 30 ms on first use
        rows = np.flatnonzero(n == size)
        width = size + 2 if size else min(T, _TABLE_POINTS)
        per = max(1, _GROUP_BYTES // (8 * width))
        for part in (rows[lo : lo + per] for lo in range(0, rows.size, per)):
            if part[-1] - part[0] + 1 == part.size:  # a run of rows: views, not copies
                part = slice(part[0], part[-1] + 1)
            bound, ebar[part], mids = process.cell_envelopes(params, a[part], env[part], T, size or width, bases)
            counts["series_points"] += len(bound) * ((size + 2 if size else T) + mids)
            counts["envelope_cells"] = max(counts["envelope_cells"], bound.shape[1])
            if size:
                means[part] = _quadrature_means(a[part], bound, params, T, size, bases)
                continue
            total = 0.0
            for first in range(0, T, width):
                t = np.arange(first + 1, min(first + width, T) + 1) / T
                total = total + _path(a[part], t, bound, params, bases, ("table", first)).sum(axis=1)
            means[part] = total / T
    return means, ebar, counts


def _tabled_counts(rngs: list, means: np.ndarray, env: np.ndarray, M1: int) -> np.ndarray:
    """Proposals through each draw's M1-th acceptance, drawn from their exact law.

    Draw j's count is M1 + NegBin(M1, p), one draw from ``rngs[j]``, for p its
    inner mean over ``env[j]``.  A count past the starvation budget raises
    ``RejectionStarvedError``, as the sampler would; so does a p too small
    for numpy to draw the count, (M1 + 10 sqrt(M1))(1 - p)/p past about 2^63
    (p below 1e-18 at M1 = 2), or a p of 0 or NaN from an infinite envelope;
    an envelope that underflows to 0 (at sigma = 40, T = 1, say) gives p = 0.
    """
    budget = process._STARVATION_FACTOR * M1
    n_prop = []
    rates = np.divide(means, env, out=np.zeros(len(means)), where=env > 0)
    for rng, p in zip(rngs, np.minimum(rates, 1.0).tolist()):
        try:
            count = M1 + int(rng.negative_binomial(M1, p))
        except ValueError:  # numpy refuses the p above; the mean count, M1 / p, stands in
            count = M1 / p if p > 0.0 else np.inf
        if count > budget:
            raise process.RejectionStarvedError(
                f"rejection sampler starved: {M1} acceptances at rate {p:.3g} take {count:.6g} "
                f"proposals, past the budget of {budget} (check the envelope constant)"
            )
        n_prop.append(count)
    return np.array(n_prop, dtype=np.int64)


def _acceptance_means(
    params: GbmParams, T: int, L: int, M0: int, M1: int, seed: int, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Haldane inner means of outer draws 0..M0-1, their rows times w, and counters.

    A run holds ``_RUN_DRAWS`` draws, fewer where their rows pass ``_GROUP_BYTES``.
    """
    gbar, aw = np.empty(M0), np.empty(M0)
    keys = ("clipped", "proposals", "accepted", "series_points", "tabulated_draws", "envelope_cells")
    counts = dict.fromkeys(keys, 0)
    bases = {}  # the series basis of each grid of the request, built once
    run = max(1, min(_RUN_DRAWS, _GROUP_BYTES // (8 * (L + 1))))
    streams = process.streams(seed, process.TAG_NESTED, range(M0))
    for first in range(0, M0, run):
        rngs = list(itertools.islice(streams, run))
        a, clipped = process._coefficient_rows(rngs, L)
        means, ebar, inner = _inner_means(a, process.path_envelope(params, a), params, T, bases)
        n_prop = _tabled_counts(rngs, means, ebar, M1)
        gbar[first : first + len(rngs)] = _haldane_mean(ebar, M1, n_prop)
        aw[first : first + len(rngs)] = np.einsum("ij,j->i", a, w)  # by row, not by BLAS
        counts["proposals"] += int(n_prop.sum())
        counts["series_points"] += inner["series_points"]
        counts["tabulated_draws"] += inner["tabulated_draws"]
        counts["envelope_cells"] = max(counts["envelope_cells"], inner["envelope_cells"])
        counts["clipped"] += clipped
    counts["accepted"] = M0 * M1
    counts["normals_drawn"] = M0 * (L + 1)
    return gbar, aw, counts


def _uniform_means(
    params: GbmParams, T: int, L: int, M0: int, M1: int, seed: int, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray, dict]:
    """Plain inner means at M1 uniform monitoring times, rows times w, and counters.

    When T <= M1 a draw's series is evaluated on the T points and read at
    its times' indices: a point's value has the same bits whatever other
    points share its evaluation, and fewer points are evaluated.
    """
    gbar, aw = np.empty(M0), np.empty(M0)
    clipped = 0
    grid = np.arange(1, T + 1) / T if T <= M1 else None
    for i in range(M0):
        rng = process.stream(seed, process.TAG_NESTED, i)
        coeffs = process.sample_coefficients(rng, L)
        aw[i] = np.einsum("ij,j->i", coeffs.a[None], w)[0]
        t = process.monitoring_times(rng.random(M1), T)
        if grid is None:
            b = wiener_eval_horner(coeffs, t)
        else:
            b = wiener_eval_horner(coeffs, grid)[np.rint(t * T).astype(np.intp) - 1]
        gbar[i] = np.mean(process.gbm_from_bm(b, t, params))
        clipped += coeffs.n_clipped
    points = M0 * min(T, M1)
    return gbar, aw, {"clipped": clipped, "series_points": points, "normals_drawn": M0 * (L + 1)}


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
    mode ``acceptance``: the rejection sampler against the path's own cell
    envelope (``process.cell_envelopes``: on each of J cells [l, r] of
    [0, 1], env_c = s0 exp(max(phi(l), phi(r)) + sigma S2/(8 J^2)), phi the
    log-path and S2 >= |B_L''|) spends n_prop proposals through its M1-th
    accepted monitoring time, and the path's monitoring average is recovered as
    ebar (M1 - 1)/(n_prop - 1), for ebar = T^-1 sum_c n_c env_c the bound's
    mean over the T points (n_c of them in cell c), mirroring how that
    average appears as a measurement probability in the amplitude encoding.
    Mode ``uniform`` instead averages the path value at M1 uniformly drawn
    monitoring times (``process.monitoring_times``).  Standard error comes
    from outer variation only.

    Control variate (Kemna & Vorst 1990): the estimate averages Y - X + E[X],
    Y = (gbar - K)^+ and X = (s0 exp(sigma a.w + drift w_0) - K)^+ on the
    draw's geometric mean over the T points (``_geometric_weights``), E[X] by
    ``geometric_asian_closed_form`` at L.  At coefficient 1 the estimand is
    unchanged, draw by draw; for an einsum per run it cuts the outer variance
    about 15x at the default market.  ``plain_value`` and ``plain_std_error``
    in ``diagnostics`` average Y alone.  When every draw's Y and X are 0 (no
    inner mean and no twin reaches K), the estimate is E[X] with SE 0.

    How acceptance mode gets n_prop.  Outer draw i reads its L + 1
    coefficients from its own stream, (seed, ``process.TAG_NESTED``, i), then
    draws n_prop = M1 + NegBin(M1, gbar / ebar) from it, the law of the
    sampler's count, for its exact inner mean gbar = T^-1 sum_i G_L(i/T):
    the T-point table mean when T <= max(n, T_EM), else n-node
    Gauss-Legendre on [0, 1] plus the Euler-Maclaurin corrections through
    G^(5).  With phi = sigma B_L + drift t, two bounds set n and T_EM from the
    draw's own |a_k| in O(L), each at most ``_INNER_TOL`` = 1e-13 of gbar:
    * T_EM, where the Euler-Maclaurin remainder, at most
      2 zeta(7) (2 pi T)^-7 Y_7 int G, reaches 1e-13 int G; Y_7 is the
      complete Bell polynomial of the bounds |phi^(j)| <= sigma sqrt(2)
      pi^(j-1) sum_k |a_k| k^(j-1), plus sigma |a0| + |drift| at j = 1;
    * n, the least power of two >= 64 whose Gauss-Legendre error bound
      (32/15) M rho^(2-2n)/(rho^2 - 1) (Trefethen 2008, SIAM Review 50(1),
      Thm 4.5, on [0, 1]), minimised over rho, is at most 1e-13 of the least
      path value s0 exp(-sigma sup|B_L| + min(drift, 0)), with M from
      |sin k pi z| <= cosh(k pi Im z) on the Bernstein ellipse E_rho.
    So every draw at T <= 64 is tabulated.  Its J cells are
    ``process.envelope_cells`` at its quadrature nodes, or at the points of
    one chunk of its table, min(T, 8,192): 64
    at eps = 0.1 and 16 at eps = 0.2 at the default market, where ebar / gbar,
    the proposals per acceptance, is about 1.011 and 1.02 (``path_envelope``,
    which caps every env_c and ebar, gives about 1.57).  A value is a pure
    function of (params, T, L, M0, M1, seed), whatever the grouping into runs
    and tables of at most ``_GROUP_BYTES``.  A count past 10^6 M1 proposals raises
    ``process.RejectionStarvedError``.

    A draw evaluates its series at n + 2 points or at T <= max(n, T_EM), and
    at the edges of at most max(64, n or min(T, 8,192)) cells, so its
    cost is bounded by its own row, whatever T (up to 2^53, the most a
    53-bit uniform can index), sigma or M1 is; the series basis of each grid
    is built once per request.  tracemalloc reads about 0.65 MiB at eps = 0.1,
    M0 = M1 = 400, T = 64.  Each of the M0 draws holds
    16 bytes, its inner mean and a.w, so ``process.GUARD_BYTES`` (1 GiB)
    rejects M0 past 2^26; the payoffs are summed in draw order over blocks of
    them.  Uniform mode holds about 64 bytes per inner sample of one draw, M1
    past 2^24 rejected.  An M1 past 9.2 * 10^12, whose starvation budget
    passes int64, is rejected.  These guards run before anything is drawn.

    ``diagnostics`` counts ``clipped`` coefficients, ``series_points`` (in
    acceptance mode the points of the path and quadrature tables and the
    cell edges; M0 min(T, M1) in uniform mode, which evaluates a draw on
    the T points when T <= M1) and ``normals_drawn``, M0 (L + 1); in
    acceptance mode also the drawn ``proposals``, ``accepted`` (M0 M1),
    ``tabulated_draws``, whose means are table sums, and ``envelope_cells``,
    the most cells J of a draw.

    Estimand: E[(T^-1 sum_i G_L(i/T) - K)^+] for the smoothed path G_L and
    T = ``spec.monitoring_count``.  Both inner means are unbiased per path, so
    what remains is the bias of clipping coefficients at ``klcore.CLIP``
    (E[X] ignores it), whose per-draw probability is below 1.3e-15, and the
    convexity bias of a nested estimator (the payoff is convex in the inner
    mean): about 2/M1 at the golden market (s0 = K = 100, mu = 0.05,
    sigma = 0.2, T = 64) against exact inner means, over 20,000 draws: at
    eps = 0.1, 0.117 +- 0.012 at M1 = 16 and 0.006 +- 0.003 at M1 = 400
    (``test_convexity_bias_falls_with_m1``); at eps = 0.2, 0.037 +- 0.008 at
    M1 = 100.

    Defaults: ``epsilon`` sets L, the truncation index for it, and
    M0 = M1 = ceil(4 / eps^2).  At the default market (s0 = K = 100,
    mu = 0.05, sigma = 0.2, T = 64, seed 1) the SE is 0.127 at eps = 0.2 and
    0.033 at eps = 0.1, about 0.64 eps and 0.33 eps (plain: 1.013 and 0.483).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    if inner_mode not in ("acceptance", "uniform"):
        raise ValueError("inner_mode must be 'acceptance' or 'uniform'")
    L = _series_order(epsilon, L, spec.monitoring_count)
    sq = float(epsilon) ** 2
    sizing = _DEFAULT_SIZING / sq if sq else math.inf
    if (M0 is None or M1 is None) and math.isinf(sizing):
        raise ValueError(f"default M0 = M1 = ceil(4/eps^2) is not finite at eps = {epsilon}")
    M0 = math.ceil(sizing) if M0 is None else M0
    M1 = math.ceil(sizing) if M1 is None else M1
    if M0 < 2 or M1 < 2:
        raise ValueError("M0 and M1 must be >= 2")
    process.check_bytes(f"outer sample of {M0} draws", 16 * M0)  # an inner mean and a.w each
    # a uniform-mode draw holds its M1 times, uniforms and path values, and
    # their temporaries: 64 bytes per inner sample at its peak (tracemalloc)
    if inner_mode == "uniform":
        process.check_bytes(f"uniform-mode draw of {M1} inner samples", 64 * M1)
    most = np.iinfo(np.int64).max // process._STARVATION_FACTOR  # proposals count in int64
    if inner_mode == "acceptance" and M1 > most:
        raise ValueError(f"M1 = {M1} is past {most}, the most acceptances whose starvation "
                         f"budget of {process._STARVATION_FACTOR} M1 proposals fits an int64 count")
    inner_means = _acceptance_means if inner_mode == "acceptance" else _uniform_means
    w = _geometric_weights(spec.monitoring_count, L)
    gbar, aw, diagnostics = inner_means(params, spec.monitoring_count, L, M0, M1, seed, w)
    twin, drift = _geometric_call(params, spec, w), params.effective_drift * w[0]
    sums = [0.0] * 4  # of the plain payoffs, their squares, the controlled ones, their squares
    for lo in range(0, M0, _SUM_BLOCK):
        pay = np.maximum(gbar[lo : lo + _SUM_BLOCK] - spec.strike, 0.0)
        geo = params.s0 * np.exp(params.sigma * aw[lo : lo + _SUM_BLOCK] + drift)
        ctrl = pay - np.maximum(geo - spec.strike, 0.0) + twin
        # accumulate adds one value at a time, in draw order: a Python loop's bits
        sums = [float(np.add.accumulate(np.concatenate(([total], x)))[-1])
                for total, x in zip(sums, (pay, pay * pay, ctrl, ctrl * ctrl))]
    diagnostics["plain_value"], diagnostics["plain_std_error"] = _mean_and_se(*sums[:2], M0)
    return Estimate(*_mean_and_se(*sums[2:], M0), M0, M1, diagnostics)


def _norm_cdf(x: float) -> float:
    """Standard normal cdf on the stdlib's erf/erfc, split as cephes's ndtr."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0.0 else tail


def _geometric_weights(T: int, L: int) -> np.ndarray:
    """w_0..w_L, the means over i/T, i = 1..T, of t and of each sine mode of B_L.

    w_0 = (T+1)/(2T), and w_k = (sqrt(2)/pi) cot(k pi/(2T))/(kT) for odd k, from
    sum_i sin(k pi i/T), with k taken mod 2T (cot's period); 0 for even k.
    """
    w, k = np.zeros(L + 1), np.arange(1.0, L + 1, 2.0)
    w[0] = (T + 1) / (2 * T)
    x = np.fmod(k, 2 * T) * np.pi / (2 * T)  # cos/sin, as np.tan maps 128 KiB more of numpy
    w[1::2] = _SQRT2_OVER_PI * np.cos(x) / (np.sin(x) * k * T)
    return w


def geometric_asian_closed_form(params: GbmParams, spec: AsianPayoffSpec, L: int | None = None) -> float:
    """Closed-form price of the geometric-average call monitored at i/T, i = 1..T.

    The log of the geometric average A_G = (prod_i S(i/T))^(1/T) is Gaussian
    with mean m = ln s0 + drift (T+1)/(2T) and variance
    v = sigma^2 T^-2 sum_{i,j} min(i, j)/T = sigma^2 (T+1)(2T+1)/(6T^2), so

        E[(A_G - K)^+] = e^{m + v/2} Phi((m - ln K + v)/sqrt(v))
                         - K Phi((m - ln K)/sqrt(v)).

    Each moment is one correctly rounded integer ratio, so the cost is O(1)
    in T.  Degenerate variance collapses to the deterministic payoff and
    K <= 0 collapses to the mean of A_G.  Given L >= 0 it prices the call on
    kl-nested's G_L instead, in O(L): v = sigma^2 sum_j w_j^2 (``_geometric_weights``).
    """
    return _geometric_call(params, spec, None if L is None else _geometric_weights(spec.monitoring_count, L))


def _geometric_call(params: GbmParams, spec: AsianPayoffSpec, w: np.ndarray | None) -> float:
    """``geometric_asian_closed_form`` on the exact path (w None), or on G_L given its weights w."""
    T, strike = spec.monitoring_count, spec.strike
    m = float(np.log(params.s0) + params.effective_drift * ((T + 1) / (2 * T)))
    if w is None:
        v = float(params.sigma**2 * ((T + 1) * (2 * T + 1) / (6 * T * T)))
    else:
        v = float(params.sigma**2 * np.einsum("i,i->", w, w))
    if strike <= 0.0:
        return float(np.exp(m + 0.5 * v) - strike)
    if v <= 0.0:
        return float(max(np.exp(m) - strike, 0.0))
    sd = np.sqrt(v)
    d2 = (m - np.log(strike)) / sd
    d1 = d2 + sd
    return float(np.exp(m + 0.5 * v) * _norm_cdf(d1) - strike * _norm_cdf(d2))
