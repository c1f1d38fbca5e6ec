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

Every route averages over a uniform grid i/m, i = 1..m: m = T for the
baseline, the nested estimator and the closed form, m = ceil(1/eps^2) for
sub-sampling.  The flat estimators (baseline, sub-sampling) share one body,
``_price_flat``, and one kernel.  Paths come in fixed-size blocks, each
drawn from its own stream keyed by (seed, block index), and each block is
built in chunks of about 1 MiB in one reused buffer.  Several blocks run at
once on one thread per usable core, and their payoff sums are added in
block order, so every value is a pure function of (seed, path index)
whatever the number of cores.  The buffer guard runs before anything is
allocated.

The nested estimator's acceptance mode runs the rejection sampler for runs
of outer draws in vectorised rounds, reading small-T paths from tables;
memory is capped by ``_GROUP_BYTES``, cost does not grow with T, and values
do not depend on the grouping (see ``price_kl_nested``).

No discounting is applied (riskless rate zero); callers that need a
discount factor scale the final value.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from . import process
from .klcore import _clenshaw, truncation_index_bm, wiener_eval_horner
from .process import GbmParams

__all__ = [
    "AsianPayoffSpec",
    "Estimate",
    "price_baseline",
    "price_kl_nested",
    "price_subsample",
    "geometric_asian_closed_form",
]

# Flat Monte Carlo runs in fixed-size path blocks, each replayed from its own
# keyed stream; block size depends only on the grid width so results are a
# pure function of (seed, path index).
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
_GROUP_BYTES = 1 << 16  # uniforms of one group, and one path table, of kl-nested draws
_MAX_DOUBLES = 100_000_000  # resource guard on one vector of draws or grid points
_FLAT_BYTES = 1 << 28  # resource guard on the flat kernel's chunk buffers, all threads together
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
    """A Monte Carlo price: value, outer standard error, sample counts and counters.

    ``diagnostics`` holds deterministic integer counters of the run, a pure
    function of the request like the value; kl-nested fills it.
    """

    value: float
    std_error: float
    n_outer: int
    n_inner: int
    diagnostics: dict = field(default_factory=dict)


def _block_rows(n_times: int, n_paths: int) -> list[int]:
    """Path counts of the blocks that hold n_paths paths, in block order."""
    block = _block_size(n_times)
    return [min(block, n_paths - start) for start in range(0, n_paths, block)]


def _chunk_rows(n_times: int) -> int:
    """Rows of the about 1 MiB chunk a block is built in, at least 8."""
    return max(8, _CHUNK_BYTES // (8 * n_times))


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
    their payoffs (and may overwrite ``logs``).  A ``Generator`` fills
    row-major, so the chunks draw the same normals as one fill of the whole
    block.  Every step works row by row, so a path's payoff has the same
    bits whatever chunk it falls in, a 1-row last chunk included, and an
    n-path run gives the first n payoffs of any longer run.
    """
    n_times = times.size
    chunk = _chunk_rows(n_times)
    dt = np.diff(times, prepend=0.0)
    drift_leg = params.effective_drift * dt
    vol_leg = params.sigma * np.sqrt(dt)
    rng = process.stream(seed, tag, block_idx)
    buf = np.empty((min(rows, chunk), n_times))
    pay = np.empty(rows)
    for start in range(0, rows, chunk):
        logs = buf[: min(chunk, rows - start)]
        rng.standard_normal(out=logs)
        logs *= vol_leg
        logs += drift_leg
        np.cumsum(logs, axis=1, out=logs)
        pay[start : start + logs.shape[0]] = payoff(logs)
    return pay


def _check_flat_buffers(n_times: int, n_paths: int) -> int:
    """Bytes of one thread's grid-sized arrays, rejected past ``_FLAT_BYTES``.

    A thread's ``_block_payoffs`` call holds its chunk buffer,
    min(block, n_paths, chunk) rows of the grid, and three vectors as long
    as the grid (``dt``, ``drift_leg`` and ``vol_leg``).
    """
    rows = min(_block_size(n_times), n_paths, _chunk_rows(n_times))
    need = (rows + 3) * n_times * 8
    if need > _FLAT_BYTES:
        raise ValueError(f"flat kernel buffer of {need} bytes exceeds the {_FLAT_BYTES}-byte guard")
    return need


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
    worker threads do not inherit.  The threads' buffers together stay
    within ``_FLAT_BYTES``.
    """
    workers = _FLAT_BYTES // _check_flat_buffers(times.size, n_paths)
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

        with ThreadPoolExecutor(min(_cpu_count(), len(rows), workers)) as pool:
            parts = list(pool.map(moments, range(len(rows))))
    # left-to-right adds; sum() compensates its float adds from Python 3.12 on
    total = total_sq = 0.0
    for block_sum, block_sq in parts:
        total += block_sum
        total_sq += block_sq
    return _mean_and_se(total, total_sq, n_paths)


def _average_call(params: GbmParams, n_times: int, strike: float):
    """Payoff (mean_i S(t_i) - K)^+ of each row of log(S(t)/s0), computed in place.

    Each row is summed on its own by ``einsum``, so a path's payoff has the
    same bits however many rows share its chunk; a BLAS matrix-vector product
    can give the rows past a chunk's last multiple of 4 other bits.
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
    """Flat MC of the average call on the grid i/m, i = 1..m, guarded before it allocates."""
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2")
    _check_flat_buffers(m, n_paths)
    times = np.arange(1, m + 1) / m
    payoff = _average_call(params, m, strike)
    mean, se = _flat_moments(params, times, n_paths, seed, process.TAG_PATHS, payoff)
    return Estimate(mean, se, n_paths, 1)


def price_baseline(params: GbmParams, spec: AsianPayoffSpec, n_paths: int, seed: int) -> Estimate:
    """Reference estimator: exact paths on the T-point monitoring grid.

    Unbiased for the discrete Asian price; standard error is the sample
    standard deviation of per-path payoffs over sqrt(n_paths).
    """
    return _price_flat(params, spec.strike, spec.monitoring_count, n_paths, seed)


def _subsample_points(epsilon: float) -> int:
    """Grid size M = ceil(1/eps^2) of the sub-sampling estimator, within the guard."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must be in (0, 1)")
    m = int(np.ceil(1.0 / epsilon**2))
    if m > _MAX_DOUBLES:
        raise ValueError(f"sub-sampling grid of {m} points exceeds the resource guard")
    return m


def _series_order(epsilon: float, L: int | None, T: int) -> int:
    """Series order L >= 0 of kl-nested, the truncation index for eps by default, and T <= 2^53.

    An outer draw holds its L + 1 coefficients and, while its envelope is
    computed, three more arrays as long: about 32 (L + 1) bytes (tracemalloc
    reads 4.0 times 8 (L + 1) at L = 10^6).  A series past ``_MAX_DOUBLES``
    coefficients, 3.2 GB per draw, is rejected.
    """
    if T > 1 << 53:
        raise ValueError("kl-nested needs T <= 2^53, the monitoring points a uniform can reach")
    if L is None:
        L = truncation_index_bm(epsilon)
    if L < 0:
        raise ValueError("L must be >= 0")
    if L + 1 > _MAX_DOUBLES:
        raise ValueError(
            f"series of {L + 1} coefficients needs about {32 * (L + 1)} bytes per draw, "
            f"past the {32 * _MAX_DOUBLES}-byte guard"
        )
    return L


def price_subsample(
    params: GbmParams, spec: AsianPayoffSpec, epsilon: float, n_paths: int, seed: int
) -> Estimate:
    """Flat MC on the uniform M = ceil(1/eps^2) point grid with 1/M weights.

    The coarse grid stands in for the T monitoring points; its payoff MSE
    against the T-point payoff is O(eps^2), so the estimate carries an
    O(eps) bias allowance on top of the sampling error.
    """
    return _price_flat(params, spec.strike, _subsample_points(epsilon), n_paths, seed)


def _haldane_mean(env, M1: int, n_prop):
    """Unbiased mean of a path over the T monitoring points from M1 acceptances.

    Proposals until the M1-th acceptance are negative binomial with success
    probability p = mean_i G_L(i/T) / env, and (M1 - 1)/(n_prop - 1) is unbiased
    for p (Haldane 1945), so env (M1 - 1)/(n_prop - 1) is unbiased for the
    mean.  The naive M1 / n_prop overstates it by a factor of about
    1 + (1 - p)/M1.  Takes one draw's envelope and proposal count, or arrays
    of them.
    """
    return env * (M1 - 1) / (n_prop - 1)


def _rounds(
    rngs: list, a: np.ndarray, env: np.ndarray, batch: np.ndarray,
    table: np.ndarray | None, M1: int, params: GbmParams, T: int,
) -> tuple[np.ndarray, int]:
    """Proposals each draw of a run spends through its M1-th acceptance, and points evaluated.

    Draw j has coefficient row ``a[j]``, envelope ``env[j]``, stream
    ``rngs[j]`` and first batch ``batch[j]``; later batches are sized from
    its own counts, as in ``process.rejection_sample_times``.  A round draws
    the batches of the draws still short of M1 acceptances in groups of at
    most ``_GROUP_BYTES`` of uniforms (at least one draw each).  The path
    value at ``process.monitoring_times(u, T)`` comes from ``table`` (one row
    per draw) or, without one, from the series at that time.
    """
    cap = _GROUP_BYTES // 16  # proposals of one group: two uniforms each
    budget = process._STARVATION_FACTOR * M1
    hits = np.zeros(len(rngs), dtype=np.int64)
    spent = np.zeros(len(rngs), dtype=np.int64)  # proposals, through the M1-th acceptance
    points = 0
    live = np.arange(len(rngs))
    while live.size:
        ends = np.cumsum(batch)
        j = 0
        while j < live.size:
            k = max(j + 1, int(np.searchsorted(ends, ends[j] - batch[j] + cap, side="right")))
            group, size = live[j:k], batch[j:k]
            stop = np.cumsum(size)
            start = stop - size
            u = np.empty((int(stop[-1]), 2))
            for i, lo, hi in zip(group, start, stop):
                rngs[i].random(out=u[lo:hi])
            row = np.repeat(group, size)
            if table is None:
                t = process.monitoring_times(u[:, 0], T)
                b = _clenshaw(a[group[0]], t) if group.size == 1 else _clenshaw(a, t, row)
                g = process.gbm_from_bm(b, t, params)
            else:
                g = table[row, (u[:, 0] * T).astype(np.int64)]  # column floor(u T)
            env_p = env[row]
            if np.any(g > env_p * (1.0 + 1e-12)):
                raise ValueError("path value exceeded the envelope; gmax contract violated")
            accepted = np.cumsum(u[:, 1] * env_p <= g)  # acceptances through each proposal
            through = accepted[stop - 1]
            got = np.diff(through, prepend=0)
            # the M1-th acceptance, past the batch for a draw still short
            last = np.searchsorted(accepted, through - got + M1 - hits[group])
            spent[group] += np.minimum(last - start + 1, size)
            hits[group] += got
            points += row.size
            j = k
        live = live[hits[live] < M1]
        starved = live[spent[live] >= budget]
        if starved.size:
            raise process.RejectionStarvedError(
                f"rejection sampler starved: {spent[starved[0]]} proposals produced "
                f"{hits[starved[0]]}/{M1} acceptances (check the envelope constant)"
            )
        # with no acceptance yet, a rate of 1/spent grows the batches geometrically
        rate = np.maximum(hits[live], 1) / spent[live]
        batch = np.minimum(process._batch_size(M1 - hits[live], rate), budget - spent[live])
    return spent, points


def _acceptance_means(
    params: GbmParams, T: int, L: int, M0: int, M1: int, seed: int
) -> tuple[np.ndarray, dict]:
    """Haldane inner means of outer draws 0..M0-1, and counters, a run of draws at a time.

    A run's coefficient rows fit ``_GROUP_BYTES``; it is split into tables
    of tabulated draws and the rest (``price_kl_nested``), which changes no value.
    """
    gbar = np.empty(M0)
    counts = dict.fromkeys(("clipped", "proposals", "accepted", "series_points"), 0)
    run = max(1, min(_GROUP_BYTES // 16 // process._MIN_BATCH, _GROUP_BYTES // (8 * (L + 1))))
    per_table = _GROUP_BYTES // (8 * T)  # path rows that fit one table, none past T = 8192
    grid = np.arange(1, T + 1) / T if per_table else None
    for first in range(0, M0, run):
        draws = range(first, min(first + run, M0))
        rngs = [process.stream(seed, process.TAG_NESTED, i) for i in draws]
        a, clipped = process._coefficient_rows(rngs, L)
        env = process.path_envelope(params, a)
        batch = process._batch_size(M1, process._first_batch_rate(a, env, params))
        tabled = (batch >= T) & (per_table > 0)
        rows = np.flatnonzero(tabled)
        parts = [(rows[i : i + per_table], True) for i in range(0, rows.size, max(per_table, 1))]
        for part, tab in [*parts, (np.flatnonzero(~tabled), False)]:
            table = process.gbm_from_bm(_clenshaw(a[part], grid), grid, params) if tab else None
            n_prop, points = _rounds(
                [rngs[i] for i in part], a[part], env[part], batch[part], table, M1, params, T
            )
            gbar[first + part] = _haldane_mean(env[part], M1, n_prop)
            counts["proposals"] += int(n_prop.sum())
            counts["series_points"] += points if table is None else table.size
        counts["clipped"] += clipped
    counts["accepted"] = M0 * M1
    return gbar, counts


def _uniform_means(
    params: GbmParams, T: int, L: int, M0: int, M1: int, seed: int
) -> tuple[np.ndarray, dict]:
    """Plain inner means at M1 uniformly drawn monitoring times per outer draw, and counters."""
    gbar = np.empty(M0)
    clipped = 0
    for i in range(M0):
        rng = process.stream(seed, process.TAG_NESTED, i)
        coeffs = process.sample_coefficients(rng, L)
        t = process.monitoring_times(rng.random(M1), T)
        gbar[i] = np.mean(process.gbm_from_bm(wiener_eval_horner(coeffs, t), t, params))
        clipped += coeffs.n_clipped
    return gbar, {"clipped": clipped, "series_points": M0 * M1}


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
    M1 uniformly drawn monitoring times (``process.monitoring_times``).
    Standard error comes from outer variation only.

    Acceptance mode runs the sampler for runs of outer draws in rounds
    (``_rounds``); each proposal gets the bits the one-draw sampler would
    give it, so the estimate does not depend on the grouping.  A draw's path
    is tabulated on the T-point grid when its T points are no more than its
    first batch's proposals and one path row fits ``_GROUP_BYTES`` (64 KiB),
    in tables of at most that size; otherwise each of its proposals is
    evaluated at its own time.  So a draw costs T points, no more than its
    first batch, or one point per proposal: the cost does not grow with T,
    up to T = 2^53, the most a 53-bit uniform can index.  A group's batches hold at most
    ``_GROUP_BYTES`` of uniforms: the working memory is about 0.4 MiB at
    eps = 0.1, M0 = M1 = 400 and T = 64, and 0.6 MiB at T = 2^20.

    ``diagnostics`` counts ``clipped`` coefficients and ``series_points``
    (in acceptance mode the points of the path tables plus the proposals
    evaluated at their own time; in uniform mode M0 M1), and, in acceptance
    mode, ``proposals`` through each draw's M1-th acceptance and
    ``accepted`` (M0 M1).

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
    L = _series_order(epsilon, L, spec.monitoring_count)
    M0 = int(np.ceil(_DEFAULT_SIZING / epsilon**2)) if M0 is None else M0
    M1 = int(np.ceil(_DEFAULT_SIZING / epsilon**2)) if M1 is None else M1
    if M0 < 2 or M1 < 2:
        raise ValueError("M0 and M1 must be >= 2")
    inner_means = _acceptance_means if inner_mode == "acceptance" else _uniform_means
    gbar, diagnostics = inner_means(params, spec.monitoring_count, L, M0, M1, seed)
    total = 0.0
    total_sq = 0.0
    for g in gbar.tolist():  # in draw order
        pay = max(g - spec.strike, 0.0)
        total += pay
        total_sq += pay * pay
    mean, se = _mean_and_se(total, total_sq, M0)
    return Estimate(mean, se, M0, M1, diagnostics)


def geometric_asian_closed_form(params: GbmParams, spec: AsianPayoffSpec) -> float:
    """Closed-form price of the geometric-average call monitored at i/T, i = 1..T.

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

    t = np.arange(1, spec.monitoring_count + 1) / spec.monitoring_count
    M, strike = t.size, spec.strike
    m = float(np.log(params.s0) + params.effective_drift * t.mean())
    # sum_{i,j} min(t_i, t_j) for increasing t: each t_i is the minimum in
    # 2(M - i) + 1 of the M^2 ordered pairs
    counts = 2.0 * (M - 1.0 - np.arange(M)) + 1.0
    v = float(params.sigma**2 / M**2 * np.dot(t, counts))
    if strike <= 0.0:
        return float(np.exp(m + 0.5 * v) - strike)
    if v <= 0.0:
        return float(max(np.exp(m) - strike, 0.0))
    sd = np.sqrt(v)
    d2 = (m - np.log(strike)) / sd
    d1 = d2 + sd
    return float(np.exp(m + 0.5 * v) * ndtr(d1) - strike * ndtr(d2))
