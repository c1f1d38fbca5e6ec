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
  geometric-average payoff, used as an analytic oracle.

Every route averages over a uniform grid i/m, i = 1..m: m = T for the
baseline, the nested estimator and the closed form, and
m = min(ceil(1/eps^2), T) for sub-sampling, whose estimand is the price on
that grid: it is the T-point price, with no bias, when ceil(1/eps^2) >= T,
and below that overstates it by about c (1/m - 1/T), with c about 4.9 at
the golden market (``price_subsample``).  The flat estimators (baseline,
sub-sampling) share one body, ``_price_flat``, and one kernel.
Paths come in blocks of about 1 MiB of grid rows, each drawn from its own
stream keyed by (seed, block index) and built in one pass in one of the
request's block buffers, one per thread.
Several blocks run at once on one thread per usable core, and their payoff
sums are added in block order, so every value is a pure function of (seed,
path index) whatever the number of cores.  The buffer guard runs before
anything is allocated.

The nested estimator's acceptance mode needs, per outer draw, only the
number of proposals the rejection sampler spends through its M1-th
acceptance.  A draw whose path is tabulated on the T points (T <= 8,192 and
no more than its guessed first batch) knows its exact acceptance probability
p, so that count is drawn from its law, M1 + NegBin(M1, p), in one call; the
other draws run the sampler in vectorised rounds.  Memory is capped by
``_GROUP_BYTES`` and ``_RUN_DRAWS`` (a request peaks at about 0.8 MiB under
tracemalloc at eps = 0.1, M0 = M1 = 400, T = 64), cost does not grow with T,
and values do not depend on the grouping (see ``price_kl_nested``).

No discounting is applied (riskless rate zero); callers that need a
discount factor scale the final value.
"""

from __future__ import annotations

import itertools
import math
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

_BLOCK_BYTES = 1 << 20  # one flat-kernel block buffer: about one core's L2 share
_GROUP_BYTES = 1 << 16  # uniforms of one group, and one path table, of kl-nested draws
_RUN_DRAWS = 256  # most kl-nested draws of one run: their streams hold about 190 KB
_TABLE_T = 8192  # most monitoring points of a tabulated kl-nested path: one 64 KiB row
_SUM_BLOCK = 4096  # kl-nested inner means turned into Python floats at a time
_MAX_DOUBLES = 100_000_000  # resource guard on kl-nested series points and coefficients
_NESTED_BYTES = 32 * _MAX_DOUBLES  # resource guard on one kl-nested draw, and on all M0 draws
_FLAT_BYTES = 1 << 28  # resource guard on the flat kernel's block buffers, all threads together
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
    ``normals_drawn``; ``price_kl_nested`` lists its own, ``tabulated_draws``
    among them.
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
    """Bytes a one-thread flat run holds, rejected past ``_FLAT_BYTES``.

    The run holds three vectors as long as the grid (``dt`` and the two
    legs), one block buffer of min(block, n_paths) grid rows, and that
    block's payoff vector.  Each further thread holds another buffer and
    payoff vector, so ``_FLAT_BYTES`` // this many threads fit the guard.
    Not counted: the iteration buffer, at most 64 KiB, that numpy's
    broadcasting ufuncs allocate in each thread.
    """
    rows = min(_block_size(n_times), n_paths)
    need = ((rows + 3) * n_times + rows) * 8
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
    workers: int = 1,
) -> tuple[float, float]:
    """Flat MC: sum and sum of squares of ``payoff`` over n_paths exact paths on ``times``.

    Paths come in blocks of ``_block_size`` rows, block i from stream
    (seed, tag, i), and the block sums are added in block order, so the
    result is the same whatever the number of threads.  Blocks run on
    min(usable cores, blocks, ``workers``) threads (numpy's fills and ufuncs
    release the GIL), each under the caller's numpy error state, which worker
    threads do not inherit; a single thread is the calling thread.  The legs
    are computed once, and each thread's block buffer is allocated here, in
    the calling thread: buffers allocated in the workers grew the peak RSS
    through glibc's per-thread arenas.  ``_price_flat`` sizes ``workers`` so
    that the threads' buffers together stay within ``_FLAT_BYTES``.
    """
    block = _block_size(times.size)
    rows = [min(block, n_paths - start) for start in range(0, n_paths, block)]
    threads = min(_cpu_count(), len(rows), workers)
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
    workers = _FLAT_BYTES // _check_flat_buffers(m, n_paths)
    times = np.arange(1, m + 1) / m
    payoff = _average_call(params, m, strike)
    sums = _flat_moments(params, times, n_paths, seed, process.TAG_PATHS, payoff, workers)
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
    computed, three more arrays as long: about 32 (L + 1) bytes (tracemalloc
    reads 4.0 times 8 (L + 1) at L = 10^6).  A series pass takes one Python
    step per coefficient: a draw took 2.7 s (uniform mode) and 4.9 s
    (acceptance) at L = 10^6 on a 2-core Xeon.  A series past ``_MAX_DOUBLES``
    coefficients, 3.2 GB and 4.5 to 8 minutes per draw, is rejected.
    """
    if T > 1 << 53:
        raise ValueError("kl-nested needs T <= 2^53, the monitoring points a uniform can reach")
    if L is None:
        L = truncation_index_bm(epsilon)
    if L < 0:
        raise ValueError("L must be >= 0")
    if 32 * (L + 1) > _NESTED_BYTES:
        raise ValueError(
            f"series of {L + 1} coefficients needs about {32 * (L + 1)} bytes per draw, "
            f"past the {_NESTED_BYTES}-byte guard"
        )
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
    M1: int, params: GbmParams, T: int,
) -> tuple[np.ndarray, int]:
    """Proposals each draw of a run spends through its M1-th acceptance, and points evaluated.

    The rejection sampler of draws whose path is not tabulated.  Draw j has
    coefficient row ``a[j]``, envelope ``env[j]``, stream ``rngs[j]`` and
    first batch ``batch[j]``; later batches are sized from its own counts, as
    in ``process.rejection_sample_times``, and each proposal gets the bits
    that sampler would give it.  A round draws the batches of the draws
    still short of M1 acceptances in groups of at most ``_GROUP_BYTES`` of
    uniforms (at least one draw each), and evaluates the series at each
    proposal's time ``process.monitoring_times(u, T)``.
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
            local = np.repeat(np.arange(group.size), size)  # each proposal's draw in the group
            row = group[local]
            t = process.monitoring_times(u[:, 0], T)
            b = _clenshaw(a[group[0]], t) if group.size == 1 else _clenshaw(a[group], t, local)
            g = process.gbm_from_bm(b, t, params)
            env_p = env[row]
            if np.any(g > env_p * (1.0 + 1e-12)):
                raise RuntimeError("path value exceeded the envelope; gmax contract violated")
            accepted = np.cumsum(u[:, 1] * env_p <= g)  # acceptances through each proposal
            through = accepted[stop - 1]
            got = through.copy()  # acceptances of each draw in this group
            got[1:] -= through[:-1]
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
                f"rejection sampler starved: the budget of {budget} proposals produced "
                f"{hits[starved[0]]}/{M1} acceptances (check the envelope constant)"
            )
        # with no acceptance yet, a rate of 1/spent grows the batches geometrically
        rate = np.maximum(hits[live], 1) / spent[live]
        batch = np.minimum(process._batch_size(M1 - hits[live], rate), budget - spent[live])
    return spent, points


def _tabled_counts(rngs: list, table: np.ndarray, env: np.ndarray, M1: int) -> np.ndarray:
    """Proposals through the M1-th acceptance of tabulated draws, drawn from their exact law.

    Row j of ``table`` is draw j's path on the T monitoring points, so its
    mean over ``env[j]`` is the probability p that one proposal is accepted,
    and the count is M1 + NegBin(M1, p), one draw from ``rngs[j]``.  The
    whole row is checked against the envelope.  A count past the starvation
    budget raises ``RejectionStarvedError``, as the sampler would; so does a
    p too small for numpy to draw the count, (M1 + 10 sqrt(M1))(1 - p)/p past
    about 2^63 (p below 1e-18 at M1 = 2), or a p of 0 or NaN from an infinite
    envelope.
    """
    if np.any(table > env[:, None] * (1.0 + 1e-12)):
        raise RuntimeError("path value exceeded the envelope; gmax contract violated")
    budget = process._STARVATION_FACTOR * M1
    n_prop = []
    for rng, p in zip(rngs, np.minimum(table.mean(axis=1) / env, 1.0).tolist()):
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
    params: GbmParams, T: int, L: int, M0: int, M1: int, seed: int
) -> tuple[np.ndarray, dict]:
    """Haldane inner means of outer draws 0..M0-1, and counters, a run of draws at a time.

    A run holds ``_RUN_DRAWS`` draws, fewer where their coefficient rows
    pass ``_GROUP_BYTES``.  Its tabulated draws (``price_kl_nested``) take
    their counts from tables of at most ``_GROUP_BYTES``, the rest from the
    sampler's rounds, which bound their uniforms; the split changes no value.
    """
    gbar = np.empty(M0)
    keys = ("clipped", "proposals", "accepted", "series_points", "tabulated_draws")
    counts = dict.fromkeys(keys, 0)
    run = max(1, min(_RUN_DRAWS, _GROUP_BYTES // (8 * (L + 1))))
    per_table = max(1, _GROUP_BYTES // (8 * T))  # path rows of one table
    grid = np.arange(1, T + 1) / T if T <= _TABLE_T else None
    streams = process.streams(seed, process.TAG_NESTED, range(M0))
    for first in range(0, M0, run):
        rngs = list(itertools.islice(streams, run))
        a, clipped = process._coefficient_rows(rngs, L)
        env = process.path_envelope(params, a)
        batch = process._batch_size(M1, process._first_batch_rate(a, env, params))
        tabled = (batch >= T) & (T <= _TABLE_T)
        rows = np.flatnonzero(tabled)
        n_prop = np.empty(len(rngs), dtype=np.int64)
        for lo in range(0, rows.size, per_table):
            part = rows[lo : lo + per_table]
            table = process.gbm_from_bm(_clenshaw(a[part], grid), grid, params)
            n_prop[part] = _tabled_counts([rngs[i] for i in part], table, env[part], M1)
            counts["series_points"] += table.size
        part = np.flatnonzero(~tabled)
        if part.size:
            n_prop[part], points = _rounds(
                [rngs[i] for i in part], a[part], env[part], batch[part], M1, params, T
            )
            counts["series_points"] += points
        gbar[first : first + len(rngs)] = _haldane_mean(env, M1, n_prop)
        counts["proposals"] += int(n_prop.sum())
        counts["tabulated_draws"] += rows.size
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
    mode ``acceptance``: the rejection sampler against the path's own
    envelope (``process.path_envelope``) spends n_prop proposals through its
    M1-th accepted monitoring time, and the path's monitoring average is
    recovered as env (M1 - 1)/(n_prop - 1), mirroring how that average
    appears as a measurement probability in the amplitude encoding.  Mode
    ``uniform`` instead averages the path value at M1 uniformly drawn
    monitoring times (``process.monitoring_times``).  Standard error comes
    from outer variation only.

    How acceptance mode gets n_prop.  Outer draw i reads its L + 1
    coefficients from its own stream, (seed, ``process.TAG_NESTED``, i).  Its
    path is tabulated when T <= 8,192 and T is at most its guessed first
    batch, ``process._batch_size(M1, process._first_batch_rate(...))``,
    which is max(64, 1.2 M1 / r) capped at 2^20 for a guessed acceptance
    rate r that depends on the coefficients and the market only.  So the
    rule is a pure function of (coefficients, params, M1, T), and it keeps
    the cost flat in T: a draw costs T points, no more than its guessed
    first batch, or one point per proposal.
    * A tabulated draw's path row on the T-point grid gives its exact
      acceptance probability p = mean_i G_L(i/T) / env, so n_prop is
      M1 + NegBin(M1, p), one ``negative_binomial`` call on its stream right
      after the coefficients; this is the law of the sampler's count.  Its
      tables hold at most ``_GROUP_BYTES`` (64 KiB) of rows.
    * Any other draw runs the sampler (``_rounds``), each proposal evaluated
      at its own time, with the bits ``process.rejection_sample_times`` would
      give it on the draw's stream; runs of draws share vectorised rounds.
    A value is a pure function of (params, T, L, M0, M1, seed): neither the
    grouping (``_GROUP_BYTES``) nor the sizes of the sampler's batches move
    it, though below T = 8,192 the first-batch guess does, through the
    tabulation rule.  A draw whose M1 acceptances need more than 10^6 M1
    proposals raises ``process.RejectionStarvedError``.

    The cost does not grow with T, up to T = 2^53, the most a 53-bit uniform
    can index.  A group's batches hold at most ``_GROUP_BYTES`` of uniforms:
    tracemalloc reads about 0.8 MiB at eps = 0.1, M0 = M1 = 400 and T = 64,
    and 0.9 MiB at T = 2^20, most of it a run's streams (``_RUN_DRAWS``)
    and one group's or table's recurrence buffers.  All M0 draws hold 8 bytes
    each, their inner means, rejected past 3.2 GB; the payoffs are summed in
    draw order over blocks of them.  Uniform mode holds about 64 bytes per
    inner sample of one draw, M1 past 5 * 10^7 rejected.  Past T = 8,192 an
    acceptance-mode draw evaluates the series at M1 or more proposals, M1
    past 10^8 rejected; an M1 past 9.2 * 10^12, whose starvation budget
    passes int64, is rejected.  These guards run before anything is drawn.

    ``diagnostics`` counts ``clipped`` coefficients and ``series_points``
    (in acceptance mode the points of the path tables plus the proposals
    evaluated at their own time; in uniform mode M0 M1), and, in acceptance
    mode, ``proposals`` through each draw's M1-th acceptance, ``accepted``
    (M0 M1) and ``tabulated_draws``, whose counts came from a path table.

    Estimand: E[(T^-1 sum_i G_L(i/T) - K)^+] for the smoothed path G_L and
    T = ``spec.monitoring_count``.  Both inner means are unbiased per path, so
    what remains is the O(1/M1) convexity bias of a nested estimator (the
    payoff is convex in the inner mean) and the bias of clipping
    coefficients at ``klcore.CLIP``, whose per-draw probability is below 1.3e-15.

    Defaults: ``epsilon`` sets L, the truncation index for it, and
    M0 = M1 = ceil(4 / eps^2).  That sizing assumes a payoff standard
    deviation of 2, and does not deliver an SE of eps: at the default market
    (s0 = K = 100, mu = 0.05, sigma = 0.2, T = 64, seed 1) the SE is 1.020
    at eps = 0.2 and 0.499 at eps = 0.1, about 5 eps.
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
    if 8 * M0 > _NESTED_BYTES:  # one inner mean per draw
        raise ValueError(
            f"{M0} outer draws need {8 * M0} bytes, past the {_NESTED_BYTES}-byte guard"
        )
    # a uniform-mode draw holds its M1 times, uniforms and path values, and
    # their temporaries: 64 bytes per inner sample at its peak (tracemalloc)
    if inner_mode == "uniform" and 64 * M1 > _NESTED_BYTES:
        raise ValueError(
            f"{M1} inner samples need {64 * M1} bytes per draw, past the "
            f"{_NESTED_BYTES}-byte guard"
        )
    # past _TABLE_T no draw is tabulated: each evaluates the series at its
    # proposals, at least M1 of them
    if inner_mode == "acceptance" and spec.monitoring_count > _TABLE_T and M1 > _MAX_DOUBLES:
        raise ValueError(
            f"{M1} acceptances per draw need at least {M1} series points at T > {_TABLE_T}, "
            f"past the {_MAX_DOUBLES}-point guard"
        )
    most = np.iinfo(np.int64).max // process._STARVATION_FACTOR  # proposals count in int64
    if inner_mode == "acceptance" and M1 > most:
        raise ValueError(f"M1 = {M1} is past {most}, the most acceptances whose starvation "
                         f"budget of {process._STARVATION_FACTOR} M1 proposals fits an int64 count")
    inner_means = _acceptance_means if inner_mode == "acceptance" else _uniform_means
    gbar, diagnostics = inner_means(params, spec.monitoring_count, L, M0, M1, seed)
    total = 0.0
    total_sq = 0.0
    for lo in range(0, M0, _SUM_BLOCK):
        for g in gbar[lo : lo + _SUM_BLOCK].tolist():  # in draw order
            pay = max(g - spec.strike, 0.0)
            total += pay
            total_sq += pay * pay
    mean, se = _mean_and_se(total, total_sq, M0)
    return Estimate(mean, se, M0, M1, diagnostics)


def _norm_cdf(x: float) -> float:
    """Standard normal cdf on the stdlib's erf/erfc, split as cephes's ndtr."""
    z = x * math.sqrt(0.5)
    if abs(z) < math.sqrt(0.5):
        return 0.5 + 0.5 * math.erf(z)
    tail = 0.5 * math.erfc(abs(z))
    return 1.0 - tail if z > 0.0 else tail


def geometric_asian_closed_form(params: GbmParams, spec: AsianPayoffSpec) -> float:
    """Closed-form price of the geometric-average call monitored at i/T, i = 1..T.

    The log of the geometric average A_G = (prod_i S(i/T))^(1/T) is Gaussian
    with mean m = ln s0 + drift (T+1)/(2T) and variance
    v = sigma^2 T^-2 sum_{i,j} min(i, j)/T = sigma^2 (T+1)(2T+1)/(6T^2), so

        E[(A_G - K)^+] = e^{m + v/2} Phi((m - ln K + v)/sqrt(v))
                         - K Phi((m - ln K)/sqrt(v)).

    Each moment is one correctly rounded integer ratio, so the cost is O(1)
    in T.  Degenerate variance collapses to the deterministic payoff and
    K <= 0 collapses to the mean of A_G.
    """
    T, strike = spec.monitoring_count, spec.strike
    m = float(np.log(params.s0) + params.effective_drift * ((T + 1) / (2 * T)))
    v = float(params.sigma**2 * ((T + 1) * (2 * T + 1) / (6 * T * T)))
    if strike <= 0.0:
        return float(np.exp(m + 0.5 * v) - strike)
    if v <= 0.0:
        return float(max(np.exp(m) - strike, 0.0))
    sd = np.sqrt(v)
    d2 = (m - np.log(strike)) / sd
    d1 = d2 + sd
    return float(np.exp(m + 0.5 * v) * _norm_cdf(d1) - strike * _norm_cdf(d2))
