"""Sampling machinery for geometric Brownian motion on [0, 1].

Provides clipped standard-normal coefficient draws for the smoothed-path
series, a rejection sampler that draws the monitoring times i/T with
probability proportional to the path value there, and two envelopes that
make the rejection step valid:

* ``path_envelope`` bounds one coefficient draw's path,
  s0 exp(sigma (|a0| + (sqrt(2)/pi) sum_k |a_k|/k) + max(drift, 0)); the
  nested estimator rejects against it, so proposals per acceptance stay
  near the path's own sup/mean ratio.  It and the first-batch rate guess
  work row-wise: one coefficient row gives one value, a 2-D array of rows
  (a group of outer draws) gives one value per row from one call.
* ``g_max_bound`` bounds every path whose coefficients lie in
  [-CLIP, CLIP], the single normalisation that the amplitude encodings in
  ``qsim`` need.

The rejection sampler draws its proposals row-major from the one stream it
is given, so the accepted times depend on the stream and the envelope, never
on how proposals are split into batches.  ``rejection_sample_times`` runs it
for one draw; the nested estimator runs the same proposals for a run of
draws in rounds (``pricing._rounds``).

Randomness is keyed: every stream is an SFC64 generator seeded through
``SeedSequence`` from (seed, stream tag, index), so any block or outer draw
can be rebuilt by replaying its own stream from the start, and results never
depend on how work is divided among workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .klcore import _SQRT2_OVER_PI, CLIP, WienerCoefficients, wiener_eval_horner

__all__ = [
    "GbmParams",
    "RejectionStarvedError",
    "stream",
    "sample_coefficients",
    "gbm_from_bm",
    "monitoring_times",
    "g_max_bound",
    "path_envelope",
]

# Stream tags keep draws for different purposes out of each other's keyspace.
TAG_PATHS = 2
TAG_NESTED = 3
TAG_ANALYSIS = 8

# Proposal batches for the rejection sampler.  Their sizes change only how
# many uniforms are drawn ahead, never which proposals are accepted.
_MIN_BATCH = 64
_MAX_BATCH = 1 << 20
_STARVATION_FACTOR = 1_000_000


class RejectionStarvedError(RuntimeError):
    """Raised when the rejection sampler sees essentially no acceptances.

    Signals a badly chosen envelope constant rather than bad luck.
    """


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent stream keyed by (seed, key...) through ``SeedSequence``; same inputs, same draws.

    Streams are only ever read from their start, so no jump-ahead is needed
    and the bit generator is SFC64, the quickest of numpy's at a normal fill.
    """
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=key)))


@dataclass
class GbmParams:
    """Market parameters (initial price, drift, volatility) for the GBM.

    The process is s0 * exp(sigma B_t + (mu - sigma^2/2) t) on t in [0, 1].
    """

    s0: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")

    @property
    def effective_drift(self) -> float:
        return self.mu - 0.5 * self.sigma**2


def g_max_bound(params: GbmParams, L: int) -> float:
    """Envelope s0 exp(sigma CLIP (1 + (sqrt(2)/pi) H_L) + max(drift, 0)).

    With every |a_k| <= CLIP the series satisfies
    |B_L(t)| <= CLIP (1 + (sqrt(2)/pi) sum_{k<=L} 1/k), so the returned value
    dominates the smoothed GBM everywhere on [0, 1].  One constant for all
    draws is what the amplitude encodings need; a rejection step for a known
    draw should use the tighter ``path_envelope``.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    harmonic = float(np.sum(1.0 / np.arange(1, L + 1))) if L > 0 else 0.0
    sup_b = CLIP * (1.0 + _SQRT2_OVER_PI * harmonic)
    return float(params.s0 * np.exp(params.sigma * sup_b + max(params.effective_drift, 0.0)))


def _sup_abs_bm(a: np.ndarray):
    # |B_L(t)| <= |a0| + (sqrt(2)/pi) sum_k |a_k|/k for every t in [0, 1]
    a = np.abs(a)
    return a[..., 0] + _SQRT2_OVER_PI * np.sum(a[..., 1:] / np.arange(1, a.shape[-1]), axis=-1)


def path_envelope(params: GbmParams, a: np.ndarray):
    """Envelope s0 exp(sigma (|a0| + (sqrt(2)/pi) sum_k |a_k|/k) + max(drift, 0)).

    ``a`` is one coefficient row (a_0, ..., a_L), giving a float, or a 2-D
    array of such rows, giving one envelope per row.  Each dominates the
    smoothed GBM of its own coefficient draw on [0, 1], and is at most
    ``g_max_bound(params, L)``.
    """
    log_sup = params.sigma * _sup_abs_bm(a) + max(params.effective_drift, 0.0)
    env = params.s0 * np.exp(log_sup)
    return float(env) if env.ndim == 0 else env


def _first_batch_rate(a: np.ndarray, gmax, params: GbmParams):
    """Acceptance-rate guess that sizes the first proposal batch, per coefficient row.

    The path is at least gmin = s0 exp(-sigma sup|B_L| + min(drift, 0)), so
    gmin / gmax bounds the acceptance probability from below; its square root
    sits between that bound and 1.
    """
    log_inf = -params.sigma * _sup_abs_bm(a) + min(params.effective_drift, 0.0)
    log_ratio = np.log(params.s0) + log_inf - np.log(gmax)
    return np.maximum(np.exp(0.5 * log_ratio), 1e-6)


def _batch_size(remaining, rate):
    """Proposals to draw for ``remaining`` acceptances at acceptance rate ``rate``.

    A NaN rate (from an envelope that is not positive) gives the floor, so
    the first batch still runs and the envelope check reports the fault.
    """
    return np.fmin(np.fmax(_MIN_BATCH, 1.2 * remaining / rate), _MAX_BATCH).astype(np.int64)


def _coefficient_rows(rngs: list, L: int) -> tuple[np.ndarray, int]:
    """One row of L+1 normals from each stream, clamped to [-CLIP, CLIP], and the clamp count."""
    a = np.empty((len(rngs), L + 1))
    for row, rng in zip(a, rngs):
        row[:] = rng.standard_normal(L + 1)
    n_clipped = int(np.count_nonzero(np.abs(a) > CLIP))
    return np.clip(a, -CLIP, CLIP, out=a), n_clipped


def sample_coefficients(rng: np.random.Generator, L: int) -> WienerCoefficients:
    """One coefficient draw from ``rng``: the one-row case of ``_coefficient_rows``."""
    if not isinstance(rng, np.random.Generator):
        raise TypeError("rng must be a numpy Generator (fatal sampling error)")
    if L < 0:
        raise ValueError("L must be >= 0")
    a, n_clipped = _coefficient_rows([rng], L)
    return WienerCoefficients(a=a[0], n_clipped=n_clipped)


def gbm_from_bm(b, t, params: GbmParams):
    """Map Brownian level b at time t to the GBM value s0 exp(sigma b + drift t)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0) or np.any(t > 1.0):
        raise ValueError("time argument must lie in [0, 1]")
    val = params.s0 * np.exp(params.sigma * np.asarray(b, dtype=float) + params.effective_drift * t)
    return float(val) if val.ndim == 0 else val


def monitoring_times(u, T: int) -> np.ndarray:
    """Map uniforms u in [0, 1) to the monitoring times (floor(u T) + 1) / T."""
    return (np.floor(u * T) + 1.0) / T


def rejection_sample_times(
    rng: np.random.Generator,
    coeffs: WienerCoefficients,
    count: int,
    gmax: float,
    params: GbmParams,
    T: int,
) -> tuple[np.ndarray, int]:
    """Draw ``count`` of the monitoring times i/T with pmf G_L(i/T) / sum_j G_L(j/T).

    Proposes a time ``monitoring_times(u, T)`` for a uniform u together with a
    uniform z, and accepts it when z <= G_L(a, t) / gmax.  Returns the
    accepted times and the number of proposals consumed through the final
    acceptance; the expected proposals per acceptance is
    gmax / mean_i G_L(i/T).  The series is evaluated once per proposal, so
    the cost does not grow with T.  Batches are sized from the observed
    acceptance rate (the first from ``_first_batch_rate``).  Raises
    ``RejectionStarvedError`` when 10^6 * count proposals produce fewer than
    ``count`` acceptances.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    accepted: list[np.ndarray] = []
    n_accepted = 0
    n_proposals = 0
    budget = _STARVATION_FACTOR * count
    while n_accepted < count:
        remaining = count - n_accepted
        if n_proposals >= budget:
            raise RejectionStarvedError(
                f"rejection sampler starved: {n_proposals} proposals produced "
                f"{n_accepted}/{count} acceptances (check the envelope constant)"
            )
        if n_proposals:
            # with no acceptance yet the rate is below about 1/n_proposals, so
            # the batches grow geometrically instead of jumping to _MAX_BATCH
            rate = max(n_accepted, 1) / n_proposals
        else:
            rate = _first_batch_rate(coeffs.a, gmax, params)
        batch = int(min(_batch_size(remaining, rate), budget - n_proposals))
        u = rng.random((batch, 2))
        t = monitoring_times(u[:, 0], T)
        g = gbm_from_bm(wiener_eval_horner(coeffs, t), t, params)
        if np.any(g > gmax * (1.0 + 1e-12)):
            raise ValueError("path value exceeded the envelope; gmax contract violated")
        hits = np.flatnonzero(u[:, 1] * gmax <= g)
        if hits.size >= remaining:
            last = hits[remaining - 1]
            accepted.append(t[hits[:remaining]])
            n_accepted = count
            n_proposals += int(last) + 1
        else:
            accepted.append(t[hits])
            n_accepted += hits.size
            n_proposals += batch
    return np.concatenate(accepted), n_proposals
