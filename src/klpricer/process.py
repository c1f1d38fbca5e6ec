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
draws in rounds (``pricing._rounds``), except for draws whose path it
tabulates, which draw the sampler's proposal count from its law.

Randomness is keyed: every stream is an SFC64 generator seeded through
``SeedSequence`` from (seed, stream tag, index), so any block or outer draw
can be rebuilt by replaying its own stream from the start, and results never
depend on how work is divided among workers.  ``stream`` builds one such
generator; ``streams`` builds the generators of many indices under one tag,
bit for bit the same, running ``SeedSequence``'s hash once over an array of
indices instead of once per index in Python-level calls.
"""

from __future__ import annotations

import functools
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .klcore import _SQRT2_OVER_PI, CLIP, WienerCoefficients, _check_unit_interval, wiener_eval_horner

__all__ = [
    "GbmParams",
    "RejectionStarvedError",
    "stream",
    "streams",
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
_MIN_RATE = 1e-6  # floor of an acceptance rate that sizes a first batch
_STARVATION_FACTOR = 1_000_000

LOG_DBL_MAX = float(np.log(np.finfo(float).max))  # exp overflows past this

# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, its multipliers, and the xorshift of both mixing steps
_POOL = 4
_MASK32 = 0xFFFF_FFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_HASH_BLOCK = 4096  # indices ``streams`` hashes at a time


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


def _words32(x: int) -> list[int]:
    """The 32-bit words of x >= 0, least significant first, as ``SeedSequence`` splits it."""
    x = operator.index(x)
    if x < 0:
        raise ValueError("seed and stream tag must be non-negative")
    words = [x & _MASK32]
    while x := x >> 32:
        words.append(x & _MASK32)
    return words


def _stream_words(seed: int, tag: int, indices: Sequence[int]) -> np.ndarray:
    """``SeedSequence(seed, spawn_key=(tag, i)).generate_state(3, np.uint64)`` for each index i.

    The hash's entropy is the seed's words, padded with zeros to the pool
    size, then the tag's words and the index's one word (i < 2^32).  Only
    that last word differs between indices, so the steps before it run on
    Python ints and the rest on uint32 arrays, which wrap as the hash's
    32-bit arithmetic does.  Returns one row of three words per index.
    """
    idx = np.asarray(indices)
    if idx.size and not (idx.min() >= 0 and idx.max() <= _MASK32):
        raise ValueError("stream indices must lie in [0, 2^32)")
    run = _words32(seed)
    entropy = [*run, *[0] * (_POOL - len(run)), *_words32(tag), idx.astype(np.uint32)]
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        value = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(word) for word in entropy[:_POOL]]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((idx.size, 6), dtype=np.uint32)
    hash_const = _INIT_B
    for k in range(6):
        value = pool[k % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state[:, k] = value ^ value >> 16
    # generate_state reads pairs of words as little-endian uint64
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


@functools.cache
def _hashed_seed():
    """``ISeedSequence`` that hands SFC64 its three seed words, already hashed.

    Built on first use: importing ``numpy.random`` costs milliseconds that
    ``import klpricer.cli`` should not pay.
    """
    from numpy.random.bit_generator import ISeedSequence

    class HashedSeed(ISeedSequence):
        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            # called once, by SFC64, for the 3 uint64 words _stream_words computed
            return self.words

    return HashedSeed


def streams(seed: int, tag: int, indices: Sequence[int]) -> Iterator[np.random.Generator]:
    """``stream(seed, tag, i)`` for each i in ``indices``, in order and bit for bit, lazily.

    Hashes ``_HASH_BLOCK`` indices at a time and builds each generator from
    its precomputed words; SFC64 still runs its own warm-up.  Indices must
    lie in [0, 2^32), one word of ``SeedSequence`` entropy each; a block
    holding one past that raises ``ValueError`` before its first generator.
    """
    hashed = _hashed_seed()
    for lo in range(0, len(indices), _HASH_BLOCK):
        for words in _stream_words(seed, tag, indices[lo : lo + _HASH_BLOCK]):
            yield np.random.Generator(np.random.SFC64(hashed(words)))


@dataclass
class GbmParams:
    """Market parameters (initial price, drift, volatility) for the GBM.

    The process is s0 * exp(sigma B_t + (mu - sigma^2/2) t) on t in [0, 1].
    A market whose median terminal price s0 exp(mu - sigma^2/2) overflows
    is rejected: about half of its paths overflow, so no run can succeed.
    """

    s0: float
    mu: float
    sigma: float

    def __post_init__(self) -> None:
        for name in ("s0", "mu", "sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.s0 <= 0:
            raise ValueError("s0 must be positive")
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        try:
            log_median = np.log(self.s0) + self.effective_drift
        except OverflowError:  # a float ** raises where a float * gives inf
            raise ValueError("sigma^2 overflows") from None
        if not log_median < LOG_DBL_MAX:
            raise ValueError("median terminal price s0 exp(mu - sigma^2/2) overflows")

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

    The nested estimator also tabulates a draw's path when T is at most that
    batch (``pricing.price_kl_nested``).  The path is at least gmin = s0 exp(-sigma sup|B_L| + min(drift, 0)), so
    gmin / gmax bounds the acceptance probability from below; its square root
    sits between that bound and 1.
    """
    log_inf = -params.sigma * _sup_abs_bm(a) + min(params.effective_drift, 0.0)
    log_ratio = np.log(params.s0) + log_inf - np.log(gmax)
    return np.maximum(np.exp(0.5 * log_ratio), _MIN_RATE)


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
        rng.standard_normal(out=row)
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
    t = _check_unit_interval(t)
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
