"""Sampling machinery for geometric Brownian motion on [0, 1].

Provides clipped standard-normal coefficient draws for the smoothed-path
series, a rejection sampler that draws the monitoring times i/T with
probability proportional to the path value there, and the envelopes that
make the rejection step valid.  There is one envelope formula, at two
widths.  ``path_envelope`` bounds one coefficient draw's path on all of
[0, 1] by

    env = s0 exp(sigma (|a0| + (sqrt(2)/pi) sum_k |a_k|/k) + max(drift, 0)),

and ``cell_envelopes`` bounds it on each of J cells ((c - 1)/J, c/J] by the
path at the cell's midpoint m_c plus a Lipschitz margin,

    env_c = min(env, s0 exp(sigma B_L(m_c) + drift m_c + (sigma Lip + |drift|)/(2J))),

with Lip = |a0| + sqrt(2) sum_k |a_k| >= |B_L'|.  ``envelope_cells`` picks J
from sigma, the drift and L, and ``cell_counts`` gives the monitoring points
n_c in each cell.  The nested estimator's proposals per acceptance, the
cells' mean T^-1 sum_c n_c env_c over the path's mean, stay near 1 where
env's stay near the path's own sup/mean ratio.  Both work row-wise: a 2-D
array of coefficient rows (a run of outer draws) gives one value per row.
``g_max_bound`` is the all-CLIP case of env, the bound on every path whose
coefficients lie in [-CLIP, CLIP]: the single normalisation that the
amplitude encodings in ``qsim`` need.

The rejection sampler draws its proposals row-major from the one stream it
is given, so the accepted times depend on the stream and the envelope, never
on how proposals are split into batches: its first batch is sized as if
every proposal were accepted, its later ones from the observed rate.  It
proposes by cells, a cell with probability proportional to n_c env_c and a
point uniformly in it; one bound is the one-cell case.
``rejection_sample_times`` runs it for one draw; the nested estimator draws
the sampler's proposal count from its law instead, from each draw's exact
inner mean.

Randomness is keyed: every stream is an SFC64 generator seeded through
``SeedSequence`` from (seed, stream tag, index), so any block or outer draw
can be rebuilt by replaying its own stream from the start, and results never
depend on how work is divided among workers.  ``stream`` builds one such
generator; ``streams`` builds the generators of many indices under one tag,
bit for bit the same, running ``SeedSequence``'s hash once over an array of
indices instead of once per index in Python-level calls.

One byte budget, ``GUARD_BYTES`` = 1 GiB, guards every request: each caller
counts what its structure holds at most and passes it to ``check_bytes``,
before anything is allocated.  They count one flat-kernel thread's buffers
(the threads share the budget); a kl-nested draw's series, its M0 outer
draws and a uniform-mode draw's inner samples; an ``analysis`` probe's
arrays; and a ``qsim`` layout's complex128 state (1 GiB is 26 qubits).
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .klcore import _SQRT2_OVER_PI, CLIP, WienerCoefficients, _check_unit_interval, wiener_eval_horner

__all__ = [
    "GUARD_BYTES",
    "check_bytes",
    "GbmParams",
    "RejectionStarvedError",
    "stream",
    "streams",
    "sample_coefficients",
    "gbm_from_bm",
    "monitoring_times",
    "g_max_bound",
    "path_envelope",
    "envelope_cells",
    "cell_counts",
    "cell_envelopes",
]

# Stream tags keep draws for different purposes out of each other's keyspace.
TAG_PATHS = 2
TAG_NESTED = 3

# Proposal batches for the rejection sampler.  Their sizes change only how
# many uniforms are drawn ahead, never which proposals are accepted.
_MIN_BATCH = 64
_MAX_BATCH = 1 << 20
_STARVATION_FACTOR = 1_000_000
_CELL_SLACK = 0.05  # the most log-margin (sigma E[Lip] + |drift|)/(2J) that J cells leave

GUARD_BYTES = 1 << 30  # the one resource guard: the most bytes a guarded structure may hold

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


def check_bytes(what: str, need: int) -> int:
    """``need``, the bytes ``what`` holds; ``ValueError`` when it is past ``GUARD_BYTES``."""
    if need > GUARD_BYTES:
        raise ValueError(f"{what} needs {need} bytes, past the {GUARD_BYTES}-byte guard")
    return need


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

    This is ``path_envelope`` at the row of L + 1 coefficients all at CLIP:
    with every |a_k| <= CLIP the series satisfies
    |B_L(t)| <= CLIP (1 + (sqrt(2)/pi) sum_{k<=L} 1/k), so the returned value
    dominates the smoothed GBM everywhere on [0, 1].  One constant for all
    draws is what the amplitude encodings need; a rejection step for a known
    draw should use the tighter ``path_envelope`` or ``cell_envelopes`` of
    its own row.
    """
    if L < 0:
        raise ValueError("L must be >= 0")
    return path_envelope(params, np.full(L + 1, CLIP))


def path_envelope(params: GbmParams, a: np.ndarray):
    """Envelope s0 exp(sigma (|a0| + (sqrt(2)/pi) sum_k |a_k|/k) + max(drift, 0)).

    ``a`` is one coefficient row (a_0, ..., a_L), giving a float, or a 2-D
    array of such rows, giving one envelope per row.  Each dominates the
    smoothed GBM of its own coefficient draw on [0, 1], and is at most
    ``g_max_bound(params, L)``.
    """
    a = np.abs(a)
    # |B_L(t)| <= |a0| + (sqrt(2)/pi) sum_k |a_k|/k for every t in [0, 1]
    sup_abs_bm = a[..., 0] + _SQRT2_OVER_PI * np.sum(a[..., 1:] / np.arange(1, a.shape[-1]), axis=-1)
    log_sup = params.sigma * sup_abs_bm + max(params.effective_drift, 0.0)
    env = params.s0 * np.exp(log_sup)
    return float(env) if env.ndim == 0 else env


def envelope_cells(params: GbmParams, L: int, points: int) -> int:
    """Cells J of a draw's ``cell_envelopes``: a power of two, a function of (sigma, drift, L, points).

    J is the least power of two whose margin at the mean |a_k| = sqrt(2/pi),
    (sigma sqrt(2/pi) (1 + sqrt(2) L) + |drift|)/(2J), is at most 0.05, but
    no more than the largest power of two within max(64, points), for
    ``points`` the draw's table points or quadrature nodes: so a draw
    evaluates no more cell midpoints than that.
    """
    slack = params.sigma * math.sqrt(2.0 / math.pi) * (1.0 + math.sqrt(2.0) * L)
    slack += abs(params.effective_drift)
    most = 1 << (max(64, int(points)).bit_length() - 1)
    J = 1
    while J < most and slack / (2 * J) > _CELL_SLACK:
        J *= 2
    return J


def cell_counts(T: int, J: int) -> np.ndarray:
    """Monitoring points i/T in each cell ((c - 1)/J, c/J], c = 1..J, as int64.

    n_c = floor(cT/J) - floor((c - 1)T/J); with T = qJ + r, floor(cT/J) is
    cq + floor(cr/J), exact in int64 for T <= 2^53 and J < 2^31.
    """
    q, r = divmod(T, J)
    c = np.arange(J + 1, dtype=np.int64)
    return np.diff(c * q + c * r // J)


def cell_envelopes(
    params: GbmParams, a: np.ndarray, env: np.ndarray, J: int, cells: np.ndarray, b_mid: np.ndarray
) -> np.ndarray:
    """Bounds env_c of each row's path on the J cells ((c - 1)/J, c/J], shape (rows, J).

    ``a`` holds the coefficient rows, ``env`` their ``path_envelope``,
    ``cells`` the 0-based indices of the cells bounded (those holding a
    monitoring point) and ``b_mid`` the rows' series at those cells'
    midpoints m_c = (c + 1/2)/J.  There env_c is the formula of the module
    docstring: |B_L'| <= Lip, so it dominates the path within 1/(2J) of
    m_c, and the cap keeps it at most env.  The other cells hold env.
    """
    A = np.abs(a)
    lip = A[:, 0] + np.sqrt(2.0) * np.einsum("ij->i", A[:, 1:])
    bound = params.sigma * b_mid
    bound += params.effective_drift * ((cells + 0.5) / J)
    bound += ((params.sigma * lip + abs(params.effective_drift)) / (2 * J))[:, None]
    with np.errstate(over="ignore"):  # an overflowing bound is capped at env below
        np.exp(bound, out=bound)
    bound *= params.s0
    np.minimum(bound, env[:, None], out=bound)
    if cells.size == J:
        return bound
    out = np.repeat(env[:, None], J, axis=1)
    out[:, cells] = bound
    return out


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
    gmax,
    params: GbmParams,
    T: int,
) -> tuple[np.ndarray, int]:
    """Draw ``count`` of the monitoring times i/T with pmf G_L(i/T) / sum_j G_L(j/T).

    ``gmax`` is one bound of the path on [0, 1], or an array of J bounds
    env_c on the cells ((c - 1)/J, c/J] (``cell_envelopes``).  A proposal
    takes two uniforms u and z: u picks cell c with probability
    n_c env_c / sum_c n_c env_c (``cell_counts``), and, rescaled to the
    cell, one of its n_c points t = i/T; the proposal is accepted when
    z env_c <= G_L(a, t).  One bound is the one-cell case, whose time is
    ``monitoring_times(u, T)``.  Returns the accepted times and the number of
    proposals consumed through the final acceptance; the expected proposals
    per acceptance is sum_c n_c env_c / sum_i G_L(i/T).  The series is
    evaluated once per proposal, so the cost does not grow with T.  The first
    batch is sized as if every proposal were accepted, the later ones from
    the observed acceptance rate.  Raises ``RejectionStarvedError`` when
    10^6 * count proposals produce fewer than ``count`` acceptances.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    bounds = np.atleast_1d(np.asarray(gmax, dtype=float))
    counts = cell_counts(T, bounds.size).astype(float)
    starts = np.cumsum(counts) - counts  # the points before each cell
    mass = np.cumsum(np.where(counts > 0, counts * bounds, 0.0))
    edges = mass / mass[-1] if bounds.size > 1 else np.ones(1)  # one cell takes every u
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
        # with no acceptance yet the rate is below about 1/n_proposals, so
        # the batches grow geometrically instead of jumping to _MAX_BATCH
        rate = max(n_accepted, 1) / n_proposals if n_proposals else 1.0
        batch = int(min(max(_MIN_BATCH, 1.2 * remaining / rate), _MAX_BATCH, budget - n_proposals))
        u = rng.random((batch, 2))
        c = np.searchsorted(edges, u[:, 0], side="right")
        lower = np.where(c > 0, edges[c - 1], 0.0)
        i = np.minimum(np.floor((u[:, 0] - lower) / (edges[c] - lower) * counts[c]), counts[c] - 1)
        t = (starts[c] + i + 1.0) / T
        g = gbm_from_bm(wiener_eval_horner(coeffs, t), t, params)
        env = bounds[c]
        if np.any(g > env * (1.0 + 1e-12)):
            raise ValueError("path value exceeded the envelope; gmax contract violated")
        hits = np.flatnonzero(u[:, 1] * env <= g)
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
