"""Small-register statevector simulation of the amplitude encodings.

Builds, as explicit complex amplitude arrays, the joint state of a bank of
discretized Gaussian coefficient registers, a uniform time register, and a
fixed-point value register holding the smoothed GBM value computed from the
decoded register contents.  A controlled rotation moves the (normalized)
value into an ancilla amplitude so that the probability of reading ancilla
zero equals the discretized classical mean divided by the normalization
constant.  Amplitude estimation is emulated: the probability is read off the
statevector exactly.

Each builder derives its layout from its own inputs: the semi-digital state
of L + 1 n-qubit registers over T points holds n(L + 1) + ceil(log2 T) +
codec.bits qubits, the quantized sub-sampling state n M + 1.  Rotations
normalise by the codec's top value, the decoded top code.

Register order within a basis index, most significant to least significant:
coefficient registers (register 0 first), time register, value register,
ancillas.  Resource guard: ``process.check_bytes`` on a layout's complex128
state, 16 bytes an amplitude (1 GiB is 26 qubits), before anything is allocated.
The semi-digital values come from ``klcore._grid_series``, the one
evaluator of coefficient rows at points, which builds no basis part past
1 MiB at these L.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .klcore import CLIP, _grid_series
from .process import GbmParams, check_bytes, gbm_from_bm

__all__ = [
    "RegisterLayout",
    "FixedPointCodec",
    "StateVector",
    "prepare_gaussian_register",
    "gaussian_grid_values",
    "build_semidigital_state",
    "enumerated_mean",
    "attach_value_rotation",
    "build_quantized_subsample_state",
    "exact_success_probability",
]


@dataclass
class RegisterLayout:
    """Qubit budget per register group."""

    coeff_qubits: int
    n_coeff_registers: int
    time_qubits: int
    value_qubits: int
    ancilla_count: int = 0

    def __post_init__(self) -> None:
        if self.coeff_qubits < 1 or self.n_coeff_registers < 1:
            raise ValueError("need at least one coefficient register of width >= 1")
        if self.time_qubits < 0 or self.value_qubits < 0 or self.ancilla_count < 0:
            raise ValueError("register widths must be non-negative")
        # the value rotation allocates the state it returns, beside its half-size input
        check_bytes(f"{self.total_qubits}-qubit complex128 state", 16 << self.total_qubits)

    @property
    def total_qubits(self) -> int:
        return (
            self.coeff_qubits * self.n_coeff_registers
            + self.time_qubits
            + self.value_qubits
            + self.ancilla_count
        )


@dataclass
class FixedPointCodec:
    """Unsigned fixed-point codec on [0, scale*(2^bits - 1)].

    Encoding rounds to the nearest code and saturates out-of-range values;
    ``saturation_count`` tallies saturated encodes.  Round-trip error is at
    most scale/2 inside the representable range.
    """

    bits: int
    scale: float
    saturation_count: int = 0

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("codec needs at least one bit")
        if self.scale <= 0:
            raise ValueError("codec scale must be positive")

    @classmethod
    def for_range(cls, bits: int, vmax: float) -> "FixedPointCodec":
        """Codec covering [0, vmax] at the stated width."""
        return cls(bits=bits, scale=vmax / (2**bits - 1))

    def encode(self, values) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        raw = np.round(values / self.scale)
        codes = np.clip(raw, 0, 2**self.bits - 1)
        self.saturation_count += int(np.count_nonzero(raw != codes))
        return codes.astype(np.int64)

    def decode(self, codes) -> np.ndarray:
        return np.asarray(codes, dtype=float) * self.scale

    @property
    def top(self) -> float:
        """The largest value the codec represents; ``encode`` saturates there."""
        return float(self.decode(2**self.bits - 1))


@dataclass
class StateVector:
    """Complex amplitudes plus the layout and codec that give them meaning."""

    amplitudes: np.ndarray
    layout: RegisterLayout
    codec: FixedPointCodec

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.size != 2**self.layout.total_qubits:
            raise ValueError("amplitude length does not match the layout")
        if self.layout.value_qubits > self.codec.bits:
            # codes past the codec's top would decode above it, and rotate to NaN
            raise ValueError(
                f"value register of {self.layout.value_qubits} qubits is wider than the "
                f"{self.codec.bits}-bit codec"
            )

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def gaussian_grid_values(n: int) -> np.ndarray:
    """Grid values v(x) = 2 CLIP x / N for x in {-N/2, ..., N/2 - 1}, N = 2^n."""
    N = 2**n
    x = np.arange(N) - N // 2
    return 2.0 * CLIP * x / N


def prepare_gaussian_register(n: int) -> np.ndarray:
    """Amplitudes of the discretized standard normal on an n-qubit register.

    Probabilities are proportional to exp(-v^2/2) at the grid values
    v = 2 CLIP x / N, renormalized over the grid, so the register encodes the
    unit-variance pmf the estimators consume.  Basis index b corresponds to
    x = b - N/2.
    """
    if not 1 <= n <= 8:
        raise ValueError("Gaussian register width must be between 1 and 8 qubits")
    v = gaussian_grid_values(n)
    p = np.exp(-0.5 * v * v)
    p /= p.sum()
    return np.sqrt(p)


def _coefficient_codes(n_registers: int, n_qubits: int) -> np.ndarray:
    """All register-code combinations, register 0 most significant."""
    return np.indices((2**n_qubits,) * n_registers).reshape(n_registers, -1).T.copy()


def _semidigital_layout(L: int, T: int, n: int, codec: FixedPointCodec) -> RegisterLayout:
    """L + 1 coefficient registers of n qubits, ceil(log2 T) time qubits, the codec's bits."""
    if T < 1:
        raise ValueError("need at least one monitoring point, T >= 1")
    return RegisterLayout(n, L + 1, (T - 1).bit_length(), codec.bits)


def _semidigital_values(
    params: GbmParams, L: int, T: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every register-code combination and its smoothed GBM value at i/T, i = 1..T."""
    codes = _coefficient_codes(L + 1, n)
    a = gaussian_grid_values(n)[codes]
    times = np.arange(1, T + 1) / T
    return codes, gbm_from_bm(_grid_series(a, times, {}, None), times, params)


def enumerated_mean(
    params: GbmParams, L: int, T: int, n: int, codec: FixedPointCodec
) -> tuple[float, float]:
    """Classical enumeration of the semi-digital encoding's mean path value.

    Weighs the time-averaged path value of every coefficient-code combination
    by its Gaussian pmf, and returns the mean of the values after a round trip
    through ``codec`` (what the encoding's ancilla-zero probability times
    ``codec.top`` equals) together with the unquantized mean.  The encoding's
    layout passes the byte guard before anything is enumerated.
    """
    _semidigital_layout(L, T, n, codec)
    codes, g = _semidigital_values(params, L, T, n)
    gq = codec.decode(codec.encode(g))
    weights = np.prod(prepare_gaussian_register(n)[codes] ** 2, axis=1)
    return float(weights @ gq.mean(axis=1)), float(weights @ g.mean(axis=1))


def build_semidigital_state(
    params: GbmParams, L: int, T: int, n: int, codec: FixedPointCodec
) -> StateVector:
    """Joint state of coefficient registers, time register, and value register.

    The value register holds the fixed-point code of the smoothed GBM value
    computed classically from the decoded coefficient grid values and the
    time (t + 1)/T, so it is a deterministic function of the other registers
    and each coefficient register's marginal stays the product Gaussian pmf.
    """
    layout = _semidigital_layout(L, T, n, codec)
    codes, g = _semidigital_values(params, L, T, n)
    vcodes = codec.encode(g)
    joint = np.prod(prepare_gaussian_register(n)[codes], axis=1)

    t2, v2 = 2**layout.time_qubits, 2**layout.value_qubits
    flat = ((np.arange(len(codes))[:, None] * t2 + np.arange(T)) * v2 + vcodes).ravel()
    state = np.zeros(2**layout.total_qubits, dtype=complex)
    state[flat] = np.repeat(joint / np.sqrt(T), T)
    return StateVector(amplitudes=state, layout=layout, codec=codec)


def attach_value_rotation(state: StateVector) -> StateVector:
    """Append an ancilla rotated by the normalized value register content.

    With top = ``state.codec.top``, each basis amplitude alpha with decoded
    value v becomes alpha sqrt(v/top) on ancilla 0 and alpha sqrt(1 - v/top)
    on ancilla 1, so the ancilla-zero probability is the mean decoded value
    over top.  The output layout passes the byte guard before anything is
    allocated, and the rotation works per value code: the 2^v decoded values
    and their square roots are computed once and multiplied into views of
    the output, so no temporary is as long as the state.
    """
    layout = state.layout
    if layout.value_qubits < 1:
        raise ValueError("state has no value register")
    new_layout = replace(layout, ancilla_count=layout.ancilla_count + 1)
    shape = (-1, 2**layout.value_qubits, 2**layout.ancilla_count)
    amps = state.amplitudes.reshape(shape)
    vals = state.codec.decode(np.arange(shape[1]))
    frac = (vals / state.codec.top)[:, None]
    new = np.empty(2 * amps.size, dtype=complex)
    out = new.reshape(*shape, 2)
    np.multiply(amps, np.sqrt(frac), out=out[..., 0])
    np.multiply(amps, np.sqrt(1.0 - frac), out=out[..., 1])
    return StateVector(amplitudes=new, layout=new_layout, codec=state.codec)


def build_quantized_subsample_state(
    params: GbmParams, M: int, n: int, strike: float, codec: FixedPointCodec
) -> StateVector:
    """Coefficient registers plus a payoff ancilla for the coarse-grid average.

    Each register holds one increment; the running sums B(i/M) =
    (1/sqrt(M)) sum_{m<=i} a'_m are exponentiated into grid values whose mean
    feeds the thresholded payoff, which (after fixed-point quantization) is
    rotated onto the ancilla.  The working registers are treated as
    uncomputed: the final state holds only coefficients and the ancilla, and
    ancilla-zero probability times ``codec.top`` equals the quantized
    classical expectation of the payoff.
    """
    layout = RegisterLayout(n, M, 0, 0, 1)
    codes = _coefficient_codes(M, n)
    times = np.arange(1, M + 1) / M
    bm = np.cumsum(gaussian_grid_values(n)[codes], axis=1) / np.sqrt(M)
    pay = np.maximum(gbm_from_bm(bm, times, params).mean(axis=1) - strike, 0.0)
    frac = codec.decode(codec.encode(pay)) / codec.top
    joint = np.prod(prepare_gaussian_register(n)[codes], axis=1)
    state = np.zeros(2**layout.total_qubits, dtype=complex)
    state[0::2] = joint * np.sqrt(frac)
    state[1::2] = joint * np.sqrt(1.0 - frac)
    return StateVector(amplitudes=state, layout=layout, codec=codec)


def exact_success_probability(state: StateVector, ancilla_pattern: int) -> float:
    """Probability of reading the given bit pattern on the ancilla register."""
    anc = state.layout.ancilla_count
    if anc == 0:
        raise ValueError("state has no ancillas")
    if not 0 <= ancilla_pattern < 2**anc:
        raise ValueError("ancilla pattern out of range")
    probs = state.probabilities().reshape(-1, 2**anc)
    return float(probs[:, ancilla_pattern].sum())
