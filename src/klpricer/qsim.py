"""Small-register statevector simulation of the amplitude encodings.

Builds, as explicit complex amplitude arrays, the joint state of a bank of
discretized Gaussian coefficient registers, a uniform time register, and a
fixed-point value register holding the smoothed GBM value computed from the
decoded register contents.  A controlled rotation moves the (normalized)
value into an ancilla amplitude so that the probability of reading ancilla
zero equals the discretized classical mean divided by the normalization
constant.  Amplitude estimation is emulated: the probability is read off the
statevector exactly.

Register order within a basis index, most significant to least significant:
coefficient registers (register 0 first), time register, value register,
ancillas.  Resource guard: at most 26 qubits total, a 1 GiB state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .klcore import CLIP, wiener_eval
from .process import GbmParams

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

# A 26-qubit complex128 state is 2^26 x 16 bytes = 1 GiB.  The value
# rotation builds one from a 25-qubit state and works per value code, so
# tracemalloc puts its allocations at the state it returns (1 GiB at the
# guard) beside its 0.5 GiB input.
MAX_QUBITS = 26


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
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(
                f"layout uses {self.total_qubits} qubits, a {16 << self.total_qubits}-byte "
                f"complex128 state; the guard is {MAX_QUBITS} qubits, {16 << MAX_QUBITS} bytes"
            )

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


@dataclass
class StateVector:
    """Complex amplitudes plus the layout and codec that give them meaning."""

    amplitudes: np.ndarray
    layout: RegisterLayout
    codec: FixedPointCodec | None = None

    def __post_init__(self) -> None:
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        if self.amplitudes.size != 2**self.layout.total_qubits:
            raise ValueError("amplitude length does not match the layout")

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
    N = 2**n_qubits
    total = N**n_registers
    combos = np.arange(total)
    codes = np.empty((total, n_registers), dtype=np.int64)
    for j in range(n_registers):
        codes[:, j] = (combos // N ** (n_registers - 1 - j)) % N
    return codes


def _semidigital_values(
    params: GbmParams, L: int, T: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every register-code combination and its smoothed GBM value at i/T, i = 1..T."""
    codes = _coefficient_codes(L + 1, n)
    a = gaussian_grid_values(n)[codes]
    times = np.arange(1, T + 1) / T
    g = params.s0 * np.exp(params.sigma * wiener_eval(a, times) + params.effective_drift * times)
    return codes, g


def enumerated_mean(
    params: GbmParams, L: int, T: int, n: int, codec: FixedPointCodec
) -> tuple[float, float]:
    """Classical enumeration of the semi-digital encoding's mean path value.

    Weighs the time-averaged path value of every coefficient-code combination
    by its Gaussian pmf, and returns the mean of the values after a round trip
    through ``codec`` (what the encoding's ancilla-zero probability times gmax
    equals) together with the unquantized mean.
    """
    codes, g = _semidigital_values(params, L, T, n)
    gq = codec.decode(codec.encode(g))
    weights = np.prod(prepare_gaussian_register(n)[codes] ** 2, axis=1)
    return float(weights @ gq.mean(axis=1)), float(weights @ g.mean(axis=1))


def build_semidigital_state(
    layout: RegisterLayout,
    params: GbmParams,
    L: int,
    T: int,
    codec: FixedPointCodec,
) -> StateVector:
    """Joint state of coefficient registers, time register, and value register.

    The value register holds the fixed-point code of the smoothed GBM value
    computed classically from the decoded coefficient grid values and the
    time (t + 1)/T, so it is a deterministic function of the other registers
    and each coefficient register's marginal stays the product Gaussian pmf.
    """
    if layout.n_coeff_registers != L + 1:
        raise ValueError("layout must carry exactly L + 1 coefficient registers")
    if layout.value_qubits != codec.bits:
        raise ValueError("value register width must match the codec")
    if T < 1 or 2**layout.time_qubits < T:
        raise ValueError("time register cannot index T points")
    if layout.ancilla_count != 0:
        raise ValueError("ancillas are appended by the rotation step")
    n = layout.coeff_qubits
    codes, g = _semidigital_values(params, L, T, n)
    vcodes = codec.encode(g)
    joint = np.prod(prepare_gaussian_register(n)[codes], axis=1)

    t2 = 2**layout.time_qubits
    v2 = 2**layout.value_qubits
    combo_idx = np.arange(codes.shape[0])
    flat = ((combo_idx[:, None] * t2 + np.arange(T)[None, :]) * v2 + vcodes).ravel()
    state = np.zeros(2**layout.total_qubits, dtype=complex)
    state[flat] = np.repeat(joint / np.sqrt(T), T)
    return StateVector(amplitudes=state, layout=layout, codec=codec)


def attach_value_rotation(state: StateVector, gmax: float) -> StateVector:
    """Append an ancilla rotated by the normalized value register content.

    Each basis amplitude alpha with decoded value v becomes
    alpha sqrt(v/gmax) on ancilla 0 and alpha sqrt(1 - v/gmax) on ancilla 1,
    so the ancilla-zero probability is the mean decoded value over gmax.
    The output layout passes the qubit guard before anything is allocated,
    and the rotation works per value code: the 2^v decoded values and their
    square roots are computed once and multiplied into views of the output,
    so no temporary is as long as the state.
    """
    if state.codec is None:
        raise ValueError("state carries no codec to decode the value register")
    layout = state.layout
    if layout.value_qubits < 1:
        raise ValueError("state has no value register")
    new_layout = RegisterLayout(
        coeff_qubits=layout.coeff_qubits,
        n_coeff_registers=layout.n_coeff_registers,
        time_qubits=layout.time_qubits,
        value_qubits=layout.value_qubits,
        ancilla_count=layout.ancilla_count + 1,
    )
    shape = (-1, 2**layout.value_qubits, 2**layout.ancilla_count)
    amps = state.amplitudes.reshape(shape)
    vals = state.codec.decode(np.arange(shape[1]))
    live = np.any(amps, axis=(0, 2))  # value codes that carry amplitude
    if np.any(vals[live] > gmax * (1.0 + 1e-12)):
        raise ValueError("decoded value exceeds gmax; normalization contract violated")
    frac = np.clip(vals / gmax, 0.0, 1.0)[:, None]
    new = np.empty(2 * amps.size, dtype=complex)
    out = new.reshape(*shape, 2)
    np.multiply(amps, np.sqrt(frac), out=out[..., 0])
    np.multiply(amps, np.sqrt(1.0 - frac), out=out[..., 1])
    return StateVector(amplitudes=new, layout=new_layout, codec=state.codec)


def build_quantized_subsample_state(
    layout: RegisterLayout,
    params: GbmParams,
    M: int,
    strike: float,
    gmax: float,
    codec: FixedPointCodec,
) -> StateVector:
    """Coefficient registers plus a payoff ancilla for the coarse-grid average.

    Each register holds one increment; the running sums B(i/M) =
    (1/sqrt(M)) sum_{m<=i} a'_m are exponentiated into grid values whose mean
    feeds the thresholded payoff, which (after fixed-point quantization) is
    rotated onto the ancilla.  The working registers are treated as
    uncomputed: the final state holds only coefficients and the ancilla, and
    ancilla-zero probability times gmax equals the quantized classical
    expectation of the payoff.
    """
    if layout.n_coeff_registers != M:
        raise ValueError("layout must carry exactly M coefficient registers")
    if layout.time_qubits != 0 or layout.value_qubits != 0:
        raise ValueError("working registers are uncomputed; layout must not declare them")
    if layout.ancilla_count != 1:
        raise ValueError("layout must declare the payoff ancilla")
    n = layout.coeff_qubits
    amps_1 = prepare_gaussian_register(n)
    grid = gaussian_grid_values(n)
    codes = _coefficient_codes(M, n)
    increments = grid[codes]
    times = np.arange(1, M + 1) / M
    bm = np.cumsum(increments, axis=1) / np.sqrt(M)
    g = params.s0 * np.exp(params.sigma * bm + params.effective_drift * times)
    pay = np.maximum(g.mean(axis=1) - strike, 0.0)
    payq = codec.decode(codec.encode(pay))
    if np.any(payq > gmax * (1.0 + 1e-12)):
        raise ValueError("quantized payoff exceeds gmax; normalization contract violated")
    frac = np.clip(payq / gmax, 0.0, 1.0)
    joint = np.prod(amps_1[codes], axis=1)
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
