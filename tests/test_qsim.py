"""Statevector encodings checked against exhaustive classical enumeration."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klpricer import process, qsim
from klpricer.klcore import CLIP, _series, series_basis
from klpricer.process import GbmParams, g_max_bound
from klpricer.qsim import (
    FixedPointCodec,
    RegisterLayout,
    attach_value_rotation,
    build_quantized_subsample_state,
    build_semidigital_state,
    exact_success_probability,
    gaussian_grid_values,
    prepare_gaussian_register,
)

MARKET = GbmParams(100.0, 0.05, 0.2)


class TestGaussianRegister:
    def test_two_level_register(self):
        amps = prepare_gaussian_register(1)
        v = gaussian_grid_values(1)
        assert np.allclose(v, [-CLIP, 0.0])
        p = amps**2
        expect = np.exp(-0.5 * v**2)
        expect /= expect.sum()
        assert np.allclose(p, expect, atol=1e-15)

    def test_mirror_symmetry_within_grid(self):
        amps = prepare_gaussian_register(4)
        p = amps**2
        # x and -x share a grid point for |x| <= N/2 - 1
        for x in range(1, 8):
            assert p[8 + x] == pytest.approx(p[8 - x], rel=1e-14)

    def test_unit_variance_encoding(self):
        amps = prepare_gaussian_register(6)
        v = gaussian_grid_values(6)
        p = amps**2
        var = float(p @ v**2 - (p @ v) ** 2)
        assert abs(var - 1.0) < 0.02

    def test_width_guard(self):
        with pytest.raises(ValueError):
            prepare_gaussian_register(0)
        with pytest.raises(ValueError):
            prepare_gaussian_register(9)


class TestCodec:
    def test_round_trip_error(self):
        codec = FixedPointCodec.for_range(8, 1000.0)
        vals = np.linspace(0.0, 1000.0, 777)
        err = np.abs(codec.decode(codec.encode(vals)) - vals)
        assert err.max() <= codec.scale / 2 + 1e-12

    def test_saturation_counted(self):
        codec = FixedPointCodec.for_range(4, 10.0)
        codec.encode([5.0, 12.0, -1.0])
        assert codec.saturation_count == 2

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        bits=st.integers(1, 16),
        high=st.floats(1e-6, 1e9),
        inside=st.lists(st.floats(0.0, 1.0), max_size=20),
        below=st.lists(st.floats(1.0, 1e6), max_size=5),
        above=st.lists(st.floats(1.0, 1e6), max_size=5),
    )
    def test_round_trip_and_saturation(self, bits, high, inside, below, above):
        # values in [0, high] come back within half a step, up to the rounding
        # of the step itself; values a step or more outside take the end
        # codes, and exactly those count as saturated
        codec = FixedPointCodec.for_range(bits, high)
        x = np.array(inside) * high
        err = np.abs(codec.decode(codec.encode(x)) - x)
        assert np.all(err <= codec.scale / 2 + 4 * np.spacing(high))
        assert codec.saturation_count == 0
        out = np.concatenate([-np.array(below) * codec.scale, high + np.array(above) * codec.scale])
        codes = codec.encode(out)
        assert codes.tolist() == [0] * len(below) + [2**bits - 1] * len(above)
        assert codec.saturation_count == len(below) + len(above)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        bits=st.integers(1, 16),
        high=st.floats(1e-6, 1e9),
        values=st.lists(st.floats(-1e12, 1e12), max_size=20),
    )
    def test_no_round_trip_exceeds_the_top_value(self, bits, high, values):
        # the rotations divide by the top value, so every decoded value must
        # lie in [0, top] for their ancilla amplitudes to be real
        codec = FixedPointCodec.for_range(bits, high)
        decoded = codec.decode(codec.encode(values))
        assert np.all((decoded >= 0.0) & (decoded <= codec.top))
        assert codec.decode(np.arange(2**bits)).max() == codec.top


def small_setup(T=4):
    """The qsim-check encoding: L = 1, two 2-qubit registers, 8 value bits on [0, gmax]."""
    codec = FixedPointCodec.for_range(8, g_max_bound(MARKET, L=1))
    return codec, build_semidigital_state(MARKET, L=1, T=T, n=2, codec=codec)


class TestSemidigitalState:
    def test_norm_and_layout(self):
        _, state = small_setup()
        assert state.layout == RegisterLayout(2, 2, 2, 8)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    @pytest.mark.parametrize("T, time_qubits", [(1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (64, 6)])
    def test_layout_derived_from_inputs(self, T, time_qubits):
        # n(L + 1) coefficient qubits, ceil(log2 T) time qubits, the codec's bits
        codec = FixedPointCodec.for_range(5, 200.0)
        state = build_semidigital_state(MARKET, L=2, T=T, n=1, codec=codec)
        assert state.layout == RegisterLayout(1, 3, time_qubits, 5)
        assert state.codec is codec
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_empty_time_register_rejected(self):
        with pytest.raises(ValueError, match="T >= 1"):
            build_semidigital_state(MARKET, L=1, T=0, n=2, codec=FixedPointCodec(8, 1.0))

    def test_coefficient_marginals_product_gaussian(self):
        _, state = small_setup()
        probs = state.probabilities().reshape(16, -1).sum(axis=1)
        single = prepare_gaussian_register(2) ** 2
        assert np.abs(probs - np.outer(single, single).ravel()).max() < 1e-10

    def test_value_register_is_deterministic_function(self):
        codec, state = small_setup()
        layout = state.layout
        grid = gaussian_grid_values(2)
        probs = state.probabilities()
        live = np.flatnonzero(probs > 0)
        v2, t2 = 2**layout.value_qubits, 2**layout.time_qubits
        for idx in live:
            vcode = idx % v2
            t_idx = (idx // v2) % t2
            combo = idx // (v2 * t2)
            a0, a1 = grid[combo // 4], grid[combo % 4]
            t = (t_idx + 1) / 4.0
            b = a0 * t + np.sqrt(2.0) / np.pi * a1 * np.sin(np.pi * t)
            g = 100.0 * np.exp(0.2 * b + MARKET.effective_drift * t)
            assert vcode == int(codec.encode(g)[()])

    def test_single_time_point(self):
        _, state = small_setup(T=1)
        assert state.layout.time_qubits == 0
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_no_diffusion_coupling(self):
        # L = 0 and sigma ~ 0: value register depends only on the time index
        params = GbmParams(100.0, 0.05, 1e-12)
        codec = FixedPointCodec.for_range(8, 120.0)
        state = build_semidigital_state(params, L=0, T=4, n=2, codec=codec)
        probs = state.probabilities().reshape(4, 4, 256).sum(axis=0)
        codes_per_t = [np.flatnonzero(probs[t]) for t in range(4)]
        expect = codec.encode(100.0 * np.exp(0.05 * np.arange(1, 5) / 4))
        for t in range(4):
            assert codes_per_t[t].tolist() == [int(expect[t])]


class TestValueRotation:
    def test_probability_identity_with_enumeration(self):
        codec, state = small_setup()
        rotated = attach_value_rotation(state)
        assert abs(np.linalg.norm(rotated.amplitudes) - 1.0) < 1e-12
        p0 = exact_success_probability(rotated, 0)
        quantized, exact = qsim.enumerated_mean(MARKET, 1, 4, 2, codec)
        assert p0 * codec.top == pytest.approx(quantized, abs=1e-10)
        # versus the unquantized mean, the codec step is the only slack
        assert abs(p0 * codec.top - exact) <= codec.scale / 2

    def test_completeness(self):
        _, state = small_setup()
        rotated = attach_value_rotation(state)
        p0 = exact_success_probability(rotated, 0)
        p1 = exact_success_probability(rotated, 1)
        assert p0 + p1 == pytest.approx(1.0, abs=1e-12)

    def test_all_values_at_gmax_gives_certainty(self):
        layout = RegisterLayout(coeff_qubits=1, n_coeff_registers=1, time_qubits=0, value_qubits=4)
        codec = FixedPointCodec(bits=4, scale=1.0)
        amps = np.zeros(2**5, dtype=complex)
        # both coefficient codes point at value code 15, the codec's top value
        amps[0 * 16 + 15] = np.sqrt(0.5)
        amps[1 * 16 + 15] = np.sqrt(0.5)
        state = qsim.StateVector(amplitudes=amps, layout=layout, codec=codec)
        rotated = attach_value_rotation(state)
        assert exact_success_probability(rotated, 0) == pytest.approx(1.0, abs=1e-12)

    def test_all_values_zero_gives_failure(self):
        layout = RegisterLayout(coeff_qubits=1, n_coeff_registers=1, time_qubits=0, value_qubits=4)
        codec = FixedPointCodec(bits=4, scale=1.0)
        amps = np.zeros(2**5, dtype=complex)
        amps[0] = np.sqrt(0.5)
        amps[16] = np.sqrt(0.5)
        state = qsim.StateVector(amplitudes=amps, layout=layout, codec=codec)
        rotated = attach_value_rotation(state)
        assert exact_success_probability(rotated, 1) == pytest.approx(1.0, abs=1e-12)

    def test_value_register_wider_than_codec_rejected(self):
        # value code 15 would decode to 15, past the 2-bit codec's top value
        # of 3, and rotate to a NaN amplitude; the state is refused instead
        layout = RegisterLayout(coeff_qubits=1, n_coeff_registers=1, time_qubits=0, value_qubits=4)
        amps = np.zeros(2**5, dtype=complex)
        amps[15] = 1.0
        with pytest.raises(ValueError, match="4 qubits is wider than the 2-bit codec"):
            qsim.StateVector(amps, layout, FixedPointCodec(bits=2, scale=1.0))

    def test_rotation_matches_per_amplitude_rotation(self):
        # the rotation per value code gives every amplitude the bits of the
        # rotation per amplitude, signed zeros included
        codec, state = small_setup(T=8)
        rng = np.random.default_rng(3)
        amps = state.amplitudes
        amps[:] = rng.standard_normal(amps.size) + 1j * rng.standard_normal(amps.size)
        amps[rng.random(amps.size) < 0.3] = 0.0
        amps[:4] = [-0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-1.0, -0.0)]
        frac = codec.decode(np.arange(amps.size) % 256) / codec.top
        expect = np.empty(2 * amps.size, dtype=complex)
        expect[0::2] = amps * np.sqrt(frac)
        expect[1::2] = amps * np.sqrt(1.0 - frac)
        got = attach_value_rotation(state).amplitudes
        assert np.array_equal(got.view(np.uint64), expect.view(np.uint64))

    def test_rotation_allocates_only_its_output(self):
        # a 2^18-amplitude input, an 8 MiB output; rotating each amplitude
        # on its own allocated 2.5 times the output
        layout = RegisterLayout(coeff_qubits=4, n_coeff_registers=3, time_qubits=2, value_qubits=4)
        amps = np.full(1 << 18, 2.0**-9, dtype=complex)
        state = qsim.StateVector(amps, layout, FixedPointCodec.for_range(4, 10.0))
        tracemalloc.start()
        try:
            rotated = attach_value_rotation(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rotated.amplitudes.nbytes == 8 << 20
        assert peak <= rotated.amplitudes.nbytes + (1 << 20)


class TestMirror:
    @pytest.mark.parametrize("params", [MARKET, GbmParams(80.0, -0.1, 0.5)])
    def test_semidigital_state_mirrors_the_nested_sampler(self, params):
        # the qsim-check layout: L = 1, two 2-qubit coefficient registers,
        # T = 4 and 8 value bits.  Per coefficient code, the codec's top value
        # times the ancilla-zero probability is the path's quantized monitoring mean;
        # kl-nested's chain gives it from one uniform per monitoring cell,
        # mapped to its time, through the series, the GBM map and the codec.
        # Some codes quantize to 0, so the gap is measured against gmax.
        T = 4
        gmax = g_max_bound(params, L=1)
        codec = FixedPointCodec.for_range(8, gmax)
        state = build_semidigital_state(params, L=1, T=T, n=2, codec=codec)
        probs = attach_value_rotation(state).probabilities().reshape(16, -1, 2)
        statevector = codec.top * probs[:, :, 0].sum(axis=1) / probs.sum(axis=(1, 2))

        a = gaussian_grid_values(2)[qsim._coefficient_codes(2, 2)]
        t = process.monitoring_times((np.arange(T) + 0.5) / T, T)
        g = process.gbm_from_bm(_series(a, series_basis(1, t)), t, params)
        sampler = codec.decode(codec.encode(g)).mean(axis=1)
        assert np.max(np.abs(statevector - sampler)) <= 1e-12 * gmax


class TestQuantizedSubsampleState:
    def setup_method(self):
        self.M = 2
        # payoff envelope: running sums bounded by sqrt(M) * clip
        self.gmax = 100.0 * np.exp(0.2 * CLIP * np.sqrt(2.0) + max(MARKET.effective_drift, 0.0))
        self.codec = FixedPointCodec.for_range(8, self.gmax)

    def build(self, strike):
        return build_quantized_subsample_state(MARKET, self.M, 2, strike, self.codec)

    def oracle(self, strike):
        grid = gaussian_grid_values(2)
        pmf = prepare_gaussian_register(2) ** 2
        total = 0.0
        codec = FixedPointCodec.for_range(8, self.gmax)
        for i in range(4):
            for j in range(4):
                b = np.cumsum([grid[i], grid[j]]) / np.sqrt(2.0)
                t = np.array([0.5, 1.0])
                g = 100.0 * np.exp(0.2 * b + MARKET.effective_drift * t)
                pay = max(g.mean() - strike, 0.0)
                total += pmf[i] * pmf[j] * float(codec.decode(codec.encode(pay)))
        return total

    def test_matches_enumeration_over_16_codes(self):
        state = self.build(100.0)
        assert state.layout == RegisterLayout(2, 2, 0, 0, 1)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12
        p0 = exact_success_probability(state, 0)
        assert p0 * self.codec.top == pytest.approx(self.oracle(100.0), abs=1e-10)

    def test_unreachable_strike_kills_success(self):
        state = self.build(self.gmax * 2.0)
        assert exact_success_probability(state, 0) == 0.0

    def test_zero_strike_degenerate_drift(self):
        params = GbmParams(100.0, 0.05, 1e-12)
        gmax = 120.0
        codec = FixedPointCodec.for_range(8, gmax)
        state = build_quantized_subsample_state(params, 2, 2, 0.0, codec)
        p0 = exact_success_probability(state, 0)
        riemann = np.mean(100.0 * np.exp(0.05 * np.array([0.5, 1.0])))
        assert p0 * codec.top == pytest.approx(
            float(codec.decode(codec.encode(riemann))), abs=1e-10
        )


class TestResourceGuard:
    def test_26_qubit_cap(self):
        with pytest.raises(ValueError):
            RegisterLayout(coeff_qubits=8, n_coeff_registers=3, time_qubits=2, value_qubits=8)

    def test_cap_stated_in_bytes(self):
        # 27 qubits of complex128 are 2 GiB, past the 1 GiB of 26
        with pytest.raises(ValueError, match="27-qubit complex128 state needs 2147483648 bytes, "
                                             "past the 1073741824-byte guard"):
            RegisterLayout(coeff_qubits=8, n_coeff_registers=2, time_qubits=3, value_qubits=8)

    @pytest.mark.parametrize("build", [
        lambda codec: qsim.enumerated_mean(MARKET, L=2, T=1, n=8, codec=codec),
        lambda codec: build_semidigital_state(MARKET, L=2, T=1, n=8, codec=codec),
        lambda codec: build_quantized_subsample_state(MARKET, 4, 7, 100.0, codec),
    ], ids=["enumeration", "semidigital", "subsample"])
    def test_derived_layout_checks_guard_before_allocating(self, build):
        # three 8-qubit registers and 8 value bits are 32 qubits, four 7-qubit
        # registers and the payoff ancilla 29; past the guard, 2^24 or 2^28
        # codes would be enumerated first (400 MB or 9 GB of them)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="-qubit complex128 state needs .* bytes, "
                                                 "past the 1073741824-byte guard"):
                build(FixedPointCodec(8, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_rotation_checks_guard_before_allocating(self, monkeypatch):
        # with the guard at the input's width, the rotated layout is refused
        # before its 2^19-amplitude (8 MiB) state is built
        layout = RegisterLayout(coeff_qubits=4, n_coeff_registers=3, time_qubits=2, value_qubits=4)
        amps = np.full(1 << 18, 2.0**-9, dtype=complex)
        state = qsim.StateVector(amps, layout, FixedPointCodec.for_range(4, 10.0))
        monkeypatch.setattr(process, "GUARD_BYTES", 16 << 18)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="19-qubit complex128 state needs 8388608 bytes, "
                                                 "past the 4194304-byte guard"):
                attach_value_rotation(state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
