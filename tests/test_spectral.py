import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab.losses import mse_loss
from freqlab.nn import backprop, forward, init_mlp
from freqlab.spectral import (
    FreqTrace,
    dft_matrix,
    dft_uniform,
    grad_decomposition,
    nufft_direct,
    nufft_matrix,
    pick_peaks,
    rel_freq_diff,
    spectrum,
    step_to_threshold,
)


def naive_nufft(points, values, num_freqs):
    """Independent double-loop summation used as the oracle."""
    out = np.zeros(num_freqs, dtype=complex)
    for k in range(num_freqs):
        acc = 0j
        for x, v in zip(points, values):
            acc += v * cmath.exp(-2j * math.pi * x * k)
        out[k] = acc
    return out


class TestDft:
    def test_constant_vector_all_mass_at_dc(self):
        spec = dft_uniform(np.ones(4))
        assert abs(spec[0] - 4.0) < 1e-12
        assert np.all(np.abs(spec[1:]) < 1e-12)

    def test_pure_sine_hand_value(self):
        spec = dft_uniform(np.array([0.0, 1.0, 0.0, -1.0]))
        assert spec[1] == pytest.approx(-2j, abs=1e-12)
        assert abs(spec[1]) == pytest.approx(2.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dft_uniform(np.array([]))

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(-5, 5), st.floats(-5, 5))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed, a, b):
        rng = np.random.default_rng(seed)
        u, v = rng.standard_normal(16), rng.standard_normal(16)
        lhs = dft_uniform(a * u + b * v)
        rhs = a * dft_uniform(u) + b * dft_uniform(v)
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * (1 + abs(a) + abs(b)) * 16

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_parseval(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(32)
        spec = dft_uniform(v)
        time_energy = np.sum(v * v)
        freq_energy = np.sum(np.abs(spec) ** 2) / 32
        assert abs(time_energy - freq_energy) < 1e-10 * max(time_energy, 1.0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry_for_real_input(self, seed):
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(17)
        c = dft_uniform(v)
        for g in range(1, 17):
            assert c[g] == pytest.approx(np.conj(c[17 - g]), abs=1e-10)


class TestNufft:
    def test_single_node_at_origin(self):
        spec = nufft_direct(np.array([0.0]), np.array([1.0]), 6)
        assert np.allclose(spec, 1.0, atol=1e-15)

    @pytest.mark.parametrize("n", [8, 64, 256])
    def test_uniform_nodes_reduce_to_dft(self, n):
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        points = np.arange(n) / n
        a = nufft_direct(points, v, n)
        b = dft_uniform(v)
        assert np.max(np.abs(a - b)) < 1e-10 * n

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_matches_naive_double_loop(self, seed):
        rng = np.random.default_rng(seed)
        points = rng.uniform(0, 1, 20)
        values = rng.standard_normal(20)
        a = nufft_direct(points, values, 8)
        b = naive_nufft(points, values, 8)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_out_of_range_node_rejected(self):
        with pytest.raises(ValueError):
            nufft_direct(np.array([1.5]), np.array([1.0]), 4)

    def test_boundary_nodes_accepted(self):
        nufft_direct(np.array([0.0, 1.0]), np.array([1.0, 2.0]), 4)


TRANSFORMS = {
    "dft_uniform": dft_uniform,
    "nufft_direct": lambda values: nufft_direct(np.arange(len(values)) / len(values), values, len(values)),
    "spectrum": lambda values: spectrum(dft_matrix(len(values)), values),
}


class TestFiniteCoefficients:
    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_nan_value_rejected(self, name):
        with pytest.raises(ValueError, match="finite"):
            TRANSFORMS[name](np.array([1.0, np.nan, 2.0, 0.5]))

    # numpy warns on the overflow (and the inf - inf after it); the raise is what is checked
    @pytest.mark.filterwarnings("ignore:.* encountered in matmul:RuntimeWarning")
    @pytest.mark.parametrize("name", TRANSFORMS)
    def test_overflowing_sum_of_finite_values_rejected(self, name):
        values = np.full(4, 1e308)
        assert np.all(np.isfinite(values))
        with pytest.raises(ValueError, match="finite"):
            TRANSFORMS[name](values)


class TestPhaseMatrices:
    """A matrix built once and applied by spectrum gives the bits of the
    transform that built its matrix at every call."""

    @pytest.mark.parametrize("n", [1, 16, 65])
    def test_dft_matrix_applied_equals_the_per_call_transform(self, n):
        j = np.arange(n)
        phase = dft_matrix(n)
        for seed in range(3):
            v = np.random.default_rng(seed).standard_normal(n)
            per_call = np.exp((-2j * math.pi / n) * np.outer(j, j)) @ v
            assert spectrum(phase, v).tobytes() == per_call.tobytes()
            assert dft_uniform(v).tobytes() == per_call.tobytes()

    @pytest.mark.parametrize("n,num_freqs", [(1, 1), (40, 8), (500, 32)])
    def test_nufft_matrix_applied_equals_the_per_call_transform(self, n, num_freqs):
        rng = np.random.default_rng(n)
        x = rng.uniform(0, 1, n)
        phase = nufft_matrix(x, num_freqs)
        for _ in range(3):
            v = rng.standard_normal(n)
            per_call = np.exp(-2j * math.pi * np.outer(np.arange(num_freqs), x)) @ v
            assert spectrum(phase, v).tobytes() == per_call.tobytes()
            assert nufft_direct(x, v, num_freqs).tobytes() == per_call.tobytes()

    @pytest.mark.parametrize("values", [np.zeros(5), np.zeros((4, 1)), np.zeros(())])
    def test_values_that_do_not_fit_the_matrix_rejected(self, values):
        with pytest.raises(ValueError):
            spectrum(dft_matrix(4), values)

    def test_bad_matrix_arguments_rejected(self):
        for build in (lambda: dft_matrix(0), lambda: nufft_matrix([0.5], 0),
                      lambda: nufft_matrix([1.5], 4), lambda: nufft_matrix(np.zeros((2, 2)), 4)):
            with pytest.raises(ValueError):
                build()


class TestPeaks:
    def test_pure_tone_single_peak(self):
        x = np.arange(64) / 64
        spec = dft_uniform(np.sin(2 * math.pi * 3 * x))
        assert pick_peaks(spec, 4, 0.05) == [3]

    def test_constant_signal_dc_peak(self):
        spec = dft_uniform(np.full(16, 2.5))
        assert pick_peaks(spec, 4, 0.05) == [0]

    def test_reference_solution_has_three_peaks(self):
        from freqlab.poisson import Grid1D, assemble_poisson, g_rhs, thomas_solve
        ref = thomas_solve(assemble_poisson(Grid1D(n=64), g_rhs))
        # source tone k=1 lands near index 0-1, k=4/8 merge near 3, k=24 near 8
        assert pick_peaks(dft_uniform(ref), 4, 0.05) == [1, 3, 8]

    def test_max_count_keeps_largest(self):
        x = np.arange(128) / 128
        v = 3 * np.sin(2 * math.pi * 2 * x) + 2 * np.sin(2 * math.pi * 9 * x) + 1 * np.sin(2 * math.pi * 20 * x)
        spec = dft_uniform(v)
        assert pick_peaks(spec, 2, 0.05) == [2, 9]
        assert pick_peaks(spec, 3, 0.05) == [2, 9, 20]

    def test_min_amplitude_filters(self):
        x = np.arange(128) / 128
        v = np.sin(2 * math.pi * 2 * x) + 0.01 * np.sin(2 * math.pi * 9 * x)
        assert pick_peaks(dft_uniform(v), 4, 0.05) == [2]


class TestRelFreqDiff:
    def test_identical_spectra_zero(self):
        s = dft_uniform(np.arange(8.0))
        assert rel_freq_diff(s, s, 2) == 0.0

    def test_zero_model_gives_one(self):
        t = np.array([2.0 + 0j, 3.0 + 0j])
        m = np.array([0j, 0j])
        assert rel_freq_diff(m, t, 0) == 1.0

    def test_complex_modulus_hand_case(self):
        t = np.array([2.0 + 0j])
        m = np.array([2.0 + 2j])
        assert rel_freq_diff(m, t, 0) == pytest.approx(1.0)

    def test_denominator_selects_spectrum(self):
        t = np.array([1.0 + 0j])
        m = np.array([4.0 + 0j])
        assert rel_freq_diff(m, t, 0, "target") == pytest.approx(3.0)
        assert rel_freq_diff(m, t, 0, "model") == pytest.approx(0.75)

    def test_vanishing_denominator_is_infinite(self):
        t = np.array([1e-15 + 0j])
        m = np.array([1.0 + 0j])
        assert rel_freq_diff(m, t, 0) == math.inf

    def test_index_out_of_range(self):
        s = np.array([1.0 + 0j])
        with pytest.raises(IndexError):
            rel_freq_diff(s, s, 3)

    @given(st.integers(min_value=0, max_value=2**32 - 1),
           st.floats(0.1, 10), st.floats(0, 2 * math.pi))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_common_scaling(self, seed, mag, phase):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        b = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        z = mag * cmath.exp(1j * phase)
        before = rel_freq_diff(a, b, 3)
        after = rel_freq_diff(z * a, z * b, 3)
        assert after == pytest.approx(before, rel=1e-9)


class TestTrace:
    def make_trace(self):
        trace = FreqTrace(selected_peaks=(0, 3))
        for step, df3 in enumerate([0.9, 0.7, 0.4, 0.2, 0.1]):
            trace.append(step, step * 10, 0.0, 1.0 - 0.1 * step, {0: 0.05, 3: df3})
        return trace

    def test_first_passage_starts_below(self):
        trace = self.make_trace()
        assert step_to_threshold(trace, 0, 0.3) == 0

    def test_first_passage_crossing(self):
        trace = self.make_trace()
        assert step_to_threshold(trace, 3, 0.3) == 3

    def test_never_crossing_returns_none(self):
        trace = self.make_trace()
        assert step_to_threshold(trace, 3, 0.05) is None

    def test_unknown_frequency_rejected(self):
        trace = self.make_trace()
        with pytest.raises(KeyError):
            step_to_threshold(trace, 7, 0.3)

    def test_strictly_increasing_steps_enforced(self):
        trace = self.make_trace()
        with pytest.raises(ValueError):
            trace.append(2, 100, 0.0, 0.5, {0: 0.1, 3: 0.1})

    def test_missing_peak_entry_rejected(self):
        trace = self.make_trace()
        with pytest.raises(ValueError):
            trace.append(10, 100, 0.0, 0.5, {0: 0.1})

    def test_table_is_the_appended_rows_in_peak_order(self):
        trace = FreqTrace(selected_peaks=(5, 2))
        trace.append(0, 0, 0.0, 1.0, {2: 0.8, 5: 0.6, 9: 0.1})
        trace.append(3, 30, 1.5, 0.25, {9: 0.2, 5: 0.3, 2: 0.4})
        assert trace.table() == [[0, 0, 0.0, 1.0, 0.6, 0.8], [3, 30, 1.5, 0.25, 0.3, 0.4]]


class TestGradDecomposition:
    def _mse_pointwise(self, target):
        def pointwise(outputs):
            return 2.0 * (outputs - target)
        return pointwise

    def test_identity_residuals_small_mse(self):
        n = 32
        xs = (np.arange(n) / n * 2 - 1).reshape(-1, 1)
        target = np.sin(2 * math.pi * 3 * np.arange(n) / n).reshape(-1, 1)
        net = init_mlp([1, 16, 1], std=0.5, seed=3)
        dec = grad_decomposition(net, xs, self._mse_pointwise(target))
        assert dec.real_residual < 1e-8
        assert dec.imag_residual < 1e-8

    def test_direct_grad_matches_backprop(self):
        n = 16
        xs = (np.arange(n) / n).reshape(-1, 1)
        target = np.cos(2 * math.pi * np.arange(n) / n).reshape(-1, 1)
        net = init_mlp([1, 8, 1], std=0.4, seed=5)
        dec = grad_decomposition(net, xs, self._mse_pointwise(target))
        out, cache = forward(net, xs)
        _, grad_out = mse_loss(out, target)
        direct = backprop(net, cache, grad_out)
        assert np.max(np.abs(dec.direct_grad - direct)) < 1e-12

    def test_perfect_fit_has_zero_coefficients(self):
        n = 16
        xs = (np.arange(n) / n).reshape(-1, 1)
        net = init_mlp([1, 8, 1], std=0.4, seed=6)
        out, _ = forward(net, xs)
        dec = grad_decomposition(net, xs, self._mse_pointwise(out.copy()))
        assert np.max(np.abs(dec.d_k)) < 1e-14
        assert np.max(np.abs(dec.mode_terms)) < 1e-12

    def test_nonuniform_samples_rejected(self):
        xs = np.array([0.0, 0.1, 0.5, 0.6]).reshape(-1, 1)
        net = init_mlp([1, 4, 1], std=0.3, seed=0)
        with pytest.raises(ValueError):
            grad_decomposition(net, xs, self._mse_pointwise(np.zeros((4, 1))))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_identity_property_random_nets(self, seed):
        rng = np.random.default_rng(seed)
        n = 16
        widths = [1, int(rng.integers(3, 12)), int(rng.integers(1, 4))]
        net = init_mlp(widths, "tanh", "identity", std=0.4, seed=seed & 0xFFFF)
        xs = (np.arange(n) / n).reshape(-1, 1)
        target = rng.standard_normal((n, widths[-1]))
        dec = grad_decomposition(net, xs, self._mse_pointwise(target),
                                 output_dim=int(rng.integers(0, widths[-1])))
        assert dec.real_residual < 1e-8
        assert dec.imag_residual < 1e-8
