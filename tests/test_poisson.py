import itertools
import math
import tracemalloc

import numpy as np
import pytest

import freqlab.poisson as poisson_mod
from hypothesis import given, settings
from hypothesis import strategies as st

from freqlab.errors import DivergenceError
from freqlab.poisson import (
    METHODS,
    Grid1D,
    TrainPhase,
    assemble_poisson,
    g_rhs,
    hand_off,
    halving_count,
    halving_ratio,
    iterate,
    jacobi_eigen,
    mode_amplitudes,
    run_hybrid,
    sine_mode,
    solve_tridiagonal,
    thomas_solve,
)
from poisson_helpers import sweep_once


def make_rhs(n=32, seed=0, g=None):
    grid = Grid1D(n=n)
    if g is None:
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(n - 1)
        g = lambda x: vals
    return assemble_poisson(grid, g)


def poisson_matrix(m):
    """The dense (m x m) central-difference matrix: 2 on the diagonal, -1 off it."""
    return 2.0 * np.eye(m) - np.eye(m, k=1) - np.eye(m, k=-1)


class TestGrid:
    def test_points_span_interval(self):
        grid = Grid1D(n=8)
        assert grid.points[0] == -1.0
        assert grid.points[-1] == 1.0
        assert np.allclose(np.diff(grid.points), grid.dx)

    def test_rejects_tiny_n(self):
        with pytest.raises(ValueError):
            Grid1D(n=1)


class TestSource:
    def test_zero_at_origin(self):
        assert g_rhs(0.0) == 0.0

    def test_odd_function(self):
        xs = np.linspace(-1, 1, 17)
        assert np.allclose(g_rhs(-xs), -g_rhs(xs))


class TestAssembly:
    def test_n4_matrix_shape_and_entries(self):
        rhs = assemble_poisson(Grid1D(n=4), g_rhs)
        assert rhs.size == 3
        A = poisson_matrix(3)
        assert np.array_equal(A, [[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]])
        # the Jacobi sweep and the direct solve both act as this matrix
        u = np.array([0.5, -1.0, 2.0])
        assert np.allclose(sweep_once("jacobi", rhs, u), (rhs + (2.0 * np.eye(3) - A) @ u) / 2.0)
        assert np.allclose(A @ thomas_solve(rhs)[1:-1], rhs)

    def test_zero_source_gives_zero_rhs(self):
        rhs = assemble_poisson(Grid1D(n=8), lambda x: np.zeros_like(x))
        assert np.array_equal(rhs, np.zeros(7))

    def test_rhs_scales_with_dx_squared(self):
        g = lambda x: np.ones_like(x)
        s8 = assemble_poisson(Grid1D(n=8), g)
        s16 = assemble_poisson(Grid1D(n=16), g)
        assert s8[0] == pytest.approx(4.0 * s16[0], rel=1e-14)


def _textbook_thomas(sub, diag, sup, rhs):
    """Thomas elimination as textbooks write it, on python floats: row 0 on
    its own, then rows 1..m-1, then back substitution from u[m-1] = d[m-1]."""
    sub, diag, sup, rhs = (list(map(float, band)) for band in (sub, diag, sup, rhs))
    m = len(diag)
    c = [0.0] * m
    d = [0.0] * m
    if m > 1:
        c[0] = sup[0] / diag[0]
    d[0] = rhs[0] / diag[0]
    for i in range(1, m):
        piv = diag[i] - sub[i - 1] * c[i - 1]
        if i < m - 1:
            c[i] = sup[i] / piv
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) / piv
    u = [0.0] * m
    u[-1] = d[-1]
    for i in range(m - 2, -1, -1):
        u[i] = d[i] - c[i] * u[i + 1]
    return np.array(u)


class TestThomas:
    def test_hand_case_n4_unit_source(self):
        rhs = assemble_poisson(Grid1D(n=4), lambda x: np.ones_like(x))
        assert np.allclose(rhs, 0.25)
        ref = thomas_solve(rhs)
        assert ref[1:-1] == pytest.approx([0.375, 0.5, 0.375], abs=1e-14)

    def test_zero_source_gives_zero_solution(self):
        ref = thomas_solve(assemble_poisson(Grid1D(n=16), lambda x: np.zeros_like(x)))
        assert np.array_equal(ref[1:-1], np.zeros(15))
        assert np.array_equal(ref, np.zeros(17))

    def test_matches_dense_solve_random_rhs(self):
        rhs = make_rhs(n=32, seed=1)
        ref = thomas_solve(rhs)
        dense = np.linalg.solve(poisson_matrix(rhs.size), rhs)
        assert np.max(np.abs(ref[1:-1] - dense)) < 1e-12

    def test_full_has_zero_boundaries(self):
        rhs = make_rhs()
        ref = thomas_solve(rhs)
        assert ref[0] == 0.0 and ref[-1] == 0.0
        assert ref.shape == (rhs.size + 2,)

    def test_inaccurate_solve_raises_runtime_error(self, monkeypatch):
        # a real exception, so the residual check survives python -O
        import freqlab.poisson as poisson

        real = poisson.solve_tridiagonal
        monkeypatch.setattr(poisson, "solve_tridiagonal", lambda *bands: real(*bands) * (1.0 + 1e-6))
        with pytest.raises(RuntimeError, match="residual"):
            thomas_solve(make_rhs())

    @given(st.integers(min_value=2, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_general_tridiagonal_matches_dense(self, m, seed):
        rng = np.random.default_rng(seed)
        diag = 3.0 + rng.random(m)
        sub = rng.standard_normal(m - 1)
        sup = rng.standard_normal(m - 1)
        rhs = rng.standard_normal(m)
        u = solve_tridiagonal(sub, diag, sup, rhs)
        A = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
        assert np.allclose(A @ u, rhs, atol=1e-9)

    # negative pivots and signed zeros in rhs: the padded row 0 must keep each
    @pytest.mark.parametrize("sub, diag, sup, rhs", [
        ([], [-2.0], [], [0.0]),
        ([], [3.0], [], [-0.0]),
        ([0.5], [-2.0, 4.0], [1.0], [-0.0, 0.0]),
        ([0.5, -1.0], [2.0, -3.0, 5.0], [-1.0, 0.25], [1.0, -0.0, 0.0]),
    ], ids=["m1-negative", "m1-signed-zero", "m2", "m3"])
    def test_small_systems_equal_the_textbook_recurrence_bit_for_bit(self, sub, diag, sup, rhs):
        u = solve_tridiagonal(np.array(sub), np.array(diag), np.array(sup), np.array(rhs))
        assert u.tobytes() == _textbook_thomas(sub, diag, sup, rhs).tobytes()

    def test_random_dominant_system_equals_the_textbook_recurrence_bit_for_bit(self):
        rng = np.random.default_rng(64)
        m = 64
        diag = rng.choice([-1.0, 1.0], m) * (3.0 + rng.random(m))
        sub, sup = rng.standard_normal(m - 1), rng.standard_normal(m - 1)
        rhs = rng.standard_normal(m)
        rhs[::7] = -0.0
        u = solve_tridiagonal(sub, diag, sup, rhs)
        assert u.tobytes() == _textbook_thomas(sub, diag, sup, rhs).tobytes()

    @pytest.mark.parametrize("diag", [[0.0, 1.0], [1.0, 1.0]], ids=["row-0", "row-1"])
    def test_zero_pivot_raises(self, diag):
        # row 1's pivot is 1 - 1 * (1 / 1) = 0
        with pytest.raises(ZeroDivisionError, match="zero pivot"):
            solve_tridiagonal(np.array([1.0]), np.array(diag), np.array([1.0]), np.array([1.0, 2.0]))


class TestSweeps:
    def test_jacobi_hand_sweep_from_zero(self):
        rhs = assemble_poisson(Grid1D(n=4), lambda x: np.ones_like(x))
        out = sweep_once("jacobi", rhs, np.zeros(3))
        assert out == pytest.approx([0.125, 0.125, 0.125])

    def test_jacobi_fixed_point(self):
        rhs = make_rhs(seed=2)
        ref = thomas_solve(rhs)
        assert np.max(np.abs(sweep_once("jacobi", rhs, ref[1:-1]) - ref[1:-1])) < 1e-12

    def test_jacobi_does_not_modify_input(self):
        rhs = make_rhs()
        states = np.zeros((2, rhs.size + 2))
        states[0, 1:-1] = 1.0
        before = states[0].copy()
        list(METHODS["jacobi"](rhs, states)(1))
        assert np.array_equal(states[0], before)

    def test_gauss_seidel_hand_sweep(self):
        rhs = assemble_poisson(Grid1D(n=4), lambda x: np.ones_like(x))
        out = sweep_once("gauss_seidel", rhs, np.zeros(3))
        assert out == pytest.approx([0.125, 0.1875, 0.21875])

    def test_gauss_seidel_fixed_point(self):
        rhs = make_rhs(seed=3)
        ref = thomas_solve(rhs)
        assert np.max(np.abs(sweep_once("gauss_seidel", rhs, ref[1:-1]) - ref[1:-1])) < 1e-12

    def test_gauss_seidel_needs_fewer_iterations(self):
        rhs = make_rhs(n=32, seed=4)
        ref = thomas_solve(rhs)
        u0 = np.zeros(rhs.size)
        jac = iterate(rhs, u0, ref[1:-1], method="jacobi", max_iters=50_000, tol=1e-10)
        gs = iterate(rhs, u0, ref[1:-1], method="gauss_seidel", max_iters=50_000, tol=1e-10)
        assert gs.sup_errors[-1] <= 1e-10
        assert gs.iterations < jac.iterations

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_jacobi_error_recursion_is_eigen_diagonal(self, seed):
        n = 16
        rhs = make_rhs(n=n, seed=5)
        ref = thomas_solve(rhs)
        rng = np.random.default_rng(seed)
        u = ref[1:-1] + rng.standard_normal(n - 1)
        a_before = mode_amplitudes(u - ref[1:-1], n)
        u_next = sweep_once("jacobi", rhs, u)
        a_after = mode_amplitudes(u_next - ref[1:-1], n)
        lam = np.array([jacobi_eigen(n, k) for k in range(1, n)])
        assert np.max(np.abs(a_after - lam * a_before)) < 1e-10


class TestModes:
    def test_eigenvalue_middle_mode_is_zero(self):
        assert jacobi_eigen(4, 2) == pytest.approx(0.0, abs=1e-15)

    def test_eigenvalue_closed_form(self):
        assert jacobi_eigen(8, 1) == pytest.approx(0.9238795325112867, abs=1e-15)

    def test_eigenvalue_antisymmetry(self):
        for n, k in ((8, 3), (64, 10), (17, 5)):
            assert jacobi_eigen(n, k) == pytest.approx(-jacobi_eigen(n, n - k), abs=1e-14)

    def test_out_of_range_mode_rejected(self):
        with pytest.raises(ValueError):
            jacobi_eigen(8, 0)
        with pytest.raises(ValueError):
            jacobi_eigen(8, 8)

    def test_single_mode_amplitudes(self):
        n = 16
        a = mode_amplitudes(sine_mode(n, 1), n)
        expected = np.zeros(n - 1)
        expected[0] = 1.0
        assert np.max(np.abs(a - expected)) < 1e-12

    def test_two_mode_combination(self):
        n = 32
        err = 2.0 * sine_mode(n, 3) + 0.5 * sine_mode(n, 5)
        a = mode_amplitudes(err, n)
        assert a[2] == pytest.approx(2.0, abs=1e-12)
        assert a[4] == pytest.approx(0.5, abs=1e-12)
        mask = np.ones(n - 1, dtype=bool)
        mask[[2, 4]] = False
        assert np.max(np.abs(a[mask])) < 1e-12

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_reconstruction_roundtrip(self, seed):
        n = 24
        rng = np.random.default_rng(seed)
        err = rng.standard_normal(n - 1)
        a = mode_amplitudes(err, n)
        recon = sum(a[k - 1] * sine_mode(n, k) for k in range(1, n))
        assert np.max(np.abs(recon - err)) < 1e-10

    def test_sine_modes_orthogonal_with_known_norm(self):
        n = 12
        for k in range(1, n):
            vk = sine_mode(n, k)
            assert vk @ vk == pytest.approx(n / 2, rel=1e-12)
            for k2 in range(k + 1, n):
                assert abs(vk @ sine_mode(n, k2)) < 1e-10


class TestHalving:
    def test_ratio_matches_n8_k1(self):
        # ln 0.5 / ln cos(pi/8) = 8.7548...; first integer at or past it is 9
        assert halving_ratio(8, 1) == pytest.approx(8.7548, abs=1e-3)
        assert halving_count(8, 1) == 9

    def test_exact_tie_mode(self):
        # cos(pi/4)^2 = 1/2 exactly: two iterations halve the amplitude
        assert halving_count(64, 16) == 2

    def test_ratios_strictly_decreasing_up_to_half(self):
        n = 64
        ratios = [halving_ratio(n, k) for k in range(1, n // 2 + 1)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))

    def test_empirical_halving_matches_closed_form(self):
        n = 16
        rhs = assemble_poisson(Grid1D(n=n), g_rhs)
        ref = thomas_solve(rhs)
        e0 = sum(sine_mode(n, k) for k in range(1, n))
        run = iterate(rhs, ref[1:-1] + e0, ref[1:-1], max_iters=200,
                      track_modes=range(1, n // 2 + 1))
        for k in range(1, n // 2 + 1):
            # 1e-9 relative slack: an amplitude that halves exactly (lambda^l = 1/2) counts
            trace = np.abs(run.alphas[k])
            halved = np.flatnonzero(trace <= 0.5 * trace[0] * (1.0 + 1e-9))
            assert halved[:1].tolist() == [halving_count(n, k)], f"mode {k}"

    def test_empirical_n8_slowest_mode_halves_in_nine(self):
        n = 8
        rhs = assemble_poisson(Grid1D(n=n), lambda x: np.zeros_like(x))
        run = iterate(rhs, sine_mode(n, 1), np.zeros(n - 1), max_iters=20,
                      track_modes=[1])
        trace = np.abs(run.alphas[1])
        halved = np.flatnonzero(trace <= 0.5 * trace[0] * (1.0 + 1e-9))
        assert halved[:1].tolist() == [9]

    @pytest.mark.parametrize("n", [10**8, 10**9])
    def test_slowest_mode_follows_the_closed_form_on_fine_grids(self, n):
        # ln 0.5 / ln cos(pi/n) -> 2 ln2 n^2 / pi^2; cos(pi/n) itself rounds away most of 1 - cos
        assert halving_ratio(n, 1) == pytest.approx(2 * math.log(2) * n ** 2 / math.pi ** 2, rel=1e-6)


class TestIterate:
    def test_fixed_point_terminates_immediately(self):
        rhs = make_rhs(seed=6)
        ref = thomas_solve(rhs)
        run = iterate(rhs, ref[1:-1].copy(), ref[1:-1], max_iters=100, tol=1e-12)
        assert run.iterations == 0
        assert run.sup_errors[0] <= 1e-12

    def test_records_initial_state(self):
        rhs = make_rhs(seed=7)
        ref = thomas_solve(rhs)
        run = iterate(rhs, np.zeros(rhs.size), ref[1:-1], max_iters=3)
        assert run.iterations == 3
        assert len(run.wall_ms) == len(run.sup_errors) == 4
        assert run.sup_errors[0] == pytest.approx(np.max(np.abs(ref[1:-1])))

    def test_tracked_amplitudes_follow_power_law(self):
        n = 32
        rhs = assemble_poisson(Grid1D(n=n), g_rhs)
        ref = thomas_solve(rhs)
        rng = np.random.default_rng(8)
        run = iterate(rhs, ref[1:-1] + rng.standard_normal(n - 1), ref[1:-1],
                      max_iters=100, track_modes=range(1, n))
        for k in range(1, n):
            lam = abs(jacobi_eigen(n, k))
            a0 = abs(run.alphas[k][0])
            for it, alpha in enumerate(run.alphas[k]):
                pred = lam ** it * a0
                assert abs(abs(alpha) - pred) <= 1e-8 * pred + 1e-13

    def test_unknown_method_rejected(self):
        rhs = make_rhs()
        with pytest.raises(ValueError):
            iterate(rhs, np.zeros(rhs.size), np.zeros(rhs.size), method="sor")

    def test_wrong_length_start_rejected_up_front(self):
        # both vectors agree with each other but not with the 7 interior nodes
        with pytest.raises(ValueError, match="interior vector of length 7"):
            iterate(assemble_poisson(Grid1D(8)), np.zeros(3), np.ones(3))

    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_nan_start_sweeps_to_max_iters(self, tol):
        # a NaN sup error meets no tol: the solve sweeps on, as one with no tol does
        rhs = make_rhs(n=16, seed=9)
        ref = thomas_solve(rhs)
        u0 = np.zeros(rhs.size)
        u0[4] = np.nan
        run = iterate(rhs, u0, ref[1:-1], max_iters=300, track_modes=(1, 3), tol=tol)
        assert run.iterations == 300 and len(run.wall_ms) == 301
        assert np.isnan(run.sup_errors).all() and np.isnan(run.alphas[1]).all()

    def test_repeated_tracked_mode_rejected(self):
        # a repeated mode would be recorded twice per iteration into one list
        rhs = make_rhs()
        with pytest.raises(ValueError, match="repeats a mode"):
            iterate(rhs, np.zeros(rhs.size), np.zeros(rhs.size), max_iters=5, track_modes=[2, 2, 3])


class TestHistoryColumns:
    """An IterativeRun's columns are array("d"): 8 bytes a value, read as Python floats."""

    def test_every_column_is_fp64(self):
        rhs = make_rhs(n=16, seed=10)
        run = iterate(rhs, np.zeros(rhs.size), thomas_solve(rhs)[1:-1], max_iters=300, track_modes=(1, 3))
        columns = [run.wall_ms, run.sup_errors, *run.alphas.values()]
        assert [column.typecode for column in columns] == ["d"] * 4
        assert all(type(value) is float for column in columns for value in column)

    def test_history_costs_eight_bytes_a_value(self):
        # relax's grid and one tracked mode; lists of floats held 1.4 MB here
        rhs = assemble_poisson(Grid1D(n=512), g_rhs)
        u_star, u0 = thomas_solve(rhs)[1:-1], np.zeros(rhs.size)
        tracemalloc.start()
        try:
            run = iterate(rhs, u0, u_star, max_iters=20_000, track_modes=(2,))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        values = len(run.wall_ms) + len(run.sup_errors) + len(run.alphas[2])
        assert values == 3 * 20_001
        assert held <= 8 * values + 64 * 2**10


def _reference_jacobi_step(rhs, u):
    ext = np.zeros(rhs.size + 2)
    ext[1:-1] = u
    return (ext[:-2] + ext[2:] + rhs) * 0.5


def _reference_gauss_seidel_step(rhs, u):
    m = rhs.size
    w = u.copy()
    left = 0.0
    for i in range(m):
        right = w[i + 1] if i + 1 < m else 0.0
        w[i] = (left + right + rhs[i]) * 0.5
        left = w[i]
    return w


_REFERENCE_STEPS = {"jacobi": _reference_jacobi_step, "gauss_seidel": _reference_gauss_seidel_step}


def _reference_iterate(rhs, u0, u_star, method, max_iters, track_modes=(), tol=None):
    """iterate as a per-sweep loop: one sweep, then its record, checking tol before each sweep."""
    step = _REFERENCE_STEPS[method]
    u = np.array(u0, dtype=float, copy=True)
    n = rhs.size + 1
    basis = np.array([sine_mode(n, k) for k in track_modes]).reshape(len(track_modes), n - 1)
    sups, alphas = [], {k: [] for k in track_modes}

    def record():
        err = u - u_star
        for k, c in zip(track_modes, (2.0 / n) * (basis @ err)):
            alphas[k].append(float(c))
        sups.append(float(np.max(np.abs(err))))

    record()
    for _ in range(max_iters):
        if tol is not None and sups[-1] <= tol:
            break
        u = step(rhs, u)
        record()
    return sups, alphas


class TestBlocks:
    """iterate sweeps in blocks of poisson._BLOCK rows and records each block at
    once; it must record the bits of the per-sweep loop, and stop where it stops."""

    B = poisson_mod._BLOCK

    def _problem(self, n=16):
        rhs = assemble_poisson(Grid1D(n=n), g_rhs)
        ref = thomas_solve(rhs)
        u0 = ref[1:-1] + np.random.default_rng(11).standard_normal(n - 1)
        return rhs, ref[1:-1], u0

    def _assert_same(self, run, want):
        sups, alphas = want
        assert np.array(run.sup_errors).tobytes() == np.array(sups).tobytes()
        assert run.alphas.keys() == alphas.keys()
        for k in alphas:
            assert np.array(run.alphas[k]).tobytes() == np.array(alphas[k]).tobytes()
        assert len(run.wall_ms) == len(sups)

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
    # one mode takes matmul's ddot path and two or three dgemv's remainder path,
    # where other block forms of the product round differently
    @pytest.mark.parametrize("track", [(), (1,), (1, 5), (1, 5, 15), (1, 2, 3, 5), (1, 2, 3, 4, 5)])
    @pytest.mark.parametrize("extra", ["0", "1", "B-1", "B", "B+1", "2B+3"])
    def test_blocks_record_the_bits_of_the_per_sweep_loop(self, method, track, extra):
        max_iters = {"0": 0, "1": 1, "B-1": self.B - 1, "B": self.B, "B+1": self.B + 1,
                     "2B+3": 2 * self.B + 3}[extra]
        rhs, u_star, u0 = self._problem()
        run = iterate(rhs, u0, u_star, method=method, max_iters=max_iters, track_modes=track)
        self._assert_same(run, _reference_iterate(rhs, u0, u_star, method, max_iters, track))
        assert run.iterations == max_iters

    def test_relax_grid_records_the_bits_of_the_per_sweep_loop(self):
        # relax's size: n = 512, one tracked mode
        rhs, u_star, u0 = self._problem(n=512)
        max_iters = 2 * self.B + 3
        run = iterate(rhs, u0, u_star, max_iters=max_iters, track_modes=(1,))
        self._assert_same(run, _reference_iterate(rhs, u0, u_star, "jacobi", max_iters, (1,)))

    @pytest.mark.parametrize("m", [63, 511, 999])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_stacked_mode_product_is_the_per_row_product(self, m, k):
        # iterate records a block's amplitudes as one stacked matmul; if numpy's
        # dispatch changes, this names the cause before the golden digests do
        basis = np.array([sine_mode(m + 1, j) for j in range(1, k + 1)])
        e = np.random.default_rng(m + k).standard_normal((self.B, m))
        stacked, per_row = np.empty((2, self.B, k))
        np.matmul(basis, e[:, :, None], out=stacked[:, :, None])
        for r in range(self.B):
            np.matmul(basis, e[r], out=per_row[r])
        assert stacked.tobytes() == per_row.tobytes()

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
    @pytest.mark.parametrize("stop", ["max_iters", "tol"])
    def test_wall_ms_reads_the_clock_once_per_sweep_in_order(self, monkeypatch, method, stop):
        # the fake clock reads the number of sweeps done, so wall_ms == [0, 1, ...]
        # only if the clock is read after each sweep and before the next
        done = [0]
        plan = poisson_mod.METHODS[method]

        def counted(rhs, states):
            sweeps = plan(rhs, states)

            def counted_sweeps(count):
                for _ in sweeps(count):
                    done[0] += 1
                    yield
            return counted_sweeps

        def sweep_clock(timing):
            assert timing
            return lambda: float(done[0])

        monkeypatch.setitem(poisson_mod.METHODS, method, counted)
        monkeypatch.setattr(poisson_mod, "stopwatch", sweep_clock)
        rhs, u_star, u0 = self._problem(n=64)
        at, tol = 2 * self.B + 3, None  # across two block boundaries
        if stop == "tol":
            at = self.B + 7  # in the middle of the second block
            tol = _reference_iterate(rhs, u0, u_star, method, at)[0][at]
        run = iterate(rhs, u0, u_star, method=method, max_iters=2 * self.B + 3, tol=tol, timing=True)
        assert run.iterations == at
        assert run.wall_ms.tolist() == [float(i) for i in range(at + 1)]

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
    def test_tol_met_by_the_initial_state_does_no_sweep(self, method):
        rhs, u_star, u0 = self._problem()
        tol = float(np.max(np.abs(u0 - u_star)))
        run = iterate(rhs, u0, u_star, method=method, max_iters=50, track_modes=(2,), tol=tol)
        assert run.iterations == 0
        self._assert_same(run, _reference_iterate(rhs, u0, u_star, method, 50, (2,), tol))

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
    @pytest.mark.parametrize("stop", ["B", "2B", "B+7"])
    def test_tol_stops_at_the_first_state_that_meets_it(self, method, stop):
        # B and 2B are the last rows of the first and second block
        at = {"B": self.B, "2B": 2 * self.B, "B+7": self.B + 7}[stop]
        rhs, u_star, u0 = self._problem(n=64)
        sups, _ = _reference_iterate(rhs, u0, u_star, method, at)
        tol = sups[at]
        assert min(sups[:at]) > tol  # so iteration `at` is the first to meet tol
        run = iterate(rhs, u0, u_star, method=method, max_iters=10 * self.B, track_modes=(1, 3), tol=tol)
        assert run.iterations == at
        self._assert_same(run, _reference_iterate(rhs, u0, u_star, method, 10 * self.B, (1, 3), tol))

    @pytest.mark.parametrize("method", ["jacobi", "gauss_seidel"])
    def test_steppers_match_the_reference_sweeps(self, method):
        rhs, _, u0 = self._problem(n=33)
        assert sweep_once(method, rhs, u0).tobytes() == _REFERENCE_STEPS[method](rhs, u0).tobytes()

    def test_negative_max_iters_rejected(self):
        rhs, u_star, u0 = self._problem()
        with pytest.raises(ValueError, match="max_iters"):
            iterate(rhs, u0, u_star, max_iters=-3)


class TestHybrid:
    def _rhs_and_ref(self, n=32):
        rhs = assemble_poisson(Grid1D(n=n), g_rhs)
        return rhs, thomas_solve(rhs)

    def test_warm_start_within_target_does_zero_iterations(self):
        rhs, ref = self._rhs_and_ref()
        at = TrainPhase(iter([(ref, 0.5)]), ref).run(0)
        run = hand_off(rhs, ref, at, "jacobi", 200_000, 1e-6)
        assert run.iterations == 0
        assert at.step == 0

    def test_switch_at_zero_is_plain_iteration_from_initial_state(self):
        rhs, ref = self._rhs_and_ref()
        u0_full = np.full(rhs.size + 2, 0.05)

        def stream():
            yield u0_full, 1.0
            raise AssertionError("must not train past the switch step")

        at = TrainPhase(stream(), ref).run(0)
        run = hand_off(rhs, ref, at, "jacobi", 100_000, 1e-8)
        direct = iterate(rhs, u0_full[1:-1], ref[1:-1], max_iters=100_000, tol=1e-8)
        assert run.iterations == direct.iterations
        assert run.sup_errors[-1] == pytest.approx(direct.sup_errors[-1])

    def test_plateau_rule_triggers_on_flat_loss(self):
        rhs, ref = self._rhs_and_ref()

        def stream():
            step = 0
            while True:
                loss = 1.0 / (1 + step) if step < 40 else 1.0 / 41
                yield np.zeros(rhs.size + 2), loss
                step += 1

        at = TrainPhase(stream(), ref, plateau_window=10, plateau_tol=0.05, max_steps=10_000).run()
        assert at.plateau_detected
        assert at.step < 200

    def test_divergent_stream_raises(self):
        rhs, ref = self._rhs_and_ref()
        bad = np.full(rhs.size + 2, np.nan)
        with pytest.raises(DivergenceError):
            run_hybrid(rhs, ref, lambda: iter([(bad, 1.0)]), 1e-3, "jacobi", 200_000, 1, 200, 0.01, 200_000)

    def test_max_steps_cap(self):
        rhs, ref = self._rhs_and_ref()

        def stream():
            while True:
                yield np.zeros(rhs.size + 2), 1.0

        at = TrainPhase(stream(), ref, plateau_window=10_000, plateau_tol=1e-9, max_steps=25).run()
        assert at.step == 25
        assert not at.plateau_detected

    def test_plateau_rule_runs_only_on_recorded_steps(self, monkeypatch):
        rhs, ref = self._rhs_and_ref()
        calls = []
        real = poisson_mod._plateau_reached

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(poisson_mod, "_plateau_reached", counted)

        def stream():
            while True:
                yield np.zeros(rhs.size + 2), 1.0

        at = TrainPhase(stream(), ref, plateau_window=10_000, record_every=4, max_steps=40).run()
        assert at.step == 40
        assert len(calls) == len(at.steps) == 11

    @pytest.mark.parametrize("tol", [0.0, -1e-3, float("nan")])
    def test_non_positive_tol_rejected_before_training(self, tol):
        rhs, ref = self._rhs_and_ref()

        def streams():
            raise AssertionError("must not train with a bad tol")

        with pytest.raises(ValueError, match="tol"):
            run_hybrid(rhs, ref, streams, tol, "jacobi", 10, 1, 200, 0.01, 200_000)
        at = TrainPhase(iter([(ref, 1.0)]), ref).run(0)
        with pytest.raises(ValueError, match="tol"):
            hand_off(rhs, ref, at, "jacobi", 10, tol)


class TestRunHybrid:
    # losses 31, 30, ..., 2 over steps 0..29, then 1.0: with record_every = 1,
    # plateau_window = 10 and plateau_tol = 0.05 the first flat pair of windows
    # ends at step 49 (step 48's earlier window, steps 29..38, has mean 1.1)
    P = 49
    MAX_STEPS = 200

    def _hybrid(self):
        """run_hybrid on the synthetic stream, and the number of streams() calls."""
        rhs = assemble_poisson(Grid1D(n=8), g_rhs)
        calls = []

        def streams():
            calls.append(1)
            values = np.empty(rhs.size + 2)  # one buffer, written over at every step, as a network's outputs
            for step in itertools.count():
                values[:] = 0.01 * step
                yield values, max(30.0 - step, 0.0) + 1.0

        hybrid = run_hybrid(rhs, thomas_solve(rhs), streams, 1e-3, "jacobi", 50, 1, 10, 0.05, self.MAX_STEPS)
        return hybrid, len(calls)

    @staticmethod
    def _fields(hybrid):
        return [(label, at.step, at.plateau_detected, at.grid_values.tolist(), at.steps, at.wall_ms,
                 at.sup_errors, run) for label, at, run in hybrid.hand_offs]

    def test_one_stream_handed_off_early_at_the_plateau_late_and_cold(self):
        hybrid, calls = self._hybrid()
        p = self.P
        assert calls == 1
        assert [label for label, _, _ in hybrid.hand_offs] == ["early", "plateau", "late", "cold"]
        (_, early, _), (_, plateau, _), (_, late, _), (_, cold, _) = hybrid.hand_offs
        assert [at.step for at in (early, plateau, late, cold)] == [max(1, p // 4), p, min(2 * p, self.MAX_STEPS), 0]
        assert plateau.plateau_detected and not early.plateau_detected
        assert hybrid.switched_at == late.step
        k = len(early.steps)
        assert early.steps == plateau.steps[:k] == list(range(p // 4 + 1))
        assert (early.wall_ms, early.sup_errors) == (plateau.wall_ms[:k], plateau.sup_errors[:k])
        assert early.grid_values.tolist() == [0.01 * (p // 4)] * 9  # a copy, not the stream's buffer
        assert cold.grid_values.tolist() == [0.0] * 9 and cold.steps == cold.wall_ms == cold.sup_errors == []

    def test_over_the_cap_a_second_stream_replays_the_early_values(self, monkeypatch):
        kept, kept_calls = self._hybrid()
        monkeypatch.setattr(poisson_mod, "_EARLY_STATES_CAP", 2 * 9 * 8)  # two states fit
        replayed, calls = self._hybrid()
        assert (kept_calls, calls) == (1, 2)
        assert self._fields(replayed) == self._fields(kept)
        assert replayed.switched_at == kept.switched_at


class TestTrainPhase:
    def _phase(self, consumed, **policy):
        rhs = assemble_poisson(Grid1D(n=8), g_rhs)

        def stream():
            for step in range(100):
                consumed.append(step)
                yield np.full(rhs.size + 2, 0.01 * step), 1.0 / (1 + step)

        return rhs, TrainPhase(stream(), thomas_solve(rhs), **policy)

    @staticmethod
    def _columns(at):
        return at.steps, at.wall_ms, at.sup_errors

    def test_resume_equals_one_run_to_the_later_switch(self):
        consumed = []
        _, phase = self._phase(consumed, record_every=2)
        early = phase.run(5)
        late = phase.run(11)
        _, fresh = self._phase([], record_every=2)
        direct = fresh.run(11)
        assert consumed == list(range(12))
        assert (early.step, late.step) == (5, 11)
        assert self._columns(late) == self._columns(direct)
        assert (early.steps, late.steps) == ([0, 2, 4], [0, 2, 4, 6, 8, 10])  # copies, not aliases
        assert all(column[:len(early.steps)] == early_column
                   for column, early_column in zip(self._columns(late), self._columns(early)))
        assert np.array_equal(late.grid_values, direct.grid_values)
        assert np.array_equal(early.grid_values, np.full(9, 0.05))  # a copy, not the stream's latest

    def test_resume_at_or_before_the_stop_consumes_nothing(self):
        consumed = []
        _, phase = self._phase(consumed)
        first = phase.run(7)
        again = phase.run(7)
        assert consumed == list(range(8))
        assert again.step == first.step == 7
        assert self._columns(again) == self._columns(first)

    def test_exhausted_stream_switches_at_its_last_state(self):
        # 7 states, recorded at steps 0 and 5: the hand-off starts from step 6
        rhs = assemble_poisson(Grid1D(n=8), g_rhs)
        reference = thomas_solve(rhs)
        states = [np.full(rhs.size + 2, 0.1 * step) for step in range(7)]
        phase = TrainPhase(((u, 1.0) for u in states), reference, record_every=5)
        at = phase.run()
        assert at.steps == [0, 5]
        assert at.step == 6 and not at.plateau_detected
        assert np.array_equal(at.grid_values, states[6])
        run = hand_off(rhs, reference, at, "jacobi", 200_000, 1e-3)
        assert run.sup_errors[0] == float(np.max(np.abs(states[6][1:-1] - reference[1:-1])))
        # resumed, the exhausted stream yields nothing and switches at the same last state
        for again in (phase.run(), phase.run(10)):
            assert again.step == 6 and np.array_equal(again.grid_values, states[6])

    def test_empty_stream_rejected(self):
        rhs = assemble_poisson(Grid1D(n=8), g_rhs)
        with pytest.raises(ValueError, match="no states"):
            TrainPhase(iter(()), thomas_solve(rhs)).run()
        with pytest.raises(ValueError, match="no states"):
            run_hybrid(rhs, thomas_solve(rhs), lambda: iter(()), 1e-3, "jacobi", 10, 1, 200, 0.01, 200_000)

    def test_switch_step_above_max_steps_stops_at_max_steps(self):
        consumed = []
        _, phase = self._phase(consumed, record_every=3, max_steps=7)
        at = phase.run(50)
        assert consumed == list(range(8))
        assert at.step == 7 and not at.plateau_detected and at.steps == [0, 3, 6]
        assert phase.run(60).step == 7 and consumed == list(range(8))

    @pytest.mark.parametrize("policy", [dict(plateau_window=1), dict(plateau_window=0),
                                        dict(plateau_tol=0.0), dict(plateau_tol=-0.01),
                                        dict(plateau_tol=float("nan")), dict(plateau_tol=float("inf"))])
    def test_bad_plateau_policy_rejected(self, policy):
        with pytest.raises(ValueError, match="plateau"):
            self._phase([], **policy)

    def test_state_of_the_wrong_shape_rejected(self):
        reference = thomas_solve(assemble_poisson(Grid1D(n=8), g_rhs))
        with pytest.raises(ValueError, match=r"expected \(9,\)"):
            TrainPhase(iter([(np.zeros(8), 1.0)]), reference).run()

    @pytest.mark.parametrize("record_every", [0, -1])
    def test_record_every_below_one_rejected(self, record_every):
        with pytest.raises(ValueError, match="record_every"):
            self._phase([], record_every=record_every)


class TestPlateauReached:
    @pytest.mark.parametrize("losses,reached", [
        ([0.0, 0.0, 0.0, 0.0], True),
        ([0.0, 0.0, 5e-324, 5e-324], False),  # the smallest subnormal after an exact zero
        ([1.0, float("nan"), 1.0, 1.0], False),
        ([1.0, 1.0, float("nan"), 1.0], False),
    ], ids=["zeros", "zero-then-subnormal", "nan-before", "nan-now"])
    def test_exact_zero_and_nan_windows(self, losses, reached):
        assert poisson_mod._plateau_reached(losses, 2, 0.01) is reached
