"""Acceptance suite: one test per release criterion, each printing a PASS line
(run with `pytest tests/test_acceptance.py -v -s` to watch them).

Stochastic criteria (the three training experiments) run the shipped desk
presets over seeds 0..2 and require the stated majorities; everything else is
deterministic at fixed tolerances. Each test also enforces its runtime budget.
"""

import cmath
import math
import time

import numpy as np

from freqlab.config import preset_config
from freqlab.data import leading_eigenvector
from freqlab.experiments import run_single
from freqlab.losses import (
    cross_entropy_loss,
    discrete_energy_minimizer,
    energy_loss,
    mse_loss,
)
from freqlab.nn import backprop, forward, grad_check, init_mlp
from freqlab.poisson import (
    Grid1D,
    assemble_poisson,
    g_rhs,
    halving_count,
    halving_ratio,
    iterate,
    jacobi_eigen,
    residual_inf,
    sine_mode,
    thomas_solve,
)
from freqlab.spectral import dft_uniform, grad_decomposition, nufft_direct


def _report(num: int, text: str):
    print(f"[criterion {num:02d}] PASS  {text}", flush=True)


def _budget(num: int, t0: float, limit: float):
    elapsed = time.perf_counter() - t0
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s, budget {limit}s"
    return elapsed


def test_criterion_01_jacobi_eigen_identity():
    t0 = time.perf_counter()
    n = 64
    rhs = assemble_poisson(Grid1D(n=n), g_rhs)
    ref = thomas_solve(rhs)
    rng = np.random.default_rng(20240)
    e0 = rng.standard_normal(n - 1)
    run = iterate(rhs, ref[1:-1] + e0, ref[1:-1], method="jacobi",
                  max_iters=200, track_modes=range(1, n))
    lam = np.array([abs(jacobi_eigen(n, k)) for k in range(1, n)])
    alphas = np.abs([run.alphas[k] for k in range(1, n)])  # (modes, iterations + 1)
    a0 = alphas[:, 0]
    worst = 0.0
    for it in range(run.iterations + 1):
        actual = alphas[:, it]
        predicted = lam ** it * a0
        assert np.all(np.abs(actual - predicted) <= 1e-8 * predicted + 1e-13), \
            f"iteration {it}"
        worst = max(worst, float(np.max(np.abs(actual - predicted))))
    elapsed = _budget(1, t0, 1.0)
    _report(1, f"|alpha_k^l| follows lambda_k^l for l<=200, worst abs dev {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_02_jacobi_frequency_ordering():
    t0 = time.perf_counter()
    n = 64
    ratios = [halving_ratio(n, k) for k in range(1, n // 2 + 1)]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), \
        "halving ratios must strictly decrease with frequency"
    rhs = assemble_poisson(Grid1D(n=n), g_rhs)
    ref = thomas_solve(rhs)
    e0 = sum(sine_mode(n, k) for k in range(1, n))
    run = iterate(rhs, ref[1:-1] + e0, ref[1:-1], method="jacobi",
                  max_iters=600, track_modes=range(1, n // 2 + 1))
    for k in range(1, n // 2 + 1):
        assert run.halving_iteration(k) == halving_count(n, k), f"mode {k}"
    elapsed = _budget(2, t0, 1.0)
    _report(2, f"halving ratios strictly decreasing, empirical counts == ceil closed form "
               f"(count_1={halving_count(n, 1)}, count_32={halving_count(n, 32)}) ({elapsed:.2f}s)")


def test_criterion_03_direct_solver():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (4, 64, 1024):
        grid = Grid1D(n=n)
        rhs = assemble_poisson(grid, g_rhs)
        res = residual_inf(rhs, thomas_solve(rhs)[1:-1])
        g_scale = float(np.max(np.abs(g_rhs(grid.points[1:-1]))))
        assert res <= 1e-12 * g_scale, f"n={n}"
        worst = max(worst, res / g_scale)
    hand = thomas_solve(assemble_poisson(Grid1D(n=4), lambda x: np.ones_like(x)))
    assert np.max(np.abs(hand[1:-1] - np.array([0.375, 0.5, 0.375]))) <= 1e-14
    elapsed = _budget(3, t0, 1.0)
    _report(3, f"residual <= 1e-12*max|g| for n in (4, 64, 1024), worst ratio {worst:.2e}; "
               f"n=4 hand case exact ({elapsed:.2f}s)")


def test_criterion_04_gradient_decomposition_identity():
    t0 = time.perf_counter()
    n = 32
    xs = (-1.0 + 2.0 * np.arange(n) / n).reshape(-1, 1)
    net = init_mlp([1, 16, 1], "tanh", "identity", std=0.5, seed=11)
    target = np.sin(2 * math.pi * 2 * np.arange(n) / n).reshape(-1, 1) * 0.4 + 0.5

    def mse_pointwise(outputs):
        return 2.0 * (outputs - target)

    def ce_pointwise(outputs):
        eps = 1e-12
        y = (target > 0.5).astype(float)
        pc = np.clip(outputs, eps, 1.0)
        qc = np.clip(1.0 - outputs, eps, 1.0)
        grads = np.where((outputs > eps) & (outputs < 1.0), -y / pc, 0.0)
        grads += np.where((1.0 - outputs > eps) & (outputs > 0.0), (1.0 - y) / qc, 0.0)
        return grads

    residuals = {}
    for name, pointwise in (("mse", mse_pointwise), ("cross_entropy", ce_pointwise)):
        dec = grad_decomposition(net, xs, pointwise)
        assert np.linalg.norm(dec.direct_grad) > 1e-8, "degenerate test setup"
        assert dec.real_residual < 1e-8, name
        assert dec.imag_residual < 1e-8, name
        residuals[name] = (dec.real_residual, dec.imag_residual)
    elapsed = _budget(4, t0, 5.0)
    _report(4, "mode-sum identity on [1,16,1] tanh net, 32 samples: " +
            ", ".join(f"{k} re={v[0]:.1e} im={v[1]:.1e}" for k, v in residuals.items()) +
            f" ({elapsed:.2f}s)")


def test_criterion_05_backprop_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    cases = []
    for hidden_act in ("tanh", "relu"):
        for depth in (1, 2, 3, 4):
            widths = [2] + [int(rng.integers(4, 10)) for _ in range(depth)]
            xs = rng.uniform(-1, 1, size=(10, 2))
            for loss_name in ("mse", "cross_entropy", "energy"):
                if loss_name == "energy":
                    grid = Grid1D(n=12)
                    net = init_mlp([1] + widths[1:] + [1], hidden_act, "identity",
                                   std=0.4, seed=int(rng.integers(1 << 30)))
                    gx = grid.points.reshape(-1, 1)
                    gvals = g_rhs(grid.points)

                    def loss_fn(m):
                        out, cache = forward(m, gx)
                        lv = energy_loss(out[:, 0], gvals, grid, 10.0)
                        return lv.value, backprop(m, cache, lv.grad.reshape(-1, 1))
                elif loss_name == "mse":
                    net = init_mlp(widths + [3], hidden_act, "identity",
                                   std=0.4, seed=int(rng.integers(1 << 30)))
                    target = rng.standard_normal((10, 3))

                    def loss_fn(m, xs=xs, target=target):
                        out, cache = forward(m, xs)
                        lv = mse_loss(out, target)
                        return lv.value, backprop(m, cache, lv.grad)
                else:
                    net = init_mlp(widths + [3], hidden_act, "softmax",
                                   std=0.4, seed=int(rng.integers(1 << 30)))
                    onehot = np.zeros((10, 3))
                    onehot[np.arange(10), rng.integers(0, 3, 10)] = 1.0

                    def loss_fn(m, xs=xs, onehot=onehot):
                        out, cache = forward(m, xs)
                        lv = cross_entropy_loss(out, onehot)
                        return lv.value, backprop(m, cache, lv.grad)

                err = grad_check(net, loss_fn, fd_step=1e-6, num_checks=40, seed=depth)
                assert err < 1e-5, f"{hidden_act}/{loss_name}/depth{depth}: {err:.2e}"
                worst = max(worst, err)
                cases.append(f"{hidden_act}/{loss_name}/d{depth}")
    elapsed = _budget(5, t0, 10.0)
    _report(5, f"grad_check < 1e-5 on {len(cases)} net/loss cases, worst {worst:.1e} ({elapsed:.1f}s)")


def test_criterion_06_energy_method_consistency():
    t0 = time.perf_counter()
    grid = Grid1D(n=64)
    ref = thomas_solve(assemble_poisson(grid, g_rhs))
    g = g_rhs(grid.points)
    dists = []
    for beta in (10.0, 100.0, 1000.0):
        u = discrete_energy_minimizer(g, grid, beta)
        dists.append(float(np.max(np.abs(u - ref))))
    assert dists[0] > dists[1] > dists[2], f"distances not strictly decreasing: {dists}"
    assert dists[2] <= dists[0] / 5.0, f"beta=1000 not below beta=10 by 5x: {dists}"
    elapsed = _budget(6, t0, 1.0)
    _report(6, "energy minimizer sup-distance to u*: " +
            " > ".join(f"{d:.2e}" for d in dists) + f", ratio {dists[0] / dists[2]:.0f}x ({elapsed:.2f}s)")


def _ordered(first_passage: dict) -> bool:
    steps = [math.inf if first_passage[g] is None else first_passage[g]
             for g in sorted(first_passage)]
    return all(a <= b for a, b in zip(steps, steps[1:]))


def test_criterion_07_fprinciple_toy_cross_entropy(tmp_path):
    t0 = time.perf_counter()
    cfg = preset_config("desk-toy-ce")
    ordered = 0
    passages = []
    for seed in (0, 1, 2):
        report = run_single(cfg, seed, tmp_path / f"seed{seed}")
        fp = report.metrics["first_passage"]
        passages.append(fp)
        ordered += _ordered(fp)
    assert ordered >= 2, f"only {ordered}/3 seeds ordered: {passages}"
    elapsed = _budget(7, t0, 300.0)
    _report(7, f"first-passage steps non-decreasing in frequency for {ordered}/3 seeds, "
               f"e.g. {passages[0]} ({elapsed:.0f}s)")


def test_criterion_08_fprinciple_poisson_dnn(tmp_path):
    t0 = time.perf_counter()
    cfg = preset_config("desk-poisson-dnn")
    good = 0
    detail = []
    for seed in (0, 1, 2):
        report = run_single(cfg, seed, tmp_path / f"seed{seed}")
        fp = report.metrics["first_passage"]
        peaks = report.metrics["peaks"]
        low, high = fp[peaks[0]], fp[peaks[-1]]
        low_first = low is not None and (high is None or low < high)
        accurate = report.metrics["rel_sup_error"] <= 0.1
        good += low_first and accurate
        detail.append((low, high, round(report.metrics["rel_sup_error"], 3)))
    assert good >= 2, f"only {good}/3 seeds pass: {detail}"
    elapsed = _budget(8, t0, 600.0)
    _report(8, f"lowest peak converges first and final sup error <= 0.1*||u*|| "
               f"for {good}/3 seeds {detail} ({elapsed:.0f}s)")


def test_criterion_09_d_jacobi_benefit(tmp_path):
    t0 = time.perf_counter()
    cfg = preset_config("desk-d-jacobi")
    good = 0
    detail = []
    for seed in (0, 1, 2):
        report = run_single(cfg, seed, tmp_path / f"seed{seed}")
        post = report.metrics["post_iterations"]
        cold = report.metrics["cold_iterations"]
        ok = (report.metrics["plateau_detected"]
              and post["plateau"] < cold
              and post["early"] > post["plateau"])
        good += ok
        detail.append({"plateau": post["plateau"], "early": post["early"], "cold": cold})
    assert good >= 2, f"only {good}/3 seeds pass: {detail}"
    elapsed = _budget(9, t0, 900.0)
    _report(9, f"plateau warm start beats cold start and too-early switch costs more "
               f"for {good}/3 seeds {detail} ({elapsed:.0f}s)")


def test_criterion_10_nufft_dft_agreement():
    t0 = time.perf_counter()
    rng = np.random.default_rng(99)
    worst_uniform = 0.0
    for n in (8, 64, 256):
        v = rng.standard_normal(n)
        a = nufft_direct(np.arange(n) / n, v, n)
        b = dft_uniform(v)
        diff = float(np.max(np.abs(a - b)))
        assert diff <= 1e-10, f"N={n}: {diff:.2e}"
        worst_uniform = max(worst_uniform, diff)
    worst_oracle = 0.0
    for _ in range(5):
        points = rng.uniform(0, 1, 30)
        values = rng.standard_normal(30)
        got = nufft_direct(points, values, 12)
        oracle = np.array([sum(v * cmath.exp(-2j * math.pi * x * k)
                               for x, v in zip(points, values)) for k in range(12)])
        diff = float(np.max(np.abs(got - oracle)))
        assert diff <= 1e-10
        worst_oracle = max(worst_oracle, diff)
    elapsed = _budget(10, t0, 1.0)
    _report(10, f"uniform-node agreement worst {worst_uniform:.1e}, "
                f"oracle agreement worst {worst_oracle:.1e} ({elapsed:.2f}s)")


def test_criterion_11_pca_and_pipeline(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 1.0
    for trial in range(5):
        X = rng.standard_normal((20, 100))
        v = leading_eigenvector(X, seed=trial)
        w, V = np.linalg.eigh(X @ X.T)
        cos = abs(v @ V[:, -1])
        assert cos > 1 - 1e-8, f"trial {trial}: cos {cos}"
        worst = min(worst, cos)
    report = run_single(preset_config("desk-mnist-pca"), 0, tmp_path)
    for name in ("projected.csv", "trace.csv", "first_passage.csv"):
        assert (tmp_path / name).exists(), name
    elapsed = _budget(11, t0, 30.0)
    _report(11, f"power iteration vs dense eigensolver worst |cos| = 1-{1 - worst:.1e}; "
                f"synthetic pipeline emitted all CSVs ({elapsed:.0f}s)")


def test_criterion_12_reproducibility(tmp_path):
    t0 = time.perf_counter()
    compared = 0
    for preset in ("desk-toy-ce", "desk-mnist-pca"):
        cfg = preset_config(preset)
        a = run_single(cfg, 0, tmp_path / preset / "a")
        b = run_single(cfg, 0, tmp_path / preset / "b")
        names = sorted(p.name for p in (tmp_path / preset / "a").glob("*.csv"))
        assert names, preset
        for name in names:
            left = (tmp_path / preset / "a" / name).read_bytes()
            right = (tmp_path / preset / "b" / name).read_bytes()
            assert left == right, f"{preset}/{name} differs between identical runs"
            compared += 1
    _report(12, f"byte-identical CSVs across repeated runs ({compared} files compared, "
                f"{time.perf_counter() - t0:.0f}s)")
