"""End-to-end experiment runners: step-function classification, the PCA-reduced
image task, the energy-trained Poisson network, the warm-started iterative
solves, and the per-mode gradient diagnostic.

Every runner is a function (cfg, seed, out_dir) -> metrics dict and a pure
function of (config, seed): it trains with the seeded network and shuffle
streams, records frequency-domain convergence at a fixed cadence, writes its
CSV (and, with cfg.svg, SVG) files into out_dir through the module-level
write_csv/write_svg_lines, and returns the metrics the CLI prints. run_single
owns the run directory: it validates the config, creates the directory, calls
the runner and, once the runner has returned, writes the resolved-config
snapshot config.txt that re-runs the run verbatim; a run that raises leaves no
snapshot. Every training step is one _evaluate (forward, loss, divergence
rule); the full-batch runners share one descent loop, _descent, and record
from the outputs it has already computed. Histories are columns: a FreqTrace,
an IterativeRun and a SwitchPoint's phase-one record each hold one list per
column, and the CSV rows are zipped from them. Wall-clock columns come from
reporting.stopwatch and are all zero unless timing is enabled, so that
identical (config, seed) pairs produce byte-identical files.

The runners reach the other modules' functions (forward, iterate, write_csv,
...) through this module's globals, imported by name, and run_hybrid stays
imported: perfbench/tracer.py wraps those names here to time each layer.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NoReturn

import numpy as np

from . import data as datamod
from .config import ExperimentConfig, config_to_text, validate
from .errors import ConfigError, DivergenceError
from .losses import EnergyLossConfig, LossValueGrad, cross_entropy_loss, energy_loss, mse_loss
from .nn import (ForwardCache, InitSpec, LrSchedule, Mlp, backprop, forward, init_mlp, lr_at,
                 params_to_vector, sgd_step)
from .poisson import (
    Grid1D,
    IterativeRun,
    SwitchPoint,
    TrainPhase,
    assemble_poisson,
    g_rhs,
    hand_off,
    iterate,
    run_hybrid,  # unused here; see the module docstring
    thomas_solve,
)
from .reporting import stopwatch, write_atomic, write_csv, write_svg_lines
from .spectral import (
    FreqTrace,
    Spectrum,
    dft_uniform,
    grad_decomposition,
    nufft_direct,
    pick_peaks,
    rel_freq_diff,
    step_to_threshold,
)

__all__ = ["RunReport", "target_toy", "run_experiment", "run_single"]


@dataclass
class RunReport:
    config: ExperimentConfig
    seed: int
    out_dir: Path
    metrics: dict


def target_toy(x) -> np.ndarray:
    """Two-class step targets on [-1, 1]: (1{x >= 0}, 1{x <= 0}).

    Both components are 1 exactly at x = 0; the classes overlap there by
    construction.
    """
    x = np.asarray(x, dtype=float)
    return np.stack([(x >= 0.0).astype(float), (x <= 0.0).astype(float)], axis=-1)


def _init_spec(cfg: ExperimentConfig, seed: int) -> InitSpec:
    return InitSpec(std=cfg.init_std, mean=cfg.init_mean, seed=seed)


def _snapshot(cfg: ExperimentConfig, seed: int, out_dir: Path) -> Path:
    """Write the resolved single-seed config; re-running it reproduces this run."""
    return write_atomic(out_dir / "config.txt", config_to_text(dataclasses.replace(cfg, seed=seed, seeds=1)))


def _df_row(model: Spectrum, target: Spectrum, peaks, denominator: str) -> dict[int, float]:
    return {g: rel_freq_diff(model, target, g, denominator=denominator) for g in peaks}


def _first_passage(trace: FreqTrace, tau: float) -> dict[int, int | None]:
    return {g: step_to_threshold(trace, g, tau) for g in trace.selected_peaks}


def _emit_trace(cfg: ExperimentConfig, out_dir: Path, trace: FreqTrace, title: str) -> dict:
    """Write trace.csv, first_passage.csv and (with cfg.svg) trace.svg; return
    the final_loss and peaks metrics."""
    write_csv(out_dir / "trace.csv", trace.header(), trace.table())
    write_csv(out_dir / "first_passage.csv", ["gamma", "first_step"],
              list(_first_passage(trace, cfg.first_passage_tau).items()))
    if cfg.svg:
        series = [(f"gamma={g}", trace.steps, trace.df[g]) for g in trace.selected_peaks]
        write_svg_lines(out_dir / "trace.svg", series, title=title,
                        xlabel="recording step", ylabel="relative difference")
    return {"final_loss": trace.losses[-1], "peaks": list(trace.selected_peaks)}


def _raise_divergence(net: Mlp, epoch: int, err: ValueError) -> NoReturn:
    """Report err as a divergence if the parameters have gone non-finite
    (softmax rejects the NaN logits they produce); re-raise it otherwise."""
    if np.all(np.isfinite(params_to_vector(net))):
        raise err
    raise DivergenceError(epoch, f"training diverged at epoch {epoch}: {err}") from err


def _last_recorded_epoch(cfg: ExperimentConfig) -> int:
    """The last epoch the full-batch runners record; no output reads the updates after it."""
    return cfg.epochs - cfg.epochs % cfg.record_every


def _evaluate(net: Mlp, xs: np.ndarray, loss_of: Callable[[np.ndarray], LossValueGrad],
              epoch: int) -> tuple[np.ndarray, ForwardCache, LossValueGrad]:
    """(outputs, cache, loss) of net on xs. A non-finite loss raises DivergenceError
    for epoch, and so does a ValueError once the parameters are non-finite."""
    try:
        out, cache = forward(net, xs)
        lv = loss_of(out)
    except ValueError as e:
        _raise_divergence(net, epoch, e)
    if not np.isfinite(lv.value):
        raise DivergenceError(epoch, f"loss diverged at epoch {epoch}")
    return out, cache, lv


def _descent(net: Mlp, xs: np.ndarray, loss_of: Callable[[np.ndarray], LossValueGrad],
             schedule: LrSchedule) -> Iterator[tuple[int, np.ndarray, float]]:
    """Full-batch gradient descent of loss_of(network outputs on xs).

    Yields (epoch, outputs, loss) before each epoch's update, starting with the
    untrained network at epoch 0, for as long as the caller keeps iterating.
    Each step is one _evaluate, so a divergence is raised instead of yielded.
    """
    for epoch in itertools.count():
        out, cache, lv = _evaluate(net, xs, loss_of, epoch)
        yield epoch, out, lv.value
        sgd_step(net, backprop(net, cache, lv.grad.reshape(out.shape)), lr_at(schedule, epoch))


# ---------------------------------------------------------------------------
# step-function cross-entropy experiment


def run_toy_ce(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    elapsed = stopwatch(cfg.timing)

    xs = np.linspace(-1.0, 1.0, cfg.samples).reshape(-1, 1)
    targets = target_toy(xs[:, 0])
    target_spec = dft_uniform(targets[:, 0])
    peaks = pick_peaks(target_spec, cfg.peak_max_count, cfg.peak_min_rel_amplitude)

    net = init_mlp([1, *cfg.hidden_widths, 2], cfg.activation, "softmax", _init_spec(cfg, seed))
    trace = FreqTrace(tuple(peaks))
    last = _last_recorded_epoch(cfg)
    for epoch, probs, loss in _descent(net, xs, lambda out: cross_entropy_loss(out, targets),
                                       LrSchedule(cfg.lr, cfg.lr_halve_every)):
        if epoch % cfg.record_every == 0:
            model_spec = dft_uniform(probs[:, 0])
            trace.append(epoch // cfg.record_every, epoch, elapsed(), loss,
                         _df_row(model_spec, target_spec, peaks, cfg.df_denominator))
        if epoch == last:
            break

    return {**_emit_trace(cfg, out_dir, trace, "step-target cross entropy"),
            "first_passage": _first_passage(trace, cfg.first_passage_tau)}


# ---------------------------------------------------------------------------
# PCA-reduced image classification experiment


def _load_images(cfg: ExperimentConfig, seed: int) -> datamod.ImageSet:
    if cfg.mnist_images and cfg.mnist_labels:
        images = datamod.load_image_set(cfg.mnist_images, cfg.mnist_labels)
        if cfg.samples and cfg.samples < images.num_samples:
            images = datamod.ImageSet(images.images[:, : cfg.samples], images.labels[: cfg.samples])
        return images
    if cfg.synthetic:
        return datamod.synthetic_image_set(cfg.samples, seed=seed)
    raise ConfigError("no dataset: give mnist_images/mnist_labels or set synthetic")


def run_mnist_pca(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    elapsed = stopwatch(cfg.timing)

    images = _load_images(cfg, seed)
    proj = datamod.pca_project(images, seed=seed)
    coords = proj.coords
    onehot = images.onehot().T                      # (n, 10)
    X = images.images.T                             # (n, pixels)

    target_spec = nufft_direct(coords, onehot[:, 0], cfg.nufft_freqs)
    peaks = pick_peaks(target_spec, cfg.peak_max_count, cfg.peak_min_rel_amplitude)

    net = init_mlp([X.shape[1], *cfg.hidden_widths, 10], cfg.activation, "softmax",
                   _init_spec(cfg, seed))
    schedule = LrSchedule(cfg.lr, cfg.lr_halve_every)
    shuffle_rng = np.random.Generator(np.random.PCG64([seed, 1]))
    trace = FreqTrace(tuple(peaks))

    def record(step: int, epoch: int):
        probs, _, lv = _evaluate(net, X, lambda out: cross_entropy_loss(out, onehot), epoch)
        model_spec = nufft_direct(coords, probs[:, 0], cfg.nufft_freqs)
        trace.append(step, epoch, elapsed(), lv.value,
                     _df_row(model_spec, target_spec, peaks, cfg.df_denominator))

    n = X.shape[0]
    batch = cfg.batch_size if cfg.batch_size > 0 else n
    record(0, 0)
    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(n)
        lr = lr_at(schedule, epoch)
        for lo in range(0, n, batch):
            sel = order[lo:lo + batch]
            _, cache, lv = _evaluate(net, X[sel], lambda out: cross_entropy_loss(out, onehot[sel]), epoch)
            sgd_step(net, backprop(net, cache, lv.grad), lr)
        if (epoch + 1) % cfg.record_every == 0:
            record((epoch + 1) // cfg.record_every, epoch + 1)

    projected_rows = [[coords[i], int(images.labels[i])] + list(onehot[i]) for i in range(n)]
    write_csv(out_dir / "projected.csv", ["x", "label"] + [f"y{j}" for j in range(10)], projected_rows)
    return _emit_trace(cfg, out_dir, trace, "image-task cross entropy, first output dimension")


# ---------------------------------------------------------------------------
# Poisson experiments


def _poisson_setup(cfg: ExperimentConfig):
    grid = Grid1D(n=cfg.grid_n)
    system = assemble_poisson(grid, g_rhs)
    ref = thomas_solve(system)
    return grid, system, ref


def _tracked_modes(peaks, n: int) -> tuple[int, ...]:
    """Sine-mode indexes nearest the spectral peaks (mode k has index k/2)."""
    ks = sorted({min(n - 1, max(1, 2 * g)) for g in peaks})
    return tuple(ks)


def run_poisson_direct(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    grid, system, ref = _poisson_setup(cfg)
    spec = dft_uniform(ref.full)
    peaks = pick_peaks(spec, cfg.peak_max_count, cfg.peak_min_rel_amplitude)
    write_csv(out_dir / "solution.csv", ["x", "u_star"], [[x, u] for x, u in zip(grid.points, ref.full)])
    half = len(spec) // 2
    write_csv(out_dir / "spectrum.csv", ["gamma", "amplitude", "is_peak"],
              [[g, float(abs(spec.coefficients[g])), int(g in peaks)] for g in range(half + 1)])
    return {"residual_inf": ref.residual_inf, "peaks": list(peaks),
            "sup_u_star": float(np.max(np.abs(ref.full)))}


def run_poisson_jacobi(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    _, system, ref = _poisson_setup(cfg)
    peaks = pick_peaks(dft_uniform(ref.full), cfg.peak_max_count, cfg.peak_min_rel_amplitude)
    modes = _tracked_modes(peaks, cfg.grid_n)
    tol = cfg.iter_tol_rel * float(np.max(np.abs(ref.u_star)))
    run = iterate(system, np.zeros(system.size), ref.u_star, method=cfg.hybrid_method,
                  max_iters=cfg.max_iters, track_modes=modes, tol=tol, timing=cfg.timing)
    its = range(run.iterations + 1)
    write_csv(out_dir / "iters.csv", ["iter", "wall_ms", "sup_error"] + [f"alpha_{k}" for k in run.alphas],
              zip(its, run.wall_ms, run.sup_errors, *run.alphas.values()))
    if cfg.svg:
        series = [("sup_error", its, run.sup_errors)]
        series += [(f"|alpha_{k}|", its, [abs(a) for a in trace]) for k, trace in run.alphas.items()]
        write_svg_lines(out_dir / "iters.svg", series, title=f"{cfg.hybrid_method} iteration",
                        xlabel="iteration", ylabel="sup error / |alpha|")
    return {"iterations": run.iterations, "final_sup_error": run.sup_errors[-1],
            "tracked_modes": list(modes)}


def _energy_descent(cfg: ExperimentConfig, seed: int, grid: Grid1D,
                    gvals: np.ndarray) -> Iterator[tuple[int, np.ndarray, float]]:
    """_descent of a fresh seeded network on the discrete energy over the grid."""
    ecfg = EnergyLossConfig(beta=cfg.beta, grid=grid)
    net = init_mlp([1, *cfg.hidden_widths, 1], cfg.activation, "identity", _init_spec(cfg, seed))
    return _descent(net, grid.points.reshape(-1, 1), lambda out: energy_loss(out[:, 0], gvals, ecfg),
                    LrSchedule(cfg.lr, cfg.lr_halve_every))


def run_poisson_dnn(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    elapsed = stopwatch(cfg.timing)

    grid, system, ref = _poisson_setup(cfg)
    target_spec = dft_uniform(ref.full)
    peaks = pick_peaks(target_spec, cfg.peak_max_count, cfg.peak_min_rel_amplitude)

    trace = FreqTrace(tuple(peaks))
    sup_rows: list[list] = []
    last = _last_recorded_epoch(cfg)
    # a finite energy implies finite grid values: each u_i enters a squared term
    for epoch, out, loss in _energy_descent(cfg, seed, grid, g_rhs(grid.points)):
        if epoch % cfg.record_every == 0:
            step = epoch // cfg.record_every
            u_pred = out[:, 0]
            model_spec = dft_uniform(u_pred)
            trace.append(step, epoch, elapsed(), loss,
                         _df_row(model_spec, target_spec, peaks, cfg.df_denominator))
            sup_rows.append([step, epoch, float(np.max(np.abs(u_pred - ref.full)))])
        if epoch == last:
            break

    metrics = _emit_trace(cfg, out_dir, trace, "energy-trained network vs direct solution")
    write_csv(out_dir / "sup_error.csv", ["step", "epoch", "sup_error"], sup_rows)
    write_csv(out_dir / "solution.csv", ["x", "u_dnn", "u_star"],
              [[x, up, us] for x, up, us in zip(grid.points, u_pred, ref.full)])
    final_sup = sup_rows[-1][2]
    return {**metrics, "final_sup_error": final_sup,
            "rel_sup_error": final_sup / float(np.max(np.abs(ref.full))),
            "first_passage": _first_passage(trace, cfg.first_passage_tau)}


# ---------------------------------------------------------------------------
# warm-started iterative solves


def _energy_training_stream(cfg: ExperimentConfig, seed: int, grid: Grid1D,
                            gvals: np.ndarray) -> Iterator[tuple[np.ndarray, float]]:
    """Yield (full-grid network values, loss) per step; step 0 is untrained.

    Deterministic in seed, so separate streams replay the same trajectory.
    """
    return ((out[:, 0], loss) for _, out, loss in _energy_descent(cfg, seed, grid, gvals))


def _hybrid_rows(run: IterativeRun, method: str, at: SwitchPoint | None = None) -> list[list]:
    """Rows of a hybrid_*.csv: the phase-one columns of at, if given, then the
    iterative solve, its wall clock carried on from the last recorded step."""
    rows, base_wall = [], 0.0
    if at is not None:
        rows = [["dnn", *row] for row in zip(at.steps, at.wall_ms, at.sup_errors)]
        base_wall = at.wall_ms[-1]
    return rows + [[method, i, base_wall + wall, sup]
                   for i, (wall, sup) in enumerate(zip(run.wall_ms, run.sup_errors))]


_HYBRID_HEADER = ["phase", "step_or_iter", "cum_wall_ms", "sup_error"]


def run_d_jacobi(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    """Hand the energy-trained network's grid values to cfg.hybrid_method at the
    plateau step p, early at max(1, p // 4) and late at min(2p, epochs), and
    compare each with a cold start from zero.

    One training stream runs to p and then on to the late switch; a second
    stream replays only the prefix up to the early switch. That is
    2p + max(1, p // 4) + 2 training steps instead of three replays from step
    0, with the same files. All training finishes before the first hand-off.
    """
    grid, system, ref = _poisson_setup(cfg)
    gvals = g_rhs(grid.points)
    tol = cfg.iter_tol_rel * float(np.max(np.abs(ref.u_star)))

    def train_phase() -> TrainPhase:
        return TrainPhase(system, _energy_training_stream(cfg, seed, grid, gvals), ref, cfg.record_every,
                          cfg.plateau_window, cfg.plateau_tol, cfg.epochs, cfg.timing)

    stream = train_phase()
    at_plateau = stream.run()
    plateau_step = at_plateau.step
    at_late = stream.run(min(2 * plateau_step, cfg.epochs))
    at_early = train_phase().run(max(1, plateau_step // 4))
    labelled = [(label, at, hand_off(system, ref, at, cfg.hybrid_method, cfg.max_iters, tol, cfg.timing))
                for label, at in (("early", at_early), ("plateau", at_plateau), ("late", at_late))]
    cold = iterate(system, np.zeros(system.size), ref.u_star, method=cfg.hybrid_method,
                   max_iters=cfg.max_iters, tol=tol, timing=cfg.timing)

    for label, at, run in labelled:
        write_csv(out_dir / f"hybrid_{label}.csv", _HYBRID_HEADER, _hybrid_rows(run, cfg.hybrid_method, at))
    write_csv(out_dir / "baseline.csv", _HYBRID_HEADER, _hybrid_rows(cold, cfg.hybrid_method))
    summary = [[label, at.step, run.sup_errors[0], run.iterations] for label, at, run in labelled]
    summary.append(["cold", 0, cold.sup_errors[0], cold.iterations])
    write_csv(out_dir / "summary.csv", ["label", "switch_step", "sup_error_at_switch", "post_iterations"],
              summary)
    if cfg.svg:
        runs = [(label, run) for label, _, run in labelled] + [("cold", cold)]
        series = [(label, range(run.iterations + 1), run.sup_errors) for label, run in runs]
        write_svg_lines(out_dir / "hybrid.svg", series, title="warm vs cold iterative solve",
                        xlabel="post-switch iteration", ylabel="sup error")
    return {
        "plateau_step": plateau_step,
        "plateau_detected": at_plateau.plateau_detected,
        "post_iterations": {label: run.iterations for label, _, run in labelled},
        "cold_iterations": cold.iterations,
        "sup_at_switch": {label: run.sup_errors[0] for label, _, run in labelled},
    }


# ---------------------------------------------------------------------------
# gradient decomposition diagnostic


def run_diagnose_grad(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    n = cfg.samples
    xs = (-1.0 + 2.0 * np.arange(n) / n).reshape(-1, 1)
    if cfg.diag_loss == "mse":
        net = init_mlp([1, *cfg.hidden_widths, 1], cfg.activation, "identity", _init_spec(cfg, seed))
        target = target_toy(xs[:, 0])[:, :1]

        def pointwise(outputs):
            return mse_loss(outputs, target).grad
    else:
        net = init_mlp([1, *cfg.hidden_widths, 2], cfg.activation, "softmax", _init_spec(cfg, seed))
        target = target_toy(xs[:, 0])

        def pointwise(outputs):
            return cross_entropy_loss(outputs, target).grad

    dec = grad_decomposition(net, xs, pointwise, output_dim=0)
    mags = dec.mode_magnitudes()
    write_csv(out_dir / "decomposition.csv", ["gamma", "abs_d", "mode_term_norm"],
              [[k, float(abs(dec.d_k[k])), float(mags[k])] for k in range(n)])
    return {"real_residual": dec.real_residual, "imag_residual": dec.imag_residual}


# ---------------------------------------------------------------------------
# dispatch


_RUNNERS = {
    "toy_ce": run_toy_ce,
    "mnist_pca": run_mnist_pca,
    "poisson_direct": run_poisson_direct,
    "poisson_jacobi": run_poisson_jacobi,
    "poisson_dnn": run_poisson_dnn,
    "d_jacobi": run_d_jacobi,
    "diagnose_grad": run_diagnose_grad,
}


def run_single(cfg: ExperimentConfig, seed: int, out_dir: str | Path) -> RunReport:
    """Run one experiment instance for one seed, writing into out_dir; the
    config snapshot is written only once the runner has returned."""
    validate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = _RUNNERS[cfg.experiment](cfg, seed, out)
    _snapshot(cfg, seed, out)
    return RunReport(cfg, seed, out, metrics)


def run_experiment(cfg: ExperimentConfig) -> list[RunReport]:
    """Run cfg.seeds instances with seeds seed, seed+1, ...

    A single seed writes directly into out_dir; multiple seeds get their own
    seed<N> subdirectories.
    """
    validate(cfg)
    reports = []
    for i in range(cfg.seeds):
        seed = cfg.seed + i
        out = Path(cfg.out_dir) if cfg.seeds == 1 else Path(cfg.out_dir) / f"seed{seed}"
        reports.append(run_single(cfg, seed, out))
    return reports
