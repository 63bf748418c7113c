"""End-to-end experiment runners: step-function classification, the PCA-reduced
image task, the energy-trained Poisson network, the warm-started iterative
solves, and the per-mode gradient diagnostic.

Every runner is a function (cfg, seed, out_dir) -> metrics dict and a pure
function of (config, seed): it trains with the seeded network and shuffle
streams, records frequency-domain convergence at a fixed cadence, writes its
CSV (and, with cfg.svg, SVG) files into out_dir through the module-level
write_csv/write_svg_lines, and returns the metrics the CLI prints. run_single
owns the run directory: it validates the config, creates the directory, drops
an earlier run's config.txt, calls the runner and, once it has returned, writes
the resolved-config snapshot config.txt that re-runs the run verbatim; a run
that raises leaves no snapshot. Every trained runner goes through one descent
loop, _descent, over epochs of (inputs, loss_of) batches, loss_of returning a
(value, gradient) pair; each step is one _evaluate (forward, loss, and the one
divergence rule: a non-finite loss). The recording cadence lives in _recorded:
toy_ce, mnist_pca and poisson_dnn loop over it, and it passes on what _descent
yields at every record_every-th epoch and stops at the last recorded epoch
without resuming the descent. The full-batch runners record from the outputs it
yields; mnist_pca's epochs are shuffled minibatches, and it records a
full-batch _evaluate where _recorded yields. _descent owns one activation cache
per batch length and one gradient vector and passes them back to nn as into;
the outputs it yields are overwritten by the next step of their batch length,
so every consumer reads or copies them before resuming it.
toy_ce, mnist_pca and poisson_dnn take the F-Principle measurement through one
recorder, _spectral_recorder, which starts its own clock, and _emit_trace
writes it; the runner builds the recorder's phase matrix once. Histories are
columns: the recorder's trace.csv columns, an IterativeRun and a SwitchPoint's
phase-one record each hold one list per column, and the CSV rows are zipped
from them.
mnist_pca builds its row-major images and one-hot matrices once, after PCA,
from data's (images, labels) pair. Wall-clock columns come from one
reporting.stopwatch per recorder, TrainPhase and iterate call, counting from
its start, and are all zero unless timing is enabled, so that identical
(config, seed) pairs produce byte-identical files.

The runners reach the other modules' functions (forward, iterate, run_hybrid,
write_csv, ...) through this module's globals, imported by name, and
nufft_direct, which no runner calls, stays imported: perfbench/tracer.py wraps
those names here to time each layer.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import data as datamod
from .config import ExperimentConfig, config_to_text, validate
from .errors import ConfigError, DivergenceError
from .losses import cross_entropy_loss, energy_loss, mse_loss
from .nn import Mlp, backprop, forward, init_mlp, lr_at, sgd_step
from .poisson import (
    Grid1D,
    IterativeRun,
    SwitchPoint,
    assemble_poisson,
    g_rhs,
    iterate,
    residual_inf,
    run_hybrid,
    thomas_solve,
)
from .reporting import stopwatch, write_atomic, write_csv, write_svg_lines
from .spectral import (
    dft_matrix,
    dft_uniform,
    grad_decomposition,
    nufft_direct,  # unused here; see the module docstring
    nufft_matrix,
    pick_peaks,
    rel_freq_diff,
    spectrum,
)

__all__ = ["RunReport", "target_toy", "run_experiment", "run_single"]

#: a loss of the network outputs: (value, gradient with respect to the outputs)
LossOf = Callable[[np.ndarray], tuple[float, np.ndarray]]


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


def _snapshot(cfg: ExperimentConfig, seed: int, out_dir: Path) -> Path:
    """Write the resolved single-seed config of the run that wrote out_dir;
    re-running it reproduces this run there. out_dir is recorded as cfg gives
    it when that names the same directory, so a single-seed snapshot keeps the
    user's spelling; a seed subdirectory is recorded as itself."""
    recorded = cfg.out_dir if Path(cfg.out_dir) == out_dir else str(out_dir)
    return write_atomic(out_dir / "config.txt",
                        config_to_text(dataclasses.replace(cfg, seed=seed, seeds=1, out_dir=recorded)))


def _spectral_recorder(cfg: ExperimentConfig, phase: np.ndarray,
                       target_values: np.ndarray) -> tuple[list[int], list[list], Callable]:
    """(peaks, columns, record): the ascending peaks of spectrum(phase,
    target_values), the trace.csv columns step, epoch, wall_ms, loss and one df
    column per peak, and record(epoch, loss, values), which appends recording
    step epoch // cfg.record_every with the relative difference of
    spectrum(phase, values) from the target at each peak. wall_ms is read from
    the recorder's own stopwatch(cfg.timing), started here. A target spectrum
    with no peak leaves nothing to measure: ConfigError."""
    target = spectrum(phase, target_values)
    peaks = pick_peaks(target, cfg.peak_max_count, cfg.peak_min_rel_amplitude)
    if not peaks:
        raise ConfigError(f"the target spectrum has no peak to track (samples = {cfg.samples}, "
                          f"nufft_freqs = {cfg.nufft_freqs}); it needs more samples or frequencies")
    columns: list[list] = [[] for _ in range(4 + len(peaks))]
    elapsed = stopwatch(cfg.timing)

    def record(epoch: int, loss: float, values: np.ndarray) -> None:
        model = spectrum(phase, values)
        row = (epoch // cfg.record_every, epoch, elapsed(), loss,
               *(rel_freq_diff(model, target, g, cfg.df_denominator) for g in peaks))
        for column, value in zip(columns, row):
            column.append(value)

    return peaks, columns, record


def _emit_trace(cfg: ExperimentConfig, out_dir: Path, peaks: list[int], columns: list[list],
                title: str) -> dict:
    """Write a _spectral_recorder's peaks and columns to trace.csv,
    first_passage.csv and (with cfg.svg) trace.svg; return the final_loss,
    peaks and first_passage metrics. A peak's first passage is the first
    recording step with df <= cfg.first_passage_tau, or None."""
    steps, _, _, losses, *dfs = columns
    first_passage = {g: next((s for s, d in zip(steps, df) if d <= cfg.first_passage_tau), None)
                     for g, df in zip(peaks, dfs)}
    write_csv(out_dir / "trace.csv", ["step", "epoch", "wall_ms", "loss"] + [f"df_{g}" for g in peaks],
              zip(*columns))
    write_csv(out_dir / "first_passage.csv", ["gamma", "first_step"], list(first_passage.items()))
    if cfg.svg:
        series = [(f"gamma={g}", steps, df) for g, df in zip(peaks, dfs)]
        write_svg_lines(out_dir / "trace.svg", series, title=title,
                        xlabel="recording step", ylabel="relative difference")
    return {"final_loss": losses[-1], "peaks": peaks, "first_passage": first_passage}


def _evaluate(net: Mlp, xs: np.ndarray, loss_of: LossOf, epoch: int,
              into: list[np.ndarray] | None = None
              ) -> tuple[np.ndarray, list[np.ndarray], float, np.ndarray]:
    """(outputs, cache, loss, loss gradient) of net on xs, the cache written
    into into if given (see nn.forward). Divergence is a non-finite loss, raised
    as DivergenceError for epoch: non-finite parameters and overflows reach the
    loss as non-finite outputs (NaN softmax rows). Exceptions pass unchanged."""
    out, cache = forward(net, xs, into)
    value, grad = loss_of(out)
    if not np.isfinite(value):
        raise DivergenceError(epoch, f"loss diverged at epoch {epoch}")
    return out, cache, value, grad


def _descent(net: Mlp, epochs: Iterable[Iterable[tuple[np.ndarray, LossOf]]],
             cfg: ExperimentConfig) -> Iterator[tuple[int, np.ndarray, float]]:
    """Gradient descent over epochs, each an iterable of (inputs, loss_of)
    batches, one update per batch at the epoch's rate under cfg's schedule.

    Yields (epoch, outputs, loss) of each epoch's first batch before its
    update, from the untrained network at epoch 0 on. Each step is one
    _evaluate, so a divergence is raised instead of yielded. The loop owns one
    activation cache per batch length and one gradient vector, written over at
    every step: a yielded outputs array is overwritten once the caller resumes
    the loop, so read or copy it before that.
    """
    caches: dict[int, list[np.ndarray]] = {}
    grad = None
    for epoch, batches in enumerate(epochs):
        lr = lr_at(cfg.lr, cfg.lr_halve_every, epoch)
        for i, (xs, loss_of) in enumerate(batches):
            # the buffers pass by position: wrappers in the tests and in perfbench/tracer.py read *args
            out, cache, value, dloss = _evaluate(net, xs, loss_of, epoch, caches.get(len(xs)))
            caches[len(xs)] = cache
            if i == 0:
                yield epoch, out, value
            grad = backprop(net, cache, dloss.reshape(out.shape), grad)
            sgd_step(net, grad, lr)


def _recorded(cfg: ExperimentConfig, descent: Iterator[tuple[int, np.ndarray, float]]
              ) -> Iterator[tuple[int, np.ndarray, float]]:
    """The items of descent at every cfg.record_every-th epoch, up to the last
    one at or before cfg.epochs; descent is not resumed after that one, as no
    output reads the updates after it: the islice stops at last + 1, as descent
    yields epoch i as its i-th item."""
    last = cfg.epochs - cfg.epochs % cfg.record_every
    return itertools.islice(descent, 0, last + 1, cfg.record_every)


# ---------------------------------------------------------------------------
# step-function cross-entropy experiment


def run_toy_ce(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    xs = np.linspace(-1.0, 1.0, cfg.samples).reshape(-1, 1)
    targets = target_toy(xs[:, 0])
    peaks, columns, record = _spectral_recorder(cfg, dft_matrix(len(xs)), targets[:, 0])

    net = init_mlp([1, *cfg.hidden_widths, 2], cfg.activation, "softmax", cfg.init_std, cfg.init_mean, seed)
    descent = _descent(net, itertools.repeat(((xs, lambda out: cross_entropy_loss(out, targets)),)), cfg)
    for epoch, probs, loss in _recorded(cfg, descent):
        record(epoch, loss, probs[:, 0])

    return _emit_trace(cfg, out_dir, peaks, columns, "step-target cross entropy")


# ---------------------------------------------------------------------------
# PCA-reduced image classification experiment


def _load_images(cfg: ExperimentConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(images, labels): the first cfg.samples of the dataset files, or, with
    no files given, the seeded synthetic set (validate takes both files or
    neither). Files holding fewer than cfg.samples images, and equal images,
    which leave PCA no direction: ConfigError."""
    if not cfg.mnist_images:
        return datamod.synthetic_image_set(cfg.samples, seed=seed)
    images, labels = datamod.load_image_set(cfg.mnist_images, cfg.mnist_labels)
    if len(labels) < cfg.samples:
        raise ConfigError(f"{cfg.mnist_images} holds {len(labels)} images, "
                          f"fewer than samples = {cfg.samples}")
    # copies, so the rest of the file's matrix is freed; F-ordered, as a file holding only the cut
    images, labels = images[:, :cfg.samples].copy(order="F"), labels[:cfg.samples].copy()
    if np.array_equal(images.min(axis=1), images.max(axis=1)):
        raise ConfigError(f"the first {images.shape[1]} images of {cfg.mnist_images} are all equal")
    return images, labels


def run_mnist_pca(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    images, labels = _load_images(cfg, seed)
    coords = datamod.pca_project(images, seed=seed)
    # row-major, so a minibatch is a gather of contiguous rows; made after
    # pca_project has freed its centred copy, in place of the pixels-by-samples
    # matrix, so peak memory does not rise
    X = np.ascontiguousarray(images.T)   # (n, pixels)
    del images
    onehot = np.eye(datamod.NUM_CLASSES)[labels]   # (n, classes)

    peaks, columns, record = _spectral_recorder(cfg, nufft_matrix(coords, cfg.nufft_freqs), onehot[:, 0])

    net = init_mlp([X.shape[1], *cfg.hidden_widths, datamod.NUM_CLASSES], cfg.activation, "softmax",
                   cfg.init_std, cfg.init_mean, seed)
    shuffle_rng = np.random.Generator(np.random.PCG64([seed, 1]))

    n = len(labels)
    batch = cfg.batch_size if cfg.batch_size > 0 else n

    def minibatches():
        for sel in np.split(shuffle_rng.permutation(n), range(batch, n, batch)):
            yield X[sel], lambda out, sel=sel: cross_entropy_loss(out, onehot[sel])

    # a recording's parameters are those before the epoch's first update
    for epoch, _, _ in _recorded(cfg, _descent(net, (minibatches() for _ in itertools.count()), cfg)):
        probs, _, loss, _ = _evaluate(net, X, lambda out: cross_entropy_loss(out, onehot), epoch)
        record(epoch, loss, probs[:, 0])

    write_csv(out_dir / "projected.csv", ["x", "label"] + [f"y{j}" for j in range(datamod.NUM_CLASSES)],
              zip(coords, labels.tolist(), *onehot.T))
    return _emit_trace(cfg, out_dir, peaks, columns, "image-task cross entropy, first output dimension")


# ---------------------------------------------------------------------------
# Poisson experiments


def _poisson_setup(cfg: ExperimentConfig) -> tuple[Grid1D, np.ndarray, np.ndarray]:
    """The grid, the right-hand side and the direct solution on all n+1 points."""
    grid = Grid1D(n=cfg.grid_n)
    rhs = assemble_poisson(grid, g_rhs)
    return grid, rhs, thomas_solve(rhs)


def _tracked_modes(peaks, n: int) -> tuple[int, ...]:
    """Sine-mode indexes nearest the spectral peaks (mode k has index k/2)."""
    return tuple(sorted({min(n - 1, max(1, 2 * g)) for g in peaks}))


def run_poisson_direct(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    grid, rhs, ref = _poisson_setup(cfg)
    spec = dft_uniform(ref)
    peaks = pick_peaks(spec, cfg.peak_max_count, cfg.peak_min_rel_amplitude)
    write_csv(out_dir / "solution.csv", ["x", "u_star"], [[x, u] for x, u in zip(grid.points, ref)])
    half = len(spec) // 2
    write_csv(out_dir / "spectrum.csv", ["gamma", "amplitude", "is_peak"],
              [[g, float(abs(spec[g])), int(g in peaks)] for g in range(half + 1)])
    return {"residual_inf": residual_inf(rhs, ref[1:-1]), "peaks": list(peaks),
            "sup_u_star": float(np.max(np.abs(ref)))}


def run_poisson_jacobi(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    _, rhs, ref = _poisson_setup(cfg)
    peaks = pick_peaks(dft_uniform(ref), cfg.peak_max_count, cfg.peak_min_rel_amplitude)
    modes = _tracked_modes(peaks, cfg.grid_n)
    tol = cfg.iter_tol_rel * float(np.max(np.abs(ref[1:-1])))
    run = iterate(rhs, np.zeros(rhs.size), ref[1:-1], method=cfg.hybrid_method,
                  max_iters=cfg.max_iters, track_modes=modes, tol=tol, timing=cfg.timing)
    its = range(run.iterations + 1)
    write_csv(out_dir / "iters.csv", ["iter", "wall_ms", "sup_error"] + [f"alpha_{k}" for k in run.alphas],
              zip(its, run.wall_ms, run.sup_errors, *run.alphas.values()))
    if cfg.svg:
        series = [("sup_error", its, run.sup_errors)]
        series += [(f"|alpha_{k}|", its, np.abs(trace)) for k, trace in run.alphas.items()]
        write_svg_lines(out_dir / "iters.svg", series, title=f"{cfg.hybrid_method} iteration",
                        xlabel="iteration", ylabel="sup error / |alpha|")
    return {"iterations": run.iterations, "final_sup_error": run.sup_errors[-1],
            "tracked_modes": list(modes)}


def _energy_descent(cfg: ExperimentConfig, seed: int,
                    grid: Grid1D) -> Iterator[tuple[int, np.ndarray, float]]:
    """_descent of a fresh seeded network on the discrete energy of the
    source g_rhs over the grid."""
    net = init_mlp([1, *cfg.hidden_widths, 1], cfg.activation, "identity", cfg.init_std, cfg.init_mean, seed)
    gvals = g_rhs(grid.points)
    batch = (grid.points.reshape(-1, 1), lambda out: energy_loss(out[:, 0], gvals, grid, cfg.beta))
    return _descent(net, itertools.repeat((batch,)), cfg)


def run_poisson_dnn(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    grid, _, ref = _poisson_setup(cfg)
    peaks, columns, record = _spectral_recorder(cfg, dft_matrix(len(ref)), ref)

    sup_errors: list[float] = []
    descent = _energy_descent(cfg, seed, grid)
    # a finite energy implies finite grid values: each u_i enters a squared term
    for epoch, out, loss in _recorded(cfg, descent):
        u_pred = out[:, 0]
        record(epoch, loss, u_pred)
        sup_errors.append(float(np.max(np.abs(u_pred - ref))))

    metrics = _emit_trace(cfg, out_dir, peaks, columns, "energy-trained network vs direct solution")
    write_csv(out_dir / "sup_error.csv", ["step", "epoch", "sup_error"], zip(*columns[:2], sup_errors))
    write_csv(out_dir / "solution.csv", ["x", "u_dnn", "u_star"],
              [[x, up, us] for x, up, us in zip(grid.points, u_pred, ref)])
    return {**metrics, "final_sup_error": sup_errors[-1],
            "rel_sup_error": sup_errors[-1] / float(np.max(np.abs(ref)))}


# ---------------------------------------------------------------------------
# warm-started iterative solves


def _hybrid_rows(run: IterativeRun, method: str, at: SwitchPoint) -> list[list]:
    """Rows of a hybrid_*.csv or baseline.csv: the phase-one columns of at,
    then the iterative solve, its wall clock carried on from the last recorded
    step (from 0.0 when at recorded none, as the cold start)."""
    base_wall = at.wall_ms[-1] if at.wall_ms else 0.0
    return ([["dnn", *row] for row in zip(at.steps, at.wall_ms, at.sup_errors)]
            + [[method, i, base_wall + wall, sup] for i, (wall, sup) in enumerate(zip(run.wall_ms, run.sup_errors))])


def run_d_jacobi(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    """The energy-trained network's hybrid: poisson.run_hybrid with epochs as
    max_steps, each stream a fresh _energy_descent from the untrained network.
    Writes, after the last solve, hybrid_<label>.csv per warm hand-off,
    baseline.csv for the cold start, summary.csv and, with cfg.svg, hybrid.svg."""
    grid, rhs, ref = _poisson_setup(cfg)
    tol = cfg.iter_tol_rel * float(np.max(np.abs(ref[1:-1])))
    hybrid = run_hybrid(rhs, ref, lambda: ((out[:, 0], loss) for _, out, loss in _energy_descent(cfg, seed, grid)),
                        tol, cfg.hybrid_method, cfg.max_iters, cfg.record_every, cfg.plateau_window,
                        cfg.plateau_tol, cfg.epochs, cfg.timing)

    for label, at, run in hybrid.hand_offs:
        write_csv(out_dir / ("baseline.csv" if label == "cold" else f"hybrid_{label}.csv"),
                  ["phase", "step_or_iter", "cum_wall_ms", "sup_error"], _hybrid_rows(run, cfg.hybrid_method, at))
    write_csv(out_dir / "summary.csv", ["label", "switch_step", "sup_error_at_switch", "post_iterations"],
              [[label, at.step, run.sup_errors[0], run.iterations] for label, at, run in hybrid.hand_offs])
    if cfg.svg:
        series = [(label, range(run.iterations + 1), run.sup_errors) for label, _, run in hybrid.hand_offs]
        write_svg_lines(out_dir / "hybrid.svg", series, title="warm vs cold iterative solve",
                        xlabel="post-switch iteration", ylabel="sup error")
    *warm, (_, _, cold) = hybrid.hand_offs
    _, at_plateau, _ = warm[1]
    return {
        "plateau_step": at_plateau.step,
        "plateau_detected": at_plateau.plateau_detected,
        "post_iterations": {label: run.iterations for label, _, run in warm},
        "cold_iterations": cold.iterations,
        "sup_at_switch": {label: run.sup_errors[0] for label, _, run in warm},
    }


# ---------------------------------------------------------------------------
# gradient decomposition diagnostic


def run_diagnose_grad(cfg: ExperimentConfig, seed: int, out_dir: Path) -> dict:
    n = cfg.samples
    xs = (-1.0 + 2.0 * np.arange(n) / n).reshape(-1, 1)
    width, output, loss = ((1, "identity", mse_loss) if cfg.diag_loss == "mse"
                           else (2, "softmax", cross_entropy_loss))
    net = init_mlp([1, *cfg.hidden_widths, width], cfg.activation, output, cfg.init_std, cfg.init_mean, seed)
    target = target_toy(xs[:, 0])[:, :width]

    def pointwise(outputs):
        return loss(outputs, target)[1]

    dec = grad_decomposition(net, xs, pointwise)
    mags = np.linalg.norm(dec.mode_terms, axis=1)
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
    config snapshot is written only once the runner has returned, and an
    earlier run's snapshot there is removed before the runner starts."""
    validate(cfg)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.txt").unlink(missing_ok=True)
    # overflow to inf on diverged values is intended: the trainers watch the loss for it
    with np.errstate(over="ignore", invalid="ignore"):
        metrics = _RUNNERS[cfg.experiment](cfg, seed, out)
    _snapshot(cfg, seed, out)
    return RunReport(cfg, seed, out, metrics)


def run_experiment(cfg: ExperimentConfig,
                   on_report: Callable[[RunReport], None] | None = None) -> list[RunReport]:
    """Run cfg.seeds instances with seeds seed, seed+1, ..., handing each
    finished run's report to on_report, if given, before the next seed starts;
    a seed that fails stops the loop, and a divergence names that seed.

    A single seed writes directly into out_dir; multiple seeds get their own
    seed<N> subdirectories.
    """
    validate(cfg)
    reports = []
    for i in range(cfg.seeds):
        seed = cfg.seed + i
        out = Path(cfg.out_dir) if cfg.seeds == 1 else Path(cfg.out_dir) / f"seed{seed}"
        try:
            report = run_single(cfg, seed, out)
        except DivergenceError as e:
            raise DivergenceError(e.step, f"seed {seed}: {e}") from e
        reports.append(report)
        if on_report is not None:
            on_report(report)
    return reports
