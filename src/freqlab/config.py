"""Experiment configuration: a flat, typed key-value format with a strict
schema, named presets at both full scale and desk scale, and validation.

Config files hold one `key = value` pair per line; a # at the start of a line
or after whitespace starts a comment, so values such as paths may contain #.
Unknown keys are rejected. CLI flags override file values; the resolved
config is snapshotted next to every run's outputs and can be re-run as-is, so
validate rejects any string value its own snapshot line would not read back.

ExperimentConfig is the only settings type: the runners pass its fields to nn,
losses and poisson as plain arguments, and validate reads each choice list
(hidden activations, iterative methods, spectral denominators) from the module
that implements it.
"""

from __future__ import annotations

import dataclasses
import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .nn import HIDDEN_ACTIVATIONS, lr_at
from .poisson import METHODS
from .spectral import DF_DENOMINATORS

__all__ = [
    "ExperimentConfig",
    "EXPERIMENTS",
    "PRESETS",
    "default_config",
    "preset_config",
    "parse_config_text",
    "apply_overrides",
    "config_to_text",
    "load_config_file",
    "validate",
]

EXPERIMENTS = (
    "toy_ce",
    "mnist_pca",
    "poisson_direct",
    "poisson_jacobi",
    "poisson_dnn",
    "d_jacobi",
    "diagnose_grad",
)

_NET_EXPERIMENTS = ("toy_ce", "mnist_pca", "poisson_dnn", "d_jacobi", "diagnose_grad")
_GRID_EXPERIMENTS = ("poisson_direct", "poisson_jacobi", "poisson_dnn", "d_jacobi")


@dataclass
class ExperimentConfig:
    experiment: str = ""
    # network
    hidden_widths: tuple[int, ...] = ()
    activation: str = "tanh"
    init_std: float = 0.1
    init_mean: float = 0.0
    # optimization
    lr: float = 1e-4
    lr_halve_every: int = 0
    batch_size: int = 0            # 0 = full batch
    epochs: int = 0
    # data / problem
    samples: int = 201
    grid_n: int = 64
    beta: float = 10.0
    # recording and spectra
    record_every: int = 1          # epochs per recording step
    peak_max_count: int = 4
    peak_min_rel_amplitude: float = 0.05
    df_denominator: str = "target"
    nufft_freqs: int = 64
    first_passage_tau: float = 0.3
    # iterative solvers / hybrid
    max_iters: int = 100_000
    iter_tol_rel: float = 1e-3     # sup-error target as fraction of ||u*||_inf
    hybrid_method: str = "jacobi"
    plateau_window: int = 200
    plateau_tol: float = 0.01
    # gradient diagnostic
    diag_loss: str = "mse"
    # dataset inputs
    mnist_images: str = ""
    mnist_labels: str = ""
    synthetic: bool = False
    # run control
    seed: int = 0
    seeds: int = 1
    out_dir: str = "runs"
    svg: bool = False
    timing: bool = False


# every default has the field's type, so the defaults double as the schema
_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ExperimentConfig)}


def _coerce(key: str, raw: str):
    ty = _TYPES[key]
    raw = raw.strip()
    try:
        if ty is bool:
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if ty is int:
            return int(raw)
        if ty is float:
            return float(raw)
        if ty is tuple:
            if not raw:
                return ()
            return tuple(int(p) for p in raw.replace("-", ",").split(","))  # int("") raises
        return raw
    except ValueError as e:
        raise ConfigError(f"cannot parse {key} = {raw!r} as {ty.__name__}") from e


_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config_text(text: str) -> dict:
    """Parse `key = value` lines into typed values; unknown keys are errors."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = _COMMENT.split(line, maxsplit=1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def apply_overrides(cfg: ExperimentConfig, values: dict) -> ExperimentConfig:
    for key in values:
        if key not in _TYPES:
            raise ConfigError(f"unknown key {key!r}")
    return dataclasses.replace(cfg, **values)


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in dataclasses.fields(ExperimentConfig):
        v = getattr(cfg, f.name)
        if isinstance(v, bool):
            s = "true" if v else "false"
        elif isinstance(v, tuple):
            s = ",".join(str(x) for x in v)
        elif isinstance(v, float):
            s = repr(v)
        else:
            s = str(v)
        lines.append(f"{f.name} = {s}")
    return "\n".join(lines) + "\n"


def load_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from e
    return parse_config_text(text)


def default_config(experiment: str) -> ExperimentConfig:
    if experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {experiment!r}")
    cfg = ExperimentConfig(experiment=experiment)
    if experiment == "poisson_dnn":
        cfg.record_every = 4
    return cfg


# The fig presets hold the full-scale reference settings for the four
# experiments (widths, learning rate, init std, sample counts, batch size,
# beta, halving cadence); epoch budgets are set here. Desk presets keep the
# network depth but shrink widths and epoch counts to seconds of runtime,
# with step sizes retuned for the smaller networks; the problem setup (data,
# beta, grid) is unchanged.
PRESETS: dict[str, dict] = {
    "fig2": dict(
        experiment="toy_ce", hidden_widths=(400, 400, 200, 100), lr=2e-4,
        init_std=0.1, samples=201, batch_size=0, epochs=30_000,
        record_every=50, first_passage_tau=0.3,
    ),
    "desk-toy-ce": dict(
        experiment="toy_ce", hidden_widths=(64, 64, 32), lr=2e-4,
        init_std=0.1, samples=201, batch_size=0, epochs=2_500,
        record_every=25, first_passage_tau=0.3,
    ),
    "fig3": dict(
        experiment="mnist_pca", hidden_widths=(400, 200), lr=1e-5,
        init_std=0.2, samples=10_000, batch_size=128, epochs=300,
        record_every=1, nufft_freqs=64,
    ),
    "desk-mnist-pca": dict(
        experiment="mnist_pca", hidden_widths=(64, 32), lr=2e-3,
        init_std=0.2, samples=600, batch_size=128, epochs=300,
        record_every=5, nufft_freqs=32, synthetic=True,
    ),
    "fig4": dict(
        experiment="poisson_dnn", hidden_widths=(4000, 800), lr=5e-6,
        lr_halve_every=10_000, init_std=0.05, grid_n=50, beta=10.0,
        epochs=200_000, record_every=4,
    ),
    "desk-poisson-dnn": dict(
        experiment="poisson_dnn", hidden_widths=(256, 64), lr=5e-3,
        lr_halve_every=0, init_std=0.15, grid_n=64, beta=10.0,
        epochs=30_000, record_every=20,
    ),
    "fig5": dict(
        experiment="d_jacobi", hidden_widths=(4000, 500, 400), lr=5e-4,
        init_std=0.02, grid_n=1000, beta=10.0, epochs=200_000,
        record_every=1, plateau_window=200, plateau_tol=0.01,
        iter_tol_rel=1e-3,
    ),
    "desk-d-jacobi": dict(
        experiment="d_jacobi", hidden_widths=(192, 48, 32), lr=2e-3,
        init_std=0.15, grid_n=64, beta=10.0, epochs=40_000,
        record_every=20, plateau_window=200, plateau_tol=0.01,
        iter_tol_rel=1e-3,
    ),
}


def preset_config(name: str) -> ExperimentConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    values = dict(PRESETS[name])
    cfg = default_config(values.pop("experiment"))
    return apply_overrides(cfg, values)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _require_choice(key: str, value: str, choices: tuple[str, ...]) -> None:
    _require(value in choices, f"{key} must be one of {', '.join(choices)}; got {value!r}")


def _reads_back(key: str, value: str) -> bool:
    """Whether the snapshot line `key = value` is one line that parses back to value."""
    line = f"{key} = {value}"
    return len(line.splitlines()) == 1 and parse_config_text(line) == {key: value}


def validate(cfg: ExperimentConfig) -> None:
    """Reject configurations that cannot run; called before every experiment."""
    _require(cfg.experiment in EXPERIMENTS,
             f"experiment must be one of {EXPERIMENTS}, got {cfg.experiment!r}")
    for f in dataclasses.fields(cfg):
        value = getattr(cfg, f.name)
        _require(not isinstance(value, str) or _reads_back(f.name, value),
                 f"{f.name} = {value!r} would not read back from config.txt (a # after "
                 "whitespace starts a comment; line breaks and outer whitespace are lost)")
        _require(not isinstance(value, float) or math.isfinite(value),
                 f"{f.name} must be finite, got {value!r}")
    _require(cfg.seed >= 0, "seed must be >= 0")
    _require(cfg.seeds >= 1, "seeds must be >= 1")
    _require(cfg.record_every >= 1, "record_every must be >= 1")
    _require_choice("df_denominator", cfg.df_denominator, DF_DENOMINATORS)
    _require(cfg.peak_max_count >= 1, "peak_max_count must be >= 1")
    _require(0 <= cfg.peak_min_rel_amplitude <= 1, "peak_min_rel_amplitude must be in [0, 1]")
    _require(cfg.epochs >= 0, "epochs must be >= 0")
    if cfg.experiment in _NET_EXPERIMENTS:
        _require(len(cfg.hidden_widths) >= 1 and all(w >= 1 for w in cfg.hidden_widths),
                 "hidden_widths must be a nonempty tuple of positive ints")
        _require_choice("activation", cfg.activation, HIDDEN_ACTIVATIONS)
        _require(cfg.init_std > 0, "init_std must be positive")
        _require(cfg.lr > 0, "lr must be positive")
        _require(cfg.lr_halve_every >= 0, "lr_halve_every must be >= 0")
        _require(cfg.batch_size >= 0, "batch_size must be >= 0 (0 = full batch)")
        # the trainers' last update is at epoch epochs - 1, and sgd_step rejects a rate of 0
        last_lr = lr_at(cfg.lr, cfg.lr_halve_every, max(cfg.epochs - 1, 0))
        _require(cfg.experiment == "diagnose_grad" or last_lr > 0,
                 f"lr = {cfg.lr} halved every lr_halve_every = {cfg.lr_halve_every} epochs underflows "
                 f"to 0 by epoch {cfg.epochs - 1}, the last update of epochs = {cfg.epochs}")
    if cfg.experiment in _GRID_EXPERIMENTS:
        _require(cfg.grid_n >= 2, "grid_n must be >= 2")
    if cfg.experiment in ("poisson_dnn", "d_jacobi"):
        _require(cfg.grid_n >= 3, f"grid_n must be >= 3 for {cfg.experiment}: at grid_n = 2 the only "
                 "interior node is x = 0, where the source vanishes, so the direct solution is zero")
        _require(cfg.beta > 0, "beta must be positive; beta = 0 leaves the boundary unpinned")
    if cfg.experiment in ("poisson_jacobi", "d_jacobi"):
        _require(cfg.max_iters >= 1, "max_iters must be >= 1")
        _require(cfg.iter_tol_rel > 0, "iter_tol_rel must be positive")
        _require_choice("hybrid_method", cfg.hybrid_method, tuple(METHODS))
    if cfg.experiment == "d_jacobi":
        _require(cfg.plateau_window >= 2, "plateau_window must be >= 2")
        _require(cfg.plateau_tol > 0, "plateau_tol must be positive")
    if cfg.experiment in ("toy_ce", "diagnose_grad"):
        _require(cfg.samples >= 8, "samples must be >= 8")
    if cfg.experiment == "mnist_pca":
        _require(cfg.samples >= 2, "samples must be >= 2")
        _require(cfg.nufft_freqs >= 2, "nufft_freqs must be >= 2")
        _require(bool(cfg.mnist_images) == bool(cfg.mnist_labels),
                 "mnist_images and mnist_labels go together: give both files or neither")
        _require(bool(cfg.mnist_images) or cfg.synthetic,
                 "mnist_pca needs --mnist-images/--mnist-labels or --synthetic")
    if cfg.experiment == "diagnose_grad":
        _require(cfg.diag_loss in ("mse", "cross_entropy"),
                 "diag_loss must be mse or cross_entropy")
