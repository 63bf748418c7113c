"""Command-line entry point.

Subcommands map one-to-one onto the experiments; configuration is resolved as
defaults < preset < config file < --set overrides < direct flags, then
validated. Exit codes: 0 success, 2 configuration error, 3 training
divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from .config import (
    EXPERIMENTS,
    PRESETS,
    apply_overrides,
    default_config,
    load_config_file,
    parse_config_text,
    preset_config,
)
from .errors import ConfigError, DivergenceError
from .experiments import run_experiment

_SUBCOMMANDS = {name.replace("_", "-"): name for name in EXPERIMENTS}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqlab",
        description="Frequency-domain training diagnostics and hybrid Poisson solvers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, experiment in _SUBCOMMANDS.items():
        p = sub.add_parser(command, help=f"run the {experiment} experiment")
        p.set_defaults(experiment=experiment)
        p.add_argument("--config", metavar="PATH", help="key = value config file")
        p.add_argument("--preset", choices=sorted(PRESETS), help="named preset")
        p.add_argument("--seed", type=int, help="base seed")
        p.add_argument("--seeds", type=int, help="number of seeds (seed, seed+1, ...)")
        p.add_argument("--out", metavar="DIR", help="output directory")
        p.add_argument("--svg", action="store_true", default=None, help="also write SVG charts")
        p.add_argument("--timing", action="store_true", default=None,
                       help="record real wall-clock columns (breaks byte-identical reruns)")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override any config key (repeatable)")
        if command == "mnist-pca":
            p.add_argument("--mnist-images", metavar="PATH", help="IDX image file (may be .gz)")
            p.add_argument("--mnist-labels", metavar="PATH", help="IDX label file (may be .gz)")
            p.add_argument("--synthetic", action="store_true", default=None,
                           help="use the seeded synthetic dataset instead of files")
    return parser


def resolve_config(args: argparse.Namespace):
    if args.preset:
        cfg = preset_config(args.preset)
        if cfg.experiment != args.experiment:
            raise ConfigError(
                f"preset {args.preset!r} is for {cfg.experiment}, not {args.experiment}")
    else:
        cfg = default_config(args.experiment)
    if args.config:
        values = load_config_file(args.config)
        if values.get("experiment", cfg.experiment) != cfg.experiment:
            raise ConfigError(
                f"config file sets experiment={values['experiment']!r}, "
                f"but the subcommand runs {cfg.experiment}")
        values.pop("experiment", None)
        cfg = apply_overrides(cfg, values)
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        cfg = apply_overrides(cfg, parse_config_text(item))
    direct = {}
    for attr, key in (
        ("seed", "seed"), ("seeds", "seeds"), ("out", "out_dir"),
        ("svg", "svg"), ("timing", "timing"),
        ("mnist_images", "mnist_images"), ("mnist_labels", "mnist_labels"),
        ("synthetic", "synthetic"),
    ):
        value = getattr(args, attr, None)
        if value is not None:
            direct[key] = value
    return apply_overrides(cfg, direct)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        reports = run_experiment(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    for report in reports:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(report.metrics.items()))
        print(f"[seed {report.seed}] {report.config.experiment} -> {report.out_dir}  {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
