"""Command-line entry point.

Subcommands map one-to-one onto the experiments; configuration is resolved as
defaults < preset < config file < --set overrides < direct flags; the
resolved experiment must be the subcommand's, and the config is then
validated. Exit codes: 0 success, 2 configuration error, 3 training
divergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .config import (
    EXPERIMENTS,
    PRESETS,
    ExperimentConfig,
    apply_overrides,
    default_config,
    load_config_file,
    parse_config_text,
    preset_config,
)
from .errors import ConfigError, DivergenceError
from .experiments import RunReport, run_experiment

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
        p.add_argument("--out", dest="out_dir", metavar="DIR", help="output directory")
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
    cfg = preset_config(args.preset) if args.preset else default_config(args.experiment)
    if args.config:
        cfg = apply_overrides(cfg, load_config_file(args.config))
    for item in args.overrides:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        cfg = apply_overrides(cfg, parse_config_text(item))
    # each direct flag's dest is its config key; experiment is the subcommand's, checked below
    cfg = apply_overrides(cfg, {f.name: getattr(args, f.name) for f in dataclasses.fields(ExperimentConfig)
                                if f.name != "experiment" and getattr(args, f.name, None) is not None})
    if cfg.experiment != args.experiment:
        raise ConfigError(f"the resolved config is for experiment {cfg.experiment!r}, "
                          f"but the subcommand runs {args.experiment}")
    return cfg


def _print_summary(report: RunReport) -> None:
    summary = ", ".join(f"{k}={v}" for k, v in sorted(report.metrics.items()))
    print(f"[seed {report.seed}] {report.config.experiment} -> {report.out_dir}  {summary}", flush=True)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        run_experiment(cfg, _print_summary)  # each seed's line as it finishes, also if a later seed fails
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"divergence: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
