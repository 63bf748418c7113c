"""Traced run: spans around the calls into each freqlab module, and the
per-module metrics computed from them.

Run as a script, it installs the wrappers and runs the CLI in this process:

    python perfbench/tracer.py SPANS.json -- <freqlab cli arguments>

The wrappers sit on the names that callers look up at call time
(`freqlab.experiments.forward`, `freqlab.poisson.iterate`, ...), because
`experiments` and `poisson` bind their imports when they load. Nothing in the
package is edited. Spans stay in memory and are written once, at exit.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path


def _matmul_flops(widths, rows: int, backward: bool) -> int:
    """2*m*n*k per matmul: one per layer forward; backward adds the weight
    gradient everywhere and the propagated delta below the top layer."""
    pairs = list(zip(widths[:-1], widths[1:]))
    flops = sum(2 * rows * a * b for a, b in pairs)
    if backward:
        flops += sum(2 * rows * a * b for a, b in pairs[1:])
    return flops


def _forward_flops(args, result) -> int:
    mlp, xs = args[0], args[1]
    return _matmul_flops(mlp.widths, len(xs), backward=False)


def _backprop_flops(args, result) -> int:
    mlp, grad_out = args[0], args[2]
    return _matmul_flops(mlp.widths, len(grad_out), backward=True)


def _file_bytes(args, result) -> int:
    return os.path.getsize(result)


def _sweeps(args, result) -> int:
    return result.iterations


def _train_steps(args, result) -> int:
    return result.switched_at + 1


class Tracer:
    """Spans as [id, parent id, name, start, end, count]; parent 0 is none."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack = [0]

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        fn = getattr(owner, attr)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(spans) + 1, stack[-1], name, clock(), 0.0, 0]
            spans.append(span)
            stack.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[4] = clock()
            if count is not None:
                span[5] = count(args, result)
            return result

        setattr(owner, attr, traced)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"run_id": self.run_id, "spans": self.spans}))


def install(tracer: Tracer) -> None:
    import freqlab.cli as cli
    import freqlab.data as data
    import freqlab.experiments as ex
    import freqlab.poisson as poisson

    for attr, name, count in (
        ("forward", "nn.forward", _forward_flops),
        ("backprop", "nn.backprop", _backprop_flops),
        ("sgd_step", "nn.sgd_step", None),
        ("energy_loss", "losses.energy_loss", None),
        ("cross_entropy_loss", "losses.cross_entropy_loss", None),
        ("dft_uniform", "spectral.dft_uniform", None),
        ("nufft_direct", "spectral.nufft_direct", None),
        ("pick_peaks", "spectral.pick_peaks", None),
        ("rel_freq_diff", "spectral.rel_freq_diff", None),
        ("iterate", "poisson.iterate", _sweeps),
        ("run_hybrid", "poisson.run_hybrid", _train_steps),
        ("thomas_solve", "poisson.thomas_solve", None),
        ("write_csv", "reporting.write_csv", _file_bytes),
        ("write_svg_lines", "reporting.write_svg_lines", None),
    ):
        tracer.wrap(ex, attr, name, count)
    # run_hybrid looks these up in its own module
    tracer.wrap(poisson, "iterate", "poisson.iterate", _sweeps)
    tracer.wrap(poisson, "thomas_solve", "poisson.thomas_solve", None)
    # experiments reaches data through the module object
    tracer.wrap(data, "synthetic_image_set", "data.synthetic_image_set", None)
    tracer.wrap(data, "pca_project", "data.pca_project", None)
    tracer.wrap(cli, "run_experiment", "experiments", None)  # the runners' own time
    tracer.wrap(cli, "main", "cli.main", None)


# ---------------------------------------------------------------------------
# analysis, in the benchmark process


def self_times(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per name: call count, self seconds and summed counts.

    Calls are nested and single-threaded, so the children of one span never
    overlap and the time they cover is the sum of their durations.
    """
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        child_time[parent] += end - start
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for sid, _, name, start, end, count in spans:
        calls[name] += 1
        self_s[name] += (end - start) - child_time[sid]
        counts[name] += count
    return calls, self_s, counts


#: computed from shapes and file sizes, not measured
COMPUTED = ("nn.gflop", "nn.gflop_per_s", "reporting.csv_mb")


def layer_metrics(spans: list[list], traced, plain, names) -> dict[str, float]:
    """The named metrics of one traced run; the process metrics and the
    overhead base come from the untraced run of the same pair (both
    harness.ChildRun). `<span>.calls` and `<span>.self_s` work for any span
    name; the other metrics are computed below."""
    calls, self_s, counts = self_times(spans)
    out: dict[str, float] = {}
    for metric in names:
        span, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = float(calls.get(span, 0))
        elif kind == "self_s":
            out[metric] = self_s.get(span, 0.0)
    nn_s = self_s.get("nn.forward", 0.0) + self_s.get("nn.backprop", 0.0)
    gflop = (counts["nn.forward"] + counts["nn.backprop"]) / 1e9
    sweeps = counts["poisson.iterate"]
    out.update({
        "nn.gflop": gflop,
        "nn.gflop_per_s": gflop / nn_s if nn_s > 0 else 0.0,
        "poisson.sweeps": float(sweeps),
        "poisson.us_per_sweep": 1e6 * self_s.get("poisson.iterate", 0.0) / sweeps if sweeps else 0.0,
        "poisson.hybrid_train_steps": float(counts["poisson.run_hybrid"]),
        "reporting.csv_mb": counts["reporting.write_csv"] / 1e6,
        "process.sys_s": plain.sys_s,
        "process.minor_faults": float(plain.minor_faults),
        "trace.overhead": traced.wall_s / plain.wall_s - 1.0,
    })
    return {k: out[k] for k in names}


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <freqlab cli arguments>")
    spans_path, cli_args = Path(argv[0]), argv[2:]
    tracer = Tracer(run_id=f"{os.getpid()}-{time.time_ns()}")
    install(tracer)
    import freqlab.cli as cli

    try:
        return cli.main(cli_args)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
