#!/usr/bin/env python3
"""freqlab benchmark: one workload, one measurement window, one JSON result.

    python3 perfbench/run.py --workload relax --seed 3 --seconds 28 --trace 0

Each repetition is a fresh `python -m freqlab.cli` process, run one at a time
(a closed loop with one client), with BLAS pinned to one thread. Every
repetition's outputs are checked (recorded digests where this seed has them,
finiteness and the paper's invariants always).

--trace 0 reports the end-to-end metrics: medians over the repetitions of
wall_s, cpu_s and peak_rss_mb, the median of several set-up probes (setup_s)
and pass_rate. The three times are scaled by REFERENCE_S over the median
time of reference.py, which runs before every repetition, so that they read
as seconds on a machine of fixed speed. --trace 1 runs pairs of an untraced and a traced run
(tracer.py) and reports the per-module metrics and the tracing overhead.

The last line of stdout is the result object; the full record, with the
environment and every sample, is also written under perfbench/_work/results/
for compare.py.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import harness
from harness import (REFERENCE_S, WORK, BenchError, cli_argv, describe, reference_run,
                     run_child, setup_probe)
from tracer import COMPUTED, layer_metrics
from workloads import WORKLOADS, check_outputs, recorded_digests

SETUP_REPS = 7             # least number of timed set-up probes, after one warm-up
MIN_REPS = 2               # repetitions per window, even if the window is short
CHILD_TIMEOUT = 150.0      # seconds; the whole run must end within 180

END_TO_END = harness.units("end_to_end")   # name -> unit, in reporting order
PER_LAYER = harness.units("per_layer")


def _fits(started: float, seconds: float, reps: list[float]) -> bool:
    """Whether another repetition of typical length ends inside the window."""
    return time.perf_counter() - started + statistics.median(reps) <= seconds


def _log(msg: str) -> None:
    print(msg, flush=True)


def measure(workload, seed: int, seconds: float, work: Path, recorded: dict) -> dict:
    probe_args = workload.argv(seed, work / "probe-out")

    def probe() -> float:
        return setup_probe(probe_args, work / "probe", CHILD_TIMEOUT)

    probe()  # warm-up: bytecode, file cache
    setup: list[float] = []
    reference: list[float] = []
    runs, failures, spent = [], [], []
    started = time.perf_counter()
    # a probe and a reference run before each repetition spread their
    # samples over the window
    while len(runs) < MIN_REPS or _fits(started, seconds, spent):
        t0 = time.perf_counter()
        setup.append(probe())
        reference.append(reference_run(work / "reference", CHILD_TIMEOUT))
        rep = work / f"rep{len(runs)}"
        run = run_child(cli_argv(workload.argv(seed, rep / "out")), rep, CHILD_TIMEOUT)
        problems = [f"exit code {run.returncode}: {run.stdout[-300:]}"] if run.returncode else []
        if not problems:
            problems = check_outputs(workload, seed, rep / "out", recorded)[0]
        runs.append(run)
        failures.append(problems)
        spent.append(time.perf_counter() - t0)
        _log(f"  rep {len(runs)}: wall {run.wall_s:.3f} s, cpu {run.cpu_s:.3f} s, "
             f"rss {run.peak_rss_mb:.1f} MB{'  FAILED: ' + '; '.join(problems) if problems else ''}")

    for _ in range(SETUP_REPS - len(setup)):
        setup.append(probe())
        reference.append(reference_run(work / "reference", CHILD_TIMEOUT))
    samples = {
        "wall_s": [r.wall_s for r in runs],
        "cpu_s": [r.cpu_s for r in runs],
        "setup_s": setup,
        "peak_rss_mb": [r.peak_rss_mb for r in runs],
        "reference_s": reference,
    }
    failed = sum(1 for p in failures if p)
    scale = REFERENCE_S / statistics.median(reference)
    computed = {k: statistics.median(samples[k]) * scale for k in ("wall_s", "cpu_s", "setup_s")}
    computed["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    computed["pass_rate"] = (len(runs) - failed) / len(runs)
    metrics = {k: computed[k] for k in END_TO_END}
    for name, values in samples.items():
        _log(f"{name:12s} {describe(values)} (measured, not scaled)")
    _log(f"{'scale':12s} {scale:.4f} = {REFERENCE_S} s / median reference_s")
    _log(f"{'fail_rate':12s} {failed}/{len(runs)} runs failed")
    return {"attempted": len(runs), "failed": failed, "problems": [p for p in failures if p],
            "samples": samples, "metrics": metrics, "units": END_TO_END}


def measure_traced(workload, seed: int, seconds: float, work: Path, recorded: dict) -> dict:
    tracer_script = str(Path(__file__).resolve().parent / "tracer.py")
    pairs, problems = [], []
    started = time.perf_counter()
    while not pairs or _fits(started, seconds, [p["pair_s"] for p in pairs]):
        t0 = time.perf_counter()
        rep = work / f"pair{len(pairs)}"
        spans_path = rep / "spans.json"
        argvs = {"plain": cli_argv(workload.argv(seed, rep / "plain")),
                 "traced": [sys.executable, tracer_script, str(spans_path), "--",
                            *workload.argv(seed, rep / "traced")]}
        # alternate which side runs first, so drift in machine speed cancels
        order = ("plain", "traced") if len(pairs) % 2 == 0 else ("traced", "plain")
        done = {side: run_child(argvs[side], rep / side[0], CHILD_TIMEOUT) for side in order}
        plain, traced = done["plain"], done["traced"]
        pair_problems = [f"{label} exit code {r.returncode}: {r.stdout[-300:]}"
                         for label, r in (("untraced", plain), ("traced", traced)) if r.returncode]
        if not pair_problems:
            pair_problems, digests = check_outputs(workload, seed, rep / "plain", recorded)
            pair_problems += check_outputs(workload, seed, rep / "traced", recorded, expect=digests)[0]
        problems.append(pair_problems)
        layers = {}
        if not pair_problems:
            spans = json.loads(spans_path.read_text())["spans"]
            layers = layer_metrics(spans, traced, plain, PER_LAYER)
        pairs.append({"pair_s": time.perf_counter() - t0, "layers": layers})
        _log(f"  pair {len(pairs)}: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s"
             f"{'  FAILED: ' + '; '.join(pair_problems) if pair_problems else ''}")

    good = [p["layers"] for p in pairs if p["layers"]]
    metrics = {k: statistics.median([g[k] for g in good]) for k in PER_LAYER} if good else {}
    for name, value in metrics.items():
        _log(f"{name:34s} {value:.6g} {PER_LAYER[name]}{' (computed)' if name in COMPUTED else ''}")
    failed = sum(1 for p in problems if p)
    return {"attempted": len(pairs), "failed": failed, "problems": [p for p in problems if p],
            "samples": {"pairs": pairs}, "metrics": metrics, "units": PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measurement window")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        harness.require_sources()
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = harness.environment(args.seed)
    _log(f"freqlab benchmark: {args.workload} seed {args.seed}, {args.seconds:g} s window, "
         f"trace {args.trace}; {json.dumps(env)}")
    started = time.time()
    measure_fn = measure_traced if args.trace else measure
    try:
        result = measure_fn(workload, args.seed, args.seconds, work, recorded_digests())
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 2

    correct = result["failed"] == 0 and bool(result["metrics"])
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "started": started, "env": env,
              "correct": correct, **result}
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json").write_text(
        json.dumps(record, indent=1))
    if correct:
        shutil.rmtree(work, ignore_errors=True)
    units = result["units"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
