#!/usr/bin/env python3
"""Compare two benchmark result sets, parent against change.

    python3 perfbench/compare.py collect PARENT_CHECKOUT CHANGE_CHECKOUT
    python3 perfbench/compare.py report PARENT_RESULTS CHANGE_RESULTS

`collect` runs run.py in the two checkouts for every workload, MIN_PAIRS
alternating pairs each, with BENCHMARK.json's run_seconds: pair i uses seed i
on both sides, and the side that runs first alternates. Each run
leaves its record in that checkout's perfbench/_work/results/, and `report`
reads two such directories.

The report has one row per workload and end-to-end metric. A gain needs at
least ten alternating pairs, a win in nine tenths of them (ties count for
neither) and a gap between the medians wider than the parent's interquartile
range. A regression is a change median worse than the parent's by more than
the metric's bound in BENCHMARK.json. Where either side's interquartile range,
as a share of its median, is wider than the bound, the row reads
"unresolved" unless every change run is better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from harness import spec

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_records(results: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> latest untraced record."""
    out: dict[str, dict[int, dict]] = {}
    for path in sorted(results.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") != 0:
            continue
        seeds = out.setdefault(rec["workload"], {})
        if rec["seed"] not in seeds or rec["started"] > seeds[rec["seed"]]["started"]:
            seeds[rec["seed"]] = rec
    return out


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare_metric(parent: list[float], change: list[float], better: str, bound: float,
                   alternating: bool) -> tuple[str, str]:
    """(table cells, verdict) for one workload and metric over paired runs."""
    sign = 1.0 if better == "lower" else -1.0  # positive = worse
    p1, pm, p3 = _quartiles(parent)
    c1, cm, c3 = _quartiles(change)
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    spread = max((p3 - p1) / abs(pm) if pm else 0.0, (c3 - c1) / abs(cm) if cm else 0.0)
    diff = (cm - pm) / abs(pm) if pm else 0.0
    if spread > bound:
        all_better = all(sign * (c - p) < 0 for c in change for p in parent)
        verdict = "better in every run" if all_better else "unresolved"
    elif sign * diff > bound:
        verdict = "regressed"
    elif (alternating and len(parent) >= MIN_PAIRS and wins >= WIN_SHARE * len(parent)
          and sign * (pm - cm) > p3 - p1):
        verdict = "gain"
    else:
        verdict = "within bound"
    cells = (f"{pm:11.5g} [{p1:9.5g}, {p3:9.5g}] {cm:11.5g} [{c1:9.5g}, {c3:9.5g}] "
             f"{diff:+8.2%} {wins:3d}/{len(parent):<2d}")
    return cells, verdict


def report(parent_dir: Path, change_dir: Path) -> int:
    parent, change = load_records(parent_dir), load_records(change_dir)
    regressed = False
    print(f"{'workload':16s} {'metric':12s} {'parent median [q1, q3]':34s} "
          f"{'change median [q1, q3]':34s} {'diff':>8s} {'wins':>6s}  verdict")
    for workload in sorted(set(parent) & set(change)):
        seeds = sorted(set(parent[workload]) & set(change[workload]))
        pairs = [(parent[workload][s], change[workload][s]) for s in seeds]
        # order pairs by time and check that the first side alternates
        pairs.sort(key=lambda pc: min(pc[0]["started"], pc[1]["started"]))
        firsts = [p["started"] < c["started"] for p, c in pairs]
        alternating = all(a != b for a, b in zip(firsts, firsts[1:]))
        failed = (sum(p["failed"] for p, _ in pairs), sum(c["failed"] for _, c in pairs))
        ok = [(p, c) for p, c in pairs if p["metrics"] and c["metrics"]]
        for metric in spec()["end_to_end"]:
            name = metric["name"]
            if not ok:
                print(f"{workload:16s} {name:12s} no complete pairs")
                continue
            cells, verdict = compare_metric([p["metrics"][name] for p, _ in ok],
                                            [c["metrics"][name] for _, c in ok],
                                            metric["better"], metric["bound"], alternating)
            if verdict == "gain" and failed[1] > failed[0]:
                verdict = "no gain: more runs failed"
            regressed |= verdict == "regressed"
            print(f"{workload:16s} {name:12s} {cells}  {verdict}")
        note = "" if alternating else "; first side does not alternate, so no gain is claimed"
        print(f"{workload:16s} {len(pairs)} pairs, failed runs parent {failed[0]}, "
              f"change {failed[1]}{note}")
    return 1 if regressed else 0


def collect(parent: Path, change: Path) -> int:
    bench = spec()
    for workload in (w["name"] for w in bench["workloads"]):
        for seed in range(MIN_PAIRS):
            sides = (parent, change) if seed % 2 == 0 else (change, parent)
            for checkout in sides:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
                last = done.stdout.strip().splitlines()[-1:] or [done.stderr.strip()]
                print(f"{workload} seed {seed} {checkout}: {last[0][:160]}", flush=True)
    return report(parent / "perfbench/_work/results", change / "perfbench/_work/results")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect", help="run alternating pairs in two checkouts, then report")
    c.add_argument("parent", type=Path)
    c.add_argument("change", type=Path)
    r = sub.add_parser("report", help="compare two directories of result records")
    r.add_argument("parent", type=Path)
    r.add_argument("change", type=Path)
    args = parser.parse_args()
    if args.command == "collect":
        return collect(args.parent.resolve(), args.change.resolve())
    return report(args.parent, args.change)


if __name__ == "__main__":
    sys.exit(main())
