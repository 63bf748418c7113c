#!/usr/bin/env python3
"""Record the output digests that run.py checks every repetition against.

    python3 perfbench/record_digests.py

Runs each workload once per seed in SEEDS, checks the outputs (finiteness and
the paper's invariants) and writes perfbench/digests.json; nothing is written
if any run fails.
Run it only at a commit whose outputs are known good: a later change that
moves an output byte fails the benchmark's correctness check until the
digests are recorded again on purpose.
"""

from __future__ import annotations

import json
import shutil
import sys

import harness
from harness import WORK, cli_argv, run_child
from workloads import DIGESTS, WORKLOADS, check_outputs

SEEDS = range(24)


def main() -> int:
    harness.require_sources()
    digests: dict[str, dict[str, dict[str, str]]] = {}
    failures = []
    for name, workload in WORKLOADS.items():
        digests[name] = {}
        for seed in SEEDS:
            work = WORK / "digests" / f"{name}-seed{seed}"
            shutil.rmtree(work, ignore_errors=True)
            run = run_child(cli_argv(workload.argv(seed, work / "out")), work, 150.0)
            problems = [f"exit code {run.returncode}: {run.stdout[-300:]}"] if run.returncode else []
            if not problems:
                problems, digests[name][str(seed)] = check_outputs(workload, seed, work / "out", {})
            print(f"{name} seed {seed}: {run.wall_s:.2f} s {'; '.join(problems) or 'ok'}", flush=True)
            failures += problems
            shutil.rmtree(work)
    if failures:
        print(f"{len(failures)} problems; digests not written", file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
