"""Process plumbing shared by the benchmark scripts: where the checkout is,
the metric names from BENCHMARK.json, the pinned child environment, timed
child runs with their resource usage, the set-up probe, the reference run,
the environment record and the order statistics.

Importing this module pins the BLAS thread variables in os.environ, so every
child process and any numpy the benchmark itself loads run on one thread.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

#: One BLAS thread: desk-mnist-pca's CSV bytes change with the thread count,
#: and on two cores threading doubles CPU time without lowering wall time.
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_VARS)

#: Imports the CLI, then resolves and validates the workload's config: the
#: fixed start-up cost every run of the program pays before any work.
SETUP_PROBE = (
    "import sys\n"
    "import freqlab.cli as cli\n"
    "from freqlab.config import validate\n"
    "validate(cli.resolve_config(cli.build_parser().parse_args(sys.argv[1:])))\n"
    "print(cli.__file__)\n"
)


#: Reported times are scaled to a machine on which reference.py takes this
#: many seconds: on a shared host, whole minutes run 20-40% slower or faster
#: for every process alike, and the scale cancels that.
REFERENCE_S = 0.6


def spec() -> dict:
    """BENCHMARK.json: the workloads, the run length and each metric's name,
    unit and order."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units(kind: str) -> dict[str, str]:
    """name -> unit of the "end_to_end" or "per_layer" metrics, in order."""
    return {m["name"]: m["unit"] for m in spec()[kind]}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, broken set-up)."""


def require_sources() -> None:
    if not (SRC / "freqlab" / "cli.py").is_file():
        raise BenchError(f"no freqlab sources under {SRC}; run from a full checkout")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREAD_VARS)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class ChildRun:
    returncode: int
    wall_s: float
    cpu_s: float
    sys_s: float
    minor_faults: int
    peak_rss_mb: float
    stdout: str


def run_child(argv: list[str], cwd: Path, timeout: float) -> ChildRun:
    """Run argv to completion; wall time from spawn to reap, rusage of the child.

    A child still running after timeout seconds is killed and reported with a
    non-zero return code.
    """
    cwd.mkdir(parents=True, exist_ok=True)
    log = cwd / "stdout.txt"
    with open(log, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        returncode=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        sys_s=usage.ru_stime,
        minor_faults=usage.ru_minflt,
        peak_rss_mb=usage.ru_maxrss / 1024.0,  # Linux reports KiB
        stdout=log.read_text(errors="replace"),
    )


def cli_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "freqlab.cli", *args]


def setup_probe(args: list[str], cwd: Path, timeout: float) -> float:
    """Wall seconds for one fresh process to import, resolve and validate."""
    run = run_child([sys.executable, "-c", SETUP_PROBE, *args], cwd, timeout)
    if run.returncode != 0:
        raise BenchError(f"set-up probe failed ({run.returncode}): {run.stdout[-500:]}")
    loaded = Path(run.stdout.strip().splitlines()[-1]).resolve()
    if SRC.resolve() not in loaded.parents:
        raise BenchError(f"freqlab was imported from {loaded}, not from {SRC}")
    return run.wall_s


def reference_run(cwd: Path, timeout: float) -> float:
    """Wall seconds of one run of reference.py, which uses no freqlab code."""
    run = run_child([sys.executable, str(HERE / "reference.py")], cwd, timeout)
    if run.returncode != 0:
        raise BenchError(f"reference run failed ({run.returncode}): {run.stdout[-500:]}")
    return run.wall_s


# ---------------------------------------------------------------------------
# environment record


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return "unknown"


def _git_commit() -> str:
    """HEAD of the checkout (a worktree too); git may not look above ROOT."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown (git not available)"
    lines = git.stdout.split("\n")
    if git.returncode or len(lines) < 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def environment(seed: int) -> dict:
    import numpy  # loaded after THREAD_VARS are pinned

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name", "unknown"), "version": blas.get("version", "unknown")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "threads": dict(THREAD_VARS),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2": _read(f"{cache}/index2/size"),
        "l3": _read(f"{cache}/index3/size"),
        "git_commit": _git_commit(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# order statistics


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with >= 10 samples above it."""
    n = len(values)
    if n < 11:
        return None
    i = n - 11  # sorted index with exactly ten samples beyond it
    return 100.0 * (i + 1) / n, sorted(values)[i]


def describe(values: list[float]) -> str:
    t = tail(values)
    p = f"p{t[0]:.0f} {t[1]:.6g}" if t else "no tail percentile (needs n >= 11)"
    return f"median {statistics.median(values):.6g}, {p}, n={len(values)}"
