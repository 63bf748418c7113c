"""Byte identity: the sha256 of every file a shrunk run of each runner and
choice branch writes, against the digests recorded in tests/golden/<core>.json.

A (config, seed) pair reproduces its bytes only for one BLAS kernel and one
numpy version, so the digests are kept per OpenBLAS core name; on a core with
no file the test skips and names the core. The runs use paths relative to the
directory they run in, so config.txt holds no machine-specific path.

Record the file for the running core (after a change that alters bytes on
purpose, say why in CHANGES.md):

    PYTHONPATH=src python tests/test_golden.py
"""

import ctypes
import hashlib
import json
import os
import struct
import tempfile
from pathlib import Path

import pytest

import freqlab
from freqlab.cli import main

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

_TOY = ["toy-ce", "--preset", "desk-toy-ce", "--set", "hidden_widths=16,8", "--set", "epochs=40",
        "--set", "record_every=10"]
_MNIST = ["mnist-pca", "--preset", "desk-mnist-pca", "--set", "hidden_widths=8,4", "--set", "epochs=4",
          "--set", "record_every=2", "--set", "nufft_freqs=16"]
_JACOBI = ["poisson-jacobi", "--set", "grid_n=16", "--set", "max_iters=300"]
_D_JACOBI = ["d-jacobi", "--preset", "desk-d-jacobi", "--set", "hidden_widths=16,8", "--set", "grid_n=16",
             "--set", "epochs=400", "--set", "record_every=5", "--set", "plateau_window=10",
             "--set", "max_iters=20000"]
_POISSON_DNN = ["poisson-dnn", "--preset", "desk-poisson-dnn", "--set", "hidden_widths=8", "--set", "grid_n=16",
                "--set", "epochs=40", "--set", "record_every=10"]
_DIAGNOSE = ["diagnose-grad", "--set", "hidden_widths=8", "--set", "samples=16"]

# run name -> CLI arguments; each run also gets --svg and --out <name>
RUNS = {
    "toy-ce-tanh": _TOY,
    "toy-ce-relu": _TOY + ["--set", "activation=relu"],
    "toy-ce-model-denominator": _TOY + ["--set", "df_denominator=model"],
    "mnist-pca-synthetic": _MNIST + ["--set", "samples=60"],
    "mnist-pca-files": _MNIST + ["--set", "synthetic=false", "--set", "samples=24", "--seed", "1",
                                 "--mnist-images", "im.idx", "--mnist-labels", "lb.idx"],
    "poisson-direct": ["poisson-direct", "--set", "grid_n=16"],
    "poisson-jacobi-jacobi": _JACOBI,
    "poisson-jacobi-gauss-seidel": _JACOBI + ["--set", "hybrid_method=gauss_seidel"],
    "poisson-dnn": _POISSON_DNN,
    "poisson-dnn-halving": _POISSON_DNN + ["--set", "lr_halve_every=10"],
    "d-jacobi-jacobi": _D_JACOBI,
    "d-jacobi-gauss-seidel": _D_JACOBI + ["--set", "hybrid_method=gauss_seidel"],
    "diagnose-grad-mse": _DIAGNOSE,
    "diagnose-grad-cross-entropy": _DIAGNOSE + ["--set", "diag_loss=cross_entropy"],
}


def blas_core() -> str:
    """The kernel name numpy's bundled OpenBLAS picked for this CPU, or "unknown"."""
    getter = freqlab._openblas_function("get_corename")
    if getter is None:
        return "unknown"
    getter.argtypes, getter.restype = [], ctypes.c_char_p
    return getter().decode()


def write_idx_pair(count: int = 30, rows: int = 6, cols: int = 6) -> None:
    """im.idx and lb.idx in the current directory: count images with a fixed
    integer pixel pattern and labels cycling through all ten classes."""
    pixels = bytes((i * 97 + (i // 7) ** 2) % 256 for i in range(count * rows * cols))
    Path("im.idx").write_bytes(struct.pack(">IIII", 0x803, count, rows, cols) + pixels)
    Path("lb.idx").write_bytes(struct.pack(">II", 0x801, count) + bytes(i * 3 % 10 for i in range(count)))


def run_digests(name: str) -> dict[str, str]:
    """Run name into ./name and return the sha256 of each file it wrote."""
    if name == "mnist-pca-files":
        write_idx_pair()
    assert main([*RUNS[name], "--svg", "--out", name]) == 0, name
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path(name).iterdir())}


@pytest.fixture(scope="module")
def golden() -> dict:
    core = blas_core()
    path = GOLDEN_DIR / f"{core}.json"
    if not path.exists():
        pytest.skip(f"no golden digests for BLAS core {core}")
    return json.loads(path.read_text())


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(golden, tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    assert run_digests(name) == golden[name]


def test_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


if __name__ == "__main__":
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            digests = {name: run_digests(name) for name in sorted(RUNS)}
        finally:
            os.chdir(cwd)
    GOLDEN_DIR.mkdir(exist_ok=True)
    out = GOLDEN_DIR / f"{blas_core()}.json"
    out.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}: {sum(map(len, digests.values()))} files from {len(digests)} runs")
