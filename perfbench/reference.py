"""A fixed amount of work that uses no freqlab code: the benchmark's yardstick
for how fast this machine runs right now.

run.py runs it as a child before every repetition and scales the program's
times by it (see harness.REFERENCE_S). The mix follows the program's own:
interpreted Python loops, numpy on arrays of a few hundred values, small
matrix products with tanh, and 8 MB arrays written and read whole. Nothing
here may change, or results recorded before and after the change stop being
comparable.
"""

import numpy as np


def main() -> None:
    rng = np.random.Generator(np.random.PCG64(0))

    total = 0
    for i in range(250_000):
        total += i * i % 7

    u = np.zeros(514)
    b = rng.standard_normal(512) * 1e-3
    for _ in range(5_000):
        u[1:-1] = 0.5 * (u[:-2] + u[2:] + b)

    x = rng.standard_normal((256, 64))
    w = rng.standard_normal((64, 64)) * 0.1
    for _ in range(900):
        h = np.tanh(x @ w)
        w -= 1e-4 * (x.T @ (1.0 - h * h))

    for _ in range(25):
        big = np.full(1 << 20, float(total % 3))
        total += int(big.sum())

    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        raise SystemExit("reference computation went non-finite")


if __name__ == "__main__":
    main()
