"""The three training losses: summed square error, two-term cross entropy,
and the discretized boundary-penalized Dirichlet energy.

Each returns the scalar value together with its exact gradient with respect to
the network outputs, so the network backward pass stays loss-agnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .poisson import Grid1D, solve_tridiagonal

__all__ = [
    "LossValueGrad",
    "mse_loss",
    "cross_entropy_loss",
    "energy_loss",
    "discrete_energy_minimizer",
]

#: floor applied inside the cross-entropy logs
CE_EPS = 1e-12


@dataclass
class LossValueGrad:
    """Scalar loss plus its gradient with respect to the network outputs.

    Finite for finite inputs; training loops watch the value for divergence.
    """

    value: float
    grad: np.ndarray


def mse_loss(pred: np.ndarray, target: np.ndarray) -> LossValueGrad:
    """Summed square error: value = sum (pred - target)^2, grad = 2(pred - target)."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(target, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {t.shape}")
    diff = p - t
    # overflow to inf on diverged outputs is intended: trainers watch for it
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.sum(diff * diff))
    return LossValueGrad(value=value, grad=2.0 * diff)


def cross_entropy_loss(probs: np.ndarray, onehot: np.ndarray) -> LossValueGrad:
    """Two-term cross entropy summed over every output dimension and sample.

    value = -sum y*log(p) + (1-y)*log(1-p), with each log argument floored at
    1e-12 so exact 0/1 predictions stay finite; the gradient is the exact
    derivative of that floored expression (zero where the floor is active).
    The caller chains it through softmax.
    """
    p = np.asarray(probs, dtype=float)
    y = np.asarray(onehot, dtype=float)
    if p.shape != y.shape:
        raise ValueError(f"shape mismatch {p.shape} vs {y.shape}")
    if np.any(p < -1e-9) or np.any(p > 1.0 + 1e-9):
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("targets must be one-hot (0/1 entries)")
    pc = np.clip(p, CE_EPS, 1.0)
    qc = np.clip(1.0 - p, CE_EPS, 1.0)
    value = -float(np.sum(y * np.log(pc) + (1.0 - y) * np.log(qc)))
    grad = np.where((p > CE_EPS) & (p < 1.0), -y / pc, 0.0)
    grad = grad + np.where((1.0 - p > CE_EPS) & (p > 0.0), (1.0 - y) / qc, 0.0)
    return LossValueGrad(value=value, grad=grad)


def energy_loss(u_grid: np.ndarray, g_grid: np.ndarray, grid: Grid1D, beta: float) -> LossValueGrad:
    """Discrete boundary-penalized energy of a grid function on grid, with
    finite penalty weight beta >= 0.

    value = dx * sum_i 0.5*((u_{i+1}-u_i)/dx)^2 - dx * sum_i g_i u_i
            + beta * (u_0^2 + u_n^2)
    using forward differences and rectangle-rule weights; grad is the exact
    derivative with respect to every u_i.
    """
    if not 0.0 <= beta < math.inf:
        raise ValueError(f"beta must be finite and >= 0, got {beta}")
    u = np.asarray(u_grid, dtype=float)
    g = np.asarray(g_grid, dtype=float)
    npts = grid.n + 1
    if u.shape != (npts,) or g.shape != (npts,):
        raise ValueError(f"expected grid vectors of length {npts}")
    if npts < 3:
        raise ValueError("energy loss needs at least 3 grid points")
    dx = grid.dx
    # overflow to inf on diverged grid values is intended: trainers watch for it
    with np.errstate(over="ignore", invalid="ignore"):
        diff = (u[1:] - u[:-1]) / dx
        value = dx * 0.5 * float(np.sum(diff * diff)) - dx * float(np.sum(g * u))
        value += beta * float(u[0] * u[0] + u[-1] * u[-1])
        grad = -dx * g
        grad[:-1] -= diff
        grad[1:] += diff
        grad[0] += 2.0 * beta * u[0]
        grad[-1] += 2.0 * beta * u[-1]
    return LossValueGrad(value=value, grad=grad)


def discrete_energy_minimizer(g_grid: np.ndarray, grid: Grid1D, beta: float) -> np.ndarray:
    """Exact minimizer of energy_loss(., g_grid, grid, beta) over all grid functions.

    The energy is a convex quadratic; its stationarity conditions form a
    tridiagonal SPD system (for finite beta > 0) solved directly. beta = 0
    leaves the constant mode unpinned and is rejected.
    """
    g = np.asarray(g_grid, dtype=float)
    npts = grid.n + 1
    if g.shape != (npts,):
        raise ValueError(f"expected grid vector of length {npts}")
    if npts < 3:
        raise ValueError("energy minimizer needs at least 3 grid points")
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be finite and positive, got {beta}; "
                         "beta = 0 makes the system singular")
    dx = grid.dx
    diag = np.full(npts, 2.0 / dx)
    diag[0] = diag[-1] = 1.0 / dx + 2.0 * beta
    off = np.full(npts - 1, -1.0 / dx)
    return solve_tridiagonal(off, diag, off, dx * g)
