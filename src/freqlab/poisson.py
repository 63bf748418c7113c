"""1-d Poisson problem -u'' = g on (-1, 1) with zero Dirichlet boundaries.

Central-difference discretization, direct tridiagonal solve, Jacobi and
Gauss-Seidel iterations, sine-mode error analysis of the Jacobi recursion,
and a hybrid that warm-starts an iterative method from an externally trained
grid approximation. The hybrid is two phases: a resumable TrainPhase, which
takes its stop policy once and returns a SwitchPoint per run, and hand_off,
which iterates from a SwitchPoint and returns the IterativeRun; run_hybrid
composes them on one stream. Both histories, IterativeRun and the phase-one
columns of a SwitchPoint, are held as one list per column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import DivergenceError
from .reporting import stopwatch

__all__ = [
    "Grid1D",
    "TridiagSystem",
    "ReferenceSolution",
    "IterativeRun",
    "SwitchPoint",
    "TrainPhase",
    "STEPPERS",
    "g_rhs",
    "assemble_poisson",
    "solve_tridiagonal",
    "thomas_solve",
    "jacobi_step",
    "gauss_seidel_step",
    "jacobi_eigen",
    "sine_mode",
    "mode_amplitudes",
    "halving_ratio",
    "halving_count",
    "iterate",
    "hand_off",
    "run_hybrid",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid of n+1 points on the problem's interval [-1, 1]."""

    n: int

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2 subintervals, got {self.n}")

    @property
    def dx(self) -> float:
        return 2.0 / self.n

    @property
    def points(self) -> np.ndarray:
        return -1.0 + self.dx * np.arange(self.n + 1)


@dataclass
class TridiagSystem:
    """The (n-1)x(n-1) system A u = rhs from central differencing.

    A is the constant stencil 2 on the diagonal and -1 off it, which the
    solvers and steppers apply directly; rhs_i = dx^2 * g(x_i) at the
    interior nodes i = 1..n-1.
    """

    n: int
    rhs: np.ndarray

    @property
    def size(self) -> int:
        return self.n - 1


@dataclass
class ReferenceSolution:
    """Direct solution of a TridiagSystem with boundary zeros appended."""

    u_star: np.ndarray       # interior values, length n-1
    full: np.ndarray         # length n+1, zeros at both ends
    residual_inf: float      # ||A u_star - rhs||_inf of the computed solution


def g_rhs(x):
    """Source term sin(x) + 4 sin(4x) - 8 sin(8x) + 16 sin(24x)."""
    x = np.asarray(x, dtype=float)
    return np.sin(x) + 4.0 * np.sin(4.0 * x) - 8.0 * np.sin(8.0 * x) + 16.0 * np.sin(24.0 * x)


def assemble_poisson(grid: Grid1D, g_fn: Callable[[np.ndarray], np.ndarray] = g_rhs) -> TridiagSystem:
    """Central-difference system for -u'' = g on the grid, zero boundaries."""
    m = grid.n - 1
    xs = grid.points[1:-1]
    rhs = grid.dx ** 2 * np.asarray(g_fn(xs), dtype=float)
    if rhs.shape != (m,):
        raise ValueError(f"g_fn returned shape {rhs.shape}, expected ({m},)")
    return TridiagSystem(n=grid.n, rhs=rhs)


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas elimination for a general tridiagonal system.

    sub/sup have length m-1, diag and rhs length m. No pivoting; intended
    for the diagonally dominant / SPD systems used here.
    """
    m = len(diag)
    if len(rhs) != m or len(sub) != m - 1 or len(sup) != m - 1:
        raise ValueError("inconsistent tridiagonal band lengths")
    c = np.empty(m - 1) if m > 1 else np.empty(0)
    d = np.empty(m)
    piv = diag[0]
    if piv == 0.0:
        raise ZeroDivisionError("zero pivot in tridiagonal elimination")
    d[0] = rhs[0] / piv
    if m > 1:
        c[0] = sup[0] / piv
    for i in range(1, m):
        piv = diag[i] - sub[i - 1] * c[i - 1]
        if piv == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal elimination")
        d[i] = (rhs[i] - sub[i - 1] * d[i - 1]) / piv
        if i < m - 1:
            c[i] = sup[i] / piv
    u = np.empty(m)
    u[-1] = d[-1]
    for i in range(m - 2, -1, -1):
        u[i] = d[i] - c[i] * u[i + 1]
    return u


def _residual_inf(system: TridiagSystem, u: np.ndarray) -> float:
    r = 2.0 * u - system.rhs
    r[1:] -= u[:-1]
    r[:-1] -= u[1:]
    return float(np.max(np.abs(r)))


def thomas_solve(system: TridiagSystem) -> ReferenceSolution:
    """Direct banded solve of A u = rhs; the reference the iterations chase."""
    m = system.size
    off = np.full(m - 1, -1.0)
    u = solve_tridiagonal(off, np.full(m, 2.0), off, system.rhs)
    res = _residual_inf(system, u)
    # backward-stable bound: fp64 cannot do better than ~eps * (||A|| ||u|| + ||rhs||)
    scale = 4.0 * np.max(np.abs(u), initial=0.0) + np.max(np.abs(system.rhs), initial=0.0)
    if not res <= 1e-12 * max(scale, 1e-300):
        raise RuntimeError(f"tridiagonal solve residual {res:g} out of bounds")
    full = np.zeros(system.n + 1)
    full[1:-1] = u
    return ReferenceSolution(u_star=u, full=full, residual_inf=res)


def jacobi_step(system: TridiagSystem, u: np.ndarray) -> np.ndarray:
    """One Jacobi sweep: u_i <- (u_{i-1} + u_{i+1} + rhs_i) / 2, boundaries zero."""
    m = system.size
    if u.shape != (m,):
        raise ValueError(f"expected interior vector of length {m}, got shape {u.shape}")
    ext = np.zeros(m + 2)
    ext[1:-1] = u
    return (ext[:-2] + ext[2:] + system.rhs) * 0.5


def gauss_seidel_step(system: TridiagSystem, u: np.ndarray) -> np.ndarray:
    """One forward Gauss-Seidel sweep; new values used as soon as available."""
    m = system.size
    if u.shape != (m,):
        raise ValueError(f"expected interior vector of length {m}, got shape {u.shape}")
    w = u.copy()
    rhs = system.rhs
    left = 0.0
    for i in range(m):
        right = w[i + 1] if i + 1 < m else 0.0
        w[i] = (left + right + rhs[i]) * 0.5
        left = w[i]
    return w


#: the iterative methods by name; config.validate reads the names from here
STEPPERS = {"jacobi": jacobi_step, "gauss_seidel": gauss_seidel_step}


def jacobi_eigen(n: int, k: int) -> float:
    """Eigenvalue cos(k pi / n) of the Jacobi iteration matrix, k = 1..n-1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"mode index k={k} out of range 1..{n - 1}")
    return math.cos(k * math.pi / n)


def sine_mode(n: int, k: int) -> np.ndarray:
    """Eigenvector v_k with entries sin(j k pi / n), j = 1..n-1."""
    if not 1 <= k <= n - 1:
        raise ValueError(f"mode index k={k} out of range 1..{n - 1}")
    j = np.arange(1, n)
    return np.sin(j * k * math.pi / n)


def mode_amplitudes(err: np.ndarray, n: int) -> np.ndarray:
    """Coefficients alpha_k of err in the sine eigenbasis, k = 1..n-1.

    Uses ||v_k||^2 = n/2, so alpha_k = (2/n) sum_j err_j sin(j k pi / n).
    """
    if err.shape != (n - 1,):
        raise ValueError(f"expected length {n - 1}, got shape {err.shape}")
    j = np.arange(1, n)
    s = np.sin(np.outer(j, j) * (math.pi / n))  # s[j-1, k-1] = sin(jk pi/n)
    return (2.0 / n) * (s.T @ err)


def halving_ratio(n: int, k: int) -> float:
    """Iterations (real-valued) for mode k's amplitude to halve under Jacobi."""
    lam = abs(jacobi_eigen(n, k))
    if lam == 0.0:
        return 0.0
    return math.log(0.5) / math.log(lam)


def halving_count(n: int, k: int) -> int:
    """Smallest integer l with |lambda_k|^l <= 1/2.

    The 1e-9 slack absorbs fp rounding of exact ties, e.g. k = n/4 where
    lambda^2 = 1/2 exactly but the evaluated ratio lands a few ulp above 2.
    """
    return max(1, math.ceil(halving_ratio(n, k) - 1e-9))


@dataclass
class IterativeRun:
    """Per-iteration history of an iterative solve against a known reference:
    one list per column, alphas one per tracked mode k. Entry i of each list
    belongs to iteration i; iteration 0 is the initial state."""

    wall_ms: list[float] = field(default_factory=list)
    sup_errors: list[float] = field(default_factory=list)
    alphas: dict[int, list[float]] = field(default_factory=dict)

    @property
    def iterations(self) -> int:
        return max(len(self.sup_errors) - 1, 0)

    def halving_iteration(self, k: int) -> int | None:
        """First iteration at which |alpha_k| drops to half its initial value.

        The comparison carries 1e-9 relative slack so that modes whose
        amplitude hits exactly half (lambda^l = 1/2) count that iteration.
        """
        trace = np.abs(self.alphas[k])
        target = 0.5 * trace[0] * (1.0 + 1e-9)
        hits = np.nonzero(trace <= target)[0]
        return int(hits[0]) if hits.size else None


def iterate(
    system: TridiagSystem,
    u0: np.ndarray,
    u_star: np.ndarray,
    method: str = "jacobi",
    max_iters: int = 1000,
    track_modes: Sequence[int] = (),
    tol: float | None = None,
    timing: bool = False,
) -> IterativeRun:
    """Run Jacobi or Gauss-Seidel, recording sup error and tracked mode amplitudes.

    Records the initial state as iteration 0. Stops once the sup error against
    u_star reaches tol (checked before each sweep) or after max_iters sweeps.
    """
    if method not in STEPPERS:
        raise ValueError(f"unknown method {method!r}")
    step_fn = STEPPERS[method]
    u = np.array(u0, dtype=float, copy=True)
    if u.shape != u_star.shape:
        raise ValueError("u0 and u_star shapes differ")
    track = tuple(track_modes)
    n = system.n
    basis = np.array([sine_mode(n, k) for k in track]).reshape(len(track), n - 1)
    run = IterativeRun(alphas={k: [] for k in track})
    elapsed = stopwatch(timing)

    def record():
        err = u - u_star
        for k, c in zip(track, (2.0 / n) * (basis @ err)):
            run.alphas[k].append(float(c))
        run.wall_ms.append(elapsed())
        run.sup_errors.append(float(np.max(np.abs(err))))

    record()
    for _ in range(max_iters):
        if tol is not None and run.sup_errors[-1] <= tol:
            break
        u = step_fn(system, u)
        record()
    return run


def _plateau_reached(losses: list[float], window: int, tol: float) -> bool:
    if len(losses) < 2 * window:
        return False
    cur = float(np.mean(losses[-window:]))
    prev = float(np.mean(losses[-2 * window:-window]))
    if prev == 0.0:
        return abs(cur) == 0.0
    return abs(cur - prev) <= tol * abs(prev)


def _require_positive_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


@dataclass
class SwitchPoint:
    """Where a train phase stopped: the state a hand-off starts from, and the
    phase-one columns recorded up to it. Entry i of steps, wall_ms, losses and
    sup_errors belongs to the i-th recorded training step."""

    step: int
    plateau_detected: bool
    grid_values: np.ndarray          # full-grid values at step, a copy
    steps: list[int]
    wall_ms: list[float]
    losses: list[float]
    sup_errors: list[float]


class TrainPhase:
    """Phase 1 of the hybrid: one training stream, consumed up to switch points.

    solver_stream yields (full-grid values, loss) per training step, starting
    with the untrained state at step 0. The stop policy is fixed here: every
    record_every-th step is recorded against reference, and without a switch
    step training stops once the windowed-mean loss flattens (relative change
    at most plateau_tol between adjacent windows of plateau_window recorded
    samples), and in any case at max_steps. Each run resumes the stream where
    the previous one stopped, so one stream serves several increasing switch
    points; the recorded columns and the stopwatch carry on across runs.
    """

    def __init__(self, system: TridiagSystem, solver_stream: Iterator[tuple[np.ndarray, float]],
                 reference: ReferenceSolution, record_every: int = 1, plateau_window: int = 200,
                 plateau_tol: float = 0.01, max_steps: int = 200_000, timing: bool = False):
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        if plateau_window < 2:
            raise ValueError("plateau_window must be >= 2")
        if not plateau_tol > 0:
            raise ValueError("plateau_tol must be positive")
        self._system = system
        self._reference = reference
        self._record_every = record_every
        self._plateau_window = plateau_window
        self._plateau_tol = plateau_tol
        self._max_steps = max_steps
        self._stream = enumerate(solver_stream)
        self._elapsed = stopwatch(timing)
        self._steps: list[int] = []
        self._wall_ms: list[float] = []
        self._losses: list[float] = []
        self._sup_errors: list[float] = []
        self._step = -1
        self._grid: np.ndarray | None = None

    def _at_stop_step(self, switch_step: int | None) -> bool:
        return (switch_step is not None and self._step >= switch_step) or self._step >= self._max_steps

    def run(self, switch_step: int | None = None) -> SwitchPoint:
        """Train until switch_step, or -- with no switch step -- until the loss
        plateau, or until max_steps. Consumes nothing if the stream already
        stands at or past the stop step."""
        plateau = False
        if self._grid is None or not self._at_stop_step(switch_step):
            for step, (grid_values, loss) in self._stream:
                self._step = step
                self._grid = np.asarray(grid_values, dtype=float)
                if self._grid.shape != (self._system.n + 1,):
                    raise ValueError(f"stream yielded shape {self._grid.shape}, "
                                     f"expected ({self._system.n + 1},)")
                if step % self._record_every == 0:
                    sup = float(np.max(np.abs(self._grid[1:-1] - self._reference.u_star)))
                    self._steps.append(step)
                    self._wall_ms.append(self._elapsed())
                    self._losses.append(float(loss))
                    self._sup_errors.append(sup)
                    # the loss windows move only when a sample is recorded
                    if switch_step is None and _plateau_reached(
                            self._losses, self._plateau_window, self._plateau_tol):
                        plateau = True
                        break
                if self._at_stop_step(switch_step):
                    break
            else:
                if self._grid is None:
                    raise ValueError("solver stream yielded no states")
        # an exhausted stream switches at its last state, recorded or not
        return SwitchPoint(self._step, plateau, self._grid.copy(), self._steps[:], self._wall_ms[:],
                           self._losses[:], self._sup_errors[:])


def hand_off(system: TridiagSystem, reference: ReferenceSolution, at: SwitchPoint, method: str,
             max_iters: int, tol: float, timing: bool = False) -> IterativeRun:
    """Phase 2 of the hybrid: iterate method from the grid values at a switch
    point until the sup error reaches tol or for max_iters sweeps.

    The interior values seed the iteration; boundary entries are dropped since
    the scheme pins them at zero. Iteration 0 of the result is the switch
    point's own state, so its sup_errors[0] is the error at the switch.
    """
    _require_positive_tol(tol)
    if not np.all(np.isfinite(at.grid_values)):
        raise DivergenceError(at.step, f"non-finite grid values at switch step {at.step}")
    return iterate(system, at.grid_values[1:-1], reference.u_star, method=method,
                   max_iters=max_iters, tol=tol, timing=timing)


def run_hybrid(system: TridiagSystem, solver_stream: Iterator[tuple[np.ndarray, float]], tol: float,
               switch_step: int | None = None, method: str = "jacobi", max_iters: int = 200_000,
               timing: bool = False, **policy) -> tuple[SwitchPoint, IterativeRun]:
    """Train until the switch point, then hand the grid values to an iterative method.

    The two phases on one fresh stream against the system's own direct solve:
    TrainPhase(system, solver_stream, reference, **policy, timing=timing)
    .run(switch_step), then hand_off. policy takes TrainPhase's record_every,
    plateau_window, plateau_tol and max_steps. Callers that hand one stream
    off at several switch points, or already hold the reference, use the
    phases directly.
    """
    _require_positive_tol(tol)
    reference = thomas_solve(system)
    at = TrainPhase(system, solver_stream, reference, **policy, timing=timing).run(switch_step)
    return at, hand_off(system, reference, at, method, max_iters, tol, timing)
