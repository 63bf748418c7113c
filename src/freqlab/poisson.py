"""1-d Poisson problem -u'' = g on (-1, 1) with zero Dirichlet boundaries.

Central-difference discretization, direct tridiagonal solve, Jacobi and
Gauss-Seidel iterations, sine-mode error analysis of the Jacobi recursion,
and a hybrid orchestrator that warm-starts an iterative method from an
externally trained grid approximation: a resumable train phase, then a
hand-off phase at each switch point.
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
    "IterRecord",
    "HybridConfig",
    "HybridReport",
    "SwitchPoint",
    "TrainPhase",
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
    """Uniform grid of n+1 points on [a, b]."""

    n: int
    a: float = -1.0
    b: float = 1.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"grid needs n >= 2 subintervals, got {self.n}")
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n

    @property
    def points(self) -> np.ndarray:
        return self.a + self.dx * np.arange(self.n + 1)


@dataclass
class TridiagSystem:
    """The (n-1)x(n-1) system A u = rhs from central differencing.

    A has 2 on the diagonal and -1 off it; rhs_i = dx^2 * g(x_i) at the
    interior nodes i = 1..n-1.
    """

    n: int
    sub: np.ndarray
    diag: np.ndarray
    sup: np.ndarray
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
    return TridiagSystem(
        n=grid.n,
        sub=np.full(m - 1, -1.0),
        diag=np.full(m, 2.0),
        sup=np.full(m - 1, -1.0),
        rhs=rhs,
    )


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
    r = system.diag * u - system.rhs
    r[1:] += system.sub * u[:-1]
    r[:-1] += system.sup * u[1:]
    return float(np.max(np.abs(r)))


def thomas_solve(system: TridiagSystem) -> ReferenceSolution:
    """Direct banded solve of A u = rhs; the reference the iterations chase."""
    u = solve_tridiagonal(system.sub, system.diag, system.sup, system.rhs)
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


_STEPPERS = {"jacobi": jacobi_step, "gauss_seidel": gauss_seidel_step}


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
class IterRecord:
    iteration: int
    wall_ms: float
    sup_error: float
    alphas: dict[int, float] = field(default_factory=dict)


@dataclass
class IterativeRun:
    """Per-iteration history of an iterative solve against a known reference."""

    method: str
    tracked_modes: tuple[int, ...]
    records: list[IterRecord] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        return self.records[-1].iteration if self.records else 0

    def sup_errors(self) -> np.ndarray:
        return np.array([r.sup_error for r in self.records])

    def alpha_trace(self, k: int) -> np.ndarray:
        if k not in self.tracked_modes:
            raise KeyError(f"mode {k} was not tracked")
        return np.array([r.alphas[k] for r in self.records])

    def halving_iteration(self, k: int) -> int | None:
        """First iteration at which |alpha_k| drops to half its initial value.

        The comparison carries 1e-9 relative slack so that modes whose
        amplitude hits exactly half (lambda^l = 1/2) count that iteration.
        """
        trace = np.abs(self.alpha_trace(k))
        target = 0.5 * trace[0] * (1.0 + 1e-9)
        hits = np.nonzero(trace <= target)[0]
        return int(self.records[hits[0]].iteration) if hits.size else None


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
    if method not in _STEPPERS:
        raise ValueError(f"unknown method {method!r}")
    step_fn = _STEPPERS[method]
    u = np.array(u0, dtype=float, copy=True)
    if u.shape != u_star.shape:
        raise ValueError("u0 and u_star shapes differ")
    track = tuple(track_modes)
    n = system.n
    if track:
        basis = np.stack([sine_mode(n, k) for k in track])  # (modes, n-1)
    run = IterativeRun(method=method, tracked_modes=track)
    elapsed = stopwatch(timing)

    def record(it: int):
        err = u - u_star
        alphas = {}
        if track:
            coeffs = (2.0 / n) * (basis @ err)
            alphas = {k: float(c) for k, c in zip(track, coeffs)}
        run.records.append(IterRecord(it, elapsed(), float(np.max(np.abs(err))), alphas))

    record(0)
    for it in range(1, max_iters + 1):
        if tol is not None and run.records[-1].sup_error <= tol:
            break
        u = step_fn(system, u)
        record(it)
    return run


@dataclass
class HybridConfig:
    """Switch policy and targets for the train-then-iterate hybrid."""

    target: float                      # sup-error goal for phase 2
    switch_step: int | None = None     # fixed step budget; None = plateau rule
    plateau_window: int = 200          # W, in recorded loss samples
    plateau_tol: float = 0.01          # relative change of windowed mean loss
    method: str = "jacobi"
    record_every: int = 1              # training steps between recorded samples
    max_steps: int = 200_000           # hard cap on phase-1 steps
    max_phase2_iters: int = 200_000

    def __post_init__(self):
        if self.plateau_window < 2:
            raise ValueError("plateau_window must be >= 2")
        if self.plateau_tol <= 0:
            raise ValueError("plateau_tol must be positive")
        if self.target <= 0:
            raise ValueError("target must be positive")


@dataclass
class PhaseOneRecord:
    step: int
    wall_ms: float
    loss: float
    sup_error: float


@dataclass
class HybridReport:
    switched_at: int
    plateau_detected: bool
    phase1: list[PhaseOneRecord]
    phase2: IterativeRun
    sup_error_at_switch: float

    @property
    def post_iterations(self) -> int:
        return self.phase2.iterations


def _plateau_reached(losses: list[float], window: int, tol: float) -> bool:
    if len(losses) < 2 * window:
        return False
    cur = float(np.mean(losses[-window:]))
    prev = float(np.mean(losses[-2 * window:-window]))
    if prev == 0.0:
        return abs(cur) == 0.0
    return abs(cur - prev) <= tol * abs(prev)


@dataclass
class SwitchPoint:
    """Where a train phase stopped: the state a hand-off starts from."""

    step: int
    plateau_detected: bool
    grid_values: np.ndarray          # full-grid values at step, a copy
    phase1: list[PhaseOneRecord]     # recorded steps up to step


class TrainPhase:
    """Phase 1 of the hybrid: one training stream, consumed up to switch points.

    solver_stream yields (full-grid values, loss) per training step, starting
    with the untrained state at step 0. run(cfg) consumes it until a stop rule
    fires, recording every cfg.record_every-th step against reference. A
    later run resumes the stream where the previous one stopped, so one
    stream serves several increasing switch points; the records and the
    stopwatch carry on across runs, so their cfgs should differ only in the
    stop rule.
    """

    def __init__(self, system: TridiagSystem, solver_stream: Iterator[tuple[np.ndarray, float]],
                 reference: ReferenceSolution, timing: bool = False):
        self._system = system
        self._reference = reference
        self._steps = enumerate(solver_stream)
        self._elapsed = stopwatch(timing)
        self._records: list[PhaseOneRecord] = []
        self._step = -1
        self._grid: np.ndarray | None = None

    def _at_stop_step(self, cfg: HybridConfig) -> bool:
        return (cfg.switch_step is not None and self._step >= cfg.switch_step) or self._step >= cfg.max_steps

    def run(self, cfg: HybridConfig) -> SwitchPoint:
        """Train until cfg.switch_step, or -- with no switch step -- until the
        windowed-mean loss flattens (relative change below cfg.plateau_tol
        between adjacent windows of cfg.plateau_window recorded samples), or
        until cfg.max_steps. Consumes nothing if the stream already stands at
        or past the switch step."""
        plateau = False
        if self._grid is None or not self._at_stop_step(cfg):
            for step, (grid_values, loss) in self._steps:
                self._step = step
                self._grid = np.asarray(grid_values, dtype=float)
                if self._grid.shape != (self._system.n + 1,):
                    raise ValueError(f"stream yielded shape {self._grid.shape}, "
                                     f"expected ({self._system.n + 1},)")
                if step % cfg.record_every == 0:
                    sup = float(np.max(np.abs(self._grid[1:-1] - self._reference.u_star)))
                    self._records.append(PhaseOneRecord(step, self._elapsed(), float(loss), sup))
                    # the loss windows move only when a sample is recorded
                    window = cfg.plateau_window
                    if cfg.switch_step is None and _plateau_reached(
                            [r.loss for r in self._records[-2 * window:]], window, cfg.plateau_tol):
                        plateau = True
                        break
                if self._at_stop_step(cfg):
                    break
            else:
                if self._grid is None:
                    raise ValueError("solver stream yielded no states")
        # an exhausted stream switches at its last state, recorded or not
        return SwitchPoint(self._step, plateau, self._grid.copy(), list(self._records))


def hand_off(system: TridiagSystem, reference: ReferenceSolution, at: SwitchPoint,
             cfg: HybridConfig, timing: bool = False) -> HybridReport:
    """Phase 2 of the hybrid: run cfg.method from the grid values at a switch point.

    The interior values seed the iteration; boundary entries are dropped since
    the scheme pins them at zero.
    """
    if not np.all(np.isfinite(at.grid_values)):
        raise DivergenceError(at.step, f"non-finite grid values at switch step {at.step}")
    u0 = at.grid_values[1:-1]
    phase2 = iterate(
        system,
        u0,
        reference.u_star,
        method=cfg.method,
        max_iters=cfg.max_phase2_iters,
        tol=cfg.target,
        timing=timing,
    )
    return HybridReport(
        switched_at=at.step,
        plateau_detected=at.plateau_detected,
        phase1=at.phase1,
        phase2=phase2,
        sup_error_at_switch=float(np.max(np.abs(u0 - reference.u_star))),
    )


def run_hybrid(
    system: TridiagSystem,
    solver_stream: Iterator[tuple[np.ndarray, float]],
    cfg: HybridConfig,
    timing: bool = False,
) -> HybridReport:
    """Train until the switch point, then hand the grid values to an iterative method.

    The two phases on one fresh stream against the system's own direct solve:
    TrainPhase(...).run(cfg), then hand_off. Callers that hand one stream off
    at several switch points, or already hold the reference, use the phases
    directly.
    """
    reference = thomas_solve(system)
    at = TrainPhase(system, solver_stream, reference, timing).run(cfg)
    return hand_off(system, reference, at, cfg, timing)
