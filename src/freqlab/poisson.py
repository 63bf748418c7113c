"""1-d Poisson problem -u'' = g on (-1, 1) with zero Dirichlet boundaries.

Central-difference discretization, direct tridiagonal solve, Jacobi and
Gauss-Seidel iterations, sine-mode error analysis of the Jacobi recursion,
and a hybrid that warm-starts an iterative method from an externally trained
grid approximation. The system is its right-hand side: assemble_poisson
returns rhs at the n-1 interior nodes, and the direct solve and every sweep
apply the constant 2/-1 stencil themselves. thomas_solve returns the direct
solution on all n+1 grid points, boundary zeros included; the iterations work
on the interior [1:-1]. The hybrid is two phases: a resumable TrainPhase, which
takes its stop policy once and returns a SwitchPoint per run, and hand_off,
which iterates from a SwitchPoint and returns the IterativeRun. run_hybrid is
their one composition: one stream handed off early, at the plateau and late,
and a cold start. Both histories, IterativeRun and the phase-one columns of a
SwitchPoint, are held as one list per column.

iterate sweeps in blocks through row views built once per call, each sweep
writing the next zero-padded row, and records each block at once, the mode
amplitudes as one stacked matmul that makes each row's BLAS call, so the bits
are those of one sweep at a time. Sweeps past the stop in the last block are
computed but not recorded; wall_ms is read after each sweep.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import DivergenceError
from .reporting import stopwatch

__all__ = [
    "Grid1D",
    "IterativeRun",
    "SwitchPoint",
    "TrainPhase",
    "METHODS",
    "g_rhs",
    "assemble_poisson",
    "solve_tridiagonal",
    "residual_inf",
    "thomas_solve",
    "jacobi_eigen",
    "sine_mode",
    "mode_amplitudes",
    "halving_ratio",
    "halving_count",
    "iterate",
    "hand_off",
    "Hybrid",
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


def g_rhs(x):
    """Source term sin(x) + 4 sin(4x) - 8 sin(8x) + 16 sin(24x)."""
    x = np.asarray(x, dtype=float)
    return np.sin(x) + 4.0 * np.sin(4.0 * x) - 8.0 * np.sin(8.0 * x) + 16.0 * np.sin(24.0 * x)


def assemble_poisson(grid: Grid1D, g_fn: Callable[[np.ndarray], np.ndarray] = g_rhs) -> np.ndarray:
    """Right-hand side of the central-difference system A u = rhs for -u'' = g
    on the grid with zero boundaries: rhs_i = dx^2 * g(x_i) at the interior
    nodes i = 1..n-1, so rhs.size = n - 1.

    A is the constant (n-1)x(n-1) stencil 2 on the diagonal and -1 off it,
    which the direct solve and the sweeps apply themselves; the right-hand
    side is the whole system.
    """
    m = grid.n - 1
    xs = grid.points[1:-1]
    rhs = grid.dx ** 2 * np.asarray(g_fn(xs), dtype=float)
    if rhs.shape != (m,):
        raise ValueError(f"g_fn returned shape {rhs.shape}, expected ({m},)")
    return rhs


def solve_tridiagonal(sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Thomas elimination for a general tridiagonal system.

    sub/sup have length m-1, diag and rhs length m. No pivoting; intended
    for the diagonally dominant / SPD systems used here. A zero pivot raises
    ZeroDivisionError.

    Forward elimination is one loop over the m rows, the bands padded with a
    zero below row 0 and above row m-1: row 0 subtracts 0.0 * 0.0, which
    leaves every value, -0.0 included, as it is.
    """
    m = len(diag)
    if len(rhs) != m or len(sub) != m - 1 or len(sup) != m - 1:
        raise ValueError("inconsistent tridiagonal band lengths")
    lower = np.concatenate(([0.0], sub))
    upper = np.concatenate((sup, [0.0]))
    c = np.zeros(m)
    d = np.zeros(m)  # row 0 reads c[-1] and d[-1] before row m-1 writes them: 0.0
    for i in range(m):
        piv = diag[i] - lower[i] * c[i - 1]
        if piv == 0.0:
            raise ZeroDivisionError("zero pivot in tridiagonal elimination")
        c[i] = upper[i] / piv
        d[i] = (rhs[i] - lower[i] * d[i - 1]) / piv
    u = np.empty(m)
    u[-1] = d[-1]
    for i in range(m - 2, -1, -1):
        u[i] = d[i] - c[i] * u[i + 1]
    return u


def _check_interior(rhs: np.ndarray, u: np.ndarray) -> None:
    if u.shape != (rhs.size,):
        raise ValueError(f"expected interior vector of length {rhs.size}, got shape {u.shape}")


def residual_inf(rhs: np.ndarray, u: np.ndarray) -> float:
    """||A u - rhs||_inf for interior values u."""
    _check_interior(rhs, u)
    r = 2.0 * u - rhs
    r[1:] -= u[:-1]
    r[:-1] -= u[1:]
    return float(np.max(np.abs(r)))


def thomas_solve(rhs: np.ndarray) -> np.ndarray:
    """Direct banded solve of A u = rhs, the reference the iterations chase,
    on all n+1 grid points: zeros at both ends, u at the interior [1:-1]."""
    m = rhs.size
    off = np.full(m - 1, -1.0)
    u = solve_tridiagonal(off, np.full(m, 2.0), off, rhs)
    res = residual_inf(rhs, u)
    # backward-stable bound: fp64 cannot do better than ~eps * (||A|| ||u|| + ||rhs||)
    scale = 4.0 * np.max(np.abs(u), initial=0.0) + np.max(np.abs(rhs), initial=0.0)
    if not res <= 1e-12 * max(scale, 1e-300):
        raise RuntimeError(f"tridiagonal solve residual {res:g} out of bounds")
    full = np.zeros(m + 2)
    full[1:-1] = u
    return full


def _jacobi(rhs: np.ndarray, states: np.ndarray) -> Callable[[int], Iterator[None]]:
    """Jacobi over the zero-padded rows of states, their views built once:
    sweeps(count) sweeps each row r < count into row r+1 and yields after each,
    dst_i <- ((src_{i-1} + src_{i+1}) + rhs_i) * 0.5. Rows hold n+1 values."""
    views = [(states[r, :-2], states[r, 2:], states[r + 1, 1:-1]) for r in range(len(states) - 1)]

    def sweeps(count: int) -> Iterator[None]:
        for left, right, out in views[:count]:
            np.add(left, right, out=out)
            out += rhs
            out *= 0.5
            yield
    return sweeps


def _gauss_seidel(rhs: np.ndarray, states: np.ndarray) -> Callable[[int], Iterator[None]]:
    """Forward Gauss-Seidel in _jacobi's form; each new value is used at once."""
    b = rhs.tolist()  # python floats: the same fp64 operations, without per-element numpy scalars
    views = [(states[r], states[r + 1, 1:-1]) for r in range(len(states) - 1)]

    def sweeps(count: int) -> Iterator[None]:
        for src, out in views[:count]:
            w = src.tolist()
            for i, x in enumerate(b):
                w[i + 1] = (w[i] + w[i + 2] + x) * 0.5
            out[:] = w[1:-1]
            yield
    return sweeps


#: the iterative methods by name, each to its sweep plan; config.validate reads the names from here
METHODS = {"jacobi": _jacobi, "gauss_seidel": _gauss_seidel}

#: sweeps that iterate computes before it records them at once
_BLOCK = 256


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
    """Iterations (real-valued) for mode k's amplitude to halve under Jacobi.

    log|lambda_k| = log1p(-2 sin^2(k' pi / 2n)), k' = min(k, n - k), keeps the
    slow modes' distance from 1 that cos(k pi / n) rounds away on fine grids.
    At k' = n/2 the angle is the double pi/4, where 2 sin^2 is just below 1, so
    the ratio is at least about 0.0192.
    """
    jacobi_eigen(n, k)  # raises ValueError for k outside 1..n-1
    return math.log(0.5) / math.log1p(-2.0 * math.sin(math.pi / 2 * (min(k, n - k) / n)) ** 2)


def halving_count(n: int, k: int) -> int:
    """Smallest integer l with |lambda_k|^l <= 1/2.

    The 1e-9 slack absorbs fp rounding of exact ties, e.g. k = n/4 where
    lambda^2 = 1/2 exactly but the evaluated ratio lands a few ulp above 2.
    The ratio is above 0.01 (see halving_ratio), so the count is at least 1.
    """
    return math.ceil(halving_ratio(n, k) - 1e-9)


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


def iterate(
    rhs: np.ndarray,
    u0: np.ndarray,
    u_star: np.ndarray,
    method: str = "jacobi",
    max_iters: int = 1000,
    track_modes: Sequence[int] = (),
    tol: float | None = None,
    timing: bool = False,
) -> IterativeRun:
    """Run Jacobi or Gauss-Seidel, recording sup error and tracked mode amplitudes.

    Records the initial state as iteration 0. Stops at the first iteration
    whose sup error against u_star reaches tol, or after max_iters sweeps.
    tol=None is taken as -inf, which no sup error reaches; a NaN one reaches no
    tol, so it sweeps on too.
    Sweeps run in blocks of up to _BLOCK rows through row views built once per
    call; each block is recorded at once, its mode amplitudes as one stacked
    product, so up to _BLOCK - 1 sweeps past the stop are computed and not
    recorded. wall_ms is read after each sweep.
    """
    plan = METHODS.get(method)
    if plan is None:
        raise ValueError(f"unknown method {method!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be >= 0, got {max_iters}")
    u0 = np.asarray(u0, dtype=float)
    _check_interior(rhs, u0)
    if u0.shape != u_star.shape:
        raise ValueError("u0 and u_star shapes differ")
    track = tuple(track_modes)
    if len(set(track)) != len(track):
        raise ValueError(f"track_modes repeats a mode: {track}")
    tol = -math.inf if tol is None else tol
    m = rhs.size
    n = m + 1
    basis = np.array([sine_mode(n, k) for k in track]).reshape(len(track), m)
    run = IterativeRun(alphas={k: [] for k in track})
    elapsed = stopwatch(timing)
    rows = max(1, min(_BLOCK, max_iters))
    states = np.zeros((rows + 1, m + 2))  # row 0 carries the last recorded state
    err = np.empty((rows, m))
    dots = np.empty((rows, len(track)))
    sweeps = plan(rhs, states)

    def record(first: int, count: int) -> None:
        """Record states[first:first + count], up to the first that meets tol."""
        e = err[:count]
        np.subtract(states[first:first + count, 1:-1], u_star, out=e)
        # per row the ddot/dgemv of np.matmul(basis, e[r]), so the same bits; e @ basis.T rounds differently
        np.matmul(basis, e[:, :, None], out=dots[:count, :, None])
        sups = np.abs(e, out=e).max(axis=1)
        hits = np.flatnonzero(sups <= tol)
        if hits.size:
            count = int(hits[0]) + 1
        run.sup_errors.extend(sups[:count].tolist())
        for k, column in zip(track, ((2.0 / n) * dots[:count]).T.tolist()):
            run.alphas[k].extend(column)

    states[0, 1:-1] = u0
    run.wall_ms.append(elapsed())
    record(0, 1)
    done = 0
    while done < max_iters and not run.sup_errors[-1] <= tol:  # not <=: a NaN error sweeps on
        count = min(rows, max_iters - done)
        for _ in sweeps(count):
            run.wall_ms.append(elapsed())
        record(1, count)
        del run.wall_ms[len(run.sup_errors):]
        states[0] = states[count]
        done += count
    return run


def _plateau_reached(losses: list[float], window: int, tol: float) -> bool:
    """Whether the mean of the last window losses is within tol, relative, of
    the mean of the window before it. tol is finite, so after a zero mean only
    a zero mean reaches it; a NaN mean never does."""
    if len(losses) < 2 * window:
        return False
    cur = float(np.mean(losses[-window:]))
    prev = float(np.mean(losses[-2 * window:-window]))
    return abs(cur - prev) <= tol * abs(prev)


def _require_positive_tol(tol: float) -> None:
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")


@dataclass
class SwitchPoint:
    """Where a train phase stopped: the state a hand-off starts from, and the
    phase-one columns a hybrid_*.csv reads, recorded up to it. Entry i of steps,
    wall_ms and sup_errors belongs to the i-th recorded training step. A start
    that no training made, such as run_hybrid's cold start (the zero function
    at step 0), has empty columns."""

    step: int
    plateau_detected: bool
    grid_values: np.ndarray          # full-grid values at step, a copy
    steps: list[int]
    wall_ms: list[float]
    sup_errors: list[float]


class TrainPhase:
    """Phase 1 of the hybrid: one training stream, consumed up to switch points.

    solver_stream yields (full-grid values, loss) per training step, starting
    with the untrained state at step 0; each state has reference's shape, the
    direct solution on all n+1 points that thomas_solve returns. The stop
    policy is fixed here: every record_every-th step is recorded with its sup
    error against reference over the interior [1:-1], and without a switch
    step training stops once the windowed-mean loss flattens (relative change
    at most plateau_tol, finite and positive, between adjacent windows of
    plateau_window recorded samples), and in any case at max_steps: a run's
    one stop step is its switch step capped at max_steps, or max_steps. Each
    run resumes the stream where the previous one stopped, so one stream
    serves several increasing switch points; the recorded columns and the
    stopwatch carry on across runs.
    """

    def __init__(self, solver_stream: Iterator[tuple[np.ndarray, float]], reference: np.ndarray,
                 record_every: int = 1, plateau_window: int = 200, plateau_tol: float = 0.01,
                 max_steps: int = 200_000, timing: bool = False):
        if record_every < 1:
            raise ValueError("record_every must be >= 1")
        if plateau_window < 2:
            raise ValueError("plateau_window must be >= 2")
        if not 0 < plateau_tol < math.inf:
            raise ValueError("plateau_tol must be finite and positive")
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

    def run(self, switch_step: int | None = None) -> SwitchPoint:
        """Train until the stop step, switch_step capped at max_steps, or --
        with no switch step -- until the loss plateau or max_steps. Consumes
        nothing if the stream already stands at or past the stop step. A
        stream with no state: ValueError."""
        plateau = False
        stop = self._max_steps if switch_step is None else min(switch_step, self._max_steps)
        if self._grid is None or self._step < stop:
            for step, (grid_values, loss) in self._stream:
                self._step = step
                self._grid = np.asarray(grid_values, dtype=float)
                if self._grid.shape != self._reference.shape:
                    raise ValueError(f"stream yielded shape {self._grid.shape}, "
                                     f"expected {self._reference.shape}")
                if step % self._record_every == 0:
                    sup = float(np.max(np.abs(self._grid[1:-1] - self._reference[1:-1])))
                    self._steps.append(step)
                    self._wall_ms.append(self._elapsed())
                    self._losses.append(float(loss))
                    self._sup_errors.append(sup)
                    # the loss windows move only when a sample is recorded
                    if switch_step is None and _plateau_reached(
                            self._losses, self._plateau_window, self._plateau_tol):
                        plateau = True
                        break
                if step >= stop:
                    break
        if self._grid is None:
            raise ValueError("solver stream yielded no states")
        # an exhausted stream switches at its last state, recorded or not
        return SwitchPoint(self._step, plateau, self._grid.copy(), self._steps[:], self._wall_ms[:],
                           self._sup_errors[:])


def hand_off(rhs: np.ndarray, reference: np.ndarray, at: SwitchPoint, method: str,
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
    return iterate(rhs, at.grid_values[1:-1], reference[1:-1], method=method,
                   max_iters=max_iters, tol=tol, timing=timing)


#: bytes of grid values run_hybrid keeps for its early switch; over it, a run replays
#: the early prefix. At fig5 (1,001 points, 8 KB a state, every step a candidate)
#: about 0.75 t states are held at step t, so a plateau after step 11,170 replays.
_EARLY_STATES_CAP = 64 * 2**20


def _early_switch(p: int) -> int:
    """The early hand-off step for a plateau at step p: p // 4, but at least
    step 1 and at most p itself (step 0 for p = 0)."""
    return min(max(1, p // 4), p)


class _EarlyStates:
    """Copies of the grid values at each step of a stream that can still turn
    out to be its early switch, _early_switch(p) for a stop p (a multiple of
    record_every, or max_steps); as p >= t, steps below _early_switch(t) are
    dropped before step t is added. A state, all of one size, that would cross
    _EARLY_STATES_CAP drops them all, for good."""

    def __init__(self, record_every: int, max_steps: int):
        self._switches = {_early_switch(p) for p in (*range(0, max_steps + 1, record_every), max_steps)}
        self._kept: deque[tuple[int, np.ndarray]] | None = deque()

    def passing(self, stream: Iterable[tuple[np.ndarray, float]]) -> Iterator[tuple[np.ndarray, float]]:
        """Pass stream's (values, loss) on, values as floats, the t-th at step t; keep candidates until take."""
        for t, (values, loss) in enumerate(stream):
            values, kept = np.asarray(values, dtype=float), self._kept
            if kept is not None:
                while kept and kept[0][0] < _early_switch(t):
                    kept.popleft()
                if t in self._switches:
                    if (len(kept) + 1) * values.nbytes > _EARLY_STATES_CAP:
                        self._kept = None
                    else:
                        kept.append((t, values.copy()))
            yield values, loss

    def take(self, step: int) -> np.ndarray | None:
        """The kept values at step, or None; frees every state and keeps no more."""
        kept, self._kept = self._kept or (), None
        return next((values for s, values in kept if s == step), None)


@dataclass
class Hybrid:
    """run_hybrid's hand-offs as (label, SwitchPoint, IterativeRun): early, plateau,
    late and cold; switched_at is the step its stream stopped at, the late switch."""

    hand_offs: list[tuple[str, SwitchPoint, IterativeRun]]
    switched_at: int


def run_hybrid(rhs: np.ndarray, reference: np.ndarray, streams: Callable[[], Iterable[tuple[np.ndarray, float]]],
               tol: float, method: str, max_iters: int, record_every: int, plateau_window: int,
               plateau_tol: float, max_steps: int, timing: bool = False) -> Hybrid:
    """Hand one training stream to method at its loss plateau p, early at
    _early_switch(p) and late at 2p (each stop capped at max_steps), beside a
    cold start from the zero function at step 0 with no phase-one columns; a
    tol that is not positive is rejected before training. streams() starts a
    fresh (full-grid values, loss) stream from the untrained state, each state
    of reference's shape. One stream runs on to the late switch: switched_at + 1
    steps. The early switch takes the grid values kept on the way (see
    _EarlyStates) and the plateau run's columns up to it; only over
    _EARLY_STATES_CAP is streams() called again, to replay to the early switch
    for its values alone, steps that switched_at + 1 leaves out. All training
    ends before the first hand-off."""
    _require_positive_tol(tol)
    early_states = _EarlyStates(record_every, max_steps)
    stream = TrainPhase(early_states.passing(streams()), reference, record_every, plateau_window,
                        plateau_tol, max_steps, timing)
    at_plateau = stream.run()
    early_step = _early_switch(at_plateau.step)
    early_values = early_states.take(early_step)  # frees the kept states before the late run
    at_late = stream.run(2 * at_plateau.step)
    if early_values is None:  # over the cap: replay the grid values up to early_step
        values, _ = next(itertools.islice(streams(), early_step, None))
        early_values = np.array(values, dtype=float)
    k = bisect.bisect_right(at_plateau.steps, early_step)  # the plateau run's recorded steps up to it
    at_early = SwitchPoint(early_step, False, early_values, at_plateau.steps[:k],
                           at_plateau.wall_ms[:k], at_plateau.sup_errors[:k])
    return Hybrid([(label, at, hand_off(rhs, reference, at, method, max_iters, tol, timing)) for label, at in (
        ("early", at_early), ("plateau", at_plateau), ("late", at_late),
        ("cold", SwitchPoint(0, False, np.zeros_like(reference), [], [], [])))], at_late.step)
