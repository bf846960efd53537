"""Time integration of evolutionary problems with energy and causality checks.

A problem couples a material law (M0, M1) with a skew-selfadjoint spatial
operator A, a forcing t -> vector, and an initial state.  Two one-step
schemes are provided:

    implicit Euler:  (M0/tau + M1 + A) u_{n+1} = M0 u_n / tau + F(t_{n+1})
    Crank-Nicolson:  (M0/tau + (M1+A)/2) u_{n+1}
                         = (M0/tau - (M1+A)/2) u_n + F(t_{n+1/2})

Where every axis of the grid is periodic and the step matrices commute
with the shifts (a constant law on a torus), both are cut into one small
symbol per wavenumber and the step matrix is inverted symbol by symbol,
once: a step is one batched product in wavenumber space, and a block of
steps goes back to physical states by one inverse FFT.  The step
matrices and the states are real, so their symbols and coordinates at
-xi are the conjugates of those at xi: only the wavenumbers up to n/2
along the last periodic axis, about half, are stepped.  Otherwise the
step matrix is factored once by the sparse LU.  Either way a step matrix
whose condition kappa_1 (exact on the symbols, estimated on the LU;
see matlaw) exceeds 1e15 raises StepFailureError.  solve_reduced is the
same evolution stepped on the range of A: both run one set-up (the
gate, the step matrices, the cut), and where A has both a range and a
kernel on the cut solve_reduced inverts the step matrix through the
Schur complement onto the range instead.  A run whose states or
energies stop being finite raises StepFailureError, at the end of the
block of steps where they first do.
Every pass over a trajectory's states (the march itself, the energies,
the dissipation and causality checks and the partial norms) walks one
block of rows at a time, so none allocates a temporary the size of the
trajectory.
Crank-Nicolson preserves the quadratic form <M0 u, u> exactly (up to the
linear solve) when M1 is skew or zero, and for zero forcing satisfies the
discrete dissipation identity
E_{n+1} - E_n = -tau <sym(M1) u_mid, u_mid>.  Both schemes are exactly
causal: states vanish identically before the forcing switches on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linops import MatrixOperator, PreconditionError, skew_defect
from .matlaw import (
    MaterialLaw,
    MaterialLawError,
    StepFailureError,
    check_wellposed,
    guarded_inverses,
    guarded_lu,
    schur_reduce,
    symmetrize,
)
from .subspaces import range_kernel_split, shift_cut

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"

SKEW_TOL = 1e-12
_BLOCK_BYTES = 2**20  # at 16 bytes per state entry: the steps of one row block (_row_blocks)


@dataclass(frozen=True)
class EvolutionaryProblem:
    """Material law + skew spatial operator + forcing + initial state.

    grid is the tuple of axes the fields live on (empty when unknown); the
    solves cut along the shifts of a grid whose every axis is periodic,
    and otherwise step in physical space by the sparse LU.
    """

    law: MaterialLaw
    a: MatrixOperator
    initial: np.ndarray
    forcing: object = None  # callable t -> vector, or None for no forcing
    grid: tuple = ()

    def __post_init__(self):
        if self.a.domain != self.law.space or self.a.codomain != self.law.space:
            raise ValueError("A must live on the law's space")
        defect = skew_defect(self.a)
        scale = max(self.a.max_abs(), 1.0)
        if defect > SKEW_TOL * scale:
            raise ValueError(
                f"A is not skew-selfadjoint: |A + A*| = {defect:.3e} (scale {scale:.3e})"
            )
        init = np.asarray(self.initial, dtype=float)
        if init.shape != (self.law.space.dim,):
            raise ValueError(
                f"initial state has shape {init.shape}, expected ({self.law.space.dim},)"
            )
        object.__setattr__(self, "initial", init)

    @property
    def space(self):
        return self.law.space

    def force_at(self, t):
        if self.forcing is None:
            return np.zeros(self.space.dim)
        f = np.asarray(self.forcing(t), dtype=float)
        if f.shape != (self.space.dim,):
            raise ValueError(f"forcing has shape {f.shape}, expected ({self.space.dim},)")
        return f


@dataclass(frozen=True)
class SolverConfig:
    """A run of `steps` = round(t_end / tau) >= 1 steps; it ends at steps * tau."""

    tau: float
    t_end: float
    scheme: str = CRANK_NICOLSON
    nu: float = 0.0

    def __post_init__(self):
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        ratio = self.t_end / self.tau
        if not (np.isfinite(ratio) and round(ratio) >= 1):
            raise ValueError(f"t_end / tau = {ratio:.6g} must be finite and round to a step")
        if self.scheme not in (IMPLICIT_EULER, CRANK_NICOLSON):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 <= self.nu < np.inf:
            raise ValueError(f"nu must be nonnegative and finite, got {self.nu}")

    @property
    def steps(self):
        return int(round(self.t_end / self.tau))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    energies: np.ndarray
    tau: float
    space: object  # SpaceTag of the states, for weighted diagnostics

    def __len__(self):
        return len(self.times)


def _step_operators(problem: EvolutionaryProblem, config: SolverConfig):
    m0, m1, a = problem.law.m0, problem.law.m1, problem.a
    inv_tau = 1.0 / config.tau
    if config.scheme == IMPLICIT_EULER:
        left = inv_tau * m0 + m1 + a
        right = inv_tau * m0
    else:
        half = 0.5 * (m1 + a)
        left = inv_tau * m0 + half
        right = inv_tau * m0 - half
    return left, right


class _PhysicalStep:
    """u <- L^-1 (R u + f) by the sparse LU of L, factored once by guarded_lu."""

    def __init__(self, left: MatrixOperator, right: MatrixOperator):
        self.lu_solve, self.right = guarded_lu(left.entries).solve, right

    def start(self, u0):
        return u0

    def step(self, u, f):
        rhs = self.right.apply(u)
        return self.lu_solve(rhs if f is None else rhs + f)

    def states(self, block):
        return np.stack(block)


class _WavenumberStep:
    """The step in the coordinates y = F S u of the cut.

    With H = L^-1 (inverse) and G = H R per wavenumber, y <- G y + H F S f,
    the forcing term only when f is given and nonzero; a block of states is
    S^-1 F^-1 applied to their coordinates as columns, in one inverse FFT.
    """

    def __init__(self, cut, inverse, right_symbols):
        self.cut, self.h = cut, inverse
        self.g = inverse @ right_symbols

    def start(self, u0):
        return self.cut.forward(u0[:, None])

    def step(self, y, f):
        y = self.g @ y
        if f is not None and f.any():
            y += self.h @ self.cut.forward(f[:, None])
        return y

    def states(self, block):
        return self.cut.inverse(np.concatenate(block, axis=2)).T


def _row_blocks(rows: int, dim: int):
    """The row slices of a run of `rows` states of size dim, one block at a time.

    A block holds the states of _BLOCK_BYTES // (16 dim) steps, at least
    one; row 0, the initial state, goes with the first block.  _march
    writes its states in these blocks, and every later pass over them
    walks the same ones.
    """
    block = max(_BLOCK_BYTES // (16 * dim), 1)
    for start in range(0, max(rows - 1, 1), block):
        yield slice(start and start + 1, min(start + block + 1, rows))


def _march(problem: EvolutionaryProblem, config: SolverConfig, stepper) -> Trajectory:
    """Step from the initial state with the stepper, sampling F once per step.

    A block of steps (_row_blocks) goes to physical states in one call,
    and their energies are taken while those rows are in cache.  A problem
    with no forcing passes None to the stepper, which then adds no forcing
    term.  Raises StepFailureError, naming the first step, when a state or
    its energy is not finite; the march stops at the end of that block, and
    such a run is never returned.
    """
    nsteps = config.steps
    times = np.arange(nsteps + 1) * config.tau
    offset = config.tau if config.scheme == IMPLICIT_EULER else config.tau / 2
    states = np.empty((nsteps + 1, problem.space.dim))
    states[0] = problem.initial
    energies = np.empty(nsteps + 1)
    y = stepper.start(problem.initial)
    with np.errstate(all="ignore"):  # overflow is reported below, by step
        for rows in _row_blocks(nsteps + 1, problem.space.dim):
            first, ys = max(rows.start, 1), []
            for k in range(first - 1, rows.stop - 1):
                f = None if problem.forcing is None else problem.force_at(times[k] + offset)
                y = stepper.step(y, f)
                ys.append(y)
            states[first:rows.stop] = stepper.states(ys)
            energies[rows] = energy_series_from_states(states[rows], problem.law.m0)
            finite = np.isfinite(states[rows]).all(axis=1) & np.isfinite(energies[rows])
            if not finite.all():
                k = rows.start + int(np.argmin(finite))
                raise StepFailureError(f"state or energy not finite at step {k} (t = {times[k]:.6g})")
    return Trajectory(times=times, states=states, energies=energies,
                      tau=config.tau, space=problem.space)


def _stepper(problem: EvolutionaryProblem, config: SolverConfig, reduced: bool):
    """The stepper of solve, or of solve_reduced when reduced, after the gate.

    The two differ only in how they invert the cut step matrix.
    """
    report = check_wellposed(problem.law)
    failed = [flag for flag in ("m0_nonneg", "kernel_block_positive")
              if not getattr(report, flag)]
    if failed:
        raise MaterialLawError("material law fails the well-posedness conditions: "
                               + ", ".join(f"{flag}=False" for flag in failed))
    left, right = _step_operators(problem, config)
    ops = (problem.a, left, right) if reduced else (left, right)
    cut, symbols = shift_cut(problem.space, problem.grid, *ops)
    if cut is None:
        return _PhysicalStep(left, right)
    l_symbols, r_symbols = symbols[-2:]
    split = range_kernel_split(cut, symbols[0], problem.space) if reduced else (None,)
    if None in split:  # nothing to eliminate: invert symbol by symbol
        inverse = guarded_inverses([l_symbols])[0]
    else:
        inverse = schur_reduce(l_symbols, *split)
    return _WavenumberStep(cut, inverse, r_symbols)


def solve(problem: EvolutionaryProblem, config: SolverConfig) -> Trajectory:
    """March the problem to t_end with the configured one-step scheme.

    Where shift_cut cuts problem.grid for both step matrices, the step is
    taken wavenumber by wavenumber; otherwise by the sparse LU in
    physical space.
    """
    return _march(problem, config, _stepper(problem, config, reduced=False))


def energy_series_from_states(states, m0: MatrixOperator) -> np.ndarray:
    w = m0.domain.weight
    mu = (m0.entries @ states.T).T
    return 0.5 * np.einsum("ij,ij->i", mu, states * w[None, :])


def energy_series(traj: Trajectory, m0: MatrixOperator) -> np.ndarray:
    """E_n = <M0 u_n, u_n> / 2 along the trajectory, a block of rows at a time.

    The blocks are the march's, so the series is bitwise traj.energies.
    """
    energies = np.empty(len(traj))
    for rows in _row_blocks(len(traj), traj.space.dim):
        energies[rows] = energy_series_from_states(traj.states[rows], m0)
    return energies


@dataclass(frozen=True)
class DissipationReport:
    max_residual: float
    tol: float
    holds: bool
    monotone: bool


def dissipation_check(traj: Trajectory, mlaw: MaterialLaw, tol: float = 1e-9) -> DissipationReport:
    """Check E_{n+1} - E_n = -tau <sym(M1) u_mid, u_mid> for a force-free CN run.

    The midpoints of a block are taken with the last state of the block
    before it, so each step's drop is computed once.
    """
    w, sym_m1 = mlaw.space.weight, symmetrize(mlaw.m1).entries
    energies = energy_series(traj, mlaw.m0)
    scale = max(energies.max(), 1.0)
    drops = np.empty(len(traj) - 1)
    for rows in _row_blocks(len(traj), traj.space.dim):
        lo = max(rows.start - 1, 0)
        mids = traj.states[lo:rows.stop - 1] + traj.states[lo + 1:rows.stop]
        mids *= 0.5
        drops[lo:rows.stop - 1] = np.einsum("ij,ij->i", (sym_m1 @ mids.T).T, mids * w)
    gains = np.diff(energies)
    max_res = float(np.abs(gains + traj.tau * drops).max(initial=0.0))
    monotone = bool(np.all(gains <= tol * scale))
    return DissipationReport(
        max_residual=max_res / scale,
        tol=tol,
        holds=max_res <= tol * scale,
        monotone=monotone,
    )


def causality_check(problem: EvolutionaryProblem, config: SolverConfig, t0: float) -> bool:
    """States must vanish (to 1e-13 of the forcing scale) strictly before t0.

    Requires zero initial data and a forcing that vanishes for t < t0;
    one-step implicit schemes then produce exact zeros before onset.
    """
    if np.any(problem.initial != 0.0):
        raise PreconditionError("causality check requires zero initial data")
    traj = solve(problem, config)
    fmax = max(
        (float(np.abs(problem.force_at(t)).max()) for t in traj.times),
        default=0.0,
    )
    before = int(np.count_nonzero(traj.times < t0))  # the times increase: the first rows
    if before == 0:
        return True
    state_max = max(float(np.abs(traj.states[rows]).max())
                    for rows in _row_blocks(before, problem.space.dim))
    return state_max <= 1e-13 * max(fmax, 1.0)


def weighted_partial_norms(traj: Trajectory, nu: float) -> np.ndarray:
    """Running trapezoidal norms of the exponentially weighted trajectory.

    Entry n approximates sqrt(int_0^{t_n} |u(t)|^2 exp(-2 nu t) dt); the
    first entry is 0.  Diagnostic only (the solvers never use it).
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    w = traj.space.weight
    squares = np.empty(len(traj))
    for rows in _row_blocks(len(traj), traj.space.dim):
        u = traj.states[rows]
        squares[rows] = np.einsum("ij,ij->i", u, u * w)
    # nu * t first: -2 nu overflows for a huge nu, and -inf * 0 is nan at t = 0
    vals = squares * np.exp(-2.0 * (nu * traj.times))
    steps = np.diff(traj.times) * 0.5 * (vals[1:] + vals[:-1])
    return np.sqrt(np.concatenate([[0.0], np.cumsum(steps)]))


def solve_reduced(problem: EvolutionaryProblem, config: SolverConfig) -> Trajectory:
    """Step the system on the range of A, reconstructing the kernel part.

    Where shift_cut cuts problem.grid for A and both step matrices, A is
    split into range and kernel wavenumber by wavenumber and the step
    matrix is Schur-reduced onto the range once; when A is invertible, or
    vanishes, there is nothing to eliminate and the step matrix is inverted
    symbol by symbol, as solve does.  Each step is then the wavenumber step
    of solve.
    Off such a cut the step is solve's: the sparse LU in physical space.
    """
    return _march(problem, config, _stepper(problem, config, reduced=True))
