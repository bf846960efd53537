"""Time integration of evolutionary problems with energy and causality checks.

A problem couples a material law (M0, M1) with a skew-selfadjoint spatial
operator A, a forcing t -> vector, and an initial state.  Two one-step
schemes are provided:

    implicit Euler:  (M0/tau + M1 + A) u_{n+1} = M0 u_n / tau + F(t_{n+1})
    Crank-Nicolson:  (M0/tau + (M1+A)/2) u_{n+1}
                         = (M0/tau - (M1+A)/2) u_n + F(t_{n+1/2})

The step matrix is factored once, by the sparse LU, and reused.
Crank-Nicolson preserves the quadratic form <M0 u, u> exactly (up to the
linear solve) when M1 is skew or zero, and for zero forcing satisfies the
discrete dissipation identity
E_{n+1} - E_n = -tau <sym(M1) u_mid, u_mid>.  Both schemes are exactly
causal: states vanish identically before the forcing switches on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .linops import MatrixOperator, PreconditionError, skew_defect
from .matlaw import (
    MaterialLaw,
    MaterialLawError,
    StepFailureError,
    check_pivots,
    check_wellposed,
    guarded_lu,
    schur_reduce,
    symmetrize,
)
from .subspaces import range_kernel_split, subspace_dim

IMPLICIT_EULER = "implicit_euler"
CRANK_NICOLSON = "crank_nicolson"

SKEW_TOL = 1e-12


@dataclass(frozen=True)
class EvolutionaryProblem:
    """Material law + skew spatial operator + forcing + initial state."""

    law: MaterialLaw
    a: MatrixOperator
    initial: np.ndarray
    forcing: object = None  # callable t -> vector, or None for no forcing

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
        return np.asarray(self.forcing(t), dtype=float)


@dataclass(frozen=True)
class SolverConfig:
    tau: float
    t_end: float
    scheme: str = CRANK_NICOLSON
    nu: float = 0.0

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.scheme not in (IMPLICIT_EULER, CRANK_NICOLSON):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: np.ndarray  # shape (len(times), dim)
    energies: np.ndarray
    scheme: str
    tau: float
    space: object = None  # SpaceTag of the states, for weighted diagnostics

    def __len__(self):
        return len(self.times)

    def state_at(self, t):
        idx = int(np.argmin(np.abs(self.times - t)))
        return self.states[idx]


def _factor(op: MatrixOperator):
    """Sparse LU of a step matrix, factored once; returns its solve function.

    Rejects a singular or numerically singular matrix (check_pivots on the
    diagonal of U) with StepFailureError.
    """
    try:
        lu = spla.splu(op.entries.tocsc())
    except RuntimeError as exc:
        raise StepFailureError(f"singular step matrix: {exc}") from exc
    check_pivots(lu.U.diagonal())
    return lu.solve


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


def solve(problem: EvolutionaryProblem, config: SolverConfig) -> Trajectory:
    """March the problem to t_end with the configured one-step scheme."""
    report = check_wellposed(problem.law)
    if not report.passed:
        raise MaterialLawError(
            "material law fails the well-posedness conditions: "
            f"m0_nonneg={report.m0_nonneg}, "
            f"kernel_block_positive={report.kernel_block_positive}"
        )
    left, right = _step_operators(problem, config)
    step_solve = _factor(left)
    nsteps = int(round(config.t_end / config.tau))
    times = np.arange(nsteps + 1) * config.tau
    dim = problem.space.dim
    states = np.empty((nsteps + 1, dim))
    states[0] = problem.initial
    for k in range(nsteps):
        t_sample = times[k] + (config.tau if config.scheme == IMPLICIT_EULER else config.tau / 2)
        rhs = right.apply(states[k]) + problem.force_at(t_sample)
        states[k + 1] = step_solve(rhs)
    energies = energy_series_from_states(states, problem.law.m0)
    return Trajectory(times=times, states=states, energies=energies,
                      scheme=config.scheme, tau=config.tau, space=problem.space)


def energy_series_from_states(states, m0: MatrixOperator) -> np.ndarray:
    w = m0.domain.weight
    mu = (m0.entries @ states.T).T
    return 0.5 * np.einsum("ij,ij->i", mu, states * w[None, :])


def energy_series(traj: Trajectory, m0: MatrixOperator) -> np.ndarray:
    """E_n = <M0 u_n, u_n> / 2 along the trajectory."""
    return energy_series_from_states(traj.states, m0)


@dataclass(frozen=True)
class DissipationReport:
    max_residual: float
    tol: float
    holds: bool
    monotone: bool


def dissipation_check(traj: Trajectory, mlaw: MaterialLaw, tol: float = 1e-9) -> DissipationReport:
    """Check E_{n+1} - E_n = -tau <sym(M1) u_mid, u_mid> for a force-free CN run."""
    sym_m1 = symmetrize(mlaw.m1)
    w = mlaw.space.weight
    energies = energy_series(traj, mlaw.m0)
    scale = max(energies.max(), 1.0)
    max_res = 0.0
    for k in range(len(traj) - 1):
        mid = 0.5 * (traj.states[k] + traj.states[k + 1])
        drop = float(np.sum(w * sym_m1.apply(mid) * mid))
        res = abs(energies[k + 1] - energies[k] + traj.tau * drop)
        max_res = max(max_res, res)
    monotone = bool(np.all(np.diff(energies) <= tol * scale))
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
    before = traj.times < t0
    if not before.any():
        return True
    state_max = float(np.abs(traj.states[before]).max())
    return state_max <= 1e-13 * max(fmax, 1.0)


def weighted_partial_norms(traj: Trajectory, nu: float) -> np.ndarray:
    """Running trapezoidal norms of the exponentially weighted trajectory.

    Entry n approximates sqrt(int_0^{t_n} |u(t)|^2 exp(-2 nu t) dt); the
    first entry is 0.  Diagnostic only (the solvers never use it).
    """
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    u = traj.states  # (n, dim)
    w = traj.space.weight if traj.space is not None else 1.0
    vals = np.einsum("ij,ij->i", u, u * w) * np.exp(-2.0 * nu * traj.times)
    steps = np.diff(traj.times) * 0.5 * (vals[1:] + vals[:-1])
    return np.sqrt(np.concatenate([[0.0], np.cumsum(steps)]))


def weighted_norm(traj: Trajectory, nu: float) -> float:
    """The exponentially weighted trajectory norm over the computed horizon."""
    return float(weighted_partial_norms(traj, nu)[-1])


def solve_reduced(problem: EvolutionaryProblem, config: SolverConfig,
                  split=None) -> Trajectory:
    """Step the system on the range of A, reconstructing the kernel part.

    The step matrix is Schur-reduced over the range/kernel splitting of A
    once; each step solves the reduced system for the range component and
    recovers the kernel component from the reconstruction recipe.  With an
    invertible A this degenerates to the plain solve.
    """
    report = check_wellposed(problem.law)
    if not report.passed:
        raise MaterialLawError("material law fails the well-posedness conditions")
    if split is None:
        split = range_kernel_split(problem.a)
    p_range, p_kernel = split
    if subspace_dim(p_kernel) == 0:
        return solve(problem, config)
    if subspace_dim(p_range) == 0:
        raise MaterialLawError("A vanishes: nothing to reduce onto")

    left, right = _step_operators(problem, config)
    reduced, recipe = schur_reduce(left, p_range, p_kernel)
    # the reduced matrix is dense by nature (SVD bases): dense LU, same guard
    step_solve = partial(sla.lu_solve, guarded_lu(reduced.to_dense()))
    nsteps = int(round(config.t_end / config.tau))
    times = np.arange(nsteps + 1) * config.tau
    states = np.empty((nsteps + 1, problem.space.dim))
    states[0] = problem.initial
    for k in range(nsteps):
        t_sample = times[k] + (config.tau if config.scheme == IMPLICIT_EULER else config.tau / 2)
        rhs = right.apply(states[k]) + problem.force_at(t_sample)
        x_r = step_solve(recipe.reduce_rhs(rhs))
        states[k + 1] = recipe.assemble(rhs, x_r)
    energies = energy_series_from_states(states, problem.law.m0)
    return Trajectory(times=times, states=states, energies=energies,
                      scheme=config.scheme, tau=config.tau, space=problem.space)
