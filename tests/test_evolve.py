"""Tests for the time integrators and their diagnostics."""

import numpy as np
import pytest

from protofield import catalog
from protofield.flatgrid import Axis
from protofield.linops import MatrixOperator, PreconditionError, SpaceTag
from protofield.matlaw import MaterialLaw, MaterialLawError, StepFailureError
from protofield.evolve import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    EvolutionaryProblem,
    SolverConfig,
    causality_check,
    dissipation_check,
    solve,
    solve_reduced,
    weighted_norm,
)


def scalar_problem(m0=1.0, m1=0.0, a=0.0, u0=1.0):
    t = SpaceTag("h", 1)
    law = MaterialLaw(m0=MatrixOperator([[m0]], t, t), m1=MatrixOperator([[m1]], t, t))
    A = MatrixOperator([[a]], t, t)
    return EvolutionaryProblem(law=law, a=A, initial=np.array([u0]))


def rotation_problem(u0=None):
    t = SpaceTag("h", 2)
    law = MaterialLaw(m0=MatrixOperator(np.eye(2), t, t),
                      m1=MatrixOperator(np.zeros((2, 2)), t, t))
    A = MatrixOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), t, t)
    return EvolutionaryProblem(law=law, a=A,
                               initial=np.array([1.0, 0.0]) if u0 is None else u0)


class TestSolve:
    def test_constant_trajectory(self):
        traj = solve(scalar_problem(), SolverConfig(tau=0.1, t_end=1.0,
                                                    scheme=IMPLICIT_EULER))
        assert np.abs(traj.states - 1.0).max() == 0.0

    def test_scalar_decay_closed_form(self):
        lam, tau = 0.7, 0.05
        traj = solve(scalar_problem(m1=lam),
                     SolverConfig(tau=tau, t_end=1.0, scheme=IMPLICIT_EULER))
        n = np.arange(len(traj))
        expected = (1.0 + tau * lam) ** (-n.astype(float))
        assert np.abs(traj.states[:, 0] - expected).max() <= 1e-13

    def test_rotation_norm_preserved_by_cn(self):
        traj = solve(rotation_problem(), SolverConfig(tau=0.1, t_end=20.0))
        norms = np.linalg.norm(traj.states, axis=1)
        assert np.abs(norms - 1.0).max() <= 1e-13

    def test_wellposedness_gate(self):
        t = SpaceTag("h", 2)
        law = MaterialLaw(m0=MatrixOperator(np.diag([1.0, 0.0]), t, t),
                          m1=MatrixOperator(np.zeros((2, 2)), t, t))
        prob = EvolutionaryProblem(law=law,
                                   a=MatrixOperator(np.zeros((2, 2)), t, t),
                                   initial=np.zeros(2))
        with pytest.raises(MaterialLawError):
            solve(prob, SolverConfig(tau=0.1, t_end=1.0))

    def test_non_skew_a_rejected(self):
        t = SpaceTag("h", 2)
        law = MaterialLaw(m0=MatrixOperator(np.eye(2), t, t),
                          m1=MatrixOperator(np.zeros((2, 2)), t, t))
        with pytest.raises(ValueError, match="skew"):
            EvolutionaryProblem(law=law, a=MatrixOperator(np.eye(2), t, t),
                                initial=np.zeros(2))

    @pytest.mark.parametrize("runner", [solve, solve_reduced])
    def test_near_singular_step_matrix_rejected(self, runner):
        # the law passes the gate (sym M1 = 1e-11 > 1e-12 on ker M0), but the
        # step matrix diag(1/tau, 5e-12, 1/tau) has pivot ratio 2e15; the
        # tiny rotation gives A a one-dimensional kernel to reduce over
        t = SpaceTag("h", 3)
        rot = 1e-20 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        law = MaterialLaw(m0=MatrixOperator(np.diag([1.0, 0.0, 1.0]), t, t),
                          m1=MatrixOperator(np.diag([0.0, 1e-11, 0.0]), t, t))
        prob = EvolutionaryProblem(law=law, a=MatrixOperator(rot, t, t),
                                   initial=np.ones(3))
        with pytest.raises(StepFailureError, match="condition estimate"):
            runner(prob, SolverConfig(tau=1e-4, t_end=1e-3))


class TestEnergy:
    def test_zero_state(self):
        traj = solve(scalar_problem(u0=0.0), SolverConfig(tau=0.1, t_end=1.0))
        assert np.abs(traj.energies).max() == 0.0

    def test_conservative_drift(self):
        entry = catalog.acoustics((Axis.interval(16),))
        rng = np.random.default_rng(0)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.01, t_end=10.0))
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-10

    def test_heat_strictly_decreasing(self):
        entry = catalog.heat((Axis.interval(12),))
        rng = np.random.default_rng(1)
        u0 = np.zeros(entry.dim)
        u0[:12] = rng.standard_normal(12)
        traj = solve(entry.problem(initial=u0),
                     SolverConfig(tau=0.01, t_end=0.5, scheme=IMPLICIT_EULER))
        assert np.all(np.diff(traj.energies) < 0)

    def test_cn_dissipation_identity(self):
        entry = catalog.acoustics((Axis.interval(10),), sigma=0.4)
        rng = np.random.default_rng(2)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.02, t_end=1.0))
        rep = dissipation_check(traj, entry.law, tol=1e-10)
        assert rep.holds and rep.monotone

    def test_energy_series_matches_definition(self):
        from protofield.evolve import energy_series

        entry = catalog.acoustics((Axis.interval(6),))
        rng = np.random.default_rng(3)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.1, t_end=0.5))
        w = entry.space.weight
        m0 = entry.law.m0.to_dense()
        series = energy_series(traj, entry.law.m0)
        for k in range(len(traj)):
            e = 0.5 * np.sum(w * (m0 @ traj.states[k]) * traj.states[k])
            assert traj.energies[k] == pytest.approx(e, rel=1e-13)
            assert series[k] == traj.energies[k]


class TestCausality:
    def test_zero_forcing_stays_zero(self):
        prob = scalar_problem(u0=0.0)
        assert causality_check(prob, SolverConfig(tau=0.1, t_end=1.0), t0=0.5)

    def test_switched_on_forcing(self):
        t = SpaceTag("h", 2)
        law = MaterialLaw(m0=MatrixOperator(np.eye(2), t, t),
                          m1=MatrixOperator(np.zeros((2, 2)), t, t))
        A = MatrixOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), t, t)

        def forcing(s):
            return np.array([1.0, 0.0]) if s >= 0.5 else np.zeros(2)

        prob = EvolutionaryProblem(law=law, a=A, initial=np.zeros(2), forcing=forcing)
        for scheme in (IMPLICIT_EULER, CRANK_NICOLSON):
            assert causality_check(prob, SolverConfig(tau=0.05, t_end=1.0,
                                                      scheme=scheme), t0=0.5)
            traj = solve(prob, SolverConfig(tau=0.05, t_end=1.0, scheme=scheme))
            before = traj.times < 0.5
            assert np.abs(traj.states[before]).max() == 0.0

    def test_nonzero_initial_rejected(self):
        prob = scalar_problem(u0=1.0)
        with pytest.raises(PreconditionError):
            causality_check(prob, SolverConfig(tau=0.1, t_end=1.0), t0=0.5)


class TestWeightedNorm:
    def test_constant_unit_state(self):
        traj = solve(scalar_problem(), SolverConfig(tau=0.05, t_end=1.0, nu=0.0))
        assert weighted_norm(traj, 0.0) == pytest.approx(1.0, abs=0.06)

    def test_zero_trajectory(self):
        traj = solve(scalar_problem(u0=0.0), SolverConfig(tau=0.1, t_end=1.0))
        assert weighted_norm(traj, 1.0) == 0.0

    def test_monotone_in_nu(self):
        traj = solve(rotation_problem(), SolverConfig(tau=0.05, t_end=2.0))
        assert weighted_norm(traj, 2.0) < weighted_norm(traj, 1.0)


class TestSolveReduced:
    def test_invertible_a_matches_plain_solve(self):
        prob = rotation_problem()
        cfg = SolverConfig(tau=0.1, t_end=2.0)
        full = solve(prob, cfg)
        red = solve_reduced(prob, cfg)
        assert np.abs(full.states - red.states).max() <= 1e-13

    def test_heat_with_kernel(self):
        entry = catalog.heat((Axis.torus(8),))
        rng = np.random.default_rng(4)
        u0 = rng.standard_normal(entry.dim)
        cfg = SolverConfig(tau=0.01, t_end=2.0)
        full = solve(entry.problem(initial=u0), cfg)
        red = solve_reduced(entry.problem(initial=u0), cfg)
        scale = max(np.abs(full.states).max(), 1.0)
        assert np.abs(full.states - red.states).max() / scale <= 1e-10

    def test_acoustics_on_torus(self):
        entry = catalog.acoustics((Axis.torus(8),))
        rng = np.random.default_rng(5)
        u0 = rng.standard_normal(entry.dim)
        cfg = SolverConfig(tau=0.01, t_end=2.0)
        full = solve(entry.problem(initial=u0), cfg)
        red = solve_reduced(entry.problem(initial=u0), cfg)
        scale = max(np.abs(full.states).max(), 1.0)
        assert np.abs(full.states - red.states).max() / scale <= 1e-10


class TestSparseStorage:
    def test_large_diagonal_system_uses_sparse_path(self):
        # every operator is stored as CSR and every step matrix is factored
        # by the sparse LU; a large identity law must stay sparse end to end
        from protofield.linops import identity, zero

        n = 4200
        t = SpaceTag("big", n)
        law = MaterialLaw(m0=identity(t), m1=zero(t, t))
        import scipy.sparse as sp

        assert sp.issparse(law.m0.entries) and law.m0.entries.format == "csr"
        prob = EvolutionaryProblem(law=law, a=zero(t, t),
                                   initial=np.ones(n))
        traj = solve(prob, SolverConfig(tau=0.1, t_end=0.3))
        assert np.abs(traj.states - 1.0).max() <= 1e-13


class TestConvergence:
    def scalar_errors(self, scheme, taus):
        lam = 1.0
        errs = []
        for tau in taus:
            traj = solve(scalar_problem(m1=lam),
                         SolverConfig(tau=tau, t_end=1.0, scheme=scheme))
            errs.append(abs(traj.states[-1, 0] - np.exp(-lam)))
        return errs

    def test_implicit_euler_first_order(self):
        taus = [0.1, 0.05, 0.025]
        errs = self.scalar_errors(IMPLICIT_EULER, taus)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 0.8

    def test_crank_nicolson_second_order(self):
        taus = [0.1, 0.05, 0.025]
        errs = self.scalar_errors(CRANK_NICOLSON, taus)
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8
