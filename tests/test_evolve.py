"""Tests for the time integrators and their diagnostics."""

import math
import re
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, reject, settings, strategies as st

from protofield import catalog, evolve
from protofield.flatgrid import PERIODIC, Axis
from protofield.linops import MatrixOperator, PreconditionError, SpaceTag, zero
from protofield.matlaw import MaterialLaw, MaterialLawError, StepFailureError
from protofield.subspaces import ShiftCut
from protofield.evolve import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    EvolutionaryProblem,
    SolverConfig,
    causality_check,
    dissipation_check,
    solve,
    solve_reduced,
    weighted_partial_norms,
)


def scalar_problem(m0=1.0, m1=0.0, a=0.0, u0=1.0):
    t = SpaceTag("h", 1)
    law = MaterialLaw(m0=MatrixOperator([[m0]], t, t), m1=MatrixOperator([[m1]], t, t))
    A = MatrixOperator([[a]], t, t)
    return EvolutionaryProblem(law=law, a=A, initial=np.array([u0]))


def physical(problem):
    """The problem with no grid: solve steps it by the sparse LU in physical space."""
    return replace(problem, grid=())


def relative_gap(traj, reference):
    return np.abs(traj.states - reference.states).max() / np.abs(reference.states).max()


def rotation_problem(u0=None):
    t = SpaceTag("h", 2)
    law = MaterialLaw(m0=MatrixOperator(np.eye(2), t, t),
                      m1=MatrixOperator(np.zeros((2, 2)), t, t))
    A = MatrixOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), t, t)
    return EvolutionaryProblem(law=law, a=A,
                               initial=np.array([1.0, 0.0]) if u0 is None else u0)


class TestSolve:
    def test_skew_check_attaches_no_adjoint(self):
        # the problem's skew check takes A's weighted transpose without
        # keeping it on A; a block-skew A keeps the adjoint it was built with
        entry = catalog.thermo_elasticity((Axis.torus(4),) * 3)
        entry.problem()
        assert entry.a._adj is None
        acoustic = catalog.acoustics((Axis.interval(6),))
        paired = acoustic.a.adjoint()
        acoustic.problem()
        assert acoustic.a.adjoint() is paired

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
        with pytest.raises(MaterialLawError, match=r"conditions: kernel_block_positive=False$"):
            solve(prob, SolverConfig(tau=0.1, t_end=1.0))

    def test_an_exactly_diagonal_law_passes_the_gate(self):
        # a diagonal M0 is selfadjoint under any weights: no absolute
        # selfadjointness test scaled by its entries (1.4e4 here) may reject it
        entry = catalog.acoustics((Axis.torus(6),), rho=13687.617154257521)
        traj = solve(entry.problem(initial=np.ones(entry.dim)), SolverConfig(tau=0.01, t_end=0.1))
        assert len(traj) == 11 and np.isfinite(traj.states).all()

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
        # step matrix diag(1/tau, 5e-12, 1/tau) has kappa_1 2e15; the
        # tiny rotation gives A a one-dimensional kernel to reduce over
        t = SpaceTag("h", 3)
        rot = 1e-20 * np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        law = MaterialLaw(m0=MatrixOperator(np.diag([1.0, 0.0, 1.0]), t, t),
                          m1=MatrixOperator(np.diag([0.0, 1e-11, 0.0]), t, t))
        prob = EvolutionaryProblem(law=law, a=MatrixOperator(rot, t, t),
                                   initial=np.ones(3))
        with pytest.raises(StepFailureError, match="condition estimate"):
            runner(prob, SolverConfig(tau=1e-4, t_end=1e-3))

    @pytest.mark.parametrize("grid", [(Axis.interval(8),), (Axis.torus(4),) * 2],
                             ids=["lu", "wavenumber"])
    @pytest.mark.parametrize("bad", [1.0, np.ones(1)], ids=["scalar", "one_entry"])
    def test_forcing_of_the_wrong_shape_rejected(self, grid, bad):
        entry = catalog.heat(grid)
        problem = entry.problem(forcing=lambda t: bad)
        shapes = re.escape(f"forcing has shape {np.shape(bad)}, expected ({entry.dim},)")
        with pytest.raises(ValueError, match=shapes):
            solve(problem, SolverConfig(tau=0.01, t_end=0.1))


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
        rep = dissipation_check(traj, entry.law)
        assert rep.holds and rep.max_residual <= 1e-10
        scale = max(traj.energies.max(), 1.0)
        assert np.all(np.diff(traj.energies) <= evolve.DISSIPATION_TOL * scale)

    def test_dissipation_residual_matches_the_step_by_step_sum(self):
        # the vectorized residual against the per-step loop it replaces
        from protofield.matlaw import symmetrize

        entry = catalog.reissner_mindlin((Axis.interval(6), Axis.interval(6)), d=0.5)
        rng = np.random.default_rng(8)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.02, t_end=1.0))
        sym_m1, w, tau = symmetrize(entry.law.m1), entry.space.weight, traj.times[1]
        energies = traj.energies
        loop = 0.0
        for k in range(len(traj) - 1):
            mid = 0.5 * (traj.states[k] + traj.states[k + 1])
            drop = float(np.sum(w * sym_m1.apply(mid) * mid))
            loop = max(loop, abs(energies[k + 1] - energies[k] + tau * drop))
        rep = dissipation_check(traj, entry.law)
        scale = max(energies.max(), 1.0)
        assert rep.holds
        assert abs(rep.max_residual - loop / scale) <= 1e-14

    def test_energy_series_matches_definition(self):
        entry = catalog.acoustics((Axis.interval(6),))
        rng = np.random.default_rng(3)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.1, t_end=0.5))
        w = entry.space.weight
        m0 = entry.law.m0.to_dense()
        for k in range(len(traj)):
            e = 0.5 * np.sum(w * (m0 @ traj.states[k]) * traj.states[k])
            assert traj.energies[k] == pytest.approx(e, rel=1e-13)


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

    @pytest.mark.parametrize("gridless", [False, True], ids=["wavenumber", "lu"])
    def test_no_forcing_passes_no_forcing_term(self, gridless, monkeypatch):
        # a problem with no forcing hands None to the stepper at every step,
        # and steps exactly as with an explicit zero forcing
        entry = catalog.thermo_elasticity((Axis.torus(4),) * 3)
        problem = entry.problem(initial=np.random.default_rng(17).standard_normal(entry.dim))
        problem = physical(problem) if gridless else problem
        stepper = evolve._PhysicalStep if gridless else evolve._WavenumberStep
        step, seen = stepper.step, []

        def spying(self, y, f):
            seen.append(f)
            return step(self, y, f)

        monkeypatch.setattr(stepper, "step", spying)
        cfg = SolverConfig(tau=0.01, t_end=0.1)
        traj = solve(problem, cfg)
        assert seen == [None] * cfg.steps
        zero = np.zeros(entry.dim)
        assert np.array_equal(traj.states, solve(replace(problem, forcing=lambda t: zero),
                                                 cfg).states)
        at_rest = replace(problem, initial=np.zeros(entry.dim))
        assert causality_check(at_rest, cfg, t0=0.05)

    def test_a_leak_before_onset_fails(self):
        # states before onset must vanish identically: a forcing that leaks
        # 1e-20 of its pulse before switching on is seen
        entry = catalog.acoustics((Axis.interval(8),))
        pulse = np.ones(entry.dim)
        leaky = entry.problem(forcing=lambda t: pulse if t >= 0.5 else 1e-20 * pulse)
        assert not causality_check(leaky, SolverConfig(tau=0.05, t_end=1.0), t0=0.5)

    def test_nonzero_initial_rejected(self):
        prob = scalar_problem(u0=1.0)
        with pytest.raises(PreconditionError):
            causality_check(prob, SolverConfig(tau=0.1, t_end=1.0), t0=0.5)


def weighted_norm(traj, nu):
    """The exponentially weighted norm over the whole computed horizon."""
    return weighted_partial_norms(traj, nu)[-1]


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

    def test_a_norm_that_is_not_finite_is_refused(self):
        # a standing wave of amplitude 1.4e154: states and energies (up to
        # 4.9e307) stay finite, but the squared norm integrated to t = 10 does not
        axis = Axis.interval(31)
        entry = catalog.acoustics((axis,))
        u0 = np.zeros(entry.dim)
        u0[entry.block_slices()["p"]] = 1.4e154 * np.sin(np.pi * axis.points())
        traj = solve(entry.problem(initial=u0), SolverConfig(tau=0.005, t_end=10.0))
        assert np.isfinite(traj.states).all() and np.isfinite(traj.energies).all()
        with pytest.raises(StepFailureError, match=r"^weighted partial norm not finite \(nu = 0\)$"):
            weighted_partial_norms(traj, 0.0)

    def test_a_nan_state_is_refused(self):
        traj = solve(rotation_problem(), SolverConfig(tau=0.05, t_end=1.0))
        states = traj.states.copy()
        states[7, 1] = np.nan
        with pytest.raises(StepFailureError, match=r"not finite \(nu = 0\.5\)$"):
            weighted_partial_norms(replace(traj, states=states), 0.5)


class TestSolveReduced:
    def test_invertible_a_matches_plain_solve(self):
        prob = rotation_problem()
        cfg = SolverConfig(tau=0.1, t_end=2.0)
        full = solve(prob, cfg)
        red = solve_reduced(prob, cfg)
        assert np.abs(full.states - red.states).max() <= 1e-13

    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    def test_a_invertible_at_every_wavenumber_steps_bitwise_as_solve(self, scheme,
                                                                      monkeypatch):
        # Dirac's A has no kernel on a 4^3 torus: there is nothing to
        # eliminate, and the reduced run inverts the symbols solve inverts
        def unreachable(*args):
            raise AssertionError("schur_reduce called for an A with no kernel")

        monkeypatch.setattr(evolve, "schur_reduce", unreachable)
        entry = catalog.dirac((Axis.torus(4),) * 3)
        pulse = np.random.default_rng(22).standard_normal(entry.dim)
        problem = entry.problem(initial=np.random.default_rng(21).standard_normal(entry.dim),
                                forcing=lambda t: np.sin(5.0 * t) * pulse)
        cfg = SolverConfig(tau=0.01, t_end=0.2, scheme=scheme)
        full, red = solve(problem, cfg), solve_reduced(problem, cfg)
        assert np.array_equal(full.states, red.states)
        assert np.array_equal(full.energies, red.energies)

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

    def test_schur_check_fails_on_a_dropped_kernel_vector(self, monkeypatch):
        # mutation test: a split that loses one kernel direction must make the
        # reduced trajectories of the Schur equivalence check differ
        from dataclasses import replace

        from protofield import evolve, verify

        split = evolve.range_kernel_split

        def dropping(*args):
            p_range, p_kernel = split(*args)
            groups = tuple((index, basis[:, :, 1:]) for index, basis in p_kernel.groups)
            dim = sum(basis.shape[0] * basis.shape[2] for _, basis in groups)
            return p_range, replace(p_kernel, groups=groups,
                                    codomain=SpaceTag("coker-minus-one", dim))

        assert verify.check_schur_equivalence().passed
        monkeypatch.setattr(evolve, "range_kernel_split", dropping)
        assert not verify.check_schur_equivalence().passed

    def test_kernel_bearing_systems_implicit_euler(self):
        # the Schur check runs Crank-Nicolson on an 8-point ring; here
        # implicit Euler on a 4x4 torus, whose kernel is again the constants
        rng = np.random.default_rng(4)
        cfg = SolverConfig(tau=0.01, t_end=2.0, scheme=IMPLICIT_EULER)
        for entry in (catalog.heat((Axis.torus(4),) * 2),
                      catalog.acoustics((Axis.torus(4),) * 2)):
            u0 = rng.standard_normal(entry.dim)
            full = solve(entry.problem(initial=u0), cfg)
            red = solve_reduced(entry.problem(initial=u0), cfg)
            scale = max(np.abs(full.states).max(), 1.0)
            assert np.abs(full.states - red.states).max() / scale <= 1e-10, entry.name

    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    @pytest.mark.parametrize("build, cut", [
        (lambda: catalog.extended_maxwell((Axis.torus(4),) * 3), True),
        # an axis that is not periodic: not cut, the sparse LU
        (lambda: catalog.heat((Axis.torus(4), Axis.interval(5))), False),
        (lambda: catalog.reissner_mindlin((Axis.interval(5), Axis.torus(4))), False),
        # A commutes with the shifts, the step matrix does not: the sparse LU
        (lambda: catalog.acoustics((Axis.torus(8),), rho=np.linspace(1.0, 2.0, 8)), False),
        # A itself does not commute with the shifts: the sparse LU
        (lambda: catalog.extended_maxwell((Axis.torus(4),) * 3, m0=np.linspace(1.0, 2.0, 512)),
         False),
    ], ids=["extended_maxwell_4cube", "heat_torus_x_interval", "reissner_mindlin_interval_x_torus",
            "acoustics_vector_rho", "extended_maxwell_vector_m0"])
    def test_wavenumber_step_matches_the_full_solve(self, build, cut, scheme, monkeypatch):
        entry = build()
        u0 = np.random.default_rng(6).standard_normal(entry.dim)
        cfg = SolverConfig(tau=0.01, t_end=0.5, scheme=scheme)
        full = solve(entry.problem(initial=u0), cfg)
        factored = lu_factorizations(monkeypatch)
        red = solve_reduced(entry.problem(initial=u0), cfg)
        assert factored == ([] if cut else [entry.dim])
        assert np.abs(full.states - red.states).max() <= 1e-12 * np.abs(full.states).max()
        lu = solve(physical(entry.problem(initial=u0)), cfg)
        assert relative_gap(full, lu) <= 1e-12
        assert relative_gap(red, lu) <= 1e-12

    @pytest.mark.parametrize("grid, cut", [((Axis.torus(6),), True), ((Axis.interval(6),), False)],
                             ids=["torus", "interval"])
    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    def test_vanishing_a_steps_as_solve(self, grid, cut, scheme, monkeypatch):
        # an empty range leaves nothing to eliminate: the step matrix is
        # inverted symbol by symbol on the torus, factored by the LU off it
        entry = catalog.heat(grid)
        problem = replace(entry.problem(initial=np.random.default_rng(13).standard_normal(entry.dim)),
                          a=zero(entry.space, entry.space))
        cfg = SolverConfig(tau=0.01, t_end=0.2, scheme=scheme)
        full = solve(problem, cfg)
        factored = lu_factorizations(monkeypatch)
        red = solve_reduced(problem, cfg)
        assert factored == ([] if cut else [entry.dim])
        assert np.array_equal(full.states, red.states)

    def test_cut_follows_the_step_matrix(self):
        # A is cut on the ring in both; with the step matrix of a rho that
        # varies along it, nothing is
        uniform = catalog.acoustics((Axis.torus(8),))
        varying = catalog.acoustics((Axis.torus(8),), rho=np.linspace(1.0, 2.0, 8))
        for entry in (uniform, varying):
            assert evolve.shift_cut(entry.space, entry.grid, entry.a)[1] is not None
            left, _ = evolve._step_operators(entry.problem(), SolverConfig(tau=0.01, t_end=0.1))
            cut, symbols = evolve.shift_cut(entry.space, entry.grid, entry.a, left)
            if entry is varying:
                assert (cut, symbols) == (None, None)
                continue
            p_kernel = evolve.range_kernel_split(cut, symbols[0], entry.space)[1]
            assert cut.N == 5  # 8 // 2 + 1 kept wavenumbers
            assert p_kernel.codomain.dim == 2

    def test_memory_budget_on_an_8_cube(self):
        # the split, the Schur blocks and the steps stay per wavenumber: no
        # dim x dim array (dim 4096) is built
        import tracemalloc

        entry = catalog.extended_maxwell((Axis.torus(8),) * 3)
        u0 = np.random.default_rng(7).standard_normal(entry.dim)
        tracemalloc.start()
        try:
            traj = solve_reduced(entry.problem(initial=u0), SolverConfig(tau=0.01, t_end=0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(traj) == 11
        assert peak < 100 * 2**20

    @pytest.mark.parametrize("grid, budget", [
        ((Axis.torus(8), Axis.interval(250)), 20 * 2**20),
        ((Axis.interval(1000),), 5 * 2**20),
    ], ids=["torus_x_interval", "interval"])
    def test_memory_budget_off_the_cut(self, grid, budget, monkeypatch):
        # off a fully periodic grid the reduced solve factors the step matrix
        # once by the sparse LU, as solve does: no dense block over the points
        import tracemalloc

        entry = catalog.heat(grid)
        problem = entry.problem(initial=np.random.default_rng(8).standard_normal(entry.dim))
        factored = lu_factorizations(monkeypatch)
        tracemalloc.start()
        try:
            traj = solve_reduced(problem, SolverConfig(tau=0.01, t_end=0.02))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert factored == [entry.dim] and len(traj) == 3
        assert peak < budget


def lu_factorizations(monkeypatch):
    """The dimensions of the step matrices solve factors by the sparse LU from now on."""
    calls = []

    class Counting(evolve._PhysicalStep):
        def __init__(self, left, right):
            calls.append(left.domain.dim)
            super().__init__(left, right)

    monkeypatch.setattr(evolve, "_PhysicalStep", Counting)
    return calls


PERIODIC_ENTRIES = [name for name in catalog.REGISTRY
                    if all(axis.bc == PERIODIC for axis in catalog.default_axes(name))]


class TestWavenumberStep:
    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    @pytest.mark.parametrize("build, cut", [
        *((lambda name=name: catalog.build_entry(name), True) for name in PERIODIC_ENTRIES),
        # an axis that is not periodic: not cut, the sparse LU
        (lambda: catalog.heat((Axis.torus(4), Axis.interval(5))), False),
        # the step matrix does not commute with the shifts: the sparse LU
        (lambda: catalog.acoustics((Axis.torus(8),), rho=np.linspace(1.0, 2.0, 8)), False),
    ], ids=[*PERIODIC_ENTRIES, "heat_torus_x_interval", "acoustics_vector_rho"])
    def test_matches_the_physical_lu(self, build, cut, scheme, monkeypatch):
        entry = build()
        problem = entry.problem(initial=np.random.default_rng(9).standard_normal(entry.dim))
        cfg = SolverConfig(tau=0.01, t_end=0.3, scheme=scheme)
        factored = lu_factorizations(monkeypatch)
        traj = solve(problem, cfg)
        assert factored == ([] if cut else [entry.dim])
        assert relative_gap(traj, solve(physical(problem), cfg)) <= 1e-12

    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    @pytest.mark.parametrize("name", PERIODIC_ENTRIES)
    def test_reduced_matches_the_physical_lu(self, name, scheme, monkeypatch):
        entry = catalog.build_entry(name)
        problem = entry.problem(initial=np.random.default_rng(9).standard_normal(entry.dim))
        cfg = SolverConfig(tau=0.01, t_end=0.3, scheme=scheme)
        factored = lu_factorizations(monkeypatch)
        traj = solve_reduced(problem, cfg)
        assert factored == []
        assert relative_gap(traj, solve(physical(problem), cfg)) <= 1e-12

    @pytest.mark.parametrize("runner", [solve, solve_reduced], ids=["solve", "reduced"])
    @pytest.mark.parametrize("name", ["maxwell", "extended_maxwell", "thermo_elasticity"])
    def test_another_uniform_weight_cuts_and_steps_bitwise_alike(self, name, runner):
        # the cut reads no weight: the same entries on a tag that weights
        # every point by 0.37 x the cell volume have bitwise the same symbols
        # and step to bitwise the same states
        entry = catalog.build_entry(name)
        grid, law = entry.grid, entry.law
        scaled = SpaceTag(f"{entry.space.name}'", entry.dim, 0.37 * entry.space.weight)

        def on_scaled(op):
            return MatrixOperator(op.entries, scaled, scaled)

        u0 = np.random.default_rng(20).standard_normal(entry.dim)
        problem = entry.problem(initial=u0)
        other = EvolutionaryProblem(law=MaterialLaw(m0=on_scaled(law.m0), m1=on_scaled(law.m1)),
                                    a=on_scaled(entry.a), initial=u0, grid=grid)
        cfg = SolverConfig(tau=0.01, t_end=0.2)
        symbols = ShiftCut(entry.space, grid).symbols(
            problem.a, *evolve._step_operators(problem, cfg))
        others = ShiftCut(scaled, grid).symbols(other.a, *evolve._step_operators(other, cfg))
        assert [s.tobytes() for s in symbols] == [s.tobytes() for s in others]
        assert np.array_equal(runner(problem, cfg).states, runner(other, cfg).states)

    @pytest.mark.parametrize("runner, calls", [(solve, 2), (solve_reduced, 3)],
                             ids=["solve", "reduced"])
    @pytest.mark.parametrize("name", ["dirac", "maxwell", "extended_maxwell"])
    def test_each_shift_column_taken_once(self, name, runner, calls, monkeypatch):
        # the commute test hands its columns on to the symbols: one extraction
        # per step matrix, and one for A in the reduced solve (Dirac's A is
        # invertible, and its reduced solve steps with the same symbols)
        symbols, seen = ShiftCut.symbols, []

        def counting(cut, *ops):
            seen.extend(ops)
            return symbols(cut, *ops)

        monkeypatch.setattr(ShiftCut, "symbols", counting)
        entry = catalog.build_entry(name, (Axis.torus(4),) * 3)
        problem = entry.problem(initial=np.random.default_rng(12).standard_normal(entry.dim))
        runner(problem, SolverConfig(tau=0.01, t_end=0.02))
        assert len(seen) == len({id(op) for op in seen}) == calls

    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    def test_pulse_switching_on_mid_run(self, scheme):
        # zero forcing skips the forcing term, the pulse takes it; states
        # before the onset stay exactly zero
        entry = catalog.thermo_elasticity((Axis.torus(4),) * 3)
        pulse = np.random.default_rng(10).standard_normal(entry.dim)
        samples = []

        def forcing(t):
            samples.append(t)
            return pulse if t >= 0.26 else np.zeros(entry.dim)

        cfg = SolverConfig(tau=0.02, t_end=0.5, scheme=scheme)
        traj = solve(entry.problem(forcing=forcing), cfg)
        assert len(samples) == cfg.steps and samples == sorted(samples)
        assert np.abs(traj.states[traj.times < 0.26]).max() == 0.0
        assert np.abs(traj.states[-1]).max() > 0.0
        assert relative_gap(traj, solve(physical(entry.problem(forcing=forcing)), cfg)) <= 1e-12
        assert causality_check(entry.problem(forcing=forcing), cfg, t0=0.26)

    @pytest.mark.parametrize("forced", [False, True], ids=["free", "forced"])
    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    @pytest.mark.parametrize("sizes", [(3, 4, 5), (3, 5, 4)], ids=["odd_last", "even_last"])
    def test_odd_and_even_last_axes_match_the_physical_lu(self, sizes, scheme, forced,
                                                           monkeypatch):
        # the half spectrum keeps n // 2 + 1 wavenumbers of the last axis:
        # both parities, with and without a forcing term, against the sparse LU
        entry = catalog.maxwell(tuple(Axis.torus(n) for n in sizes))
        rng = np.random.default_rng(18)
        pulse = rng.standard_normal(entry.dim)
        problem = entry.problem(initial=rng.standard_normal(entry.dim),
                                forcing=(lambda t: np.cos(3.0 * t) * pulse) if forced else None)
        cfg = SolverConfig(tau=0.01, t_end=0.3, scheme=scheme)
        factored = lu_factorizations(monkeypatch)
        traj = solve(problem, cfg)
        assert factored == []
        assert relative_gap(traj, solve(physical(problem), cfg)) <= 1e-12

    def test_a_perturbed_symbol_inverse_fails_the_comparison(self, monkeypatch):
        entry = catalog.thermo_elasticity((Axis.torus(4),) * 3)
        problem = entry.problem(initial=np.random.default_rng(11).standard_normal(entry.dim))
        cfg = SolverConfig(tau=0.01, t_end=0.2)
        reference = solve(physical(problem), cfg)
        assert relative_gap(solve(problem, cfg), reference) <= 1e-12
        guarded = evolve.guarded_inverses

        def perturbed(stacks):
            inverses = guarded(stacks)
            inverses[0][1] *= 1.0 + 1e-8
            return inverses

        monkeypatch.setattr(evolve, "guarded_inverses", perturbed)
        assert relative_gap(solve(problem, cfg), reference) > 1e-12

    def test_near_singular_symbol_rejected(self):
        # sigma = 1.5e-12 passes the gate (> 1e-12), but the CN symbol at
        # wavenumber 0 is diag(1/tau, sigma/2): ||S^-1||_1 = 1 / 7.5e-13;
        # ||S||_1 = 1/tau + 8 at the wavenumber pi / h, where the halved
        # gradient symbol reaches 1 / h = 8, so kappa_1 = 1008 / 7.5e-13.
        # The sparse LU of the same step matrix, with no grid to cut, gets
        # the same verdict and estimate.  solve_reduced on the torus guards
        # the kernel block and the Schur complement instead, and refuses
        # with the same error: the kernel block at wavenumber 0 is the whole
        # symbol there, diag(1/tau, sigma/2), so kappa_1 = 1000 / 7.5e-13
        entry = catalog.heat((Axis.torus(8),), sigma=1.5e-12)
        problem = entry.problem(initial=np.ones(entry.dim))
        for runner, p, estimate in ((solve, problem, "1.344e+15"),
                                    (solve, physical(problem), "1.344e+15"),
                                    (solve_reduced, physical(problem), "1.344e+15"),
                                    (solve_reduced, problem, "1.333e+15")):
            with pytest.raises(StepFailureError, match=f"condition estimate {re.escape(estimate)}"):
                runner(p, SolverConfig(tau=1e-3, t_end=1e-2))

    def test_time_budget_on_a_16_cube(self):
        # the sparse LU of this step matrix alone takes 8-10 s
        entry = catalog.maxwell((Axis.torus(16),) * 3)
        problem = entry.problem(initial=np.random.default_rng(12).standard_normal(entry.dim))
        begin = time.perf_counter()
        traj = solve(problem, SolverConfig(tau=0.01, t_end=0.1))
        assert time.perf_counter() - begin < 2.0
        assert len(traj) == 11


@settings(max_examples=20)
@given(axes=st.lists(st.tuples(st.booleans(), st.integers(2, 6)), min_size=1, max_size=3),
       name=st.sampled_from(sorted(catalog.REGISTRY)), seed=st.integers(0, 2**32 - 1))
def test_chosen_step_matches_the_physical_lu(axes, name, seed):
    grid = tuple(Axis.torus(n) if periodic else Axis.interval(n) for periodic, n in axes)
    try:
        entry = catalog.build_entry(name, grid)
    except ValueError:  # the entry does not build on this grid
        reject()
    problem = entry.problem(initial=np.random.default_rng(seed).standard_normal(entry.dim))
    cfg = SolverConfig(tau=0.01, t_end=0.2)
    assert relative_gap(solve(problem, cfg), solve(physical(problem), cfg)) <= 1e-12


class TestFiniteStates:
    @pytest.mark.parametrize("runner", [solve, solve_reduced])
    def test_overflow_names_the_first_bad_step(self, runner):
        entry = catalog.heat((Axis.torus(8),))
        u0 = np.full(entry.dim, 1e307)
        with pytest.raises(StepFailureError, match="step 0"):
            runner(entry.problem(initial=u0), SolverConfig(tau=0.01, t_end=0.1))

    def test_energy_overflow_mid_run(self):
        # implicit Euler with M0 = 1, M1 = -99 and tau = 0.01 multiplies the
        # state by 100 per step: u_77 = 1e154 still has a finite energy,
        # u_78 = 1e156 does not
        prob = scalar_problem(m1=-99.0)
        with pytest.raises(StepFailureError, match=r"step 78 \(t = 0\.78\)"):
            solve(prob, SolverConfig(tau=0.01, t_end=1.0, scheme=IMPLICIT_EULER))


BLOCK = 4  # the block size the tests below set


@pytest.fixture
def small_blocks(monkeypatch):
    """Set the block budget so that _march moves BLOCK states at a time."""
    def set_for(dim):
        monkeypatch.setattr(evolve, "_BLOCK_BYTES", 16 * dim * BLOCK)
    return set_for


def marched_step_by_step(runner, problem, config):
    """runner's states, and its stepper's type, moved back one state per step."""
    out = {}

    def march(problem, config, stepper):
        times = np.arange(config.steps + 1) * config.tau
        offset = config.tau if config.scheme == IMPLICIT_EULER else config.tau / 2
        states, y = [problem.initial], stepper.start(problem.initial)
        for t in times[:-1]:
            y = stepper.step(y, problem.force_at(t + offset))
            states.append(stepper.states([y])[0])
        out["states"], out["stepper"] = np.array(states), type(stepper)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evolve, "_march", march)
        runner(problem, config)
    return out["states"], out["stepper"]


def torus_maxwell():
    return catalog.maxwell((Axis.torus(4),) * 3)


def random_problem(entry, seed, gridless=False):
    problem = entry.problem(initial=np.random.default_rng(seed).standard_normal(entry.dim))
    return physical(problem) if gridless else problem


class TestBlocks:
    """_march moves states to physical space, and takes energies, BLOCK steps at a time."""

    def check_against_step_by_step(self, runner, problem, config, stepper):
        traj = runner(problem, config)
        states, used = marched_step_by_step(runner, problem, config)
        assert used is stepper
        assert np.array_equal(traj.states, states)
        energies = evolve.energy_series_from_states(states, problem.law.m0)
        assert np.abs(traj.energies - energies).max() <= 1e-14 * np.abs(energies).max()
        return traj

    @pytest.mark.parametrize("steps", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("build, gridless, runner, stepper", [
        (torus_maxwell, False, solve, evolve._WavenumberStep),
        (lambda: catalog.heat((Axis.torus(4), Axis.interval(5))), False, solve,
         evolve._PhysicalStep),
        (torus_maxwell, True, solve, evolve._PhysicalStep),
        (lambda: catalog.acoustics((Axis.torus(8),)), False, solve_reduced,
         evolve._WavenumberStep),
    ], ids=["torus", "lu", "no_grid", "reduced"])
    def test_states_match_the_step_by_step_march(self, build, gridless, runner, stepper, steps,
                                                 small_blocks):
        entry = build()
        small_blocks(entry.dim)
        traj = self.check_against_step_by_step(
            runner, random_problem(entry, 13, gridless),
            SolverConfig(tau=0.01, t_end=0.01 * steps), stepper)
        assert len(traj) == steps + 1

    @pytest.mark.parametrize("scheme", [CRANK_NICOLSON, IMPLICIT_EULER])
    def test_forcing_switching_on_mid_block(self, scheme, small_blocks):
        # the pulse is first sampled by step 5, inside the second block (steps 4-7)
        entry = torus_maxwell()
        pulse = np.random.default_rng(14).standard_normal(entry.dim)
        samples = []

        def forcing(t):
            samples.append(t)
            return pulse if t >= 0.105 else np.zeros(entry.dim)

        small_blocks(entry.dim)
        cfg = SolverConfig(tau=0.02, t_end=0.02 * (2 * BLOCK + 1), scheme=scheme)
        traj = self.check_against_step_by_step(solve, entry.problem(forcing=forcing), cfg,
                                               evolve._WavenumberStep)
        offset = cfg.tau if scheme == IMPLICIT_EULER else cfg.tau / 2
        assert samples == 2 * list(traj.times[:-1] + offset)
        assert np.abs(traj.states[:6]).max() == 0.0
        assert np.abs(traj.states[6]).max() > 0.0

    @pytest.mark.parametrize("gridless", [False, True], ids=["wavenumber", "lu"])
    def test_non_finite_step_named_inside_a_block(self, gridless, small_blocks):
        # step 5 (t = 0.1 to 0.12, CN samples F at 0.11) is the second of the
        # second block and makes state 6 non-finite, and every later one
        entry = torus_maxwell()
        bad, zero = np.full(entry.dim, np.inf), np.zeros(entry.dim)
        problem = random_problem(entry, 15, gridless)
        problem = replace(problem, forcing=lambda t: bad if t > 0.105 else zero)
        small_blocks(entry.dim)
        with pytest.raises(StepFailureError, match=r"not finite at step 6 \(t = 0\.12\)$"):
            solve(problem, SolverConfig(tau=0.02, t_end=0.02 * (3 * BLOCK + 1)))

    def test_one_inverse_transform_per_block(self, monkeypatch):
        entry = torus_maxwell()
        calls = []
        inverse = ShiftCut.inverse

        def counting(cut, y):
            calls.append(y.shape[2])
            return inverse(cut, y)

        monkeypatch.setattr(ShiftCut, "inverse", counting)
        traj = solve(random_problem(entry, 16), SolverConfig(tau=0.01, t_end=1.0))
        block = min(max(evolve._BLOCK_BYTES // (16 * entry.dim), 1), 100)
        assert len(traj) == 101 and sum(calls) == 100
        assert len(calls) <= math.ceil(100 / block)

    @pytest.mark.parametrize("gridless", [False, True], ids=["wavenumber", "lu"])
    def test_march_stops_at_the_first_bad_block(self, gridless):
        # F turns NaN at step 3 (CN samples it at t = 0.035) of 100 000
        entry = torus_maxwell()
        bad, zero, samples = np.full(entry.dim, np.nan), np.zeros(entry.dim), []

        def forcing(t):
            samples.append(t)
            return bad if t > 0.03 else zero

        problem = replace(random_problem(entry, 18, gridless), forcing=forcing)
        with pytest.raises(StepFailureError, match=r"^state or energy not finite at step 4 "
                                                   r"\(t = 0\.04\)$"):
            solve(problem, SolverConfig(tau=0.01, t_end=1000.0))
        block = evolve._BLOCK_BYTES // (16 * entry.dim)
        assert len(samples) <= 3 + block + 1

    def test_passes_agree_across_block_seams(self, monkeypatch):
        # each pass over a trajectory, in one block and in blocks of BLOCK rows
        entry = catalog.acoustics((Axis.interval(10),), sigma=0.4)
        cfg = SolverConfig(tau=0.02, t_end=0.02 * (3 * BLOCK + 2))
        traj = solve(random_problem(entry, 20), cfg)
        pulse = np.random.default_rng(21).standard_normal(entry.dim)
        switched = entry.problem(forcing=lambda t: pulse if t >= 0.15 else 0.0 * pulse)

        def passes():
            return (dissipation_check(traj, entry.law), weighted_partial_norms(traj, 0.5),
                    causality_check(switched, cfg, t0=0.15), causality_check(switched, cfg, t0=0.19))

        whole = passes()
        monkeypatch.setattr(evolve, "_BLOCK_BYTES", 16 * entry.dim * BLOCK)
        blocks = passes()
        assert whole[0].holds and whole[2] and not whole[3]
        assert blocks[0] == whole[0] and blocks[2:] == whole[2:]
        assert np.array_equal(blocks[1], whole[1])

    def test_passes_over_a_trajectory_allocate_a_few_blocks(self, monkeypatch):
        entry = torus_maxwell()
        block = evolve._BLOCK_BYTES // (16 * entry.dim)
        cfg = SolverConfig(tau=0.01, t_end=0.01 * 16 * block)
        traj = solve(random_problem(entry, 19), cfg)
        assert traj.states.nbytes > 2 * 3 * evolve._BLOCK_BYTES  # one copy would not fit
        # the causality check passes over the trajectory handed to it
        monkeypatch.setattr(evolve, "solve", lambda problem, config: traj)
        at_rest = entry.problem(initial=np.zeros(entry.dim))
        passes = {
            "dissipation_check": lambda: dissipation_check(traj, entry.law),
            "weighted_partial_norms": lambda: weighted_partial_norms(traj, 0.5),
            "causality_check": lambda: causality_check(at_rest, cfg, t0=cfg.t_end + 1.0),
        }
        for name, run in passes.items():
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 3 * evolve._BLOCK_BYTES, name


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
