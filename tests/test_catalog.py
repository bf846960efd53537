"""Tests for the catalog of named systems and their structural identities."""

import numpy as np
import pytest
import scipy.sparse as sp

from protofield import catalog, verify
from protofield.flatgrid import Axis, TensorFieldSpace, build_d1, build_nabla
from protofield.linops import MatrixOperator, SpaceTag, skew_defect
from protofield.matlaw import check_wellposed
from protofield.evolve import IMPLICIT_EULER, SolverConfig, solve

AX1 = (Axis.interval(16),)
AX1_SYM = (Axis.symmetric(16, 0.25),)
AX2 = (Axis.interval(8), Axis.interval(8))
AX3 = (Axis.torus(4),) * 3


@pytest.fixture(scope="module")
def entries():
    return catalog.all_entries()


class TestEveryEntry:

    def test_at_least_thirteen(self, entries):
        assert len(entries) >= 13

    def test_all_skew(self, entries):
        for e in entries:
            scale = max(e.a.max_abs(), 1.0)
            assert skew_defect(e.a) <= 1e-12 * scale, e.name
            # one storage format: every operator of every entry is CSR
            for op in (e.a, e.law.m0, e.law.m1):
                assert sp.issparse(op.entries) and op.entries.format == "csr", e.name

    def test_all_wellposed(self, entries):
        for e in entries:
            assert check_wellposed(e.law).passed, e.name

    def test_all_reproduced_from_stack(self, entries):
        for e in entries:
            defect = e.provenance_defect()
            scale = max(e.a.max_abs(), 1.0)
            assert defect <= 1e-12 * scale, (e.name, defect)

    def test_blocks_partition_dimension(self, entries):
        for e in entries:
            assert sum(size for _, size in e.blocks) == e.dim, e.name


class TestAcoustics:
    def test_conservative_energy(self):
        entry = catalog.acoustics(AX1, sigma=0.0)
        rng = np.random.default_rng(0)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.02, t_end=4.0))
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-10

    def test_damped_energy_decreases(self):
        entry = catalog.acoustics(AX1, sigma=0.8)
        rng = np.random.default_rng(1)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.02, t_end=2.0))
        assert np.all(np.diff(traj.energies) < 0)

    def test_standing_wave_second_order(self):
        # p(x, t) = sin(pi x) cos(pi t): the one-sided stencil pair realizes
        # a Dirichlet/Neumann pair of walls, so the wave lives on (0, 1/2)
        # with the grid coordinate running down toward the Dirichlet wall;
        # the spatial mode is then an exact discrete eigenvector and the
        # p-error in the weighted norm converges at the scheme's order
        errs = []
        for n in (15, 31, 63):
            h = 1.0 / (2 * n + 1)
            axes = (Axis.dirichlet(n, h),)
            entry = catalog.acoustics(axes)
            y = (n - np.arange(n)) * h
            u0 = np.concatenate([np.sin(np.pi * y), np.zeros(n)])
            steps = int(round(1.3 / h))
            t_end = steps * h
            traj = solve(entry.problem(initial=u0),
                         SolverConfig(tau=h, t_end=t_end))
            exact = np.sin(np.pi * y) * np.cos(np.pi * t_end)
            err = traj.states[-1, :n] - exact
            errs.append(np.sqrt(np.sum(h * err * err)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8


class TestHeat:
    def test_lowest_mode_decay_factor(self):
        # the eigenmode of the discrete Laplacian decays by the exact CN
        # factor each step; compare against the eigendecomposition oracle
        n, tau = 12, 0.01
        entry = catalog.heat((Axis.interval(n),))
        d = build_d1(Axis.interval(n)).to_dense()
        lap = d.T @ d
        vals, vecs = np.linalg.eigh(lap)
        lam, phi = vals[0], vecs[:, 0]
        u0 = np.concatenate([phi, np.zeros(n)])
        steps = 50
        traj = solve(entry.problem(initial=u0),
                     SolverConfig(tau=tau, t_end=steps * tau))
        factor = (1 - tau * lam / 2) / (1 + tau * lam / 2)
        expected = phi * factor ** steps
        assert np.abs(traj.states[-1, :n] - expected).max() <= 1e-10
        # and the rate approximates exp(-lam t)
        assert factor ** steps == pytest.approx(np.exp(-lam * steps * tau), rel=1e-3)

    def test_constants_stationary_on_torus(self):
        entry = catalog.heat((Axis.torus(8),))
        u0 = np.concatenate([np.ones(8), np.zeros(8)])
        traj = solve(entry.problem(initial=u0), SolverConfig(tau=0.1, t_end=1.0))
        assert np.abs(traj.states - traj.states[0]).max() <= 1e-13

    def test_maximum_principle_smoke(self):
        entry = catalog.heat((Axis.interval(12),))
        rng = np.random.default_rng(2)
        u0 = np.zeros(entry.dim)
        u0[:12] = rng.uniform(0.1, 1.0, 12)
        traj = solve(entry.problem(initial=u0),
                     SolverConfig(tau=0.01, t_end=1.0, scheme=IMPLICIT_EULER))
        assert traj.states[:, :12].min() >= -1e-10

    def test_sigma_zero_fails_wellposedness(self):
        from protofield.matlaw import MaterialLawError

        entry = catalog.heat((Axis.interval(8),), sigma=0.0)
        with pytest.raises(MaterialLawError):
            solve(entry.problem(), SolverConfig(tau=0.1, t_end=0.5))


class TestElasticity:
    def test_grad_matches_hand_stencil(self):
        entry = catalog.elasticity(AX3)
        assert np.abs(entry.a.to_dense() - entry.classical_form.to_dense()).max() == 0.0

    def test_constant_field_killed_on_torus(self):
        entry = catalog.elasticity(AX3)
        npts = 64
        sl = entry.block_slices()
        v = np.zeros(entry.dim)
        v[sl["v"]] = 1.0
        out = entry.a.apply(v)
        assert np.abs(out[sl["T"]]).max() == 0.0

    def test_shear_field_single_component(self):
        # v = (x_2, 0): the symmetrized derivative has only the (0,1) slot
        axes = (Axis.torus(4), Axis.torus(4))
        entry = catalog.elasticity(axes)
        npts = 16
        sl = entry.block_slices()
        x2 = np.tile(np.arange(4) * 0.25, 4)     # coordinate of axis 1, C order
        v = np.zeros(entry.dim)
        v[sl["v"].start: sl["v"].start + npts] = x2
        out = entry.a.apply(v)[sl["T"]]
        # components ordered (00, 01, 11): only 01 is nonzero away from the seam
        comp = out.reshape(3, npts)
        assert np.abs(comp[0]).max() == 0.0
        assert np.abs(comp[2]).max() == 0.0
        assert np.abs(comp[1]).max() > 0.1

    def test_div_is_negative_adjoint_of_grad(self):
        entry = catalog.elasticity(AX3)
        m = entry.a.to_dense()
        sl = entry.block_slices()
        grad_blk = m[sl["T"], sl["v"]]
        div_blk = m[sl["v"], sl["T"]]
        assert np.array_equal(div_blk, -grad_blk.T)

    def test_1d_rejected(self):
        with pytest.raises(ValueError):
            catalog.elasticity(AX1)


class TestMaxwell:
    def test_curl_identification_exact(self):
        # the check runs on a periodic cube; here unequal sizes and walls
        axes = (Axis.interval(3), Axis.torus(4), Axis.interval(5))
        assert verify.curl_residual(axes) <= 1e-14

    def test_curl_of_gradient_vanishes(self):
        entry = catalog.maxwell(AX3)
        nab = build_nabla(TensorFieldSpace(AX3, 0))
        # exact at the matrix level: periodic stencils commute and the unit
        # torus spacing makes all products exact binary floats
        curl_block = entry.a.to_dense()[192:, :192]
        assert np.abs(curl_block @ nab.to_dense()).max() == 0.0
        rng = np.random.default_rng(3)
        f = rng.standard_normal(64)
        v = np.zeros(entry.dim)
        v[:192] = nab.apply(f)
        out = entry.a.apply(v)
        assert np.abs(out[192:]).max() <= 1e-13

    def test_curl_blocks_adjoint_pair(self):
        entry = catalog.maxwell(AX3)
        m = entry.a.to_dense()
        curl0 = m[192:, :192]
        curl_adj = m[:192, 192:]
        assert np.array_equal(curl_adj, -curl0.T)

    def test_needs_3d(self):
        with pytest.raises(ValueError):
            catalog.maxwell(AX2)


class TestExtendedMaxwell:
    def test_parts_annihilate(self):
        # the check runs on the 4^3 torus; here unequal, odd sizes
        axes = (Axis.torus(3), Axis.torus(4), Axis.torus(5))
        assert verify.annihilation_residual(axes) <= 1e-12

    def test_parts_each_skew(self):
        entry = catalog.extended_maxwell(AX3)
        for key in ("curl_part", "graddiv_part"):
            part = entry.extras[key]
            assert skew_defect(part) == 0.0

    def test_restriction_reproduces_maxwell_blocks(self):
        # rows/cols (f1, f2) of the curl part carry the plain curl; the
        # Maxwell entry stores the same operator in normalized antisymmetric
        # coordinates: conjugate by the pairing and the sqrt-2 rescale
        entry = catalog.extended_maxwell(AX3)
        mx = catalog.maxwell(AX3)
        np_ = 64
        sizes = [np_, 3 * np_, np_, 3 * np_]
        offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        cp = entry.extras["curl_part"].to_dense()
        curl0 = cp[offs[3]:offs[4], offs[1]:offs[2]]
        perm = np.kron(catalog._asym_perm(), np.eye(np_))
        lower_norm = mx.a.to_dense()[3 * np_:, :3 * np_]
        assert np.abs(curl0 - np.sqrt(2.0) * perm @ lower_norm).max() <= 1e-13

    def test_general_m0_conjugation_stays_skew(self):
        rng = np.random.default_rng(4)
        dim = 8 * 64
        diag = rng.uniform(0.5, 2.0, dim)
        entry = catalog.extended_maxwell(AX3, m0=diag)
        assert skew_defect(entry.a) <= 1e-12 * entry.a.max_abs()

    def test_indefinite_m0_rejected(self):
        dim = 8 * 64
        bad = -np.ones(dim)
        with pytest.raises(ValueError):
            catalog.extended_maxwell(AX3, m0=bad)


class TestReducedExtendedMaxwell:
    def test_block_pattern(self):
        entry = catalog.reduced_extended_maxwell(AX3)
        m = entry.a.to_dense()
        np_ = 64
        sl = entry.block_slices()
        # curl rows survive between f1 and f2
        parent = catalog.extended_maxwell(AX3)
        pm = parent.a.to_dense()
        sizes = [np_, 3 * np_, np_, 3 * np_]
        offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        assert np.array_equal(m[sl["f1"], sl["f2"]], pm[offs[1]:offs[2], offs[3]:offs[4]])
        # the f3 row keeps its divergence coupling to f2
        assert np.array_equal(m[sl["f3"], sl["f2"]], pm[offs[0]:offs[1], offs[3]:offs[4]])
        # and no coupling between f3 and f1 (that went through the dropped f0)
        assert np.abs(m[sl["f3"], sl["f1"]]).max() == 0.0

    def test_is_projection_of_parent(self):
        entry = catalog.reduced_extended_maxwell(AX3)
        parent = entry.extras["parent"]
        keep = entry.extras["keep"]
        assert np.array_equal(entry.a.to_dense(),
                              parent.a.to_dense()[np.ix_(keep, keep)])

    def test_skew(self):
        entry = catalog.reduced_extended_maxwell(AX3)
        assert skew_defect(entry.a) == 0.0


class TestDirac:
    def test_pauli_identities(self):
        ps = catalog.pauli_set()
        eye = np.eye(4)
        for p in ps.as_tuple():
            assert np.array_equal((p @ p).to_dense(), eye)
        p1, p2, p3 = (p.to_dense() for p in ps.as_tuple())
        # realified i * p3
        from protofield.subspaces import realify_complex

        i_p3 = realify_complex(1j * np.array([[1, 0], [0, -1]]),
                               SpaceTag("spin2", 2), SpaceTag("spin2", 2)).to_dense()
        assert np.array_equal(p1 @ p2, i_p3)
        # pairwise anticommutation
        assert np.abs(p1 @ p2 + p2 @ p1).max() == 0.0
        assert np.abs(p2 @ p3 + p3 @ p2).max() == 0.0

    def test_w_block_pattern(self):
        # the realified first-order block: +-1 mass entries on the two
        # antidiagonal 2x2 rotations, partials arranged per the spin algebra
        entry = catalog.dirac(AX3)
        W = entry.extras["W"]
        np_ = 64
        from protofield.catalog import _skew_partials

        P1, P2, P3 = _skew_partials(AX3)
        Id = np.eye(np_)
        Z = np.zeros((np_, np_))
        expected = np.block([
            [Z, -Id - P3, P2, -P1],
            [Id + P3, Z, P1, P2],
            [-P2, -P1, Z, -Id + P3],
            [P1, -P2, Id - P3, Z],
        ])
        assert np.array_equal(W, expected)

    def test_equivalence_with_extended_maxwell(self):
        # the check runs on the 4^3 torus; here unequal sizes
        axes = (Axis.torus(3), Axis.torus(4), Axis.torus(2))
        assert verify.dirac_conjugation_residual(axes) <= 1e-12

    def test_needs_periodic(self):
        with pytest.raises(ValueError):
            catalog.dirac((Axis.interval(4),) * 3)


class TestRelativisticSchrodinger:
    def test_orthogonal_input(self):
        t = SpaceTag("h", 3)
        q, _ = np.linalg.qr(np.random.default_rng(5).standard_normal((3, 3)))
        U, absG = catalog.polar_decompose(MatrixOperator(q, t, t))
        assert np.allclose(U.to_dense(), q, atol=1e-12)
        assert np.allclose(absG.to_dense(), np.eye(3), atol=1e-12)

    def test_singular_diagonal(self):
        t = SpaceTag("h", 2)
        U, absG = catalog.polar_decompose(MatrixOperator(np.diag([2.0, 0.0]), t, t))
        assert np.allclose(U.to_dense(), np.diag([1.0, 0.0]), atol=1e-12)
        assert np.allclose(absG.to_dense(), np.diag([2.0, 0.0]), atol=1e-12)

    def test_gradient_polar_identity(self):
        # the check decomposes 1-d gradients; here 2-d ones
        for axes in ((Axis.interval(4), Axis.interval(5)), (Axis.interval(6),) * 2):
            G = build_nabla(TensorFieldSpace(axes, 0))
            assert verify.polar_residual(G) <= 1e-10

    def test_entry_matches_conjugated_acoustics(self):
        entry = catalog.relativistic_schrodinger((Axis.interval(8),))
        assert entry.provenance_defect() <= 1e-12 * max(entry.a.max_abs(), 1.0)

    def test_periodic_rejected(self):
        with pytest.raises(ValueError):
            catalog.relativistic_schrodinger((Axis.torus(8),))


class TestSecondOrderWaveRelative:
    def test_2d(self):
        residuals = verify.wave_relative_residuals((Axis.interval(4), Axis.interval(4)), 1.0)
        assert max(residuals.values()) <= 1e-10

    def test_epsilon_positive(self):
        with pytest.raises(ValueError):
            verify.wave_relative_residuals((Axis.interval(8),), 0.0)


class TestTransport:
    def test_combined_equals_descendant(self):
        # the check runs 16 points for 8 steps; here 8 points for 12 steps
        entry = catalog.transport((Axis.symmetric(8, 0.5),))
        assert verify.transport_residual(entry, steps=12) <= 1e-12

    def test_advection_second_order(self):
        # a smooth bump advects along characteristics: error at t after a few
        # steps of size tau = h drops at second order under grid refinement
        errs = []
        for n in (32, 64, 128):
            h = 4.0 / n
            entry = catalog.transport((Axis.symmetric(n, h),))
            x = entry.grid[0].points()
            u0 = np.exp(-((x + 0.7) ** 2) / (2 * 0.25 ** 2))
            steps = max(1, int(round(0.4 / h)))
            traj = solve(entry.problem(initial=u0),
                         SolverConfig(tau=h, t_end=steps * h))
            exact = np.exp(-((x - steps * h + 0.7) ** 2) / (2 * 0.25 ** 2))
            errs.append(np.sqrt(np.sum(h * (traj.states[-1] - exact) ** 2)))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.7

    def test_even_data_bookkeeping(self):
        entry = catalog.transport(AX1_SYM)
        pe = entry.extras["even_pair"]
        po = entry.extras["odd_pair"]
        x = entry.grid[0].points()
        even = np.cos(x)
        assert np.abs(po.pi.apply(even)).max() <= 1e-14
        recon = pe.embedding.apply(pe.pi.apply(even))
        assert np.abs(recon - even).max() <= 1e-14

    def test_block_coupled_law_rejected(self):
        from protofield.matlaw import MaterialLaw

        n = 16
        t = catalog.transport(AX1_SYM).extras  # build once to get spaces
        entry = catalog.acoustics(AX1_SYM)     # parent two-block space
        m0 = np.eye(2 * n)
        m0[0, n] = m0[n, 0] = 0.5
        law = MaterialLaw(m0=MatrixOperator(m0, entry.space, entry.space),
                          m1=MatrixOperator(np.zeros((2 * n, 2 * n)),
                                            entry.space, entry.space))
        with pytest.raises(ValueError, match="block-diagonal"):
            catalog.transport(AX1_SYM, law=law)


class TestThermoElasticity:
    def test_decoupled_matches_independent_solves(self):
        entry = catalog.thermo_elasticity(AX3, gamma=0.0)
        rng = np.random.default_rng(6)
        u0 = rng.standard_normal(entry.dim)
        cfg = SolverConfig(tau=0.02, t_end=0.4)
        traj = solve(entry.problem(initial=u0), cfg)

        sl = entry.block_slices()
        heat_dim = (sl["eta"].stop - sl["eta"].start) + (sl["zeta"].stop - sl["zeta"].start)
        # independent sub-solves on the two diagonal blocks
        sub_a = entry.a.to_dense()[:heat_dim, :heat_dim]
        sub_m0 = entry.law.m0.to_dense()[:heat_dim, :heat_dim]
        sub_m1 = entry.law.m1.to_dense()[:heat_dim, :heat_dim]
        t = SpaceTag("sub", heat_dim, entry.space.weight[:heat_dim])
        from protofield.matlaw import MaterialLaw
        from protofield.evolve import EvolutionaryProblem

        sub_law = MaterialLaw(m0=MatrixOperator(sub_m0, t, t),
                              m1=MatrixOperator(sub_m1, t, t))
        sub_prob = EvolutionaryProblem(law=sub_law,
                                       a=MatrixOperator(sub_a, t, t),
                                       initial=u0[:heat_dim])
        sub_traj = solve(sub_prob, cfg)
        assert np.abs(traj.states[:, :heat_dim] - sub_traj.states).max() <= 1e-11

    def test_m0_selfadjoint_with_coupling(self):
        entry = catalog.thermo_elasticity(AX3, gamma=0.7)
        m0 = entry.law.m0.to_dense()
        assert np.array_equal(m0, m0.T)
        assert check_wellposed(entry.law).passed

    def test_energy_identity_with_coupling(self):
        from protofield.evolve import dissipation_check

        entry = catalog.thermo_elasticity(AX3, gamma=0.5)
        rng = np.random.default_rng(7)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.05, t_end=1.0))
        rep = dissipation_check(traj, entry.law, tol=1e-9)
        assert rep.holds and rep.monotone


class TestReissnerMindlin:
    def test_conservative_when_undamped(self):
        entry = catalog.reissner_mindlin(AX2, d=0.0)
        rng = np.random.default_rng(8)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.01, t_end=10.0))
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-10

    def test_damped_decreasing(self):
        entry = catalog.reissner_mindlin(AX2, d=0.5)
        rng = np.random.default_rng(9)
        u0 = rng.standard_normal(entry.dim)
        traj = solve(entry.problem(initial=u0), SolverConfig(tau=0.02, t_end=1.0))
        assert np.all(np.diff(traj.energies) < 1e-14)

    def test_second_order_form(self):
        # the check runs a square 8x8 plate with unit coefficients
        entry = catalog.reissner_mindlin((Axis.interval(6), Axis.interval(8)),
                                         nu1=2.0, kappa=0.5, d=0.3)
        assert verify.second_order_residual(entry) <= 1e-8

    def test_zero_order_coupling_pattern(self):
        # M1 couples the shear flux and the rotation velocity with -1/+1
        entry = catalog.reissner_mindlin(AX2, d=0.25)
        sl = entry.block_slices()
        m1 = entry.law.m1.to_dense()
        nvec = sl["zeta"].stop - sl["zeta"].start
        assert np.array_equal(m1[sl["zeta"], sl["s"]], -np.eye(nvec))
        assert np.array_equal(m1[sl["s"], sl["zeta"]], np.eye(nvec))
        assert np.allclose(m1[sl["eta"], sl["eta"]], 0.25 * np.eye(64), atol=1e-15)
        assert np.abs(m1[sl["T"], :]).max() == 0.0

    def test_indefinite_inputs_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            catalog.reissner_mindlin(AX2, kappa=-1.0)
        with pytest.raises(ValueError, match="positive"):
            catalog.acoustics(AX1, rho=-2.0)
        with pytest.raises(ValueError, match="positive"):
            catalog.thermo_elasticity(AX3, cten=-1.0)


class TestKirchhoffLove:
    def test_skew_exact(self):
        entry = catalog.kirchhoff_love(AX2)
        assert skew_defect(entry.a) == 0.0

    def test_constant_killed_on_torus(self):
        entry = catalog.kirchhoff_love((Axis.torus(4), Axis.torus(4)))
        sl = entry.block_slices()
        v = np.zeros(entry.dim)
        v[sl["eta"]] = 1.0
        assert np.abs(entry.a.apply(v)).max() == 0.0

    def test_plate_limit_consistency(self):
        # the plate model with shrinking shear/rotation coefficients
        # approaches the biharmonic limit on a smooth problem
        rng = np.random.default_rng(10)
        kl = catalog.kirchhoff_love(AX2)
        sl_kl = kl.block_slices()
        x = AX2[0].interval_points()
        y = AX2[1].interval_points()
        eta0 = np.outer(np.sin(np.pi * x), np.sin(np.pi * y)).reshape(-1)
        u0_kl = np.zeros(kl.dim)
        u0_kl[sl_kl["eta"]] = eta0
        cfg = SolverConfig(tau=0.005, t_end=0.25, scheme=IMPLICIT_EULER)
        ref = solve(kl.problem(initial=u0_kl), cfg).states[-1][sl_kl["eta"]]

        errs = []
        for eps in (1e-3, 1e-4):
            rm = catalog.reissner_mindlin(AX2, kappa=eps, nu2=eps)
            sl = rm.block_slices()
            u0 = np.zeros(rm.dim)
            u0[sl["eta"]] = eta0
            # the shear constraint pins s = -grad eta at kappa = 0
            grad_blk = -rm.a.to_dense()[sl["zeta"], sl["eta"]]
            u0[sl["s"]] = -grad_blk @ eta0
            traj = solve(rm.problem(initial=u0), cfg)
            errs.append(np.abs(traj.states[-1][sl["eta"]] - ref).max())
        assert errs[1] < errs[0]


class TestBeams:
    def test_timoshenko_second_order(self):
        # the check runs 16 points with unit coefficients
        entry = catalog.timoshenko((Axis.interval(12),), nu2=0.5, cten=2.0, d=0.2)
        assert verify.second_order_residual(entry) <= 1e-8

    def test_undamped_conservation(self):
        entry = catalog.timoshenko(AX1, d=0.0)
        rng = np.random.default_rng(11)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.01, t_end=10.0))
        drift = np.abs(traj.energies - traj.energies[0]).max() / traj.energies[0]
        assert drift <= 1e-10

    def test_euler_bernoulli_composite(self):
        entry = catalog.euler_bernoulli(AX1)
        d = build_d1(AX1[0]).to_dense()
        comp = d @ d
        m = entry.a.to_dense()
        n = 16
        assert np.array_equal(m[n:, :n], comp)
        assert np.array_equal(m[:n, n:], -comp.T)

    def test_dimension_reduction_consistency(self):
        # the check runs an 8-point line over a 4-point fiber
        mismatch, iso, op_defect = verify.dimension_reduction_residuals(n_line=6, n_torus=3)
        assert mismatch <= 1e-10
        assert iso <= 1e-13
        assert op_defect <= 1e-12
