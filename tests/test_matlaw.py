"""Tests for material laws, well-posedness, normalization and Schur reduction."""

import numpy as np
import pytest

from protofield.evolve import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    EvolutionaryProblem,
    SolverConfig,
    _step_operators,
)
from protofield.flatgrid import Axis, build_d1
from protofield.linops import MatrixOperator, SpaceTag, skew_defect
from protofield.matlaw import (
    MaterialLaw,
    MaterialLawError,
    check_wellposed,
    couple,
    normalize_m0,
    schur_reduce,
    symmetrize,
)
from protofield.subspaces import range_kernel_split


def law_on(tagname, m0, m1=None):
    m0 = np.asarray(m0, dtype=float)
    n = m0.shape[0]
    t = SpaceTag(tagname, n)
    m1 = np.zeros((n, n)) if m1 is None else np.asarray(m1, dtype=float)
    return MaterialLaw(m0=MatrixOperator(m0, t, t), m1=MatrixOperator(m1, t, t))


class TestWellposed:
    def test_identity_law(self):
        rep = check_wellposed(law_on("h", np.eye(3)))
        assert rep.passed
        assert rep.c0_estimate == pytest.approx(1.0)
        assert rep.nu_threshold == pytest.approx(1.0)

    def test_heat_pattern_passes(self):
        rep = check_wellposed(law_on("h", np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert rep.passed and rep.kernel_block_positive
        assert rep.c0_estimate == pytest.approx(1.0)

    def test_degenerate_fails_through_kernel(self):
        rep = check_wellposed(law_on("h", np.diag([1.0, 0.0])))
        assert not rep.passed
        assert not rep.kernel_block_positive
        assert rep.c0_estimate <= 0.0

    def test_c0_positive_iff_passed(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            vals = np.where(rng.random(n) < 0.4, 0.0, rng.uniform(0.2, 2.0, n))
            m0 = q @ np.diag(vals) @ q.T
            m0 = 0.5 * (m0 + m0.T)
            m1 = rng.standard_normal((n, n))
            if rng.random() < 0.5:
                m1 = m1 @ m1.T + 0.1 * np.eye(n)  # make sym positive
            rep = check_wellposed(law_on("h", m0, m1))
            assert (rep.c0_estimate > 0) == rep.passed

    def test_non_selfadjoint_rejected_at_construction(self):
        with pytest.raises(MaterialLawError):
            law_on("h", [[1.0, 0.5], [0.0, 1.0]])

    def test_negative_m0_fails(self):
        rep = check_wellposed(law_on("h", np.diag([1.0, -0.5])))
        assert not rep.m0_nonneg and not rep.passed

    def test_nu_threshold_renders_positive(self):
        # coupled sym(M1) between range and kernel of M0: at nu_threshold the
        # combination nu*M0 + sym(M1) must be positive definite
        m0 = np.diag([2.0, 0.0])
        m1 = np.array([[0.0, 3.0], [3.0, 1.5]])
        mlaw = law_on("h", m0, m1)
        rep = check_wellposed(mlaw)
        assert rep.passed
        nu = rep.nu_threshold
        comb = nu * m0 + symmetrize(mlaw.m1).to_dense()
        assert np.linalg.eigvalsh(comb).min() > 0


class TestNormalize:
    def aco_operator(self, n=4):
        d = build_d1(Axis.dirichlet(n, 1.0 / (n + 1))).to_dense()
        t = SpaceTag("h", 2 * n)
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = -d.T
        a[n:, :n] = d
        return MatrixOperator(a, t, t)

    def test_identity_unchanged(self):
        A = self.aco_operator()
        mlaw = law_on("h", np.eye(8))
        new_law, new_a, s = normalize_m0(mlaw, A)
        assert np.allclose(s.to_dense(), np.eye(8), atol=1e-14)
        assert np.allclose(new_a.to_dense(), A.to_dense(), atol=1e-13)

    def test_diag_4_0(self):
        mlaw = law_on("h", np.diag([4.0, 0.0]), np.diag([0.0, 1.0]))
        t = mlaw.space
        A = MatrixOperator(np.zeros((2, 2)), t, t)
        new_law, _, s = normalize_m0(mlaw, A)
        assert np.allclose(s.to_dense(), np.diag([0.5, 1.0]), atol=1e-14)
        assert np.allclose(new_law.m0.to_dense(), np.diag([1.0, 0.0]), atol=1e-14)

    def test_conjugated_m0_is_projector(self):
        rng = np.random.default_rng(1)
        n = 6
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        vals = np.array([2.0, 1.3, 0.7, 0.0, 0.0, 3.1])
        m0 = q @ np.diag(vals) @ q.T
        m0 = 0.5 * (m0 + m0.T)
        m1 = np.eye(n)
        mlaw = law_on("h", m0, m1)
        t = mlaw.space
        A = MatrixOperator(np.zeros((n, n)), t, t)
        new_law, _, s = normalize_m0(mlaw, A)
        p = new_law.m0.to_dense()
        assert np.abs(p @ p - p).max() <= 1e-12
        sms = s.to_dense() @ m0 @ s.to_dense()
        assert np.abs(sms - p).max() <= 1e-12

    def test_preserves_skewness_and_verdict(self):
        rng = np.random.default_rng(2)
        A = self.aco_operator()
        m0 = np.diag(np.concatenate([rng.uniform(0.5, 2.0, 4), np.zeros(4)]))
        m1 = np.zeros((8, 8))
        m1[4:, 4:] = np.eye(4)
        mlaw = law_on("h", m0, m1)
        assert check_wellposed(mlaw).passed
        new_law, new_a, _ = normalize_m0(mlaw, A)
        assert skew_defect(new_a) <= 1e-12 * max(new_a.max_abs(), 1.0)
        assert check_wellposed(new_law).passed

    def test_requires_wellposed(self):
        mlaw = law_on("h", np.diag([1.0, 0.0]))
        t = mlaw.space
        A = MatrixOperator(np.zeros((2, 2)), t, t)
        with pytest.raises(MaterialLawError):
            normalize_m0(mlaw, A)


def step_pair(mlaw, A, tau, scheme=IMPLICIT_EULER):
    """The (left, right) step operators the solvers factor and apply."""
    problem = EvolutionaryProblem(law=mlaw, a=A, initial=np.zeros(mlaw.space.dim))
    return _step_operators(problem, SolverConfig(tau=tau, t_end=tau, scheme=scheme))


class TestStepMatrix:
    def test_scalar_case(self):
        mlaw = law_on("h", np.eye(2))
        t = mlaw.space
        A = MatrixOperator(np.zeros((2, 2)), t, t)
        left, right = step_pair(mlaw, A, 0.5)
        assert np.array_equal(left.to_dense(), 2.0 * np.eye(2))
        assert np.array_equal(right.to_dense(), 2.0 * np.eye(2))

    def test_heat_1d_hand_assembly(self):
        # 3-point rod, unit spacing: implicit Euler S = [[rho/tau, div], [grad0, sigma]]
        # against M0/tau; Crank-Nicolson M0/tau +- (M1 + A)/2
        n, tau = 3, 0.1
        d = build_d1(Axis.dirichlet(3, 1.0)).to_dense()
        t = SpaceTag("h", 2 * n)
        a = np.zeros((2 * n, 2 * n))
        a[:n, n:] = -d.T
        a[n:, :n] = d
        A = MatrixOperator(a, t, t)
        m0 = np.diag([1.0] * n + [0.0] * n)
        m1 = np.diag([0.0] * n + [1.0] * n)
        mlaw = law_on("h", m0, m1)
        left, right = step_pair(mlaw, A, tau)
        expected = np.zeros((6, 6))
        expected[:3, :3] = np.eye(3) / tau
        expected[3:, 3:] = np.eye(3)
        expected[:3, 3:] = -d.T
        expected[3:, :3] = d
        assert np.array_equal(left.to_dense(), expected)
        assert np.array_equal(right.to_dense(), m0 / tau)
        left, right = step_pair(mlaw, A, tau, CRANK_NICOLSON)
        assert np.array_equal(left.to_dense(), m0 / tau + 0.5 * (m1 + a))
        assert np.array_equal(right.to_dense(), m0 / tau - 0.5 * (m1 + a))

    def test_symmetric_part_drops_skew(self):
        rng = np.random.default_rng(3)
        n = 5
        t = SpaceTag("h", n)
        m = rng.standard_normal((n, n))
        A = MatrixOperator(m - m.T, t, t)
        m0 = np.eye(n)
        m1 = rng.standard_normal((n, n))
        mlaw = law_on("h", m0, m1)
        left, _ = step_pair(mlaw, A, 0.25)
        sym_part = symmetrize(left).to_dense()
        expected = m0 / 0.25 + 0.5 * (m1 + m1.T)
        assert np.abs(sym_part - expected).max() <= 1e-13

    def test_tau_positive(self):
        with pytest.raises(ValueError, match="tau"):
            SolverConfig(tau=0.0, t_end=1.0)


class TestSchur:
    def split_pairs(self, n, k):
        """First n-k coordinates = 'range', last k = 'kernel'."""
        from protofield.subspaces import ProjectionPair

        t = SpaceTag("h", n)
        pr = np.zeros((n - k, n))
        pr[np.arange(n - k), np.arange(n - k)] = 1.0
        pk = np.zeros((k, n))
        pk[np.arange(k), n - k + np.arange(k)] = 1.0
        return (t,
                ProjectionPair(MatrixOperator(pr, t, SpaceTag("r", n - k))),
                ProjectionPair(MatrixOperator(pk, t, SpaceTag("k", k))))

    def test_hand_2x2(self):
        t, pr, pk = self.split_pairs(2, 1)
        S = MatrixOperator(np.array([[2.0, 1.0], [1.0, 2.0]]), t, t)
        reduced, recipe = schur_reduce(S, pr, pk)
        assert reduced.to_dense()[0, 0] == pytest.approx(1.5)
        # recipe: x_k = (f_k - x_r) / 2
        x = recipe.kernel_component(np.array([0.0, 3.0]), np.array([1.0]))
        assert x[0] == pytest.approx((3.0 - 1.0) / 2.0)

    def test_block_diagonal(self):
        t, pr, pk = self.split_pairs(4, 2)
        m = np.zeros((4, 4))
        m[:2, :2] = [[2.0, 0.3], [0.3, 2.0]]
        m[2:, 2:] = [[4.0, 0.0], [0.0, 5.0]]
        S = MatrixOperator(m, t, t)
        reduced, recipe = schur_reduce(S, pr, pk)
        assert np.allclose(reduced.to_dense(), m[:2, :2], atol=1e-15)
        x = recipe.kernel_component(np.array([0.0, 0.0, 4.0, 10.0]), np.zeros(2))
        assert np.allclose(x, [1.0, 2.0])

    def test_full_solve_equals_reduce_reconstruct(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n))
            t, pr, pk = self.split_pairs(n, k)
            m = rng.standard_normal((n, n))
            S_ent = m @ m.T + 0.5 * np.eye(n)       # symmetric positive definite
            skew = rng.standard_normal((n, n))
            S_ent = S_ent + (skew - skew.T)
            S = MatrixOperator(S_ent, t, t)
            reduced, recipe = schur_reduce(S, pr, pk)
            rhs = rng.standard_normal(n)
            x_full = np.linalg.solve(S_ent, rhs)
            x_r = np.linalg.solve(reduced.to_dense(), recipe.reduce_rhs(rhs))
            x_rec = recipe.assemble(rhs, x_r)
            assert np.abs(x_full - x_rec).max() <= 1e-12 * max(np.abs(x_full).max(), 1.0)

    def test_positivity_persists_without_coupling(self):
        t, pr, pk = self.split_pairs(4, 2)
        m = np.zeros((4, 4))
        m[:2, :2] = 3.0 * np.eye(2)
        m[2:, 2:] = 2.0 * np.eye(2)
        reduced, _ = schur_reduce(MatrixOperator(m, t, t), pr, pk)
        assert np.linalg.eigvalsh(reduced.to_dense()).min() >= 3.0 - 1e-12

    def test_positivity_with_coupling_on_catalog_step(self):
        from protofield import catalog

        entry = catalog.heat((Axis.torus(6),))
        pr, pk = range_kernel_split(entry.a)
        S, _ = step_pair(entry.law, entry.a, 0.05)
        reduced, _ = schur_reduce(S, pr, pk)
        sym = 0.5 * (reduced.to_dense() + reduced.to_dense().T)
        assert np.linalg.eigvalsh(sym).min() > 0

    def test_singular_kernel_block_rejected(self):
        t, pr, pk = self.split_pairs(2, 1)
        S = MatrixOperator(np.array([[2.0, 1.0], [1.0, 0.0]]), t, t)
        with pytest.raises(MaterialLawError, match="positive"):
            schur_reduce(S, pr, pk)


class TestCouple:
    def test_block_diagonal_without_off_blocks(self):
        a = law_on("a", np.diag([1.0, 2.0]))
        b = law_on("b", np.diag([3.0]))
        c = couple([a, b])
        assert np.array_equal(c.m0.to_dense(), np.diag([1.0, 2.0, 3.0]))

    def test_coupling_m1_plus_minus_one(self):
        # the plate coupling: -1 above, +1 below between two scalar laws
        a = law_on("a", np.eye(1))
        b = law_on("b", np.eye(1))
        c = couple([a, b], {(0, 1): (None, np.array([[-1.0]])),
                            (1, 0): (None, np.array([[1.0]]))})
        assert np.array_equal(c.m1.to_dense(), [[0.0, -1.0], [1.0, 0.0]])

    def test_m0_mirror_keeps_selfadjoint(self):
        rng = np.random.default_rng(5)
        a = law_on("a", np.eye(3))
        b = law_on("b", np.eye(2))
        blk = rng.standard_normal((3, 2))
        c = couple([a, b], {(0, 1): (blk, None)})
        m0 = c.m0.to_dense()
        assert np.array_equal(m0[:3, 3:], blk)
        assert np.array_equal(m0[3:, :3], blk.T)
        # constructor already verified exact selfadjointness

    def test_m0_mirror_nonuniform_weights(self):
        # the mirror is the weighted adjoint of the block, coordinate by
        # coordinate, not a transpose scaled by one weight ratio per block
        ta = SpaceTag("a", 2, [1.0, 2.0])
        tb = SpaceTag("b", 2, [0.5, 3.0])
        a = MaterialLaw(m0=MatrixOperator(np.eye(2), ta, ta),
                        m1=MatrixOperator(np.zeros((2, 2)), ta, ta))
        b = MaterialLaw(m0=MatrixOperator(np.eye(2), tb, tb),
                        m1=MatrixOperator(np.zeros((2, 2)), tb, tb))
        blk = np.array([[1.0, 2.0], [3.0, 4.0]])
        m0 = couple([a, b], {(0, 1): (blk, None)}).m0.to_dense()
        assert np.array_equal(m0[:2, 2:], blk)
        # <B u, v>_a = <u, B* v>_b: B*[q, p] = B[p, q] w_a[p] / w_b[q]
        expected = blk.T * np.array([1.0, 2.0])[None, :] / np.array([0.5, 3.0])[:, None]
        assert np.allclose(m0[2:, :2], expected, rtol=1e-15, atol=0)

    def test_inconsistent_mirror_rejected(self):
        a = law_on("a", np.eye(1))
        b = law_on("b", np.eye(1))
        with pytest.raises(MaterialLawError):
            couple([a, b], {(0, 1): (np.array([[1.0]]), None),
                            (1, 0): (np.array([[2.0]]), None)})

    def test_order_independent_up_to_permutation(self):
        a = law_on("a", np.diag([1.0, 2.0]))
        b = law_on("b", np.diag([3.0]))
        ab = couple([a, b]).m0.to_dense()
        ba = couple([b, a]).m0.to_dense()
        perm = np.zeros((3, 3))
        perm[0, 2] = perm[1, 0] = perm[2, 1] = 1.0
        assert np.array_equal(perm @ ab @ perm.T, ba)

    def test_associative_with_zero_off_blocks(self):
        a = law_on("a", np.diag([1.0, 2.0]))
        b = law_on("b", np.diag([3.0]))
        c = law_on("c", np.diag([4.0, 5.0]), np.diag([0.5, 0.0]))
        left = couple([couple([a, b]), c])
        right = couple([a, couple([b, c])])
        assert np.array_equal(left.m0.to_dense(), right.m0.to_dense())
        assert np.array_equal(left.m1.to_dense(), right.m1.to_dense())
