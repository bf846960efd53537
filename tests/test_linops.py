"""Tests for the weighted operator algebra."""

import numpy as np
import pytest

from protofield.linops import (
    MatrixOperator,
    PreconditionError,
    SpaceTag,
    TagMismatchError,
    adjoint,
    check_compatibility,
    identity,
    is_skew_selfadjoint,
    make_block_skew,
    make_relative,
    skew_defect,
)


def tag(name, dim, weight=None):
    return SpaceTag(name, dim, weight)


def op(entries, dom, cod):
    return MatrixOperator(np.asarray(entries, dtype=float), dom, cod)


def adjoint_oracle(T):
    """Independent adjoint from the defining identity.

    <T e_j, e_i>_cod = w_cod[i] T[i, j] must equal <e_j, T* e_i>_dom
    = w_dom[j] T*[j, i], so T*[j, i] = T[i, j] w_cod[i] / w_dom[j].
    """
    m = T.to_dense()
    out = np.empty((T.domain.dim, T.codomain.dim))
    for j in range(T.domain.dim):
        for i in range(T.codomain.dim):
            out[j, i] = m[i, j] * T.codomain.weight[i] / T.domain.weight[j]
    return out


class TestAdjoint:
    def test_identity_selfadjoint(self):
        t = tag("h", 3, [0.7, 1.3, 2.0])
        eye = identity(t)
        assert np.array_equal(adjoint(eye).to_dense(), np.eye(3))

    def test_unit_weights_plain_transpose(self):
        t2 = tag("a", 2)
        T = op([[1, 2], [3, 4]], t2, t2)
        assert np.array_equal(adjoint(T).to_dense(), [[1, 3], [2, 4]])

    def test_weighted_scalar_case(self):
        # domain weight 2, codomain weight 1: <T u, v>_1 = u v must equal
        # <u, T* v>_2 = 2 u (T* v), so T* = 1/2
        dom = tag("d", 1, [2.0])
        cod = tag("c", 1, [1.0])
        T = op([[1.0]], dom, cod)
        assert adjoint(T).to_dense()[0, 0] == 0.5

    def test_double_adjoint_is_same_object(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d0, d1 = rng.integers(1, 7, size=2)
            dom = tag("d", d0, rng.uniform(0.3, 3.0, d0))
            cod = tag("c", d1, rng.uniform(0.3, 3.0, d1))
            T = op(rng.standard_normal((d1, d0)), dom, cod)
            assert adjoint(adjoint(T)) is T
            assert np.array_equal(adjoint(T).to_dense(), adjoint_oracle(T))

    def test_defining_identity_random(self):
        rng = np.random.default_rng(1)
        dom = tag("d", 5, rng.uniform(0.3, 3.0, 5))
        cod = tag("c", 4, rng.uniform(0.3, 3.0, 4))
        T = op(rng.standard_normal((4, 5)), dom, cod)
        Ts = adjoint(T)
        for _ in range(10):
            u = rng.standard_normal(5)
            v = rng.standard_normal(4)
            lhs = np.sum(cod.weight * T.apply(u) * v)
            rhs = np.sum(dom.weight * u * Ts.apply(v))
            assert abs(lhs - rhs) < 1e-12 * max(abs(lhs), 1.0)


class TestBlockSkew:
    def test_scalar_rotation(self):
        t = tag("h", 1)
        A = make_block_skew(op([[1.0]], t, t))
        assert np.array_equal(A.as_matrix().to_dense(), [[0, -1], [1, 0]])

    def test_zero_block(self):
        A = make_block_skew(op(np.zeros((2, 3)), tag("h0", 3), tag("h1", 2)))
        assert A.as_matrix().max_abs() == 0.0

    def test_random_rectangular_exact(self):
        rng = np.random.default_rng(2)
        t0 = tag("h0", 2, rng.uniform(0.5, 2.0, 2))
        t1 = tag("h1", 3, rng.uniform(0.5, 2.0, 3))
        A = make_block_skew(op(rng.standard_normal((3, 2)), t0, t1))
        assert A.as_matrix().shape == (5, 5)
        # entries are negated copies: the defect is exactly zero
        assert skew_defect(A.as_matrix()) == 0.0
        assert is_skew_selfadjoint(A, tol=0.0)


class TestIsSkew:
    def test_rotation_true_at_zero_tol(self):
        t = tag("h", 2)
        assert is_skew_selfadjoint(op([[0, -1], [1, 0]], t, t), tol=0.0)

    def test_symmetric_false(self):
        t = tag("h", 2)
        assert not is_skew_selfadjoint(op([[1, 0], [0, 0]], t, t), tol=1e-12)

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            is_skew_selfadjoint(op(np.zeros((2, 3)), tag("a", 3), tag("b", 2)))


class TestCompatibility:
    def test_identity_left_invertible(self):
        t = tag("h", 3)
        rep = check_compatibility(op(np.eye(3), t, t), identity(t))
        assert rep.dense_definedness and rep.left_invertible
        assert rep.smallest_singular_value == pytest.approx(1.0)

    def test_zero_not_left_invertible(self):
        t = tag("h", 3)
        x = tag("x", 2)
        rep = check_compatibility(op(np.eye(3), t, t), op(np.zeros((2, 3)), t, x))
        assert not rep.left_invertible

    def test_partial_isometry_unit_singular_value(self):
        t = tag("h", 4)
        x = tag("x", 2)
        B = op(np.array([[1, 0, 0, 0], [0, 0, 1, 0]], float), t, x)
        rep = check_compatibility(op(np.eye(4), t, t), B)
        assert rep.left_invertible
        assert rep.smallest_singular_value == pytest.approx(1.0, abs=1e-14)


class TestAdjointTheorem:
    # random weighted pairs: verify.check_compatibility_theorem
    def test_identities(self):
        t = tag("h", 3)
        assert np.array_equal(adjoint(identity(t) @ adjoint(identity(t))).to_dense(), np.eye(3))

    def test_hand_case(self):
        # C = diag(1, 2), B the swap: CB* = [[0, 1], [2, 0]], (CB*)* = [[0, 2], [1, 0]]
        # and BC* = [[0, 2], [1, 0]]: equal
        t = tag("h", 2)
        C = op([[1, 0], [0, 2]], t, t)
        B = op([[0, 1], [1, 0]], t, t)
        assert np.array_equal(adjoint(C @ adjoint(B)).to_dense(), [[0, 2], [1, 0]])
        assert np.array_equal((B @ adjoint(C)).to_dense(), [[0, 2], [1, 0]])


class TestRelative:
    # random weighted partial isometries: verify.check_relative_construction
    def test_identity_pair_reproduces(self):
        rng = np.random.default_rng(4)
        t0, t1 = tag("h0", 3), tag("h1", 2)
        A = make_block_skew(op(rng.standard_normal((2, 3)), t0, t1))
        rel = make_relative(A, identity(t0), identity(t1))
        assert np.allclose(rel.to_dense(), A.as_matrix().to_dense(), atol=1e-15)

    def test_sign_flip_pair(self):
        # B0 = 1, B1 = -1 on scalars flips the rotation: the diag(1, -1)
        # conjugate of [[0, -1], [1, 0]] is [[0, 1], [-1, 0]]
        t = tag("h", 1)
        A = make_block_skew(op([[1.0]], t, t))
        rel = make_relative(A, op([[1.0]], t, t), op([[-1.0]], t, t))
        assert np.array_equal(rel.to_dense(), [[0, 1], [-1, 0]])
        d = np.diag([1.0, -1.0])
        conj = d @ A.as_matrix().to_dense() @ d
        assert np.array_equal(rel.to_dense(), conj)

    def test_unitary_pair_is_conjugation(self):
        rng = np.random.default_rng(6)
        d0, d1 = 4, 3
        t0, t1 = tag("h0", d0), tag("h1", d1)
        A = make_block_skew(op(rng.standard_normal((d1, d0)), t0, t1))
        q0, _ = np.linalg.qr(rng.standard_normal((d0, d0)))
        q1, _ = np.linalg.qr(rng.standard_normal((d1, d1)))
        B0 = op(q0.T, t0, tag("x", d0))
        B1 = op(q1.T, t1, tag("y", d1))
        rel = make_relative(A, B0, B1)
        u = np.zeros((7, 7))
        u[:4, :4] = q0.T
        u[4:, 4:] = q1.T
        conj = u @ A.as_matrix().to_dense() @ u.T
        assert np.allclose(rel.to_dense(), conj, atol=1e-13)

    def test_degenerate_b0_rejected(self):
        t0, t1 = tag("h0", 2), tag("h1", 2)
        A = make_block_skew(op(np.eye(2), t0, t1))
        bad = op(np.zeros((1, 2)), t0, tag("x", 1))
        with pytest.raises(PreconditionError, match="left-inverse"):
            make_relative(A, bad, identity(t1))


class TestTagDiscipline:
    def test_composition_requires_equal_tags(self):
        a = op(np.eye(2), tag("a", 2), tag("b", 2))
        c = op(np.eye(2), tag("c", 2), tag("d", 2))
        with pytest.raises(TagMismatchError):
            a @ c

    def test_weights_must_match_exactly(self):
        t1 = tag("a", 2, [1.0, 1.0])
        t2 = tag("a", 2, [1.0, 1.0 + 1e-15])
        assert t1 == tag("a", 2, [1.0, 1.0])
        assert t1 != t2

    @pytest.mark.filterwarnings("ignore::scipy.sparse.SparseEfficiencyWarning")
    def test_immutability(self):
        t = tag("a", 2)
        T = op(np.eye(2), t, t)
        assert T.entries.format == "csr"
        with pytest.raises(AttributeError):
            T.entries = np.zeros((2, 2))
        with pytest.raises(ValueError):
            T.entries[0, 0] = 5.0
        with pytest.raises(ValueError):  # a structural zero: no insertion either
            T.entries[0, 1] = 5.0
