"""Tests for the flat-grid tensor calculus."""

import numpy as np
import pytest
import scipy.sparse as sp

from protofield.flatgrid import (
    Axis,
    TensorFieldSpace,
    TensorStack,
    build_d1,
    build_div,
    build_nabla,
    build_stack_derivative,
    build_stack_skew,
    point_derivative,
)
from protofield.linops import skew_defect
from protofield.verify import adjointness_residual


class TestAxis:
    def test_validation(self):
        with pytest.raises(ValueError):
            Axis(n=1, h=0.1)
        with pytest.raises(ValueError):
            Axis(n=4, h=-0.1)
        with pytest.raises(ValueError):
            Axis(n=4, h=0.3, bc="periodic")  # torus measure must be 1

    def test_torus_measure_one(self):
        a = Axis.torus(5)
        assert a.n * a.h == pytest.approx(1.0)

    def test_symmetric_needs_even(self):
        with pytest.raises(ValueError):
            Axis.symmetric(5, 0.1)


class TestD1:
    def test_dirichlet_n3(self):
        d = build_d1(Axis.dirichlet(3, 1.0)).to_dense()
        assert np.array_equal(d, [[-1, 1, 0], [0, -1, 1], [0, 0, -1]])

    def test_periodic_n3(self):
        d = build_d1(Axis(3, 1.0 / 3.0, "periodic")).to_dense() / 3.0
        assert np.allclose(d, [[-1, 1, 0], [0, -1, 1], [1, 0, -1]], atol=1e-15)

    def test_periodic_kills_constants(self):
        d = build_d1(Axis.torus(6))
        assert np.abs(d.apply(np.ones(6))).max() == 0.0

    def test_norm_scales_inversely_with_h(self):
        a = np.linalg.norm(build_d1(Axis.dirichlet(8, 0.5)).to_dense(), 2)
        b = np.linalg.norm(build_d1(Axis.dirichlet(8, 0.25)).to_dense(), 2)
        assert b == pytest.approx(2.0 * a, rel=1e-14)


class TestNabla:
    def test_1d_rank0_equals_d1(self):
        axes = (Axis.dirichlet(5, 0.2),)
        nab = build_nabla(TensorFieldSpace(axes, 0))
        assert np.array_equal(nab.to_dense(), build_d1(axes[0]).to_dense())

    def test_constant_field_on_torus(self):
        axes = (Axis.torus(4), Axis.torus(4))
        nab = build_nabla(TensorFieldSpace(axes, 0))
        assert np.abs(nab.apply(np.ones(16))).max() == 0.0

    def test_linear_field_unit_grid(self):
        # f(i, j) = i on a 3x3 unit grid: the first-slot component of the
        # derivative is 1 wherever the forward neighbor exists
        axes = (Axis.dirichlet(3, 1.0), Axis.dirichlet(3, 1.0))
        space = TensorFieldSpace(axes, 0)
        f = np.repeat(np.arange(3.0), 3)          # C order: i slow, j fast
        df = build_nabla(space).apply(f)
        comp0 = df[:9].reshape(3, 3)
        assert np.array_equal(comp0[:2], np.ones((2, 3)))
        # last row sees the zero ghost: (0 - 2)/1
        assert np.array_equal(comp0[2], -2.0 * np.ones(3))
        comp1 = df[9:].reshape(3, 3)
        assert np.array_equal(comp1[:, :2], np.zeros((3, 2)))

    def test_rank_raising_shapes(self):
        axes = (Axis.torus(3), Axis.torus(3))
        for k in range(3):
            nab = build_nabla(TensorFieldSpace(axes, k))
            assert nab.shape == (9 * 2 ** (k + 1), 9 * 2 ** k)

    def test_mixed_partials_commute_on_torus(self):
        # slot swap of the second derivative of a scalar is the identity for
        # commuting periodic stencils
        axes = (Axis.torus(4), Axis.torus(4))
        s0 = TensorFieldSpace(axes, 0)
        s1 = TensorFieldSpace(axes, 1)
        rng = np.random.default_rng(0)
        f = rng.standard_normal(s0.dim)
        ddf = build_nabla(s1).apply(build_nabla(s0).apply(f))
        npts = s0.npoints
        comp = ddf.reshape(2, 2, npts)
        assert np.abs(comp[0, 1] - comp[1, 0]).max() <= 1e-15 * max(np.abs(ddf).max(), 1)


class TestDiv:
    def test_1d_dirichlet_is_negative_transpose(self):
        axes = (Axis.dirichlet(3, 1.0),)
        div = build_div(TensorFieldSpace(axes, 1))
        assert np.array_equal(div.to_dense(), -build_d1(axes[0]).to_dense().T)

    def test_rank0_rejected(self):
        with pytest.raises(ValueError):
            build_div(TensorFieldSpace((Axis.torus(4),), 0))

    def test_div_of_constant_gradient(self):
        axes = (Axis.torus(4), Axis.torus(4))
        nab = build_nabla(TensorFieldSpace(axes, 0))
        div = build_div(TensorFieldSpace(axes, 1))
        assert np.abs(div.apply(nab.apply(np.ones(16)))).max() == 0.0

    def test_integration_by_parts_exact(self):
        axes = (Axis.dirichlet(4, 0.25), Axis.dirichlet(4, 0.25))
        worst, _ = adjointness_residual([axes], np.random.default_rng(1), pairs=5)
        assert worst <= 1e-13

    def test_adjoint_equals_negative_div_entrywise(self):
        axes = (Axis.torus(3), Axis.dirichlet(3, 0.1))
        nab = build_nabla(TensorFieldSpace(axes, 0))
        div = build_div(TensorFieldSpace(axes, 1))
        assert np.array_equal(nab.adjoint().to_dense(), -div.to_dense())


class TestStack:
    def test_k1_matches_acoustic_pattern(self):
        axes = (Axis.dirichlet(5, 0.2),)
        stack = TensorStack(axes, 1)
        A = build_stack_skew(stack).to_dense()
        d = build_d1(axes[0]).to_dense()
        n = 5
        # blocks: copy0 = (rank0, rank1), copy1 = (rank0, rank1)
        assert np.array_equal(A[3 * n:, :n], d)          # rank0 -> copy1 rank1
        assert np.array_equal(A[:n, 3 * n:], -d.T)       # minus the adjoint
        assert np.abs(A[n: 2 * n]).max() == 0.0          # rank1 of copy0 feeds nothing here

    def test_zero_on_zero(self):
        stack = TensorStack((Axis.torus(4),), 1)
        A = build_stack_skew(stack)
        assert np.abs(A.apply(np.zeros(stack.dim))).max() == 0.0

    def test_3d_k3_exactly_skew(self):
        stack = TensorStack((Axis.torus(4),) * 3, 3)
        A = build_stack_skew(stack)
        assert skew_defect(A) == 0.0
        for op in (build_stack_derivative(stack), A):
            assert sp.issparse(op.entries) and op.entries.format == "csr"

    def test_mixed_bc_exactly_skew(self):
        stack = TensorStack((Axis.torus(4), Axis.dirichlet(4, 0.2), Axis.torus(4)), 3)
        assert skew_defect(build_stack_skew(stack)) == 0.0

    def test_block_slices_partition(self):
        stack = TensorStack((Axis.torus(3), Axis.torus(3)), 2)
        covered = []
        for copy in (0, 1):
            for rank in range(3):
                sl = stack.block_slice(copy, rank)
                covered.extend(range(sl.start, sl.stop))
        assert sorted(covered) == list(range(stack.dim))


class TestSharedBuilds:
    """The parent operator and the point partials are built once and shared."""

    def test_equal_stack_returns_the_same_operator(self):
        axes = [Axis.torus(3), Axis.dirichlet(4, 0.2)]
        first = build_stack_skew(TensorStack(axes, 2))
        assert build_stack_skew(TensorStack(tuple(axes), 2)) is first

    def test_cached_stencil_is_read_only(self):
        P = point_derivative((Axis.torus(4), Axis.dirichlet(3, 0.25)), 1)
        assert point_derivative((Axis.torus(4), Axis.dirichlet(3, 0.25)), 1) is P
        for arr in (P.data, P.indices, P.indptr):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_memos_are_bounded(self):
        for fn in (build_stack_skew, point_derivative):
            assert 0 < fn.cache_info().maxsize < np.inf

    def test_rebuilt_parent_is_bitwise_equal(self):
        stack = TensorStack((Axis.torus(3), Axis.dirichlet(4, 0.2), Axis.torus(2)), 3)
        cached = build_stack_skew(stack).entries
        build_stack_skew.cache_clear()
        point_derivative.cache_clear()
        rebuilt = build_stack_skew(stack).entries
        assert rebuilt is not cached
        for part in ("indptr", "indices", "data"):
            a, b = getattr(cached, part), getattr(rebuilt, part)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("axes", [(Axis.torus(4),) * 3, (Axis.torus(4), Axis.torus(2))],
                             ids=["torus4^3", "torus4xtorus2"])
    def test_partials_store_no_zeros(self, axes):
        for d in range(len(axes)):
            P = point_derivative(axes, d)
            assert P.format == "csr" and P.nnz == P.count_nonzero()
