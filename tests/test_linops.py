"""Tests for the weighted operator algebra."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from protofield import linops
from protofield.linops import (
    MatrixOperator,
    SpaceTag,
    TagMismatchError,
    block_csr,
    identity,
    make_block_skew,
    skew_defect,
    weighted_spectrum,
)
from protofield.subspaces import ProjectionPair, descend, direct_sum_pairs


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
        assert np.array_equal(eye.adjoint().to_dense(), np.eye(3))

    def test_unit_weights_plain_transpose(self):
        t2 = tag("a", 2)
        T = op([[1, 2], [3, 4]], t2, t2)
        assert np.array_equal(T.adjoint().to_dense(), [[1, 3], [2, 4]])

    def test_weighted_scalar_case(self):
        # domain weight 2, codomain weight 1: <T u, v>_1 = u v must equal
        # <u, T* v>_2 = 2 u (T* v), so T* = 1/2
        dom = tag("d", 1, [2.0])
        cod = tag("c", 1, [1.0])
        T = op([[1.0]], dom, cod)
        assert T.adjoint().to_dense()[0, 0] == 0.5

    def test_double_adjoint_is_same_object(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            d0, d1 = rng.integers(1, 7, size=2)
            dom = tag("d", d0, rng.uniform(0.3, 3.0, d0))
            cod = tag("c", d1, rng.uniform(0.3, 3.0, d1))
            T = op(rng.standard_normal((d1, d0)), dom, cod)
            assert T.adjoint().adjoint() is T
            assert np.array_equal(T.adjoint().to_dense(), adjoint_oracle(T))

    def test_uniform_weights_scale_as_the_oracle(self):
        # a uniform weight scales by its scalar, bitwise the per-entry formula
        rng = np.random.default_rng(3)
        dom, cod = tag("d", 6, np.full(6, 1 / 3)), tag("c", 5, np.full(5, 0.7))
        T = op(rng.standard_normal((5, 6)), dom, cod)
        assert np.array_equal(T.adjoint().to_dense(), adjoint_oracle(T))

    def test_one_uniform_weight_gives_the_plain_transpose(self):
        # between tags of one and the same weight 0.1 the adjoint is T^T
        # bitwise, where t * 0.1 / 0.1 would miss t by a rounding
        rng = np.random.default_rng(5)
        dom, cod = tag("d", 30, np.full(30, 0.1)), tag("c", 20, np.full(20, 0.1))
        T = op(rng.standard_normal((20, 30)), dom, cod)
        assert not np.array_equal(adjoint_oracle(T), T.to_dense().T)
        assert np.array_equal(T.adjoint().to_dense(), T.to_dense().T)

    def test_defining_identity_random(self):
        rng = np.random.default_rng(1)
        dom = tag("d", 5, rng.uniform(0.3, 3.0, 5))
        cod = tag("c", 4, rng.uniform(0.3, 3.0, 4))
        T = op(rng.standard_normal((4, 5)), dom, cod)
        Ts = T.adjoint()
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
        assert np.array_equal(A.to_dense(), [[0, -1], [1, 0]])

    def test_zero_block(self):
        A = make_block_skew(op(np.zeros((2, 3)), tag("h0", 3), tag("h1", 2)))
        assert A.max_abs() == 0.0

    def test_random_rectangular_exact(self):
        rng = np.random.default_rng(2)
        t0 = tag("h0", 2, rng.uniform(0.5, 2.0, 2))
        t1 = tag("h1", 3, rng.uniform(0.5, 2.0, 3))
        A = make_block_skew(op(rng.standard_normal((3, 2)), t0, t1))
        assert A.shape == (5, 5)
        # entries are negated copies: the defect is exactly zero
        assert skew_defect(A) == 0.0


class TestIsSkew:
    def test_rotation_true_at_zero_tol(self):
        t = tag("h", 2)
        assert skew_defect(op([[0, -1], [1, 0]], t, t)) == 0.0

    def test_symmetric_false(self):
        t = tag("h", 2)
        assert skew_defect(op([[1, 0], [0, 0]], t, t)) > 1e-12

    def test_tag_mismatch(self):
        with pytest.raises(TagMismatchError):
            skew_defect(op(np.zeros((2, 3)), tag("a", 3), tag("b", 2)))

    def test_shared_pattern_reads_the_data_as_the_sum_does(self):
        rng = np.random.default_rng(30)
        t = tag("h", 6, rng.uniform(0.5, 2.0, 6))
        for _ in range(20):
            m = rng.standard_normal((6, 6)) * (rng.random((6, 6)) < 0.5)
            A = op(m + m.T * (rng.random() < 0.5), t, t)  # a symmetric pattern or not
            assert skew_defect(A) == (A + A.adjoint()).max_abs()

    @pytest.mark.parametrize("fault", ["value", "pattern"])
    def test_an_attached_adjoint_wrong_in_one_entry_fails(self, fault):
        rng = np.random.default_rng(31)
        t0, t1 = tag("h0", 3), tag("h1", 4)
        good = make_block_skew(op(rng.standard_normal((4, 3)), t0, t1))
        assert skew_defect(good) == 0.0
        adj = -good.to_dense()
        row, col = np.argwhere(adj)[3]
        if fault == "value":  # the same pattern: the data path must see it
            adj[row, col] += 1e-9
        else:  # one entry dropped: the sum path must see it
            adj[row, col] = 0.0
        A = MatrixOperator(good.entries, good.domain, good.codomain)
        A._pair(MatrixOperator(adj, good.codomain, good.domain))
        same = np.array_equal(A.entries.indices, A.adjoint().entries.indices)
        assert same == (fault == "value")
        assert skew_defect(A) > 0.0


def relative(C, B0, B1):
    """The (B0, B1)-relative of [[0, -C*], [C, 0]]: descend by B0 (+) B1.

    ProjectionPair checks the hypothesis on each B (B B* = I).
    """
    pair = direct_sum_pairs([ProjectionPair(B0), ProjectionPair(B1)])
    return descend(make_block_skew(C), pair)


class TestCompatibility:
    def test_identity_left_invertible(self):
        t = tag("h", 3)
        C = op(np.eye(3), t, t)
        rel = relative(C, identity(t), identity(t))
        assert np.array_equal(rel.to_dense(), make_block_skew(C).to_dense())


class TestAdjointTheorem:
    # random weighted pairs: verify.check_compatibility_theorem
    def test_identities(self):
        t = tag("h", 3)
        assert np.array_equal((identity(t) @ identity(t).adjoint()).adjoint().to_dense(), np.eye(3))

    def test_hand_case(self):
        # C = diag(1, 2), B the swap: CB* = [[0, 1], [2, 0]], (CB*)* = [[0, 2], [1, 0]]
        # and BC* = [[0, 2], [1, 0]]: equal
        t = tag("h", 2)
        C = op([[1, 0], [0, 2]], t, t)
        B = op([[0, 1], [1, 0]], t, t)
        assert np.array_equal((C @ B.adjoint()).adjoint().to_dense(), [[0, 2], [1, 0]])
        assert np.array_equal((B @ C.adjoint()).to_dense(), [[0, 2], [1, 0]])


class TestRelative:
    # random weighted pairs: verify.check_relative_construction
    def test_identity_pair_reproduces(self):
        rng = np.random.default_rng(4)
        t0, t1 = tag("h0", 3), tag("h1", 2)
        C = op(rng.standard_normal((2, 3)), t0, t1)
        rel = relative(C, identity(t0), identity(t1))
        assert np.array_equal(rel.to_dense(), make_block_skew(C).to_dense())


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


def spectrum_bytes(groups):
    """A weighted_spectrum result as bytes, for bitwise comparison."""
    return [
        b"".join(np.ascontiguousarray(a).tobytes() + str(a.dtype).encode() + str(a.shape).encode()
                 for a in (index, values, q, *others))
        for index, values, q, others in groups]


class TestWeightedSpectrum:
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "weighted"])
    @pytest.mark.parametrize("n_others", [0, 2])
    def test_diagonal_operators_are_their_own_spectrum(self, uniform, n_others, monkeypatch):
        rng = np.random.default_rng(20)
        n = 9
        t = SpaceTag("h", n, None if uniform else rng.uniform(0.5, 2.0, n))
        diagonals = [rng.standard_normal(n) for _ in range(1 + n_others)]
        diagonals[0][[2, 5]] = 0.0
        rows = np.delete(np.arange(n), 2)  # no entry at 2, a stored zero at 5
        ops = [MatrixOperator(sp.csr_matrix((diagonals[0][rows], (rows, rows)), shape=(n, n)), t, t)]
        ops += [MatrixOperator(sp.diags(d, format="csr"), t, t) for d in diagonals[1:]]
        assert ops[0].entries.nnz == n - 1
        spectrum = weighted_spectrum(*ops)
        hand = [(np.arange(n)[:, None], diagonals[0][:, None], np.ones((n, 1, 1)),
                 [d[:, None, None] for d in diagonals[1:]])]
        assert spectrum_bytes(spectrum) == spectrum_bytes(hand)
        # and bitwise what the graph pass and a 1x1 eigh give
        monkeypatch.setattr(linops, "_diagonal", lambda entries: False)
        assert spectrum_bytes(weighted_spectrum(*ops)) == spectrum_bytes(hand)

    def test_one_off_diagonal_coupling_takes_the_graph_pass(self, monkeypatch):
        calls = []
        components = linops.connected_components

        def counting(*args, **kwargs):
            calls.append(args)
            return components(*args, **kwargs)

        monkeypatch.setattr(linops, "connected_components", counting)
        t = SpaceTag("h", 5, np.linspace(0.5, 2.0, 5))
        m0 = identity(t)
        m1 = np.diag(np.linspace(1.0, 2.0, 5))
        m1[1, 3] = m1[3, 1] = 0.25
        groups = weighted_spectrum(m0, op(m1, t, t))
        assert len(calls) == 1
        assert sorted(index.shape[1] for index, *_ in groups) == [1, 2]
        groups = weighted_spectrum(m0, op(np.diag(np.diag(m1)), t, t))
        assert len(calls) == 1 and [index.shape for index, *_ in groups] == [(5, 1)]


def csr_bytes(m):
    """The CSR arrays of m as (dtype, bytes) pairs, and its shape."""
    return m.shape, [(a.dtype.str, a.tobytes()) for a in (m.indptr, m.indices, m.data)]


@st.composite
def csr_blocks(draw, rows, cols):
    """A CSR block, possibly empty, with explicit zeros, unsorted or duplicate columns."""
    nnz = draw(st.integers(0, 2 * rows * cols))
    r = np.sort(draw(st.lists(st.integers(0, rows - 1), min_size=nnz, max_size=nnz)))
    c = draw(st.lists(st.integers(0, cols - 1), min_size=nnz, max_size=nnz))
    data = draw(st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.5, 0.1, 3e300]), min_size=nnz,
                         max_size=nnz))
    indptr = np.searchsorted(r, np.arange(rows + 1)).astype(draw(st.sampled_from([np.int32,
                                                                                   np.int64])))
    block = sp.csr_matrix((np.array(data, float), np.array(c, indptr.dtype), indptr),
                          shape=(rows, cols))
    if draw(st.booleans()):
        block.sum_duplicates()  # canonical
    return block


@st.composite
def block_grids(draw):
    heights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    return [[draw(st.none() | csr_blocks(h, w)) for w in widths] for h in heights]


class TestBlockCsr:
    @settings(max_examples=120)
    @given(grid=block_grids())
    def test_equals_bmat_with_duplicates_summed(self, grid):
        ref = sp.bmat(grid, format="csr")
        ref.sum_duplicates()
        assert csr_bytes(block_csr(grid)) == csr_bytes(ref)

    @settings(max_examples=40)
    @given(grid=block_grids())
    def test_canonical_blocks_give_bmat_itself(self, grid):
        for row in grid:
            for block in row:
                if block is not None:
                    block.sum_duplicates()
        assert csr_bytes(block_csr(grid)) == csr_bytes(sp.bmat(grid, format="csr"))

    def test_sizes_keep_a_block_row_of_none(self):
        eye = sp.identity(2, format="csr")
        out = block_csr([[eye, None], [None, None]], sizes=([2, 3], [2, 3]))
        assert out.shape == (5, 5) and np.array_equal(out.toarray()[:2, :2], np.eye(2))
        assert out.nnz == 2 and np.array_equal(out.indptr, [0, 1, 2, 2, 2, 2])
        assert block_csr([[eye, None], [None, None]]).shape == (2, 2)  # as bmat sizes it

    @pytest.mark.parametrize("grid, sizes", [
        ([[sp.identity(2, format="csr"), sp.identity(3, format="csr")]], None),
        ([[sp.identity(2, format="csr")], [sp.identity(3, format="csr")]], None),
        ([[sp.identity(2, format="csr"), None], [None, sp.identity(2, format="csr")]],
         ([2, 2], [2, 3])),
        ([[sp.identity(2, format="csr"), None], [None]], None),
    ], ids=["row", "column", "sizes", "ragged"])
    def test_mismatched_blocks_raise(self, grid, sizes):
        with pytest.raises(ValueError):
            block_csr(grid, sizes)


ARITHMETIC = {
    "matmul": lambda a, b: a @ b,
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "neg": lambda a, b: -a,
    "mul": lambda a, b: a * 0.5,
    "rmul": lambda a, b: 3.0 * a,
    "adjoint": lambda a, b: a.adjoint(),
}


class TestOwnership:
    @pytest.mark.parametrize("name", ARITHMETIC)
    def test_results_are_read_only_compact_and_their_own(self, name):
        rng = np.random.default_rng(40)
        t = tag("h", 7, rng.uniform(0.5, 2.0, 7))
        a = op(rng.standard_normal((7, 7)) * (rng.random((7, 7)) < 0.4), t, t)
        b = op(-a.to_dense() + np.diag(rng.standard_normal(7)), t, t)  # a + b cancels
        out = ARITHMETIC[name](a, b).entries
        arrays = (out.data, out.indices, out.indptr)
        assert not any(x.flags.writeable for x in arrays)
        assert len(out.data) == len(out.indices) == out.nnz and out.has_canonical_format
        for x in arrays:  # no slack: a view covers its whole buffer
            assert x.base is None or x.base.nbytes == x.nbytes
            for operand in (a.entries, b.entries):
                for y in (operand.data, operand.indices, operand.indptr):
                    assert not np.shares_memory(x, y)

    @pytest.mark.parametrize("sparse", [True, False], ids=["sparse", "dense"])
    def test_a_matrix_passed_in_is_copied(self, sparse):
        m = np.arange(1.0, 10.0).reshape(3, 3)
        given_entries = sp.csr_matrix(m) if sparse else m.copy()
        t = tag("h", 3)
        T = MatrixOperator(given_entries, t, t)
        if sparse:
            given_entries.data[:] = -1.0
            given_entries.indices[:] = 0
        else:
            given_entries[:] = -1.0
        assert np.array_equal(T.to_dense(), m)
