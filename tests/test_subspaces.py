"""Tests for the projection machinery."""

from itertools import combinations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings, strategies as st

from protofield import catalog, evolve, verify
from protofield.flatgrid import (PERIODIC, Axis, TensorFieldSpace, TensorStack, build_d1,
                                 build_stack_skew)
from protofield.linops import MatrixOperator, SpaceTag, identity, make_block_skew, skew_defect
from protofield.subspaces import (
    PAIR_VALIDATION_TOL,
    ProjectionPair,
    ShiftCut,
    asym_projection,
    component_select,
    descend,
    direct_sum_pairs,
    even_odd,
    identity_pair,
    pointwise_pair,
    range_kernel_split,
    rank_block,
    shift_cut,
    sym_projection,
    torus_average,
)

PAIR_TOL = 1e-13


def split(A, *others, grid=()):
    """(cut, range pair, kernel pair): the range/kernel split of A on the cut it
    shares with `others`, as solve_reduced takes it."""
    cut, symbols = shift_cut(A.domain, grid, A, *others)
    return (cut, *range_kernel_split(cut, symbols[0], A.domain))


def dense_split(A, rank_tol=1e-10):
    """Range and kernel pi from one dense SVD of the whole weighted matrix (the reference)."""
    sw = np.sqrt(A.domain.weight)
    U, svals, _ = np.linalg.svd(sw[:, None] * A.to_dense() / sw[None, :])
    nrank = int(np.sum(svals > rank_tol * max(svals[0], 1e-300)))
    return U[:, :nrank].T * sw[None, :], U[:, nrank:].T * sw[None, :]


def dense_projector(cut, pair):
    """pi* pi as a dense matrix: the transform of the cut the pair was split
    on, applied to identity columns."""
    coords = cut.forward(np.eye(cut.dim))
    out = np.zeros_like(coords)
    for index, basis in pair.groups:
        out[index] = basis @ (basis.conj().transpose(0, 2, 1) @ coords[index])
    return cut.inverse(out)


def assert_pair_invariants(pair):
    gram = (pair.pi @ pair.embedding).to_dense()
    assert np.abs(gram - np.eye(pair.codomain.dim)).max() <= PAIR_TOL
    P = pair.orthogonal_projector().to_dense()
    assert np.abs(P @ P - P).max() <= PAIR_TOL
    assert np.abs(P - P.T).max() <= PAIR_TOL


class TestRankBlock:
    def test_all_ranks_is_identity(self):
        stack = TensorStack((Axis.torus(3),), 1)
        pv = rank_block(stack, {0, 1}, {0, 1})
        assert np.array_equal(pv.pi.to_dense(), np.eye(stack.dim))

    def test_acoustic_selection_pattern(self):
        axes = (Axis(4, 0.2),)
        stack = TensorStack(axes, 1)
        A = build_stack_skew(stack)
        pv = rank_block(stack, {0}, {1})
        assert_pair_invariants(pv)
        a = descend(A, pv).to_dense()
        d = build_d1(axes[0]).to_dense()
        assert np.array_equal(a[4:, :4], d)
        assert np.array_equal(a[:4, 4:], -d.T)

    def test_out_of_range(self):
        stack = TensorStack((Axis.torus(3),), 1)
        with pytest.raises(ValueError):
            rank_block(stack, {0, 2}, {1})

    def test_elastic_parent_dims(self):
        stack = TensorStack((Axis.torus(3),) * 3, 2)
        pv = rank_block(stack, {1}, {2})
        assert pv.codomain.dim == 27 * 3 + 27 * 9


class TestSymAsym:
    def test_component_counts(self):
        space = TensorFieldSpace((Axis.torus(3),) * 3, 2)
        assert sym_projection(space).codomain.dim == 27 * 6
        assert asym_projection(space).codomain.dim == 27 * 3

    def test_symmetric_input_killed_by_asym(self):
        axes = (Axis.torus(3), Axis.torus(3))
        space = TensorFieldSpace(axes, 2)
        rng = np.random.default_rng(0)
        npts = space.npoints
        t = rng.standard_normal(space.dim)
        sym_t = t.copy()
        c01 = space.component_index((0, 1)) * npts
        c10 = space.component_index((1, 0)) * npts
        avg = 0.5 * (t[c01:c01 + npts] + t[c10:c10 + npts])
        sym_t[c01:c01 + npts] = avg
        sym_t[c10:c10 + npts] = avg
        assert np.abs(asym_projection(space).pi.apply(sym_t)).max() <= 1e-14

    def test_projectors_resolve_identity(self):
        space = TensorFieldSpace((Axis.torus(3), Axis.torus(3)), 2)
        ps = sym_projection(space).orthogonal_projector().to_dense()
        pa = asym_projection(space).orthogonal_projector().to_dense()
        assert np.abs(ps + pa - np.eye(space.dim)).max() <= 1e-15

    def test_rank_validation(self):
        with pytest.raises(ValueError):
            sym_projection(TensorFieldSpace((Axis.torus(3),), 1))

    def test_pair_invariants(self):
        space = TensorFieldSpace((Axis.torus(3),) * 2, 2)
        assert_pair_invariants(sym_projection(space))
        assert_pair_invariants(asym_projection(space))

    @pytest.mark.parametrize("projection", [sym_projection, asym_projection])
    def test_component_check_stands_for_the_grid_check(self, projection):
        # the pair is checked on its component matrix; the grid-size
        # pi pi* = I it stands for holds on a non-dyadic point weight
        space = TensorFieldSpace((Axis.torus(3), Axis.interval(4), Axis.torus(5)), 2)
        pi = projection(space).pi
        assert (pi @ pi.adjoint() - identity(pi.codomain)).max_abs() <= PAIR_VALIDATION_TOL
        ProjectionPair(pi)  # and the full check accepts it


class TestPointwisePair:
    def test_repeated_component_rejected(self):
        # picking one field twice gives |pi pi* - I| = 1: not a pair
        space = TensorFieldSpace((Axis.torus(3),) * 2, 1)
        with pytest.raises(ValueError, match="partial isometry"):
            component_select(space, [0, 0], "twice")

    def test_non_orthonormal_rows_rejected(self):
        space = TensorFieldSpace((Axis.interval(4),), 0)
        with pytest.raises(ValueError, match="partial isometry"):
            pointwise_pair(space, [[2.0]], "doubled")

    def test_tag_and_grid_isometry(self):
        # the codomain weights each point as the domain does, so the small
        # check comp comp^T = I is the full pi pi* = I
        space = TensorFieldSpace((Axis.torus(3), Axis.interval(4)), 1)
        s = 1.0 / np.sqrt(2.0)
        pair = pointwise_pair(space, [[s, s]], "mean")
        assert pair.codomain.name == "mean[3p(h=0.333333)x4d(h=0.2)]"
        assert pair.codomain.dim == space.npoints
        assert np.array_equal(pair.codomain.weight, space.tag.weight[:space.npoints])
        assert (pair.pi @ pair.embedding - identity(pair.codomain)).max_abs() <= 1e-15


class TestEvenOdd:
    def test_even_function_has_no_odd_part(self):
        space = TensorFieldSpace((Axis.symmetric(8, 0.25),), 0)
        _, po = even_odd(space)
        axis = space.axes[0]
        x = (np.arange(axis.n) - (axis.n - 1) / 2.0) * axis.h  # centered on the origin
        assert np.abs(po.pi.apply(np.cos(x))).max() <= 1e-15

    def test_n4_reflection_pairing(self):
        space = TensorFieldSpace((Axis.symmetric(4, 0.5),), 0)
        pe, po = even_odd(space)
        s = 1.0 / np.sqrt(2.0)
        # rows indexed by the positive half: {0.25h, 1.5h} pair with their mirrors
        expected_even = np.array([[0, s, s, 0], [s, 0, 0, s]])
        assert np.allclose(pe.pi.to_dense(), expected_even, atol=1e-15)
        expected_odd = np.array([[0, -s, s, 0], [-s, 0, 0, s]])
        assert np.allclose(po.pi.to_dense(), expected_odd, atol=1e-15)

    def test_derivative_maps_even_to_odd_full_rank(self):
        axes = (Axis.symmetric(4, 0.5),)
        space = TensorFieldSpace(axes, 0)
        pe, po = even_odd(space)
        d = build_d1(axes[0]).to_dense()
        block = po.pi.to_dense() @ d @ pe.embedding.to_dense()
        assert np.linalg.matrix_rank(block) == 2

    def test_odd_count_rejected(self):
        with pytest.raises(ValueError):
            even_odd(TensorFieldSpace((Axis(5, 0.1),), 0))

    def test_pair_invariants(self):
        space = TensorFieldSpace((Axis.symmetric(8, 0.25),), 0)
        pe, po = even_odd(space)
        assert_pair_invariants(pe)
        assert_pair_invariants(po)


class TestTorusAverage:
    def test_constant_preserved(self):
        axes = (Axis(4, 0.2), Axis.torus(3))
        space = TensorFieldSpace(axes, 0)
        pair = torus_average(space, {1})
        rng = np.random.default_rng(1)
        v = rng.standard_normal(4)
        extended = np.repeat(v, 3)
        assert np.allclose(pair.pi.apply(extended), v, atol=1e-15)

    def test_embed_then_average_is_identity(self):
        axes = (Axis(4, 0.2), Axis.torus(3))
        pair = torus_average(TensorFieldSpace(axes, 1), {1})
        assert_pair_invariants(pair)

    def test_mean_free_samples_vanish(self):
        axes = (Axis(2, 0.5), Axis.torus(8))
        space = TensorFieldSpace(axes, 0)
        pair = torus_average(space, {1})
        theta = 2 * np.pi * np.arange(8) / 8
        field = np.concatenate([np.sin(theta), np.sin(theta)])
        assert np.abs(pair.pi.apply(field)).max() <= 1e-13

    def test_embedding_isometric(self):
        axes = (Axis(3, 0.3), Axis.torus(5))
        space = TensorFieldSpace(axes, 1)
        pair = torus_average(space, {1})
        rng = np.random.default_rng(2)
        v = rng.standard_normal(pair.codomain.dim)
        emb = pair.embedding.apply(v)
        n_emb = np.sqrt(np.sum(space.tag.weight * emb * emb))
        n_v = np.sqrt(np.sum(pair.codomain.weight * v * v))
        assert abs(n_emb - n_v) <= 1e-13 * n_v

    def test_component_dropping(self):
        # rank-1 over (line, torus): only the line component survives
        axes = (Axis(3, 0.3), Axis.torus(4))
        pair = torus_average(TensorFieldSpace(axes, 1), {1})
        assert pair.codomain.dim == 3  # 3 points, 1 component

    def test_dirichlet_axis_rejected(self):
        with pytest.raises(ValueError):
            torus_average(TensorFieldSpace((Axis(4, 0.1), Axis.torus(4)), 0), {0})


class TestRangeKernel:
    def test_invertible_has_empty_kernel(self):
        # I + shift on a 3-point ring: symbols 1 + exp(-i xi), none zero
        grid = (Axis.torus(3),)
        t = TensorFieldSpace(grid, 0).tag
        A = MatrixOperator(np.eye(3) + np.roll(np.eye(3), 1, axis=0), t, t)
        _, pr, pk = split(A, grid=grid)
        assert pr.codomain.dim == 3
        assert pk is None

    def test_zero_has_empty_range(self):
        grid = (Axis.torus(3),)
        t = TensorFieldSpace(grid, 0).tag
        A = MatrixOperator(np.zeros((3, 3)), t, t)
        _, pr, pk = split(A, grid=grid)
        assert pr is None
        assert pk.codomain.dim == 3

    def test_periodic_acoustic_kernel_is_two_constants(self):
        entry = catalog.acoustics((Axis.torus(4),))
        cut, _, pk = split(entry.a, grid=entry.grid)
        assert pk.codomain.dim == 2
        # the kernel projector's columns are constants in each block
        for col in dense_projector(cut, pk).T:
            p, v = col[:4], col[4:]
            assert np.abs(p - p.mean()).max() <= 1e-12
            assert np.abs(v - v.mean()).max() <= 1e-12

    def test_commutation_and_skewness_on_range(self):
        entry = catalog.heat((Axis.torus(6),))
        A = entry.a
        cut, pr, _ = split(A, grid=entry.grid)
        P = dense_projector(cut, pr)
        Ad = A.to_dense()
        norm_a = np.abs(Ad).max()
        assert np.abs(P @ Ad - Ad @ P).max() <= 1e-12 * norm_a
        # the compression to the range, wavenumber by wavenumber, is skew-Hermitian
        (symbols,) = cut.symbols(A)
        for index, basis in pr.groups:
            restricted = basis.conj().transpose(0, 2, 1) @ symbols[index] @ basis
            skew_part = restricted + restricted.conj().transpose(0, 2, 1)
            assert np.abs(skew_part).max(initial=0.0) <= 1e-12 * norm_a

    @pytest.mark.parametrize("name, axes", [
        *((name, catalog.default_axes(name)) for name in catalog.REGISTRY
          if all(a.bc == PERIODIC for a in catalog.default_axes(name))),
        ("acoustics", (Axis.torus(8),)),
        ("heat", (Axis.torus(5),)),
        ("timoshenko", (Axis.torus(6),)),
        ("acoustics", (Axis.torus(4),) * 2),
        ("heat", (Axis.torus(3), Axis.torus(4))),
        ("extended_maxwell", (Axis.torus(3), Axis.torus(4), Axis.torus(5))),
        ("dirac", (Axis.torus(2), Axis.torus(5), Axis.torus(3))),
    ], ids=lambda v: v if isinstance(v, str) else "x".join(f"{a.n}{a.bc[0]}" for a in v))
    def test_projectors_match_the_dense_svd(self, name, axes):
        entry = catalog.build_entry(name, axes)
        w = entry.a.domain.weight
        cut, *pairs = split(entry.a, grid=entry.grid)
        for pair, ref in zip(pairs, dense_split(entry.a)):
            assert (0 if pair is None else pair.codomain.dim) == ref.shape[0]
            if pair is not None:
                for _, basis in pair.groups:
                    gram = basis.conj().transpose(0, 2, 1) @ basis
                    assert np.abs(gram - np.eye(basis.shape[2])).max(initial=0.0) <= 1e-12
                assert np.abs(dense_projector(cut, pair) - (ref.T / w[:, None]) @ ref).max() <= 1e-12
        # one unitary basis per wavenumber: range and kernel groups line up
        if None not in pairs:
            for (i_r, b_r), (i_k, b_k) in zip(pairs[0].groups, pairs[1].groups):
                assert np.array_equal(i_r, i_k) and b_r.shape[2] + b_k.shape[2] == cut.m

    @pytest.mark.parametrize("build", [
        lambda: catalog.extended_maxwell((Axis.torus(4),) * 3, m0=np.linspace(1.0, 2.0, 512)),
        lambda: catalog.heat((Axis.interval(9),)),
        lambda: catalog.reissner_mindlin((Axis.interval(4),) * 2),
        lambda: catalog.heat((Axis.torus(4), Axis.interval(5))),
        lambda: catalog.acoustics((Axis.interval(5), Axis.torus(4))),
    ], ids=["extended_maxwell_vector_m0", "heat_interval", "reissner_mindlin_interval",
            "heat_torus_x_interval", "acoustics_interval_x_torus"])
    def test_unshifted_operator_is_not_cut(self, build):
        # an A the shifts do not commute with, or a grid with an axis that is
        # not periodic: no cut, and solve_reduced steps by the sparse LU
        entry = build()
        assert shift_cut(entry.space, entry.grid, entry.a) == (None, None)

    @pytest.mark.parametrize("how", ["perturb", "drop"])
    def test_one_broken_shift_is_not_cut(self, how):
        # one entry off its shifted copies (the value check) or one entry
        # missing (the count check): no symbols
        entry = catalog.acoustics((Axis.torus(8),))
        assert shift_cut(entry.space, entry.grid, entry.a)[1] is not None
        ent = entry.a.entries.tolil()
        if how == "perturb":
            ent[9, 2] *= 1.0 + 1e-9
        else:
            ent[9, 2] = 0.0
        A = MatrixOperator(ent.tocsr(), entry.a.domain, entry.a.codomain)
        assert A.entries.nnz == entry.a.entries.nnz - (how == "drop")
        assert shift_cut(entry.space, entry.grid, A) == (None, None)

    def test_operator_passed_alongside_decides_the_cut(self):
        # A commutes with the shifts; a diagonal that varies along the ring
        # does not, so the pair is not cut
        entry = catalog.acoustics((Axis.torus(8),))
        t = entry.a.domain
        bump = MatrixOperator(np.diag(np.linspace(1.0, 2.0, t.dim)), t, t)
        cut = split(entry.a, grid=entry.grid)[0]
        assert cut.N == 5  # 8 // 2 + 1
        assert shift_cut(t, entry.grid, entry.a, bump) == (None, None)
        assert cut.symbols(bump) is None

    @pytest.mark.parametrize("at", [0, 7], ids=["at_p0", "off_p0"])
    def test_an_entry_missing_from_one_operator_is_caught(self, at):
        # the union of the two patterns is A's, which commutes with the
        # shifts; the copy that lacks one entry of A does not
        entry = catalog.heat((Axis.torus(6),))
        ent = entry.a.entries.tocoo()
        keep = np.ones(ent.nnz, dtype=bool)
        keep[np.flatnonzero(ent.col == at)[0]] = False
        t = entry.a.domain
        holed = MatrixOperator(sp.csr_matrix((ent.data[keep], (ent.row[keep], ent.col[keep])),
                                             shape=ent.shape), t, t)
        assert shift_cut(t, entry.grid, entry.a, holed) == (None, None)
        assert shift_cut(t, entry.grid, holed, entry.a) == (None, None)
        assert ShiftCut(t, entry.grid).symbols(entry.a) is not None

    def test_grid_must_fit_the_dimension(self):
        entry = catalog.heat((Axis.torus(4),))
        with pytest.raises(ValueError, match="points"):
            split(entry.a, grid=(Axis.torus(5),))

    def test_non_square_rejected(self):
        t0 = TensorFieldSpace((Axis.torus(3),), 0).tag
        t1 = TensorFieldSpace((Axis.torus(3),), 1).tag
        A = MatrixOperator(np.zeros((3, 3)), t0, t1)
        with pytest.raises(ValueError):
            split(A)


HALF_SPECTRUM_GRIDS = {
    "2": (Axis.torus(2),),
    "7": (Axis.torus(7),),
    "8": (Axis.torus(8),),
    "3x4": (Axis.torus(3), Axis.torus(4)),
    "4x3": (Axis.torus(4), Axis.torus(3)),
}


def half_count(grid):
    """Kept wavenumbers of the cut: n // 2 + 1 on the last axis."""
    per = [axis.n for axis in grid]
    return int(np.prod(per[:-1])) * (per[-1] // 2 + 1)


def step_matrices(entry, scheme):
    config = evolve.SolverConfig(tau=0.01, t_end=0.1, scheme=scheme)
    return evolve._step_operators(entry.problem(), config)


class TestHalfSpectrum:
    """ShiftCut keeps the wavenumbers up to n // 2 along the last cut axis."""

    @pytest.mark.parametrize("name", ["heat", "acoustics"])
    @pytest.mark.parametrize("grid", HALF_SPECTRUM_GRIDS.values(), ids=HALF_SPECTRUM_GRIDS)
    def test_real_dimensions_add_up(self, grid, name):
        # conjugate partners counted: range + kernel is the whole space, and
        # each is as large as the dense SVD's
        entry = catalog.build_entry(name, grid)
        cut, p_range, p_kernel = split(entry.a, grid=grid)
        assert cut.N == half_count(grid)
        assert cut.multiplicity.sum() == np.prod(cut.per)
        assert p_range.codomain.dim + p_kernel.codomain.dim == entry.dim
        ref_range, ref_kernel = dense_split(entry.a)
        assert p_range.codomain.dim == ref_range.shape[0]
        assert p_kernel.codomain.dim == ref_kernel.shape[0]

    @pytest.mark.parametrize("scheme", [evolve.CRANK_NICOLSON, evolve.IMPLICIT_EULER])
    @pytest.mark.parametrize("name, grid", [
        *(("heat", grid) for grid in HALF_SPECTRUM_GRIDS.values()),
        ("acoustics", (Axis.torus(3), Axis.torus(4))),
        ("maxwell", (Axis.torus(3), Axis.torus(4), Axis.torus(5))),
        ("maxwell", (Axis.torus(3), Axis.torus(5), Axis.torus(4))),
    ], ids=[*HALF_SPECTRUM_GRIDS, "acoustics_3x4", "maxwell_3x4x5", "maxwell_3x5x4"])
    def test_transforms_and_symbols_against_the_matrices(self, name, grid, scheme):
        entry = catalog.build_entry(name, grid)
        x = np.random.default_rng(19).standard_normal((entry.dim, 3))
        ops = step_matrices(entry, scheme)
        for op, joint in zip(ops, shift_cut(entry.space, grid, entry.a, *ops)[1][1:]):
            cut, (symbols,) = shift_cut(entry.space, grid, op)
            assert cut.N == half_count(grid)
            assert np.abs(cut.inverse(cut.forward(x)) - x).max() <= 1e-14 * np.abs(x).max()
            exact = op.entries @ x
            # one pass over the union of patterns gives each op its own symbols
            assert symbols.tobytes() == joint.tobytes()
            cut_product = cut.inverse(symbols @ cut.forward(x))
            assert np.abs(cut_product - exact).max() <= 1e-13 * np.abs(exact).max()

    @pytest.mark.parametrize("grid", [(Axis.torus(7),), (Axis.torus(8),),
                                      (Axis.torus(3), Axis.torus(4)),
                                      (Axis.torus(3), Axis.torus(4), Axis.torus(5))],
                             ids=["7", "8", "3x4", "3x4x5"])
    def test_a_constant_law_is_cut(self, grid):
        # a commute test that miscounts the entries would fall back to the
        # sparse LU on every torus without failing any comparison
        entry = catalog.build_entry("maxwell" if len(grid) == 3 else "acoustics", grid)
        cut, symbols = shift_cut(entry.space, grid, *step_matrices(entry, evolve.CRANK_NICOLSON))
        assert cut.per == tuple(axis.n for axis in grid) and len(symbols) == 2
        assert cut.N == half_count(grid)

    @pytest.mark.parametrize("n", [7, 8])
    def test_a_law_varying_in_space_is_not_cut(self, n):
        entry = catalog.acoustics((Axis.torus(n),), rho=np.linspace(1.0, 2.0, n))
        left, right = step_matrices(entry, evolve.CRANK_NICOLSON)
        assert ShiftCut(entry.space, entry.grid).symbols(left) is None
        assert shift_cut(entry.space, entry.grid, left, right) == (None, None)


class TestDescend:
    def test_identity_pair(self):
        entry = catalog.acoustics((Axis.torus(4),))
        pv = identity_pair(entry.space)
        assert np.array_equal(descend(entry.a, pv).to_dense(), entry.a.to_dense())

    def test_coordinate_selection_of_rotation(self):
        t = SpaceTag("h", 2)
        A = MatrixOperator(np.array([[0.0, -1.0], [1.0, 0.0]]), t, t)
        pi = MatrixOperator(np.array([[1.0, 0.0]]), t, SpaceTag("v", 1))
        out = descend(A, ProjectionPair(pi))
        assert out.to_dense()[0, 0] == 0.0

    def test_tag_mismatch(self):
        from protofield.linops import TagMismatchError

        t = SpaceTag("h", 2)
        other = SpaceTag("g", 3)
        A = MatrixOperator(np.zeros((3, 3)), other, other)
        pi = MatrixOperator(np.eye(2), t, t)
        with pytest.raises(TagMismatchError):
            descend(A, ProjectionPair(pi))


class TestRelativeDescent:
    """descend by B0 (+) B1 on [[0, -C*], [C, 0]] is the (B0, B1)-relative
    [[0, -B0 C* B1*], [B1 C B0*, 0]]: verify.check_relative_construction."""

    @staticmethod
    def relative(C, pi0, pi1):
        pairs = [ProjectionPair(pi, validate=False) for pi in (pi0, pi1)]
        return descend(make_block_skew(C), direct_sum_pairs(pairs)).to_dense()

    def test_weighted_identity_pairs_return_a(self):
        # the unit-weight case is test_linops.TestRelative
        rng = np.random.default_rng(4)
        t0 = SpaceTag("h0", 3, rng.uniform(0.5, 2.0, 3))
        t1 = SpaceTag("h1", 2, rng.uniform(0.5, 2.0, 2))
        C = MatrixOperator(rng.standard_normal((2, 3)), t0, t1)
        assert np.array_equal(self.relative(C, identity(t0), identity(t1)),
                              make_block_skew(C).to_dense())

    def test_row_selection_gives_the_b0_blocks(self):
        # C = I: the lower block B1 C B0* is B0^T, the upper -B0 C* B1* is -B0
        t, x = SpaceTag("h", 4), SpaceTag("x", 2)
        B0 = MatrixOperator(np.array([[1, 0, 0, 0], [0, 0, 1, 0]], float), t, x)
        rel = self.relative(MatrixOperator(np.eye(4), t, t), B0, identity(t))
        assert np.array_equal(rel[2:, :2], B0.to_dense().T)
        assert np.array_equal(rel[:2, 2:], -B0.to_dense())

    def test_sign_flip_pair(self):
        # B0 = 1, B1 = -1 on scalars flips the rotation: the diag(1, -1)
        # conjugate of [[0, -1], [1, 0]] is [[0, 1], [-1, 0]]
        t = SpaceTag("h", 1)
        rel = self.relative(MatrixOperator([[1.0]], t, t), MatrixOperator([[1.0]], t, t),
                            MatrixOperator([[-1.0]], t, t))
        assert np.array_equal(rel, [[0, 1], [-1, 0]])

    def test_unitary_pair_is_conjugation(self):
        rng = np.random.default_rng(6)
        d0, d1 = 4, 3
        t0, t1 = SpaceTag("h0", d0), SpaceTag("h1", d1)
        C = MatrixOperator(rng.standard_normal((d1, d0)), t0, t1)
        q0, _ = np.linalg.qr(rng.standard_normal((d0, d0)))
        q1, _ = np.linalg.qr(rng.standard_normal((d1, d1)))
        rel = self.relative(C, MatrixOperator(q0.T, t0, SpaceTag("x", d0)),
                            MatrixOperator(q1.T, t1, SpaceTag("y", d1)))
        u = np.zeros((7, 7))
        u[:4, :4] = q0.T
        u[4:, 4:] = q1.T
        assert np.allclose(rel, u @ make_block_skew(C).to_dense() @ u.T, atol=1e-13)


class TestOrderDependence:
    def test_witness_found_by_search(self):
        """Repeated descendant steps do not commute in general.

        Search small grids for a pair of two-step chains built from the
        same ingredients (symmetrize the rank-2 block; keep one shear
        component) applied in both orders; their pulled-back compressions
        must differ on some grid.
        """
        found = False
        for n in (2, 3):
            axes = (Axis.torus(n), Axis.torus(n))
            stack = TensorStack(axes, 2)
            A = build_stack_skew(stack)
            parent = descend(A, rank_block(stack, {1}, {2}))
            r1 = TensorFieldSpace(axes, 1)
            r2 = TensorFieldSpace(axes, 2)
            npts = r2.npoints

            # chain 1: symmetrize, then keep the normalized shear component
            sym = direct_sum_pairs([identity_pair(r1.tag), sym_projection(r2)])
            step1 = descend(parent, sym)
            nsym = sym_projection(r2).codomain.dim
            sel_rows = np.zeros((r1.dim + npts, r1.dim + nsym))
            sel_rows[: r1.dim, : r1.dim] = np.eye(r1.dim)
            shear_idx = 1  # component order (00, 01, 11): the 01 row block
            sel_rows[r1.dim:, r1.dim + shear_idx * npts: r1.dim + (shear_idx + 1) * npts] = np.eye(npts)
            from protofield.linops import SpaceTag

            v1 = SpaceTag("w1", r1.dim + npts, np.concatenate(
                [r1.tag.weight, r2.tag.weight[:npts]]))
            q1 = ProjectionPair(MatrixOperator(sel_rows, step1.domain, v1))
            chain1 = descend(step1, q1)
            big1 = (q1.pi @ sym.pi)

            # chain 2: keep the raw (0,1) slot, then "symmetrize" there
            # (the symmetric subspace meets the slot in the slot itself)
            c01 = r2.component_index((0, 1))
            sel = direct_sum_pairs([
                identity_pair(r1.tag),
                component_select(r2, [c01], "slot01"),
            ])
            step2 = descend(parent, sel)
            q2 = ProjectionPair(MatrixOperator(np.eye(r1.dim + npts), step2.domain, v1))
            chain2 = descend(step2, q2)
            big2 = (q2.pi @ sel.pi)

            # compare the pullbacks on the parent space (basis independent)
            x1 = big1.adjoint().to_dense() @ chain1.to_dense() @ big1.to_dense()
            x2 = big2.adjoint().to_dense() @ chain2.to_dense() @ big2.to_dense()
            gap = np.abs(x1 - x2).max()
            if gap > 1e-8 * max(np.abs(x1).max(), 1.0):
                found = True
                break
        assert found, "no order-dependence witness found on the searched grids"


@settings(max_examples=40)
@given(axes=st.lists(st.tuples(st.booleans(), st.integers(2, 5)), min_size=1, max_size=3),
       rank=st.integers(0, 3), ranks0=st.sets(st.integers(0, 3)),
       ranks1=st.sets(st.integers(0, 3)), data=st.data())
def test_projections_are_partial_isometries(axes, rank, ranks0, ranks1, data):
    """Every pair satisfies pi pi* = I, and rank selections keep the stack skew,
    over random grids, boundary mixes and ranks."""
    assume(ranks0 or ranks1)
    grid = tuple(Axis.torus(n) if periodic else Axis.interval(n) for periodic, n in axes)
    space = TensorFieldSpace(grid, rank)
    stack = TensorStack(grid, 3)
    block = rank_block(stack, ranks0, ranks1)
    comps = data.draw(st.lists(st.integers(0, space.ncomp - 1), min_size=1, unique=True))
    pairs = [block, component_select(space, comps, "picked")]
    if rank == 2:
        pairs += [sym_projection(space)] + ([asym_projection(space)] if len(grid) > 1 else [])
    tori = [a for a, axis in enumerate(grid) if axis.bc == PERIODIC]
    pairs += [torus_average(space, subset) for size in range(1, len(tori) + 1)
              for subset in combinations(tori, size) if size < len(grid)]
    for pair in pairs:
        assert (pair.pi @ pair.embedding - identity(pair.codomain)).max_abs() <= 1e-14, pair
    assert skew_defect(descend(build_stack_skew(stack), block)) == 0.0
    worst, _ = verify.adjointness_residual([grid], np.random.default_rng(rank))
    assert worst <= 1e-12
