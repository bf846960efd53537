"""Tests for the catalog of named systems and their structural identities."""

import ast
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import protofield
from protofield import catalog, verify
from protofield.flatgrid import (Axis, TensorFieldSpace, TensorStack, build_d1, build_nabla,
                                 build_stack_skew)
from protofield.linops import MatrixOperator, SpaceTag, TagMismatchError, skew_defect
from protofield.matlaw import MaterialLaw, check_wellposed
from protofield.evolve import IMPLICIT_EULER, SolverConfig, solve, solve_reduced
from protofield.subspaces import (asym_projection, descend, direct_sum_pairs, identity_pair,
                                  rank_block, sym_projection)


def centered_points(axis):
    """Coordinates of a symmetric line's points, centered on the origin."""
    return (np.arange(axis.n) - (axis.n - 1) / 2.0) * axis.h

AX1 = (Axis.interval(16),)
AX1_SYM = (Axis.symmetric(16, 0.25),)
AX2 = (Axis.interval(8), Axis.interval(8))
AX3 = (Axis.torus(4),) * 3

# grids for the provenance identity that the skewness check (desk defaults:
# 16, 8x8 walls, 4^3 torus) does not use: mixed walls and unequal sizes
MIXED_GRIDS = {
    "acoustics": (Axis.interval(5), Axis.torus(4)),
    "heat": (Axis.torus(6), Axis.interval(3)),
    "elasticity": (Axis.torus(3), Axis.interval(4), Axis.torus(5)),
    "maxwell": (Axis.interval(3), Axis.torus(4), Axis.interval(5)),
    "extended_maxwell": (Axis.torus(3), Axis.torus(4), Axis.torus(5)),
    "reduced_extended_maxwell": (Axis.interval(3), Axis.torus(4), Axis.interval(3)),
    "dirac": (Axis.torus(2), Axis.torus(5), Axis.torus(3)),
    "relativistic_schrodinger": (Axis.interval(5), Axis.interval(6)),
    "transport": (Axis.symmetric(10, 0.5),),
    "thermo_elasticity": (Axis.interval(3), Axis.torus(4), Axis.torus(3)),
    "reissner_mindlin": (Axis.interval(5), Axis.torus(4)),
    "kirchhoff_love": (Axis.torus(4), Axis.interval(5)),
    "timoshenko": (Axis.torus(9),),
    "euler_bernoulli": (Axis.torus(7),),
}


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
            residual = verify.provenance_residual(e)
            assert residual <= 1e-12, (e.name, residual)

    def test_provenance_on_mixed_grids(self):
        for name, axes in MIXED_GRIDS.items():
            residual = verify.provenance_residual(catalog.build_entry(name, axes))
            assert residual <= 1e-12, (name, residual)

    def test_every_entry_has_a_reference(self):
        assert set(verify.PROVENANCE_REFERENCES) == set(catalog.REGISTRY)
        assert set(MIXED_GRIDS) == set(catalog.REGISTRY)

    def test_perturbed_operator_fails_provenance(self, entries):
        # the check can fail: one entry of A moved by 1e-9 of its scale
        for e in entries:
            a = e.a.to_dense()
            i, j = np.unravel_index(np.abs(a).argmax(), a.shape)
            a[i, j] += 1e-9 * max(np.abs(a).max(), 1.0)
            bad = replace(e, a=MatrixOperator(a, e.a.domain, e.a.codomain))
            assert verify.provenance_residual(bad) > 1e-12, e.name

    def test_provenance_fails_in_large_units(self):
        # an interval of length 1e13 puts every entry of A near 1e-12: a 0.1 %
        # fault reads 1e-3 against A's own largest entry
        entry = catalog.acoustics((Axis.interval(16, length=1e13),))
        assert verify.provenance_residual(entry) <= 1e-12
        assert verify.provenance_residual(replace(entry, a=1.001 * entry.a)) == pytest.approx(
            1e-3 / 1.001, rel=1e-9)

    def test_blocks_partition_dimension(self, entries):
        for e in entries:
            assert sum(size for _, size in e.blocks) == e.dim, e.name
            # a repeated label would place a law's block at the wrong rows silently
            labels = [label for label, _ in e.blocks]
            assert len(set(labels)) == len(labels), e.name

    @pytest.mark.parametrize("name", ["dirac", "extended_maxwell"])
    def test_builds_sparse_on_a_12_cube(self, name):
        # the stencils are assembled sparse end to end: a dense (8 npts)^2
        # intermediate alone would take 1.5 GB here, and the dense
        # construction peaked at about 750 MB
        tracemalloc.start()
        try:
            catalog.build_entry(name, (Axis.torus(12),) * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20, peak

    def test_maxwell_builds_at_its_own_rank_on_a_24_cube(self, monkeypatch):
        # the rank-{1, 2} block is built from the rank-1 gradient, not
        # descended from a rank-0..2 parent: the parent is not built, and
        # the peak stays near the size of the block (62-73 MB through the parent)
        calls = []

        def counting(stack):
            calls.append(stack)
            return build_stack_skew(stack)

        for module in vars(protofield).values():
            if getattr(module, "build_stack_skew", None) is build_stack_skew:
                monkeypatch.setattr(module, "build_stack_skew", counting)
        tracemalloc.start()
        try:
            catalog.build_entry("maxwell", (Axis.torus(24),) * 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert calls == []  # not called at all
        assert peak < 50 * 2**20, peak

    @pytest.mark.parametrize("axes", [(Axis.torus(5),) * 3,
                                      (Axis.interval(4), Axis.torus(3), Axis.interval(5)),
                                      (Axis.torus(6), Axis.interval(7))],
                             ids=["torus5", "interval_torus_interval", "torus_interval"])
    def test_blocks_equal_their_stack_descents(self, axes):
        # built at their own rank, the acoustic, elastic and Maxwell blocks are
        # bitwise the descents of the stack operator's rank pairs
        stack = TensorStack(axes, 2)
        parent = build_stack_skew(stack)
        r1, r2 = TensorFieldSpace(axes, 1), TensorFieldSpace(axes, 2)
        descents = {"acoustic": descend(parent, rank_block(stack, {0}, {1}))}
        first = descend(parent, rank_block(stack, {1}, {2}))
        built = {"acoustic": catalog._acoustic_block(axes)}
        for name, rank2 in (("sym", sym_projection), ("asym", asym_projection)):
            pair = direct_sum_pairs([identity_pair(r1.tag), rank2(r2)])
            descents[name] = descend(first, pair)
            built[name] = catalog._elastic_block(axes, rank2)
        for name, block in built.items():
            ref = descents[name]
            assert block.domain == ref.domain, name
            for arr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(block.entries, arr), getattr(ref.entries, arr)), name

    @pytest.mark.parametrize("name, first", [("maxwell", 1), ("elasticity", 1), ("dirac", 4)])
    def test_upper_block_is_minus_the_lower_transposed(self, name, first):
        # on unequal tori the cell volume 1/90 would round t * w / w; the
        # upper block is the exact transpose, and A carries its adjoint
        entry = catalog.build_entry(name, (Axis.torus(5), Axis.torus(6), Axis.torus(3)))
        cut = sum(size for _, size in entry.blocks[:first])  # the first `first` blocks: C's domain
        a = entry.a.entries
        assert np.array_equal(a[:cut, cut:].toarray(), -a[cut:, :cut].toarray().T)
        assert a[:cut, :cut].nnz == a[cut:, cut:].nnz == 0
        assert entry.a._adj is not None and skew_defect(entry.a) == 0.0

    @pytest.mark.parametrize("axes, ranks", [((Axis.interval(6),), ({0}, {2})),
                                             ((Axis.torus(3), Axis.interval(4)), ({1}, {2}))],
                             ids=["same_shape", "other_shape"])
    def test_wrong_rank_pair_fails_provenance(self, axes, ranks):
        # an acoustic block taken from the wrong rank pair of the stack: in
        # 1-d ranks 0 and 2 have one component each, but the stack couples
        # no rank 0 to rank 2 (a zero block); in 2-d the ranks 1 and 2 give
        # another shape, which counts as a failure, not an error
        entry = catalog.acoustics(axes)
        assert verify.provenance_residual(entry) <= 1e-12
        stack = TensorStack(axes, 2)
        wrong = descend(build_stack_skew(stack), rank_block(stack, *ranks))
        assert verify.provenance_residual(replace(entry, a=wrong)) > 1e-12


class TestOneAssemblyPath:
    """Builders and solve set-up assemble block matrices through linops.block_csr
    alone; scipy's stacking stays where verify builds its references."""

    @pytest.fixture
    def no_scipy_stacking(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("scipy block assembly called")

        for name in ("bmat", "vstack", "hstack", "block_diag"):
            monkeypatch.setattr(sp, name, refuse)

    def test_the_guard_sees_scipy_assembly(self, no_scipy_stacking):
        with pytest.raises(AssertionError, match="scipy block assembly"):
            verify._grad_sym(AX2)

    @pytest.mark.parametrize("name", sorted(catalog.REGISTRY))
    def test_every_entry_builds(self, name, no_scipy_stacking):
        catalog.build_entry(name)

    @pytest.mark.parametrize("name, axes", [("maxwell", (Axis.torus(3),) * 3),
                                            ("heat", (Axis.interval(8),))],
                             ids=["torus", "interval"])
    @pytest.mark.parametrize("runner", [solve, solve_reduced], ids=["solve", "solve_reduced"])
    def test_solve_sets_up(self, name, axes, runner, no_scipy_stacking):
        entry = catalog.build_entry(name, axes)
        u0 = np.random.default_rng(8).standard_normal(entry.dim)
        traj = runner(entry.problem(initial=u0), SolverConfig(tau=0.01, t_end=0.02))
        assert np.isfinite(traj.states).all()


class TestOneConstructor:
    """Every entry is made by catalog._entry, its law assembled by label over its layout."""

    def test_entries_and_laws_are_constructed_in_entry_alone(self):
        tree = ast.parse(Path(catalog.__file__).read_text())
        entry = next(node for node in tree.body
                     if isinstance(node, ast.FunctionDef) and node.name == "_entry")
        inside = {id(node) for node in ast.walk(entry)}
        calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) in ("CatalogEntry", "MaterialLaw")]
        assert {node.func.id for node in calls if id(node) in inside} == {"CatalogEntry",
                                                                          "MaterialLaw"}
        assert [f"{node.func.id} at line {node.lineno}" for node in calls
                if id(node) not in inside] == []

    def test_a_layout_that_does_not_tile_the_space_is_refused(self):
        a = catalog._acoustic_block(AX1)
        with pytest.raises(TagMismatchError):
            catalog._entry("short", AX1, (("p", 16), ("v", 15)), a, ())


class TestIndependentReferences:
    """A provenance reference shares no assembly with the builder it checks."""

    @pytest.mark.parametrize("name", ["extended_maxwell", "reduced_extended_maxwell"])
    def test_a_dropped_div0_pair_fails_provenance(self, name, monkeypatch):
        # an assembler that loses the div0/grad pair builds a wrong operator; a
        # reference placed by that same assembler would lose it too and read 0
        good = catalog._assemble
        div0 = {("f3", "f2"), ("f2", "f3")}

        def drop_div0(blocks, parts):
            return good(blocks, {k: v for k, v in parts.items() if k not in div0})

        monkeypatch.setattr(catalog, "_assemble", drop_div0)
        assert verify.provenance_residual(catalog.build_entry(name)) > 1e-12

    def test_references_call_no_builder_assembly(self, entries, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a reference called the builders' assembly")

        for name in ("_assemble", "_curl_block", "_entry"):
            monkeypatch.setattr(catalog, name, refuse)
        for e in entries:
            if e.name != "dirac":  # its target relabels the extended system's own parts
                assert verify.provenance_residual(e) <= 1e-12, e.name


class TestDefaultAxes:
    @pytest.mark.parametrize("cap", [2, 3, 5, 16])
    def test_within_the_cap(self, cap):
        for name in catalog.REGISTRY:
            assert max(a.n for a in catalog.default_axes(name, cap)) <= cap, name


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
        hand = verify._skew_pair(verify._grad_sym(AX3)).toarray()
        assert np.abs(entry.a.to_dense() - hand).max() == 0.0

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
        tag = catalog.extended_maxwell(AX3).space
        for part in catalog._ext_parts_raw(AX3, catalog._partials(AX3)):
            assert skew_defect(MatrixOperator(part, tag, tag)) == 0.0

    def test_restriction_reproduces_maxwell_blocks(self):
        # rows/cols (f1, f2) of the curl part carry the plain curl; the
        # Maxwell entry stores the same operator in normalized antisymmetric
        # coordinates: conjugate by the pairing and the sqrt-2 rescale
        mx = catalog.maxwell(AX3)
        np_ = 64
        sizes = [np_, 3 * np_, np_, 3 * np_]
        offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
        cp = catalog._ext_parts_raw(AX3, catalog._partials(AX3))[0].toarray()
        curl0 = cp[offs[3]:offs[4], offs[1]:offs[2]]
        perm = np.kron(verify._asym_perm(), np.eye(np_))
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
        sl = entry.block_slices()
        # curl rows survive between f1 and f2
        parent = catalog.extended_maxwell(AX3)
        pm = parent.a.to_dense()
        psl = parent.block_slices()
        assert np.array_equal(m[sl["f1"], sl["f2"]], pm[psl["f1"], psl["f2"]])
        # the f3 row keeps its divergence coupling to f2
        assert np.array_equal(m[sl["f3"], sl["f2"]], pm[psl["f3"], psl["f2"]])
        # and no coupling between f3 and f1 (that went through the dropped f0)
        assert np.abs(m[sl["f3"], sl["f1"]]).max() == 0.0

    def test_is_projection_of_parent(self):
        entry = catalog.reduced_extended_maxwell(AX3)
        parent = catalog.extended_maxwell(AX3)
        sl = parent.block_slices()
        keep = np.r_[sl["f3"], sl["f1"], sl["f2"]]
        assert entry.blocks == tuple(b for b in parent.blocks if b[0] != "f0")
        assert np.array_equal(entry.a.to_dense(),
                              parent.a.to_dense()[np.ix_(keep, keep)])

    @pytest.mark.parametrize("axes", [AX3, MIXED_GRIDS["reduced_extended_maxwell"]],
                             ids=["torus", "mixed"])
    def test_wrong_drop_fails_provenance(self, axes):
        # an entry that drops f3 instead of f0 (same size, so the shapes
        # agree) must not match the reference, which picks its own rows
        entry = catalog.reduced_extended_maxwell(axes)
        parent = catalog.extended_maxwell(axes)
        sl = parent.block_slices()
        keep = np.r_[sl["f1"], sl["f0"], sl["f2"]]
        a = MatrixOperator(parent.a.entries[keep][:, keep], entry.a.domain, entry.a.codomain)
        wrong = replace(entry, a=a)
        assert verify.provenance_residual(entry) <= 1e-12
        assert verify.provenance_residual(wrong) > 1e-12

    def test_skew(self):
        entry = catalog.reduced_extended_maxwell(AX3)
        assert skew_defect(entry.a) == 0.0


class TestDirac:
    def test_pauli_identities(self):
        # the spin algebra behind the Dirac block
        p1, p2, p3 = (np.array([[0, 1], [1, 0]], dtype=complex), np.array([[0, -1j], [1j, 0]]),
                      np.array([[1, 0], [0, -1]], dtype=complex))
        for p in (p1, p2, p3):
            assert np.array_equal(p @ p, np.eye(2))
        assert np.array_equal(p1 @ p2, 1j * p3)
        # pairwise anticommutation
        assert np.abs(p1 @ p2 + p2 @ p1).max() == 0.0
        assert np.abs(p2 @ p3 + p3 @ p2).max() == 0.0

    def test_w_block_pattern(self):
        # the realified first-order block: +-1 mass entries on the two
        # antidiagonal 2x2 rotations, partials arranged per the spin algebra
        np_ = 64
        W = catalog.dirac(AX3).a.to_dense()[4 * np_:, :4 * np_]  # phi <- psi
        from protofield.catalog import _skew_partials

        P1, P2, P3 = (P.toarray() for P in _skew_partials(AX3))
        Id = np.eye(np_)
        Z = np.zeros((np_, np_))
        expected = np.block([
            [Z, -Id - P3, P2, -P1],
            [Id + P3, Z, P1, P2],
            [-P2, -P1, Z, -Id + P3],
            [P1, -P2, Id - P3, Z],
        ])
        assert np.array_equal(W, expected)

    def test_spectra_agree_symbol_by_symbol(self):
        # unequal sizes, where the symbols' real parts are rounding, not zero
        axes = (Axis.torus(3), Axis.torus(4), Axis.torus(5))
        assert verify.dirac_spectra_residual(axes) <= 1e-12

    def test_spectra_without_the_chiral_term_fail(self, monkeypatch):
        monkeypatch.setattr(verify, "_chiral_m1", lambda axes: sp.csr_matrix((8 * 64, 8 * 64)))
        assert verify.dirac_spectra_residual(AX3) > 1e-8

    def test_spectra_off_the_cut_read_inf(self, monkeypatch):
        # a target that does not commute with the shifts has no symbols
        good = verify._chiral_m1
        monkeypatch.setattr(verify, "_chiral_m1",
                            lambda axes: good(axes) + sp.csr_matrix(([1.0], ([0], [0])),
                                                                    shape=(8 * 64, 8 * 64)))
        assert verify.dirac_spectra_residual(AX3) == np.inf

    def test_equivalence_with_extended_maxwell(self):
        # the check runs on the 4^3 torus; here unequal sizes
        axes = (Axis.torus(3), Axis.torus(4), Axis.torus(2))
        assert verify.provenance_residual(catalog.dirac(axes)) <= 1e-12

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

    def test_rank_deficient_input(self):
        # G*G of this rank-2 G has a kernel eigenvalue that rounds below zero:
        # it is cut, with no warning, and U is a partial isometry of rank 2
        t = SpaceTag("h", 6)
        rng = np.random.default_rng(0)
        g = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 6))
        U, absG = catalog.polar_decompose(MatrixOperator(g, t, t))
        assert np.abs((U @ absG).to_dense() - g).max() <= 1e-12 * np.abs(g).max()
        assert np.allclose(np.linalg.svd(U.to_dense(), compute_uv=False), [1, 1, 0, 0, 0, 0],
                           atol=1e-8)

    def test_gradient_polar_identity(self):
        # the check decomposes 1-d gradients; here 2-d ones
        for axes in ((Axis.interval(4), Axis.interval(5)), (Axis.interval(6),) * 2):
            G = build_nabla(TensorFieldSpace(axes, 0))
            assert verify.polar_residual(G) <= 1e-10

    def test_entry_matches_conjugated_acoustics(self):
        entry = catalog.relativistic_schrodinger((Axis.interval(8),))
        assert verify.provenance_residual(entry) <= 1e-12

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
        # the check runs 16 points; here 8
        entry = catalog.transport((Axis.symmetric(8, 0.5),))
        assert verify.transport_residual(entry) <= 1e-12

    def test_advection_second_order(self):
        # a smooth bump advects along characteristics: error at t after a few
        # steps of size tau = h drops at second order under grid refinement
        errs = []
        for n in (32, 64, 128):
            h = 4.0 / n
            entry = catalog.transport((Axis.symmetric(n, h),))
            x = centered_points(entry.grid[0])
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
        pe, po = verify._even_odd_split(entry)[:2]
        x = centered_points(entry.grid[0])
        even = np.cos(x)
        assert np.abs(po.pi.apply(even)).max() <= 1e-14
        recon = pe.embedding.apply(pe.pi.apply(even))
        assert np.abs(recon - even).max() <= 1e-14


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
        from protofield.evolve import EvolutionaryProblem

        sub_law = MaterialLaw(m0=MatrixOperator(sub_m0, t, t),
                              m1=MatrixOperator(sub_m1, t, t))
        sub_prob = EvolutionaryProblem(law=sub_law,
                                       a=MatrixOperator(sub_a, t, t),
                                       initial=u0[:heat_dim])
        sub_traj = solve(sub_prob, cfg)
        assert np.abs(traj.states[:, :heat_dim] - sub_traj.states).max() <= 1e-11

    @pytest.mark.parametrize("axes, gamma", [
        (AX3, 0.7),
        # a point weight of 1/30, not a power of two
        ((Axis.torus(3), Axis.interval(4), Axis.torus(2)), 0.3),
    ], ids=["torus", "non_dyadic"])
    def test_m0_selfadjoint_with_coupling(self, axes, gamma):
        # the cross block is given with its transpose: M0 is symmetric bitwise
        entry = catalog.thermo_elasticity(axes, gamma=gamma)
        m0 = entry.law.m0.to_dense()
        sl = entry.block_slices()
        assert np.abs(m0[sl["eta"], sl["T"]]).max() > 0.0
        assert np.array_equal(m0, m0.T)
        assert check_wellposed(entry.law).passed

    def test_full_coupling_block_matches_scalar(self):
        # gamma given as the full coupling block builds the entry of its scalar
        axes = (Axis.torus(3),) * 3
        full = catalog._trace_embedding(axes, 0.3).toarray()
        scalar, block = (catalog.thermo_elasticity(axes, gamma=g) for g in (0.3, full))
        for x, y in ((scalar.a, block.a), (scalar.law.m0, block.law.m0),
                     (scalar.law.m1, block.law.m1)):
            for arr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(x.entries, arr), getattr(y.entries, arr)), arr
        with pytest.raises(ValueError, match="coupling block must have shape"):
            catalog.thermo_elasticity(axes, gamma=full[:-1])

    def test_energy_identity_with_coupling(self):
        from protofield.evolve import DISSIPATION_TOL, dissipation_check

        entry = catalog.thermo_elasticity(AX3, gamma=0.5)
        rng = np.random.default_rng(7)
        traj = solve(entry.problem(initial=rng.standard_normal(entry.dim)),
                     SolverConfig(tau=0.05, t_end=1.0))
        rep = dissipation_check(traj, entry.law)
        assert rep.holds
        scale = max(traj.energies.max(), 1.0)
        assert np.all(np.diff(traj.energies) <= DISSIPATION_TOL * scale)


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

    def test_second_order_form_fails_with_the_shear_coupling_flipped(self):
        # the check's plate with -/+1 turned into +/-1: the eliminated rows
        # no longer describe the solve, and the residual must show it
        entry = catalog.reissner_mindlin((Axis.interval(8), Axis.interval(8)), d=0.3)
        sl = entry.block_slices()
        m1 = entry.law.m1.to_dense()
        m1[sl["zeta"], sl["s"]] *= -1.0
        m1[sl["s"], sl["zeta"]] *= -1.0
        tag = entry.space
        flipped = replace(entry, law=MaterialLaw(m0=entry.law.m0, m1=MatrixOperator(m1, tag, tag)))
        assert verify.second_order_residual(flipped) > 1e-8

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

    @pytest.mark.parametrize("name, params", [
        ("reissner_mindlin", {"kappa": -1.0}),
        ("acoustics", {"rho": -2.0}),
        ("thermo_elasticity", {"cten": -1.0}),
        # every coefficient is checked where it is converted, at build
        ("elasticity", {"rho": -1.0}),
        ("elasticity", {"compliance": -1.0}),
        ("maxwell", {"permittivity": -1.0}),
        ("maxwell", {"permeability": 0.0}),
        ("transport", {"m00": -1.0}),
        ("transport", {"m11": 0.0}),
        # semidefinite ones: zero is allowed, negative is not
        ("maxwell", {"conductivity": -1.0}),
        # a negative value in small units is negative, not a zero
        pytest.param("maxwell", {"conductivity": -1e-13}, id="maxwell-conductivity_small"),
        ("transport", {"m1_00": -1.0}),
        ("transport", {"m1_11": -1.0}),
    ], ids=lambda v: v if isinstance(v, str) else "".join(v))
    def test_indefinite_inputs_rejected(self, name, params):
        (param,) = params
        with pytest.raises(ValueError, match=rf"^{param} must be symmetric positive"):
            catalog.build_entry(name, params=params)

    @pytest.mark.parametrize("name, params", [
        ("acoustics", {"rho": float("nan")}),
        ("maxwell", {"conductivity": float("inf")}),
    ], ids=["rho_nan", "conductivity_inf"])
    def test_non_finite_inputs_rejected(self, name, params):
        (param,) = params
        with pytest.raises(ValueError, match=rf"^{param} must be finite"):
            catalog.build_entry(name, params=params)


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
        x = AX2[0].points()
        y = AX2[1].points()
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
