"""Tests for material laws, well-posedness, blockwise functions and Schur reduction."""

import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from protofield.evolve import (
    CRANK_NICOLSON,
    IMPLICIT_EULER,
    EvolutionaryProblem,
    SolverConfig,
    _step_operators,
    dissipation_check,
    solve,
)
from protofield.flatgrid import Axis, build_d1
from protofield.linops import MatrixOperator, SpaceTag
from protofield.matlaw import (
    CONDITION_LIMIT,
    MaterialLaw,
    MaterialLawError,
    StepFailureError,
    check_wellposed,
    guarded_inverses,
    guarded_lu,
    schur_reduce,
    symmetrize,
)
from protofield import catalog, matlaw
from protofield.subspaces import range_kernel_split, shift_cut


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
        # sym(M1) = 0 leaves nu* at 0, as +0.0: never printed as -0.000
        assert rep.nu_threshold == 0.0 and np.copysign(1.0, rep.nu_threshold) == 1.0

    def test_heat_pattern_passes(self):
        rep = check_wellposed(law_on("h", np.diag([1.0, 0.0]), np.diag([0.0, 1.0])))
        assert rep.passed and rep.kernel_block_positive
        assert rep.nu_threshold == 0.0

    def test_degenerate_fails_through_kernel(self):
        rep = check_wellposed(law_on("h", np.diag([1.0, 0.0])))
        assert not rep.passed
        assert not rep.kernel_block_positive
        assert rep.nu_threshold == np.inf  # no nu makes nu M0 + sym(M1) definite

    def test_no_range_leaves_nu_free(self):
        # M0 = 0: nu M0 + sym(M1) = sym(M1) is definite for every nu
        rep = check_wellposed(law_on("h", np.zeros((2, 2)), np.diag([1.0, 3.0])))
        assert rep.passed and rep.nu_threshold == -np.inf

    @pytest.mark.parametrize("m0, weight", [
        ([[1.0, 0.5], [0.0, 1.0]], (1.0, 1.0)),
        # in small units on a non-uniform weight: the defect is judged against
        # M0's own largest entry, with no floor of 1
        (1e-20 * np.array([[1.0, 0.5], [0.1, 1.0]]), (1.0, 2.0)),
    ], ids=["unit", "small_units_weighted"])
    def test_non_selfadjoint_rejected_at_construction(self, m0, weight):
        t = SpaceTag("h", 2, weight)
        with pytest.raises(MaterialLawError):
            MaterialLaw(m0=MatrixOperator(m0, t, t), m1=MatrixOperator(np.zeros((2, 2)), t, t))

    @pytest.mark.parametrize("m0, m1", [
        ([[1.0, np.inf], [np.inf, 1.0]], None),  # its defect inf - inf is nan
        ([[np.inf, 0.0], [0.0, 1.0]], None),  # a diagonal M0, not transpose-tested
        (np.eye(2), [[0.0, np.nan], [0.0, 0.0]]),
    ], ids=["m0_coupled", "m0_diagonal", "m1"])
    def test_non_finite_entries_rejected_as_bad_input(self, m0, m1):
        # a plain ValueError, not a law that fails: the front door reads it as a scenario error
        with pytest.raises(ValueError, match="must have finite entries") as info:
            law_on("h", m0, m1)
        assert not isinstance(info.value, MaterialLawError)

    def test_diagonal_m0_is_selfadjoint_under_any_weights(self):
        # a diagonal M0 is not transpose-tested; one off-diagonal entry is
        rng = np.random.default_rng(9)
        t = SpaceTag("h", 6, rng.uniform(0.3, 3.0, 6))
        diag = np.diag(np.r_[rng.uniform(0.5, 2.0, 4), 0.0, 1.0])
        MaterialLaw(m0=MatrixOperator(diag, t, t), m1=MatrixOperator(np.zeros((6, 6)), t, t))
        diag[0, 5] = 1e-3
        with pytest.raises(MaterialLawError):
            MaterialLaw(m0=MatrixOperator(diag, t, t), m1=MatrixOperator(np.zeros((6, 6)), t, t))

    def test_negative_m0_fails(self):
        rep = check_wellposed(law_on("h", np.diag([1.0, -0.5])))
        assert not rep.m0_nonneg and not rep.passed

    def test_nu_threshold_renders_positive(self):
        # coupled sym(M1) between range and kernel of M0: nu* = 3, where
        # nu*M0 + sym(M1) = [[6, 3], [3, 1.5]] is singular; just above it the
        # combination is positive definite
        m0 = np.diag([2.0, 0.0])
        m1 = np.array([[0.0, 3.0], [3.0, 1.5]])
        mlaw = law_on("h", m0, m1)
        rep = check_wellposed(mlaw)
        assert rep.passed
        nu = rep.nu_threshold
        assert nu == pytest.approx(3.0, rel=1e-14)
        comb = (nu + 1e-9) * m0 + symmetrize(mlaw.m1).to_dense()
        assert np.linalg.eigvalsh(comb).min() > 0


def dense_weighted(op):
    """Sw T Sw^-1 of an operator T, symmetrized: its matrix in weighted-orthonormal coordinates."""
    sw = np.sqrt(op.domain.weight)
    b = sw[:, None] * op.to_dense() / sw[None, :]
    return 0.5 * (b + b.T)


def dense_reference_gate(mlaw, rank_tol=1e-10):
    """The well-posedness gate on the whole law, densified and equilibrated.

    M0 and sym(M1) in weighted-orthonormal coordinates, both congruent by
    D^-1/2 with D = |diag M0|, |diag sym(M1)| where that is 0, and 1 where
    both are; one eigendecomposition of M0, ranked against its largest
    |eigenvalue|, the compressions of sym(M1) onto its kernel and range,
    and nu* as the top eigenvalue of one dense pencil (-Sigma, M0 on its
    range), Sigma the Schur complement of sym(M1) onto the range, solved by
    scipy's generalized eigh.  Returns the flags, nu* and the scale of its
    rounding: the largest |eigenvalue| of the pencil or |sym(M1)|max over the
    smallest range eigenvalue, the larger (0 when the pencil is empty or the
    law fails).
    """
    b0, b1 = dense_weighted(mlaw.m0), dense_weighted(symmetrize(mlaw.m1))
    d0, d1 = np.diag(b0), np.diag(b1)
    e = 1.0 / np.sqrt(np.abs(np.where(d0 != 0, d0, np.where(d1 != 0, d1, 1.0))))
    b0, b1 = (e[:, None] * b * e[None, :] for b in (b0, b1))
    vals, q = np.linalg.eigh(b0)
    cutoff = rank_tol * np.abs(vals).max()
    rng_mask = vals > cutoff
    s = q.T @ b1 @ q
    s_kk, s_rk = s[~rng_mask][:, ~rng_mask], s[rng_mask][:, ~rng_mask]
    s_rr = s[rng_mask][:, rng_mask]
    kernel_values = np.linalg.eigvalsh(s_kk)
    flags = {"m0_nonneg": vals.min() >= -cutoff,
             "kernel_block_positive": bool(
                 (kernel_values > rank_tol * np.abs(kernel_values).max(initial=0.0)).all())}
    if not all(flags.values()):
        return flags, np.inf, 0.0
    if not rng_mask.any():
        return flags, -np.inf, 0.0
    sigma = s_rr - s_rk @ np.linalg.solve(s_kk, s_rk.T) if s_kk.size else s_rr
    pencil = scipy.linalg.eigh(-sigma, np.diag(vals[rng_mask]), eigvals_only=True)
    return flags, pencil[-1], max(np.abs(pencil).max(), np.abs(b1).max() / vals[rng_mask].min())


def assert_same_nu(nu, ref, spread, rtol=1e-10):
    """nu* equal to ref: exactly when either is infinite, else within rtol of spread."""
    if np.isfinite(ref) and np.isfinite(nu):
        assert abs(nu - ref) <= rtol * spread, (nu, ref)
    else:
        assert nu == ref


def random_block_law(rng, sizes):
    """A law whose coupling blocks have the given sizes, at permuted coordinates.

    Weights are non-uniform.  In weighted-orthonormal coordinates each M0
    block has a random eigenbasis, a kernel of random dimension and, now
    and then, a negative eigenvalue; each M1 block is full, so sym(M1)
    couples range and kernel, and it is positive on the kernel or not.
    """
    n = sum(sizes)
    w = rng.uniform(0.5, 2.0, n)
    sw = np.sqrt(w)
    b0, b1 = np.zeros((n, n)), np.zeros((n, n))
    bounds = np.cumsum([0, *sizes])
    perm = rng.permutation(n)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        idx, s = perm[lo:hi], hi - lo
        q, _ = np.linalg.qr(rng.standard_normal((s, s)))
        vals = rng.uniform(0.2, 2.0, s)
        vals[:rng.integers(0, s + 1)] = 0.0
        if rng.random() < 0.1:
            vals[-1] = -0.5
        blk = q @ np.diag(vals) @ q.T
        b0[np.ix_(idx, idx)] = 0.5 * (blk + blk.T)
        x = rng.standard_normal((s, s))
        b1[np.ix_(idx, idx)] = x @ x.T + 0.1 * np.eye(s) + x - x.T if rng.random() < 0.8 else x
    t = SpaceTag("blocks", n, w)
    # M = Sw^-1 B Sw is weighted-selfadjoint exactly when B is symmetric
    return MaterialLaw(m0=MatrixOperator(b0 / sw[:, None] * sw[None, :], t, t),
                       m1=MatrixOperator(b1 / sw[:, None] * sw[None, :], t, t))


def dense_function(op, f):
    """f(T) of a weighted-selfadjoint T from one dense eigendecomposition."""
    sw = np.sqrt(op.domain.weight)
    b = sw[:, None] * op.to_dense() / sw[None, :]
    vals, q = np.linalg.eigh(0.5 * (b + b.T))
    return (q * f(vals)) @ q.T / sw[:, None] * sw[None, :]


class TestBlockwiseGate:
    """The blockwise gate against the densified one."""

    def assert_same_report(self, mlaw):
        rep, (flags, nu, spread) = check_wellposed(mlaw), dense_reference_gate(mlaw)
        for flag, value in flags.items():
            assert getattr(rep, flag) == value, flag
        assert_same_nu(rep.nu_threshold, nu, spread)
        return rep

    def test_random_block_laws(self):
        rng = np.random.default_rng(11)
        verdicts = set()
        for _ in range(60):
            sizes = list(rng.integers(1, 6, size=int(rng.integers(1, 12))))
            verdicts.add(self.assert_same_report(random_block_law(rng, sizes)).passed)
        assert verdicts == {True, False}

    def test_fully_coupled_law(self):
        rng = np.random.default_rng(12)
        for _ in range(3):
            self.assert_same_report(random_block_law(rng, [40]))

    def test_catalog_laws(self):
        laws = [catalog.thermo_elasticity((Axis.torus(3),) * 3, gamma=0.7).law,
                catalog.transport((Axis.symmetric(16, 0.25),), m11=2.5).law,
                catalog.acoustics((Axis.torus(16),), rho=np.linspace(1, 3, 16),
                                  sigma=np.linspace(0, 1, 16)).law]
        for mlaw in laws:
            assert self.assert_same_report(mlaw).passed

    @pytest.mark.parametrize("name", sorted(catalog.REGISTRY))
    def test_every_default_law(self, name):
        # most default laws are diagonal, and take no graph pass; none needs a weight nu
        rep = self.assert_same_report(catalog.build_entry(name).law)
        assert rep.passed and rep.nu_threshold == 0.0

    def test_heat_2048_points_within_budget(self):
        # the densified gate took about 17 s here, nearly all in one eigh
        start = time.perf_counter()
        rep = check_wellposed(catalog.heat((Axis.interval(2048),)).law)
        assert time.perf_counter() - start < 2.0
        assert rep.passed

    @pytest.mark.parametrize("build", [
        lambda: catalog.heat((Axis.interval(16),), rho=np.linspace(1, 3, 16)),
        lambda: catalog.reissner_mindlin((Axis.interval(8),) * 2, kappa=np.linspace(1, 2, 128)),
        lambda: catalog.transport((Axis.symmetric(10, 0.3),)),
    ], ids=["heat", "reissner_mindlin", "transport"])
    def test_symmetric_m0_accepted_under_uniform_weights(self, build):
        # uniform weights such as 1/17 or 0.3: the adjoint is the plain
        # transpose, so a symmetric M0 is selfadjoint bitwise
        assert check_wellposed(build().law).passed


# laws in SI units: each M0 is definite, but its eigenvalues sit far from 1 or
# spread over more than 1e10, and none of them may be read as a kernel.  Each
# with a step tau on the scale of its fastest wave.
SI_LAWS = {
    "acoustics_rho_2e10": (lambda: catalog.acoustics((Axis.interval(16),), rho=2e10), 1e-3),
    "acoustics_rho_1e-11": (lambda: catalog.acoustics((Axis.interval(16),), rho=1e-11), 1e-3),
    "acoustics_rho_1e-13": (lambda: catalog.acoustics((Axis.interval(16),), rho=1e-13), 1e-3),
    "maxwell_eps0_mu0": (lambda: catalog.maxwell((Axis.torus(3),) * 3, permittivity=8.854e-12,
                                                 permeability=1.2566e-6), 1e-10),
    # steel, 0.1 m square section: rho A, rho I, 1 / (k G A), E I
    "timoshenko_steel": (lambda: catalog.timoshenko((Axis.interval(32),), nu1=78.5,
                                                    nu2=0.0654, kappa=1.5e-9, cten=1.67e6), 1e-3),
}


class TestGateScale:
    """The gate ranks each coupling block against its own largest |eigenvalue|."""

    @pytest.mark.parametrize("build, tau", SI_LAWS.values(), ids=SI_LAWS)
    def test_a_definite_law_in_si_units_passes_and_conserves(self, build, tau):
        entry = build()
        assert check_wellposed(entry.law).passed
        u0 = np.random.default_rng(22).standard_normal(entry.dim)
        energies = solve(entry.problem(initial=u0), SolverConfig(tau=tau, t_end=40 * tau)).energies
        assert np.abs(energies - energies[0]).max() <= 1e-13 * energies[0]

    def test_the_verdicts_do_not_depend_on_the_scale_of_m0(self):
        # the kernel of c M0 is the kernel of M0, for any c > 0
        rng = np.random.default_rng(23)
        verdicts = set()
        for _ in range(20):
            sizes = list(rng.integers(1, 6, size=int(rng.integers(1, 8))))
            law = random_block_law(rng, sizes)
            rep = check_wellposed(law)
            verdicts.add((rep.m0_nonneg, rep.kernel_block_positive))
            for c in (1e-15, 1e-11, 1e-5, 1e5, 1e11, 1e15):
                scaled = check_wellposed(MaterialLaw(m0=c * law.m0, m1=law.m1))
                assert (scaled.m0_nonneg, scaled.kernel_block_positive) == (
                    rep.m0_nonneg, rep.kernel_block_positive), c
        assert len(verdicts) > 1

    def test_the_verdicts_do_not_depend_on_the_scale_of_sym_m1(self):
        # positivity on ker M0 is judged against each kernel block's own largest
        # eigenvalue, so c sym(M1) is positive there exactly when sym(M1) is
        assert check_wellposed(catalog.heat((Axis.interval(16),), sigma=1e-13).law).passed
        rng = np.random.default_rng(24)
        verdicts = set()
        for _ in range(20):
            sizes = list(rng.integers(1, 6, size=int(rng.integers(1, 8))))
            law = random_block_law(rng, sizes)
            rep = check_wellposed(law)
            verdicts.add(rep.kernel_block_positive)
            for c in (1e-15, 1e-11, 1e-5, 1e5, 1e11, 1e15):
                scaled = check_wellposed(MaterialLaw(m0=law.m0, m1=c * law.m1))
                assert (scaled.m0_nonneg, scaled.kernel_block_positive) == (
                    rep.m0_nonneg, rep.kernel_block_positive), c
        assert verdicts == {True, False}

    def test_a_law_mixing_scales_by_1e16_passes_and_dissipates(self):
        # gamma^2 / cten against nu1 and cten^-1 in one coupling block of M0:
        # the equilibration gives each coordinate unit scale before the rank cut
        entry = catalog.thermo_elasticity((Axis.torus(3),) * 3, gamma=1e5, nu1=1e3, cten=1e11)
        assert check_wellposed(entry.law).passed
        u0 = np.random.default_rng(25).standard_normal(entry.dim)
        traj = solve(entry.problem(initial=u0), SolverConfig(tau=1e-3, t_end=50e-3))
        assert dissipation_check(traj, entry.law).holds
        # each CN step balances to 1e-12 of its largest term, max(|E|, tau |drop|)
        sym_m1, w, energies = symmetrize(entry.law.m1), entry.space.weight, traj.energies
        mids = 0.5 * (traj.states[1:] + traj.states[:-1])
        drops = 1e-3 * np.array([np.sum(w * sym_m1.apply(mid) * mid) for mid in mids])
        scale = max(np.abs(energies).max(), np.abs(drops).max())
        assert np.abs(np.diff(energies) + drops).max() <= 1e-12 * scale

    def test_no_diagonal_change_of_units_flips_a_verdict_or_moves_nu(self):
        # C M0 C, C M1 C for C = diag(c on random rows, 1 elsewhere) is the same
        # law in other units: the same flags, and the same nu* (a congruence
        # keeps nu M0 + sym(M1) definite exactly where it was)
        rng = np.random.default_rng(26)
        verdicts, finite = set(), 0
        for _ in range(30):
            law = random_block_law(rng, list(rng.integers(1, 6, size=int(rng.integers(1, 8)))))
            rep = check_wellposed(law)
            verdicts.add(rep.passed)
            finite += bool(np.isfinite(rep.nu_threshold))
            t, m0, m1 = law.space, law.m0.to_dense(), law.m1.to_dense()
            for c in (1e-15, 1e-11, 1e-5, 1e5, 1e11, 1e15):
                units = np.where(rng.random(t.dim) < 0.5, c, 1.0)
                scaled = check_wellposed(MaterialLaw(
                    m0=MatrixOperator(units[:, None] * m0 * units[None, :], t, t),
                    m1=MatrixOperator(units[:, None] * m1 * units[None, :], t, t)))
                assert (scaled.m0_nonneg, scaled.kernel_block_positive) == (
                    rep.m0_nonneg, rep.kernel_block_positive), c
                assert_same_nu(scaled.nu_threshold, rep.nu_threshold,
                               abs(rep.nu_threshold), rtol=1e-12)
        assert verdicts == {True, False} and finite >= 5

    def test_nu_star_is_sharp(self):
        # nu M0 + sym(M1) is positive definite just above nu* and not just below it
        rng = np.random.default_rng(27)
        checked = 0
        for _ in range(30):
            law = random_block_law(rng, list(rng.integers(1, 6, size=int(rng.integers(1, 8)))))
            nu = check_wellposed(law).nu_threshold
            if not np.isfinite(nu):
                continue
            b0, b1 = dense_weighted(law.m0), dense_weighted(symmetrize(law.m1))
            for side in (1.0, -1.0):
                comb = (nu + side * 1e-6 * abs(nu)) * b0 + b1
                assert (np.linalg.eigvalsh(comb).min() > 0) == (side > 0), (nu, side)
            checked += 1
        assert checked > 10

    @pytest.mark.parametrize("build, verdicts", [
        (lambda: law_on("h", [[1e-320, 1e10], [1e10, 1e-320]], np.eye(2)), (False, True, np.inf)),
        (lambda: law_on("h", np.diag([1e-320, 1.0]), np.eye(2)), (True, True, -1.0)),
        (lambda: catalog.timoshenko((Axis.interval(24),), nu1=1e-320, d=1.0).law,
         (True, True, 0.0)),
    ], ids=["indefinite", "diagonal", "timoshenko"])
    def test_a_subnormal_diagonal_of_m0_does_not_overflow(self, build, verdicts):
        # D^-1/2 is 1e160 there, so the equilibrated entries would reach 1e320 and
        # 1e330; an exact power of two keeps them finite (any warning is an error)
        rep = check_wellposed(build())
        assert (rep.m0_nonneg, rep.kernel_block_positive, rep.nu_threshold) == verdicts

    def test_a_subnormal_sym_m1_block_keeps_its_verdict(self):
        # where a block of M0 is singular but its diagonal is not zero, D comes from
        # M0 and that block of sym(M1) stays subnormal after the equilibration: it is
        # judged at unit scale, so no eigensolver fails and nothing overflows (any
        # warning is an error), and every verdict is that of the unscaled law
        rng = np.random.default_rng(0)
        for _ in range(300):
            law = random_block_law(rng, list(rng.integers(1, 5, size=int(rng.integers(1, 5)))))
            rep = check_wellposed(law)
            tiny = check_wellposed(MaterialLaw(m0=law.m0, m1=1e-320 * law.m1))
            assert (tiny.m0_nonneg, tiny.kernel_block_positive) == (
                rep.m0_nonneg, rep.kernel_block_positive)

    def test_a_small_negative_eigenvalue_fails(self):
        # -1e-13 on its own coupling block is negative at that block's scale,
        # not a kernel vector
        rep = check_wellposed(law_on("h", np.diag([1.0, -1e-13]), np.eye(2)))
        assert not rep.m0_nonneg and not rep.passed


class TestBlockwiseFunctions:
    """The polar factors and the coefficient roots against dense eigh."""

    def test_polar_decompose(self):
        rng = np.random.default_rng(14)
        dom = SpaceTag("dom", 9, rng.uniform(0.5, 2.0, 9))
        cod = SpaceTag("cod", 11, rng.uniform(0.5, 2.0, 11))
        g = np.zeros((11, 9))
        rows, cols = rng.permutation(11), rng.permutation(9)
        # injective blocks: at a kernel the square root amplifies rounding to sqrt(eps)
        for (r0, r1), (c0, c1) in (((0, 4), (0, 3)), ((4, 6), (3, 5)), ((6, 11), (5, 9))):
            g[np.ix_(rows[r0:r1], cols[c0:c1])] = rng.standard_normal((r1 - r0, c1 - c0))
        G = MatrixOperator(g, dom, cod)
        U, abs_g = catalog.polar_decompose(G)
        gram = G.adjoint() @ G
        cutoff = 1e-12 * max(np.abs(np.linalg.eigvals(gram.to_dense())).max(), 1.0)
        abs_ref = dense_function(gram, lambda v: np.sqrt(np.clip(v, 0.0, None)))
        pinv_ref = dense_function(gram, lambda v: np.where(
            v > cutoff, 1.0 / np.sqrt(np.clip(v, cutoff, None)), 0.0))
        assert np.abs(abs_g.to_dense() - abs_ref).max() <= 1e-12 * np.abs(abs_ref).max()
        assert np.abs(U.to_dense() - g @ pinv_ref).max() <= 1e-12
        assert np.abs((U @ abs_g).to_dense() - g).max() <= 1e-12 * np.abs(g).max()

    def test_sqrt_and_inv(self):
        rng = np.random.default_rng(15)
        n = 14
        mat = np.zeros((n, n))
        perm = rng.permutation(n)
        for lo, hi in ((0, 1), (1, 4), (4, 9), (9, 14)):
            x = rng.standard_normal((hi - lo, hi - lo))
            mat[np.ix_(perm[lo:hi], perm[lo:hi])] = x @ x.T + 0.5 * np.eye(hi - lo)
        vals, q = np.linalg.eigh(mat)
        s, si = catalog._coeff("m0", mat, n, f=(np.sqrt, lambda v: 1.0 / np.sqrt(v)))
        s_ref = (q * np.sqrt(vals)) @ q.T
        si_ref = (q / np.sqrt(vals)) @ q.T
        assert np.abs(s.toarray() - s_ref).max() <= 1e-12 * np.abs(s_ref).max()
        assert np.abs(si.toarray() - si_ref).max() <= 1e-12 * np.abs(si_ref).max()


@pytest.fixture
def lu_guard(monkeypatch):
    """guarded_lu as a function of a matrix returning the kappa_1 it checks
    and the number of solves it takes, through a wrapped factor."""
    seen = {}
    splu, check = matlaw.spla.splu, matlaw._check_condition

    class Counted:
        def __init__(self, lu):
            self.lu, seen["solves"] = lu, 0

        def solve(self, b, trans="N"):
            seen["solves"] += 1
            return self.lu.solve(b, trans)

    monkeypatch.setattr(matlaw.spla, "splu", lambda matrix: Counted(splu(matrix)))
    monkeypatch.setattr(matlaw, "_check_condition",
                        lambda estimate: (seen.update(kappa=estimate), check(estimate)))

    def run(matrix):
        seen.clear()
        guarded_lu(sp.csr_matrix(matrix))
        return seen["kappa"], seen["solves"]

    return run


def exact_kappa(matrix):
    dense = matrix.toarray()
    return np.abs(dense).sum(axis=0).max() * np.abs(np.linalg.inv(dense)).sum(axis=0).max()


class TestConditionGuard:
    """guarded_inverses: one batched inverse, guarded by kappa_1 of all blocks together;
    guarded_lu: the sparse LU, guarded by kappa_1 with Hager's estimate of ||S^-1||_1."""

    def test_inverses_and_an_empty_stack(self):
        rng = np.random.default_rng(16)
        stack = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        inv, empty = guarded_inverses([stack, np.zeros((4, 0, 0))])
        assert np.abs(stack @ inv - np.eye(3)).max() <= 1e-12
        assert empty.shape == (4, 0, 0)

    def test_one_exactly_singular_block(self):
        stack = np.array([np.eye(2), [[1.0, 2.0], [2.0, 4.0]], np.eye(2)])
        with pytest.raises(StepFailureError, match="singular"):
            guarded_inverses([stack])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_symbol(self, bad):
        stack = np.array([np.eye(2)] * 3, dtype=complex)
        stack[1, 0, 1] = bad
        with pytest.raises(StepFailureError, match="non-finite"):
            guarded_inverses([np.array([np.eye(2)]), stack])

    def test_kappa_at_and_just_above_the_limit(self):
        # diag(c, 1): ||S||_1 = c and ||S^-1||_1 = 1, so kappa_1 = c exactly
        guarded_inverses([np.array([np.diag([CONDITION_LIMIT, 1.0])])])
        above = np.nextafter(CONDITION_LIMIT, np.inf)
        with pytest.raises(StepFailureError, match="condition estimate 1.000e\\+15"):
            guarded_inverses([np.array([np.diag([above, 1.0])])])

    def test_blocks_are_guarded_together(self):
        # each block is perfectly conditioned, but as one block-diagonal
        # matrix, across both stacks, kappa_1 = 1e8 / 1e-8
        with pytest.raises(StepFailureError, match="condition estimate 1.000e\\+16"):
            guarded_inverses([np.array([1e8 * np.eye(2)]), np.array([1e-8 * np.eye(3)])])
        guarded_inverses([np.array([1e7 * np.eye(2)]), np.array([1e-7 * np.eye(3)])])

    @pytest.mark.parametrize("name", sorted(catalog.REGISTRY))
    def test_lu_estimate_on_every_desk_step_matrix(self, name, lu_guard):
        # within [1/2, 1] of the exact kappa_1, from at most three iterations
        entry = catalog.build_entry(name)
        for scheme in (CRANK_NICOLSON, IMPLICIT_EULER):
            for tau in (1e-2, 1e-4):
                left, _ = step_pair(entry.law, entry.a, tau, scheme)
                kappa, solves = lu_guard(left.entries)
                exact = exact_kappa(left.entries)
                assert 0.5 * exact <= kappa <= (1 + 1e-10) * exact, (scheme, tau)
                assert solves <= 6

    def test_lu_kappa_at_and_just_above_the_limit(self, lu_guard):
        # as for the symbols: diag(c, 1) has kappa_1 = c, and the estimate is exact
        assert lu_guard(np.diag([CONDITION_LIMIT, 1.0])) == (CONDITION_LIMIT, 4)
        above = np.nextafter(CONDITION_LIMIT, np.inf)
        with pytest.raises(StepFailureError, match="condition estimate 1.000e\\+15"):
            guarded_lu(sp.csr_matrix(np.diag([above, 1.0])))

    @pytest.mark.parametrize("matrix", [np.diag([1.0, 0.0, 1.0]), [[1.0, 2.0], [2.0, 4.0]]],
                             ids=["zero_pivot", "dependent_rows"])
    def test_lu_of_an_exactly_singular_matrix(self, matrix):
        with pytest.raises(StepFailureError, match="singular"):
            guarded_lu(sp.csr_matrix(matrix))

    @pytest.mark.parametrize("at", [(1, 1), (1, 2)], ids=["diagonal", "off_diagonal"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_lu_of_a_non_finite_matrix(self, bad, at):
        matrix = np.eye(4)
        matrix[at] = bad
        with pytest.raises(StepFailureError, match="singular"):
            guarded_lu(sp.csr_matrix(matrix))


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
        d = build_d1(Axis(3, 1.0)).to_dense()
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


def complements(inverse, p_range):
    """The Schur complements per group, read back from the inverse: in the
    unitary basis the range block of S^-1 is the inverse of the complement."""
    return [np.linalg.inv(basis.conj().transpose(0, 2, 1) @ inverse[index] @ basis)
            for index, basis in p_range.groups]


def solve_with(inverse, cut, rhs):
    """x = S^-1 rhs through the inverse on the cut, one block per wavenumber."""
    return cut.inverse(inverse @ cut.forward(np.asarray(rhs, dtype=float)[:, None]))[:, 0]


class TestSchur:
    def reduce(self, m, k):
        """schur_reduce of S = m at each point of a 2-point ring (m kron I_2), with
        the first n-k components as the 'range' and the last k as the 'kernel'
        at both wavenumbers (the split of A = diag(1, .., 1, 0, .., 0) kron I_2);
        returns the inverse, the cut, the range pair and S."""
        n = len(m)
        t = SpaceTag("h", 2 * n)
        A = MatrixOperator(np.kron(np.diag(np.arange(n) < n - k), np.eye(2)), t, t)
        S = MatrixOperator(np.kron(m, np.eye(2)), t, t)
        cut, (a_symbols, symbols) = shift_cut(t, (Axis.torus(2),), A, S)
        pr, pk = range_kernel_split(cut, a_symbols)
        return schur_reduce(symbols, pr, pk), cut, pr, S

    def test_hand_2x2(self):
        inverse, cut, pr, _ = self.reduce(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert complements(inverse, pr)[0][:, 0, 0] == pytest.approx([1.5, 1.5])
        # reconstruction at each point: x_k = (f_k - x_r) / 2
        f = np.array([0.0, 0.0, 3.0, 1.0])
        x = solve_with(inverse, cut, f)
        assert x[2:] == pytest.approx((f[2:] - x[:2]) / 2.0)

    def test_block_diagonal(self):
        m = np.zeros((4, 4))
        m[:2, :2] = [[2.0, 0.3], [0.3, 2.0]]
        m[2:, 2:] = [[4.0, 0.0], [0.0, 5.0]]
        inverse, cut, pr, _ = self.reduce(m, 2)
        # the complement in the split's range basis u_r, whose rows past 2 vanish
        u_r = pr.groups[0][1][:, :2]
        assert np.allclose(u_r @ complements(inverse, pr)[0] @ u_r.conj().transpose(0, 2, 1),
                           m[:2, :2], atol=1e-15)
        x = solve_with(inverse, cut, np.repeat([0.0, 0.0, 4.0, 10.0], 2))
        assert np.allclose(x, np.repeat([0.0, 0.0, 1.0, 2.0], 2))

    def test_full_solve_equals_reduce_reconstruct(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n))
            m = rng.standard_normal((n, n))
            S_ent = m @ m.T + 0.5 * np.eye(n)       # symmetric positive definite
            skew = rng.standard_normal((n, n))
            inverse, cut, _, S = self.reduce(S_ent + (skew - skew.T), k)
            rhs = rng.standard_normal(2 * n)
            x_full = np.linalg.solve(S.to_dense(), rhs)
            x_rec = solve_with(inverse, cut, rhs)
            assert np.abs(x_full - x_rec).max() <= 1e-12 * max(np.abs(x_full).max(), 1.0)

    def test_positivity_persists_without_coupling(self):
        m = np.zeros((4, 4))
        m[:2, :2] = 3.0 * np.eye(2)
        m[2:, 2:] = 2.0 * np.eye(2)
        inverse, _, pr, _ = self.reduce(m, 2)
        reduced = complements(inverse, pr)[0]
        assert np.linalg.eigvalsh(reduced).min() >= 3.0 - 1e-12

    def test_positivity_with_coupling_on_catalog_step(self):
        from protofield import catalog

        entry = catalog.heat((Axis.torus(6),))
        S, _ = step_pair(entry.law, entry.a, 0.05)
        cut, (a_symbols, s_symbols) = shift_cut(entry.space, entry.grid, entry.a, S)
        pr, pk = range_kernel_split(cut, a_symbols)
        assert cut.N == 4  # 6 // 2 + 1 kept wavenumbers
        for reduced in complements(schur_reduce(s_symbols, pr, pk), pr):
            sym = 0.5 * (reduced + reduced.conj().transpose(0, 2, 1))
            assert np.linalg.eigvalsh(sym).min(initial=np.inf) > 0

    def test_singular_kernel_block_rejected(self):
        # refused as a singular step, the way solve refuses one
        with pytest.raises(StepFailureError, match="singular"):
            self.reduce(np.array([[2.0, 1.0], [1.0, 0.0]]), 1)

    def test_step_matrix_must_commute_with_the_cut(self):
        # a step matrix varying along the ring has no symbols to reduce: A
        # alone is cut, A with it is not
        from protofield import catalog

        entry = catalog.heat((Axis.torus(6),))
        t = entry.a.domain
        S = MatrixOperator(np.diag(np.linspace(1.0, 2.0, t.dim)), t, t)
        assert shift_cut(entry.space, entry.grid, entry.a)[1] is not None
        assert shift_cut(entry.space, entry.grid, entry.a, S) == (None, None)

