"""Structural-identity verification suite: the one home of every identity check.

Each identity is computed here and nowhere else; the catalog supplies the
systems, and the tests call these functions.  A `check_<name>` builds what
it audits from scratch, measures a residual and compares it with the
identity's tolerance; a test that wants the identity on another grid
calls the residual function its check calls.  The CLI
`verify` command runs `CHECKS` (optionally filtered by substring) and
prints one PASS/FAIL line per check.

`provenance_residual` checks that every catalog operator descends from the
stack operator against a reference built here, from pieces the entry's
builder does not call: the hand stencils, the Hodge pairing, the
alternating rank-3 coordinate, the Dirac relabeling and chiral term, the
even/odd split and the beam reduction.  References take the 1-d stencils
and the stack operator as given and stack their blocks with scipy's own
`bmat`, `block_diag` and `kron`, never with the catalog's assembler, so a
fault in a builder's assembly cannot cancel in its own provenance.  The
one exception is the Dirac target, which relabels the extended system's
own parts (`catalog._ext_parts_raw` in the centered stencils): that
relabeling is the identity being checked.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations, permutations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from . import catalog
from .flatgrid import (DIRICHLET, PERIODIC, Axis, TensorFieldSpace, TensorStack,
                       build_div, build_nabla, build_stack_skew, point_count)
from .linops import MatrixOperator, SpaceTag, make_block_skew, skew_defect
from .matlaw import MaterialLaw, check_wellposed
from .subspaces import (ProjectionPair, asym_projection, descend, direct_sum_pairs, even_odd,
                        identity_pair, pointwise_pair, rank_block, shift_cut, torus_average)
from .evolve import (
    CRANK_NICOLSON,
    DISSIPATION_TOL,
    IMPLICIT_EULER,
    EvolutionaryProblem,
    SolverConfig,
    dissipation_check,
    solve,
    solve_reduced,
)

SQRT2 = float(np.sqrt(2.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tol: float
    passed: bool
    detail: str = ""


def _relative(diff, ref):
    """max|diff| / max|ref| of arrays, sparse matrices or numbers, the scale of every
    relative residual here: 0 when diff vanishes, inf when only ref does."""
    top, scale = (np.abs(x.data if sp.issparse(x) else x).max(initial=0.0) for x in (diff, ref))
    return float(top / scale) if scale else (0.0 if top == 0 else np.inf)


def _result(name, residual, tol, detail="", side_ok=True):
    """Passed when the residual meets tol and the check's other conditions hold."""
    return CheckResult(name=name, residual=float(residual), tol=tol,
                       passed=bool(residual <= tol and side_ok), detail=detail)


# ---------------------------------------------------------------------------
# residual functions shared by the checks and the tests


def adjointness_residual(grids, rng):
    """Worst normalized <nabla u, v> + <u, div v> over random fields.

    Draws 12 field pairs for each grid and each rank 0..2; returns
    (worst residual, number of pairs).
    """
    worst = 0.0
    count = 0
    for axes in grids:
        for rank in range(3):
            space = TensorFieldSpace(axes, rank)
            nab = build_nabla(space)
            div = build_div(TensorFieldSpace(axes, rank + 1))
            w0 = space.tag.weight
            w1 = nab.codomain.weight
            for _ in range(12):
                u = rng.standard_normal(space.dim)
                v = rng.standard_normal(nab.codomain.dim)
                num = abs(np.sum(w1 * nab.apply(u) * v) + np.sum(w0 * u * div.apply(v)))
                den = np.sqrt(np.sum(w0 * u * u)) * np.sqrt(np.sum(w1 * v * v))
                worst = max(worst, num / den)
                count += 1
    return worst, count


def _asym_perm():
    """Hodge pairing between the antisymmetric coordinates and vector proxies.

    (c01, c02, c12) <-> (w2, -w1, w0): an orthogonal involution.
    """
    return np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


def _stencil_curl(axes):
    """The curl from the 1-d stencils, in the Maxwell entry's magnetic coordinates.

    The basis normalization is folded in: rows c01, c02, c12 are curl_z,
    -curl_y, curl_x over sqrt 2.
    """
    np_ = point_count(axes)
    P = catalog._partials(axes)
    curl = sp.bmat([[None, -P[2], P[1]], [P[2], None, -P[0]], [-P[1], P[0], None]], format="csr")
    return (1.0 / SQRT2) * sp.kron(_asym_perm(), sp.identity(np_)) @ curl


def curl_residual(axes):
    """Max entry of the descended Maxwell block minus the stencil curl."""
    entry = catalog.maxwell(axes)
    sl = entry.block_slices()
    lower = entry.a.entries[sl["w"], sl["E"]]
    return float(abs(lower - _stencil_curl(axes)).max())


def annihilation_residual(axes):
    """Max entry of the two extended-Maxwell parts (M0 = I) multiplied, both orders."""
    c, g = catalog._ext_parts_raw(axes, catalog._partials(axes))
    return float(max(abs(c @ g).max(), abs(g @ c).max()))


def _dirac_permutations():
    """The two 4x4 signed permutations of the 8x8 unitary relabeling."""
    u1 = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], float)
    u2 = np.array([[0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0]], float)
    return u1, u2


def _dirac_relabeling(axes):
    """The 8x8-per-point signed permutation U with U D U* = extended Maxwell + chiral."""
    u1, u2 = _dirac_permutations()
    eye = sp.identity(point_count(axes), format="csr")
    return sp.block_diag([sp.kron(u1, eye), sp.kron(u2, eye)], format="csr")


def _chiral_m1(axes):
    """The skew constant zero-order term appearing in the Dirac relabeling.

    Off-diagonal 4x4 blocks of (scalar, vector) shape: [[0, (0,0,s)],
    [(0,0,s)^T, [[0,1,0],[-1,0,0],[0,0,0]]]] with s = -1 above and +1 below
    the diagonal; skew-selfadjoint as a whole (a "chiral" zero-order law).
    """
    def kblock(s):
        return np.array([[0, 0, 0, s], [0, 0, 1, 0], [0, -1, 0, 0], [s, 0, 0, 0]], float)

    per_point = sp.bmat([[None, kblock(-1.0)], [kblock(1.0), None]])
    return sp.kron(per_point, sp.identity(point_count(axes)), format="csr")


def _dirac_target(axes):
    """Extended Maxwell in the centered (free-space) stencils plus the chiral
    term: U D U* for the Dirac D."""
    curl, graddiv = catalog._ext_parts_raw(axes, catalog._skew_partials(axes))
    return curl + graddiv + _chiral_m1(axes)


def dirac_spectra_residual(axes):
    """Largest gap between the spectra of the Dirac operator and its target,
    symbol by symbol; inf when shift_cut does not cut the grid for both.

    Both commute with the shifts of a periodic grid, so each is one 8x8
    symbol per wavenumber.  The symbols of these skew operators have
    imaginary spectra: the sorted imaginary parts are compared wavenumber
    by wavenumber, and the real parts, rounding when the identity holds,
    count as gap too.
    """
    D = catalog.dirac(axes).a
    target = MatrixOperator(_dirac_target(axes), D.domain, D.codomain)
    cut, symbols = shift_cut(D.domain, tuple(axes), D, target)
    if cut is None:
        return np.inf
    ev1, ev2 = (np.linalg.eigvals(s) for s in symbols)
    gap = np.abs(np.sort(ev1.imag, axis=1) - np.sort(ev2.imag, axis=1)).max()
    return float(max(gap, np.abs(ev1.real).max(), np.abs(ev2.real).max()))


def _even_odd_split(entry):
    """The transport entry's even/odd descendant: (even pair, odd pair,
    operator, law) on even pressures (+) odd fluxes.

    The stack operator's rank-{0, 1} block descends by even (+) odd; the
    entry's law is compressed the same way, as the law on each row (its
    even part on the first, its odd part on the second).
    """
    axes = entry.grid
    pe, po = even_odd(TensorFieldSpace(axes, 0))
    a = descend(_gradient_pair(axes),
                direct_sum_pairs([pe, even_odd(TensorFieldSpace(axes, 1))[1]]))

    def rows(m):
        return sp.block_diag([(p.pi @ m @ p.embedding).entries for p in (pe, po)], format="csr")

    m0, space = rows(entry.law.m0), a.domain
    law = MaterialLaw(m0=MatrixOperator(0.5 * (m0 + m0.T), space, space),
                      m1=MatrixOperator(rows(entry.law.m1), space, space))
    return pe, po, a, law


def transport_residual(entry):
    """Combined one-row solve vs the even/odd 2x2 descendant solve mapped back.

    Both march 8 Crank-Nicolson steps of size h from the same random data;
    returns the relative max-entry mismatch of the trajectories.
    """
    np_ = entry.dim
    u0 = np.random.default_rng(7).standard_normal(np_)
    h = entry.grid[0].h
    cfg = SolverConfig(tau=h, t_end=8 * h, scheme=CRANK_NICOLSON)
    traj = solve(entry.problem(initial=u0), cfg)

    pe, po, a, law = _even_odd_split(entry)
    split = EvolutionaryProblem(law=law, a=a,
                                initial=np.concatenate([pe.pi.apply(u0), po.pi.apply(u0)]))
    states = solve(split, cfg).states
    half = np_ // 2
    mapped = (states[:, :half] @ pe.embedding.to_dense().T
              + states[:, half:] @ po.embedding.to_dense().T)
    return _relative(traj.states - mapped, traj.states)


def second_order_residual(entry):
    """Residual of the eliminated (second-order) form of a plate/beam solve.

    Runs 40 implicit-Euler steps of 0.02 from data compatible with zero time
    integrals, accumulates the discrete antiderivatives of the bending and
    rotation velocities, and evaluates the two second-order rows obtained
    by eliminating the shear flux and moment stress.  The coefficients nu1,
    nu2, d, kappa and C^-1 are the blocks of the entry's own law; kappa and
    C^-1 are inverted by sparse LU solves, not through the spectra that
    built them.  Returns the largest relative residual (solver
    roundoff when the identity holds).
    """
    sl = entry.block_slices()
    size = dict(entry.blocks)
    np_, nvec = size["eta"], size["zeta"]

    def law_block(m, label):
        return m.entries[sl[label], sl[label]]

    m0, m1 = entry.law.m0, entry.law.m1
    nu1, nu2, dmat = law_block(m0, "eta"), law_block(m0, "s"), law_block(m1, "eta")
    kap_lu, c_inv_lu = (splu(law_block(m0, label).tocsc()) for label in ("zeta", "T"))
    div_blk, grad_blk, Div_blk, Grad_blk = (-entry.a.entries[sl[r], sl[c]]
                                            for r, c in (("eta", "zeta"), ("zeta", "eta"),
                                                         ("s", "T"), ("T", "s")))

    steps, tau = 40, 0.02
    rng = np.random.default_rng(3)
    u0 = np.zeros(entry.dim)
    u0[sl["eta"]] = rng.standard_normal(np_)
    u0[sl["s"]] = rng.standard_normal(nvec)
    f_vec = rng.standard_normal(np_)
    g_vec = rng.standard_normal(nvec)
    force = np.zeros(entry.dim)
    force[sl["eta"]] = f_vec
    force[sl["s"]] = g_vec

    cfg = SolverConfig(tau=tau, t_end=steps * tau, scheme=IMPLICIT_EULER)
    traj = solve(entry.problem(initial=u0, forcing=lambda t: force), cfg)

    eta = traj.states[:, sl["eta"]]
    s = traj.states[:, sl["s"]]
    eta_int = np.zeros_like(eta)
    s_int = np.zeros_like(s)
    for k in range(1, len(traj)):
        eta_int[k] = eta_int[k - 1] + tau * eta[k]
        s_int[k] = s_int[k - 1] + tau * s[k]

    worst = 0.0
    for k in range(1, len(traj)):
        shear = kap_lu.solve(grad_blk @ eta_int[k] + s_int[k])
        r1 = nu1 @ (eta[k] - eta[k - 1]) / tau + dmat @ eta[k] - div_blk @ shear - f_vec
        r2 = (nu2 @ (s[k] - s[k - 1]) / tau
              - Div_blk @ c_inv_lu.solve(Grad_blk @ s_int[k])
              + shear - g_vec)
        worst = max(worst, _relative(np.concatenate([r1, r2]), np.concatenate(
            [nu1 @ eta[k] / tau, div_blk @ shear, f_vec, g_vec])))
    return worst


def beam_reduction_pair(plate, beam) -> ProjectionPair:
    """Blockwise torus averaging from a plate state to a beam state.

    The plate grid must be (line axis, torus axis); the beam grid the line
    axis alone.  Vector blocks keep the line component, the moment block
    keeps the axial symmetric component; everything is averaged over the
    torus fiber.  The adjoint embeds constantly with zero padding and is an
    isometry (torus measure one).
    """
    axes2 = plate.grid
    if len(axes2) != 2 or axes2[1].bc != PERIODIC:
        raise ValueError("plate grid must be (line, torus)")
    a0 = torus_average(TensorFieldSpace(axes2, 0), {1}).pi.entries
    a1 = torus_average(TensorFieldSpace(axes2, 1), {1}).pi.entries  # keeps component 0
    # moment block: symmetric comps (00, 01, 11) on the plate; keep (00)
    maps = {"eta": a0, "zeta": a1, "s": a1, "T": sp.kron([[1.0, 0.0, 0.0]], a0, format="csr")}
    ent = sp.block_diag([maps[label] for label, _ in plate.blocks], format="csr")
    return ProjectionPair(MatrixOperator(ent, plate.space, beam.space))


def dimension_reduction_residuals(n_line, n_torus):
    """Plate on (line x torus) with fiber-constant data vs the beam model.

    Returns (state mismatch over 100 CN steps, isometry defect of the
    embedding, operator defect of the averaged plate operator); all sit at
    solver/roundoff level since the fiber-constant subspace is exactly
    invariant.
    """
    line = Axis.interval(n_line)
    plate = catalog.reissner_mindlin((line, Axis.torus(n_torus)))
    beam = catalog.timoshenko((line,))
    pair = beam_reduction_pair(plate, beam)

    rng = np.random.default_rng(11)
    v = rng.standard_normal(beam.dim)
    emb = pair.embedding.apply(v)
    iso = abs(np.sqrt(np.sum(plate.space.weight * emb * emb))
              - np.sqrt(np.sum(beam.space.weight * v * v)))

    op_defect = float(np.abs(
        (pair.pi @ plate.a @ pair.embedding).to_dense() - beam.a.to_dense()
    ).max())

    u0_beam = rng.standard_normal(beam.dim)
    cfg = SolverConfig(tau=0.01, t_end=1.0, scheme=CRANK_NICOLSON)
    traj_beam = solve(beam.problem(initial=u0_beam), cfg)
    traj_plate = solve(plate.problem(initial=pair.embedding.apply(u0_beam)), cfg)
    mapped = traj_plate.states @ pair.pi.to_dense().T
    return _relative(mapped - traj_beam.states, traj_beam.states), float(iso), op_defect


def polar_residual(G):
    """Max entry of G - U |G| for the polar factors of G."""
    U, absG = catalog.polar_decompose(G)
    return float(np.abs(G.to_dense() - (U @ absG).to_dense()).max())


def wave_relative_residuals(axes, epsilon):
    """Residuals of the square-root translation of [[0, Lap - eps], [1, 0]].

    (i)   diag(1, S) [[0, Lap-eps], [1, 0]] diag(1, S^-1) = [[0, -S], [S, 0]]
          with S = sqrt(-Lap + eps) ("conjugation");
    (ii)  the complex factors U+- = (|grad0| +- i sqrt(eps)) S^-1 are
          unitary ("unitarity") with adjoint(U+-) = U-+ ("adjoint_swap");
          S is an isometry from the shifted-energy inner product
          ("s_isometry");
    (iii) the chain T_l . T_r carries [[0, Lap], [1, 0]] to the acoustic
          operator plus the displayed extra term of the transformed law,
          and the shifted system of (i) to the acoustic-plus-chiral
          operator ("material_transform").
    Returns a dict of the five residuals.
    """
    axes = tuple(axes)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if any(a.bc != DIRICHLET for a in axes):
        raise ValueError("the wave translation uses the Dirichlet gradient")
    G = build_nabla(TensorFieldSpace(axes, 0))
    Uop, absG = catalog.polar_decompose(G)
    np_ = G.domain.dim
    lap = -(G.adjoint() @ G).to_dense()          # Dirichlet Laplacian (negative definite)
    vals, Q = np.linalg.eigh(0.5 * (lap + lap.T))
    S = Q @ np.diag(np.sqrt(-vals + epsilon)) @ Q.T
    S = 0.5 * (S + S.T)
    Sinv = Q @ np.diag(1.0 / np.sqrt(-vals + epsilon)) @ Q.T
    Sinv = 0.5 * (Sinv + Sinv.T)
    Id = np.eye(np_)
    Z = np.zeros((np_, np_))

    # (i)
    sys_mat = np.block([[Z, lap - epsilon * Id], [Id, Z]])
    left = np.block([[Id, Z], [Z, S]])
    right = np.block([[Id, Z], [Z, Sinv]])
    target = np.block([[Z, -S], [S, Z]])
    conj_res = _relative(left @ sys_mat @ right - target, target)

    # (ii) U+- = (|grad0| +- i sqrt(eps)) S^-1; every point has one weight,
    # so the adjoint is the conjugate transpose
    sq_eps = np.sqrt(epsilon)
    abs_d = absG.to_dense()
    u_plus = (abs_d + 1j * sq_eps * Id) @ Sinv
    u_minus = (abs_d - 1j * sq_eps * Id) @ Sinv
    unit_res = max(np.abs(u @ u.conj().T - Id).max() for u in (u_plus, u_minus))
    swap_res = np.abs(u_plus.conj().T - u_minus).max()

    h1_gram = abs_d @ abs_d + epsilon * Id
    s_iso_res = _relative(S.T @ S - h1_gram, h1_gram)

    # (iii) the chain carries [[0, Lap], [1, 0]] to the acoustic operator
    # plus the displayed term `extra` of the transformed law M1 (a law
    # M0, M1 goes to T_l M0 T_r, T_l M1 T_r + extra), and the shifted
    # system of (i) to the acoustic-plus-chiral operator
    u_mat = Uop.to_dense()              # scalar space -> vector space, real
    nvec = u_mat.shape[0]
    grad_d = G.to_dense()
    Zpv, Zvp, Zvv = np.zeros((np_, nvec)), np.zeros((nvec, np_)), np.zeros((nvec, nvec))
    t_left = np.block([[Id, Z], [Zvp, u_mat @ (abs_d + 1j * sq_eps * Id)]])
    t_right = np.block([[Id, Zpv], [Z, Sinv @ (abs_d - 1j * sq_eps * Id) @ Sinv @ u_mat.T]])
    acoustic = np.block([[Z, -grad_d.T], [grad_d, Zvv]])
    chiral = np.block([[Z, 1j * sq_eps * u_mat.T], [1j * sq_eps * u_mat, Zvv]])
    extra = np.block([
        [Z, epsilon * Sinv @ (abs_d - 1j * sq_eps * Id) @ Sinv @ u_mat.T + 1j * sq_eps * u_mat.T],
        [1j * sq_eps * u_mat, Zvv],
    ])
    sys0 = np.block([[Z, lap], [Id, Z]])
    material_res = max(np.abs(t_left @ sys0 @ t_right - (acoustic + extra)).max(),
                       np.abs(t_left @ sys_mat @ t_right - (acoustic + chiral)).max()
                       ) / np.abs(acoustic).max()

    return {
        "conjugation": float(conj_res),
        "unitarity": float(unit_res),
        "adjoint_swap": float(swap_res),
        "s_isometry": float(s_iso_res),
        "material_transform": float(material_res),
    }


# ---------------------------------------------------------------------------
# provenance: every entry against an independent reference
#
# Every space on one grid carries the uniform volume weight, so the adjoint
# of a block is its transpose and [[0, -L^T], [L, 0]] is the block-skew
# pair of L.  References are dense or sparse; they are compared as CSR.


def _skew_pair(lower):
    """[[0, -L^T], [L, 0]] for a block L."""
    return sp.bmat([[None, -lower.T], [lower, None]], format="csr")


def _gradient_pair(axes):
    """[[0, div], [grad0, 0]] descended from the stack operator's rank-{0, 1}
    block: the catalog builds it at its own rank, without the stack."""
    stack = TensorStack(tuple(axes), 1)
    return descend(build_stack_skew(stack), rank_block(stack, {0}, {1}))


def _grad_sym(axes):
    """The hand stencil Grad v = (D_i v_j + D_j v_i) / 2 from the vectors into the
    orthonormal symmetric coordinates (off-diagonal pairs carry 1/sqrt 2)."""
    n = len(axes)
    P = catalog._partials(axes)
    inv_s2 = 1.0 / SQRT2
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [None] * n
            if i == j:
                row[i] = P[i]
            else:
                row[j] = inv_s2 * P[i]
                row[i] = inv_s2 * P[j]
            rows.append(row)
    return sp.bmat(rows, format="csr")


def _flux_stress_pair(axes):
    """The gradient and hand-stencil Grad pairs, each conjugated by diag(1, -1)
    (which negates a block-skew pair), stacked."""
    return -sp.block_diag([_gradient_pair(axes).entries, _skew_pair(_grad_sym(axes))],
                          format="csr")


def _biharmonic_pair(axes):
    """The block-skew pair of (symmetrized gradient) @ (gradient), from the stencils."""
    return _skew_pair(_grad_sym(axes) @ sp.vstack(catalog._partials(axes)))


def _square_root_pair(entry):
    """The gradient pair compressed by the polar co-isometry: [[0, -G* U], [U* G, 0]]."""
    G = build_nabla(TensorFieldSpace(entry.grid, 0))
    return _skew_pair((catalog.polar_decompose(G)[0].adjoint() @ G).entries)


def _recombined_transport(entry):
    """The two rows of the even/odd descendant recombined on the full line."""
    pe, po, a, _ = _even_odd_split(entry)
    m = a.to_dense()
    half = entry.dim // 2
    return (pe.embedding.to_dense() @ m[:half, half:] @ po.pi.to_dense()
            + po.embedding.to_dense() @ m[half:, :half] @ pe.pi.to_dense())


def _alt3_pair(space3: TensorFieldSpace) -> ProjectionPair:
    """Orthonormal coordinate of the alternating rank-3 subspace in 3-d."""
    if space3.rank != 3 or space3.ndim != 3:
        raise ValueError("alternating rank-3 coordinates need rank 3 in 3-d")
    inv_s6 = 1.0 / np.sqrt(6.0)
    row = np.zeros((1, space3.ncomp))
    for perm in permutations((0, 1, 2)):
        inversions = sum(perm[x] > perm[y] for x, y in combinations(range(3), 2))
        row[0, space3.component_index(perm)] = (-1.0) ** inversions * inv_s6
    return pointwise_pair(space3, row, "alt3")


def _ext_from_stack(axes):
    """The extended-Maxwell operator (M0 = I) derived from the rank-3 stack.

    Three descendant chains feed the 8-component layout f3, f1, f0, f2:
    the rank-{0,1} block (grad0/div pair), the antisymmetrized rank-{1,2}
    block rescaled by sqrt(2) onto vector proxies (curl pair), and the
    alternating rank-{2,3} block rescaled by sqrt(3) onto scalar/vector
    proxies (div0/grad pair, placed with its two blocks swapped).
    """
    axes = tuple(axes)
    np_ = point_count(axes)
    stack = TensorStack(axes, 3)
    A = build_stack_skew(stack)
    r = [TensorFieldSpace(axes, k) for k in range(4)]

    # chain 1: ranks {0},{1} -> [[0, div],[grad0, 0]] on (f0, f1)
    a01 = descend(A, rank_block(stack, {0}, {1})).entries

    # chain 2: ranks {1},{2}, antisymmetrize, pair components, rescale sqrt(2)
    a12 = descend(descend(A, rank_block(stack, {1}, {2})),
                  direct_sum_pairs([identity_pair(r[1].tag), asym_projection(r[2])])).entries
    perm = sp.kron(_asym_perm(), sp.identity(np_), format="csr")
    curl0 = SQRT2 * perm @ a12[3 * np_:, :3 * np_]  # asym coords <- f1

    # chain 3: ranks {2},{3}, alternating coordinates, rescale sqrt(3), swap
    a23 = descend(descend(A, rank_block(stack, {2}, {3})),
                  direct_sum_pairs([asym_projection(r[2]), _alt3_pair(r[3])])).entries
    div0 = np.sqrt(3.0) * a23[3 * np_:, :3 * np_] @ perm  # alt3 coord <- asym coords

    return sp.bmat([[None, None, None, div0],
                    [None, None, a01[np_:, :np_], -curl0.T],
                    [None, a01[:np_, np_:], None, None],
                    [-div0.T, curl0, None, None]], format="csr")


def _reduced_extended(axes):
    """The stack-derived extended operator without the second scalar (f0) rows and columns."""
    np_ = point_count(axes)
    keep = np.r_[0:4 * np_, 5 * np_:8 * np_]  # f3 and f1, then f2
    return _ext_from_stack(axes)[keep][:, keep]


def _relabeled_dirac(axes):
    """U* (extended Maxwell with skew stencils + chiral term) U."""
    U = _dirac_relabeling(axes)
    return U.T @ _dirac_target(axes) @ U


# entry name -> reference operator for an entry built with the registry's
# operator-shaping defaults (extended Maxwell: M0 = I, forward stencils);
# the law's parameters do not enter any operator
PROVENANCE_REFERENCES = {
    "acoustics": lambda e: _gradient_pair(e.grid).entries,
    "heat": lambda e: _gradient_pair(e.grid).entries,
    "elasticity": lambda e: _skew_pair(_grad_sym(e.grid)),
    "maxwell": lambda e: _skew_pair(_stencil_curl(e.grid)),
    "extended_maxwell": lambda e: _ext_from_stack(e.grid),
    "reduced_extended_maxwell": lambda e: _reduced_extended(e.grid),
    "dirac": lambda e: _relabeled_dirac(e.grid),
    "relativistic_schrodinger": _square_root_pair,
    "transport": _recombined_transport,
    "thermo_elasticity": lambda e: _flux_stress_pair(e.grid),
    "reissner_mindlin": lambda e: _flux_stress_pair(e.grid),
    "timoshenko": lambda e: _flux_stress_pair(e.grid),
    "kirchhoff_love": lambda e: _biharmonic_pair(e.grid),
    "euler_bernoulli": lambda e: _biharmonic_pair(e.grid),
}


def provenance_residual(entry):
    """Max-entry mismatch of the entry's operator and its reference, relative to
    the operator's largest entry; inf when their shapes differ."""
    ref = sp.csr_matrix(PROVENANCE_REFERENCES[entry.name](entry))
    if ref.shape != entry.a.shape:
        return np.inf
    return _relative(entry.a.entries - ref, entry.a.entries)


# ---------------------------------------------------------------------------
# the checks


def check_adjointness():
    """<nabla u, v> + <u, div v> = 0 over random fields, grids and ranks."""
    grids = [
        (Axis.interval(8),),
        (Axis.interval(5), Axis.torus(4)),
        (Axis.torus(4), Axis.torus(4), Axis.interval(4)),
    ]
    worst, count = adjointness_residual(grids, np.random.default_rng(2024))
    return _result("adjointness", worst, 1e-12, f"{count} random field pairs")


def check_skewness():
    """The stack operator and every catalog entry are skew-selfadjoint, and
    every entry matches its independent reference (`provenance_residual`).

    Each defect |A + A*| / |A| is taken on a fresh copy of A's entries, which
    carries no attached adjoint, so A* is its weighted transpose computed
    here, not the negation a builder attached."""
    def defect(a):
        return _relative(skew_defect(MatrixOperator(a.entries, a.domain, a.codomain)), a.entries)

    axes = (Axis.torus(4), Axis.interval(4), Axis.torus(4))
    worst = defect(build_stack_skew(TensorStack(axes, 3)))
    provenance = 0.0
    entries = catalog.all_entries()
    for entry in entries:
        worst = max(worst, defect(entry.a))
        provenance = max(provenance, provenance_residual(entry))
    return _result("skewness", worst, 1e-12,
                   f"stack + {len(entries)} catalog entries, "
                   f"provenance {provenance:.2e} (tol 1e-12)",
                   side_ok=provenance <= 1e-12)


def check_compatibility_theorem():
    """(C B*)* = B C* for 50 random pairs with random weights."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        d0, d1, dx = rng.integers(1, 9, size=3)
        t0 = SpaceTag("h0", d0, rng.uniform(0.3, 3.0, d0))
        t1 = SpaceTag("h1", d1, rng.uniform(0.3, 3.0, d1))
        tx = SpaceTag("x", dx, rng.uniform(0.3, 3.0, dx))
        C = MatrixOperator(rng.standard_normal((d1, d0)), t0, t1)
        B = MatrixOperator(rng.standard_normal((dx, d0)), t0, tx)
        lhs = (C @ B.adjoint()).adjoint()
        rhs = B @ C.adjoint()
        worst = max(worst, _relative((lhs - rhs).entries, rhs.entries))
    return _result("compatibility_theorem", worst, 1e-12, "50 random (C, B) pairs")


def _random_partial_isometry(rng, tag_from, dim_to, name):
    """pi = Q^T S^(1/2) onto dim_to unit-weight coordinates, Q's columns
    orthonormal from a QR: pi pi* = Q^T Q = I by construction."""
    m = rng.standard_normal((tag_from.dim, tag_from.dim))
    q, _ = np.linalg.qr(m)
    sw = np.sqrt(tag_from.weight)
    ent = q[:, :dim_to].T * sw[None, :]
    return ProjectionPair(MatrixOperator(ent, tag_from, SpaceTag(name, dim_to)), validate=False)


def _dense_adjoint(T):
    """W_dom^-1 T^T W_cod in numpy, from T's dense entries and its tags' weights."""
    return T.to_dense().T * T.codomain.weight[None, :] / T.domain.weight[:, None]


def check_relative_construction():
    """The descent by B0 (+) B1 is the (B0, B1)-relative of [[0, -C*], [C, 0]].

    On 50 random pairs of weighted partial isometries (every third pair
    unitary), descend(A, B0 (+) B1) must be skew and equal the relative
    [[0, -B0 C* B1*], [B1 C B0*, 0]], assembled in numpy from dense
    weighted adjoints.
    """
    rng = np.random.default_rng(11)
    worst = 0.0
    for k in range(50):
        d0, d1 = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        t0 = SpaceTag("h0", d0, rng.uniform(0.5, 2.0, d0))
        t1 = SpaceTag("h1", d1, rng.uniform(0.5, 2.0, d1))
        C = MatrixOperator(rng.standard_normal((d1, d0)), t0, t1)
        x_dim = d0 if k % 3 == 0 else int(rng.integers(1, d0 + 1))
        y_dim = d1 if k % 3 == 0 else int(rng.integers(1, d1 + 1))
        p0 = _random_partial_isometry(rng, t0, x_dim, "x")
        p1 = _random_partial_isometry(rng, t1, y_dim, "y")
        rel = descend(make_block_skew(C), direct_sum_pairs([p0, p1]))
        b0, b1, c = p0.pi.to_dense(), p1.pi.to_dense(), C.to_dense()
        formula = np.block([
            [np.zeros((x_dim, x_dim)), -b0 @ _dense_adjoint(C) @ _dense_adjoint(p1.pi)],
            [b1 @ c @ _dense_adjoint(p0.pi), np.zeros((y_dim, y_dim))]])
        worst = max(worst, _relative(skew_defect(rel), rel.entries),
                    _relative(rel.to_dense() - formula, rel.entries))
    return _result("relative_construction", worst, 1e-12,
                   "50 random isometry pairs, descend vs the relative formula")


def check_curl_identification():
    res = curl_residual((Axis.torus(4),) * 3)
    return _result("curl_identification", res, 1e-14, "descended vs stencil curl")


def check_annihilation():
    res = annihilation_residual((Axis.torus(4),) * 3)
    return _result("annihilation", res, 1e-12, "two spatial parts, periodic, M0 = I")


def check_dirac_equivalence():
    # the Dirac operator against its relabeled extended-Maxwell reference
    res = provenance_residual(catalog.dirac((Axis.torus(4),) * 3))
    # the spectra agree symbol by symbol (conjugation preserves eigenvalues)
    spec_res = dirac_spectra_residual((Axis.torus(4),) * 3)
    return _result("dirac_equivalence", res, 1e-12,
                   f"conjugation {res:.2e}, spectra {spec_res:.2e} (tol 1e-8)",
                   side_ok=spec_res <= 1e-8)


def check_schur_equivalence():
    """Full solve vs the Schur-reduced solve on kernel-bearing systems.

    Acoustics and heat on the torus both carry the constants in the kernel.
    The full solve runs with no grid, by the sparse LU in physical space,
    so the two computations share no wavenumber step.
    """
    worst = 0.0
    rng = np.random.default_rng(5)
    cfg = SolverConfig(tau=0.01, t_end=2.0, scheme=CRANK_NICOLSON)
    for entry in (catalog.acoustics((Axis.torus(8),)), catalog.heat((Axis.torus(8),))):
        u0 = rng.standard_normal(entry.dim)
        problem = entry.problem(initial=u0)
        full = solve(replace(problem, grid=()), cfg)
        red = solve_reduced(problem, cfg)
        worst = max(worst, _relative(full.states - red.states, full.states))
    return _result("schur_equivalence", worst, 1e-10, "200 steps, two systems")


def check_dimension_reduction():
    mismatch, iso, op_defect = dimension_reduction_residuals(n_line=8, n_torus=4)
    detail = f"solve {mismatch:.2e}, isometry {iso:.2e} (tol 1e-13), operator {op_defect:.2e}"
    return _result("dimension_reduction", mismatch, 1e-10, detail,
                   side_ok=iso <= 1e-13 and op_defect <= 1e-12)


def check_even_odd_transport():
    entry = catalog.transport((Axis.symmetric(16, 0.25),))
    return _result("even_odd_transport", transport_residual(entry), 1e-12,
                   "combined vs split solve")


def check_second_order_forms():
    rm = catalog.reissner_mindlin((Axis.interval(8), Axis.interval(8)), d=0.3)
    res_rm = second_order_residual(rm)
    tb = catalog.timoshenko((Axis.interval(16),), d=0.2)
    res_tb = second_order_residual(tb)
    return _result("second_order_forms", max(res_rm, res_tb), 1e-8,
                   f"plate {res_rm:.2e}, beam {res_tb:.2e}")


def check_polar_decomposition():
    worst = max(polar_residual(build_nabla(TensorFieldSpace((Axis.interval(n),), 0)))
                for n in (8, 16, 32))
    wave_res = max(max(wave_relative_residuals((Axis.interval(12),), eps).values())
                   for eps in (0.25, 1.0))
    return _result("polar_decomposition", max(worst, wave_res), 1e-10,
                   f"polar {worst:.2e}, wave identities {wave_res:.2e}")


def check_energy_conservation():
    """Every run keeps its scheme's discrete energy balance, evolve.dissipation_check:
    undamped and damped CN runs, the damped ones losing energy strictly, and forced
    runs under implicit Euler and, on a torus by the reduced solve, under CN."""
    rng, worst, ok = np.random.default_rng(3), 0.0, True
    cn, short = SolverConfig(tau=0.01, t_end=10.0), SolverConfig(tau=0.01, t_end=1.0)
    line, plate = (Axis.interval(16),), (Axis.interval(6), Axis.interval(6))
    for entry, cfg, runner, kind in [
            (catalog.acoustics(line), cn, solve, "undamped"),
            (catalog.maxwell((Axis.torus(3),) * 3), cn, solve, "undamped"),
            (catalog.reissner_mindlin(plate), cn, solve, "undamped"),
            (catalog.acoustics(line, sigma=0.5), cn, solve, "damped"),
            (catalog.reissner_mindlin(plate, d=0.5), SolverConfig(tau=0.02, t_end=2.0), solve,
             "damped"),
            (catalog.timoshenko(line, d=0.2), replace(short, scheme=IMPLICIT_EULER), solve,
             "forced"),
            (catalog.acoustics((Axis.torus(8),), sigma=0.5), short, solve_reduced, "forced")]:
        u0, *v = rng.standard_normal((2 if kind == "forced" else 1, entry.dim))  # v: F's profile
        problem = entry.problem(u0, (lambda t: np.sin(3.0 * t) * v[0]) if v else None)
        traj = runner(problem, cfg)
        rep = dissipation_check(traj, entry.law, problem.forcing, cfg.scheme)
        worst = max(worst, rep.max_residual)
        ok &= rep.holds and (kind != "damped" or bool(np.all(np.diff(traj.energies) < 0)))
    return _result("energy_conservation", worst, DISSIPATION_TOL, "balance of 3 undamped CN, "
                   "2 damped strictly decreasing, forced IE, forced reduced CN torus", side_ok=ok)


def causality_check(problem: EvolutionaryProblem, config: SolverConfig, t0: float) -> bool:
    """States must vanish identically strictly before t0.

    Requires zero initial data and a forcing that vanishes for t < t0;
    one-step implicit schemes then produce exact zeros before onset.  The
    rows before t0 are reduced by ndarray.any in numpy's buffered chunks, so
    no temporary the size of the trajectory is made.
    """
    if np.any(problem.initial != 0.0):
        raise ValueError("causality check requires zero initial data")
    traj = solve(problem, config)
    before = int(np.count_nonzero(traj.times < t0))  # the times increase: the first rows
    return not traj.states[:before].any()


def check_causality():
    """Every entry stays exactly zero before a forcing switches on; the residual
    counts the entries that do not, and the detail names them."""
    late, cfg = [], SolverConfig(tau=0.05, t_end=1.0, scheme=CRANK_NICOLSON)
    for entry in catalog.all_entries(max_points=3):
        pulse = np.zeros(entry.dim)
        pulse[entry.block_slices()[entry.blocks[0][0]]] = 1.0

        def forcing(t, pulse=pulse):
            return pulse if t >= 0.5 else np.zeros_like(pulse)

        if not causality_check(entry.problem(forcing=forcing), cfg, t0=0.5):
            late.append(entry.name)
    return _result("causality", len(late), 1e-13, f"{len(late)} entries not causal: "
                   + ", ".join(late) if late else "all entries, onset at t = 0.5")


def check_wellposedness_gate():
    rep = check_wellposed(catalog.heat((Axis.interval(8),)).law)
    # the degenerate pair must fail through the kernel block
    tag = SpaceTag("toy", 2)
    bad = check_wellposed(MaterialLaw(m0=MatrixOperator(np.diag([1.0, 0.0]), tag, tag),
                                      m1=MatrixOperator(np.zeros((2, 2)), tag, tag)))
    ok = rep.passed and not bad.kernel_block_positive
    return _result("wellposedness_gate", 0.0 if ok else 1.0, 0.5,
                   f"heat passes (nu* = {rep.nu_threshold:.3f}); degenerate law fails")


CHECKS = [
    check_adjointness,
    check_skewness,
    check_compatibility_theorem,
    check_relative_construction,
    check_curl_identification,
    check_annihilation,
    check_dirac_equivalence,
    check_schur_equivalence,
    check_dimension_reduction,
    check_even_odd_transport,
    check_second_order_forms,
    check_polar_decomposition,
    check_energy_conservation,
    check_causality,
    check_wellposedness_gate,
]


def run_checks(name_filter=None):
    results = []
    for fn in CHECKS:
        name = fn.__name__.removeprefix("check_")
        if name_filter and name_filter not in name:
            continue
        results.append(fn())
    return results
