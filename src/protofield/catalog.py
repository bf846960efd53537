"""Named field systems projected out of the rank-stack operator.

Every entry couples a skew-selfadjoint spatial operator with a material
law.  The spatial operator is never invented per system: each one is
reproduced from the single rank-stack operator [[0, -nabla*], [nabla, 0]]
by a recorded chain of projections and unitary/scale relabelings, and
`provenance_defect` re-derives it from scratch and measures the mismatch.

Systems provided: acoustics, heat conduction, linear elasticity, Maxwell,
the extended scalar/vector Maxwell system and its reduced variant, the
Dirac system (free space), the square-root wave system, transport on a
symmetric line, thermo-elasticity (formally Biot's porous-media model),
Reissner-Mindlin plates, Kirchhoff-Love plates, Timoshenko and
Euler-Bernoulli beams.  The structural identities tying them together
are checked in `verify`, which reads the shared pieces (the curl block,
the Dirac relabeling) from here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
import scipy.sparse as sp

from .linops import MatrixOperator, SpaceTag, block_diag, identity, make_block_skew, zero
from .flatgrid import (
    Axis,
    DIRICHLET,
    PERIODIC,
    GridBlockSpace,
    TensorFieldSpace,
    TensorStack,
    build_d1,
    build_nabla,
    build_stack_skew,
    point_derivative,
)
from .subspaces import (
    ProjectionPair,
    asym_projection,
    descend,
    direct_sum_pairs,
    even_odd,
    identity_pair,
    rank_block,
    realify_complex,
    sym_projection,
    torus_average,
)
from .matlaw import MaterialLaw, couple
from .evolve import EvolutionaryProblem

SQRT2 = float(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# small assembly helpers


def _coeff(value, size):
    """CSR coefficient block from a scalar, per-entry diagonal, or full matrix."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return float(arr) * sp.identity(size, format="csr")
    if arr.ndim == 1:
        if arr.shape[0] != size:
            raise ValueError(f"diagonal coefficient length {arr.shape[0]} != {size}")
        return sp.diags(arr, format="csr")
    if arr.shape != (size, size):
        raise ValueError(f"coefficient shape {arr.shape} != ({size}, {size})")
    return sp.csr_matrix(0.5 * (arr + arr.T))


def _check_coeff(name, mat, strict=True):
    vals = np.linalg.eigvalsh(mat.toarray())
    floor = 1e-12 * max(np.abs(vals).max(), 1.0)
    if strict and vals.min() <= floor:
        raise ValueError(f"{name} must be symmetric positive definite")
    if not strict and vals.min() < -floor:
        raise ValueError(f"{name} must be symmetric positive semidefinite")
    return mat


def _inv_coeff(value, size, name="coefficient"):
    arr = _check_coeff(name, _coeff(value, size))
    inv = np.linalg.inv(arr.toarray())
    return sp.csr_matrix(0.5 * (inv + inv.T))


def _block_matrix(sizes, entries, col_sizes=None):
    """CSR block matrix from {(i, j): block}; absent blocks are zero.

    Blocks may be dense or sparse.  col_sizes defaults to sizes (square).
    """
    col_sizes = sizes if col_sizes is None else col_sizes
    return sp.bmat([[entries.get((i, j), sp.csr_matrix((r, c)))
                     for j, c in enumerate(col_sizes)]
                    for i, r in enumerate(sizes)], format="csr")


def _partials(axes):
    """Dense forward-difference partial matrices on the flat point index."""
    return [np.asarray(point_derivative(axes, d).todense()) for d in range(len(axes))]


def _skew_partials(axes):
    """Centered (skew) partials: the average of the stencil and its pair."""
    return [0.5 * (P - P.T) for P in _partials(axes)]


def _curl_block(P):
    """The curl [[0, -P3, P2], [P3, 0, -P1], [-P2, P1, 0]] from three partials."""
    Z = np.zeros_like(P[0])
    return np.block([[Z, -P[2], P[1]], [P[2], Z, -P[0]], [-P[1], P[0], Z]])


def _npts(axes):
    return int(np.prod([a.n for a in axes]))


# ---------------------------------------------------------------------------
# catalog entries


@dataclass(frozen=True)
class CatalogEntry:
    """A named system: spatial operator, law, labeled state blocks, provenance."""

    name: str
    grid: tuple
    law: MaterialLaw
    a: MatrixOperator
    blocks: tuple
    provenance: tuple
    reconstruct: object = None  # callable () -> np.ndarray rebuilding a from the stack
    classical_form: object = None
    extras: dict = field(default_factory=dict)

    @property
    def space(self):
        return self.law.space

    @property
    def dim(self):
        return self.space.dim

    def block_slices(self):
        out, pos = {}, 0
        for label, size in self.blocks:
            out[label] = slice(pos, pos + size)
            pos += size
        return out

    def problem(self, initial=None, forcing=None) -> EvolutionaryProblem:
        if initial is None:
            initial = np.zeros(self.dim)
        return EvolutionaryProblem(law=self.law, a=self.a, initial=initial,
                                   forcing=forcing)

    def provenance_defect(self) -> float:
        """Max-entry mismatch between A and its re-derivation from the stack."""
        if self.reconstruct is None:
            return float("nan")
        rebuilt = self.reconstruct()
        rebuilt = rebuilt.to_dense() if isinstance(rebuilt, MatrixOperator) else rebuilt
        return float(np.abs(self.a.to_dense() - rebuilt).max())


def _negate_second(pair_dim0, a: MatrixOperator) -> MatrixOperator:
    """Conjugate a 2-block operator by diag(1, -1) (a unitary relative)."""
    d = np.ones(a.domain.dim)
    d[pair_dim0:] = -1.0
    dm = MatrixOperator(sp.diags(d), a.domain, a.domain)
    return dm @ a @ dm


def _acoustic_block(axes, negate=False):
    """[[0, div], [grad0, 0]] on L2_0 (+) L2_1, optionally diag(1,-1)-negated."""
    stack = TensorStack(tuple(axes), 1)
    A = build_stack_skew(stack).as_matrix()
    pv = rank_block(stack, {0}, {1})
    out = descend(A, pv)
    if negate:
        out = _negate_second(TensorFieldSpace(tuple(axes), 0).dim, out)
    return out


def _elastic_block(axes, negate=False):
    """[[0, Div], [Grad0, 0]] on L2_1 (+) sym[L2_2], optionally negated."""
    stack = TensorStack(tuple(axes), 2)
    A = build_stack_skew(stack).as_matrix()
    first = descend(A, rank_block(stack, {1}, {2}))
    r1 = TensorFieldSpace(tuple(axes), 1)
    r2 = TensorFieldSpace(tuple(axes), 2)
    pv = direct_sum_pairs([identity_pair(r1.tag), sym_projection(r2)])
    out = descend(first, pv)
    if negate:
        out = _negate_second(r1.dim, out)
    return out


def acoustics(axes, rho=1.0, kappa=1.0, sigma=0.0) -> CatalogEntry:
    """First-order pressure/flux system; with kappa=0 it becomes heat conduction.

    Spatial part [[0, div], [grad0, 0]], law M0 = diag(rho, kappa),
    M1 = diag(0, sigma).  sigma > 0 damps (or, read thermally, adds the
    flux law of heat conduction).
    """
    axes = tuple(axes)
    np_ = _npts(axes)
    nvec = np_ * len(axes)
    a = _acoustic_block(axes)
    space = a.domain
    m0 = _block_matrix([np_, nvec], {
        (0, 0): _check_coeff("rho", _coeff(rho, np_)),
        (1, 1): _check_coeff("kappa", _coeff(kappa, nvec), strict=False),
    })
    m1 = _block_matrix([np_, nvec], {
        (1, 1): _check_coeff("sigma", _coeff(sigma, nvec), strict=False),
    })
    mlaw = MaterialLaw(m0=MatrixOperator(m0, space, space),
                       m1=MatrixOperator(m1, space, space))
    classical = make_block_skew(build_nabla(TensorFieldSpace(axes, 0))).as_matrix()
    return CatalogEntry(
        name="acoustics",
        grid=axes,
        law=mlaw,
        a=a,
        blocks=(("p", np_), ("v", nvec)),
        provenance=("select the rank-0 and rank-1 blocks of the stack operator",),
        reconstruct=lambda: _acoustic_block(axes),
        classical_form=classical,
        extras={"params": {"rho": rho, "kappa": kappa, "sigma": sigma}},
    )


def heat(axes, rho=1.0, sigma=1.0) -> CatalogEntry:
    """Heat conduction: the acoustic descendant with kappa = 0.

    M0 = diag(rho, 0) is singular; well-posedness is carried by the strict
    positivity of sigma on the kernel block (the flux law).
    """
    entry = acoustics(axes, rho=rho, kappa=0.0, sigma=sigma)
    return CatalogEntry(
        name="heat",
        grid=entry.grid,
        law=entry.law,
        a=entry.a,
        blocks=entry.blocks,
        provenance=entry.provenance,
        reconstruct=entry.reconstruct,
        classical_form=entry.classical_form,
        extras={"params": {"rho": rho, "sigma": sigma}},
    )


def elasticity(axes, rho=1.0, compliance=1.0, law=None) -> CatalogEntry:
    """Velocity/stress system on L2_1 (+) sym[L2_2].

    The stress block uses the orthonormal symmetric coordinates (off-diagonal
    pairs carry a 1/sqrt(2) factor); the assembled Grad block therefore equals
    the hand stencil (D_i v_j + D_j v_i)/2 written in those coordinates.
    """
    axes = tuple(axes)
    if not 2 <= len(axes) <= 3:
        raise ValueError("elasticity needs a 2-d or 3-d grid")
    a = _elastic_block(axes)
    space = a.domain
    np_ = _npts(axes)
    nvec = np_ * len(axes)
    nsym = np_ * (len(axes) * (len(axes) + 1) // 2)
    if law is None:
        m0 = _block_matrix([nvec, nsym],
                           {(0, 0): _coeff(rho, nvec), (1, 1): _coeff(compliance, nsym)})
        law = MaterialLaw(m0=MatrixOperator(m0, space, space), m1=zero(space, space))
    classical = MatrixOperator(_grad_sym_stencil(axes), space, space)
    return CatalogEntry(
        name="elasticity",
        grid=axes,
        law=law,
        a=a,
        blocks=(("v", nvec), ("T", nsym)),
        provenance=(
            "select the rank-1 and rank-2 blocks of the stack operator",
            "symmetrize the rank-2 block",
        ),
        reconstruct=lambda: _elastic_block(axes),
        classical_form=classical,
        extras={"params": {"rho": rho, "compliance": compliance}},
    )


def _grad_sym_stencil(axes):
    """Hand-assembled [[0, Div], [Grad, 0]] in the symmetric coordinates."""
    n = len(axes)
    np_ = _npts(axes)
    P = _partials(axes)
    inv_s2 = 1.0 / SQRT2
    rows = []
    for i in range(n):
        for j in range(i, n):
            row = [np.zeros((np_, np_)) for _ in range(n)]
            if i == j:
                row[i] = P[i]
            else:
                row[j] = inv_s2 * P[i]
                row[i] = inv_s2 * P[j]
            rows.append(np.hstack(row))
    grad_blk = np.vstack(rows)
    nvec, nsym = np_ * n, grad_blk.shape[0]
    return _block_matrix([nvec, nsym], {(0, 1): -grad_blk.T, (1, 0): grad_blk})


def _asym_perm():
    """Hodge pairing between the antisymmetric coordinates and vector proxies.

    (c01, c02, c12) <-> (w2, -w1, w0): an orthogonal involution.
    """
    return np.array([[0.0, 0.0, 1.0], [0.0, -1.0, 0.0], [1.0, 0.0, 0.0]])


def maxwell(axes, permittivity=1.0, permeability=1.0, conductivity=0.0,
            law=None) -> CatalogEntry:
    """Electric/magnetic system on L2_1 (+) asym[L2_2].

    Kept in the orthonormal antisymmetric coordinates of the magnetic
    block; verify.check_curl_identification exhibits the curl hidden in them
    (component permutation and a 1/sqrt(2) normalization).
    """
    axes = tuple(axes)
    if len(axes) != 3:
        raise ValueError("the Maxwell descendant needs a 3-d grid")
    stack = TensorStack(axes, 2)
    A = build_stack_skew(stack).as_matrix()
    first = descend(A, rank_block(stack, {1}, {2}))
    r1 = TensorFieldSpace(axes, 1)
    r2 = TensorFieldSpace(axes, 2)
    pv = direct_sum_pairs([identity_pair(r1.tag), asym_projection(r2)])
    a = descend(first, pv)
    space = a.domain
    np_ = _npts(axes)
    if law is None:
        m0 = _block_matrix([3 * np_, 3 * np_],
                           {(0, 0): _coeff(permittivity, 3 * np_),
                            (1, 1): _coeff(permeability, 3 * np_)})
        m1 = _block_matrix([3 * np_, 3 * np_], {(0, 0): _coeff(conductivity, 3 * np_)})
        law = MaterialLaw(m0=MatrixOperator(m0, space, space),
                          m1=MatrixOperator(m1, space, space))

    def rebuild():
        stack2 = TensorStack(axes, 2)
        A2 = build_stack_skew(stack2).as_matrix()
        f2 = descend(A2, rank_block(stack2, {1}, {2}))
        pv2 = direct_sum_pairs([identity_pair(r1.tag), asym_projection(r2)])
        return descend(f2, pv2)

    return CatalogEntry(
        name="maxwell",
        grid=axes,
        law=law,
        a=a,
        blocks=(("E", 3 * np_), ("w", 3 * np_)),
        provenance=(
            "select the rank-1 and rank-2 blocks of the stack operator",
            "antisymmetrize the rank-2 block",
        ),
        reconstruct=rebuild,
        extras={"params": {"permittivity": permittivity,
                           "permeability": permeability,
                           "conductivity": conductivity}},
    )


# ---------------------------------------------------------------------------
# extended Maxwell family


EXT_LABELS = ("f3", "f1", "f0", "f2")  # scalar, vector, scalar, vector


def _ext_space(axes, name="extfield"):
    labels = []
    for lab, k in zip(EXT_LABELS, (1, 3, 1, 3)):
        labels.extend([f"{lab}{i}" if k > 1 else lab for i in range(k)])
    return GridBlockSpace(tuple(axes), tuple(labels), name)


def _ext_sizes(axes):
    np_ = _npts(axes)
    return [np_, 3 * np_, np_, 3 * np_]


def _ext_parts_raw(axes, skew_stencils=False):
    """The two spatial parts of the extended system (scalar/vector proxies).

    Curl part: rows f1 <- -curl f2, f2 <- curl0 f1.  Grad/div part: rows
    f3 <- div0 f2, f1 <- grad0 f0, f0 <- div f1, f2 <- grad f3.  With
    skew_stencils=True the forward/adjoint pairs are averaged into centered
    (skew) partials, the free-space discretization used by the Dirac
    equivalence.
    """
    if len(axes) != 3:
        raise ValueError("the extended system needs a 3-d grid")
    P = _skew_partials(axes) if skew_stencils else _partials(axes)
    grad0 = np.vstack(P)
    div_adj = -grad0.T
    div0 = np.hstack(P)
    grad_adj = -div0.T
    curl0 = _curl_block(P)
    curl_adj = curl0.T
    sizes = _ext_sizes(axes)
    curl_part = _block_matrix(sizes, {(1, 3): -curl_adj, (3, 1): curl0})
    graddiv_part = _block_matrix(sizes, {(0, 3): div0, (1, 2): grad0,
                                         (2, 1): div_adj, (3, 0): grad_adj})
    return curl_part, graddiv_part


def _sqrt_and_inv(mat):
    vals, q = np.linalg.eigh(0.5 * (mat + mat.T))
    if vals.min() <= 0:
        raise ValueError("material coefficient must be symmetric positive definite")
    s = q @ np.diag(np.sqrt(vals)) @ q.T
    si = q @ np.diag(1.0 / np.sqrt(vals)) @ q.T
    return 0.5 * (s + s.T), 0.5 * (si + si.T)


def extended_maxwell(axes, m0=None, skew_stencils=False) -> CatalogEntry:
    """Scalar/vector extension of Maxwell on the 8-component stack per point.

    The spatial operator is the sum of a curl part (conjugated by the
    inverse square root of the material coefficient) and a grad/div part
    (conjugated by the square root); on a periodic grid the two parts are
    skew-selfadjoint and annihilate each other, which is what allows the
    reduction back to the plain Maxwell rows.
    """
    axes = tuple(axes)
    space = _ext_space(axes)
    curl_part, graddiv_part = _ext_parts_raw(axes, skew_stencils=skew_stencils)
    if m0 is None:
        curl_c, graddiv_c = curl_part, graddiv_part
    else:
        s, si = _sqrt_and_inv(_coeff(m0, space.dim).toarray())
        curl_c = si @ (curl_part @ si)
        graddiv_c = s @ (graddiv_part @ s)
    tag = space.tag
    a = MatrixOperator(curl_c + graddiv_c, tag, tag)
    law = MaterialLaw(m0=identity(tag), m1=zero(tag, tag))
    sizes = _ext_sizes(axes)
    rebuild = None
    if m0 is None and not skew_stencils:
        rebuild = lambda: _ext_reconstruct_from_stack(axes)
    return CatalogEntry(
        name="extended_maxwell",
        grid=axes,
        law=law,
        a=a,
        blocks=tuple(zip(EXT_LABELS, sizes)),
        provenance=(
            "pad the rank-{0,1} descendant into the scalar/vector stack",
            "pad the antisymmetrized rank-{1,2} descendant (component pairing, sqrt-2 rescale)",
            "pad the alternating rank-{2,3} descendant (component pairing, sqrt-3 rescale, block swap)",
            "sum the curl and grad/div parts",
        ),
        reconstruct=rebuild,
        extras={
            "curl_part": MatrixOperator(curl_c, tag, tag),
            "graddiv_part": MatrixOperator(graddiv_c, tag, tag),
        },
    )


def _alt3_pair(space3: TensorFieldSpace) -> ProjectionPair:
    """Orthonormal coordinate of the alternating rank-3 subspace in 3-d."""
    if space3.rank != 3 or space3.ndim != 3:
        raise ValueError("alternating rank-3 coordinates need rank 3 in 3-d")
    np_ = space3.npoints
    red = GridBlockSpace(space3.axes, ("alt012",), "alt3")
    inv_s6 = 1.0 / np.sqrt(6.0)
    pts = np.arange(np_)
    cols, vals = [], []
    for perm in permutations((0, 1, 2)):
        inversions = sum(
            1 for x in range(3) for y in range(x + 1, 3) if perm[x] > perm[y]
        )
        sign = -1.0 if inversions % 2 else 1.0
        cols.append(space3.component_index(perm) * np_ + pts)
        vals.append(np.full(np_, sign * inv_s6))
    ent = sp.csr_matrix((np.concatenate(vals), (np.tile(pts, 6), np.concatenate(cols))),
                        shape=(np_, space3.dim))
    return ProjectionPair(MatrixOperator(ent, space3.tag, red.tag), space=red)


def _ext_reconstruct_from_stack(axes):
    """Re-derive the two extended-Maxwell parts from the rank-3 stack.

    Three descendant chains feed the 8-component layout: the rank-{0,1}
    block (grad0/div pair), the antisymmetrized rank-{1,2} block rescaled
    by sqrt(2) onto vector proxies (curl pair), and the alternating
    rank-{2,3} block rescaled by sqrt(3) onto scalar/vector proxies
    (div0/grad pair, placed with its two blocks swapped).
    """
    axes = tuple(axes)
    np_ = _npts(axes)
    sizes = _ext_sizes(axes)
    offs = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    total = int(offs[-1])
    out = np.zeros((total, total))
    IDX = {lab: i for i, lab in enumerate(EXT_LABELS)}

    def put(row_lab, col_lab, blk):
        i, j = IDX[row_lab], IDX[col_lab]
        out[offs[i]:offs[i + 1], offs[j]:offs[j + 1]] += blk

    stack = TensorStack(axes, 3)
    A = build_stack_skew(stack).as_matrix()
    r = [TensorFieldSpace(axes, k) for k in range(4)]

    # chain 1: ranks {0},{1} -> [[0, div],[grad0, 0]] on (f0, f1)
    a01 = descend(A, rank_block(stack, {0}, {1})).to_dense()
    put("f0", "f1", a01[:np_, np_:])
    put("f1", "f0", a01[np_:, :np_])

    # chain 2: ranks {1},{2}, antisymmetrize, pair components, rescale sqrt(2)
    a12 = descend(descend(A, rank_block(stack, {1}, {2})),
                  direct_sum_pairs([identity_pair(r[1].tag), asym_projection(r[2])]))
    m = a12.to_dense()
    c_lower = m[3 * np_:, : 3 * np_]   # asym coords <- f1
    perm = np.kron(_asym_perm(), np.eye(np_))
    lower = SQRT2 * perm @ c_lower          # = curl0
    put("f2", "f1", lower)
    put("f1", "f2", -lower.T)

    # chain 3: ranks {2},{3}, alternating coordinates, rescale sqrt(3), swap
    a23 = descend(descend(A, rank_block(stack, {2}, {3})),
                  direct_sum_pairs([asym_projection(r[2]), _alt3_pair(r[3])]))
    m = a23.to_dense()
    c_lower = m[3 * np_:, : 3 * np_]   # alt3 coord <- asym coords
    lower = np.sqrt(3.0) * c_lower @ perm   # = div0 on vector proxies
    put("f3", "f2", lower)
    put("f2", "f3", -lower.T)
    return out


def reduced_extended_maxwell(axes, m0=None) -> CatalogEntry:
    """The extended system with the second scalar row and column removed.

    Dropping the f0 block is itself a projection of the extended system;
    skew-selfadjointness survives and the curl rows are untouched.
    """
    parent = extended_maxwell(axes, m0=m0)
    sizes = _ext_sizes(axes)
    np_ = sizes[0]
    keep = np.r_[0:np_ + 3 * np_, 2 * np_ + 3 * np_: parent.dim]
    labels = []
    for lab, k in zip(("f3", "f1", "f2"), (1, 3, 3)):
        labels.extend([f"{lab}{i}" if k > 1 else lab for i in range(k)])
    space = GridBlockSpace(tuple(axes), tuple(labels), "extfield_reduced")
    tag = space.tag
    a = MatrixOperator(parent.a.entries[keep][:, keep], tag, tag)
    law = MaterialLaw(m0=identity(tag), m1=zero(tag, tag))

    def rebuild():
        full = parent.reconstruct() if parent.reconstruct else parent.a.to_dense()
        return full[np.ix_(keep, keep)]

    return CatalogEntry(
        name="reduced_extended_maxwell",
        grid=tuple(axes),
        law=law,
        a=a,
        blocks=(("f3", np_), ("f1", 3 * np_), ("f2", 3 * np_)),
        provenance=parent.provenance + ("drop the second scalar block",),
        reconstruct=rebuild if parent.reconstruct else None,
        extras={"parent": parent, "keep": keep},
    )


# ---------------------------------------------------------------------------
# Dirac


@dataclass(frozen=True)
class PauliSet:
    """The three 2x2 spin matrices, stored realified (4x4 real blocks)."""

    p1: MatrixOperator
    p2: MatrixOperator
    p3: MatrixOperator

    def as_tuple(self):
        return (self.p1, self.p2, self.p3)


def pauli_set() -> PauliSet:
    spin = SpaceTag("spin2", 2)
    mats = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    ops = [realify_complex(m, spin, spin) for m in mats]
    return PauliSet(*ops)


def _dirac_w(axes):
    """The realified first-order block of the Dirac system (mass one).

    Component order (Re psi1, Im psi1, Re psi2, Im psi2); partials are the
    centered (skew) periodic stencils, the free-space discretization.
    """
    P = _skew_partials(axes)
    np_ = _npts(axes)
    Id = np.eye(np_)
    Z = np.zeros((np_, np_))
    P1, P2, P3 = P
    return np.block([
        [Z, -Id - P3, P2, -P1],
        [Id + P3, Z, P1, P2],
        [-P2, -P1, Z, -Id + P3],
        [P1, -P2, Id - P3, Z],
    ])


def _dirac_permutations():
    """The two 4x4 signed permutations of the 8x8 unitary relabeling."""
    u1 = np.array([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]], float)
    u2 = np.array([[0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1], [-1, 0, 0, 0]], float)
    return u1, u2


def _dirac_relabeling(axes):
    """The 8x8-per-point signed permutation U with U D U* = extended Maxwell + chiral."""
    u1, u2 = _dirac_permutations()
    eye = sp.identity(_npts(axes), format="csr")
    return sp.block_diag([sp.kron(u1, eye), sp.kron(u2, eye)], format="csr")


def _chiral_m1(axes):
    """The skew constant zero-order term appearing in the Dirac relabeling.

    Off-diagonal 4x4 blocks of (scalar, vector) shape: [[0, (0,0,s)],
    [(0,0,s)^T, [[0,1,0],[-1,0,0],[0,0,0]]]] with s = -1 above and +1 below
    the diagonal; skew-selfadjoint as a whole (a "chiral" zero-order law).
    """
    np_ = _npts(axes)
    Id = np.eye(np_)
    Z = np.zeros((np_, np_))
    k_mat = np.block([[Z, Id, Z], [-Id, Z, Z], [Z, Z, Z]])

    def kblock(sign):
        top = np.hstack([Z, Z, sign * Id])     # scalar row <- vector columns
        left = np.vstack([Z, Z, sign * Id])    # vector rows <- scalar column
        return np.block([[Z, top], [left, k_mat]])

    dim4 = 4 * np_
    out = np.zeros((2 * dim4, 2 * dim4))
    out[:dim4, dim4:] = kblock(-1.0)
    out[dim4:, :dim4] = kblock(+1.0)
    return out


def dirac(axes) -> CatalogEntry:
    """Free-space Dirac system [[0, -W*], [W, 0]] with mass one.

    Requires a fully periodic grid; the skew stencils make the adjoint of
    each partial its negation, which is what the unitary relabeling onto
    the extended Maxwell system (with a chiral zero-order law) needs.
    """
    axes = tuple(axes)
    if len(axes) != 3 or any(a.bc != PERIODIC for a in axes):
        raise ValueError("the Dirac system needs a fully periodic 3-d grid")
    W = _dirac_w(axes)
    np_ = _npts(axes)
    dim4 = 4 * np_
    labels = [f"psi{i}" for i in range(8)]
    space = GridBlockSpace(axes, tuple(labels), "dirac8")
    tag = space.tag
    a = MatrixOperator(_block_matrix([dim4, dim4], {(0, 1): -W.T, (1, 0): W}), tag, tag)
    law = MaterialLaw(m0=identity(tag), m1=zero(tag, tag))

    def rebuild():
        ext = extended_maxwell(axes, skew_stencils=True)
        U = _dirac_relabeling(axes)
        return U.T @ (ext.a.to_dense() + _chiral_m1(axes)) @ U

    return CatalogEntry(
        name="dirac",
        grid=axes,
        law=law,
        a=a,
        blocks=(("psi_re1", np_), ("psi_im1", np_), ("psi_re2", np_), ("psi_im2", np_),
                ("phi_re1", np_), ("phi_im1", np_), ("phi_re2", np_), ("phi_im2", np_)),
        provenance=(
            "extended scalar/vector system in the skew-stencil (free-space) discretization",
            "add the chiral constant zero-order term",
            "relabel by the 8x8 signed permutation",
        ),
        reconstruct=rebuild,
        extras={"W": W},
    )


# ---------------------------------------------------------------------------
# relativistic square-root systems


def polar_decompose(G: MatrixOperator):
    """Polar factors G = U |G| with |G| = (G*G)^(1/2) and U zero on ker |G|."""
    gram = (G.adjoint() @ G).to_dense()
    w = G.domain.weight
    sw = np.sqrt(w)
    B = 0.5 * (gram + gram.T) if np.all(w == w[0]) else sw[:, None] * gram / sw[None, :]
    B = 0.5 * (B + B.T)
    vals, Q = np.linalg.eigh(B)
    vals = np.clip(vals, 0.0, None)
    V = Q / sw[:, None]
    Vstar = Q.T * sw[None, :]
    cutoff = 1e-12 * max(vals.max(), 1.0)
    roots = np.sqrt(vals)
    inv_roots = np.where(vals > cutoff, 1.0 / np.clip(roots, 1e-300, None), 0.0)
    abs_ent = V @ np.diag(roots) @ Vstar
    abs_ent = 0.5 * (abs_ent + abs_ent.T) if np.all(w == w[0]) else abs_ent
    absG = MatrixOperator(abs_ent, G.domain, G.domain)
    U = MatrixOperator(G.to_dense() @ (V @ np.diag(inv_roots) @ Vstar),
                       G.domain, G.codomain)
    return U, absG


def relativistic_schrodinger(axes) -> CatalogEntry:
    """The square-root system [[0, -|grad0|], [|grad0|, 0]] with unit law.

    A relative of the acoustic descendant through the polar co-isometry of
    the gradient; needs an all-Dirichlet grid so the gradient is injective.
    """
    axes = tuple(axes)
    if any(a.bc != DIRICHLET for a in axes):
        raise ValueError("the square-root system needs an all-Dirichlet grid")
    G = build_nabla(TensorFieldSpace(axes, 0))
    U, absG = polar_decompose(G)
    A = make_block_skew(absG).as_matrix()
    np_ = _npts(axes)
    law = MaterialLaw(m0=identity(A.domain), m1=zero(A.domain, A.domain))

    def rebuild():
        a_ac = _acoustic_block(axes)
        scalar_tag = TensorFieldSpace(axes, 0).tag
        pair = direct_sum_pairs([
            identity_pair(scalar_tag),
            ProjectionPair(U.adjoint(), validate=True),
        ])
        return descend(a_ac, pair)

    return CatalogEntry(
        name="relativistic_schrodinger",
        grid=axes,
        law=law,
        a=A,
        blocks=(("u", np_), ("w", np_)),
        provenance=(
            "select the rank-0 and rank-1 blocks of the stack operator",
            "compress onto the gradient range through the polar co-isometry",
        ),
        reconstruct=rebuild,
        extras={"U": U, "absG": absG, "G": G},
    )


# ---------------------------------------------------------------------------
# transport on a symmetric line


def transport(axes, m00=1.0, m11=1.0, m1_00=0.0, m1_11=0.0, law=None) -> CatalogEntry:
    """Scalar transport on a symmetric line, recombined from even/odd rows.

    The 1-d pressure/flux descendant is split by the even/odd pairs of the
    reflection; because the derivative exchanges parities, the two rows of
    the split system recombine into a single equation on the full line
    whose spatial part is the centered difference.  The recombination
    needs a block-diagonal parent law (blocks m00 on the pressure side,
    m11 on the flux side); the combined law is
    P_even m00 P_even + P_odd m11 P_odd.
    """
    axes = tuple(axes)
    if len(axes) != 1:
        raise ValueError("transport lives on a single axis")
    axis = axes[0]
    if axis.bc != DIRICHLET or axis.n % 2:
        raise ValueError("transport needs a symmetric Dirichlet axis (even point count)")
    np_ = axis.n
    space0 = TensorFieldSpace(axes, 0)
    space1 = TensorFieldSpace(axes, 1)
    if law is not None:
        m = law.m0.to_dense()
        m1full = law.m1.to_dense()
        off = max(np.abs(m[:np_, np_:]).max(), np.abs(m[np_:, :np_]).max(),
                  np.abs(m1full[:np_, np_:]).max(), np.abs(m1full[np_:, :np_]).max())
        if off != 0.0:
            raise ValueError("the recombination step needs a block-diagonal law")
        m00, m11 = m[:np_, :np_], m[np_:, np_:]
        m1_00, m1_11 = m1full[:np_, :np_], m1full[np_:, np_:]
    m00 = _coeff(m00, np_)
    m11 = _coeff(m11, np_)
    m1_00 = _coeff(m1_00, np_)
    m1_11 = _coeff(m1_11, np_)

    pe0, po0 = even_odd(space0)
    pe1, po1 = even_odd(space1)
    a_par = _acoustic_block(axes)

    # 2x2 descendant on even (+) odd
    pv = direct_sum_pairs([pe0, po1])
    a_desc = descend(a_par, pv)
    desc_space = a_desc.domain
    half = np_ // 2
    m0_desc = _block_matrix([half, half], {
        (0, 0): (pe0.pi @ MatrixOperator(m00, space0.tag, space0.tag) @ pe0.embedding).entries,
        (1, 1): (po1.pi @ MatrixOperator(m11, space1.tag, space1.tag) @ po1.embedding).entries,
    })
    m1_desc = _block_matrix([half, half], {
        (0, 0): (pe0.pi @ MatrixOperator(m1_00, space0.tag, space0.tag) @ pe0.embedding).entries,
        (1, 1): (po1.pi @ MatrixOperator(m1_11, space1.tag, space1.tag) @ po1.embedding).entries,
    })
    m0_desc = 0.5 * (m0_desc + m0_desc.T)
    law_desc = MaterialLaw(m0=MatrixOperator(m0_desc, desc_space, desc_space),
                           m1=MatrixOperator(m1_desc, desc_space, desc_space))

    # combined single-row system on the line
    d = build_d1(axis).entries
    a_comb = MatrixOperator(0.5 * (d - d.T), space0.tag, space0.tag)
    pe_proj = pe0.orthogonal_projector().entries
    po_proj = po0.orthogonal_projector().entries
    m0_comb = pe_proj @ m00 @ pe_proj + po_proj @ m11 @ po_proj
    m0_comb = 0.5 * (m0_comb + m0_comb.T)
    m1_comb = pe_proj @ m1_00 @ pe_proj + po_proj @ m1_11 @ po_proj
    law_comb = MaterialLaw(m0=MatrixOperator(m0_comb, space0.tag, space0.tag),
                           m1=MatrixOperator(m1_comb, space0.tag, space0.tag))

    def rebuild():
        emb_e = pe0.embedding.to_dense()
        emb_o = po0.embedding.to_dense()
        m = a_desc.to_dense()
        return (emb_e @ m[:half, half:] @ po0.pi.to_dense()
                + emb_o @ m[half:, :half] @ pe0.pi.to_dense())

    return CatalogEntry(
        name="transport",
        grid=axes,
        law=law_comb,
        a=a_comb,
        blocks=(("u", np_),),
        provenance=(
            "select the rank-0 and rank-1 blocks of the stack operator",
            "split into even and odd parts across the reflection",
            "recombine the two rows on the full line",
        ),
        reconstruct=rebuild,
        extras={
            "descendant_law": law_desc,
            "descendant_a": a_desc,
            "even_pair": pe0,
            "odd_pair": po0,
        },
    )


# ---------------------------------------------------------------------------
# coupled systems: thermo-elasticity, plates, beams


def _trace_embedding(axes, gamma):
    """Coupling block mapping scalars into the diagonal symmetric components."""
    n = len(axes)
    np_ = _npts(axes)
    comps = [(i, j) for i in range(n) for j in range(i, n)]
    arr = np.asarray(gamma, dtype=float)
    if arr.ndim >= 2:
        if arr.shape != (len(comps) * np_, np_):
            raise ValueError(f"coupling block must have shape ({len(comps) * np_}, {np_})")
        return sp.csr_matrix(arr)
    diag = [row for row, (i, j) in enumerate(comps) if i == j]
    rows = np.concatenate([row * np_ + np.arange(np_) for row in diag])
    return sp.csr_matrix((np.full(len(rows), float(arr)), (rows, np.tile(np.arange(np_), n))),
                         shape=(len(comps) * np_, np_))


def thermo_elasticity(axes, nu1=1.0, nu2=1.0, kappa=1.0, cten=1.0,
                      gamma=0.0) -> CatalogEntry:
    """Coupled heat/elasticity system (formally Biot's porous-media model).

    The spatial operator is the block diagonal of the (sign-flipped)
    pressure/flux and velocity/stress descendants; all coupling sits in the
    material law, whose instantaneous part carries the cross blocks
    built from the coupling tensor and the inverse stiffness.
    """
    axes = tuple(axes)
    if len(axes) != 3:
        raise ValueError("thermo-elasticity uses a 3-d grid")
    np_ = _npts(axes)
    nvec = 3 * np_
    nsym = 6 * np_
    a_heat = _acoustic_block(axes, negate=True)
    a_elast = _elastic_block(axes, negate=True)
    a = block_diag([a_heat, a_elast])
    cinv = _inv_coeff(cten, nsym, name="cten")
    gmat = _trace_embedding(axes, gamma)
    gcg = gmat.T @ cinv @ gmat
    gcg = 0.5 * (gcg + gcg.T)
    m0_hz = _block_matrix([np_, nvec],
                          {(0, 0): _check_coeff("nu1", _coeff(nu1, np_)) + gcg})
    m1_hz = _block_matrix([np_, nvec], {(1, 1): _inv_coeff(kappa, nvec, name="kappa")})
    law_hz = MaterialLaw(m0=MatrixOperator(m0_hz, a_heat.domain, a_heat.domain),
                         m1=MatrixOperator(m1_hz, a_heat.domain, a_heat.domain))
    m0_st = _block_matrix([nvec, nsym],
                          {(0, 0): _check_coeff("nu2", _coeff(nu2, nvec)), (1, 1): cinv})
    law_st = MaterialLaw(m0=MatrixOperator(m0_st, a_elast.domain, a_elast.domain),
                         m1=zero(a_elast.domain, a_elast.domain))
    cross = _block_matrix([np_, nvec], {(0, 1): gmat.T @ cinv}, [nvec, nsym])
    mlaw = couple([law_hz, law_st], {(0, 1): (cross, None)})

    def rebuild():
        return block_diag([_acoustic_block(axes, negate=True),
                           _elastic_block(axes, negate=True)]).to_dense()

    return CatalogEntry(
        name="thermo_elasticity",
        grid=axes,
        law=MaterialLaw(m0=MatrixOperator(mlaw.m0.entries, a.domain, a.domain),
                        m1=MatrixOperator(mlaw.m1.entries, a.domain, a.domain)),
        a=a,
        blocks=(("eta", np_), ("zeta", nvec), ("s", nvec), ("T", nsym)),
        provenance=(
            "select the rank-0 and rank-1 blocks (sign-flipped flux block)",
            "select the rank-1 and symmetrized rank-2 blocks (sign-flipped stress block)",
            "stack the two descendants; all coupling enters the material law",
        ),
        reconstruct=rebuild,
        extras={"params": {"nu1": nu1, "nu2": nu2, "kappa": kappa,
                           "cten": cten, "gamma": gamma}},
    )


def _plate_beam(name, axes, nu1, nu2, kappa, cten, d) -> CatalogEntry:
    """Shared builder for the Reissner-Mindlin plate (2-d) and the
    Timoshenko beam (1-d): bending/shear unknowns with the +-1 zero-order
    coupling between the shear flux and the rotation velocity."""
    axes = tuple(axes)
    ndim = len(axes)
    np_ = _npts(axes)
    nvec = ndim * np_
    nsym = (ndim * (ndim + 1) // 2) * np_
    a_bend = _acoustic_block(axes, negate=True)
    a_rot = _elastic_block(axes, negate=True) if ndim > 1 else _elastic_block_1d(axes)
    a = block_diag([a_bend, a_rot])

    kap = _check_coeff("kappa", _coeff(kappa, nvec))
    cinv = _inv_coeff(cten, nsym, name="cten")
    m0_hz = _block_matrix([np_, nvec], {
        (0, 0): _check_coeff("nu1", _coeff(nu1, np_)), (1, 1): kap})
    m1_hz = _block_matrix([np_, nvec],
                          {(0, 0): _check_coeff("d", _coeff(d, np_), strict=False)})
    law_hz = MaterialLaw(m0=MatrixOperator(m0_hz, a_bend.domain, a_bend.domain),
                         m1=MatrixOperator(m1_hz, a_bend.domain, a_bend.domain))
    m0_st = _block_matrix([nvec, nsym],
                          {(0, 0): _check_coeff("nu2", _coeff(nu2, nvec)), (1, 1): cinv})
    law_st = MaterialLaw(m0=MatrixOperator(m0_st, a_rot.domain, a_rot.domain),
                         m1=zero(a_rot.domain, a_rot.domain))
    m1_01 = _block_matrix([np_, nvec], {(1, 0): -sp.identity(nvec)}, [nvec, nsym])
    m1_10 = _block_matrix([nvec, nsym], {(0, 1): sp.identity(nvec)}, [np_, nvec])
    mlaw = couple([law_hz, law_st], {(0, 1): (None, m1_01), (1, 0): (None, m1_10)})

    def rebuild():
        second = _elastic_block(axes, negate=True) if ndim > 1 else _elastic_block_1d(axes)
        return block_diag([_acoustic_block(axes, negate=True), second]).to_dense()

    return CatalogEntry(
        name=name,
        grid=axes,
        law=MaterialLaw(m0=MatrixOperator(mlaw.m0.entries, a.domain, a.domain),
                        m1=MatrixOperator(mlaw.m1.entries, a.domain, a.domain)),
        a=a,
        blocks=(("eta", np_), ("zeta", nvec), ("s", nvec), ("T", nsym)),
        provenance=(
            "select the rank-0 and rank-1 blocks (sign-flipped flux block)",
            "select the rank-1 and symmetrized rank-2 blocks (sign-flipped stress block)",
            "stack the two descendants; the +-1 coupling enters the material law",
        ),
        reconstruct=rebuild,
        extras={"params": {"nu1": nu1, "nu2": nu2, "kappa": kappa, "cten": cten, "d": d}},
    )


def _elastic_block_1d(axes):
    """[[0, D*], [-D, 0]] pattern on the line: the 1-d limit of the
    sign-flipped velocity/stress block (rank-2 symmetric coordinates are a
    single component in 1-d)."""
    stack = TensorStack(tuple(axes), 2)
    A = build_stack_skew(stack).as_matrix()
    first = descend(A, rank_block(stack, {1}, {2}))
    r1 = TensorFieldSpace(tuple(axes), 1)
    r2 = TensorFieldSpace(tuple(axes), 2)
    pv = direct_sum_pairs([identity_pair(r1.tag), sym_projection(r2)])
    out = descend(first, pv)
    return _negate_second(r1.dim, out)


def reissner_mindlin(axes, nu1=1.0, nu2=1.0, kappa=1.0, cten=1.0, d=0.0) -> CatalogEntry:
    """Reissner-Mindlin plate: bending velocity, shear flux, rotation
    velocity and moment stress on a 2-d grid; d >= 0 damps the bending row."""
    if len(tuple(axes)) != 2:
        raise ValueError("the Reissner-Mindlin plate uses a 2-d grid")
    return _plate_beam("reissner_mindlin", axes, nu1, nu2, kappa, cten, d)


def timoshenko(axes, nu1=1.0, nu2=1.0, kappa=1.0, cten=1.0, d=0.0) -> CatalogEntry:
    """Timoshenko beam: the 1-d reduction of the plate system."""
    if len(tuple(axes)) != 1:
        raise ValueError("the Timoshenko beam uses a 1-d grid")
    return _plate_beam("timoshenko", axes, nu1, nu2, kappa, cten, d)


def _biharmonic(name, axes, nu1, cten, d) -> CatalogEntry:
    """Shared builder for the Kirchhoff-Love plate and Euler-Bernoulli beam.

    The spatial operator composes two derivative blocks of the stack:
    C = sym(nabla nabla) from scalars to symmetric rank-2 coordinates, and
    the system is the block-skew pair of C.  The degenerate limit law of
    the parent plate is bypassed; the entry carries its own well-posed law.
    """
    axes = tuple(axes)
    ndim = len(axes)
    np_ = _npts(axes)
    nsym = (ndim * (ndim + 1) // 2) * np_
    n0 = build_nabla(TensorFieldSpace(axes, 0))
    n1 = build_nabla(TensorFieldSpace(axes, 1))
    ps = sym_projection(TensorFieldSpace(axes, 2))
    comp = ps.pi @ n1 @ n0
    a = make_block_skew(comp).as_matrix()
    space = a.domain
    m0 = _block_matrix([np_, nsym], {
        (0, 0): _check_coeff("nu1", _coeff(nu1, np_)),
        (1, 1): _inv_coeff(cten, nsym, name="cten")})
    m1 = _block_matrix([np_, nsym], {
        (0, 0): _check_coeff("d", _coeff(d, np_), strict=False)})
    mlaw = MaterialLaw(m0=MatrixOperator(m0, space, space),
                       m1=MatrixOperator(m1, space, space))

    def rebuild():
        stack = TensorStack(axes, 2)
        c_full = build_stack_skew(stack).C.to_dense()
        offs = stack.rank_offsets()
        d10 = c_full[offs[1]:offs[2], offs[0]:offs[1]]
        d21 = c_full[offs[2]:, offs[1]:offs[2]]
        comp2 = ps.pi.to_dense() @ d21 @ d10
        out = np.zeros((np_ + nsym, np_ + nsym))
        out[:np_, np_:] = -comp2.T
        out[np_:, :np_] = comp2
        return out

    return CatalogEntry(
        name=name,
        grid=axes,
        law=mlaw,
        a=a,
        blocks=(("eta", np_), ("T", nsym)),
        provenance=(
            "compose the rank-0->1 and symmetrized rank-1->2 derivative blocks",
            "assemble the block-skew pair of the composite",
        ),
        reconstruct=rebuild,
        extras={"params": {"nu1": nu1, "cten": cten, "d": d}},
    )


def kirchhoff_love(axes, nu1=1.0, cten=1.0, d=0.0) -> CatalogEntry:
    """Kirchhoff-Love plate: the formal zero-shear limit of the plate system,
    solved directly with its own (well-posed) law."""
    if len(tuple(axes)) != 2:
        raise ValueError("the Kirchhoff-Love plate uses a 2-d grid")
    return _biharmonic("kirchhoff_love", axes, nu1, cten, d)


def euler_bernoulli(axes, nu1=1.0, cten=1.0, d=0.0) -> CatalogEntry:
    """Euler-Bernoulli beam: the 1-d biharmonic limit of the beam system."""
    if len(tuple(axes)) != 1:
        raise ValueError("the Euler-Bernoulli beam uses a 1-d grid")
    return _biharmonic("euler_bernoulli", axes, nu1, cten, d)


# ---------------------------------------------------------------------------
# dimension reduction: plate over a torus fiber -> beam


def beam_reduction_pair(plate: CatalogEntry, beam: CatalogEntry) -> ProjectionPair:
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
    np2 = _npts(axes2)
    np1 = beam.blocks[0][1]
    avg0 = torus_average(TensorFieldSpace(axes2, 0), {1})
    avg1 = torus_average(TensorFieldSpace(axes2, 1), {1})
    a0 = avg0.pi.entries          # np1 x np2
    a1 = avg1.pi.entries          # np1 x 2*np2 (keeps component 0)
    # moment block: symmetric comps (00, 01, 11) on the plate; keep (00)
    t_block = sp.hstack([a0, sp.csr_matrix((np1, 2 * np2))])
    # both states are ordered (eta, zeta, s, T)
    ent = sp.block_diag([a0, a1, a1, t_block], format="csr")
    return ProjectionPair(MatrixOperator(ent, plate.space, beam.space))


# ---------------------------------------------------------------------------
# registry


REGISTRY = {
    "acoustics": acoustics,
    "heat": heat,
    "elasticity": elasticity,
    "maxwell": maxwell,
    "extended_maxwell": extended_maxwell,
    "reduced_extended_maxwell": reduced_extended_maxwell,
    "dirac": dirac,
    "relativistic_schrodinger": relativistic_schrodinger,
    "transport": transport,
    "thermo_elasticity": thermo_elasticity,
    "reissner_mindlin": reissner_mindlin,
    "kirchhoff_love": kirchhoff_love,
    "timoshenko": timoshenko,
    "euler_bernoulli": euler_bernoulli,
}


def default_axes(name, max_points=None):
    """Desk-scale default grid per entry (1-d: 16, 2-d: 8x8, 3-d: 4^3)."""
    n1 = 16 if max_points is None else min(16, max_points)
    n2 = 8 if max_points is None else min(8, max_points)
    n3 = 4 if max_points is None else min(4, max_points)
    n1 += n1 % 2  # even count for the symmetric-line entries
    three_d_periodic = {"maxwell", "extended_maxwell", "reduced_extended_maxwell",
                        "dirac", "elasticity", "thermo_elasticity"}
    if name in three_d_periodic:
        return (Axis.torus(n3),) * 3
    if name in ("reissner_mindlin", "kirchhoff_love"):
        return (Axis.interval(n2), Axis.interval(n2))
    if name == "transport":
        return (Axis.symmetric(n1, 4.0 / n1),)
    return (Axis.interval(n1),)


def build_entry(name, axes=None, params=None) -> CatalogEntry:
    if name not in REGISTRY:
        raise KeyError(f"unknown catalog entry {name!r}")
    if axes is None:
        axes = default_axes(name)
    return REGISTRY[name](tuple(axes), **(params or {}))


def all_entries(max_points=None):
    """Build every registered entry on its default grid."""
    return [build_entry(name, default_axes(name, max_points)) for name in REGISTRY]
