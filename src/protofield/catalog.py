"""Named field systems projected out of the rank-stack operator.

Every entry couples a skew-selfadjoint spatial operator with a material
law.  The spatial operator is never invented per system: each one is
reproduced from the single rank-stack operator [[0, -nabla*], [nabla, 0]]
by a chain of projections and unitary/scale relabelings, recorded in words
as the entry's `provenance`.  The rank-pair blocks are built at their own
rank, from the rank-k gradient: the acoustic block is the block-skew pair
(`make_block_skew`) of the gradient, and the elastic and Maxwell blocks
that of its sym or asym projection pi nabla.  They are bitwise the stack
operator's descended blocks, without building the whole stack.  Every
entry that is one block-skew pair (the Dirac, square-root and biharmonic
entries too) comes from `make_block_skew` and carries its exact adjoint.

This module holds the builders and nothing else.  Every provenance
reference lives in `verify`, built from pieces no builder calls and
stacked with scipy's own `bmat`, `block_diag` and `kron`, so a fault in a
builder's assembly cannot cancel in its own provenance.

Systems provided: acoustics, heat conduction, linear elasticity, Maxwell,
the extended scalar/vector Maxwell system and its reduced variant, the
Dirac system (free space), the square-root wave system, transport on a
symmetric line, thermo-elasticity (formally Biot's porous-media model),
Reissner-Mindlin plates, Kirchhoff-Love plates, Timoshenko and
Euler-Bernoulli beams.  The structural identities tying them together
are checked in `verify`.

An entry holds what a solve and the CLI read: name, grid, law, operator,
blocks and provenance.  Its state layout is stated once, as its `blocks`
tuple of (label, size) pairs (built by `_layout`).  Every builder returns
`_entry`, which assembles the material law's M0 and M1 by label over that
tuple on the operator's space (`_assemble`), cross blocks included, with
the unit law (M0 = I, M1 = 0) as the default; the block stencils are
assembled the same way, and blocks are read back by label
(`CatalogEntry.block_slices`).
`_assemble`, the curl, the Dirac block and the gradients write their CSR
arrays through one assembler, `linops.block_csr`.  Every material
coefficient is converted and checked finite and positive (semi)definite
in one place, `_coeff` (by `linops.rank_cut` per coupling block), so a bad
value is a ValueError naming it at build; `_coeff` also takes every function
of a coefficient (its inverse, root and inverse root), with one overflow rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .linops import (MatrixOperator, SpaceTag, block_csr, block_diag, identity,
                     make_block_skew, rank_cut, skew_by_construction, spectral_function,
                     weighted_spectrum)
from .flatgrid import (
    Axis,
    DIRICHLET,
    PERIODIC,
    TensorFieldSpace,
    _axes_name,
    build_nabla,
    fields_tag,
    point_count,
    point_derivative,
)
from .subspaces import asym_projection, even_odd, sym_projection
from .matlaw import MaterialLaw
from .evolve import EvolutionaryProblem


# ---------------------------------------------------------------------------
# small assembly helpers


def _coeff(name, value, size, strict=True, f=None):
    """A material coefficient as a CSR block, or f of it (spectral_function) when f is given;
    f a tuple of functions gives one block per function, all from one spectrum.

    value is a scalar, a per-entry diagonal or a full matrix (symmetrized).
    Every coefficient of every entry passes here and is checked finite and symmetric
    positive definite (semidefinite with strict=False) by rank_cut: a ValueError names it,
    as it names an f that overflows (the inverse of a coefficient in tiny units).
    """
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:  # float(arr) * sp.identity(size), explicit zeros and all
        mat = sp.csr_matrix((np.full(size, float(arr)), np.arange(size), np.arange(size + 1)),
                            shape=(size, size))
    elif arr.ndim == 1:
        if arr.shape[0] != size:
            raise ValueError(f"{name}: diagonal coefficient length {arr.shape[0]} != {size}")
        mat = sp.diags(arr, format="csr")
    elif arr.shape != (size, size):
        raise ValueError(f"{name}: coefficient shape {arr.shape} != ({size}, {size})")
    else:
        mat = sp.csr_matrix(0.5 * (arr + arr.T))
    if not np.isfinite(mat.data).all():
        raise ValueError(f"{name} must be finite")
    tag = SpaceTag(name, size)
    try:  # raised under the scenario's errstate or by f: name the coefficient
        groups = weighted_spectrum(MatrixOperator._owning(mat, tag, tag))
        for _, values, _, _ in groups:
            cut = rank_cut(values, axis=1)
            if not (values > cut if strict else values >= -cut).all():  # a NaN fails too
                raise ValueError(
                    f"{name} must be symmetric positive {'' if strict else 'semi'}definite")
        if f is None:
            return mat
        with np.errstate(over="raise"):
            out = tuple(spectral_function(groups, g, tag).entries
                        for g in (f if isinstance(f, tuple) else (f,)))
        return out if isinstance(f, tuple) else out[0]
    except ArithmeticError as exc:
        raise ValueError(f"{name}: {exc}") from exc


# ---------------------------------------------------------------------------
# block layouts: ((label, size), ...), the one statement of an entry's blocks


def _layout(axes, *components):
    """The layout of (label, components per point) pairs over the points of axes."""
    np_ = point_count(axes)
    return tuple((label, k * np_) for label, k in components)


def _plate_blocks(axes):
    """Bending scalar and shear flux, then rotation velocity and moment stress."""
    n = len(axes)
    return _layout(axes, ("eta", 1), ("zeta", n), ("s", n), ("T", n * (n + 1) // 2))


def _slices(blocks):
    """{label: slice} of each block of a layout."""
    out, pos = {}, 0
    for label, size in blocks:
        out[label] = slice(pos, pos + size)
        pos += size
    return out


def _assemble(blocks, parts):
    """CSR matrix over a layout from {label: diagonal block, (row label,
    column label): block}, by linops.block_csr; an absent block is zero and
    is not stored or built, an unknown label is a KeyError."""
    size = dict(blocks)
    keys = {r if r == c else (r, c) for r in size for c in size}
    if not keys.issuperset(parts):
        raise KeyError(f"blocks {[k for k in parts if k not in keys]} are not in {tuple(size)}")
    return block_csr([[parts.get(r if r == c else (r, c)) for c in size] for r in size],
                     sizes=(size.values(), size.values()))


def _partials(axes):
    """Forward-difference partial matrices (CSR) on the flat point index."""
    return [point_derivative(axes, d) for d in range(len(axes))]


def _skew_partials(axes):
    """Centered (skew) partials: the average of the stencil and its pair."""
    return [0.5 * (P - P.T) for P in _partials(axes)]


def _curl_block(P):
    """The curl [[0, -P3, P2], [P3, 0, -P1], [-P2, P1, 0]] from three partials."""
    return block_csr([[None, -P[2], P[1]], [P[2], None, -P[0]], [-P[1], P[0], None]])


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

    @property
    def space(self):
        return self.law.space

    @property
    def dim(self):
        return self.space.dim

    def block_slices(self):
        return _slices(self.blocks)

    def problem(self, initial=None, forcing=None) -> EvolutionaryProblem:
        if initial is None:
            initial = np.zeros(self.dim)
        return EvolutionaryProblem(law=self.law, a=self.a, initial=initial,
                                   forcing=forcing, grid=self.grid)


def _entry(name, axes, blocks, a, provenance, m0=None, m1=None) -> CatalogEntry:
    """The entry of operator a whose law's M0 and M1 are assembled by label over
    blocks on a's space, M0 = I when m0 is None and M1 = 0 when m1 is None; M1 is
    always assembled, so a layout that does not tile a's space is a TagMismatchError."""
    def op(parts):
        return MatrixOperator._owning(_assemble(blocks, parts), a.domain, a.domain)
    law = MaterialLaw(m0=identity(a.domain) if m0 is None else op(m0), m1=op(m1 or {}))
    return CatalogEntry(name=name, grid=tuple(axes), law=law, a=a, blocks=blocks,
                        provenance=provenance)


def _acoustic_block(axes):
    """[[0, div], [grad0, 0]] on L2_0 (+) L2_1: the stack operator's rank-{0, 1}
    block, built at its own rank."""
    return make_block_skew(build_nabla(TensorFieldSpace(tuple(axes), 0)))


def _elastic_block(axes, rank2):
    """[[0, Div], [Grad0, 0]] on L2_1 (+) sym[L2_2] (rank2=sym_projection);
    with asym_projection, the Maxwell block.

    The descent of the stack operator's rank-{1, 2} block by I (+) rank2 is
    the block-skew pair of pi nabla, built from the rank-1 gradient.
    """
    r1 = TensorFieldSpace(tuple(axes), 1)
    return make_block_skew(rank2(r1.with_rank(2)).pi @ build_nabla(r1))


def acoustics(axes, rho=1.0, kappa=1.0, sigma=0.0) -> CatalogEntry:
    """First-order pressure/flux system; with kappa=0 it becomes heat conduction.

    Spatial part [[0, div], [grad0, 0]], law M0 = diag(rho, kappa),
    M1 = diag(0, sigma).  sigma > 0 damps (or, read thermally, adds the
    flux law of heat conduction).
    """
    axes = tuple(axes)
    blocks = _layout(axes, ("p", 1), ("v", len(axes)))
    size = dict(blocks)
    return _entry("acoustics", axes, blocks, _acoustic_block(axes),
                  ("select the rank-0 and rank-1 blocks of the stack operator",),
                  m0={"p": _coeff("rho", rho, size["p"]),
                      "v": _coeff("kappa", kappa, size["v"], strict=False)},
                  m1={"v": _coeff("sigma", sigma, size["v"], strict=False)})


def heat(axes, rho=1.0, sigma=1.0) -> CatalogEntry:
    """Heat conduction: the acoustic descendant with kappa = 0.

    M0 = diag(rho, 0) is singular; well-posedness is carried by the strict
    positivity of sigma on the kernel block (the flux law).
    """
    return replace(acoustics(axes, rho=rho, kappa=0.0, sigma=sigma), name="heat")


def elasticity(axes, rho=1.0, compliance=1.0) -> CatalogEntry:
    """Velocity/stress system on L2_1 (+) sym[L2_2].

    The stress block uses the orthonormal symmetric coordinates (off-diagonal
    pairs carry a 1/sqrt(2) factor); the assembled Grad block therefore equals
    the hand stencil (D_i v_j + D_j v_i)/2 written in those coordinates.
    """
    axes = tuple(axes)
    if not 2 <= len(axes) <= 3:
        raise ValueError("elasticity needs a 2-d or 3-d grid")
    n = len(axes)
    blocks = _layout(axes, ("v", n), ("T", n * (n + 1) // 2))
    size = dict(blocks)
    return _entry("elasticity", axes, blocks, _elastic_block(axes, sym_projection),
                  ("select the rank-1 and rank-2 blocks of the stack operator",
                   "symmetrize the rank-2 block"),
                  m0={"v": _coeff("rho", rho, size["v"]),
                      "T": _coeff("compliance", compliance, size["T"])})


def maxwell(axes, permittivity=1.0, permeability=1.0, conductivity=0.0) -> CatalogEntry:
    """Electric/magnetic system on L2_1 (+) asym[L2_2].

    Kept in the orthonormal antisymmetric coordinates of the magnetic
    block; verify.check_curl_identification exhibits the curl hidden in them
    (component permutation and a 1/sqrt(2) normalization).
    """
    axes = tuple(axes)
    if len(axes) != 3:
        raise ValueError("the Maxwell descendant needs a 3-d grid")
    blocks = _layout(axes, ("E", 3), ("w", 3))
    size = dict(blocks)
    return _entry("maxwell", axes, blocks, _elastic_block(axes, asym_projection),
                  ("select the rank-1 and rank-2 blocks of the stack operator",
                   "antisymmetrize the rank-2 block"),
                  m0={"E": _coeff("permittivity", permittivity, size["E"]),
                      "w": _coeff("permeability", permeability, size["w"])},
                  m1={"E": _coeff("conductivity", conductivity, size["E"], strict=False)})


# ---------------------------------------------------------------------------
# extended Maxwell family


def _ext_blocks(axes):
    """The 8-component layout: scalar f3, vector f1, scalar f0, vector f2."""
    return _layout(axes, ("f3", 1), ("f1", 3), ("f0", 1), ("f2", 3))


def _blocks_tag(axes, blocks, name):
    """The tag of a layout's fields over axes: as many per point as its blocks hold."""
    return fields_tag(axes, sum(size for _, size in blocks) // point_count(axes),
                      f"{name}[{_axes_name(axes)}]")


def _ext_parts_raw(axes, P):
    """The two spatial parts of the extended system (scalar/vector proxies)
    from the three partials P: the forward stencils (`_partials`) for the
    entry, the centered ones (`_skew_partials`) for the free-space
    discretization of the Dirac equivalence.

    Curl part: rows f1 <- -curl f2, f2 <- curl0 f1.  Grad/div part: rows
    f3 <- div0 f2, f1 <- grad0 f0, f0 <- div f1, f2 <- grad f3.
    """
    if len(axes) != 3:
        raise ValueError("the extended system needs a 3-d grid")
    grad0 = block_csr([[p] for p in P])
    div0 = block_csr([P])
    curl0 = _curl_block(P)
    blocks = _ext_blocks(axes)
    curl_part = _assemble(blocks, {("f1", "f2"): -curl0.T, ("f2", "f1"): curl0})
    graddiv_part = _assemble(blocks, {("f3", "f2"): div0, ("f1", "f0"): grad0,
                                      ("f0", "f1"): -grad0.T, ("f2", "f3"): -div0.T})
    return curl_part, graddiv_part


def extended_maxwell(axes, m0=None) -> CatalogEntry:
    """Scalar/vector extension of Maxwell on the 8-component stack per point.

    The spatial operator is the sum of a curl part (conjugated by the
    inverse square root of the material coefficient) and a grad/div part
    (conjugated by the square root); on a periodic grid the two parts are
    skew-selfadjoint and annihilate each other, which is what allows the
    reduction back to the plain Maxwell rows.
    """
    axes = tuple(axes)
    blocks = _ext_blocks(axes)
    tag = _blocks_tag(axes, blocks, "extfield")
    curl_part, graddiv_part = _ext_parts_raw(axes, _partials(axes))
    if m0 is None:
        curl_c, graddiv_c = curl_part, graddiv_part
    else:
        s, si = _coeff("m0", m0, tag.dim, f=(np.sqrt, lambda v: 1.0 / np.sqrt(v)))
        curl_c = si @ (curl_part @ si)
        graddiv_c = s @ (graddiv_part @ s)
        if not (np.isfinite(curl_c.data).all() and np.isfinite(graddiv_c.data).all()):
            raise ValueError("m0: overflow in the conjugated operator")  # past numpy's errstate
    a = MatrixOperator._owning(curl_c + graddiv_c, tag, tag)
    return _entry("extended_maxwell", axes, blocks, a, (
        "pad the rank-{0,1} descendant into the scalar/vector stack",
        "pad the antisymmetrized rank-{1,2} descendant (component pairing, sqrt-2 rescale)",
        "pad the alternating rank-{2,3} descendant (component pairing, sqrt-3 rescale, block swap)",
        "sum the curl and grad/div parts"))


def reduced_extended_maxwell(axes, m0=None) -> CatalogEntry:
    """The extended system with the second scalar row and column removed.

    Dropping the f0 block is itself a projection of the extended system;
    skew-selfadjointness survives and the curl rows are untouched.
    """
    parent = extended_maxwell(axes, m0=m0)
    blocks = tuple((label, size) for label, size in parent.blocks if label != "f0")
    sl = parent.block_slices()
    keep = np.r_[tuple(sl[label] for label, _ in blocks)]
    tag = _blocks_tag(axes, blocks, "extfield_reduced")
    return _entry("reduced_extended_maxwell", axes, blocks,
                  MatrixOperator(parent.a.entries[keep][:, keep], tag, tag),
                  parent.provenance + ("drop the second scalar block",))


# ---------------------------------------------------------------------------
# Dirac


def _dirac_w(axes):
    """The realified first-order block of the Dirac system (mass one).

    Component order (Re psi1, Im psi1, Re psi2, Im psi2); partials are the
    centered (skew) periodic stencils, the free-space discretization.
    """
    P1, P2, P3 = _skew_partials(axes)
    Id = sp.identity(point_count(axes), format="csr")
    return block_csr([
        [None, -Id - P3, P2, -P1],
        [Id + P3, None, P1, P2],
        [-P2, -P1, None, -Id + P3],
        [P1, -P2, Id - P3, None],
    ])


def dirac(axes) -> CatalogEntry:
    """Free-space Dirac system [[0, -W*], [W, 0]] with mass one.

    Requires a fully periodic grid; the skew stencils make the adjoint of
    each partial its negation, which is what the unitary relabeling onto
    the extended Maxwell system (with a chiral zero-order law) needs.
    """
    axes = tuple(axes)
    if len(axes) != 3 or any(a.bc != PERIODIC for a in axes):
        raise ValueError("the Dirac system needs a fully periodic 3-d grid")
    labels = ("psi_re1", "psi_im1", "psi_re2", "psi_im2", "phi_re1", "phi_im1", "phi_re2", "phi_im2")
    blocks = _layout(axes, *((label, 1) for label in labels))
    # W maps the four psi components, as a whole, onto the four phi components
    psi, phi = (fields_tag(axes, 4, f"{half}[{_axes_name(axes)}]") for half in ("psi", "phi"))
    a = make_block_skew(MatrixOperator._owning(_dirac_w(axes), psi, phi))
    return _entry("dirac", axes, blocks, a,
                  ("extended scalar/vector system in the skew-stencil (free-space) discretization",
                   "add the chiral constant zero-order term",
                   "relabel by the 8x8 signed permutation"))


# ---------------------------------------------------------------------------
# relativistic square-root systems


def polar_decompose(G: MatrixOperator):
    """Polar factors G = U |G| with |G| = (G*G)^(1/2) and U zero on ker |G| (by rank_cut)."""
    groups = weighted_spectrum(G.adjoint() @ G)
    abs_g = spectral_function(groups, lambda v: np.sqrt(np.clip(v, 0.0, None)), G.domain)
    pinv = spectral_function(groups, lambda v: np.divide(1.0, np.sqrt(np.clip(v, 0.0, None)),
        out=np.zeros_like(v), where=v > rank_cut(v, axis=1)), G.domain)
    return G @ pinv, abs_g


def relativistic_schrodinger(axes) -> CatalogEntry:
    """The square-root system [[0, -|grad0|], [|grad0|, 0]] with unit law.

    A relative of the acoustic descendant through the polar co-isometry of
    the gradient; needs an all-Dirichlet grid so the gradient is injective.
    """
    axes = tuple(axes)
    if any(a.bc != DIRICHLET for a in axes):
        raise ValueError("the square-root system needs an all-Dirichlet grid")
    G = build_nabla(TensorFieldSpace(axes, 0))
    absG = polar_decompose(G)[1]
    return _entry("relativistic_schrodinger", axes, _layout(axes, ("u", 1), ("w", 1)),
                  make_block_skew(absG),
                  ("select the rank-0 and rank-1 blocks of the stack operator",
                   "compress onto the gradient range through the polar co-isometry"))


# ---------------------------------------------------------------------------
# transport on a symmetric line


def transport(axes, m00=1.0, m11=1.0, m1_00=0.0, m1_11=0.0) -> CatalogEntry:
    """Scalar transport on a symmetric line, recombined from even/odd rows.

    The 1-d pressure/flux descendant is split by the even/odd pairs of the
    reflection; because the derivative exchanges parities, the two rows of
    the split system recombine into a single equation on the full line
    whose spatial part is the centered difference.  The recombination
    needs a block-diagonal parent law (blocks m00 on the pressure side,
    m11 on the flux side); the combined law is
    P_even m00 P_even + P_odd m11 P_odd.  The split descendant itself is
    built only by verify, as this entry's reference.
    """
    axes = tuple(axes)
    if len(axes) != 1:
        raise ValueError("transport lives on a single axis")
    axis = axes[0]
    if axis.bc != DIRICHLET or axis.n % 2:
        raise ValueError("transport needs a symmetric Dirichlet axis (even point count)")
    np_ = axis.n
    space0 = TensorFieldSpace(axes, 0)
    m00 = _coeff("m00", m00, np_)
    m11 = _coeff("m11", m11, np_)
    m1_00 = _coeff("m1_00", m1_00, np_, strict=False)
    m1_11 = _coeff("m1_11", m1_11, np_, strict=False)

    # combined single-row system on the line
    a_comb = MatrixOperator(_skew_partials(axes)[0], space0.tag, space0.tag)
    pe0, po0 = even_odd(space0)
    pe_proj = pe0.orthogonal_projector().entries
    po_proj = po0.orthogonal_projector().entries
    m0_comb = pe_proj @ m00 @ pe_proj + po_proj @ m11 @ po_proj
    m0_comb = 0.5 * (m0_comb + m0_comb.T)
    m1_comb = pe_proj @ m1_00 @ pe_proj + po_proj @ m1_11 @ po_proj
    return _entry("transport", axes, (("u", np_),), a_comb,
                  ("select the rank-0 and rank-1 blocks of the stack operator",
                   "split into even and odd parts across the reflection",
                   "recombine the two rows on the full line"),
                  m0={"u": m0_comb}, m1={"u": m1_comb})


# ---------------------------------------------------------------------------
# coupled systems: thermo-elasticity, plates, beams


def _trace_embedding(axes, gamma):
    """Coupling block mapping scalars into the diagonal symmetric components."""
    n = len(axes)
    np_ = point_count(axes)
    comps = [(i, j) for i in range(n) for j in range(i, n)]
    arr = np.asarray(gamma, dtype=float)
    if arr.ndim >= 2:
        if arr.shape != (len(comps) * np_, np_):
            raise ValueError(f"coupling block must have shape ({len(comps) * np_}, {np_})")
        return sp.csr_matrix(arr)
    column = [[float(arr) if i == j else 0.0] for i, j in comps]
    return sp.kron(column, sp.identity(np_), format="csr")


def _plate_block(axes):
    """The sign-flipped pressure/flux and velocity/stress descendants, stacked (exactly skew)."""
    return skew_by_construction(
        -block_diag([_acoustic_block(axes), _elastic_block(axes, sym_projection)]))


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
    blocks = _plate_blocks(axes)
    size = dict(blocks)
    a = _plate_block(axes)
    cinv = _coeff("cten", cten, size["T"], f=np.reciprocal)
    gmat = _trace_embedding(axes, gamma)
    gcg = gmat.T @ cinv @ gmat
    gcg = 0.5 * (gcg + gcg.T)
    cross = gmat.T @ cinv  # eta <- T, given with its transpose to keep M0 selfadjoint
    if not (np.isfinite(gcg.data).all() and np.isfinite(cross.data).all()):
        raise ValueError("gamma: overflow in gamma C^-1 gamma")  # in scipy, past numpy's errstate
    return _entry("thermo_elasticity", axes, blocks, a,
                  ("select the rank-0 and rank-1 blocks (sign-flipped flux block)",
                   "select the rank-1 and symmetrized rank-2 blocks (sign-flipped stress block)",
                   "stack the two descendants; all coupling enters the material law"),
                  m0={"eta": _coeff("nu1", nu1, size["eta"]) + gcg,
                      "s": _coeff("nu2", nu2, size["s"]), "T": cinv,
                      ("eta", "T"): cross, ("T", "eta"): cross.T},
                  m1={"zeta": _coeff("kappa", kappa, size["zeta"], f=np.reciprocal)})


def _plate_beam(name, axes, nu1, nu2, kappa, cten, d) -> CatalogEntry:
    """Shared builder for the Reissner-Mindlin plate (2-d) and the
    Timoshenko beam (1-d): bending/shear unknowns with the +-1 zero-order
    coupling between the shear flux and the rotation velocity."""
    axes = tuple(axes)
    blocks = _plate_blocks(axes)
    size = dict(blocks)
    shear = sp.identity(size["s"], format="csr")
    return _entry(name, axes, blocks, _plate_block(axes),
                  ("select the rank-0 and rank-1 blocks (sign-flipped flux block)",
                   "select the rank-1 and symmetrized rank-2 blocks (sign-flipped stress block)",
                   "stack the two descendants; the +-1 coupling enters the material law"),
                  m0={"eta": _coeff("nu1", nu1, size["eta"]),
                      "zeta": _coeff("kappa", kappa, size["zeta"]),
                      "s": _coeff("nu2", nu2, size["s"]),
                      "T": _coeff("cten", cten, size["T"], f=np.reciprocal)},
                  m1={"eta": _coeff("d", d, size["eta"], strict=False),
                      ("zeta", "s"): -shear, ("s", "zeta"): shear})


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
    n = len(axes)
    blocks = _layout(axes, ("eta", 1), ("T", n * (n + 1) // 2))
    size = dict(blocks)
    n0 = build_nabla(TensorFieldSpace(axes, 0))
    n1 = build_nabla(TensorFieldSpace(axes, 1))
    ps = sym_projection(TensorFieldSpace(axes, 2))
    return _entry(name, axes, blocks, make_block_skew(ps.pi @ n1 @ n0),
                  ("compose the rank-0->1 and symmetrized rank-1->2 derivative blocks",
                   "assemble the block-skew pair of the composite"),
                  m0={"eta": _coeff("nu1", nu1, size["eta"]),
                      "T": _coeff("cten", cten, size["T"], f=np.reciprocal)},
                  m1={"eta": _coeff("d", d, size["eta"], strict=False)})


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
    n1 -= n1 % 2  # even count for the symmetric-line entries, within the cap
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
