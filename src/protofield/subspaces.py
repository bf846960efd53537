"""Projection machinery: subspace selections, symmetry splittings, averaging.

A ProjectionPair is a surjective partial isometry pi : H -> V together with
its adjoint embedding V -> H.  Applying pi . A . pi* projects an operator
onto the subspace; chains of such steps produce every named system in the
catalog.  Also here: the even/odd splitting of a symmetric line, averaging
over torus directions (dimension reduction), realification of complex
operators, and the SVD-based range/kernel splitting used to remove null
spaces.

Component-basis normalizations (the 1/sqrt(2) factors of the symmetric and
antisymmetric rank-2 bases, the reflection pairs of the even/odd split)
keep every pi an exact partial isometry up to floating-point rounding;
identities involving them hold to ~1e-15 rather than bitwise.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from .linops import (
    MatrixOperator,
    SpaceTag,
    TagMismatchError,
    block_diag,
    direct_sum_tags,
    identity,
)
from .flatgrid import (
    DIRICHLET,
    PERIODIC,
    GridBlockSpace,
    TensorFieldSpace,
    TensorStack,
    _axes_name,
)

PAIR_VALIDATION_TOL = 1e-12


class ProjectionPair:
    """pi : H -> V with pi pi* = identity on V; embedding = pi*."""

    __slots__ = ("pi", "space")

    def __init__(self, pi: MatrixOperator, space=None, validate=True):
        if validate:
            gram = pi @ pi.adjoint()
            defect = (gram - identity(pi.codomain)).max_abs()
            if defect > PAIR_VALIDATION_TOL:
                raise ValueError(
                    f"pi is not a surjective partial isometry: |pi pi* - I| = {defect:.3e}"
                )
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "space", space)

    def __setattr__(self, *_):
        raise AttributeError("ProjectionPair is immutable")

    @property
    def embedding(self) -> MatrixOperator:
        return self.pi.adjoint()

    @property
    def domain(self) -> SpaceTag:
        return self.pi.domain

    @property
    def codomain(self) -> SpaceTag:
        return self.pi.codomain

    def orthogonal_projector(self) -> MatrixOperator:
        """P_V = pi* pi on the big space."""
        return self.embedding @ self.pi

    def __repr__(self):
        return f"ProjectionPair({self.domain.name} -> {self.codomain.name})"


def identity_pair(tag: SpaceTag) -> ProjectionPair:
    return ProjectionPair(identity(tag), validate=False)


def direct_sum_pairs(pairs, space=None) -> ProjectionPair:
    """Blockwise pi acting on the direct sum of the domains."""
    return ProjectionPair(block_diag([p.pi for p in pairs]), space=space, validate=False)


def compose_pairs(outer: ProjectionPair, inner: ProjectionPair) -> ProjectionPair:
    """First apply inner, then outer; the composite is again a partial isometry."""
    return ProjectionPair(outer.pi @ inner.pi, space=outer.space, validate=False)


def descend(A: MatrixOperator, pv: ProjectionPair) -> MatrixOperator:
    """Project an operator onto a subspace: pi . A . embedding.

    Skew-selfadjointness of the result is guaranteed (and asserted by the
    callers) when the pair splits as V0 (+) H1 or H0 (+) V1 over the block
    structure of A; for other pairs the result is a plain compression.
    """
    if A.domain != pv.domain:
        raise TagMismatchError(
            f"projection lives on {pv.domain.name}, operator on {A.domain.name}"
        )
    return pv.pi @ A @ pv.embedding


# ---------------------------------------------------------------------------
# selections on the tensor stack


def rank_block(stack: TensorStack, ranks0, ranks1) -> ProjectionPair:
    """Select tensor ranks from the two copies of the stack.

    ranks0 picks blocks of the first copy, ranks1 of the second; the result
    space is the direct sum of the selected tensor-field spaces in rank
    order.
    """
    ranks0, ranks1 = sorted(set(ranks0)), sorted(set(ranks1))
    for r in ranks0 + ranks1:
        if not 0 <= r <= stack.max_rank:
            raise ValueError(f"rank {r} outside the stack range 0..{stack.max_rank}")
    spaces = stack.spaces
    sel_tags = [spaces[r].tag for r in ranks0] + [spaces[r].tag for r in ranks1]
    cod = direct_sum_tags(sel_tags)
    rows = []
    for copy, ranks in ((0, ranks0), (1, ranks1)):
        for r in ranks:
            sl = stack.block_slice(copy, r)
            rows.extend(range(sl.start, sl.stop))
    ent = sp.csr_matrix(
        (np.ones(len(rows)), (np.arange(len(rows)), np.array(rows))),
        shape=(cod.dim, stack.dim),
    )
    return ProjectionPair(MatrixOperator(ent, stack.tag, cod), validate=False)


def component_select(space, comps, name, labels=None) -> ProjectionPair:
    """Keep whole component fields (by flat component index) of a grid space."""
    comps = list(comps)
    npts = space.npoints
    if labels is None:
        labels = tuple(f"c{c}" for c in comps)
    red = GridBlockSpace(space.axes, labels, name)
    rows = []
    for c in comps:
        rows.extend(range(c * npts, (c + 1) * npts))
    ent = sp.csr_matrix((np.ones(len(rows)), (np.arange(len(rows)), np.array(rows))),
                        shape=(red.dim, space.dim))
    return ProjectionPair(MatrixOperator(ent, space.tag, red.tag), space=red, validate=False)


# ---------------------------------------------------------------------------
# symmetric / antisymmetric rank-2 splittings


def _pair_basis_projection(space2: TensorFieldSpace, sign: float, name: str):
    if space2.rank != 2:
        raise ValueError(f"(anti)symmetrization needs rank 2, got rank {space2.rank}")
    n = space2.ndim
    npts = space2.npoints
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    comps, labels = [], []
    for i in range(n):
        start_j = i if sign > 0 else i + 1
        for j in range(start_j, n):
            comps.append((i, j))
            labels.append(f"{name}{i}{j}")
    red = GridBlockSpace(space2.axes, tuple(labels), name)
    pts = np.arange(npts)
    rows, cols, vals = [], [], []
    for row_c, (i, j) in enumerate(comps):
        slots = [((i, i), 1.0)] if i == j else [((i, j), inv_sqrt2), ((j, i), sign * inv_sqrt2)]
        for alpha, val in slots:
            rows.append(row_c * npts + pts)
            cols.append(space2.component_index(alpha) * npts + pts)
            vals.append(np.full(npts, val))
    ent = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                        shape=(red.dim, space2.dim))
    return ProjectionPair(MatrixOperator(ent, space2.tag, red.tag), space=red)


def sym_projection(space2: TensorFieldSpace) -> ProjectionPair:
    """Orthonormal coordinates of the symmetric rank-2 subspace.

    n(n+1)/2 components per grid point: the diagonal slots e_ii and the
    normalized pairs (e_ij + e_ji)/sqrt(2) for i < j.
    """
    return _pair_basis_projection(space2, +1.0, "sym")


def asym_projection(space2: TensorFieldSpace) -> ProjectionPair:
    """Orthonormal coordinates of the antisymmetric rank-2 subspace.

    n(n-1)/2 components per grid point: (e_ij - e_ji)/sqrt(2) for i < j.
    """
    return _pair_basis_projection(space2, -1.0, "asym")


# ---------------------------------------------------------------------------
# even / odd splitting of a symmetric line


def even_odd(space: TensorFieldSpace):
    """Split fields on a symmetric Dirichlet axis into even and odd parts.

    The axis must have an even number of points placed symmetrically about
    0 with none at the origin, so reflection is the index flip
    i -> n-1-i.  Rows are (e_{n/2+j} +/- e_{n/2-1-j})/sqrt(2), indexed by
    the positive half.  Any tensor rank works in 1-d (one component).
    """
    if space.ndim != 1:
        raise ValueError("even/odd splitting acts on fields over one axis")
    axis = space.axes[0]
    if axis.bc != DIRICHLET or axis.n % 2:
        raise ValueError("even/odd needs a symmetric Dirichlet axis with even point count")
    n = axis.n
    half = n // 2
    s = 1.0 / np.sqrt(2.0)
    tags = {}
    pairs = []
    for label, sign in (("even", 1.0), ("odd", -1.0)):
        j = np.arange(half)
        ent = sp.csr_matrix(
            (np.concatenate([np.full(half, s), np.full(half, sign * s)]),
             (np.concatenate([j, j]), np.concatenate([half + j, half - 1 - j]))),
            shape=(half, n),
        )
        tags[label] = SpaceTag(
            f"{label}[{_axes_name(space.axes)}]", half, np.full(half, axis.h)
        )
        pairs.append(ProjectionPair(MatrixOperator(ent, space.tag, tags[label])))
    return tuple(pairs)


# ---------------------------------------------------------------------------
# torus averaging (dimension reduction)


def torus_average(space: TensorFieldSpace, torus_axes) -> ProjectionPair:
    """Average over torus directions and keep only multi-indices avoiding them.

    The reduced space is the same-rank tensor space over the remaining
    axes.  The embedding extends constantly along the torus and pads the
    dropped components with zero; total torus measure one makes it an
    isometry and pi . embedding the identity.
    """
    torus_axes = sorted(set(torus_axes))
    for a in torus_axes:
        if not 0 <= a < space.ndim:
            raise ValueError(f"axis {a} out of range")
        if space.axes[a].bc != PERIODIC:
            raise ValueError(f"axis {a} is not a torus axis")
    kept = [a for a in range(space.ndim) if a not in torus_axes]
    if not kept:
        raise ValueError("at least one axis must remain")
    red_space = TensorFieldSpace(tuple(space.axes[a] for a in kept), space.rank)

    ns = [a.n for a in space.axes]
    strides = np.ones(space.ndim, dtype=int)
    for a in range(space.ndim - 2, -1, -1):
        strides[a] = strides[a + 1] * ns[a + 1]
    # flat full-grid point index of each (reduced point, torus point) combination
    kept_grids = list(itertools.product(*[range(ns[a]) for a in kept]))
    torus_grids = list(itertools.product(*[range(ns[a]) for a in torus_axes]))
    n_torus = len(torus_grids)
    base = np.array(
        [sum(idx[k] * strides[a] for k, a in enumerate(kept)) for idx in kept_grids]
    )
    shift = np.array(
        [sum(idx[k] * strides[a] for k, a in enumerate(torus_axes)) for idx in torus_grids]
    )

    npts_full, npts_red = space.npoints, red_space.npoints
    rows, cols, vals = [], [], []
    new_of_old = {a: k for k, a in enumerate(kept)}
    for beta in red_space.multi_indices():
        alpha = tuple(kept[b] for b in beta)
        c_old = space.component_index(alpha) if space.rank else 0
        c_new = red_space.component_index(beta) if space.rank else 0
        for p_red in range(npts_red):
            row = c_new * npts_red + p_red
            full = c_old * npts_full + base[p_red] + shift
            rows.extend([row] * n_torus)
            cols.extend(full.tolist())
            vals.extend([1.0 / n_torus] * n_torus)
    ent = sp.csr_matrix((vals, (rows, cols)), shape=(red_space.dim, space.dim))
    return ProjectionPair(MatrixOperator(ent, space.tag, red_space.tag), space=red_space)


# ---------------------------------------------------------------------------
# realification


def realify(re_op: MatrixOperator, im_op: MatrixOperator) -> MatrixOperator:
    """Represent Re T + i Im T as the real block matrix [[Re, -Im], [Im, Re]].

    The map is an algebra homomorphism, so realify(i * identity) squares to
    minus the identity and products/adjoints carry over.
    """
    if re_op.domain != im_op.domain or re_op.codomain != im_op.codomain:
        raise TagMismatchError("real and imaginary parts must share their tags")
    dom = direct_sum_tags([re_op.domain, re_op.domain])
    cod = direct_sum_tags([re_op.codomain, re_op.codomain])
    r, i = re_op.entries, im_op.entries
    ent = sp.bmat([[r, -i], [i, r]], format="csr")
    return MatrixOperator(ent, dom, cod)


def realify_complex(mat: np.ndarray, domain: SpaceTag, codomain: SpaceTag) -> MatrixOperator:
    """Realify a complex numpy matrix with the given (un-doubled) tags."""
    re = MatrixOperator(np.real(mat), domain, codomain)
    im = MatrixOperator(np.imag(mat), domain, codomain)
    return realify(re, im)


# ---------------------------------------------------------------------------
# range / kernel splitting


def range_kernel_split(A: MatrixOperator, rank_tol: float = 1e-10):
    """SVD split of H into the range of A and its orthogonal complement.

    Returns (range_pair, kernel_pair).  For skew A the two subspaces reduce
    A: the projectors commute with it and the compression to the range is
    again skew-selfadjoint.
    """
    if A.domain != A.codomain:
        raise ValueError("range/kernel splitting needs a square operator")
    w = A.domain.weight
    sw = np.sqrt(w)
    B = sw[:, None] * A.to_dense() / sw[None, :]
    U, svals, _ = np.linalg.svd(B)
    smax = svals[0] if svals.size else 0.0
    nrank = int(np.sum(svals > rank_tol * max(smax, 1e-300)))

    def pair_from_columns(cols, label):
        k = cols.shape[1]
        if k == 0:
            # empty subspace: 0-dimensional tags are not representable, use a
            # 1-row zero partial isometry marker instead
            return None
        tag = SpaceTag(f"{label}({k})of[{A.domain.name}]", k)
        ent = cols.T * sw[None, :]
        return ProjectionPair(MatrixOperator(ent, A.domain, tag), validate=False)

    range_pair = pair_from_columns(U[:, :nrank], "range")
    kernel_pair = pair_from_columns(U[:, nrank:], "coker")
    return range_pair, kernel_pair


def subspace_dim(pair) -> int:
    """Dimension of the subspace a pair projects onto (0 for the empty marker)."""
    return 0 if pair is None else pair.codomain.dim
