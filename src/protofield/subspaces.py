"""Projection machinery: subspace selections, symmetry splittings, averaging.

A ProjectionPair is a surjective partial isometry pi : H -> V together with
its adjoint embedding V -> H.  Applying pi . A . pi* projects an operator
onto the subspace; chains of such steps produce every named system in the
catalog.  By pi = B0 (+) B1 (direct_sum_pairs) over the two blocks of
A = [[0, -C*], [C, 0]], the descent is the (B0, B1)-relative
[[0, -B0 C* B1*], [B1 C B0*, 0]] of A, and pi pi* = I, the type of a
ProjectionPair, is its hypothesis.  Also here: the even/odd splitting of
a symmetric line, averaging over torus directions (dimension reduction),
and the range/kernel splitting used to remove null spaces.
A pi that acts point by point (component selections, the (anti)symmetric
coordinates) states only its small matrix on the components, and
pointwise_pair, the one home of such a pair, builds it as
sp.kron(component map, I_points) in flatgrid's component-major layout and
checks its isometry on the small matrix.  torus_average is
sp.kron(component map, point map), rank_block takes rows of the identity,
and even_odd maps points.  The range/kernel split is kept in wavenumber
space: ShiftCut block-diagonalizes the operators that commute with the
shifts of a periodic grid by the DFT alone, and each WavenumberPair holds
one small orthonormal basis per wavenumber, never a dim x dim map; the
cut it was split on stays with the caller.
Every operator and field is real, so its symbol at -xi is the conjugate
of the one at xi (Hermitian symmetry): the DFT is real-to-complex and
keeps only the wavenumbers up to n/2 along the last axis, about half
of them, and a subspace counts each kept wavenumber whose conjugate
partner is dropped twice in its real dimension.
shift_cut is the one rule for where to cut, used by the split and by the
time steps: along every axis when every axis is periodic and every given
operator commutes with the shifts there, not at all otherwise.  It hands
back the symbols of the operators it tested, all from one pass over the
union of their patterns.

Component-basis normalizations (the 1/sqrt(2) factors of the symmetric and
antisymmetric rank-2 bases, the reflection pairs of the even/odd split)
keep every pi an exact partial isometry up to floating-point rounding;
identities involving them hold to ~1e-15 rather than bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce

import numpy as np
import scipy.sparse as sp

from .linops import (
    DEFAULT_RANK_TOL,
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
    TensorFieldSpace,
    TensorStack,
    _axes_name,
    fields_tag,
    point_count,
)

PAIR_VALIDATION_TOL = 1e-12


class ProjectionPair:
    """pi : H -> V with pi pi* = identity on V; embedding = pi*."""

    __slots__ = ("pi",)

    def __init__(self, pi: MatrixOperator, validate=True):
        if validate:
            _check_isometry((pi @ pi.adjoint() - identity(pi.codomain)).max_abs())
        object.__setattr__(self, "pi", pi)

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


def _check_isometry(defect):
    """Raise unless a defect |pi pi* - I| is within PAIR_VALIDATION_TOL."""
    if defect > PAIR_VALIDATION_TOL:
        raise ValueError(f"pi is not a surjective partial isometry: |pi pi* - I| = {defect:.3e}")


def identity_pair(tag: SpaceTag) -> ProjectionPair:
    return ProjectionPair(identity(tag), validate=False)


def direct_sum_pairs(pairs) -> ProjectionPair:
    """Blockwise pi acting on the direct sum of the domains."""
    return ProjectionPair(block_diag([p.pi for p in pairs]), validate=False)


def descend(A: MatrixOperator, pv: ProjectionPair) -> MatrixOperator:
    """Project an operator onto a subspace: pi . A . embedding.

    (pi A pi*)* = pi A* pi*, so a skew A descends to a skew operator (the
    callers assert it).  A pair B0 (+) B1 over the two blocks of
    A = [[0, -C*], [C, 0]] keeps the block form: the result is the
    (B0, B1)-relative [[0, -B0 C* B1*], [B1 C B0*, 0]].
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
    cod = direct_sum_tags([spaces[r].tag for r in ranks0] + [spaces[r].tag for r in ranks1])
    rows = np.r_[tuple(stack.block_slice(copy, r)
                       for copy, ranks in enumerate((ranks0, ranks1)) for r in ranks)]
    ent = sp.identity(stack.dim, format="csr")[rows]
    return ProjectionPair(MatrixOperator(ent, stack.tag, cod), validate=False)


def pointwise_pair(space: TensorFieldSpace, comp, name) -> ProjectionPair:
    """pi = sp.kron(comp, I_points) from the fields of a grid space onto
    len(comp) fields `name`: the one builder of a pointwise pi.

    Both tags weight every point alike, so pi pi* = kron(comp comp^T, I)
    and comp comp^T = I, checked on the small matrix, is the isometry.
    """
    comp = np.asarray(comp, dtype=float)
    _check_isometry(np.abs(comp @ comp.T - np.eye(len(comp))).max())
    ent = sp.kron(comp, sp.identity(space.npoints), format="csr")
    tag = fields_tag(space.axes, len(comp), f"{name}[{_axes_name(space.axes)}]")
    return ProjectionPair(MatrixOperator._owning(ent, space.tag, tag), validate=False)


def component_select(space: TensorFieldSpace, comps, name) -> ProjectionPair:
    """Keep whole component fields (by flat component index) of a grid space."""
    return pointwise_pair(space, np.eye(space.ncomp)[list(comps)], name)


# ---------------------------------------------------------------------------
# symmetric / antisymmetric rank-2 splittings


def _pair_basis_projection(space2: TensorFieldSpace, sign: float, name: str):
    if space2.rank != 2:
        raise ValueError(f"(anti)symmetrization needs rank 2, got rank {space2.rank}")
    n = space2.ndim
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    pairs = [(i, j) for i in range(n) for j in range(i if sign > 0 else i + 1, n)]
    comp = np.zeros((len(pairs), space2.ncomp))
    for row, (i, j) in enumerate(pairs):
        slots = [((i, i), 1.0)] if i == j else [((i, j), inv_sqrt2), ((j, i), sign * inv_sqrt2)]
        for alpha, val in slots:
            comp[row, space2.component_index(alpha)] = val
    return pointwise_pair(space2, comp, name)


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

    # keep the multi-indices avoiding the torus directions; sum over the torus points
    comp = np.zeros((red_space.ncomp, space.ncomp))
    for c_new, beta in enumerate(red_space.multi_indices()):
        comp[c_new, space.component_index([kept[b] for b in beta])] = 1.0
    points = reduce(partial(sp.kron, format="csr"),
                    [sp.identity(axis.n) if a in kept else np.ones((1, axis.n))
                     for a, axis in enumerate(space.axes)])
    n_torus = point_count(space.axes[a] for a in torus_axes)
    ent = sp.kron(comp, points, format="csr") * (1.0 / n_torus)
    return ProjectionPair(MatrixOperator(ent, space.tag, red_space.tag))


# ---------------------------------------------------------------------------
# range / kernel splitting


def _rdft(x, axes, norm=None):
    """numpy.fft.rfft along the last of `axes`, then fft along the others.

    scipy.fft transforms these small grids about twice as fast, but loading
    it adds about 5 MB of resident memory and 0.1 s to the first solve.
    """
    *others, last = axes
    x = np.fft.rfft(x, axis=last, norm=norm)
    for axis in others:
        np.fft.fft(x, axis=axis, norm=norm, out=x)
    return x


def _irdft(x, axes, n, norm=None):
    """The inverse of _rdft: ifft along all but the last of `axes`, then
    irfft to n points along the last, which keeps the real part."""
    *others, last = axes
    for axis in others:
        x = np.fft.ifft(x, axis=axis, norm=norm)
    return np.fft.irfft(x, n=n, axis=last, norm=norm)


class ShiftCut:
    """The unitary DFT F along every axis of a periodic grid, on half the wavenumbers.

    Fields are m components over the axes `grid` (dim = m * npts, the point
    index innermost in C order).  Every operator and field here is real,
    so a symbol satisfies T(-xi) = conj T(xi) and the coordinates of a
    field x(-xi) = conj x(xi): F keeps the wavenumbers whose index along
    the last axis is at most n_k // 2 (numpy's rfft), N = n_1 ... n_{k-1}
    (n_k // 2 + 1) of them, and the others are their conjugates.
    multiplicity[xi] is 2 when the partner -xi is not kept (last index
    strictly between 0 and n_k / 2) and 1 otherwise, so a real subspace
    has dimension sum over xi of multiplicity[xi] times its columns there.
    forward(x) = F x maps real (dim, c) columns to (N, m, c): wavenumber,
    component, column; inverse undoes it, as a real field.  An operator T
    commuting with the shifts is cut into one m x m symbol of T per kept
    wavenumber.  No weight enters: a grid space weights every coordinate
    alike.  shift_cut decides whether a grid is cut at all.
    """

    __slots__ = ("per", "half", "multiplicity", "dim", "N", "m", "_fft_axes")

    def __init__(self, space: SpaceTag, grid):
        npts = point_count(grid)
        if space.dim % npts:
            raise ValueError(f"dimension {space.dim} is not a number of fields over {npts} points")
        per = tuple(axis.n for axis in grid)
        j = np.arange(per[-1] // 2 + 1)
        multiplicity = np.tile(np.where((j == 0) | (2 * j == per[-1]), 1, 2),
                               int(np.prod(per[:-1])))
        multiplicity.flags.writeable = False
        for name, value in (("per", per), ("half", (*per[:-1], len(j))),
                            ("multiplicity", multiplicity), ("dim", space.dim),
                            ("N", len(multiplicity)), ("m", space.dim // npts),
                            ("_fft_axes", tuple(range(1, 1 + len(per))))):
            object.__setattr__(self, name, value)

    def __setattr__(self, *_):
        raise AttributeError("ShiftCut is immutable")

    def forward(self, x):
        """F x for the real columns of x (dim, c), as (N, m, c)."""
        c = x.shape[1]
        y = _rdft(x.reshape(self.m, *self.per, c), self._fft_axes, "ortho")
        return y.reshape(self.m, self.N, c).transpose(1, 0, 2)

    def inverse(self, y):
        """F^-1 y for y (N, m, c), the real field, as (dim, c) columns."""
        c = y.shape[2]
        x = y.transpose(1, 0, 2).reshape(self.m, *self.half, c)
        x = _irdft(x, self._fft_axes, self.per[-1], "ortho")
        return x.reshape(self.dim, c)

    def symbols(self, *ops: MatrixOperator):
        """[symbols of op for op in ops], or None when one of them does not
        commute with the shifts.

        symbols[xi] = sum_p b(p) exp(-i xi p), (N, m, m): F op F^-1
        blockwise, where b0[(beta, d), gamma] = b(d)[beta, gamma], for
        components beta, gamma and point offset d, is the entry of op in
        row (beta, d) of column (gamma, p = 0).  One pass over
        the union of the operators' patterns (entries zero in every one
        dropped) finds each entry's components and its row point's offset
        from its column point, modulo each axis; each op's value test and
        FFT then run on it.  An op commutes with the shifts when each of
        its entries on the union equals b0 at that entry's offset, and the
        union holds one entry per point for each entry at p = 0.
        """
        if not ops:
            return []
        place, at0, values = self._b0_entries(ops)
        if len(place) != (self.dim // self.m) * np.count_nonzero(at0):
            return None
        b0 = np.zeros((len(ops), self.dim * self.m))
        for b, v in zip(b0, values):
            b[place[at0]] = v[at0]
            if np.any(b[place] != v):
                return None
        del place, at0, values  # the index arrays go before the FFTs: 0.3 GB at 64^3
        return [_rdft(b.reshape(self.m, *self.per, self.m), self._fft_axes)
                .reshape(self.m, self.N, self.m).transpose(1, 0, 2) for b in b0]

    def _b0_entries(self, ops):
        """(place, at0, values) over the union of the operators' patterns.

        values (len(ops), nnz) are the entries of each op on the union,
        places zero in every op dropped; place is each entry's index in
        b0 (n, m), flattened, and at0 whether its column point is 0.
        """
        n, npts = self.dim, self.dim // self.m
        first = ops[0].entries
        if all(np.array_equal(op.entries.indptr, first.indptr)
               and np.array_equal(op.entries.indices, first.indices) for op in ops[1:]):
            # one pattern (as the step matrices share): it is the union
            indptr, cols = first.indptr, first.indices
            values = np.stack([op.entries.data for op in ops])
        else:
            # bit i of a union entry marks an entry of ops[i]: both are sorted
            # row by row, so ops[i]'s entries fill its marked places in order
            union = sum(sp.csr_matrix((np.full(op.entries.nnz, 2.0 ** i), op.entries.indices,
                                       op.entries.indptr), shape=(n, n))
                        for i, op in enumerate(ops))
            indptr, cols = union.indptr, union.indices
            values = np.zeros((len(ops), len(cols)))
            for i, (v, op) in enumerate(zip(values, ops)):
                if op.entries.nnz == len(cols):  # ops[i] has every entry of the union
                    v[:] = op.entries.data
                else:
                    v[union.data.astype(np.int64) >> i & 1 == 1] = op.entries.data
        rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(indptr))
        kept = values.any(axis=0)
        if not kept.all():
            rows, cols, values = rows[kept], cols[kept], values[:, kept]
        # a point's digits as a spot in a grid of 2 n_a per axis a: the row
        # point's offset from the column point, each digit modulo n_a, is
        # then one lookup of the difference of their spots (shifted by n_a)
        per = self.per
        wide = np.cumprod((1, *(2 * n_a for n_a in per[:0:-1])))[::-1]
        stride = np.cumprod((1, *per[:0:-1]))[::-1]
        spot = reduce(np.add.outer, [np.arange(n_a) * w for n_a, w in zip(per, wide)]).ravel()
        offset = reduce(np.add.outer, [(np.arange(2 * n_a) - n_a) % n_a * s
                                       for n_a, s in zip(per, stride)]).ravel()
        comp_c, point_c = np.divmod(cols, npts)
        spot_c = spot[point_c]
        place = offset[np.tile(spot + wide @ per, self.m)[rows] - spot_c]
        place += rows // npts * npts
        place *= self.m
        place += comp_c
        return place, spot_c == 0, values


@dataclass(frozen=True)
class WavenumberPair:
    """A real subspace given, wavenumber by wavenumber, by orthonormal columns.

    pi = basis^H F at each kept wavenumber (F the DFT of the ShiftCut the
    pair was split on), with the adjoint F^-1 basis as its embedding; at
    the conjugate wavenumbers the cut drops, the basis is the conjugate
    one.  groups holds one (wavenumber index, basis (n, m, c))
    per group of wavenumbers with c columns each, and the codomain's
    dimension counts each wavenumber with the cut's multiplicity.
    """

    groups: tuple
    codomain: SpaceTag


def shift_cut(space: SpaceTag, grid, *ops: MatrixOperator):
    """(cut, symbols): the cut of `space` along every axis of `grid` and the
    symbols of `ops` there, or (None, None) when there is no cut.

    The one rule for where to cut: only a grid whose every axis is periodic,
    and only when every one of ops commutes with the shifts along them.
    A grid with no axis, or with one that is not periodic, is not cut: a
    symbol spanning the points of an uncut axis is a dense block that costs
    far more than the sparse LU.  The commute test and the symbols are one
    pass of ShiftCut.symbols over all of ops.
    """
    if any(op.domain != space or op.codomain != space for op in ops):
        raise ValueError(f"shift_cut needs operators on {space.name} to itself")
    if not grid or any(axis.bc != PERIODIC for axis in grid):
        return None, None
    cut = ShiftCut(space, grid)
    symbols = cut.symbols(*ops)
    return (None, None) if symbols is None else (cut, symbols)


def range_kernel_split(cut: ShiftCut, symbols, domain: SpaceTag):
    """Split H into the range of A and its orthogonal complement, wavenumber by wavenumber.

    symbols are A's on `cut` (from shift_cut, which a reduced solve gives A
    and the step matrices together).  One batched SVD of them gives per
    wavenumber a unitary basis: singular values above
    DEFAULT_RANK_TOL * max(singular value) span the range, the others the kernel.

    Returns (range_pair, kernel_pair), WavenumberPairs grouped by kernel
    count, group for group, or None for an empty subspace.  For skew A the
    two subspaces reduce A: the projectors commute with it and the
    compression to the range is again skew-selfadjoint.
    """
    u, svals = np.linalg.svd(symbols)[:2]  # the caller holds symbols: drop vh at once
    kernel_dims = np.count_nonzero(svals <= DEFAULT_RANK_TOL * max(svals.max(), 1e-300), axis=1)
    m = u.shape[1]
    groups = [(np.flatnonzero(kernel_dims == k), m - k) for k in np.unique(kernel_dims)]

    def pair(label, bases):
        dim = sum(int(cut.multiplicity[index].sum()) * basis.shape[2] for index, basis in bases)
        if dim == 0:
            return None  # 0-dimensional tags are not representable
        return WavenumberPair(tuple(bases), SpaceTag(f"{label}({dim})of[{domain.name}]", dim))

    return (pair("range", [(index, u[index, :, :r]) for index, r in groups]),
            pair("coker", [(index, u[index, :, r:]) for index, r in groups]))

