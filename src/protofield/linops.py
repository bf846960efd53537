"""Finite-dimensional operator algebra on weighted inner-product spaces.

Every operator in this package is a real matrix together with two space
tags.  A tag carries the per-coordinate quadrature weights of the discrete
inner product, so adjoints are weighted transposes (between spaces of one
and the same uniform weight, such as grid spaces, exactly the plain
transpose) and "skew-selfadjoint" always means skew with respect to those
weights.  The module provides the block construction [[0, -C*], [C, 0]]
of the mother operator; its (B0, B1)-relative
[[0, -B0 C* B1*], [B1 C B0*, 0]] is the descent by the partial isometry
B0 (+) B1 (subspaces.descend).

Every operator stores its entries in one format: a read-only, canonical
scipy CSR matrix.  A matrix passed to the constructor is copied (dense
input converted once); a result the package makes for an operator (a
product, sum, difference, negation, scalar multiple or adjoint, and the
block constructions here) is frozen in place, not copied again.  Block
matrices are written by one assembler, block_csr, straight from their
blocks' CSR arrays; the stencils and laws of flatgrid and catalog are
assembled with it.
Functions of selfadjoint operators (the well-posedness gate, polar
factors, coefficient inverses and roots) densify only the coupling
blocks, through `weighted_spectrum`, and a diagonal operator not at all;
the range/kernel split (subspaces) and the Schur reduction (matlaw)
densify one symbol per wavenumber of a periodic grid whose shifts the
operators commute with, and nothing else.  Whether a value counts as
zero is decided by rank_cut alone.

All values are immutable after construction and safe to share across
threads; the functions here are pure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Relative cutoff of rank_cut, the one rule of every rank and definiteness
# decision in the package, so the units of a law or an operator decide none.
DEFAULT_RANK_TOL = 1e-10


def rank_cut(values, axis=None):
    """DEFAULT_RANK_TOL * the largest |value| along axis (kept, to broadcast), or of all:
    a singular value or eigenvalue at or below the cut of its block counts as zero."""
    return DEFAULT_RANK_TOL * np.abs(values).max(axis=axis, keepdims=axis is not None)


class TagMismatchError(ValueError):
    """Domain/codomain tags do not line up for the attempted operation."""


class SpaceTag:
    """Label, dimension and inner-product weights of a coordinate space.

    Two tags compose only when they are equal (same name, dimension and
    bitwise-identical weights).
    """

    __slots__ = ("name", "dim", "weight")

    def __init__(self, name, dim, weight=None):
        if dim < 1:
            raise ValueError(f"space dimension must be >= 1, got {dim}")
        if weight is None:
            weight = np.ones(dim)
        weight = np.asarray(weight, dtype=float)
        if weight.shape != (dim,):
            raise ValueError(f"weight shape {weight.shape} does not match dim {dim}")
        if not np.all(weight > 0):
            raise ValueError("all inner-product weights must be positive")
        weight.setflags(write=False)
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, *_):
        raise AttributeError("SpaceTag is immutable")

    def __eq__(self, other):
        if not isinstance(other, SpaceTag):
            return NotImplemented
        return (
            self.name == other.name
            and self.dim == other.dim
            and np.array_equal(self.weight, other.weight)
        )

    def __repr__(self):
        return f"SpaceTag({self.name!r}, dim={self.dim})"


def direct_sum_tags(tags, name=None):
    """Tag of the direct sum, weights concatenated."""
    tags = list(tags)
    if name is None:
        name = "(" + " + ".join(t.name for t in tags) + ")"
    w = np.concatenate([t.weight for t in tags])
    return SpaceTag(name, len(w), w)


def _freeze(out):
    """Make a CSR matrix canonical and read-only in place, and return it.

    An array scipy left as a view of a larger buffer (the slack of an
    arithmetic result whose nnz it over-allocated) is compacted first.
    """
    out.sum_duplicates()
    for name in ("data", "indices", "indptr"):
        arr = getattr(out, name)
        if arr.base is not None and arr.base.nbytes > arr.nbytes:
            arr = arr.copy()
            setattr(out, name, arr)
        arr.setflags(write=False)
    return out


def _frozen_csr(entries):
    """A private, read-only, canonical CSR copy of dense or sparse entries."""
    if sp.issparse(entries):
        return _freeze(entries.tocsr(copy=True).astype(float, copy=False))
    dense = np.asarray(entries, dtype=float)
    if dense.ndim != 2:
        raise ValueError(f"operator entries must be 2-d, got shape {dense.shape}")
    # direct assembly by one boolean mask (row-major, so the column
    # indices come out sorted): sp.csr_matrix(dense) detours through COO,
    # which triples the constructor overhead that dominates on small operators
    nonzero = dense != 0
    indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
    cols = np.broadcast_to(np.arange(dense.shape[1], dtype=np.int32), dense.shape)
    return _freeze(sp.csr_matrix((dense[nonzero], cols[nonzero], indptr), shape=dense.shape))


def block_csr(blocks, sizes=None):
    """The CSR matrix of a grid of blocks (rows of sparse blocks or None).

    Written directly from the blocks' CSR arrays: one indptr from the
    blocks' row counts, then each block's data and shifted column indices
    placed at their rows' offsets (one slice for a block alone in its block
    row), so no COO copy, sort or zero block is made.  The result is
    byte-equal to sp.bmat(blocks, format="csr") with its duplicates summed:
    the same entries in the same order, index dtype included, and for
    canonical blocks bmat's result itself.  sizes = (row sizes, column
    sizes) fixes the block sizes, so a block row or column of None keeps
    its size; without it such a row or column is empty, as in bmat.
    Blocks of mismatched shapes raise ValueError.
    """
    grid = [[None if b is None else b.tocsr() for b in row] for row in blocks]
    if sizes is None:
        sizes = [None] * len(grid), [None] * max(map(len, grid), default=0)
    heights, widths = (list(s) for s in sizes)
    if len(heights) != len(grid) or any(len(row) != len(widths) for row in grid):
        raise ValueError("blocks must be a rectangular grid, of the given sizes if any")
    for i, row in enumerate(grid):
        for j, b in enumerate(row):
            if b is None:
                continue
            for dims, k, n, axis in ((heights, i, b.shape[0], "rows"),
                                     (widths, j, b.shape[1], "columns")):
                if dims[k] is None:
                    dims[k] = n
                elif dims[k] != n:
                    raise ValueError(f"block ({i}, {j}) has {n} {axis}, expected {dims[k]}")
    row_off = np.cumsum([0] + [h or 0 for h in heights])
    col_off = np.cumsum([0] + [w or 0 for w in widths])
    shape = (int(row_off[-1]), int(col_off[-1]))
    present = [b for row in grid for b in row if b is not None]
    nnz = sum(int(b.indptr[-1]) for b in present)
    idx = np.int32 if max(*shape, nnz) <= np.iinfo(np.int32).max else np.int64
    counts = np.zeros(shape[0], dtype=idx)
    for i, row in enumerate(grid):
        for b in row:
            if b is not None:
                counts[row_off[i]:row_off[i + 1]] += np.diff(b.indptr)
    indptr = np.zeros(shape[0] + 1, dtype=idx)
    np.cumsum(counts, out=indptr[1:])
    data = np.empty(nnz, dtype=np.result_type(*(b.dtype for b in present)) if present else float)
    indices = np.empty(nnz, dtype=idx)
    for i, row in enumerate(grid):
        filled = [(j, b) for j, b in enumerate(row) if b is not None and b.indptr[-1]]
        free = indptr[row_off[i]:row_off[i + 1]].copy()  # each row's next free place
        for j, b in filled:
            nz = b.indptr[-1]
            if len(filled) == 1:  # the block row's entries are this block's, in order
                places = slice(free[0], free[0] + nz)
            else:
                row_nnz = np.diff(b.indptr)
                places = np.repeat(free - b.indptr[:-1], row_nnz) + np.arange(nz, dtype=idx)
                free += row_nnz
            data[places] = b.data[:nz]
            indices[places] = np.add(b.indices[:nz], col_off[j], dtype=idx)
    out = sp.csr_matrix((data, indices, indptr), shape=shape)
    out.sum_duplicates()
    return out


class MatrixOperator:
    """Real matrix with tagged domain and codomain, stored as read-only CSR.

    The adjoint is the weighted transpose W_dom^-1 T^T W_cod, T^T itself
    when both tags carry one and the same uniform weight.  Adjoint
    pairs are memoized so that ``adjoint(adjoint(T)) is T`` holds exactly,
    with no repeated floating-point work.
    """

    __slots__ = ("entries", "domain", "codomain", "_adj")

    def __init__(self, entries, domain, codomain):
        self._hold(_frozen_csr(entries), domain, codomain)

    @classmethod
    def _owning(cls, entries, domain, codomain):
        """The operator over a CSR matrix made for it, frozen in place, not copied."""
        op = object.__new__(cls)
        op._hold(_freeze(entries), domain, codomain)
        return op

    def _hold(self, entries, domain, codomain):
        if entries.shape != (codomain.dim, domain.dim):
            raise TagMismatchError(
                f"entries shape {entries.shape} does not match tags "
                f"({codomain.dim}, {domain.dim})"
            )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "_adj", None)

    def __setattr__(self, *_):
        raise AttributeError("MatrixOperator is immutable")

    # -- storage helpers ---------------------------------------------------

    @property
    def shape(self):
        return self.entries.shape

    def to_dense(self):
        return self.entries.toarray()

    def max_abs(self):
        return float(np.abs(self.entries.data).max()) if self.entries.nnz else 0.0

    # -- algebra -----------------------------------------------------------

    def apply(self, vec):
        return self.entries @ np.asarray(vec, dtype=float)

    def __matmul__(self, other):
        if self.domain != other.codomain:
            raise TagMismatchError(f"cannot compose: {self.domain.name} != {other.codomain.name}")
        return MatrixOperator._owning(self.entries @ other.entries, other.domain, self.codomain)

    def _require_same_tags(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise TagMismatchError("operator tags differ")

    def __add__(self, other):
        self._require_same_tags(other)
        return MatrixOperator._owning(self.entries + other.entries, self.domain, self.codomain)

    def __sub__(self, other):
        self._require_same_tags(other)
        return MatrixOperator._owning(self.entries - other.entries, self.domain, self.codomain)

    def __neg__(self):
        return MatrixOperator._owning(-self.entries, self.domain, self.codomain)

    def __mul__(self, scalar):
        return MatrixOperator._owning(self.entries * float(scalar), self.domain, self.codomain)

    __rmul__ = __mul__

    def adjoint(self):
        if self._adj is None:
            self._pair(MatrixOperator._owning(self._weighted_transpose(), self.codomain,
                                              self.domain))
        return self._adj

    def _weighted_transpose(self):
        """The CSR entries of the adjoint, W_dom^-1 T^T W_cod, computed afresh.

        Between spaces of one and the same uniform weight (every grid space)
        that is the plain transpose T^T, exactly: no entry is scaled.
        """
        # the CSC arrays of T are the CSR arrays of T^T; entry (j, i) is
        # t[i, j] * w_cod[i] / w_dom[j], in that order
        csc = self.entries.tocsc()
        w_cod, w_dom = self.codomain.weight, self.domain.weight
        cod_uniform, dom_uniform = np.all(w_cod == w_cod[0]), np.all(w_dom == w_dom[0])
        data = csc.data
        if not (cod_uniform and dom_uniform and w_cod[0] == w_dom[0]):
            # a uniform weight scales by its scalar: the same products, no gathers
            data = data * (w_cod[0] if cod_uniform else w_cod[csc.indices])
            data /= w_dom[0] if dom_uniform else np.repeat(w_dom, np.diff(csc.indptr))
        return sp.csr_matrix((data, csc.indices, csc.indptr),
                             shape=(self.domain.dim, self.codomain.dim))

    def _pair(self, adj):
        object.__setattr__(adj, "_adj", self)
        object.__setattr__(self, "_adj", adj)

    def __repr__(self):
        return (
            f"MatrixOperator({self.codomain.dim}x{self.domain.dim}, "
            f"{self.domain.name} -> {self.codomain.name})"
        )


def identity(tag: SpaceTag) -> MatrixOperator:
    return MatrixOperator._owning(sp.identity(tag.dim, format="csr"), tag, tag)


def block_diag(ops) -> MatrixOperator:
    """Direct sum of operators, acting blockwise."""
    ops = list(ops)
    dom = direct_sum_tags([o.domain for o in ops])
    cod = direct_sum_tags([o.codomain for o in ops])
    ent = block_csr([[o.entries if j == i else None for j in range(len(ops))]
                     for i, o in enumerate(ops)])
    return MatrixOperator._owning(ent, dom, cod)


def _diagonal(entries) -> bool:
    """Whether a square CSR matrix stores entries on its diagonal only."""
    counts = np.diff(entries.indptr)
    return counts.max(initial=0) <= 1 and np.array_equal(entries.indices, np.flatnonzero(counts))


def _same_pattern(a, b) -> bool:
    """Whether two CSR matrices store the same pattern (both canonical)."""
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def _coupling_blocks(ops, sw):
    """(index (n, s), entries (len(ops), n, s, s)) per size s of the coupling blocks.

    The blocks are the connected components of the operators' joint
    sparsity pattern, in weighted-orthonormal coordinates.  When every
    operator is diagonal they are the n 1x1 blocks of the diagonal, in
    order, which is what the graph pass would find: it is skipped.
    """
    n = len(sw)
    if all(_diagonal(o.entries) for o in ops):
        diagonals = np.stack([o.entries.diagonal() for o in ops])
        return [(np.arange(n)[:, None], diagonals[:, :, None, None])]
    _, labels = connected_components(sum(abs(o.entries) for o in ops), directed=False)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    blk, pos = np.empty_like(labels), np.empty_like(labels)
    blocks = []
    for s in np.unique(sizes):
        index = order[sizes[labels[order]] == s].reshape(-1, s)
        blk[index], pos[index] = np.arange(len(index))[:, None], np.arange(s)
        dense = np.zeros((len(ops), len(index), s, s))
        for o, arr in zip(ops, dense):
            e = o.entries.tocoo()
            sel = sizes[labels[e.row]] == s
            r, c = e.row[sel], e.col[sel]
            arr[blk[r], pos[r], pos[c]] = e.data[sel] * (sw[r] / sw[c])
        blocks.append((index, dense))
    return blocks


def weighted_spectrum(op: MatrixOperator, *others: MatrixOperator):
    """Eigendecomposition of a weighted-selfadjoint operator along its coupling blocks.

    The joint sparsity pattern of op and `others` cuts them into diagonal
    blocks, diagonalized in weighted-orthonormal coordinates by one batched
    eigh per block size.  Returns per size (index (n, s), ascending
    eigenvalues (n, s), eigenvectors Q, [Q^T sym(B) Q for B in others]);
    a caller ranks each block by rank_cut(eigenvalues, axis=1).
    Blocks of size 1 are their own spectrum (a 1x1 eigh returns its entry
    with Q = 1), so diagonal operators (every scalar or per-entry
    coefficient, and M0 and sym(M1) of most laws) need no graph pass and
    no eigh.
    """
    groups = []
    for index, dense in _coupling_blocks((op, *others), np.sqrt(op.domain.weight)):
        dense = 0.5 * (dense + dense.transpose(0, 1, 3, 2))
        if dense.shape[2] == 1:
            values, q = dense[0, :, 0], np.ones_like(dense[0])
        else:
            values, q = np.linalg.eigh(dense[0])
        groups.append((index, values, q, [q.transpose(0, 2, 1) @ r @ q for r in dense[1:]]))
    return groups


def spectral_function(groups, f, space: SpaceTag) -> MatrixOperator:
    """f(T) from weighted_spectrum(T), f acting elementwise on eigenvalues.

    Each block is symmetrized, then scaled by sw_j / sw_i (exactly 1 under uniform weights).
    """
    sw = np.sqrt(space.weight)
    parts = []
    for index, values, q, _ in groups:
        block = (q * f(values)[:, None, :]) @ q.transpose(0, 2, 1)
        rows, cols = np.broadcast_arrays(index[:, :, None], index[:, None, :])
        data = 0.5 * (block + block.transpose(0, 2, 1)) * (sw[cols] / sw[rows])
        parts.append((data.ravel(), rows.ravel(), cols.ravel()))
    # the blocks are disjoint: one COO of their entries, exact zeros not stored
    data, rows, cols = (np.concatenate(a) for a in zip(*parts))
    nonzero = data != 0
    out = sp.csr_matrix((data[nonzero], (rows[nonzero], cols[nonzero])),
                        shape=(space.dim, space.dim))
    return MatrixOperator._owning(out, space, space)


def make_block_skew(C: MatrixOperator) -> MatrixOperator:
    """Assemble A = [[0, -C*], [C, 0]] with its adjoint attached as the exact negation.

    The adjoint really is the entrywise negation (the off-diagonal blocks are
    adjoints of each other by construction), so A + A* vanishes identically,
    with no floating-point arithmetic involved.
    """
    space = direct_sum_tags([C.domain, C.codomain])
    return skew_by_construction(MatrixOperator._owning(
        block_csr([[None, -C.adjoint().entries], [C.entries, None]]), space, space))


def skew_by_construction(A: MatrixOperator) -> MatrixOperator:
    """A, with its entrywise negation (sharing A's pattern) attached as its adjoint: only
    for an A exactly skew as built (make_block_skew results, their direct sums, negations)."""
    ent = A.entries
    A._pair(MatrixOperator._owning(sp.csr_matrix((-ent.data, ent.indices, ent.indptr),
                                                 shape=ent.shape), A.domain, A.codomain))
    return A


def skew_defect(A: MatrixOperator) -> float:
    """Max-entry norm of A + A*.

    A* is the adjoint attached to A when it has one (every make_block_skew
    result); otherwise the weighted transpose, taken for this check and not
    attached, so A does not keep it alive.  When A and A* store the same
    pattern, both canonical, the sum is taken entry by entry from their
    data arrays, with no sum matrix formed; otherwise by the matrix sum.
    """
    if A.domain != A.codomain:
        raise TagMismatchError("skew defect needs domain == codomain")
    a = A.entries
    adj = A._weighted_transpose() if A._adj is None else A._adj.entries
    if _same_pattern(a, adj):
        return float(np.abs(a.data + adj.data).max(initial=0.0))
    return float(np.abs((a + adj).data).max(initial=0.0))

