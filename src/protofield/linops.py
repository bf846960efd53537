"""Finite-dimensional operator algebra on weighted inner-product spaces.

Every operator in this package is a real matrix together with two space
tags.  A tag carries the per-coordinate quadrature weights of the discrete
inner product, so adjoints are weighted transposes and "skew-selfadjoint"
always means skew with respect to those weights.  The module provides the
block construction [[0, -C*], [C, 0]], a quantitative compatibility check
for projection/restriction maps, and the relative construction
[[0, -B0 C* B1*], [B1 C B0*, 0]] used everywhere else to project systems
onto subspaces.

Every operator stores its entries in one format: a read-only scipy CSR
matrix.  Dense input is converted once, in the constructor; the stencils
of flatgrid and catalog are assembled sparse.  Algorithms that are dense
by nature densify explicitly with `to_dense()`: the weighted singular
values here.  Functions of selfadjoint operators (the well-posedness gate,
polar factors, coefficient inverses and roots) densify only the coupling
blocks, through `weighted_spectrum`, and a diagonal operator not at all;
the range/kernel split (subspaces) and the Schur reduction (matlaw)
densify one symbol per wavenumber of a periodic grid whose shifts the
operators commute with, and nothing else.

All values are immutable after construction and safe to share across
threads; the functions here are pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

# Relative singular-value cutoff declaring a map "boundedly left-invertible".
DEFAULT_RANK_TOL = 1e-10


class TagMismatchError(ValueError):
    """Domain/codomain tags do not line up for the attempted operation."""


class PreconditionError(ValueError):
    """A stated hypothesis of a construction is violated."""


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
        if weight.ndim == 0:
            weight = np.full(dim, float(weight))
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

    def __hash__(self):
        return hash((self.name, self.dim))

    def __repr__(self):
        return f"SpaceTag({self.name!r}, dim={self.dim})"


def direct_sum_tags(tags, name=None):
    """Tag of the direct sum, weights concatenated."""
    tags = list(tags)
    if name is None:
        name = "(" + " + ".join(t.name for t in tags) + ")"
    w = np.concatenate([t.weight for t in tags])
    return SpaceTag(name, len(w), w)


def _frozen_csr(entries):
    """A private, read-only, canonical CSR copy of dense or sparse entries."""
    if sp.issparse(entries):
        out = entries.tocsr(copy=True).astype(float, copy=False)
    else:
        dense = np.asarray(entries, dtype=float)
        if dense.ndim != 2:
            raise ValueError(f"operator entries must be 2-d, got shape {dense.shape}")
        # direct assembly by one boolean mask (row-major, so the column
        # indices come out sorted): sp.csr_matrix(dense) detours through COO,
        # which triples the constructor overhead that dominates on small operators
        nonzero = dense != 0
        indptr = np.concatenate([[0], np.cumsum(nonzero.sum(axis=1))])
        cols = np.broadcast_to(np.arange(dense.shape[1], dtype=np.int32), dense.shape)
        out = sp.csr_matrix((dense[nonzero], cols[nonzero], indptr), shape=dense.shape)
    out.sum_duplicates()
    for arr in (out.data, out.indices, out.indptr):
        arr.setflags(write=False)
    return out


class MatrixOperator:
    """Real matrix with tagged domain and codomain, stored as read-only CSR.

    The adjoint is the weighted transpose W_dom^-1 T^T W_cod.  Adjoint
    pairs are memoized so that ``adjoint(adjoint(T)) is T`` holds exactly,
    with no repeated floating-point work.
    """

    __slots__ = ("entries", "domain", "codomain", "_adj")

    def __init__(self, entries, domain, codomain):
        entries = _frozen_csr(entries)
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
        if isinstance(other, MatrixOperator):
            if self.domain != other.codomain:
                raise TagMismatchError(
                    f"cannot compose: {self.domain.name} != {other.codomain.name}"
                )
            return MatrixOperator(self.entries @ other.entries, other.domain, self.codomain)
        return self.apply(other)

    def _require_same_tags(self, other):
        if self.domain != other.domain or self.codomain != other.codomain:
            raise TagMismatchError("operator tags differ")

    def __add__(self, other):
        self._require_same_tags(other)
        return MatrixOperator(self.entries + other.entries, self.domain, self.codomain)

    def __sub__(self, other):
        self._require_same_tags(other)
        return MatrixOperator(self.entries - other.entries, self.domain, self.codomain)

    def __neg__(self):
        return MatrixOperator(-self.entries, self.domain, self.codomain)

    def __mul__(self, scalar):
        return MatrixOperator(self.entries * float(scalar), self.domain, self.codomain)

    __rmul__ = __mul__

    def adjoint(self):
        if self._adj is None:
            # the CSC arrays of T are the CSR arrays of T^T; entry (j, i) is
            # t[i, j] * w_cod[i] / w_dom[j], in that order (under uniform weights
            # not always bitwise t[i, j], so MaterialLaw checks W M0 instead)
            csc = self.entries.tocsc()
            rows = np.repeat(np.arange(self.domain.dim), np.diff(csc.indptr))
            data = csc.data * self.codomain.weight[csc.indices] / self.domain.weight[rows]
            adj_entries = sp.csr_matrix((data, csc.indices, csc.indptr),
                                        shape=(self.domain.dim, self.codomain.dim))
            adj = MatrixOperator(adj_entries, self.codomain, self.domain)
            object.__setattr__(adj, "_adj", self)
            object.__setattr__(self, "_adj", adj)
        return self._adj

    def with_adjoint(self, adj_entries):
        """Attach a precomputed adjoint (used where it is exact by construction)."""
        adj = MatrixOperator(adj_entries, self.codomain, self.domain)
        object.__setattr__(adj, "_adj", self)
        object.__setattr__(self, "_adj", adj)
        return self

    def __repr__(self):
        return (
            f"MatrixOperator({self.codomain.dim}x{self.domain.dim}, "
            f"{self.domain.name} -> {self.codomain.name})"
        )


def identity(tag: SpaceTag) -> MatrixOperator:
    return MatrixOperator(sp.identity(tag.dim, format="csr"), tag, tag)


def zero(domain: SpaceTag, codomain: SpaceTag) -> MatrixOperator:
    return MatrixOperator(sp.csr_matrix((codomain.dim, domain.dim)), domain, codomain)


def block_diag(ops, name=None) -> MatrixOperator:
    """Direct sum of operators, acting blockwise."""
    ops = list(ops)
    dom = direct_sum_tags([o.domain for o in ops], name=name)
    cod = direct_sum_tags([o.codomain for o in ops], name=name)
    return MatrixOperator(sp.block_diag([o.entries for o in ops], format="csr"), dom, cod)


def _off_diagonal(upper, lower):
    """The square block matrix [[0, upper], [lower, 0]] from two CSR blocks.

    Assembled from the blocks' arrays: sp.bmat's per-call overhead would
    dominate on the small operators of the verify suite.
    """
    n0, n1 = upper.shape
    return sp.csr_matrix(
        (np.concatenate([upper.data, lower.data]),
         np.concatenate([upper.indices + n0, lower.indices]),
         np.concatenate([upper.indptr, lower.indptr[1:] + upper.nnz])),
        shape=(n0 + n1, n0 + n1),
    )


def weighted_singular_values(op: MatrixOperator) -> np.ndarray:
    """Singular values of T with respect to the weighted norms on both sides."""
    m = op.to_dense()
    sw_cod = np.sqrt(op.codomain.weight)
    sw_dom = np.sqrt(op.domain.weight)
    return np.linalg.svd(sw_cod[:, None] * m / sw_dom[None, :], compute_uv=False)


def _diagonal(entries) -> bool:
    """Whether a square CSR matrix stores entries on its diagonal only."""
    counts = np.diff(entries.indptr)
    return counts.max(initial=0) <= 1 and np.array_equal(entries.indices, np.flatnonzero(counts))


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


def weighted_spectrum(op: MatrixOperator, *others: MatrixOperator,
                      rank_tol: float = DEFAULT_RANK_TOL):
    """Eigendecomposition of a weighted-selfadjoint operator along its coupling blocks.

    The joint sparsity pattern of op and `others` cuts them into diagonal
    blocks, diagonalized in weighted-orthonormal coordinates by one batched
    eigh per block size.  Returns rank_tol * max(|eigenvalue|, 1) and per size
    (index, ascending eigenvalues, eigenvectors Q, [Q^T sym(B) Q for B in others]).
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
    cutoff = rank_tol * max(max(float(np.abs(g[1]).max()) for g in groups), 1.0)
    return cutoff, groups


def spectral_function(groups, f, space: SpaceTag) -> MatrixOperator:
    """f(T) from weighted_spectrum(T), f acting elementwise on eigenvalues.

    Each block is symmetrized, then scaled by sw_j / sw_i (exactly 1 under uniform weights).
    """
    sw = np.sqrt(space.weight)
    out = sp.csr_matrix((space.dim, space.dim))
    for index, values, q, _ in groups:
        block = (q * f(values)[:, None, :]) @ q.transpose(0, 2, 1)
        rows, cols = np.broadcast_arrays(index[:, :, None], index[:, None, :])
        data = 0.5 * (block + block.transpose(0, 2, 1)) * (sw[cols] / sw[rows])
        out = out + sp.csr_matrix((data.ravel(), (rows.ravel(), cols.ravel())), shape=out.shape)
    return MatrixOperator(out, space, space)


def make_block_skew(C: MatrixOperator) -> MatrixOperator:
    """Assemble A = [[0, -C*], [C, 0]] with its adjoint attached as the exact negation.

    The adjoint really is the entrywise negation (the off-diagonal blocks are
    adjoints of each other by construction), so A + A* vanishes identically,
    with no floating-point arithmetic involved.
    """
    space = direct_sum_tags([C.domain, C.codomain])
    ent = _off_diagonal(-C.adjoint().entries, C.entries)
    A = MatrixOperator(ent, space, space)
    return A.with_adjoint(-A.entries)


def skew_defect(A: MatrixOperator) -> float:
    """Max-entry norm of A + A*."""
    if A.domain != A.codomain:
        raise TagMismatchError("skew defect needs domain == codomain")
    return (A + A.adjoint()).max_abs()


@dataclass(frozen=True)
class CompatibilityReport:
    """Quantitative stand-in for compatibility of a bounded map B with C.

    In finite dimensions C B* is always everywhere defined, so the dense-
    definedness clause is vacuous; what survives as a usable hypothesis is
    that B* has a bounded left-inverse, i.e. full column rank with a
    smallest weighted singular value above the cutoff.
    """

    left_invertible: bool
    smallest_singular_value: float
    rank_tol: float


def check_compatibility(C: MatrixOperator, B: MatrixOperator,
                        rank_tol: float = DEFAULT_RANK_TOL) -> CompatibilityReport:
    """Report whether B (H0 -> X) is compatible with C (H0 -> H1)."""
    if C.domain != B.domain:
        raise TagMismatchError(
            f"B and C must share their domain: {B.domain.name} != {C.domain.name}"
        )
    svals = weighted_singular_values(B.adjoint())
    smax = float(svals[0]) if svals.size else 0.0
    smin = float(svals[-1]) if svals.size else 0.0
    # B*: X -> H0 must be injective, i.e. no weighted singular value collapses.
    full_rank = B.codomain.dim <= B.domain.dim and smin > rank_tol * max(smax, 1e-300)
    return CompatibilityReport(
        left_invertible=full_rank,
        smallest_singular_value=smin,
        rank_tol=rank_tol,
    )


def make_relative(C: MatrixOperator, B0: MatrixOperator,
                  B1: MatrixOperator) -> MatrixOperator:
    """The (B0, B1)-relative [[0, -B0 C* B1*], [B1 C B0*, 0]] of [[0, -C*], [C, 0]].

    B0 maps H0 to X, B1 maps H1 to Y.  B0* must have a bounded left-inverse;
    when one of B0, B1 is not a bijection the result is a proper descendant,
    when both are unitary it is the conjugate (B0 (+) B1) A (B0 (+) B1)*.
    """
    rep0 = check_compatibility(C, B0)
    if not rep0.left_invertible:
        raise PreconditionError(
            "B0* has no bounded left-inverse (smallest weighted singular value "
            f"{rep0.smallest_singular_value:.3e} below cutoff); the relative "
            "construction hypothesis fails"
        )
    lower = B1 @ C @ B0.adjoint()
    upper = B0 @ C.adjoint() @ B1.adjoint()
    space = direct_sum_tags([B0.codomain, B1.codomain])
    return MatrixOperator(_off_diagonal(-upper.entries, lower.entries), space, space)
