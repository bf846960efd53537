"""Tensor fields on flat product grids and their exact-adjoint calculus.

A grid is a list of axes, each either a Dirichlet interval axis or a torus
axis of total measure one.  Rank-k covariant tensor fields are stored
component-major: the flat index is (component, point) with components
ordered lexicographically by multi-index and points in C order over the
axes.  The derivative prepends its direction as the outermost component
slot, so nabla maps rank k to rank k+1.  In this layout every pointwise map
(the derivative's component blocks, subspace coordinates, torus averages)
is sp.kron(component map, point map).

Forward differences with a zero ghost value (or periodic wraparound)
realize the compactly-supported derivative; the divergence is defined as
minus its weighted adjoint, which makes the discrete integration-by-parts
identity <nabla u, v> + <u, div v> = 0 hold to machine precision on every
grid, not just up to O(h).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial, reduce

import numpy as np
import scipy.sparse as sp

from .linops import (MatrixOperator, SpaceTag, _frozen_csr, direct_sum_tags,
                     make_block_skew)

DIRICHLET = "dirichlet"
PERIODIC = "periodic"

DEFAULT_MAX_RANK = 3


@dataclass(frozen=True)
class Axis:
    """One grid direction: n points with spacing h and a boundary condition.

    Torus axes must carry total measure one (n * h == 1).  A Dirichlet axis
    represents the interior points of an interval with zero boundary values;
    for even/odd decompositions it is read as symmetric about 0 with no
    point at the origin.
    """

    n: int
    h: float
    bc: str = DIRICHLET

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"axis needs at least 2 points, got {self.n}")
        if not 0 < self.h < np.inf:
            raise ValueError(f"axis spacing must be positive and finite, got {self.h}")
        if self.bc not in (DIRICHLET, PERIODIC):
            raise ValueError(f"unknown boundary condition {self.bc!r}")
        if self.bc == PERIODIC and abs(self.n * self.h - 1.0) > 1e-12:
            raise ValueError(
                f"torus axis must have total measure 1, got n*h = {self.n * self.h}"
            )

    @staticmethod
    def dirichlet(n, h):
        return Axis(n=n, h=h, bc=DIRICHLET)

    @staticmethod
    def torus(n):
        return Axis(n=n, h=1.0 / n, bc=PERIODIC)

    @staticmethod
    def interval(n, length=1.0):
        """n interior points of (0, length) with zero boundary values."""
        return Axis(n=n, h=length / (n + 1), bc=DIRICHLET)

    @staticmethod
    def symmetric(n, h):
        """Even number of points placed symmetrically about 0, none at 0."""
        if n % 2:
            raise ValueError("symmetric axis needs an even point count")
        return Axis(n=n, h=h, bc=DIRICHLET)

    def points(self):
        if self.bc == PERIODIC:
            return (np.arange(self.n) - self.n // 2) * self.h
        return (np.arange(self.n) - (self.n - 1) / 2.0) * self.h

    def interval_points(self):
        """Interior points of (0, (n + 1) h); matches Axis.interval spacing."""
        return (np.arange(self.n) + 1.0) * self.h


def point_count(axes):
    """Number of grid points of the axes (1 for no axis)."""
    return math.prod(a.n for a in axes)


def _axes_name(axes):
    return "x".join(f"{a.n}{'p' if a.bc == PERIODIC else 'd'}(h={a.h:.6g})" for a in axes)


class _GridFields:
    """ncomp component fields over the points of axes, stored component-major."""

    @property
    def npoints(self):
        return point_count(self.axes)

    @property
    def dim(self):
        return self.npoints * self.ncomp

    @property
    def volume_weight(self):
        return float(reduce(lambda acc, a: acc * a.h, self.axes, 1.0))


@dataclass(frozen=True)
class TensorFieldSpace(_GridFields):
    """Discretized rank-k covariant tensor fields over a flat grid."""

    axes: tuple
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.rank < 0:
            raise ValueError("tensor rank must be >= 0")
        if not self.axes:
            raise ValueError("a grid needs at least one axis")

    @property
    def ndim(self):
        return len(self.axes)

    @property
    def ncomp(self):
        return self.ndim ** self.rank

    @property
    def tag(self):
        name = f"grid[{_axes_name(self.axes)}]rank{self.rank}"
        return SpaceTag(name, self.dim, np.full(self.dim, self.volume_weight))

    def component_index(self, alpha):
        """Flat component index of a multi-index (outermost slot first)."""
        alpha = tuple(alpha)
        if len(alpha) != self.rank:
            raise ValueError(f"multi-index length {len(alpha)} != rank {self.rank}")
        idx = 0
        for a in alpha:
            if not 0 <= a < self.ndim:
                raise ValueError(f"direction {a} out of range for {self.ndim} axes")
            idx = idx * self.ndim + a
        return idx

    def multi_indices(self):
        """All component multi-indices in flat (lexicographic) order."""
        if self.rank == 0:
            return [()]
        out = [()]
        for _ in range(self.rank):
            out = [mi + (d,) for mi in out for d in range(self.ndim)]
        return out

    def with_rank(self, rank):
        return TensorFieldSpace(self.axes, rank)


@dataclass(frozen=True)
class GridBlockSpace(_GridFields):
    """A labeled stack of same-grid component fields (non-tensorial layouts).

    Used for reduced component sets such as the (anti)symmetric rank-2
    coordinates or the scalar/vector stacks of the extended field systems.
    """

    axes: tuple
    labels: tuple
    name: str

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def ncomp(self):
        return len(self.labels)

    @property
    def tag(self):
        return SpaceTag(
            f"{self.name}[{_axes_name(self.axes)}]",
            self.dim,
            np.full(self.dim, self.volume_weight),
        )


def build_d1(axis: Axis) -> MatrixOperator:
    """1-d forward difference (u_{i+1} - u_i)/h with ghost u_n = 0 or wraparound."""
    n, h = axis.n, axis.h
    inv_h = 1.0 / h
    rows = np.arange(n)
    # the last point's forward neighbour is the zero ghost, or point 0 on a torus
    fwd = rows if axis.bc == PERIODIC else rows[:-1]
    D = sp.csr_matrix(
        (np.concatenate([np.full(n, -inv_h), np.full(len(fwd), inv_h)]),
         (np.concatenate([rows, fwd]), np.concatenate([rows, (fwd + 1) % n]))),
        shape=(n, n),
    )
    tag = SpaceTag(f"axis[{axis.n}{axis.bc[0]}(h={axis.h:.6g})]", n, np.full(n, h))
    return MatrixOperator(D, tag, tag)


@lru_cache(maxsize=64)
def point_derivative(axes: tuple, direction) -> sp.csr_matrix:
    """Partial difference along one axis on the flat point index (C order).

    Built once per (axes, direction) and shared: the returned CSR is
    read-only, so callers combine it into new matrices and never write it.
    """
    mats = [build_d1(a).entries if i == direction else sp.identity(a.n)
            for i, a in enumerate(axes)]
    return _frozen_csr(reduce(partial(sp.kron, format="csr"), mats))


def build_nabla(space: TensorFieldSpace) -> MatrixOperator:
    """Covariant derivative on a flat grid: (nabla T)_{i,alpha} = D_i T_alpha.

    The derivative direction is prepended as the outermost component slot.
    Dirichlet axes use the compactly-supported (zero ghost) stencil.
    """
    partials = [point_derivative(space.axes, d) for d in range(space.ndim)]
    blocks = [sp.kron(sp.identity(space.ncomp), P, format="csr") for P in partials]
    ent = sp.vstack(blocks, format="csr")
    target = space.with_rank(space.rank + 1)
    return MatrixOperator(ent, space.tag, target.tag)


def build_div(space_kplus1: TensorFieldSpace) -> MatrixOperator:
    """Tensorial divergence: minus the weighted adjoint of build_nabla.

    Defined on rank >= 1 fields and mapping to the matching rank-(k-1)
    space, so that <nabla u, v> + <u, div v> = 0 exactly.
    """
    if space_kplus1.rank < 1:
        raise ValueError("divergence needs tensor rank >= 1")
    lower = space_kplus1.with_rank(space_kplus1.rank - 1)
    return -build_nabla(lower).adjoint()


@dataclass(frozen=True)
class TensorStack:
    """The full state space: two copies of the rank-0..K tensor stack.

    H = (L2_0 + ... + L2_K) (+) (L2_0 + ... + L2_K); the first copy holds
    the "pressure-like" unknowns, the second the "flux-like" ones.  Block
    offsets index (copy, rank) slices of the flat coordinate vector.
    """

    axes: tuple
    max_rank: int = DEFAULT_MAX_RANK

    def __post_init__(self):
        object.__setattr__(self, "axes", tuple(self.axes))
        if self.max_rank < 1:
            raise ValueError("the stack needs max_rank >= 1")

    @property
    def spaces(self):
        return [TensorFieldSpace(self.axes, k) for k in range(self.max_rank + 1)]

    @property
    def half_dim(self):
        return sum(s.dim for s in self.spaces)

    @property
    def dim(self):
        return 2 * self.half_dim

    @property
    def half_tag(self):
        return direct_sum_tags([s.tag for s in self.spaces],
                               name=f"stack[{_axes_name(self.axes)}]K{self.max_rank}")

    @property
    def tag(self):
        return direct_sum_tags([self.half_tag, self.half_tag])

    def rank_offsets(self):
        offs, pos = [], 0
        for s in self.spaces:
            offs.append(pos)
            pos += s.dim
        return offs

    def block_slice(self, copy, rank):
        """Flat slice of one (copy, rank) block; copy is 0 or 1."""
        if copy not in (0, 1):
            raise ValueError("copy must be 0 or 1")
        if not 0 <= rank <= self.max_rank:
            raise ValueError(f"rank {rank} outside 0..{self.max_rank}")
        offs = self.rank_offsets()
        start = copy * self.half_dim + offs[rank]
        return slice(start, start + self.spaces[rank].dim)


def build_stack_derivative(stack: TensorStack) -> MatrixOperator:
    """The graded derivative C on one copy: rank k feeds rank k+1, top rank feeds 0."""
    spaces = stack.spaces
    n = len(spaces)
    blocks = [
        [sp.csr_matrix((spaces[r].dim, spaces[c].dim)) for c in range(n)]
        for r in range(n)
    ]
    for k in range(stack.max_rank):
        nab = build_nabla(spaces[k])
        blocks[k + 1][k] = nab.entries
    ent = sp.bmat(blocks, format="csr")
    return MatrixOperator(ent, stack.half_tag, stack.half_tag)


@lru_cache(maxsize=32)
def build_stack_skew(stack: TensorStack) -> MatrixOperator:
    """The parent operator [[0, -C*], [C, 0]] on the full tensor stack.

    Every catalog system in this package is obtained from this single
    operator by projections (plus unitary relabelings); it is
    skew-selfadjoint identically, for every grid and max rank.  It is
    built once per stack and shared (a MatrixOperator is immutable).
    """
    return make_block_skew(build_stack_derivative(stack))
