"""Affine material laws M0 + (time-integral) M1 and their structural checks.

A law pairs a selfadjoint M0 (the instantaneous part, allowed to be
singular) with an arbitrary M1 (the zero-order part).  Well-posedness of
the associated evolution needs M0 >= 0, strict positivity of M0 on its
range, and strict positivity of the symmetric part of M1 compressed to the
kernel of M0; check_wellposed quantifies these blockwise and produces a
conservative weight threshold from the standard 2x2 block positivity estimate.

Also here: the Schur-complement reduction of a step matrix onto the range
of a skew operator with the reconstruction recipe for the eliminated
kernel component, and blockwise coupling of laws.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .linops import (
    MatrixOperator,
    TagMismatchError,
    direct_sum_tags,
    weighted_spectrum,
)
from .subspaces import ProjectionPair


class MaterialLawError(ValueError):
    """Structural violation in a material law."""


class StepFailureError(RuntimeError):
    """A time-step matrix could not be factored."""


# Largest pivot ratio of an LU factor still accepted as nonsingular.
PIVOT_RATIO_LIMIT = 1e15


def check_pivots(pivots):
    """Reject an LU factor whose pivots are zero, non-finite or too spread.

    The ratio of the largest to the smallest pivot magnitude is a cheap
    condition estimate; above PIVOT_RATIO_LIMIT the factor is treated as
    numerically singular.  Raises StepFailureError.
    """
    pivots = np.abs(pivots)
    if not np.all(np.isfinite(pivots)) or pivots.min() == 0.0:
        raise StepFailureError("singular step matrix (zero or non-finite pivot)")
    ratio = pivots.max() / pivots.min()
    if ratio > PIVOT_RATIO_LIMIT:
        raise StepFailureError(
            f"step matrix numerically singular, condition estimate {ratio:.3e}"
        )


def guarded_lu(mat):
    """Dense LU factors of mat, checked by check_pivots (StepFailureError)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", sla.LinAlgWarning)
            lu = sla.lu_factor(mat)
    except ValueError as exc:  # non-finite entries
        raise StepFailureError(f"step matrix cannot be factored: {exc}") from exc
    check_pivots(np.diag(lu[0]))
    return lu


def symmetrize(op: MatrixOperator) -> MatrixOperator:
    return 0.5 * (op + op.adjoint())


@dataclass(frozen=True)
class MaterialLaw:
    """Pair (M0, M1) of square operators on one space, M0 selfadjoint."""

    m0: MatrixOperator
    m1: MatrixOperator

    def __post_init__(self):
        if self.m0.domain != self.m0.codomain:
            raise MaterialLawError("M0 must be square on one space")
        if self.m1.domain != self.m0.domain or self.m1.codomain != self.m0.codomain:
            raise TagMismatchError("M1 must live on the same space as M0")
        # W M0 must be symmetric: bitwise under uniform weights, where the
        # adjoint's t * w / w would not always round back to t
        w = self.m0.domain.weight
        wm0 = self.m0.entries.multiply(w[:, None]).tocsr()
        defect = float(abs((wm0 - wm0.T).multiply(1.0 / w[:, None])).max())
        uniform = bool(np.all(w == w[0]))
        allowed = 0.0 if uniform else 1e-14 * max(self.m0.max_abs(), 1.0)
        if defect > allowed:
            raise MaterialLawError(
                f"M0 must be selfadjoint as stored; defect {defect:.3e}"
            )

    @property
    def space(self):
        return self.m0.domain


@dataclass(frozen=True)
class WellposednessReport:
    m0_selfadjoint: bool
    m0_nonneg: bool
    kernel_block_positive: bool
    c0_estimate: float
    nu_threshold: float

    @property
    def passed(self) -> bool:
        return self.m0_selfadjoint and self.m0_nonneg and self.kernel_block_positive


def check_wellposed(mlaw: MaterialLaw, tol: float = 1e-12,
                    rank_tol: float = 1e-10) -> WellposednessReport:
    """Verify the structural sufficient conditions for a solvable law.

    M0 must be selfadjoint and nonnegative with a strictly positive range
    block; on the kernel of M0 the symmetric part of M1 must be strictly
    positive definite.  c0_estimate is the smaller of the two block
    constants; nu_threshold is a (conservative, non-sharp) weight beyond
    which nu*M0 + sym(M1) stays positive definite despite the off-diagonal
    coupling of sym(M1) between the two blocks.
    """
    m0, m1 = mlaw.m0, mlaw.m1
    sym_defect = (m0 - m0.adjoint()).max_abs()
    m0_selfadjoint = sym_defect <= tol

    cutoff, groups = weighted_spectrum(m0, symmetrize(m1), rank_tol=rank_tol)
    vals = np.concatenate([g[1].ravel() for g in groups])
    m0_nonneg = bool(vals.min() >= -max(tol, cutoff))
    c_r = float(vals[vals > cutoff].min(initial=np.inf))

    # blockwise is exact (both are block diagonal); eigh sorts ascending: kernel first
    c_k, coupling = np.inf, 0.0
    for _, values, _, (s,) in groups:
        kernel_dims = np.count_nonzero(values <= cutoff, axis=1)
        for k in np.unique(kernel_dims[kernel_dims > 0]):
            s_k = s[kernel_dims == k]
            c_k = min(c_k, float(np.linalg.eigvalsh(s_k[:, :k, :k]).min()))
            if k < s.shape[1]:
                coupling = max(coupling, np.linalg.norm(s_k[:, k:, :k], 2, axis=(1, 2)).max())
    kernel_block_positive = c_k > tol

    parts = [c for c in (c_r, c_k) if np.isfinite(c)]
    c0 = float(min(parts)) if parts else 0.0

    if not np.isfinite(c_r):
        nu_threshold = 0.0
    else:
        c_k_eff = c_k if np.isfinite(c_k) and c_k > 0 else 1.0
        c_r_eff = max(c_r, 1e-300)
        nu_threshold = (coupling ** 2 / (c_r_eff * c_k_eff) + 1.0) * max(1.0, 1.0 / c_r_eff)

    return WellposednessReport(
        m0_selfadjoint=m0_selfadjoint,
        m0_nonneg=m0_nonneg,
        kernel_block_positive=kernel_block_positive,
        c0_estimate=c0,
        nu_threshold=float(nu_threshold),
    )


@dataclass(frozen=True)
class ReconstructionRecipe:
    """Recovers the eliminated kernel component of a Schur-reduced solve.

    x_k = S_kk^-1 (f_k - S_kr x_r); assemble(full_rhs, x_r) returns the
    full-space solution embedding(range) x_r + embedding(kernel) x_k.  The
    range and kernel maps are kept as dense arrays: their bases are (real
    Fourier modes times) singular vectors, dense by nature.
    """

    pi_range: np.ndarray
    pi_kernel: np.ndarray
    emb_range: np.ndarray
    emb_kernel: np.ndarray
    s_kk_lu: tuple
    s_kr: np.ndarray
    s_rk: np.ndarray

    def kernel_component(self, rhs_full, x_r):
        f_k = self.pi_kernel @ rhs_full
        return sla.lu_solve(self.s_kk_lu, f_k - self.s_kr @ np.asarray(x_r))

    def reduce_rhs(self, rhs_full):
        f_r = self.pi_range @ rhs_full
        f_k = self.pi_kernel @ rhs_full
        return f_r - self.s_rk @ sla.lu_solve(self.s_kk_lu, f_k)

    def assemble(self, rhs_full, x_r):
        x_k = self.kernel_component(rhs_full, x_r)
        return self.emb_range @ x_r + self.emb_kernel @ x_k


def schur_reduce(S: MatrixOperator, p_range: ProjectionPair, p_kernel: ProjectionPair):
    """Eliminate the kernel block of a step matrix by its Schur complement.

    reduced = S_rr - S_rk S_kk^-1 S_kr on the range subspace, returned as a
    dense array (the range basis is dense); the recipe reconstructs the
    kernel component from the range solution, so solving the reduced system
    and reconstructing is equivalent to the full solve.
    Raises MaterialLawError when the kernel block is singular, i.e. when
    the strict positivity required of the reduced law fails.
    """
    pi_r, pi_k = p_range.pi.to_dense(), p_kernel.pi.to_dense()
    emb_r, emb_k = p_range.embedding.to_dense(), p_kernel.embedding.to_dense()
    s_emb_r, s_emb_k = S.entries @ emb_r, S.entries @ emb_k
    s_rr, s_rk = pi_r @ s_emb_r, pi_r @ s_emb_k
    s_kr, s_kk = pi_k @ s_emb_r, pi_k @ s_emb_k
    try:
        lu = guarded_lu(s_kk)
    except StepFailureError as exc:
        raise MaterialLawError(
            "kernel block of the step matrix is singular: the strict positive "
            "definiteness required of the reduced material law fails"
        ) from exc
    reduced = s_rr - s_rk @ sla.lu_solve(lu, s_kr)
    recipe = ReconstructionRecipe(pi_range=pi_r, pi_kernel=pi_k, emb_range=emb_r,
                                  emb_kernel=emb_k, s_kk_lu=lu, s_kr=s_kr, s_rk=s_rk)
    return reduced, recipe


def couple(laws, off_blocks=None) -> MaterialLaw:
    """Assemble a block law on the direct sum of the given laws' spaces.

    off_blocks maps (i, j) with i != j to a pair (m0_ij, m1_ij) of blocks,
    dense or sparse (either may be None); block (i, j) maps space j into
    space i.  M0 off-diagonal blocks are mirrored as their weighted adjoints
    to keep the global M0 selfadjoint; providing both (i, j) and (j, i)
    requires them to be exact adjoints of each other.
    """
    laws = list(laws)
    tags = [l.space for l in laws]
    m0 = [[None] * len(laws) for _ in laws]
    m1 = [[None] * len(laws) for _ in laws]
    for i, l in enumerate(laws):
        m0[i][i] = l.m0.entries
        m1[i][i] = l.m1.entries

    off_blocks = dict(off_blocks or {})
    for (i, j), (b0, b1) in off_blocks.items():
        if i == j:
            raise ValueError("off_blocks must be strictly off-diagonal")
        if b1 is not None:
            m1[i][j] = MatrixOperator(b1, tags[j], tags[i]).entries
        if b0 is not None:
            block = MatrixOperator(b0, tags[j], tags[i])
            mirror = block.adjoint().entries
            given = off_blocks.get((j, i), (None, None))[0]
            if given is not None and not np.array_equal(
                    MatrixOperator(given, tags[i], tags[j]).to_dense(), mirror.toarray()):
                raise MaterialLawError(
                    f"M0 off-blocks ({i},{j}) and ({j},{i}) are not adjoints; "
                    "the coupled M0 would not be selfadjoint"
                )
            m0[i][j] = block.entries
            if given is None:
                m0[j][i] = mirror

    space = direct_sum_tags(tags)
    return MaterialLaw(m0=MatrixOperator(sp.bmat(m0, format="csr"), space, space),
                       m1=MatrixOperator(sp.bmat(m1, format="csr"), space, space))
