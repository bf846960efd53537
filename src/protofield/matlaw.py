"""Affine material laws M0 + (time-integral) M1 and their structural checks.

A law pairs a selfadjoint M0 (the instantaneous part, allowed to be
singular) with an arbitrary M1 (the zero-order part).  Well-posedness of
the associated evolution needs M0 >= 0, strict positivity of M0 on its
range, and strict positivity of the symmetric part of M1 compressed to the
kernel of M0; check_wellposed quantifies these blockwise and produces a
conservative weight threshold from the standard 2x2 block positivity estimate.

Also here: the inverses of the symbols of a step matrix, one (m, m)
block per wavenumber of its cut, either symbol by symbol
(guarded_inverses) or through the Schur complement onto the range of a
skew operator with the reconstruction of the eliminated kernel component
(schur_reduce), and the sparse LU off a cut (guarded_lu).  All pass one
guard: kappa_1 = ||S||_1 ||S^-1||_1 of the step matrix S must not exceed
CONDITION_LIMIT, with ||S||_1 exact and ||S^-1||_1 exact from the
explicit inverses, or Hager's estimate from solves by the LU.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .linops import MatrixOperator, TagMismatchError, _diagonal, weighted_spectrum


class MaterialLawError(ValueError):
    """Structural violation in a material law."""


class StepFailureError(RuntimeError):
    """A time-step matrix could not be factored."""


# Largest condition estimate kappa_1 of a step matrix still accepted as nonsingular.
CONDITION_LIMIT = 1e15
# check_wellposed: a block constant must exceed it, an eigenvalue of M0 not fall below -it.
POSITIVITY_TOL = 1e-12


def _check_condition(estimate):
    if not estimate <= CONDITION_LIMIT:  # a nan estimate (non-finite entries) fails too
        raise StepFailureError("step matrix numerically singular, "
                               f"condition estimate {estimate:.3e}")


def _one_norm(stack):
    """The largest 1-norm (column sum) of the blocks of a stack (n, k, k)."""
    return float(np.abs(stack).sum(axis=1).max(initial=0.0))


def guarded_inverses(stacks):
    """Inverses of stacks of square blocks (n, k, k), by one np.linalg.inv per stack.

    All blocks are guarded together, as one block-diagonal matrix S: by
    kappa_1 = ||S||_1 ||S^-1||_1, the largest block 1-norm of the stacks
    times that of their inverses, exact from the explicit inverses.
    Non-finite entries, an exactly singular block, a non-finite inverse
    or kappa_1 above CONDITION_LIMIT raise StepFailureError.  Empty
    blocks pass.
    """
    inverses = []
    for m in stacks:
        if not np.isfinite(m).all():
            raise StepFailureError("step matrix cannot be factored: non-finite entries")
        try:
            inverses.append(np.linalg.inv(m) if m.size else m)
        except np.linalg.LinAlgError as exc:
            raise StepFailureError(f"singular step matrix: {exc}") from exc
    if not all(np.isfinite(inv).all() for inv in inverses):
        raise StepFailureError("singular step matrix (non-finite inverse)")
    norm = max((_one_norm(m) for m in stacks), default=0.0)
    _check_condition(norm * max((_one_norm(inv) for inv in inverses), default=0.0))
    return inverses


def guarded_lu(matrix):
    """The sparse LU of a square CSR step matrix S, guarded as guarded_inverses is:
    kappa_1 with ||S||_1 the largest column sum of the entries and ||S^-1||_1
    Hager's estimate (a lower bound, mostly exact) from at most three of his
    iterations, six solves by the factor.  StepFailureError as there, or on
    a non-finite solve.
    """
    try:
        lu = spla.splu(matrix.tocsc())
    except RuntimeError as exc:
        raise StepFailureError(f"singular step matrix: {exc}") from exc
    n = matrix.shape[0]
    x, inverse_norm = np.full(n, 1.0 / n), 0.0
    for _ in range(3):
        y = lu.solve(x)
        if not np.isfinite(y).all():
            raise StepFailureError("singular step matrix (non-finite solve)")
        inverse_norm = max(inverse_norm, float(np.abs(y).sum()))
        z = lu.solve(np.where(y < 0, -1.0, 1.0), "T")
        j = int(np.argmax(np.abs(z)))
        if abs(z[j]) <= z @ x:  # x is a local maximum of ||S^-1 x||_1
            break
        x = (np.arange(n) == j) * 1.0
    _check_condition(float(abs(matrix).sum(axis=0).max()) * inverse_norm)
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
        # adjoint's t * w / w would not always round back to t.  A diagonal
        # M0 is selfadjoint under any weights, and is not tested.
        if _diagonal(self.m0.entries):
            return
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
    m0_nonneg: bool
    kernel_block_positive: bool
    c0_estimate: float
    nu_threshold: float

    @property
    def passed(self) -> bool:
        return self.m0_nonneg and self.kernel_block_positive


def check_wellposed(mlaw: MaterialLaw) -> WellposednessReport:
    """Verify the structural sufficient conditions for a solvable law.

    M0 (selfadjoint, as MaterialLaw checks) must be nonnegative with a
    strictly positive range block; on the kernel of M0 the symmetric part
    of M1 must be strictly positive definite.  c0_estimate is the smaller
    of the two block constants; nu_threshold is a (conservative,
    non-sharp) weight beyond which nu*M0 + sym(M1) stays positive definite
    despite the off-diagonal coupling of sym(M1) between the two blocks.
    """
    cutoff, groups = weighted_spectrum(mlaw.m0, symmetrize(mlaw.m1))
    vals = np.concatenate([g[1].ravel() for g in groups])
    m0_nonneg = bool(vals.min() >= -max(POSITIVITY_TOL, cutoff))
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
    kernel_block_positive = c_k > POSITIVITY_TOL

    parts = [c for c in (c_r, c_k) if np.isfinite(c)]
    c0 = float(min(parts)) if parts else 0.0

    if not np.isfinite(c_r):
        nu_threshold = 0.0
    else:
        c_k_eff = c_k if np.isfinite(c_k) and c_k > 0 else 1.0
        c_r_eff = max(c_r, 1e-300)
        nu_threshold = (coupling ** 2 / (c_r_eff * c_k_eff) + 1.0) * max(1.0, 1.0 / c_r_eff)

    return WellposednessReport(
        m0_nonneg=m0_nonneg,
        kernel_block_positive=kernel_block_positive,
        c0_estimate=c0,
        nu_threshold=float(nu_threshold),
    )


def schur_reduce(symbols, p_range, p_kernel) -> np.ndarray:
    """S^-1 through the Schur complement on the range, wavenumber by wavenumber.

    p_range and p_kernel are the WavenumberPairs of one range_kernel_split,
    and symbols are S's on their cut (shift_cut cuts S with the split's
    operator, so S commutes with the shifts there).  At one wavenumber,
    with range and kernel bases u_r, u_k, coordinates f_r, f_k on them and
    the blocks S_rr, S_rk, S_kr, S_kk of S's symbol (formed in one batched
    product per group of equal kernel count), the range part solves the
    Schur complement R = S_rr - S_rk S_kk^-1 S_kr,
        z_r = R^-1 (f_r - S_rk S_kk^-1 f_k),
    and the kernel part is reconstructed as z_k = S_kk^-1 (f_k - S_kr z_r);
    the inverse returned, (N, m, m) like symbols, is the map
    f -> u_r z_r + u_k z_k at each wavenumber.  S_kk and then the
    Schur complements are inverted once, each under one guarded_inverses.
    Raises MaterialLawError when a kernel block is singular, i.e. when the
    strict positivity required of the reduced law fails, and
    StepFailureError when a Schur complement is.
    """
    groups = []  # (index, u_r, u_k, pi_r, pi_k, s_rr, s_rk, s_kr, s_kk)
    for (index, u_r), (_, u_k) in zip(p_range.groups, p_kernel.groups):
        r, u = u_r.shape[2], np.concatenate([u_r, u_k], axis=2)
        pi = u.conj().transpose(0, 2, 1)
        s = pi @ symbols[index] @ u
        groups.append((index, u_r, u_k, pi[:, :r], pi[:, r:],
                       s[:, :r, :r], s[:, :r, r:], s[:, r:, :r], s[:, r:, r:]))
    try:
        kk_invs = guarded_inverses([s_kk for *_, s_kk in groups])
    except StepFailureError as exc:
        raise MaterialLawError(
            "kernel block of the step matrix is singular: the strict positive "
            "definiteness required of the reduced material law fails"
        ) from exc
    schur_invs = guarded_inverses([s_rr - s_rk @ kk_inv @ s_kr for (*_, s_rr, s_rk, s_kr, _), kk_inv
                                   in zip(groups, kk_invs)])
    inverse = np.empty_like(symbols)
    for (index, u_r, u_k, pi_r, pi_k, _, s_rk, s_kr, _), kk_inv, schur_inv in zip(
            groups, kk_invs, schur_invs):
        inverse[index] = ((u_r - u_k @ kk_inv @ s_kr) @ schur_inv @ (pi_r - s_rk @ kk_inv @ pi_k)
                          + u_k @ kk_inv @ pi_k)
    return inverse

