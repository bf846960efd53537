"""Affine material laws M0 + (time-integral) M1 and their structural checks.

A law pairs a selfadjoint M0 (the instantaneous part, allowed to be
singular) with an arbitrary M1 (the zero-order part).  Well-posedness of
the associated evolution needs M0 >= 0, strict positivity of M0 on its
range, and strict positivity of the symmetric part of M1 compressed to the
kernel of M0; check_wellposed decides these per block by linops.rank_cut on
the equilibrated law, whose every coordinate has unit scale, and gives the
exact weight nu* beyond which nu M0 + sym(M1) is positive definite.

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

from .linops import MatrixOperator, TagMismatchError, _diagonal, rank_cut, weighted_spectrum


class MaterialLawError(ValueError):
    """Structural violation in a material law."""


class StepFailureError(RuntimeError):
    """A time-step matrix could not be factored."""


# Largest condition estimate kappa_1 of a step matrix still accepted as nonsingular.
CONDITION_LIMIT = 1e15


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
    """Pair (M0, M1) of square operators on one space, M0 selfadjoint: equal to
    its weighted transpose, bitwise under a uniform weight (every grid space)
    and to 1e-14 of its largest entry otherwise."""

    m0: MatrixOperator
    m1: MatrixOperator

    def __post_init__(self):
        if self.m0.domain != self.m0.codomain:
            raise MaterialLawError("M0 must be square on one space")
        if self.m1.domain != self.m0.domain or self.m1.codomain != self.m0.codomain:
            raise TagMismatchError("M1 must live on the same space as M0")
        # a plain ValueError: non-finite entries are bad input, not a law that fails
        if not (np.isfinite(self.m0.entries.data).all() and np.isfinite(self.m1.entries.data).all()):
            raise ValueError("M0 and M1 must have finite entries")
        # a diagonal M0 is selfadjoint under any weights, and is not tested
        if _diagonal(self.m0.entries):
            return
        defect = float(abs(self.m0.entries - self.m0._weighted_transpose()).max())
        w = self.m0.domain.weight
        allowed = 0.0 if np.all(w == w[0]) else 1e-14 * self.m0.max_abs()
        if not defect <= allowed:
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
    nu_threshold: float

    @property
    def passed(self) -> bool:
        return self.m0_nonneg and self.kernel_block_positive


def _equilibrated(mlaw: MaterialLaw):
    """M0 and sym(M1), congruent by D^-1/2 (check_wellposed), by scaling their CSR data,
    each as (operator, k) times an exact 2^-k: formed from the np.frexp mantissas and
    exponents of the factors, rounded as their plain product, with k = 0 unless an
    entry would reach 2^512, so that no entry, sum or product of two overflows."""
    d0, d1 = mlaw.m0.entries.diagonal(), mlaw.m1.entries.diagonal()
    mant, exp = np.frexp(1.0 / np.sqrt(np.abs(np.where(d0 != 0, d0, np.where(d1 != 0, d1, 1.0)))))
    for ent, factor in ((mlaw.m0.entries, 1.0), (mlaw.m1.entries + mlaw.m1.adjoint().entries, 0.5)):
        rows, cols = np.repeat(np.arange(ent.shape[0]), np.diff(ent.indptr)), ent.indices
        m, e = np.frexp(ent.data)
        e += exp[rows] + exp[cols]
        k = max(int(e.max(initial=0, where=m != 0)) - 512, 0)
        data = np.ldexp(factor * m * mant[rows] * mant[cols], e - k)
        yield MatrixOperator._owning(type(ent)((data, ent.indices, ent.indptr), shape=ent.shape),
                                     mlaw.space, mlaw.space), k


def _eigvalsh(stack):
    """Ascending eigenvalues of a stack of symmetric blocks (n, s, s); a 1x1 block is its own."""
    return stack[:, :, 0] if stack.shape[1] == 1 else np.linalg.eigvalsh(stack)


def check_wellposed(mlaw: MaterialLaw) -> WellposednessReport:
    """Verify the structural sufficient conditions for a solvable law.

    M0 (selfadjoint, as MaterialLaw checks) must be nonnegative with a
    strictly positive range block; on the kernel of M0 the symmetric part
    of M1 must be strictly positive definite.  Both are judged on the law
    equilibrated by the congruence D^-1/2 . D^-1/2 of M0 and sym(M1), D =
    |diag M0|, |diag sym(M1)| where that is 0 and 1 where both are: it keeps
    every sign and kernel (Sylvester) and gives each coordinate unit scale,
    so no change of units changes a verdict.  Ranks are by rank_cut, M0's
    per coupling block and sym(M1)'s per compressed kernel block.
    nu_threshold is the exact nu* past which nu M0 + sym(M1) is positive
    definite (it is singular at nu*): per block the top eigenvalue of the
    pencil (-Sigma, M0's range block), Sigma the Schur complement of sym(M1)
    onto M0's range; -inf when M0 has no range, inf when the law fails.
    A block of sym(M1) whose largest |entry| is 2^e with |e| > 512 (a
    subnormal one after the equilibration, where D came from M0) is judged
    at unit scale, times the exact 2^-e, and its nu* is put back by 2^e.
    """
    m0_nonneg, kernel_block_positive, nu = True, True, -np.inf
    (m0, k0), (sym_m1, k1) = _equilibrated(mlaw)
    # blockwise is exact (both are block diagonal); eigh sorts ascending: kernel first
    for _, values, _, (s,) in weighted_spectrum(m0, sym_m1):
        cut = rank_cut(values, axis=1)
        m0_nonneg &= bool((values >= -cut).all())
        kernel_dims = np.count_nonzero(values <= cut, axis=1)
        e = np.frexp(np.abs(s).max(axis=(1, 2)))[1]
        e = np.where(np.abs(e) > 512, e, 0)
        s = np.ldexp(s, -e[:, None, None])
        for k in np.unique(kernel_dims):
            blocks = kernel_dims == k
            s_k, root = s[blocks], 1.0 / np.sqrt(values[blocks, k:])
            schur = s_k[:, k:, k:]
            if k:
                kernel_values = _eigvalsh(s_k[:, :k, :k])
                positive = bool((kernel_values > rank_cut(kernel_values, axis=1)).all())
                kernel_block_positive &= positive
                if not positive or k == s.shape[1]:
                    continue
                schur = schur - s_k[:, k:, :k] @ np.linalg.solve(s_k[:, :k, :k], s_k[:, :k, k:])
            pencil = -schur * root[:, :, None] * root[:, None, :]
            with np.errstate(over="ignore"):  # the law's nu*, 2^(e + k1 - k0) times the pencil's
                nu = max(nu, float(np.ldexp(_eigvalsh(pencil)[:, -1], e[blocks] + k1 - k0).max()))
    passed = m0_nonneg and kernel_block_positive
    return WellposednessReport(m0_nonneg, kernel_block_positive, nu + 0.0 if passed else np.inf)


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
    Schur complements are inverted once, each under one guarded_inverses,
    so a singular or badly conditioned kernel block or Schur complement
    raises StepFailureError, as the step of `solve` does.
    """
    groups = []  # (index, u_r, u_k, pi_r, pi_k, s_rr, s_rk, s_kr, s_kk)
    for (index, u_r), (_, u_k) in zip(p_range.groups, p_kernel.groups):
        r, u = u_r.shape[2], np.concatenate([u_r, u_k], axis=2)
        pi = u.conj().transpose(0, 2, 1)
        s = pi @ symbols[index] @ u
        groups.append((index, u_r, u_k, pi[:, :r], pi[:, r:],
                       s[:, :r, :r], s[:, :r, r:], s[:, r:, :r], s[:, r:, r:]))
    kk_invs = guarded_inverses([s_kk for *_, s_kk in groups])
    schur_invs = guarded_inverses([s_rr - s_rk @ kk_inv @ s_kr for (*_, s_rr, s_rk, s_kr, _), kk_inv
                                   in zip(groups, kk_invs)])
    inverse = np.empty_like(symbols)
    for (index, u_r, u_k, pi_r, pi_k, _, s_rk, s_kr, _), kk_inv, schur_inv in zip(
            groups, kk_invs, schur_invs):
        inverse[index] = ((u_r - u_k @ kk_inv @ s_kr) @ schur_inv @ (pi_r - s_rk @ kk_inv @ pi_k)
                          + u_k @ kk_inv @ pi_k)
    return inverse

