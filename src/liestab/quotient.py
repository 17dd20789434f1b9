"""Quotients of a vector space / Lie algebra by a subspace or ideal.

The quotient modulo V is realized in orthogonal-complement coordinates: the
rows of the projection matrix P are an orthonormal basis of the complement of
V, and the embedding of the quotient is P.T.  With this choice P @ P.T is
exactly the identity, the quotient norm inf_{v in V} ||x + v|| equals
||P x||_2, P.T has unit operator norm, and P.T @ P is the orthogonal projector
onto the complement.  A level of a chain is its ideal and P.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import LieAlgebra, Subspace, IdealChain, subspace_bracket

INVARIANCE_TOL = 1e-10


class InvarianceViolation(ValueError):
    """Raised when a map does not preserve the subspace being factored out."""

    def __init__(self, residual: float):
        super().__init__(f"subspace is not invariant under the map (residual {residual:.3e})")
        self.residual = residual


def _complement_basis(ideal: Subspace, d: int, m: int) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of the ideal.

    Built greedily from the standard basis so that axis-aligned ideals get
    natural, readably ordered complement coordinates: each axis is projected
    off the ideal and off all accepted columns as two batched products, twice
    for stability.  Falls back to the SVD when no well-conditioned axis is left.
    """
    Q = np.zeros((d, d - m))
    q = 0
    for v in np.eye(d):
        for _ in range(2):
            v -= ideal.project(v)
            v -= Q @ (Q.T @ v)
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            Q[:, q] = v / nrm
            q += 1
            if q == d - m:
                return Q
    u, _, _ = np.linalg.svd(ideal.onb, full_matrices=True)
    return u[:, m:]


class QuotientContext:
    """The quotient modulo an ideal: the ideal and the projection P.

    P is the (q, d) canonical projection in complement coordinates, q = d - dim V;
    P.T is its minimum-norm right inverse, the embedding of the quotient.
    """

    def __init__(self, algebra: LieAlgebra, ideal: Subspace):
        if ideal.ambient_dim != algebra.dim:
            raise ValueError("ideal ambient dimension does not match algebra")
        self.algebra = algebra
        self.ideal = ideal
        d = algebra.dim
        m = ideal.dim
        if m == 0:
            comp = np.eye(d)
        elif m == d:
            comp = np.zeros((d, 0))
        else:
            comp = _complement_basis(ideal, d, m)
        self.P = comp.T.copy()

    @property
    def quotient_dim(self) -> int:
        return self.P.shape[0]

    def quotient_norm(self, x) -> float:
        """inf_{v in V} ||x + v|| for the Euclidean norm; exact by construction."""
        return float(np.linalg.norm(self.P @ np.asarray(x, dtype=float)))

    def __repr__(self) -> str:
        return f"QuotientContext(dim {self.algebra.dim} -> {self.quotient_dim})"


def _slotwise(M: np.ndarray, X: np.ndarray, k: int) -> np.ndarray:
    """M on each of the k slots of the last axis of X, i.e. X @ kron(I_k, M).T.

    kron(I, M) @ Y is ``_slotwise(M, Y.T, k).T``; Y @ kron(I, M) is ``_slotwise(M.T, Y, k)``.
    """
    X = np.asarray(X, dtype=float)
    lead = X.shape[:-1]
    return (X.reshape(*lead, k, M.shape[1]) @ M.T).reshape(*lead, k * M.shape[0])


def off_ideal_part(ideal: Subspace, Y: np.ndarray, k: int) -> np.ndarray:
    """Stacked vectors (last axis, k slots) minus their slot-wise projection onto the ideal."""
    return Y - _slotwise(ideal.onb, _slotwise(ideal.onb.T, Y, k), k)


def invariance_residual(ideal: Subspace, A: np.ndarray) -> float:
    """|| A B - B B^T A B || with B = kron(I_n, onb), n slots read off A's shape: how far
    A moves the ideal, taken in every slot, off itself (0 for the zero ideal)."""
    n = A.shape[0] // ideal.ambient_dim
    return float(np.linalg.norm(off_ideal_part(ideal, _slotwise(ideal.onb.T, A, n).T, n)))


def induced_map(ctx: QuotientContext, A) -> np.ndarray:
    """kron(I_n, P) A kron(I_n, P.T): the unique map with Abar kron(I_n, P) = kron(I_n, P) A
    on n stacked slots (n read off A's shape; one slot for a d x d map).  InvarianceViolation
    unless A preserves the ideal in every slot within INVARIANCE_TOL * max(1, ||A||)."""
    A = np.asarray(A, dtype=float)
    resid = invariance_residual(ctx.ideal, A)
    if resid > INVARIANCE_TOL * max(1.0, float(np.linalg.norm(A))):
        raise InvarianceViolation(resid)
    n = A.shape[0] // ctx.algebra.dim
    return _slotwise(ctx.P, _slotwise(ctx.P, A, n).T, n).T


def is_ideal(algebra: LieAlgebra, sub: Subspace) -> bool:
    return sub.contains(subspace_bracket(algebra, algebra.full_subspace(), sub), INVARIANCE_TOL)


def quotient_algebra(ctx: QuotientContext) -> LieAlgebra:
    """Lie algebra structure on the quotient modulo an ideal.

    The bracket of cosets is computed through representatives:
    [u, v]_quot = P [P.T u, P.T v]; well-defined exactly when the factored
    subspace is an ideal.
    """
    if not is_ideal(ctx.algebra, ctx.ideal):
        raise ValueError("cannot form a quotient algebra: subspace is not an ideal")
    Cq = ctx.algebra.bracket_many(ctx.P[:, None], ctx.P[None]) @ ctx.P.T
    labels = [f"q{i+1}" for i in range(ctx.quotient_dim)]
    return LieAlgebra(Cq, labels=labels, name=f"{ctx.algebra.name}/V" if ctx.algebra.name else "")


# -- norm adapted to a linear map -------------------------------------------


def spectral_radius(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(M))))


@dataclass
class AdaptedNorm:
    """Invertible T defining ||x||_T = ||T^{-1} x||_2 with ||A||_T < rho(A) + eps."""

    transform: np.ndarray
    inverse: np.ndarray
    spectral_radius: float
    certified_norm: float

    def vector_norm(self, x) -> float:
        return float(np.linalg.norm(self.inverse @ np.asarray(x, dtype=float)))

    def operator_norm(self, M) -> float:
        return float(np.linalg.norm(self.inverse @ np.asarray(M, dtype=float) @ self.transform, 2))

    def condition(self) -> float:
        return float(np.linalg.cond(self.transform, 2))


def adapted_norm(A: np.ndarray, epsilon: float) -> AdaptedNorm:
    """Build a vector norm in which the operator norm of A is < rho(A) + epsilon.

    A Stein sum: with B = A / r, r = rho + epsilon / 2, and m the first power of two
    with ||B^m||_2 < 1, P = sum_{k<m} (B^k)^T B^k is accumulated by doubling,
    P <- P + (B^m)^T P B^m, in at most 64 steps.  Then B^T P B = P - I + (B^m)^T B^m
    is below P, so T = P^{-1/2} (one eigh) gives ||A||_T < r.  P holds kappa(T)^2,
    so the sum leaves the float range (RuntimeError) past kappa of about 1e154.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n == 0:
        eye = np.zeros((0, 0))
        return AdaptedNorm(eye, eye, 0.0, 0.0)
    rho = spectral_radius(A)
    B = A / (rho + 0.5 * epsilon)
    P = np.eye(n)
    with np.errstate(all="ignore"):  # a sum past the float range ends in the RuntimeError
        for _ in range(64):
            if not (np.isfinite(B).all() and np.isfinite(P).all()):
                break
            if np.linalg.norm(B, 2) < 1.0:
                w, V = np.linalg.eigh(P)
                T = (V / np.sqrt(w)) @ V.T
                Tinv = (V * np.sqrt(w)) @ V.T
                scaled = Tinv @ A @ T  # checked, since rounding in P can spoil the bound
                if np.isfinite(scaled).all() and (nrm := float(np.linalg.norm(scaled, 2))) < rho + epsilon:
                    return AdaptedNorm(T, Tinv, rho, nrm)
                break
            P = P + B.T @ P @ B
            B = B @ B
    raise RuntimeError("adapted-norm scaling did not converge")


# -- chains of projections along a lower central series ----------------------


class ChainProjections:
    """Projections P_0, ..., P_p modulo the successive ideals of a series.

    Level i factors out the (i+1)-th ideal of the chain; the final level
    factors out the zero subspace, so its projection is an isometry onto the
    whole space.
    """

    def __init__(self, algebra: LieAlgebra, chain: IdealChain):
        if not chain.terminated:
            raise ValueError("chain must terminate at the zero subspace")
        self.algebra = algebra
        self.contexts = [QuotientContext(algebra, s) for s in chain.ideals]

    def __getitem__(self, i: int) -> QuotientContext:
        return self.contexts[i]

    def __len__(self) -> int:
        return len(self.contexts)


def bracket_word(algebra: LieAlgebra, letters: Sequence[np.ndarray]) -> np.ndarray:
    """Right-nested bracket [Y_1, [Y_2, [..., Y_m]...]] of concrete elements, or of
    stacks of them row by row (broadcast over leading axes); inputs are not checked."""
    letters = [np.asarray(y, dtype=float) for y in letters]
    if not letters:
        raise ValueError("a word needs at least one letter")
    w = letters[-1]
    for y in letters[-2::-1]:
        w = algebra.bracket_many(y, w)
    return w


def layered_word_residual(proj: ChainProjections, letters: Sequence[np.ndarray],
                          level: Optional[int] = None) -> float:
    """Residual of the projected-word decomposition along an ideal chain.

    Projecting a word by P_i leaves |w| correction terms beside the word whose
    letters all pass through F_{i-1} = P_{i-1}.T P_{i-1}: term j keeps letter j
    filtered through I - F_{i-1} while every other letter passes through F_0.
    On a lower central series of the whole algebra P_0 has no rows, so every
    correction term vanishes and the word of filtered letters alone projects
    the same.
    """
    alg = proj.algebra
    letters = [np.asarray(y, dtype=float) for y in letters]
    levels = range(1, len(proj)) if level is None else [level]
    filt0 = proj[0].P.T @ proj[0].P
    eye = np.eye(alg.dim)
    worst = 0.0
    for i in levels:
        filt = proj[i - 1].P.T @ proj[i - 1].P
        lhs = proj[i].P @ bracket_word(alg, letters)
        total = bracket_word(alg, [filt @ y for y in letters])
        for j in range(len(letters)):
            corr = [(filt0 @ y) for y in letters]
            corr[j] = (eye - filt) @ letters[j]
            total = total + bracket_word(alg, corr)
        worst = max(worst, float(np.linalg.norm(lhs - proj[i].P @ total)))
    return worst


def collapse_identity_residual(proj: ChainProjections, level: Optional[int] = None) -> float:
    """Residual of F_0 F_{i-1} = F_0 with F_i = P_i.T P_i (matrix norm)."""
    filt0 = proj[0].P.T @ proj[0].P
    levels = range(1, len(proj)) if level is None else [level]
    worst = 0.0
    for i in levels:
        diff = filt0 @ (proj[i - 1].P.T @ proj[i - 1].P) - filt0
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst
