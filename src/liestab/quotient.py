"""Quotients of a vector space / Lie algebra by a subspace or ideal.

The quotient modulo V is realized in orthogonal-complement coordinates: the
projection matrix P consists of the transposed orthonormal basis of the
complement of V, and the embedding iota is its transpose.  With this choice
P @ iota is exactly the identity, the quotient norm inf_{v in V} ||x + v||
equals ||P x||_2, and iota has unit operator norm.
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
    """Projection onto, and embedding from, the quotient modulo an ideal.

    Attributes
    ----------
    P : (q, d) canonical projection in complement coordinates, q = d - dim V.
    iota : (d, q) minimum-norm right inverse of P (P @ iota = I).
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
        self.iota = comp.copy()

    @property
    def quotient_dim(self) -> int:
        return self.P.shape[0]

    def project(self, x) -> np.ndarray:
        return self.P @ np.asarray(x, dtype=float)

    def embed(self, u) -> np.ndarray:
        return self.iota @ np.asarray(u, dtype=float)

    def quotient_norm(self, x) -> float:
        """inf_{v in V} ||x + v|| for the Euclidean norm; exact by construction."""
        return float(np.linalg.norm(self.project(x)))

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
    """kron(I_n, P) A kron(I_n, iota): the unique map with Abar kron(I_n, P) = kron(I_n, P) A
    on n stacked slots (n read off A's shape; one slot for a d x d map).  InvarianceViolation
    unless A preserves the ideal in every slot within INVARIANCE_TOL * max(1, ||A||)."""
    A = np.asarray(A, dtype=float)
    resid = invariance_residual(ctx.ideal, A)
    if resid > INVARIANCE_TOL * max(1.0, float(np.linalg.norm(A))):
        raise InvarianceViolation(resid)
    n = A.shape[0] // ctx.algebra.dim
    return _slotwise(ctx.P, _slotwise(ctx.iota.T, A, n).T, n).T


def is_ideal(algebra: LieAlgebra, sub: Subspace) -> bool:
    return sub.contains(subspace_bracket(algebra, algebra.full_subspace(), sub), INVARIANCE_TOL)


def quotient_algebra(ctx: QuotientContext) -> LieAlgebra:
    """Lie algebra structure on the quotient modulo an ideal.

    The bracket of cosets is computed through representatives:
    [u, v]_quot = P [iota u, iota v]; well-defined exactly when the factored
    subspace is an ideal.
    """
    if not is_ideal(ctx.algebra, ctx.ideal):
        raise ValueError("cannot form a quotient algebra: subspace is not an ideal")
    Cq = ctx.algebra.bracket_many(ctx.iota.T[:, None], ctx.iota.T[None]) @ ctx.P.T
    labels = [f"q{i+1}" for i in range(ctx.quotient_dim)]
    return LieAlgebra(Cq, labels=labels, name=f"{ctx.algebra.name}/V" if ctx.algebra.name else "")


# -- norm adapted to a linear map -------------------------------------------


@dataclass
class AdaptedNorm:
    """Invertible T defining ||x||_T = ||T^{-1} x||_2 with ||A||_T < rho(A) + eps."""

    transform: np.ndarray
    inverse: np.ndarray
    epsilon: float
    target_map: np.ndarray
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

    Real Schur form (scipy.linalg.schur, imported here rather than at module load),
    2x2 complex-pair blocks balanced to rotation-scaling shape, then geometric damping
    of the off-diagonal blocks by diag(delta^b) with b the block index.  Jordan form is
    avoided on purpose; the Schur route is numerically stable; it fails (RuntimeError)
    only when the damping that epsilon needs would leave the scaled matrix non-finite.
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    n = A.shape[0]
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if n == 0:
        eye = np.zeros((0, 0))
        return AdaptedNorm(eye, eye, epsilon, A, 0.0, 0.0)
    rho = float(np.max(np.abs(np.linalg.eigvals(A)))) if n else 0.0
    import scipy.linalg  # numpy has no real Schur form
    T_schur, Q = scipy.linalg.schur(A, output="real")

    # per-block balance: standardized 2x2 blocks have equal diagonal and
    # subdiag*superdiag < 0; diag(1, t) with t = sqrt(|c/b|) makes the block
    # a rotation-scaling whose 2-norm equals its eigenvalue modulus
    bal = np.ones(n)
    blocks = []  # block index of each row
    i = 0
    b = 0
    while i < n:
        if i + 1 < n and T_schur[i + 1, i] != 0.0:
            c = T_schur[i + 1, i]
            bb = T_schur[i, i + 1]
            if bb != 0.0:
                bal[i + 1] = np.sqrt(abs(c / bb))
            blocks.extend([b, b])
            i += 2
        else:
            blocks.append(b)
            i += 1
        b += 1
    S = np.diag(bal)
    Sinv = np.diag(1.0 / bal)
    base = Q @ S
    base_inv = Sinv @ Q.T

    blocks_arr = np.array(blocks, dtype=float)
    balanced = base_inv @ A @ base
    delta = 1.0
    for _ in range(2000):
        D = delta ** blocks_arr
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            Tinv_A_T = balanced * np.outer(1.0 / D, D)
        if not np.isfinite(Tinv_A_T).all():
            break  # delta ** b under- or overflows from here on
        nrm = float(np.linalg.norm(Tinv_A_T, 2))
        if nrm < rho + epsilon:
            T = base * D[np.newaxis, :]
            Tinv = base_inv / D[:, np.newaxis]
            return AdaptedNorm(T, Tinv, float(epsilon), A, rho, nrm)
        delta *= 0.5
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
        self.chain = chain
        self.contexts = [QuotientContext(algebra, s) for s in chain.ideals]

    @property
    def depth(self) -> int:
        return len(self.contexts) - 1

    def __getitem__(self, i: int) -> QuotientContext:
        return self.contexts[i]

    def __len__(self) -> int:
        return len(self.contexts)

    def embed_project(self, i: int) -> np.ndarray:
        """Matrix of iota_i P_i (orthogonal projector onto the complement)."""
        ctx = self.contexts[i]
        return ctx.iota @ ctx.P


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


def central_word_residual(proj: ChainProjections, letters: Sequence[np.ndarray],
                          level: Optional[int] = None) -> float:
    """Residual of the projected-word identity along a lower central series.

    For each level i >= 1, projecting a word equals projecting the word whose
    letters were each passed through iota_{i-1} P_{i-1}; the discarded parts
    land at least one ideal deeper and are annihilated by P_i.  Valid when the
    chain is the lower central series of the whole algebra.
    """
    alg = proj.algebra
    levels = range(1, proj.depth + 1) if level is None else [level]
    worst = 0.0
    for i in levels:
        lhs = proj[i].project(bracket_word(alg, letters))
        filt = proj.embed_project(i - 1)
        rhs = proj[i].project(bracket_word(alg, [filt @ y for y in letters]))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def layered_word_residual(proj: ChainProjections, letters: Sequence[np.ndarray],
                          level: Optional[int] = None) -> float:
    """Residual of the projected-word decomposition for a proper ideal chain.

    Here the chain ideals need not exhaust the algebra, so projecting a word
    leaves |w| correction terms: term j keeps letter j filtered through
    (I - iota_{i-1} P_{i-1}) while every other letter passes through
    iota_0 P_0.
    """
    alg = proj.algebra
    letters = [np.asarray(y, dtype=float) for y in letters]
    levels = range(1, proj.depth + 1) if level is None else [level]
    filt0 = proj.embed_project(0)
    eye = np.eye(alg.dim)
    worst = 0.0
    for i in levels:
        filt = proj.embed_project(i - 1)
        lhs = proj[i].project(bracket_word(alg, letters))
        total = bracket_word(alg, [filt @ y for y in letters])
        for j in range(len(letters)):
            corr = [(filt0 @ y) for y in letters]
            corr[j] = (eye - filt) @ letters[j]
            total = total + bracket_word(alg, corr)
        worst = max(worst, float(np.linalg.norm(lhs - proj[i].project(total))))
    return worst


def collapse_identity_residual(proj: ChainProjections, level: Optional[int] = None) -> float:
    """Residual of iota_0 P_0 iota_{i-1} P_{i-1} = iota_0 P_0 (matrix norm)."""
    filt0 = proj.embed_project(0)
    levels = range(1, proj.depth + 1) if level is None else [level]
    worst = 0.0
    for i in levels:
        diff = filt0 @ proj.embed_project(i - 1) - filt0
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst
