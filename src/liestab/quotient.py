"""Quotients of a vector space / Lie algebra by a subspace or ideal.

The quotient modulo V is realized in orthogonal-complement coordinates: the
rows of the projection matrix P are an orthonormal basis of the complement of
V, and the embedding of the quotient is P.T.  With this choice P @ P.T is
exactly the identity, the quotient norm inf_{v in V} ||x + v|| equals
||P x||_2, P.T has unit operator norm, and P.T @ P is the orthogonal projector
onto the complement.  A chain of ideals is a flag, and one orthonormal basis Q adapted to it
(``flag_basis``) serves all its levels: a level is its ideal and P, the leading rows of Q.T, so
the levels of a chain are nested and share one set of coordinates.  A map A written once in them,
Q.T A Q slot by slot (``flag_coordinates``), holds every level's induced map and invariance
residual as two of its blocks (``level_block``): A keeps the levels when it is block-triangular,
by the one rule of ``invariance_bound``: residuals exactly 0 on a permutation Q, else within its rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .algebra import RANK_TOL, LieAlgebra, Subspace, IdealChain, subspace_bracket


class InvarianceViolation(ValueError):
    """Raised when a map moves the chain level being factored out off itself by more than
    ``invariance_bound``; its words are ``WordSeriesSystem.invariance_refusal``'s."""

    def __init__(self, level: int, residual: float, bound: float):
        super().__init__(f"A does not preserve chain level {level} (residual {residual:.3e}, bound {bound:.3e})")
        self.level, self.residual, self.bound = level, residual, bound


def flag_basis(ideals: Sequence[Subspace], d: int) -> np.ndarray:
    """Q.T for an orthonormal d x d basis Q adapted to a descending chain of subspaces: the
    trailing dim S columns of Q span each S, so the leading d - dim S rows of Q.T project modulo S.

    Deepest subspace first, then the whole space, each S with orthonormal basis B adds exactly
    dim S minus the j columns so far, no rank revealed: B times the trailing right singular
    vectors of Q.T B past the j-th, which span its null space, so they lie in S orthogonal to Q
    (the first S takes B itself, exact axes when S is a coordinate subspace: ``orthonormal_basis``).
    A new column gets the sign that makes its largest entry positive, and the new columns are
    sorted by the axis of that entry: an axis-aligned chain gets its axes, ascending within each
    step, and Q is a permutation."""
    rows = np.zeros((0, d))
    for B in [s.onb for s in reversed(ideals)] + [np.eye(d)]:
        if (k := B.shape[1] - len(rows)) > 0:
            new = np.linalg.svd(rows @ B)[2][-k:] @ B.T if len(rows) else B.T
            top = np.abs(new).argmax(axis=1)
            new = new * np.sign(new[np.arange(k), top])[:, None]
            rows = np.concatenate([new[top.argsort(kind="stable")], rows])
    return rows


class QuotientContext:
    """The quotient modulo an ideal: the ideal and the projection P.

    P is the (q, d) canonical projection in complement coordinates, q = d - dim V: the leading
    q rows of ``flag``, the ``flag_basis`` Q.T of V alone (of the whole chain for a chain level);
    P.T is its minimum-norm right inverse, the embedding of the quotient.
    """

    def __init__(self, algebra: LieAlgebra, ideal: Subspace, _flag: Optional[np.ndarray] = None):
        if ideal.ambient_dim != algebra.dim:
            raise ValueError("ideal ambient dimension does not match algebra")
        self.algebra = algebra
        self.ideal = ideal
        self.flag = flag_basis([ideal], algebra.dim) if _flag is None else _flag  # the whole Q.T
        self.P = self.flag[:algebra.dim - ideal.dim]

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


def flag_coordinates(flag: np.ndarray, A, n: int) -> np.ndarray:
    """kron(I_n, Q.T) A kron(I_n, Q) for ``flag`` = Q.T as an (n, d, n, d) array: A on n stacked
    slots in the flag's coordinates, each level of the flag a pair of its blocks (``level_block``)."""
    d = flag.shape[0]
    return _slotwise(flag, _slotwise(flag, A, n).T, n).T.reshape(n, d, n, d)


def level_block(F: np.ndarray, q: int) -> tuple:
    """(Abar, residual) of the flag level with q leading coordinates of F = ``flag_coordinates``:
    F[:, :q, :, :q] as an (n q, n q) matrix, kron(I, P) A kron(I, P.T) for P = Q.T[:q], and
    ||F[:, :q, :, q:]||_F, exactly ||(I - B B^T) A B||_F for any orthonormal basis B of the level's
    ideal h in every slot, since I - B B^T = kron(I, P.T P): how far A moves h off itself, taken over its
    largest entry, so that entries below 1e-154, whose squares underflow, still count."""
    n, off = F.shape[0], np.abs(F[:, :q, :, q:])
    top = float(off.max(initial=0.0))
    return F[:, :q, :, :q].reshape(n * q, n * q), top and top * float(np.linalg.norm(off / top))


def invariance_bound(flag: np.ndarray, A) -> float:
    """The largest ``level_block`` residual of A in ``flag`` = Q.T by which A keeps the level: 0 when Q is
    a permutation, whose ``flag_coordinates`` copy A's entries; else e = 2 d^2 u ||A||_F, u = 2^-53, what
    the flag product can round (two products of inner dimension d with an orthonormal Q, |Q| of 2-norm
    at most sqrt d), so A is within e of a map that keeps the level."""
    if ((flag == 0.0) | (flag == 1.0)).all():
        return 0.0
    return 2.0 ** -52 * flag.shape[0] ** 2 * float(np.linalg.norm(A))


def induced_map(ctx: QuotientContext, A) -> np.ndarray:
    """The Abar with Abar kron(I_n, P) = kron(I_n, P) A, n slots read off A's shape: the ``level_block``
    of A in ctx's own flag.  InvarianceViolation, naming ctx's ideal chain level 1, unless its
    residual is within ``invariance_bound``."""
    A = np.asarray(A, dtype=float)
    n = A.shape[0] // max(1, ctx.algebra.dim)  # a 0 x 0 map on a 0-dimensional algebra: any n
    Abar, resid = level_block(flag_coordinates(ctx.flag, A, n), ctx.quotient_dim)
    if not resid <= (bound := invariance_bound(ctx.flag, A)):  # NaN fails, as in invariance_refusal
        raise InvarianceViolation(1, resid, bound)
    return Abar


def is_ideal(algebra: LieAlgebra, sub: Subspace) -> bool:
    return sub.contains(subspace_bracket(algebra, algebra.full_subspace(), sub))


def quotient_algebra(ctx: QuotientContext) -> LieAlgebra:
    """Lie algebra structure on the quotient modulo an ideal.

    The bracket of cosets is computed through representatives:
    [u, v]_quot = P [P.T u, P.T v]; well-defined exactly when the factored
    subspace is an ideal.  Constants all within the parent's zero floor RANK_TOL ||C||_F (``subspace_bracket``)
    are rounding: they are set to 0, where the quotient's own floor, scaled by them, would read a rank.
    """
    if not is_ideal(ctx.algebra, ctx.ideal):
        raise ValueError("cannot form a quotient algebra: subspace is not an ideal")
    Cq = (ctx.P @ ctx.algebra.ad_many(ctx.P) @ ctx.P.T).swapaxes(1, 2)  # [a][c, b] = <P_c, [P_a, P_b]>
    Cq = Cq if np.abs(Cq).max(initial=0.0) > RANK_TOL * ctx.algebra._frobenius_norm else np.zeros_like(Cq)
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
    whole space.  Every level reads its P off the chain's one ``flag_basis`` Q.T,
    ``flag``: P_i is its leading d - dim h_i rows, so the levels are nested, P_{i-1}
    the leading rows of P_i, and share one set of coordinates.
    """

    def __init__(self, algebra: LieAlgebra, chain: IdealChain):
        if not chain.terminated:
            raise ValueError("chain must terminate at the zero subspace")
        self.algebra = algebra
        self.flag = flag_basis(chain.ideals, algebra.dim)
        self.contexts = [QuotientContext(algebra, s, self.flag) for s in chain.ideals]

    def __getitem__(self, i: int) -> QuotientContext:
        return self.contexts[i]

    def __len__(self) -> int:
        return len(self.contexts)

    def levels(self, level: Optional[int] = None, first: int = 1) -> range:
        """Levels ``first``..p, or ``level`` alone; ValueError for a level outside that range."""
        if level is not None and not first <= level < len(self):
            raise ValueError(f"level must be in {first}..{len(self) - 1}, got {level}")
        return range(first, len(self)) if level is None else range(level, level + 1)


def word_plan(words) -> tuple:
    """Letter sequences compiled once: their distinct suffixes of two or more letters, sorted by
    length, then letters (free of the hash seed, each after its inner bracket); their distinct
    leading letters; per suffix, the positions of its lead and inner suffix (None: two letters), its last letter."""
    suffixes = sorted({tuple(w[i:]) for w in words for i in range(len(w) - 1)}, key=lambda s: (len(s), s))
    leads = tuple(dict.fromkeys(s[0] for s in suffixes))
    steps = tuple((leads.index(s[0]), suffixes.index(s[1:]) if len(s) > 2 else None, s[-1]) for s in suffixes)
    return tuple(suffixes), leads, steps


def evaluate_words(algebra: LieAlgebra, plan: tuple, values) -> list:
    """The right-nested bracket of each suffix of a ``word_plan``, in its order, the letters read
    as ``values[letter]``, elements or row stacks (broadcast): one ``ad_many`` per leading letter
    and one product per suffix, the arithmetic of ``bracket_many``, so a word has the bits of
    its own chain."""
    ads = [algebra.ad_many(values[letter]) for letter in plan[1]]
    vals = []
    for lead, inner, last in plan[2]:
        vals.append((ads[lead] @ (values[last] if inner is None else vals[inner])[..., None])[..., 0])
    return vals


def bracket_word(algebra: LieAlgebra, letters: Sequence[np.ndarray]) -> np.ndarray:
    """Right-nested bracket [Y_1, [Y_2, [..., Y_m]...]] of elements or row stacks (broadcast over
    leading axes): the one-word call of ``evaluate_words``; inputs are not checked."""
    letters = [np.asarray(y, dtype=float) for y in letters]
    if not letters:
        raise ValueError("a word needs at least one letter")
    words = evaluate_words(algebra, word_plan([range(len(letters))]), letters)
    return words[-1] if words else letters[0]


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
    filt0 = proj[0].P.T @ proj[0].P
    eye = np.eye(alg.dim)
    worst = 0.0
    for i in proj.levels(level):
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
    worst = 0.0
    for i in proj.levels(level):
        diff = filt0 @ (proj[i - 1].P.T @ proj[i - 1].P) - filt0
        worst = max(worst, float(np.linalg.norm(diff)))
    return worst
