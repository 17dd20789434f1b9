"""Finite-dimensional real Lie algebras given by structure constants.

An algebra of dimension d is stored as a read-only rank-3 tensor C with
[e_i, e_j] = sum_k C[i, j, k] e_k; every bracket goes through one contraction,
``LieAlgebra.ad_many`` (one matmul against C as a (d, d*d) matrix, one per non-zero
part of a complex stack): ``bracket_many`` applies ad_x to y row by row, and all pairs
[u_i, v_j] of two column bases U, V are ``ad_many(U.T) @ V``, one GEMM.  Elements are
coordinate vectors of length d.
Subspaces are column spans; one that is a coordinate subspace, as its non-zero rows reveal,
has exact identity columns for its basis (``orthonormal_basis``).  The module provides
span-of-brackets machinery (a pair stack rank-revealed through the SVD of its d x d R factor),
the derived and lower central series, the solvable/nilpotent predicates, and a proven bound mu with
||[x, y]|| <= mu ||x|| ||y||, the least of three closed forms (two unfoldings of C and,
given a matrix realization, its Gram matrix with the sqrt 2 commutator bound; see
``bracket_constant``), each computed once per algebra, which is immutable.
Each catalog algebra is a matrix realization whose constants are read off
its commutators (``realized_algebra``), so no bracket is stated twice.  Given a
realization, validation proves Jacobi through it (``jacobi_bound``) instead of
sweeping all d^3 triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

JACOBI_TOL = 1e-12
REP_TOL = 1e-10
RANK_TOL = 1e-10  # relative singular-value cutoff for all span/rank decisions
MU_GUARD = 1e-12  # least relative rounding guard of bracket_constant and jacobi_bound
_UNIT_ROUNDOFF = 2.0 ** -53
_FLOAT = np.dtype(float)  # ad_many's real path: no promotion to look up


def _gram_guard(d: int, n: int) -> float:
    """max(MU_GUARD, d gamma_n), gamma_n = n u / (1 - n u): the relative guard on the
    eigenvalues of a d x d Gram matrix of length-n inner products (``bracket_constant``)."""
    return max(MU_GUARD, d * n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF))


class DimensionMismatch(ValueError):
    pass


class AlgebraLoadError(ValueError):
    pass


class InvalidAlgebra(ValueError):
    pass


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (dim,):
        raise DimensionMismatch(f"expected coordinate vector of length {dim}, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ValueError("coordinates must be finite")
    return v


def orthonormal_basis(vectors: np.ndarray) -> np.ndarray:
    """Orthonormal basis (d x r) for the span of the given column stack: the left singular
    vectors of singular values above RANK_TOL times the largest.  A stack wider than tall,
    of over 1000 entries (below that the QR costs more than it saves), loses its exactly-zero
    columns (stack stack^T stays) and, if still wider than tall, is reduced to its d x d R^T
    (Chan's R-SVD): stack^T = Q R with Q orthonormal gives stack = R^T Q^T, so R^T has the
    stack's singular values and left singular vectors, and the same rank.

    When the decomposed matrix has exactly r non-zero rows, r its rank, the basis is those r
    identity columns, ascending: the span lies in their coordinate subspace, and r singular
    values above the cutoff make its dimension at least r, so it is that subspace, whatever
    rotation of it the SVD returns.  The rows of R^T are the stack's (Householder maps a zero
    column of stack^T to a zero column of R, exactly), so the reduction keeps the rule.  The rule
    reads the singular values alone, and only when the non-zero rows are no more than the columns,
    which bound the rank; the vectors are computed only where it does not fire, so a stack that
    passes that count but not the rule (rank-deficient off the exact axes) pays for both SVDs."""
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim == 2 and mat.shape[1] > mat.shape[0] and mat.size > 1000:
        mat = mat[:, mat.any(axis=0)]
        if mat.shape[1] > mat.shape[0]:
            mat = np.linalg.qr(mat.T, mode="r").T
    if mat.ndim != 2 or mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0))
    rows = np.flatnonzero(mat.any(axis=1))
    if rows.size <= mat.shape[1]:  # a zero stack is the rule's rank-0 case
        s = np.linalg.svd(mat, compute_uv=False)
        if rows.size == int(np.sum(s > RANK_TOL * s.max(initial=0.0))):
            return np.eye(mat.shape[0])[:, rows]
    u, s, _ = np.linalg.svd(mat, full_matrices=False)  # the vectors, and the rank from their own values
    return u[:, :int(np.sum(s > RANK_TOL * s[0]))]


class Subspace:
    """Subspace of R^d spanned by the columns of ``basis``.

    The stored basis is orthonormalized once on construction; all geometric
    queries (projection, containment) run off the orthonormal copy.
    """

    def __init__(self, basis: np.ndarray, *, already_orthonormal: bool = False):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-d array (columns span the subspace)")
        if already_orthonormal:
            self.onb = basis
        else:
            self.onb = orthonormal_basis(basis)
        self.ambient_dim = basis.shape[0]

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(np.zeros((ambient_dim, 0)), already_orthonormal=True)

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(np.eye(ambient_dim), already_orthonormal=True)

    @property
    def dim(self) -> int:
        return self.onb.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projector onto the subspace."""
        return self.onb @ self.onb.T

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.onb @ (self.onb.T @ x)

    def contains(self, other: "Subspace", tol: float = RANK_TOL) -> bool:
        """Whether ``other`` is contained in this subspace.

        Tested as ||(I - P) B_other|| < tol with P the orthogonal projector,
        which avoids any basis-dependent comparison.
        """
        if other.dim == 0:
            return True
        resid = other.onb - self.project(other.onb)
        return float(np.linalg.norm(resid)) < tol

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


@dataclass
class IdealChain:
    """Descending chain of subspaces S_1 >= S_2 >= ... produced by a series.

    ``terminated`` is True when the last entry is the zero subspace; otherwise
    the series stabilized at a nonzero subspace (not solvable or not nilpotent).
    """

    ideals: list
    terminated: bool

    @property
    def dims(self) -> list:
        return [s.dim for s in self.ideals]

    def __len__(self) -> int:
        return len(self.ideals)


class LieAlgebra:
    """Real Lie algebra defined by structure constants; immutable once built.

    Parameters
    ----------
    structure_constants:
        Array of shape (d, d, d) with [e_i, e_j] = sum_k C[i, j, k] e_k.
    labels:
        Basis labels, default e1..ed.
    matrix_rep:
        Optional list/array of d real m x m matrices realizing the basis;
        the bracket must match the matrix commutator.
    """

    def __init__(self, structure_constants, labels: Optional[Sequence[str]] = None,
                 matrix_rep=None, name: str = ""):
        C = np.array(structure_constants, dtype=float)
        if C.ndim != 3 or C.shape[0] != C.shape[1] or C.shape[0] != C.shape[2]:
            raise InvalidAlgebra(f"structure constants must have shape (d, d, d), got {C.shape}")
        self.dim = C.shape[0]
        C.flags.writeable = False
        self._C = C
        self._C2 = C.reshape(self.dim, self.dim * self.dim)  # read-only view; row i is [e_i, .]
        self.labels = list(labels) if labels is not None else [f"e{i+1}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise InvalidAlgebra("label count does not match dimension")
        self.name = name
        rep = None
        if matrix_rep is not None:
            try:
                rep = np.array(matrix_rep, dtype=float)
            except (TypeError, ValueError):  # ragged or non-numeric nested lists
                raise InvalidAlgebra("matrix_rep must be d square matrices") from None
            if rep.ndim != 3 or rep.shape[0] != self.dim or rep.shape[1] != rep.shape[2]:
                raise InvalidAlgebra("matrix_rep must be d square matrices")
            if not np.isfinite(rep).all():
                raise InvalidAlgebra("matrix_rep must be finite")
            rep.flags.writeable = False
        self._rep = rep
        self._series_brackets = {}  # memo of _series, keyed by the bytes of both bases
        self._validate()

    # read-only copies that cannot be rebound, so what is cached on the algebra stays valid
    C = property(lambda self: self._C, doc="The structure constants (read-only).")
    matrix_rep = property(lambda self: self._rep, doc="The realization (read-only), or None.")

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        """Finite entries, antisymmetry, Jacobi, a finite Frobenius norm, then the realization.
        Given a realization whose ``jacobi_bound`` is at most JACOBI_TOL, Jacobi is proven and
        the d^4 sweep of ``jacobi_residual`` is skipped; otherwise the sweep runs before the
        realization is checked, so an algebra that fails both is reported as breaking Jacobi."""
        C = self.C
        if not np.isfinite(C).all():
            raise InvalidAlgebra("structure constants must be finite")
        anti = np.max(np.abs(C + np.transpose(C, (1, 0, 2)))) if self.dim else 0.0
        if anti > JACOBI_TOL:
            raise InvalidAlgebra(f"structure constants not antisymmetric (max violation {anti:.3e})")
        if not self.jacobi_bound() <= JACOBI_TOL:  # a NaN bound proves nothing
            jac = self.jacobi_residual()
            if not jac <= JACOBI_TOL:
                raise InvalidAlgebra(f"Jacobi identity violated (max residual {jac:.3e})")
        with np.errstate(over="ignore"):
            self._frobenius_norm = float(np.linalg.norm(C))
        if not math.isfinite(self._frobenius_norm):  # mu, the rank floor and every bound scale by it
            raise InvalidAlgebra("structure constants must have a finite Frobenius norm")
        if self.matrix_rep is not None:
            err = self.rep_residual()
            if not err <= REP_TOL:
                raise InvalidAlgebra(f"matrix_rep commutators disagree with structure constants ({err:.3e})")

    def jacobi_residual(self) -> float:
        """Max-norm residual of Jacobi: (ad_[e_i,e_j] - [ad_i, ad_j]) e_k is the cyclic sum
        [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j] once C is antisymmetric, which
        ``_validate`` therefore checks first."""
        return self._defect(self.ad_many(np.eye(self.dim)))[0]

    def rep_residual(self) -> float:
        return self._realization[0]

    @cached_property
    def _realization(self) -> tuple:
        """(rep_residual, F, lam, guard) of ``matrix_rep``, computed once: F the largest
        Frobenius norm of one pair's defect D_ij = sum_k C_ijk R_k - [R_i, R_j], lam the
        ascending eigenvalues of the Gram matrix <R_i, R_j>_F, and guard their relative
        rounding guard, ``_gram_guard`` for inner products of length m^2."""
        flat = self.matrix_rep.reshape(self.dim, self.matrix_rep.shape[1] ** 2)
        with np.errstate(over="ignore"):
            gram = flat @ flat.T
        lam = np.linalg.eigvalsh(gram) if np.isfinite(gram).all() else np.full(self.dim, np.nan)
        return (*self._defect(self.matrix_rep, frobenius=True), lam, _gram_guard(self.dim, flat.shape[1]))

    def jacobi_bound(self) -> float:
        """Proven bound on ``jacobi_residual()`` read off the realization; inf without one,
        or when its Gram matrix is not safely positive definite.

        With rho(x) = sum_i x_i R_i, the defect of ad is
        J_ijk = [[e_i,e_j],e_k] - [e_i,[e_j,e_k]] + [e_j,[e_i,e_k]], and since matrix
        commutators satisfy Jacobi exactly, rho(J_ijk) = [D_ij, R_k] - [R_i, D_jk] + [R_j, D_ik]
        + sum_l (C_ijl D_lk - C_jkl D_il + C_ikl D_jl), for any C.  By ||[X, Y]||_F <= sqrt 2
        ||X||_F ||Y||_F (Boettcher and Wenzel, Linear Algebra Appl. 429 (2008)) and
        lam_min ||x||^2 <= ||rho(x)||_F^2:
            max |J| <= 3 F (sqrt 2 R_max + max_ij ||C_ij||_1) / sqrt(lam_min),
        R_max = max_k ||R_k||_F.  Rounding: the computed D_ij errs in Frobenius norm by at
        most gamma_n (||C_ij||_1 R_max + 2 R_max^2), gamma_n = n u / (1 - n u), n = max(d, m)
        + 2, which is added to F; lam_min is lowered by the Gram guard times lam_max, as in
        ``bracket_constant``; and the result is raised by 1 + MU_GUARD, which covers the
        relative rounding of the norms and of the last few operations (a few (m^2 + d) unit
        roundoffs, below 1e-12 for m <= 60 and d <= 2000).
        """
        if self.matrix_rep is None:
            return math.inf
        if self.dim == 0:
            return 0.0
        _, F, lam, guard = self._realization
        if not lam[0] > guard * lam[-1]:
            return math.inf
        d, m = self.dim, self.matrix_rep.shape[1]
        r_max = float(np.linalg.norm(self.matrix_rep.reshape(d, -1), axis=1).max())  # the Gram is finite
        with np.errstate(over="ignore"):
            c_max = float(np.abs(self.C).sum(axis=2).max())  # max_ij ||C_ij||_1
        n = max(d, m) + 2
        gamma = n * _UNIT_ROUNDOFF / (1.0 - n * _UNIT_ROUNDOFF)
        F += gamma * (c_max * r_max + 2.0 * r_max * r_max)
        bound = 3.0 * F * (math.sqrt(2.0) * r_max + c_max) / math.sqrt(lam[0] - guard * lam[-1])
        return bound * (1.0 + MU_GUARD)

    def _defect(self, R, frobenius: bool = False) -> tuple:
        """(max |sum_k C_ijk R_k - [R_i, R_j]|, and with ``frobenius`` the largest Frobenius norm
        of one pair (i, j), else None) over a stack of d square matrices R; NaN propagates."""
        d, m = self.dim, R.shape[-1]
        step = max(1, (1 << 18) // max(1, d * m * m))  # blocks of i of at most 2^18 entries
        worst, fro = 0.0, (0.0 if frobenius else None)
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: inf or NaN
            for i in range(0, d, step):
                Ri = R[i:i + step, None]
                res = (self.C[i:i + step].reshape(-1, d) @ R.reshape(d, -1)).reshape(-1, d, m, m)  # sum_k C_ijk R_k
                res -= Ri @ R  # in place: a fresh temporary per step costs more than the products
                res += R @ Ri
                if frobenius:
                    fro = np.maximum(fro, np.sqrt(np.einsum("...ab,...ab->...", res, res).max()))
                worst = np.maximum(worst, np.abs(res, out=res).max())
        return float(worst), (None if fro is None else float(fro))

    # -- basic operations ------------------------------------------------

    def ad_many(self, X) -> np.ndarray:
        """ad_X for each element of a coordinate stack, complex for complex input and float64
        otherwise; no input checks (row j of X C2 is [X, e_j]).  C is real, so ad(Re X + i Im X)
        = ad(Re X) + i ad(Im X): a complex stack takes one real GEMM per part with a non-zero
        entry (NaN and inf count), written into one complex result.  Those are the products a
        complex GEMM forms, at half its flops or a quarter when one part is zero, so an entry
        with one non-zero term keeps its bits and the others agree to rounding.  The steps of
        ``WordSeriesSystem.linearization`` at (0, W) give their state letters no real part."""
        X = np.asarray(X)
        if X.dtype is not _FLOAT:
            X = X.astype(np.promote_types(X.dtype, float), copy=False)
        if X.dtype.kind == "c":
            XC = np.zeros(X.shape[:-1] + self._C2.shape[1:], dtype=X.dtype)
            for part, into in ((X.real, XC.real), (X.imag, XC.imag)):
                if part.any():
                    np.matmul(part, self._C2, out=into)
        else:
            XC = X @ self._C2
        return XC.reshape(X.shape[:-1] + (self.dim, self.dim)).swapaxes(-1, -2)

    def bracket_many(self, X, Y) -> np.ndarray:
        """[X, Y] = ad_X Y row by row over broadcast leading axes; no input checks.  All
        pairs of two stacks are one GEMM, ``ad_many(X) @ Y.T`` (column j of entry i is
        [x_i, y_j]).
        """
        return (self.ad_many(X) @ np.asarray(Y, dtype=float)[..., None])[..., 0]

    def bracket(self, x, y) -> np.ndarray:
        """Lie bracket [x, y] in coordinates."""
        return self.bracket_many(_as_vector(x, self.dim), _as_vector(y, self.dim))

    def ad(self, x) -> np.ndarray:
        """Matrix of ad_x : y -> [x, y]."""
        return self.ad_many(_as_vector(x, self.dim))

    def element(self, **coeffs: float) -> np.ndarray:
        """Element from label coefficients, e.g. alg.element(h1=3, h2=2, h3=-1)."""
        v = np.zeros(self.dim)
        for lab, c in coeffs.items():
            if lab not in self.labels:
                raise KeyError(f"unknown basis label {lab!r}")
            v[self.labels.index(lab)] = float(c)
        return v

    def basis_vector(self, label: str) -> np.ndarray:
        return self.element(**{label: 1.0})

    def to_matrix(self, x) -> np.ndarray:
        if self.matrix_rep is None:
            raise ValueError("algebra has no matrix representation")
        x = _as_vector(x, self.dim)
        return np.einsum("i,iab->ab", x, self.matrix_rep)

    def span(self, vectors: Sequence) -> Subspace:
        cols = np.column_stack([_as_vector(v, self.dim) for v in vectors]) if len(vectors) else np.zeros((self.dim, 0))
        return Subspace(cols)

    def span_labels(self, labels: Sequence[str]) -> Subspace:
        return self.span([self.basis_vector(l) for l in labels])

    def full_subspace(self) -> Subspace:
        return Subspace.full(self.dim)

    # -- invariants of the whole algebra, computed once -------------------

    derived_chain = cached_property(lambda self: derived_series(self))
    central_chain = cached_property(lambda self: lower_central_series(self))
    mu = cached_property(lambda self: bracket_constant(self))  # shared by every system on the algebra

    @cached_property
    def solvability(self) -> tuple:
        """(solvable?, derived length), read through ``is_solvable``."""
        chain = self.derived_chain
        solvable = chain.terminated
        # chain lists g_0 .. g_{v+1} = 0, so the derived length is len - 2
        length = len(chain.ideals) - 2 if solvable else None
        nil, _ = is_nilpotent(self, derived_algebra(self))
        if nil != solvable:
            raise RuntimeError("derived-series and derived-algebra-nilpotency checks disagree; "
                               "this indicates a rank-tolerance failure")
        return solvable, length

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"LieAlgebra(dim={self.dim}{tag})"


# -- subspace bracket and series ------------------------------------------


def subspace_bracket(alg: LieAlgebra, s1: Subspace, s2: Subspace) -> Subspace:
    """Span of all brackets [u, v] with u in s1, v in s2: the pair stack ``ad_many(U.T) @ V``
    of the orthonormal bases (one GEMM, skipped when s2 is the whole algebra: the [u_i, e_j]
    are an orthogonal change of columns away), rank-revealed by one ``orthonormal_basis``.
    An entry errs by at most gamma_(d^2) ||C||_F, so a stack with none above RANK_TOL ||C||_F
    is a rounded zero, of which the relative rank rule alone would read a rank."""
    if s1.ambient_dim != alg.dim or s2.ambient_dim != alg.dim:
        raise DimensionMismatch("subspace ambient dimension does not match algebra")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(alg.dim)
    pairs = alg.ad_many(s1.onb.T)
    if s2.dim < alg.dim:
        pairs = pairs @ s2.onb
    stack = pairs.swapaxes(0, 1).reshape(alg.dim, -1)
    if not np.abs(stack).max() > RANK_TOL * alg._frobenius_norm:
        stack = stack[:, :0]
    return Subspace(orthonormal_basis(stack), already_orthonormal=True)


def _series(alg: LieAlgebra, start: Subspace, derived: bool) -> IdealChain:
    """Brackets each term with itself (derived) or with ``start`` (lower central) until the
    dimension stops falling, so a chain has at most d + 1 terms.

    Each bracket of two bases is computed once per algebra: [g, g] opens both series of g,
    and [g_1, g_1] is both the derived series' third term and the second of the central
    series of g_1 = [g, g], the solvability cross-check.
    """
    chain = [start]
    while chain[-1].dim:
        other = chain[-1] if derived else start
        key = (chain[-1].onb.tobytes(), other.onb.tobytes())  # bases are (d, r): the length fixes r
        nxt = alg._series_brackets.get(key)
        if nxt is None:
            nxt = alg._series_brackets[key] = subspace_bracket(alg, chain[-1], other)
        if nxt.dim == chain[-1].dim:
            break
        chain.append(nxt)
    return IdealChain(chain, terminated=chain[-1].dim == 0)


def derived_series(alg: LieAlgebra) -> IdealChain:
    """Chain g_0 = g, g_{i+1} = [g_i, g_i], down to 0 or stabilization."""
    return _series(alg, alg.full_subspace(), derived=True)


def lower_central_series(alg: LieAlgebra, start: Optional[Subspace] = None) -> IdealChain:
    """Chain h^(1) = start, h^(i+1) = [h^(i), start], down to 0 or stabilization.

    ``start`` defaults to the whole algebra.  The series of a proper ideal h
    is taken within h itself, i.e. brackets are with h, not with g.
    """
    h = start if start is not None else alg.full_subspace()
    return _series(alg, h, derived=False)


def derived_algebra(alg: LieAlgebra) -> Subspace:
    """[g, g], read off the cached derived series (g itself when g is perfect)."""
    return alg.derived_chain.ideals[min(1, len(alg.derived_chain) - 1)]


def is_solvable(alg: LieAlgebra):
    """(solvable?, derived length).  Derived length is None when not solvable.

    Cross-checked against the equivalent criterion that the derived algebra
    [g, g] is nilpotent.  Computed once per algebra.
    """
    return alg.solvability


def is_nilpotent(alg: LieAlgebra, start: Optional[Subspace] = None):
    """(nilpotent?, nilindex).  Nilindex is None when the series stabilizes nonzero.

    A zero-dimensional start is nilpotent with nilindex 0 by convention.
    """
    chain = alg.central_chain if start is None else lower_central_series(alg, start)
    return (True, len(chain) - 1) if chain.terminated else (False, None)


# -- bracket norm constant -------------------------------------------------


def bracket_constant(alg: LieAlgebra) -> float:
    """Proven constant mu with ||[x, y]|| <= mu ||x|| ||y|| in coordinate Euclidean norm.

    mu is the least of three closed-form bounds, each valid for the stored C:
    * ||C_(1)||_2, C_(1) = C as a (d, d*d) matrix: [x, y] is y times sum_i x_i C[i],
      whose 2-norm is at most its Frobenius norm ||x C_(1)||.
    * ||C_(3)||_2 / sqrt 2 + ||S||_F, C_(3) the mode-3 unfolding (row k is C[:, :, k])
      and S = (C + C^T) / 2 the part symmetric in (i, j), below JACOBI_TOL an entry.
      The rest of C sees only (x y^T - y x^T) / 2, of Frobenius norm <= ||x|| ||y|| / sqrt 2.
    * Given a realization R x = sum_i x_i R_i by m x m matrices, (sqrt 2 lam_max +
      d m rep_residual()) / sqrt(lam_min), lam the extreme eigenvalues of the Gram
      matrix <R_i, R_j>_F: R [x, y] is [R x, R y] up to a defect of Frobenius norm at
      most d m rep_residual() ||x|| ||y||, ||[X, Y]||_F <= sqrt 2 ||X||_F ||Y||_F
      (Boettcher and Wenzel, Linear Algebra Appl. 429 (2008)), and lam_min ||x||^2 <=
      ||R x||_F^2 <= lam_max ||x||^2.  Dropped when lam_min is not above the guard.
    Each bound is read off a d x d Gram matrix of length-n inner products (n = d^2 for the
    unfoldings, m^2 for the realization), each in error by at most gamma_n ||a|| ||b||; so
    the matrix, and by Weyl's inequality each eigenvalue, errs by at most gamma_n tr G <=
    d gamma_n lam_max.  With g = max(MU_GUARD, d gamma_n) (``_gram_guard``; 1.06e-12 for the
    realization at d = 66, m = 12), lam_min is lowered by g lam_max and the bound raised by
    1 + g, which also covers the roots, the last few operations and the eigensolver's
    backward error, each a few unit roundoffs (MU_GUARD is about 4500 u).
    """
    d, C = alg.dim, alg.C
    if d == 0:
        return 0.0
    top = lambda U: math.sqrt(np.linalg.eigvalsh(U @ U.T)[-1])  # ||U||_2
    raise_by = 1.0 + _gram_guard(d, d * d)
    bounds = [top(C.reshape(d, d * d)) * raise_by, (top(C.transpose(2, 0, 1).reshape(d, d * d)) / math.sqrt(2.0)
              + float(np.linalg.norm(C + C.transpose(1, 0, 2))) / 2.0) * raise_by]
    if alg.matrix_rep is not None:
        residual, _, lam, guard = alg._realization
        if lam[0] > guard * lam[-1]:
            defect = d * alg.matrix_rep.shape[1] * residual
            bounds.append((math.sqrt(2.0) * lam[-1] + defect) / math.sqrt(lam[0] - guard * lam[-1]) * (1.0 + guard))
    return float(min(bounds))


# -- JSON interchange -------------------------------------------------------


def json_field(data, key: str, kind=None, default=None, where="", error=AlgebraLoadError, noun="field"):
    """``data[key]`` of a JSON object, or ``default`` (when given) for an absent key; an
    ``error`` naming the ``noun`` ``where + key`` unless ``data`` is an object and the value has
    JSON type ``kind``."""
    if not isinstance(data, dict):
        raise error(f"{noun} {where.rstrip('.')!r} must be an object")
    if key not in data and default is None:
        raise error(f"{noun} {where + key!r} is missing")
    val = data.get(key, default)
    if kind is not None and (not isinstance(val, kind) or isinstance(val, bool)):  # JSON true is no int
        raise error(f"{noun} {where + key!r} has wrong type ({type(val).__name__})")
    return val


def algebra_from_dict(data: dict, name: str = "") -> LieAlgebra:
    """Build an algebra from its JSON definition.

    Format: {"dim": d, "labels": [...], "brackets": [{"i": li, "j": lj,
    "coeffs": {lk: c}}], "matrix_rep": optional, "name": optional}, a null field
    being an absent one.  Unlisted pairs default to zero and the antisymmetric
    mirror is filled in automatically; listing a pair and its mirror with
    inconsistent coefficients is a load error, and so is a field of the wrong JSON type.
    """
    d = json_field(data, "dim", int)
    data = {key: val for key, val in data.items() if val is not None}
    if d <= 0:
        raise AlgebraLoadError("'dim' must be positive")
    labels = json_field(data, "labels", list, [f"e{i+1}" for i in range(d)])
    if len(labels) != d or len(set(labels)) != d or not all(isinstance(l, str) for l in labels):
        raise AlgebraLoadError("'labels' must be distinct strings and match 'dim'")
    index = {lab: i for i, lab in enumerate(labels)}

    def resolve(key, field: str) -> int:
        if key not in index:
            raise AlgebraLoadError(f"field {field!r} names unknown basis label {key!r}")
        return index[key]

    C = np.zeros((d, d, d))
    seen = set()
    for idx, entry in enumerate(json_field(data, "brackets", list, [])):
        where = f"brackets[{idx}]."
        i = resolve(json_field(entry, "i", str, where=where), where + "i")
        j = resolve(json_field(entry, "j", str, where=where), where + "j")
        coeffs = json_field(entry, "coeffs", dict, where=where)
        if i == j:
            raise AlgebraLoadError(f"bracket of {labels[i]!r} with itself must be omitted (it is zero)")
        vec = np.zeros(d)
        for lk in coeffs:
            vec[resolve(lk, where + "coeffs")] = json_field(coeffs, lk, (int, float), where=where + "coeffs.")
        if (j, i) in seen:
            if not np.allclose(C[j, i], -vec, atol=1e-15):
                raise AlgebraLoadError(
                    f"brackets [{labels[i]},{labels[j]}] and [{labels[j]},{labels[i]}] are inconsistent")
            continue
        if (i, j) in seen:
            raise AlgebraLoadError(f"bracket [{labels[i]},{labels[j]}] listed twice")
        seen.add((i, j))
        C[i, j] = vec
        C[j, i] = -vec
    rep = json_field(data, "matrix_rep", list) if "matrix_rep" in data else None
    try:
        return LieAlgebra(C, labels=labels, matrix_rep=rep, name=name or json_field(data, "name", str, ""))
    except InvalidAlgebra as exc:
        raise AlgebraLoadError(str(exc)) from exc


def algebra_to_dict(alg: LieAlgebra) -> dict:
    brackets = []
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            if np.any(alg.C[i, j] != 0.0):
                coeffs = {alg.labels[k]: float(alg.C[i, j, k])
                          for k in range(alg.dim) if alg.C[i, j, k] != 0.0}
                brackets.append({"i": alg.labels[i], "j": alg.labels[j], "coeffs": coeffs})
    out = {"dim": alg.dim, "labels": list(alg.labels), "brackets": brackets}
    if alg.name:
        out["name"] = alg.name
    if alg.matrix_rep is not None:
        out["matrix_rep"] = alg.matrix_rep.tolist()
    return out


# -- built-in catalog --------------------------------------------------------


def realized_algebra(rep, labels: Sequence[str], name: str) -> LieAlgebra:
    """The algebra spanned by a Frobenius-orthogonal basis of real matrices R_i, its
    constants read off the commutators: C[i, j, k] = <[R_i, R_j], R_k> / <R_k, R_k>.
    The matrix_rep check in LieAlgebra refuses a basis whose commutators leave its span."""
    rep = np.asarray(rep, dtype=float)
    flat = rep.reshape(len(rep), -1)
    comm = (rep[:, None] @ rep[None] - rep[None] @ rep[:, None]).reshape(len(rep), *flat.shape)
    return LieAlgebra(comm @ flat.T / (flat * flat).sum(axis=1), labels=labels, matrix_rep=rep, name=name)


def _units(m: int, *pairs) -> np.ndarray:
    """The m x m matrix units E_ab, one per 0-based pair (a, b)."""
    rep = np.zeros((len(pairs), m, m))
    for i, (a, b) in enumerate(pairs):
        rep[i, a, b] = 1.0
    return rep


def heisenberg() -> LieAlgebra:
    """3-dimensional Heisenberg algebra with [h1, h2] = -h3, realized by strictly
    upper-triangular 3x3 matrices h1 = E12, h2 = E23, h3 = -E13."""
    rep = _units(3, (0, 1), (1, 2), (0, 2))
    rep[2, 0, 2] = -1.0
    return realized_algebra(rep, ["h1", "h2", "h3"], "heisenberg")


def upper_triangular6() -> LieAlgebra:
    """Upper-triangular 3x3 matrices: 6-dimensional solvable, non-nilpotent.

    Basis t1 = E11, t2 = E22, t3 = E33, t4 = E12, t5 = E23, t6 = E13 with
    nonvanishing brackets [t1,t4] = t4, [t1,t6] = t6, [t2,t4] = -t4,
    [t2,t5] = t5, [t3,t5] = -t5, [t3,t6] = -t6, [t4,t5] = t6.
    """
    rep = _units(3, (0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2))
    return realized_algebra(rep, ["t1", "t2", "t3", "t4", "t5", "t6"], "upper-triangular-6")


def abelian(n: int) -> LieAlgebra:
    """Commutative algebra of dimension n (all brackets vanish), realized by the
    commuting strictly upper-triangular (n+1) x (n+1) units E_{i,n+1}."""
    return realized_algebra(_units(n + 1, *[(i, n) for i in range(n)]),
                            [f"a{i+1}" for i in range(n)], f"abelian-{n}")


def sl2() -> LieAlgebra:
    """Non-solvable control case: [e,f] = h, [h,e] = 2e, [h,f] = -2f, realized by
    e = E12, f = E21, h = diag(1, -1)."""
    rep = _units(2, (0, 1), (1, 0), (0, 0))
    rep[2, 1, 1] = -1.0
    return realized_algebra(rep, ["e", "f", "h"], "sl2")


def nilpotent_upper(m: int) -> LieAlgebra:
    """Strictly upper-triangular m x m matrices, basis E_ij (i < j) row by row: nilpotent
    of dimension m (m - 1) / 2 and nilindex m - 1."""
    rows, cols = np.triu_indices(m, 1)
    return realized_algebra(_units(m, *zip(rows, cols)), [f"E{i + 1}_{j + 1}" for i, j in zip(rows, cols)],
                            f"nilpotent-upper-{m}")


CATALOG = {
    "heisenberg": heisenberg,
    "upper-triangular-6": upper_triangular6,
    "abelian-3": lambda: abelian(3),
    "sl2": sl2,
}


def catalog_algebras() -> dict:
    return {name: make() for name, make in CATALOG.items()}
