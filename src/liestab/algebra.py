"""Finite-dimensional real Lie algebras given by structure constants.

An algebra of dimension d is stored as a read-only rank-3 tensor C with
[e_i, e_j] = sum_k C[i, j, k] e_k; every bracket goes through one kernel,
``LieAlgebra.bracket_many`` (two matmuls against C as a (d, d*d) matrix, the
first being ``ad_many``).  Elements are coordinate vectors of length d.
Subspaces are column spans.  The module provides span-of-brackets machinery,
the derived and lower central series, the solvable/nilpotent predicates
(cached per algebra), and a bound mu with ||[x, y]|| <= mu ||x|| ||y||.
Each catalog algebra is a matrix realization whose constants are read off
its commutators (``realized_algebra``), so no bracket is stated twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

JACOBI_TOL = 1e-12
REP_TOL = 1e-10
RANK_TOL = 1e-10  # relative singular-value cutoff for all span/rank decisions


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
    """Orthonormal basis (d x r) for the span of the given column stack."""
    mat = np.asarray(vectors, dtype=float)
    if mat.ndim != 2 or mat.shape[1] == 0:
        return np.zeros((mat.shape[0], 0))
    u, s, _ = np.linalg.svd(mat, full_matrices=False)
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((mat.shape[0], 0))
    r = int(np.sum(s > RANK_TOL * s[0]))
    return u[:, :r]


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
    the series stabilized at a nonzero subspace and the classification
    predicate tied to ``kind`` fails.
    """

    ideals: list
    kind: str  # "derived-series" | "lower-central-series"
    terminated: bool

    @property
    def dims(self) -> list:
        return [s.dim for s in self.ideals]

    def __len__(self) -> int:
        return len(self.ideals)


class LieAlgebra:
    """Real Lie algebra defined by structure constants.

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
        self.C = C
        self._C2 = C.reshape(self.dim, self.dim * self.dim)  # read-only view; row i is [e_i, .]
        self.labels = list(labels) if labels is not None else [f"e{i+1}" for i in range(self.dim)]
        if len(self.labels) != self.dim:
            raise InvalidAlgebra("label count does not match dimension")
        self.name = name
        if matrix_rep is not None:
            try:
                rep = np.asarray(matrix_rep, dtype=float)
            except (TypeError, ValueError):  # ragged or non-numeric nested lists
                raise InvalidAlgebra("matrix_rep must be d square matrices") from None
            if rep.ndim != 3 or rep.shape[0] != self.dim or rep.shape[1] != rep.shape[2]:
                raise InvalidAlgebra("matrix_rep must be d square matrices")
            if not np.isfinite(rep).all():
                raise InvalidAlgebra("matrix_rep must be finite")
            self.matrix_rep = rep
        else:
            self.matrix_rep = None
        self._validate()

    # -- validation ------------------------------------------------------

    def _validate(self) -> None:
        C = self.C
        if not np.isfinite(C).all():
            raise InvalidAlgebra("structure constants must be finite")
        anti = np.max(np.abs(C + np.transpose(C, (1, 0, 2)))) if self.dim else 0.0
        if anti > JACOBI_TOL:
            raise InvalidAlgebra(f"structure constants not antisymmetric (max violation {anti:.3e})")
        jac = self.jacobi_residual()
        if jac > JACOBI_TOL:
            raise InvalidAlgebra(f"Jacobi identity violated (max residual {jac:.3e})")
        if self.matrix_rep is not None:
            err = self.rep_residual()
            if err > REP_TOL:
                raise InvalidAlgebra(f"matrix_rep commutators disagree with structure constants ({err:.3e})")

    def jacobi_residual(self) -> float:
        """Max-norm residual of [[e_i,e_j],e_k] + [[e_j,e_k],e_i] + [[e_k,e_i],e_j]."""
        d, C = self.dim, self.C
        step = max(1, (1 << 18) // max(1, d ** 3))  # blocks of i of at most 2^18 entries
        worst = 0.0
        for i in range(0, d, step):  # entries [i, j, k, m] of the three terms
            Ci = C[:, i:i + step].transpose(1, 0, 2)  # [i, l, m] = C[l, i, m]
            res = (self.ad_many(C[i:i + step]).swapaxes(-1, -2)  # [[e_i, e_j], e_k]
                   + (C.reshape(d * d, d) @ Ci).reshape(-1, d, d, d)  # [[e_j, e_k], e_i]
                   + self.ad_many(Ci.swapaxes(0, 1)).transpose(1, 3, 0, 2))  # [[e_k, e_i], e_j]
            worst = max(worst, float(np.max(np.abs(res))))
        return worst

    def rep_residual(self) -> float:
        rep, d = self.matrix_rep, self.dim
        comm = rep[:, None] @ rep[None]  # [i, j] = rep_i rep_j
        res = (self.C.reshape(d * d, d) @ rep.reshape(d, -1)).reshape(comm.shape)  # [i, j] = sum_k C_ijk rep_k
        res -= comm  # in place: a fresh temporary per step costs more than the products
        res += comm.swapaxes(0, 1)
        return float(np.abs(res, out=res).max())

    # -- basic operations ------------------------------------------------

    def ad_many(self, X) -> np.ndarray:
        """ad_X for each element of a coordinate stack; no input checks (row j of X C2 is [X, e_j])."""
        X = np.asarray(X, dtype=float)
        return (X @ self._C2).reshape(X.shape[:-1] + (self.dim, self.dim)).swapaxes(-1, -2)

    def bracket_many(self, X, Y) -> np.ndarray:
        """[X, Y] = ad_X Y row by row over broadcast leading axes; no input checks.

        All pairs of two stacks: ``bracket_many(X[:, None], Y[None])``.
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
    """Span of all brackets [u, v] with u in s1, v in s2."""
    if s1.ambient_dim != alg.dim or s2.ambient_dim != alg.dim:
        raise DimensionMismatch("subspace ambient dimension does not match algebra")
    if s1.dim == 0 or s2.dim == 0:
        return Subspace.zero(alg.dim)
    # bracket every pair of orthonormal basis vectors; rank-reveal the stack
    prods = alg.bracket_many(s1.onb.T[:, None], s2.onb.T[None]).reshape(-1, alg.dim)
    return Subspace(orthonormal_basis(prods.T), already_orthonormal=True)


def _series(alg: LieAlgebra, start: Subspace, kind: str) -> IdealChain:
    """Brackets each term with itself (derived) or with ``start`` (lower central), at most 64 times."""
    chain = [start]
    while chain[-1].dim and len(chain) <= 64:
        nxt = subspace_bracket(alg, chain[-1], chain[-1] if kind == "derived-series" else start)
        if nxt.dim == chain[-1].dim:
            break
        chain.append(nxt)
    return IdealChain(chain, kind, terminated=chain[-1].dim == 0)


def derived_series(alg: LieAlgebra) -> IdealChain:
    """Chain g_0 = g, g_{i+1} = [g_i, g_i], down to 0 or stabilization."""
    return _series(alg, alg.full_subspace(), "derived-series")


def lower_central_series(alg: LieAlgebra, start: Optional[Subspace] = None) -> IdealChain:
    """Chain h^(1) = start, h^(i+1) = [h^(i), start], down to 0 or stabilization.

    ``start`` defaults to the whole algebra.  The series of a proper ideal h
    is taken within h itself, i.e. brackets are with h, not with g.
    """
    h = start if start is not None else alg.full_subspace()
    return _series(alg, h, "lower-central-series")


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
    """Constant mu with ||[x, y]|| <= mu ||x|| ||y|| in coordinate Euclidean norm.

    The supremum of ||[x, y]|| / (||x|| ||y||) over 2000 seeded random unit
    pairs, sharpened by up to 60 steps of alternating singular-vector ascent,
    then inflated by 5%: a numerical estimate, not a proven bound.
    """
    d = alg.dim
    if d == 0 or np.max(np.abs(alg.C)) == 0.0:
        return 0.0
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((2000, d))
    ys = rng.standard_normal((2000, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    rows = max(1, (1 << 20) // (d * d))  # chunks of at most 2^20 entries of X C2 (8 MB)
    vals = np.concatenate([np.linalg.norm(alg.bracket_many(xs[i:i + rows], ys[i:i + rows]), axis=1)
                           for i in range(0, 2000, rows)])
    best = float(np.max(vals))
    x = xs[int(np.argmax(vals))].copy()
    y = ys[int(np.argmax(vals))].copy()
    # alternating ascent: for fixed x the map y -> [x, y] is linear, so the
    # maximizing y is the top right-singular vector, and symmetrically for x
    for _ in range(60):
        mx = alg.ad(x)
        _, s, vt = np.linalg.svd(mx)
        y = vt[0]
        ny = alg.bracket_many(np.eye(d), y).T  # columns: [e_i, y]
        _, s2, vt2 = np.linalg.svd(ny)
        x = vt2[0]
        cur = float(np.linalg.norm(alg.bracket(x, y)))
        if cur <= best * (1 + 1e-12):
            best = max(best, cur)
            break
        best = cur
    return 1.05 * best


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
