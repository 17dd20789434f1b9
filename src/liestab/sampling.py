"""Bridges between continuous-time group flows and discrete-time algebra maps.

Covers the matrix exponential (the update map's flow kernel ``_expm1_batch``), the principal
logarithm (inverse scaling and squaring in numpy alone; the exact Mercator series on unipotent
input), Baker-Campbell-Hausdorff composition in a nilpotent structure-constant algebra (exact;
refused elsewhere, where the series is infinite), and the bundled Heisenberg tracking-error
system with its group-side step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional

import numpy as np

from .algebra import LieAlgebra, _as_vector, heisenberg, is_nilpotent
from .dynamics import ExoSignal, Term, Word, WordSeriesSystem, _expm1_batch

class PrincipalLogUndefined(ValueError):
    pass


class LogNotConverged(ValueError):
    """``logm`` reached a cap: 64 square roots, or 100 Denman-Beavers steps for one root."""


def _spectrum(G, who: str):
    """Finite square G, its eigenvalues, and which are zero: at most 1e-14 of the largest."""
    G = np.asarray(G, dtype=float)
    if G.ndim != 2 or G.shape[0] != G.shape[1] or not np.isfinite(G).all():
        raise ValueError(f"{who} needs a square matrix of finite entries, no NaN or inf")
    eig = np.linalg.eigvals(G)
    return G, eig, np.abs(eig) <= 1e-14 * np.abs(eig).max(initial=0.0)


def expm(M: np.ndarray) -> np.ndarray:
    """Matrix exponential I + (e^M - I), the latter from the update map's flow kernel
    ``_expm1_batch`` (scaling and squaring; exact up to rounding on nilpotent input)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("expm needs a square matrix")
    return np.eye(M.shape[0]) + _expm1_batch(M[None])[0]


def logm(G: np.ndarray) -> np.ndarray:
    """Principal matrix logarithm by inverse scaling and squaring (Al-Mohy and Higham, SIAM J.
    Sci. Comput. 34 (2012) C153-C169); PrincipalLogUndefined when an eigenvalue lies on the
    closed negative real axis, zero included.  Unless N = G - I is strictly triangular (N^dim = 0,
    so the series is exact at degree dim - 1), Y = G / 2^e, e the rounded mean log2 |eigenvalue|,
    becomes its k-th Denman-Beavers square root, Y, Z <- (Y + Z^-1)/2, (Z + Y^-1)/2 from Z = I,
    each stopped by a step under 1e-9 |Y|_1 (quadratic convergence), until theta = |Y - I|_1 <= 1/4.
    The Mercator series of log(I + N), N = Y - I, then runs to the least degree m whose tail bound
    theta^(m+1) / ((m+1)(1 - theta)) is at most 2^-53 theta; times 2^k, plus e log(2) I."""
    G, eig, zero = _spectrum(G, "logm")
    if np.any(bad := zero | ((eig.real < 0) & (np.abs(eig.imag) <= 1e-14 * np.abs(eig.real)))):
        raise PrincipalLogUndefined(f"eigenvalues {eig[bad]} lie on the closed negative real axis")
    I = np.eye(len(G))
    N, k, shift, degree = G - I, 0, 0.0, len(G) - 1
    if np.any(np.tril(N)) and np.any(np.triu(N)):
        e = round(np.linalg.slogdet(G)[1] / (len(G) * math.log(2)))
        Y, shift = np.ldexp(G, -e), e * math.log(2)
        while not (theta := np.linalg.norm(Y - I, 1)) <= 0.25:  # a NaN norm runs to a cap
            if k == 64:
                raise LogNotConverged("G - I not within 1/4 after 64 square roots")
            Z, k = I, k + 1
            for _ in range(100):
                Y, Z, prev = (Y + np.linalg.inv(Z)) / 2, (Z + np.linalg.inv(Y)) / 2, Y
                if np.linalg.norm(Y - prev, 1) <= 1e-9 * np.linalg.norm(Y, 1):
                    break
            else:
                raise LogNotConverged("no square root within 100 Denman-Beavers steps")
        N = Y - I
        degree = next(m for m in range(1, 64) if theta ** m <= 2.0 ** -53 * (m + 1) * (1 - theta))
    out, term = np.zeros_like(N), I
    for j in range(1, degree + 1):
        term = term @ N
        out = out + ((-1) ** (j + 1)) * term / j
    return out * 2.0 ** k + shift * I


@dataclass
class GroupElement:
    """Invertible matrix (by ``logm``'s scale-free floor), optionally linked to an algebra."""

    matrix: np.ndarray
    algebra: Optional[LieAlgebra] = None

    def __post_init__(self):
        self.matrix, _, zero = _spectrum(self.matrix, "group element")
        if zero.any():
            raise ValueError("group element must be invertible")

    def log_coords(self) -> np.ndarray:
        """Coordinates of the principal log in the linked algebra basis."""
        if self.algebra is None or self.algebra.matrix_rep is None:
            raise ValueError("no algebra link with a matrix representation")
        L = logm(self.matrix)
        rep = self.algebra.matrix_rep.reshape(self.algebra.dim, -1)
        coords = np.linalg.lstsq(rep.T, L.reshape(-1), rcond=None)[0]
        if np.linalg.norm(rep.T @ coords - L.reshape(-1)) > 1e-8 * max(1.0, np.linalg.norm(L)):
            raise ValueError("log of group element does not lie in the algebra span")
        return coords


# -- Baker-Campbell-Hausdorff ------------------------------------------------


@lru_cache(maxsize=None)
def bch_coefficient_table(order: int):
    """Rational coefficients of log(e^X e^Y) on right-nested bracket words.

    Computed exactly: expand log(e^X e^Y) in the free associative algebra
    over Q, truncate at the requested degree, then apply the right-nested
    bracketing map divided by the word length, which fixes Lie elements.
    Keys are letter tuples over {0: X, 1: Y}; values are Fractions.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    exp_prod = {}
    for a in range(order + 1):
        for b in range(order + 1 - a):
            if a + b >= 1:
                w = (0,) * a + (1,) * b
                exp_prod[w] = Fraction(1, math.factorial(a) * math.factorial(b))
    log_series = {}
    power = None
    for m in range(1, order + 1):
        if m == 1:
            power = dict(exp_prod)
        else:
            nxt = {}
            for w1, c1 in power.items():
                for w2, c2 in exp_prod.items():
                    w = w1 + w2
                    if len(w) <= order:
                        nxt[w] = nxt.get(w, Fraction(0)) + c1 * c2
            power = nxt
        sign = Fraction((-1) ** (m + 1), m)
        for w, c in power.items():
            log_series[w] = log_series.get(w, Fraction(0)) + sign * c
    return {w: c / len(w) for w, c in log_series.items() if c != 0}


@lru_cache(maxsize=None)
def _bch_suffix_plan(order: int):
    """``bch_coefficient_table(order)`` as shared suffixes.  Stacked by length and sorted
    (X-first before Y-first), the distinct suffixes of its words get rows; per length
    L >= 2 and first letter, the rows of their tails; the words' rows; the coefficients."""
    table = bch_coefficient_table(order)
    levels = [sorted({w[-L:] for w in table if len(w) >= L}) for L in range(1, order + 1)]
    row = {s: i for i, s in enumerate(s for level in levels for s in level)}  # level 1 is X, Y
    tails = [[np.array([row[s[1:]] for s in level if s[0] == a], dtype=int) for a in (0, 1)]
             for level in levels[1:]]
    return tails, np.array([row[w] for w in table]), np.array([float(c) for c in table.values()])


def bch_compose(alg: LieAlgebra, X, Y, order: int) -> np.ndarray:
    """log(exp(X) exp(Y)) as an algebra element, on a nilpotent algebra.

    The series is finite there: words longer than the nilindex p vanish, so
    composing through degree min(order, p) is exact once order >= p.  On any
    other algebra the series is infinite and the composition is refused with
    ValueError rather than truncated.  Each distinct bracket suffix of the words is
    evaluated once: one product per suffix length and first letter, not one chain per word.
    It keeps this level-batched plan, not ``quotient.evaluate_words``: there a product per
    suffix (874 at order 9) made a warm d = 45 composition about seven times slower.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    X, Y = _as_vector(X, alg.dim), _as_vector(Y, alg.dim)
    nil, p = is_nilpotent(alg)
    if not nil:
        raise ValueError("BCH composition is finite only on a nilpotent algebra")
    tails, rows, coeffs = _bch_suffix_plan(max(min(order, p), 1))
    vals = np.stack([X, Y])
    ad_T = alg.ad_many(vals).swapaxes(1, 2)  # w @ ad_T[a] = [letter a, w] row by row
    for tail in tails:
        vals = np.concatenate([vals] + [vals[t] @ ad for t, ad in zip(tail, ad_T)])
    return coeffs @ vals[rows]


# -- bundled Heisenberg tracking example ---------------------------------------

TRACKING_GAIN = np.array([[-0.75, 0.25, 0.0],
                          [-0.25, -0.75, 0.0],
                          [0.0, 0.0, -0.99]])
TRACKING_FEEDFORWARD = np.array([1.0, 2.0, 3.0])
TRACKING_REFERENCE_DIRECTION = np.array([1.0, 2.0, 3.0])  # h1 + 2 h2 + 3 h3
TRACKING_A = np.array([[0.25, 0.25, 0.0],
                       [-0.25, 0.25, 0.0],
                       [0.0, 0.0, 0.01]])
# h1,h2-part of the feedback gain; the bracket letter of the closed loop
TRACKING_IMAGE = np.array([[-0.75, 0.25, 0.0],
                           [-0.25, -0.75, 0.0],
                           [0.0, 0.0, 0.0]])


def heisenberg_tracking_system() -> WordSeriesSystem:
    """Closed-loop Heisenberg tracking-error system as a word-series system.

    Composing the hold-interval exponentials and substituting the feedback
    u = K e - L w gives e+ = A e + (1/2)[F e, e] - (3/2)[F e, W] with
    F the h1,h2 block of the gain K (its h3 row never matters: brackets with
    span{h1,h2} kill the central direction).  The bracket letters are linear
    images of the error, so a second state slot carrying F e is introduced:
    slot 1 is the error itself, slot 2 evolves linearly (the brackets live in
    span{h3}, which F annihilates), and both brackets become plain slot
    words.  With slot 2 initialized to F e[0], slot 1 reproduces the scalar
    error system exactly; the extra slot only appends zero eigenvalues to the
    linear part, leaving the spectral radius at 1/(2 sqrt 2).
    """
    alg = heisenberg()
    A = np.zeros((6, 6))
    A[0:3, 0:3] = TRACKING_A
    A[3:6, 0:3] = TRACKING_IMAGE @ TRACKING_A
    terms = [
        Term(Word((("X", 2), ("X", 1))), np.array([0.5, 0.0])),
        Term(Word((("X", 2), ("W", 1))), np.array([-1.5, 0.0])),
    ]
    return WordSeriesSystem(alg, n=2, r=1, A=A, terms=terms,
                            invariance_ideal=alg.full_subspace(), radius=6.0,
                            name="heisenberg-tracking")


def tracking_state(e0) -> np.ndarray:
    """Stacked initial condition (e, F e) for the tracking system."""
    e0 = np.asarray(e0, dtype=float).reshape(-1)
    return np.concatenate([e0, TRACKING_IMAGE @ e0])


def tracking_signal(w0: float = 1.0) -> ExoSignal:
    """Reference signal W[k] = 2^k w0 (h1 + 2 h2 + 3 h3)."""
    return ExoSignal("geometric", r=1, d=3, base=w0 * TRACKING_REFERENCE_DIRECTION,
                     ratio=2.0)


def tracking_group_step(e, w: float) -> np.ndarray:
    """One error step computed on the group side, through matrix exponentials.

    E+ = exp(2 w V) exp(U) exp(-w V) E with V the reference direction,
    U = u . h, u = K e - L w; returns Log(E+) in basis coordinates.
    """
    alg = heisenberg()
    e = np.asarray(e, dtype=float).reshape(-1)
    u = TRACKING_GAIN @ e - TRACKING_FEEDFORWARD * w
    V = TRACKING_REFERENCE_DIRECTION
    prod = (expm(alg.to_matrix(2 * w * V)) @ expm(alg.to_matrix(u))
            @ expm(alg.to_matrix(-w * V)) @ expm(alg.to_matrix(e)))
    return GroupElement(prod, alg).log_coords()
