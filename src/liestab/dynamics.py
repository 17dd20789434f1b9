"""Discrete-time word-series systems on a Lie algebra.

State X stacks n algebra elements slot-major into R^{n d}; the update is

    X+ = A X + sum_w c_w (x) [Y_w1, [Y_w2, [... Y_w|w|] ...]]

where each word letter Y refers to a state slot X_j or an exogenous slot
W_j, plus optional adjoint-flow families contributing the bracket part of
scale * e^{ad_base}(target).  The linear part of a family (its l = 0 term)
belongs in A, not in the family.

There is one update map, ``evaluate`` being a batch of one of ``evaluate_batch``.  A system
compiles once what a step reads (the terms' ``quotient.word_plan`` over letter indices, each
term's coefficient shaped (1, n, 1), and the families' ``FamilyPlan``), so a call makes only the
numpy calls of its arithmetic; ``_update`` lists them.  Each flow is e^{ad_base} - I from
``_expm1_batch`` (scaling and squaring around a Taylor polynomial of degree m evaluated by
Paterson-Stockmeyer; a nearly nilpotent stack is not scaled).  Maps act on stacked vectors slot
by slot (``quotient._slotwise``).  A system writes A once in its chain's flag coordinates, ``A_flag``,
whose ``quotient.level_block`` is each level's induced linear part and invariance residual;
``invariance_report`` proves every chain level invariant under the map from the residuals within
``quotient.invariance_bound`` and the words' state letters, evaluating nothing.  The map keeps its
input's dtype: ``linearization`` takes the Jacobians at (0, W) by one complex step over every axis,
in chunks of ``LINEARIZATION_ENTRIES``, and ``jacobian_report`` compares them at the origin with (A, 0).

The norm on stacked states is the sum of per-slot Euclidean norms, ``slot_norms``.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .algebra import LieAlgebra, Subspace, derived_algebra, is_nilpotent, lower_central_series
from .quotient import (ChainProjections, InvarianceViolation, _slotwise, evaluate_words, flag_coordinates,
                       invariance_bound, level_block, quotient_algebra, word_plan)

Letter = tuple  # ("X", j) or ("W", j), 1-based slots
LINEARIZATION_ENTRIES = 2 ** 18  # linearization: the entries of one call's steps or flow stacks


class SystemSpecError(ValueError):
    pass


def parse_letter(s) -> Letter:
    if isinstance(s, tuple) and len(s) == 2:
        kind, j = s
    elif isinstance(s, str) and len(s) >= 2 and s[0] in ("X", "W"):
        kind, j = s[0], s[1:]
    else:
        raise SystemSpecError(f"cannot parse letter {s!r}; expected 'X<j>' or 'W<j>'")
    try:
        j = int(j)
    except ValueError:
        raise SystemSpecError(f"cannot parse letter {s!r}") from None
    if kind not in ("X", "W") or j < 1:
        raise SystemSpecError(f"bad letter {s!r}")
    return (kind, j)


@dataclass(frozen=True)
class Word:
    """Right-nested bracket monomial over slot letters."""

    letters: tuple

    def __post_init__(self):
        if len(self.letters) < 2:
            raise SystemSpecError("bracket words have length >= 2; linear terms belong in A")

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def state_letter_count(self) -> int:
        return sum(1 for kind, _ in self.letters if kind == "X")


@dataclass
class Term:
    word: Word
    coeff: np.ndarray  # length n: which state components receive the word

    def __post_init__(self):
        self.coeff = np.asarray(self.coeff, dtype=float)


@dataclass
class AdjointFamily:
    """Bracket part of scale * e^{ad_base}(target) written into one component.

    ``base`` maps letters to scalar weights: base_value = sum b_l * value(l).
    The l-th series term (1/l!) ad_base^l(target) expands into words of
    length l + 1; the l = 0 identity term is excluded here and must be
    accounted for in the system's linear part.
    """

    out_slot: int
    scale: float
    base: dict
    target: Letter

    def __post_init__(self):
        base = {}
        for key, weight in self.base.items():
            letter = parse_letter(key)
            if letter in base:  # "X1" and "X01" are one letter
                raise SystemSpecError(f"family base repeats letter {letter[0]}{letter[1]}")
            base[letter] = float(weight)
        self.base = base
        self.target = parse_letter(self.target)
        if not self.base:
            raise SystemSpecError("family base must reference at least one slot")

    def base_weight_l1(self) -> float:
        return float(sum(abs(v) for v in self.base.values()))

    def has_state_words_only(self) -> bool:
        """True when every expanded word contains a state letter."""
        if self.target[0] == "X":
            return True
        return all(kind == "X" for kind, _ in self.base)


def _letter_index(letter: Letter, n: int) -> int:
    """A letter's row in a step's letter values, state slots first: X_j is j - 1, W_j n + j - 1."""
    return letter[1] - 1 if letter[0] == "X" else n + letter[1] - 1


@dataclass(frozen=True)
class FamilyPlan:
    """The adjoint families of a system as index arrays, made once per system.

    The ``bases`` distinct bases, letters sorted, are summed from 0 as ``sum`` would, a letter of
    each at a time: ``columns`` holds the ``_runs`` of (k, base) cells as (bases, (k+1)-th letters,
    weights or None when all are 1.0).  ``inputs`` and ``states`` index the bases of input letters
    only and the others, whose runs alone are ``state_columns``.  Pair p, a distinct (base,
    target), applies flow ``pair_base[p]`` (p when None) to letter ``pair_target[p]``.  Part j is
    ``scale[j]`` times pair ``pair[j]``; (slots, a, b) in ``adds`` adds parts a..b-1 into those
    state slots, so that each slot takes its families' parts in family order."""

    bases: int
    columns: tuple
    state_columns: tuple
    inputs: np.ndarray
    states: np.ndarray
    pair_base: Optional[np.ndarray]
    pair_target: np.ndarray
    scale: np.ndarray
    pair: np.ndarray
    adds: tuple


def _runs(cells: list) -> list:
    """Sorted (k, i) cells as runs of consecutive i at one k: (slice of the i, positions a, b)."""
    starts = [j for j, (k, i) in enumerate(cells) if not j or cells[j - 1] != (k, i - 1)]
    return [(slice(cells[a][1], cells[b - 1][1] + 1), a, b) for a, b in zip(starts, starts[1:] + [len(cells)])]


def _base_columns(bases: list, n: int) -> tuple:
    """The ``FamilyPlan.columns`` of bases, each a sorted tuple of (letter, weight)."""
    cells = sorted((k, i) for i, base in enumerate(bases) for k in range(len(base)))
    columns = []
    for sel, a, b in _runs(cells) or [(slice(0, 0), 0, 0)]:  # first every base's first letter, even of none
        letters, weights = zip(*[bases[i][k] for k, i in cells[a:b]]) if b > a else ((), ())
        columns.append((sel, np.array([_letter_index(letter, n) for letter in letters], dtype=int),
                        None if set(weights) <= {1.0} else np.array(weights)[:, None, None]))
    return tuple(columns)


def family_plan(families: Sequence[AdjointFamily], n: int) -> Optional[FamilyPlan]:
    """The ``FamilyPlan`` of the families of a system with n state slots; None for no family."""
    if not families:
        return None
    keys = [tuple(sorted(f.base.items())) for f in families]
    family_pairs = [(key, f.target) for key, f in zip(keys, families)]
    bases, pairs = list(dict.fromkeys(keys)), list(dict.fromkeys(family_pairs))
    inputs = [all(kind == "W" for (kind, _), _ in base) for base in bases]
    states = [i for i, only in enumerate(inputs) if not only]
    pair_base = [bases.index(key) for key, _ in pairs]
    # each family after the earlier ones of its slot, the k-th of every slot at once
    ranked = sorted((sum(g.out_slot == f.out_slot for g in families[:i]), f.out_slot - 1, i)
                    for i, f in enumerate(families))
    return FamilyPlan(bases=len(bases), columns=_base_columns(bases, n),
                      state_columns=_base_columns([bases[i] for i in states], n),
                      inputs=np.array([i for i, only in enumerate(inputs) if only], dtype=int),
                      states=np.array(states, dtype=int),
                      pair_base=None if pair_base == list(range(len(bases))) else np.array(pair_base),
                      pair_target=np.array([_letter_index(target, n) for _, target in pairs]),
                      scale=np.array([families[i].scale for *_, i in ranked])[:, None, None],
                      pair=np.array([pairs.index(family_pairs[i]) for *_, i in ranked]),
                      adds=tuple(_runs([(k, slot) for k, slot, _ in ranked])))


def _bases(columns: tuple, vals: np.ndarray) -> np.ndarray:
    """The bases that a ``FamilyPlan``'s ``columns`` name over the rows of the stacked letter
    values: 0 + b_1 v_1 + b_2 v_2 + ..., as ``sum`` adds."""
    (_, letters, weights), *rest = columns
    bases = vals[letters] if weights is None else vals[letters] * weights
    bases += 0.0  # 0 + b_1 v_1 turns -0.0 into 0.0
    for sel, letters, weights in rest:
        bases[sel] += vals[letters] if weights is None else vals[letters] * weights
    return bases


def slot_norms(X, n: int) -> np.ndarray:
    """The sum of the Euclidean norms of the n slots of the last axis of X, over any leading
    axes: the state norm.  A norm past the float range is inf."""
    X = np.asarray(X, dtype=float)
    return np.linalg.norm(X.reshape(*X.shape[:-1], n, X.shape[-1] // n), axis=-1).sum(axis=-1)


class ExoSignal:
    """Exogenous input sequence W[k] stacked into R^{r d}.

    kinds: "samples" (explicit list, repeated cyclically past the end);
    "geometric" (W[k] = ratio^k * base).  The zero signal is one zero sample.
    """

    def __init__(self, kind: str, r: int, d: int, samples=None, base=None,
                 ratio: float = 1.0):
        if kind not in ("samples", "geometric"):
            raise SystemSpecError(f"unknown signal kind {kind!r}")
        self.kind = kind
        self.r = r
        self.d = d
        self.ratio = float(ratio)
        if kind == "samples":
            arr = np.asarray(samples, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != r * d or arr.shape[0] == 0:
                raise SystemSpecError("samples must be a nonempty (K, r*d) array")
            self.samples = arr
        elif kind == "geometric":
            self.base = np.asarray(base, dtype=float).reshape(-1)
            if self.base.shape != (r * d,):
                raise SystemSpecError("geometric base must have length r*d")
            if self.ratio < 0:
                raise SystemSpecError("geometric ratio must be nonnegative")

    @classmethod
    def zero(cls, r: int, d: int) -> "ExoSignal":
        return cls("samples", r, d, samples=np.zeros((1, r * d)))

    def values(self, K: int) -> np.ndarray:
        """W[0], ..., W[K-1] as a (K, r*d) array."""
        if self.kind == "samples":
            return self.samples[np.arange(K) % self.samples.shape[0]]
        # scalar powers: numpy's array power can differ from them in the last bit
        with np.errstate(over="ignore", invalid="ignore"):  # saturates to inf past the float range
            return np.array([np.float64(self.ratio) ** k for k in range(K)])[:, None] * self.base

    def envelope(self) -> tuple:
        """(beta, s) with ||W[k]|| <= beta * s^k, exact for the stored data."""
        with np.errstate(over="ignore"):  # beta past the float range is inf: the certificate overflows
            if self.kind == "samples":
                return float(slot_norms(self.samples, self.r).max()), 1.0
            return float(slot_norms(self.base, self.r)), max(self.ratio, 1.0)


@dataclass
class Trajectory:
    states: np.ndarray           # (K+1, n*d)
    norms: np.ndarray            # (K+1,)
    quotient_norms: np.ndarray   # (K+1, levels)
    diverged: bool = False
    first_bad_index: Optional[int] = None

    @property
    def horizon(self) -> int:
        return self.states.shape[0] - 1


def _min_singular(M: np.ndarray) -> float:
    """Smallest singular value of a square matrix; inf for a 0 x 0 matrix."""
    return float(np.linalg.svd(M, compute_uv=False).min(initial=np.inf))


@lru_cache(maxsize=None)
def _taylor_blocks(m: int) -> np.ndarray:
    """The coefficients 1/k! of X^k, k = 1..m, as rows of q = ceil(sqrt(m)), zero past m."""
    q = math.isqrt(m - 1) + 1
    table = np.array([1.0 / math.factorial(k) for k in range(1, m + 1)] + [0.0] * (-m % q))
    table = table.reshape(-1, q)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _twice_identity(d: int) -> np.ndarray:
    eye2 = 2.0 * np.eye(d)
    eye2.flags.writeable = False
    return eye2


@lru_cache(maxsize=None)
def _ones(d: int) -> np.ndarray:
    ones = np.ones(d)
    ones.flags.writeable = False
    return ones


# k! as floats, the values that dividing a float by math.factorial(k) converts it to
_FACTORIALS = tuple(float(math.factorial(k)) for k in range(18))


def _degree_bound(m: int) -> float:
    """The largest float theta with theta**m / (m+1)! <= 2^-53: the degree rule's threshold."""
    t = (2.0 ** -53 * _FACTORIALS[m + 1]) ** (1 / m) * (1 + 2.0 ** -49)  # a few ulps above it
    while t ** m / _FACTORIALS[m + 1] > 2.0 ** -53:
        t = math.nextafter(t, 0.0)
    return t


_DEGREE_BOUNDS = tuple(_degree_bound(m) for m in range(1, 17))


def _taylor_degree(theta: float) -> int:
    """The least m >= 1 with theta^m / (m+1)! <= 2^-53, for 0 <= theta; 17 past degree 16."""
    return bisect.bisect_left(_DEGREE_BOUNDS, theta) + 1


def _expm1_batch(mats: np.ndarray) -> np.ndarray:
    """e^M - I for each matrix of a (..., d, d) stack, by scaling and squaring.

    One scaling 2^-s brings the largest induced 1-norm theta of the stack to at most 1/2, and
    the Taylor degree m is the least with theta^(m+1)/(m+1)! <= 2^-53 theta, which keeps every
    row's relative error near rounding level.  sum_{k=1..m} X^k/k! is evaluated by
    Paterson-Stockmeyer: with q = ceil(sqrt(m)), the powers X, ..., X^q once, one GEMM of the
    cached 1/k! table against them for every block sum_{i=1..q} X^i/(jq+i)!, and Horner's rule
    in X^q; a GEMM column is one entry of one row, so no row's values depend on another's.
    E <- E (E + 2I) undoes the scaling.  A row that is not finite or would need more than 60
    squarings gives NaN and is left out of the others' maxima (taken unmasked when every row is
    finite).  A call forms only what its rules read: |M| and its column sums, the powers up
    to X^q, X^3's column sums when s > 3, one GEMM, and the Horner products and squarings.  A
    complex stack stays complex, its rules reading the moduli (``WordSeriesSystem.linearization``).

    The 1-norm overstates what a nearly nilpotent stack, the ``ad`` of an ideal-valued input,
    needs.  When s > 3, the scaled X^3 gives alpha = max(||X^3||^(1/3), (||X^3|| theta)^(1/4)) >=
    max(||X^3||^(1/3), ||X^4||^(1/4)), unscaled, and by Al-Mohy and Higham (SIAM J. Matrix Anal.
    Appl. 31 (2009) 970-989, Thm 4.2, p = 3) the Taylor tail past degree m >= 5 is at most
    sum_{k>m} alpha^k/k!: the least such m <= 16 with alpha^m/(m+1)! <= 2^-53 keeps it near
    2^-53 ||X||, the scaled rule's accuracy.  If that degree takes fewer products than the s
    squarings, the stack is evaluated unscaled, X^2 and X^3 rescaled in place by 4^s and 8^s;
    every other stack keeps the scaled rule's s, m and bits.  A strictly triangular pattern is
    nilpotent: at index 3 (``ad`` of the derived algebra of ``upper_triangular6``, or of
    Heisenberg) alpha = 0 and m = 5.
    """
    mats = np.asarray(mats)
    mats = mats.astype(np.promote_types(mats.dtype, float), copy=False)
    d = mats.shape[-1]
    colsums = _ones(d) @ np.abs(mats)
    theta, ok = float(colsums.max(initial=0.0)), True
    if not theta <= 2.0 ** 59:  # some row is not finite or too large
        norms = colsums.max(axis=-1, initial=0.0)
        ok = norms <= 2.0 ** 59  # False for inf and NaN too
        theta = float(norms.max(initial=0.0, where=ok))
        mats = np.where(ok[..., None, None], mats, np.nan)
    s = math.ceil(math.log2(theta)) + 1 if theta > 0.5 else 0
    m = _taylor_degree(theta * 2.0 ** -s)
    powers = np.empty((math.isqrt(m - 1) + 1,) + mats.shape, dtype=mats.dtype)  # X, ..., X^q, the power first
    np.multiply(mats, 2.0 ** -s, out=powers[0])
    for i in range(1, min(len(powers), 3)):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    if s > 3:  # an unscaled polynomial of degree >= 5 takes at least 3 products
        cubes = _ones(d) @ np.abs(powers[2])
        cube_norm = float(cubes.max() if ok is True else cubes.max(axis=-1).max(initial=0.0, where=ok)) * 8.0 ** s
        unscaled = max(5, _taylor_degree(max(cube_norm ** (1 / 3), (cube_norm * theta) ** 0.25)))
        if unscaled <= 16 and sum(_taylor_blocks(unscaled).shape) - 2 < s:
            powers[1] *= 4.0 ** s
            powers[2] *= 8.0 ** s
            powers[0] = mats
            s, m = 0, unscaled
    table = _taylor_blocks(m)
    blocks, q = table.shape
    powers = powers[:q]
    for i in range(3, q):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    # at degree 1 the table is [[1]] and the polynomial X itself
    sums = powers if q == 1 else (table @ powers.reshape(q, -1)).reshape((blocks,) + mats.shape)
    out = sums[-1]
    for j in range(blocks - 2, -1, -1):
        out = powers[-1] @ out
        out += sums[j]
    for _ in range(s):
        out = out @ (out + _twice_identity(d))
    return out


class WordSeriesSystem:
    """The full system: algebra, linear part, words, families, invariance chain."""

    def __init__(self, algebra: LieAlgebra, n: int, r: int, A: np.ndarray,
                 terms: Sequence[Term] = (), families: Sequence[AdjointFamily] = (),
                 invariance_ideal: Optional[Subspace] = None, radius: float = 1.0,
                 name: str = ""):
        self.algebra = algebra
        self.n = int(n)
        self.r = int(r)
        if self.n < 1 or self.r < 1:
            raise SystemSpecError("need n >= 1 state slots and r >= 1 input slots")
        d = algebra.dim
        self.A = np.asarray(A, dtype=float)
        if self.A.shape != (self.n * d, self.n * d):
            raise SystemSpecError(f"A must be {self.n * d}x{self.n * d}, got {self.A.shape}")
        self.terms = list(terms)
        self.families = list(families)
        self.radius = float(radius)
        self.name = name
        for t in self.terms:
            if t.coeff.shape != (self.n,):
                raise SystemSpecError("term coefficient vectors must have length n")
        for i, f in enumerate(self.families):
            if not (1 <= f.out_slot <= self.n):
                raise SystemSpecError(f"families[{i}]: out_slot out of range")
        named = [(f"terms[{i}]", t.word.letters) for i, t in enumerate(self.terms)]
        named += [(f"families[{i}]", (*f.base, f.target)) for i, f in enumerate(self.families)]
        for where, letters in named:
            for kind, j in letters:
                if j > (self.n if kind == "X" else self.r):
                    raise SystemSpecError(f"{where}: letter {kind}{j} out of range")
        ideal = invariance_ideal if invariance_ideal is not None else algebra.full_subspace()
        chain = algebra.central_chain if ideal.dim == d else lower_central_series(algebra, ideal)
        if not chain.terminated:
            raise SystemSpecError("invariance ideal must be nilpotent")
        if not ideal.contains(derived_algebra(algebra)):
            raise SystemSpecError("invariance ideal must contain the derived algebra [g, g]")
        self.ideal = ideal
        self.nilindex = len(chain) - 1
        self.chain = chain
        self.projections = ChainProjections(algebra, self.chain)
        self.A_flag = flag_coordinates(self.projections.flag, self.A, self.n)  # every level's blocks of A
        words = [tuple(_letter_index(letter, self.n) for letter in t.word.letters) for t in self.terms]
        self._plan = word_plan(words)
        self._terms = [(self._plan[0].index(w), t.coeff[None, :, None])  # (word's position, coeff as (1, n, 1))
                       for t, w in zip(self.terms, words)]
        self._families = family_plan(self.families, self.n)
        self._input_flows = (None, None)  # one-entry memo: shared input row -> its input-only flows

    # -- bookkeeping -------------------------------------------------------

    @property
    def d(self) -> int:
        return self.algebra.dim

    @property
    def state_dim(self) -> int:
        return self.n * self.d

    def state_norm(self, X: np.ndarray) -> float:
        return float(slot_norms(np.ravel(X), self.n))

    def mu(self) -> float:
        """The algebra's bracket bound, ``bracket_constant``, computed once per algebra."""
        return self.algebra.mu

    def coordinate_names(self) -> list:
        return [f"X{s+1}_{lab}" for s in range(self.n) for lab in self.algebra.labels]

    # -- evaluation and simulation ------------------------------------------

    def evaluate(self, X, W) -> np.ndarray:
        """One step of the update map: the batch of one of ``evaluate_batch``."""
        X = np.asarray(X, dtype=float).reshape(-1)
        W = np.asarray(W, dtype=float).reshape(-1)
        if X.shape != (self.state_dim,) or W.shape != (self.r * self.d,):
            raise SystemSpecError("state/input stack has wrong length")
        return self._update(X[None], W)[0]

    def evaluate_batch(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """The update map over a (B, n*d) batch of states, under one stacked input shared by
        the batch, kept as a single row, or a (B, r*d) stack (see ``_update``)."""
        return self._update(np.asarray(X, dtype=float), np.asarray(W, dtype=float))

    def _update(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        """One step of B rows, in the numpy calls of its arithmetic only: the product A X; per
        leading letter one ``ad_many``, per suffix one product, per term a multiply and an add;
        per run of base letters a gather, one ``ad_many``, the flows, per distinct (base, target)
        one product, and per run of slots one add.  A scalar step takes its flows in one kernel
        call (on one row its cost is nearly all Python overhead); a batch one per flow of state
        letters, since a stack's rows share its Taylor degree (the tiny X2 rows behind the O(1)
        X1 + W1 rows of the example-6.1 search), and the input-only flows of a shared input row
        once, memoised on W's bytes."""
        B, n, d = X.shape[0], self.n, self.d
        Xs = X.reshape(B, n, d)
        Ws = W.reshape(W.shape[0] if W.ndim > 1 else 1, self.r, d)
        out = (X @ self.A.T).reshape(B, n, d)
        if self._terms:  # the letters are the slots of X and W, state slots first
            words = evaluate_words(self.algebra, self._plan, [*Xs.swapaxes(0, 1), *Ws.swapaxes(0, 1)])
            for i, coeff in self._terms:
                out += coeff * words[i][:, None, :]
        plan = self._families
        if plan is None or not B:  # an empty batch has no row to take input-only flows from
            return out.reshape(X.shape)
        vals = np.empty((n + self.r, B, d), dtype=np.promote_types(X.dtype, W.dtype))  # letters, states first
        vals[:n] = Xs.swapaxes(0, 1)
        vals[n:] = Ws.swapaxes(0, 1)  # a shared input row repeated over the batch
        shared = B > 1 and Ws.shape[0] == 1 and plan.inputs.size
        if shared and self._input_flows[0] != W.tobytes():
            ads = self.algebra.ad_many(_bases(plan.columns, vals[:, :1]))
            self._input_flows = (W.tobytes(), _expm1_batch(ads[plan.inputs, 0]))
        ads = self.algebra.ad_many(_bases(plan.state_columns if shared else plan.columns, vals))
        if B == 1:
            flows = _expm1_batch(ads[:, 0])[:, None]
        else:
            flows = np.empty((plan.bases,) + ads.shape[1:], dtype=ads.dtype)  # C order: ``ads`` is a transposed view
            if shared:
                flows[plan.inputs] = self._input_flows[1][:, None]
            for i, ad in zip(plan.states if shared else range(plan.bases), ads):
                flows[i] = _expm1_batch(ad)
        # C-contiguous stacks, so each (d, d) @ (d, 1) product takes the BLAS call it takes alone
        pair_flows = flows if plan.pair_base is None else flows[plan.pair_base]
        prods = (pair_flows @ vals[plan.pair_target, ..., None])[..., 0]
        parts = plan.scale * prods[plan.pair]
        slots = np.ascontiguousarray(out.swapaxes(0, 1))  # slot-major: a copy unless B == 1
        for sel, a, b in plan.adds:  # each slot's parts in family order
            slots[sel] += parts[a:b]
        return slots.swapaxes(0, 1).reshape(X.shape)

    def simulate(self, X0, signal: ExoSignal, k_max: int) -> Trajectory:
        """``k_max`` steps from X0 under ``signal``: the batch of one of ``simulate_batch``."""
        return self.simulate_batch(np.asarray(X0, dtype=float).reshape(1, -1), [signal], k_max)[0]

    def simulate_batch(self, X0s, signals: Sequence[ExoSignal], k_max: int) -> list:
        """Run b from row b of a (B, n*d) stack under ``signals[b]``, one ``_update`` call a step.

        A run stops at its first non-finite input or state, or at a state entry past 1e100:
        it ends at the last good state, ``first_bad_index`` being the index of the bad one, and
        the other runs go on; one reduction tests a step, and only a failed test builds the mask.
        With adjoint families a run can differ from its batch of one in the last bits, since the
        rows of a flow share the flow kernel's choices: one scaling and Taylor degree, or one
        unscaled degree when their power norms allow it.
        """
        if k_max < 0:
            raise SystemSpecError("horizon must be nonnegative")
        X0s = np.asarray(X0s, dtype=float)
        B = len(signals)
        if X0s.shape != (B, self.state_dim) or any(s.r * s.d != self.r * self.d for s in signals):
            raise SystemSpecError("state/input stack has wrong length")
        W = np.array([s.values(k_max) for s in signals]).reshape(B, k_max, self.r * self.d)
        # a run stops before the first step that would read a non-finite X0 or input
        go = np.isfinite(W).all(axis=2) & np.isfinite(X0s).all(axis=1)[:, None]
        ends = np.concatenate([go, np.zeros((B, 1), bool)], axis=1).argmin(axis=1)
        cuts = set(ends[ends < k_max].tolist())
        states = np.zeros((B, k_max + 1, self.state_dim))
        states[:, 0] = X = X0s
        rows, live = np.arange(B), slice(None)  # live indexes the running rows: no copy until one stops
        with np.errstate(over="ignore", invalid="ignore"):  # a run past the float range stops below
            for k in range(k_max):
                if k in cuts:
                    keep = ends[rows] > k
                    rows = live = rows[keep]
                    X = X[keep]
                if not rows.size:
                    break
                nxt = self._update(X, W[live, k])
                if not np.abs(nxt).max(initial=0.0) <= 1e100:  # max propagates NaN
                    good = (np.abs(nxt) <= 1e100).all(axis=1)  # False for inf and NaN too
                    ends[rows[~good]] = k
                    rows = live = rows[good]
                    nxt = nxt[good]
                states[live, k + 1] = X = nxt
            norms = slot_norms(states, self.n)  # inf for an X0 past the float range
            flagged = _slotwise(self.projections.flag, states, self.n).reshape(B, k_max + 1, self.n, self.d)
            qnorms = np.stack([np.linalg.norm(flagged[..., :ctx.quotient_dim], axis=-1).sum(axis=-1)
                               for ctx in self.projections.contexts], axis=2)
        return [Trajectory(states[b, :e + 1], norms[b, :e + 1], qnorms[b, :e + 1], diverged=e < k_max,
                           first_bad_index=e + 1 if e < k_max else None)
                for b, e in enumerate(ends.tolist())]

    # -- family expansion and the convergence majorant -----------------------

    def expand_family(self, fam: AdjointFamily) -> list:
        """Exact multilinear expansion of a family into explicit Terms.

        Words of length l + 1 arise from (1/l!) ad_base^l(target).  On a
        nilpotent algebra of nilindex p such a word lies in the (l + 1)-th
        central ideal, so l = 1..p - 1 is the whole series (none for an
        abelian algebra).  On any other algebra the series is infinite and the
        expansion is refused with SystemSpecError rather than truncated.
        """
        nil, p = is_nilpotent(self.algebra)
        if not nil:
            raise SystemSpecError("a family series is finite only on a nilpotent algebra")
        base_letters = list(fam.base.items())
        out = []
        coeff_dirs = np.zeros(self.n)
        coeff_dirs[fam.out_slot - 1] = 1.0
        stack = [((), 1.0)]
        for level in range(1, p):
            stack = [(seq + (letter,), w * weight)
                     for seq, w in stack for letter, weight in base_letters]
            fact = math.factorial(level)
            for seq, w in stack:
                scalar = fam.scale * w / fact
                if scalar == 0.0:
                    continue
                out.append(Term(Word(seq + (fam.target,)), scalar * coeff_dirs))
        return out

    def all_terms(self) -> list:
        """Explicit terms plus every family's exact expansion (nilpotent algebras only)."""
        out = list(self.terms)
        for f in self.families:
            out.extend(self.expand_family(f))
        return out

    def series_majorant(self, radius: float) -> float:
        """sum_w mu^{|w|-1} ||c_w||_1 radius^{|w|}, families summed in closed form.

        A finite value certifies strong absolute convergence of the word
        series on the ball of the given radius.  A word adds c_j w to slot j,
        and the state norm sums the slot norms, so c_w enters by its 1-norm.
        """
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        mu = self.mu()
        total = 0.0
        try:
            for t in self.terms:
                total += mu ** (t.word.length - 1) * float(np.abs(t.coeff).sum()) * radius ** t.word.length
            for f in self.families:
                x = mu * f.base_weight_l1() * radius
                total += abs(f.scale) * radius * (math.expm1(x))
        except OverflowError:  # a power or expm1 past the float range
            return math.inf
        return total

    # -- structural and numerical checks -------------------------------------

    def structural_state_letter_ok(self) -> bool:
        """Every stored word and every family word contains a state letter."""
        return (all(t.word.state_letter_count >= 1 for t in self.terms)
                and all(f.has_state_words_only() for f in self.families))

    def invariance_report(self) -> dict:
        """Invariance of every chain level h_i under the map, decided by the paper's theorem.

        The system's ideal contains [g, g], so it is an ideal of g; by Jacobi so is every term of
        its lower central series, and of the series of g.  A word with a state letter in h_i
        therefore lands in h_i, and so does a family whose target is a state letter, or whose
        base letters are all state letters.  So the map keeps every h_i, and nothing is sampled,
        when ``state_letters`` holds and each level's ``linear_residual``, how far A moves h_i
        off itself (the residual of ``quotient.level_block``), is at most ``bound``.
        """
        bound = invariance_bound(self.A)
        levels = [{"level": idx + 1, "dim": ctx.ideal.dim,
                   "linear_residual": level_block(self.A_flag, ctx.quotient_dim)[1]}
                  for idx, ctx in enumerate(self.projections.contexts)]
        state_letters = self.structural_state_letter_ok()
        ok = state_letters and all(lv["linear_residual"] <= bound for lv in levels)
        return {"ok": ok, "kind": "proof", "state_letters": state_letters, "bound": bound,
                "levels": levels}

    def equilibrium_report(self, seed: int = 0, starts: int = 100,
                           iters: int = 300) -> dict:
        """Falsification search for nonzero fixed points, plus structural facts.

        Cannot prove uniqueness; reports structural state-letter coverage,
        invertibility margins of I - A (full and on the top quotient, where the
        dynamics are linear), and any fixed point with small residual and non-small
        norm of the 1/2-damped iteration under a zero and a random input, each of whose
        ``iters`` steps is one ``evaluate_batch`` call on the starts not yet past 1e30.
        ``surviving_starts`` counts, per input, the starts still searched after the last step.
        """
        rng = np.random.default_rng(seed)
        structural = self.structural_state_letter_ok()
        lin_margin = _min_singular(np.eye(self.state_dim) - self.A)
        A0 = level_block(self.A_flag, self.projections[0].quotient_dim)[0]  # invariance_report judges it
        q_margin = _min_singular(np.eye(A0.shape[0]) - A0)
        violations, surviving = [], []
        with np.errstate(over="ignore", invalid="ignore"):  # a start past the float range leaves
            for w in [np.zeros(self.r * self.d), rng.standard_normal(self.r * self.d) * 0.5]:
                xs = rng.standard_normal((starts, self.state_dim)) * max(self.radius, 1.0)
                for _ in range(iters):
                    fx = self.evaluate_batch(xs, w)
                    if not np.abs(fx).max(initial=0.0) < 1e30:  # a start that goes bad leaves the search
                        good = np.abs(fx).max(axis=1, initial=0.0) < 1e30  # False for inf and NaN too
                        xs, fx = xs[good], fx[good]
                    fx -= xs  # xs + 0.5 (fx - xs), in place
                    fx *= 0.5
                    xs += fx
                    if not len(xs):
                        break
                surviving.append(len(xs))
                resids = np.linalg.norm(self._update(xs, w) - xs, axis=1)
                norms = slot_norms(xs, self.n)
                for x, resid, nrm in zip(xs, resids, norms):
                    if resid < 1e-8 and nrm > 1e-4:
                        violations.append({"norm": float(nrm), "residual": float(resid), "point": x.tolist()})
        return {"structural_ok": structural,
                "linear_margin": lin_margin,
                "quotient_linear_margin": q_margin,
                "violations": violations,
                "surviving_starts": surviving,
                "ok": structural and not violations}

    def linearization(self, W) -> tuple:
        """The state and input Jacobians (J_X, J_W) of the update map at (0, W), by complex step.

        Column k of (J_X, J_W) is Im F(i h e_k) / h over the (n + r) d joint state and input
        axes, the input rows offset by W, in ``_update`` calls of LINEARIZATION_ENTRIES //
        (d max(d, n + r)) rows, a row holding (n + r) d steps and d^2 entries of each flow, so
        a call's temporaries stay bounded whatever r.  It takes no difference of nearby values, so nothing
        cancels: the error is rounding plus the O(h^2) of the third derivative, and h = 2^-100,
        a power of two, divides exactly (Squire and Trapp, SIAM Rev. 40 (1998) 110-112; through
        the flow kernel, Al-Mohy and Higham, Numer. Algorithms 53 (2010) 133-148).
        """
        h, nd = 2.0 ** -100, self.state_dim
        W = np.asarray(W, dtype=float).reshape(-1)
        if W.shape != (self.r * self.d,):
            raise SystemSpecError("input stack has wrong length")
        axes = nd + W.size
        rows = max(1, LINEARIZATION_ENTRIES // max(1, self.d * max(self.d, self.n + self.r)))
        J = np.empty((nd, axes))
        with np.errstate(over="ignore", invalid="ignore"):  # a map past the float range: NaN
            for k in range(0, axes, rows):
                steps = np.eye(min(rows, axes - k), axes, k) * (1j * h)
                steps[:, nd:] += W
                J[:, k:k + rows] = self._update(steps[:, :nd], steps[:, nd:]).imag.T / h
        return J[:, :nd], J[:, nd:]

    def jacobian_report(self) -> dict:
        """The linearization at the origin, ``linearization`` at W = 0, against (A, 0).

        It is (A, 0) for every valid system: a word has two letters or more, and a family has no
        l = 0 term.  At the origin a step i h e_k makes every letter a multiple of one axis, whose
        brackets vanish, so only A's product rounds, and h A underflows for entries below 2^-922.
        ``state_error`` ||J_X - A||_F and ``input_error`` ||J_W||_F pass when at most ``bound``
        = nd (2^-53 ||A||_F + 2^-975): the product's rounding, and each entry of h A off by at
        most 2^-1075, 2^-975 once divided by h.  The derivative leaves no remainder to fit, so
        ``exact`` is ``ok`` and ``observed_order`` is None.
        """
        J_X, J_W = self.linearization(np.zeros(self.r * self.d))
        state_error, input_error = float(np.linalg.norm(J_X - self.A)), float(np.linalg.norm(J_W))
        bound = self.state_dim * (2.0 ** -53 * float(np.linalg.norm(self.A)) + 2.0 ** -975)
        ok = state_error <= bound and input_error <= bound  # NaN fails
        return {"ok": ok, "exact": ok, "observed_order": None, "state_error": state_error,
                "input_error": input_error, "bound": bound}

    # -- quotient dynamics ----------------------------------------------------

    def quotient_system(self, level: int) -> "WordSeriesSystem":
        """Induced system on the quotient modulo chain ideal ``level`` + 1.

        Words and families are shared; only the algebra, the linear part (a ``level_block``
        of ``A_flag``), and the invariance chain are pushed through the projection.  Raises
        InvarianceViolation if A moves the factored ideal off itself past ``invariance_bound``.
        """
        ctx = self.projections[level]
        Abar, resid = level_block(self.A_flag, ctx.quotient_dim)
        if resid > invariance_bound(self.A):
            raise InvarianceViolation(resid)
        proj_ideal = Subspace(ctx.P @ self.ideal.onb) if self.ideal.dim else Subspace.zero(ctx.quotient_dim)
        return WordSeriesSystem(quotient_algebra(ctx), self.n, self.r, Abar, self.terms, self.families,
                                invariance_ideal=proj_ideal, radius=self.radius,
                                name=f"{self.name}/level{level}" if self.name else "")

    def commuting_square_residual(self, level: int, samples: int = 100,
                                  seed: int = 0) -> float:
        """Residual of project-then-step versus step-then-project."""
        qsys = self.quotient_system(level)
        P = self.projections[level].P
        rng = np.random.default_rng(seed)
        draws = rng.standard_normal((samples, self.state_dim + self.r * self.d))
        X, W = draws[:, :self.state_dim], draws[:, self.state_dim:]
        lhs = _slotwise(P, self._update(X, W), self.n)
        rhs = qsys._update(_slotwise(P, X, self.n), _slotwise(P, W, self.r))
        return float(np.linalg.norm(lhs - rhs, axis=1).max(initial=0.0))
