"""Discrete-time word-series systems on a Lie algebra.

State X stacks n algebra elements slot-major into R^{n d}; the update is

    X+ = A X + sum_w c_w (x) [Y_w1, [Y_w2, [... Y_w|w|] ...]]

where each word letter Y refers to a state slot X_j or an exogenous slot
W_j, plus optional adjoint-flow families contributing the bracket part of
scale * e^{ad_base}(target).  The linear part of a family (its l = 0 term)
belongs in A, not in the family.

There is one update map, ``evaluate`` being a batch of one of ``evaluate_batch``: the
terms go through ``quotient.evaluate_words`` on a plan of their suffixes made once, one
product per suffix and one ``ad_many`` per leading letter a call; each family flow is
e^{ad_base} - I from ``_expm1_batch`` (scaling and squaring around a Taylor polynomial of
degree m evaluated by Paterson-Stockmeyer, about 2 sqrt(m) products), applied to the target
directly; the single-row flows of a call share one kernel call, and a batch reuses the
input-only flows of the last shared input (a one-entry memo).  Maps act on stacked vectors slot
by slot (``quotient._slotwise``), and the linear part induced on a quotient is
``quotient.induced_map``, which rejects an A that moves a chain ideal off itself by more than
``quotient.invariance_bound``.

The norm on stacked states is the sum of per-slot Euclidean norms, ``slot_norms``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from .algebra import LieAlgebra, Subspace, derived_algebra, is_nilpotent, lower_central_series
from .quotient import (ChainProjections, _slotwise, evaluate_words, induced_map, invariance_bound,
                       invariance_residual, off_ideal_part, quotient_algebra, word_plan)

Letter = tuple  # ("X", j) or ("W", j), 1-based slots
NONLINEAR_INVARIANCE_TOL = 1e-9  # invariance_report: the map's off-ideal part, relative to max(1, ||F||)
MIN_REMAINDER_ORDER = 1.9  # jacobian_report: the least observed order of the linearization's remainder
RESOLUTION_FLOOR = 1e-3  # jacobian_report: a step resolves A when its floors are below this times max(1, ||A||_F)


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
        self.base = {parse_letter(k): float(v) for k, v in self.base.items()}
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

    def projected(self, P: np.ndarray) -> "ExoSignal":
        if self.kind == "samples":
            return ExoSignal("samples", self.r, P.shape[0],
                             samples=_slotwise(P, self.samples, self.r))
        return ExoSignal("geometric", self.r, P.shape[0],
                         base=_slotwise(P, self.base, self.r), ratio=self.ratio)


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


def _expm1_batch(mats: np.ndarray) -> np.ndarray:
    """e^M - I for each matrix of a (..., d, d) stack, by scaling and squaring.

    One scaling 2^-s brings the largest induced 1-norm theta of the stack to
    at most 1/2, and the Taylor degree m is the least with theta^(m+1)/(m+1)!
    <= 2^-53 theta, which keeps every row's relative error near rounding level.
    The polynomial sum_{k=1..m} X^k/k! is evaluated by Paterson-Stockmeyer: with
    q = ceil(sqrt(m)), the powers X, ..., X^q are formed once, one GEMM of the
    cached table of 1/k! against the stacked powers gives every block
    sum_{i=1..q} X^i/(jq+i)!, and Horner's rule in X^q adds the blocks up,
    about 2 sqrt(m) products in all.  Each column of that GEMM is one matrix
    entry of one row, so no row's values depend on another's.
    E <- E (E + 2I) then undoes the scaling.  A row that is not finite or
    would need more than 60 squarings gives NaN and leaves the scaling of the
    other rows alone.
    """
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    colsums = np.ones(d) @ np.abs(mats)
    theta = float(colsums.max(initial=0.0))
    if not theta <= 2.0 ** 59:  # some row is not finite or too large
        norms = colsums.max(axis=-1, initial=0.0)
        ok = norms <= 2.0 ** 59  # False for inf and NaN too
        theta = float(norms.max(initial=0.0, where=ok))
        mats = np.where(ok[..., None, None], mats, np.nan)
    s = math.ceil(math.log2(theta)) + 1 if theta > 0.5 else 0
    theta *= 2.0 ** -s
    m = 1
    while theta ** m / math.factorial(m + 1) > 2.0 ** -53:
        m += 1
    table = _taylor_blocks(m)
    blocks, q = table.shape
    powers = np.empty((q,) + mats.shape)  # X, ..., X^q, the power first
    np.multiply(mats, 2.0 ** -s, out=powers[0])
    for i in range(1, q):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    # at degree 1 the table is [[1]] and the polynomial X itself
    sums = powers if m == 1 else (table @ powers.reshape(q, -1)).reshape((blocks,) + mats.shape)
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
        self._plan = word_plan([t.word.letters for t in self.terms])
        self._pairs = [(tuple(sorted(f.base.items())), f.target) for f in self.families]
        self._keys = list(dict.fromkeys(key for key, _ in self._pairs))
        self._input_keys = [key for key in self._keys if all(k == "W" for (k, _), _ in key)]
        self._input_flows = (None, {})  # one-entry memo: shared input row -> its input-only flows

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
        """The update map over a (B, n*d) batch of states.

        W is either one stacked input shared by the batch, kept as a single
        row so that flows whose base holds only input letters are computed
        once, and again only when W differs from the last shared input, or a
        (B, r*d) stack.  Families with the same base share one flow, taken as
        e^{ad_base} - I; those that also share a target share one product.
        """
        return self._update(np.asarray(X, dtype=float), np.asarray(W, dtype=float))

    def _update(self, X: np.ndarray, W: np.ndarray) -> np.ndarray:
        B = X.shape[0]
        Xs = X.reshape(B, self.n, self.d)
        Ws = W.reshape(W.shape[0] if W.ndim > 1 else 1, self.r, self.d)
        out = (X @ self.A.T).reshape(B, self.n, self.d)

        def letter_vals(letter: Letter) -> np.ndarray:
            kind, j = letter
            return Xs[:, j - 1, :] if kind == "X" else Ws[:, j - 1, :]

        words = evaluate_words(self.algebra, self._plan, letter_vals)
        for t in self.terms:
            out += t.coeff[np.newaxis, :, np.newaxis] * words[t.word.letters][:, np.newaxis, :]

        def ad(key) -> np.ndarray:
            return self.algebra.ad_many(sum(wgt * letter_vals(l) for l, wgt in key))

        def single_flows(keys) -> dict:
            return dict(zip(keys, _expm1_batch(np.concatenate([ad(k) for k in keys]))[:, None])) if keys else {}

        # On one row the kernel cost is nearly all Python overhead, so the single-row flows
        # (every flow of a scalar step, the input-only flows under a shared W, memoised on
        # W's bytes) share one call.  A multi-row flow keeps its own: stacked with another
        # base its rows would take the Taylor degree of the larger norm (the tiny X2 rows
        # behind the O(1) X1 + W1 rows of the example-6.1 equilibrium search).
        shared = B != 1 and Ws.shape[0] == 1
        if shared and self._input_flows[0] != W.tobytes():
            self._input_flows = (W.tobytes(), single_flows(self._input_keys))
        flows = single_flows(self._keys) if B == 1 else dict(self._input_flows[1]) if shared else {}
        flows.update((key, _expm1_batch(ad(key))) for key in self._keys if key not in flows)
        prods = {pair: (flows[pair[0]] @ letter_vals(pair[1])[..., None])[..., 0]
                 for pair in dict.fromkeys(self._pairs)}
        for f, pair in zip(self.families, self._pairs):
            out[:, f.out_slot - 1, :] += f.scale * prods[pair]
        return out.reshape(X.shape)

    def simulate(self, X0, signal: ExoSignal, k_max: int) -> Trajectory:
        """``k_max`` steps from X0 under ``signal``: the batch of one of ``simulate_batch``."""
        return self.simulate_batch(np.asarray(X0, dtype=float).reshape(1, -1), [signal], k_max)[0]

    def simulate_batch(self, X0s, signals: Sequence[ExoSignal], k_max: int) -> list:
        """Run b from row b of a (B, n*d) stack under ``signals[b]``, one ``_update`` call a step.

        A run stops at its first non-finite input or state, or at a state entry past 1e100:
        it ends at the last good state, ``first_bad_index`` being the index of the bad one, and
        the other runs go on.  With adjoint families a run can differ from its batch of one in
        the last bits, since the rows of a flow share one scaling of the flow kernel.
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
                good = np.abs(nxt) <= 1e100  # False for inf and NaN too
                if not good.all():
                    good = good.all(axis=1)
                    ends[rows[~good]] = k
                    rows = live = rows[good]
                    nxt = nxt[good]
                states[live, k + 1] = X = nxt
            norms = slot_norms(states, self.n)  # inf for an X0 past the float range
            qnorms = np.stack([slot_norms(_slotwise(ctx.P, states, self.n), self.n)
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

    def invariance_report(self, seed: int = 0) -> dict:
        """Invariance of every chain level under A and under the full map (20 samples a level).

        ``overflow_level`` is the first level at which a sampled map value is not finite, else None.
        """
        rng = np.random.default_rng(seed)
        levels = []
        ok = True
        overflow = None
        with np.errstate(over="ignore", invalid="ignore"):  # a map past the float range: NaN fails
            for idx, ctx in enumerate(self.projections.contexts):
                sub = ctx.ideal
                if sub.dim == 0:
                    levels.append({"level": idx + 1, "dim": 0, "linear_residual": 0.0,
                                   "nonlinear_residual": 0.0})
                    continue
                lin = invariance_residual(sub, self.A)
                ok = ok and lin <= invariance_bound(self.A)
                # one draw per sample, its state coordinates first: the draws of a per-sample loop
                draws = rng.standard_normal((20, self.n * sub.dim + self.r * self.d))
                y = self._update(_slotwise(sub.onb, draws[:, :self.n * sub.dim], self.n),
                                 draws[:, self.n * sub.dim:])
                if overflow is None and not np.isfinite(y).all():
                    overflow = idx + 1
                off = np.linalg.norm(off_ideal_part(sub, y, self.n), axis=1)
                nl = float((off / np.maximum(1.0, np.linalg.norm(y, axis=1))).max(initial=0.0))
                levels.append({"level": idx + 1, "dim": sub.dim, "linear_residual": lin,
                               "nonlinear_residual": nl})
                ok = ok and nl < NONLINEAR_INVARIANCE_TOL
        return {"ok": ok and overflow is None, "levels": levels, "overflow_level": overflow}

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
        ctx0 = self.projections[0]  # unchecked: invariance_report judges the ideal
        A0 = _slotwise(ctx0.P, _slotwise(ctx0.P, self.A, self.n).T, self.n).T
        q_margin = _min_singular(np.eye(A0.shape[0]) - A0)
        violations, surviving = [], []
        with np.errstate(over="ignore", invalid="ignore"):  # a start past the float range leaves
            for w in [np.zeros(self.r * self.d), rng.standard_normal(self.r * self.d) * 0.5]:
                xs = rng.standard_normal((starts, self.state_dim)) * max(self.radius, 1.0)
                for _ in range(iters):
                    fx = self.evaluate_batch(xs, w)
                    good = np.abs(fx).max(axis=1, initial=0.0) < 1e30  # False for inf and NaN too
                    if not good.all():  # a start that goes bad leaves the search
                        xs, fx = xs[good], fx[good]
                    xs = xs + 0.5 * (fx - xs)
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

    def jacobian_report(self, h_steps: Sequence[float] = (1e-2, 1e-3, 1e-4),
                        seed: int = 0) -> dict:
        """Central finite-difference linearization at the origin versus A.

        Coordinate-axis differences recover the Jacobian itself (for slot
        words they are exact: a bracket word needs two active letters and an
        axis perturbation activates one).  The quadratic convergence rate of
        the remainder is measured along 8 random joint state/input directions,
        where words of length >= 3 contribute; systems whose series stops at
        quadratic words are exact there too and report no order.  The difference quotient
        D of a probe p is exact when its error is below its rounding floor 1e-12 max(1,
        ||A||_F, max ||F(+-h p)|| / h): the words at +-h p cancel in D only up to rounding
        of ||F(+-h p)|| / h.  ``worst`` holds the (error, floor) of largest ratio of each kind
        of probe (axis, direction) with an error on or above its floor.  A step resolves A when
        every probe's floor there is below RESOLUTION_FLOOR max(1, ||A||_F); with no such step
        the report is not ok, and ``worst["resolution"]`` holds the least step's largest floor
        and that bound.
        """
        h_steps = sorted(h_steps, reverse=True)
        nd, rd = self.state_dim, self.r * self.d
        rng = np.random.default_rng(seed)
        dirs = rng.standard_normal((8, nd + rd))  # row i: (v_i, w_i)
        # probes +h and -h times: every state axis, every input axis, every direction
        probes = np.concatenate([np.eye(nd + rd), dirs])
        exact_d = np.concatenate([self.A.T, np.zeros((rd, nd)), dirs[:, :nd] @ self.A.T])  # D of each probe
        x_err, w_err, Ds, Fs = [], [], [], []
        with np.errstate(over="ignore", invalid="ignore"):  # a map past the float range: NaN fails
            for h in h_steps:
                X = np.concatenate([h * probes, -h * probes])
                F = self._update(X[:, :nd], X[:, nd:])
                D = (F[:len(probes)] - F[len(probes):]) / (2 * h)
                x_err.append(float(np.linalg.norm(D[:nd].T - self.A)))
                w_err.append(float(np.linalg.norm(D[nd:nd + rd])))
                Ds.append(D)
                Fs.append(F)
            errs = np.linalg.norm(np.array(Ds) - exact_d, axis=2)  # (step, probe)
            reach = np.hypot.reduce(np.array(Fs), axis=2).reshape(len(h_steps), 2, -1).max(axis=1)  # max ||F(+-h p)||
            scale = max(1.0, float(np.linalg.norm(self.A)))
            floors = 1e-12 * np.maximum(scale, reach / np.array(h_steps)[:, None])
            below, worst = errs < floors, {}  # NaN fails
            step_floors = floors.max(axis=1)
            if not (step_floors < RESOLUTION_FLOOR * scale).any():  # NaN fails
                worst["resolution"] = [float(np.fmin.reduce(step_floors)), RESOLUTION_FLOOR * scale]
            for part, cols in (("axis", np.s_[:, :nd + rd]), ("direction", np.s_[:, nd + rd:])):
                if not below[cols].all():
                    e, f = errs[cols].ravel(), floors[cols].ravel()
                    i = (e / f).argmax()  # a NaN ratio counts as the largest
                    worst[part] = [float(e[i]), float(f[i])]
        axes_ok, exact = "axis" not in worst, "direction" not in worst
        dir_err = errs[:, nd + rd:].max(axis=1, initial=0.0).tolist()
        order = None
        if not exact:
            logs_h = np.log(np.asarray(h_steps))
            logs_e = np.log(np.maximum(np.asarray(dir_err), 1e-300))
            order = float(np.polyfit(logs_h, logs_e, 1)[0])
        ok = axes_ok and (exact or (order is not None and order >= MIN_REMAINDER_ORDER)) \
            and "resolution" not in worst
        return {"h_steps": list(h_steps), "state_errors": x_err, "input_errors": w_err,
                "directional_errors": dir_err, "observed_order": order,
                "exact": exact, "ok": ok, "worst": worst}

    # -- quotient dynamics ----------------------------------------------------

    def quotient_system(self, level: int) -> "WordSeriesSystem":
        """Induced system on the quotient modulo chain ideal ``level`` + 1.

        Words and families are shared; only the algebra, the linear part
        (``induced_map``), and the invariance chain are pushed through the
        projection.  Raises InvarianceViolation if A does not preserve the
        factored subspace.
        """
        ctx = self.projections[level]
        Abar = induced_map(ctx, self.A)
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
