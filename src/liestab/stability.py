"""Stability certificates for word-series systems.

Nilpotent route: a spectral-radius threshold on the linear part yields a
semiglobal exponential envelope, built constructively from a ladder of
quotient-level rates and explicit forcing gains.  Solvable route: a Schur
linear part plus an ideal-convergent input yields a conditional
attractivity/GAS certificate backed by simulation.  Zero spectral radius
yields finite-time (deadbeat) convergence with an explicit horizon.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import is_nilpotent
from .dynamics import ExoSignal, Trajectory, WordSeriesSystem, slot_norms
from .quotient import _slotwise, adapted_norm, evaluate_words, spectral_radius, word_plan


class HypothesisError(ValueError):
    """A structural precondition of a certificate is not met."""


class CertificateRejected(Exception):
    """A quantitative certificate condition failed; carries the margin."""

    def __init__(self, reason: str, margin: float):
        super().__init__(f"{reason} (margin {margin:.6g})")
        self.reason = reason
        self.margin = margin


def _require_invariance(sys: WordSeriesSystem) -> None:
    """HypothesisError with ``sys.invariance_refusal()``, as ``liestab check`` prints it: every certificate
    route needs the origin fixed (a state letter in every word) and A to keep every chain level."""
    if reason := sys.invariance_refusal():
        raise HypothesisError(reason)


def block_sum_norm(M: np.ndarray, block: int):
    """Upper bound on the operator norm for the sum-of-slot-Euclidean norm.

    For M partitioned into (block x block) tiles, the induced norm is at most
    max_j sum_i ||M_ij||_2 (unit vectors concentrated on one slot are the
    extreme points of the domain ball).  Exact when there is a single slot.
    Batched over leading axes: one SVD call takes the 2-norm of every tile.
    """
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0
    nb = M.shape[-1] // block
    tiles = M.reshape(*M.shape[:-2], nb, block, nb, block).swapaxes(-3, -2)
    norms = np.linalg.svd(tiles, compute_uv=False)[..., 0]  # (..., i, j)
    worst = norms.sum(axis=-2).max(axis=-1)
    return float(worst) if M.ndim == 2 else worst


ENVELOPE_POWERS = 500
ENVELOPE_GUARD = 1e-9  # relative rounding guard of the stop in power_envelope_constant


def _pow(x: float, k) -> float:
    """x ** k in Python floats, inf where the power leaves the float range."""
    try:
        return float(x) ** k
    except OverflowError:
        return math.inf


def power_envelope_constant(A: np.ndarray, rate: float, block: int) -> float:
    """A sigma with N(A^k) <= sigma rate^k for every k, N the block norm ``block_sum_norm``.

    N is submultiplicative: if N(A^m) <= rate^m, each k = qm + j (j < m) has N(A^k) <=
    rate^k N(A^j) / rate^j, so sigma = max(1, max_{j<m} N(A^j) / rate^j).  The powers are
    scanned one at a time up to the first m <= ENVELOPE_POWERS whose ratio is at most
    1 - ENVELOPE_GUARD: the computed ratio errs by a few n unit roundoffs (plus what the
    m-fold product adds, as for every power taken), far below the guard, so the true one is
    at most 1 too and no error compounds over q.  A vanished power (0 / 0 included) stops
    the scan, a nonzero norm over an underflowed rate^m is an infinite ratio, and a power
    past the float range gives inf.  Without a stop, the adapted-norm tail closes the bound.
    The rate must exceed rho(A), and only the tail solves for rho(A) to check it: at a rate in
    (0, rho(A)] no power contracts, as N(A^k) >= rho(A)^k, so the scan ends there, in an
    overflowed power's inf, or, where A^k and rate^k underflow to 0 at the same k, in a 0 / 0
    stop whose sigma such a rate does not earn.  A rate at or below 0 is refused first.
    """
    A = np.asarray(A, dtype=float)
    if rate <= 0:  # a negative rate^k would read as a contraction
        raise ValueError("rate must exceed the spectral radius")
    sigma, P = 1.0, np.eye(A.shape[0])
    for k in range(1, ENVELOPE_POWERS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            P = P @ A
        if not np.isfinite(P).all():  # a power past the float range: no finite sigma bounds it
            return math.inf
        norm, rate_k = block_sum_norm(P, block), _pow(rate, k)
        ratio = norm / rate_k if rate_k else (math.inf if norm else 0.0)
        if ratio <= 1.0 - ENVELOPE_GUARD:  # A^k contracts: every later power is covered
            return sigma
        sigma = max(sigma, ratio)
    rho = spectral_radius(A)
    if rate <= rho:
        raise ValueError("rate must exceed the spectral radius")
    kappa = adapted_norm(A, rate - rho).condition()  # N(A^k) <= N(A^cap) kappa sqrt(nb) rate^(k-cap)
    return max(sigma, ratio * math.sqrt(A.shape[0] // block) * kappa)


# -- nilpotent certificate ----------------------------------------------------


@dataclass
class NilpotentCertificate:
    nilindex: int
    mu: float
    beta: float
    s: float
    rho_A: float
    threshold: float
    epsilon: float
    Lambda: float
    Lambda_levels: list
    lambda_levels: list
    sigma_levels: list
    gamma_levels: list
    alpha_levels: list
    M: float
    alpha: float
    decay: float
    consistent: bool
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"kind": "nilpotent-semiglobal-exponential", **asdict(self)}


def forcing_gain(sys: WordSeriesSystem, level: int, M: float, alpha_prev: float,
                 beta: float, s: float, lambda_prev: float) -> float:
    """Explicit gain gamma_i bounding the level-i forcing by gamma_i lambda_i^k ||Xbar_i[0]||.

    gamma_i sums, over the system's own words w of length 2 <= l <= i (terms with the same
    word merged, their coefficient vectors added first), ||c_w||_1 mu^{l-1} alpha_{i-1}^q
    M^{q-1} beta^{l-q}, q the word's state-letter count: each state letter is at most
    alpha_{i-1} lambda_{i-1}^k ||X[0]||, with ||X[0]|| <= M in all but one, each input
    letter beta s^k, the embeddings P.T have orthonormal columns, and c_w enters by its
    1-norm since the state norm sums the slot norms.  A word with no state letter (which
    certify_nilpotent refuses) makes the gain infinite unless beta = 0.  Level 1 has no forcing.
    The rate lambda_{i-1} s^{i-1} must be the largest lambda_{i-1}^q s^{l-q} over
    l <= i, q <= l; with s >= 1 each term is monotone in q, so the one rival is
    lambda_{i-1}^i, and CertificateRejected carries its excess when it wins.
    """
    if level < 2:
        return 0.0
    # the rate maximization over (l, q) must be solved by l = level, q = 1
    attained = lambda_prev * _pow(s, level - 1)
    rival = _pow(lambda_prev, level)
    if rival > attained * (1 + 1e-12):
        raise CertificateRejected(f"level {level}: forcing-rate maximum not attained at (l, q) = (level, 1)",
                                  margin=rival - attained)
    words = {}
    for t in sys.all_terms():
        if t.word.length <= level:
            words[t.word] = words.get(t.word, 0.0) + t.coeff
    mu, total = sys.mu(), 0.0
    for word, coeff in words.items():
        l, q = word.length, word.state_letter_count
        factors = (float(np.abs(coeff).sum()), _pow(mu, l - 1), _pow(alpha_prev, q),
                   _pow(M, q - 1) if q else math.inf, _pow(beta, l - q))
        total += math.prod(factors) if all(factors) else 0.0  # a zero factor beats an overflow
    return total


def certify_nilpotent(sys: WordSeriesSystem, signal: ExoSignal, M: float,
                      epsilon: Optional[float] = None) -> NilpotentCertificate:
    """Semiglobal exponential stability certificate on a nilpotent algebra.

    Requires the invariance ideal to be the whole algebra, kept with its chain
    (``_require_invariance``), and a certified geometric signal envelope (beta, s).  Checks
    the spectral threshold rho(A) < s^{p(1-p)/2}, then assembles the rate ladder, the
    power-envelope constants, and the forcing gains into the end-to-end
    envelope (alpha_p, lambda_p).  Each level's rho_i is one eigenvalue solve,
    and the top one is rho(A): level p factors the zero ideal, so its block is
    A in the orthonormal flag basis, an orthogonal similarity of A.  So rho_A
    agrees with ``spectral_radius(A)`` only up to A's eigenvalue conditioning
    (a defective eigenvalue of a k x k Jordan block moves by about eps^(1/k)),
    though bit for bit on the builtins and the sweep, whose flags are signed
    permutations.
    """
    if not M >= 0:  # the radius of the ball of initial states (NaN fails too)
        raise HypothesisError(f"M must be nonnegative, got {M}")
    nil, p = is_nilpotent(sys.algebra)
    if not nil:
        raise HypothesisError("algebra is not nilpotent")
    if sys.ideal.dim != sys.algebra.dim:
        raise HypothesisError("nilpotent certificate requires the invariance ideal to be the whole algebra")
    _require_invariance(sys)
    beta, s = signal.envelope()
    s = max(s, 1.0)
    rhos = [spectral_radius(Abar) for Abar, _ in sys.level_blocks[1:]]
    rho_A = rhos[-1]
    threshold = s ** (p * (1 - p) / 2.0)
    if rho_A >= threshold:
        raise CertificateRejected(
            f"spectral radius {rho_A:.6g} is not below the threshold {threshold:.6g}",
            margin=rho_A - threshold)
    warnings_list = []
    if epsilon is None:
        epsilon = 0.5 * min(1.0 - rho_A, threshold - rho_A)
    if not 0 < epsilon < math.inf:
        raise HypothesisError("epsilon must be positive and finite")
    Lambda = rho_A + epsilon
    # quotient levels: level i factors the (i+1)-th chain ideal
    Lambda_levels, lambda_levels, sigma_levels = [], [], []
    gamma_levels, alpha_levels = [], []
    for i, ((Abar, _), rho_i) in enumerate(zip(sys.level_blocks[1:], rhos), 1):
        Lam_i = rho_i + (i / (p + 1.0)) * epsilon
        if Lam_i <= rho_i:  # the epsilon share rounds away; power_envelope_constant needs a rate above rho_i
            raise CertificateRejected(f"level {i}: rho_{i} + {i}/{p + 1} epsilon rounds to rho_{i} = "
                                      f"{rho_i:.6g} (epsilon {epsilon:.3g})", margin=rho_i - Lam_i)
        Lambda_levels.append(Lam_i)
        lam = Lambda if i == 1 else lam * s ** (i - 1)  # lambda_i = Lambda s^(i(i-1)/2)
        lambda_levels.append(lam)
        try:
            sigma_i = power_envelope_constant(Abar, Lam_i, sys.projections[i].quotient_dim)
        except RuntimeError as exc:  # the adapted norm needs a scaling past the float range
            raise CertificateRejected(f"level {i}: {exc}", margin=math.inf) from None
        sigma_levels.append(sigma_i)
        if i == 1:
            gamma_levels.append(0.0)
            alpha_levels.append(sigma_i)
        else:
            gamma_i = forcing_gain(sys, i, M, alpha_levels[-1], beta, s,
                                   lambda_levels[i - 2])
            gamma_levels.append(gamma_i)
            if lam <= Lam_i:
                warnings_list.append(f"level {i}: lambda_i <= Lambda_i; envelope constant undefined")
                alpha_levels.append(math.inf)
            else:
                alpha_levels.append(sigma_i * (1.0 + gamma_i / (lam - Lam_i)))
    ladder_ok = all(Lambda_levels[i] < Lambda_levels[i + 1] for i in range(p - 1)) \
        and (not Lambda_levels or Lambda_levels[-1] < Lambda)
    if not ladder_ok:
        warnings_list.append("intermediate rates are not strictly increasing below Lambda")
    overflowed = [i for i, a in enumerate(alpha_levels, 1) if not math.isfinite(a)]
    if overflowed:
        warnings_list.append(f"level {overflowed[0]}: envelope constant alpha is not finite (M = {M:.6g})")
    consistent = lambda_levels[-1] < 1.0 and Lambda < 1.0 and ladder_ok and not overflowed
    if lambda_levels[-1] >= 1.0:
        warnings_list.append(
            f"final rate lambda_p = {lambda_levels[-1]:.6g} >= 1 for epsilon = {epsilon:.6g}; "
            "shrink epsilon below the threshold margin")
    return NilpotentCertificate(
        nilindex=p, mu=sys.mu(), beta=beta, s=s, rho_A=rho_A, threshold=threshold,
        epsilon=float(epsilon), Lambda=Lambda, Lambda_levels=Lambda_levels,
        lambda_levels=lambda_levels, sigma_levels=sigma_levels,
        gamma_levels=gamma_levels, alpha_levels=alpha_levels, M=float(M),
        alpha=alpha_levels[-1], decay=lambda_levels[-1], consistent=consistent,
        warnings=warnings_list)


def forcing_norms(sys: WordSeriesSystem, states: np.ndarray, signal: ExoSignal,
                  level: int) -> np.ndarray:
    """Measured forcing norms ||u_level[k]|| along a simulated trajectory.

    u_level collects every word of length <= level, its letters filtered
    through P_{level-1}.T P_{level-1}, projected by P_level, weighted by the
    word coefficients; the per-step norm is the sum of slot norms.  Each distinct
    letter is filtered once, and the words go through one ``evaluate_words`` plan; level is 1..p.
    """
    sys.projections.levels(level)
    ctx = sys.projections[level]
    filt = sys.projections[level - 1].P.T @ sys.projections[level - 1].P
    K = states.shape[0]
    slots = {"X": states.reshape(K, sys.n, sys.d),
             "W": signal.values(K).reshape(K, sys.r, sys.d)}
    terms = [t for t in sys.all_terms() if t.word.length <= level]
    vals = {(k, j): slots[k][:, j - 1] @ filt.T for k, j in dict.fromkeys(l for t in terms for l in t.word.letters)}
    plan = word_plan([t.word.letters for t in terms])
    words = evaluate_words(sys.algebra, plan, vals)
    acc = np.zeros((K, sys.n, ctx.quotient_dim))
    for t in terms:
        acc += t.coeff[:, None] * (words[plan[0].index(t.word.letters)] @ ctx.P.T)[:, None]
    return slot_norms(acc.reshape(K, -1), sys.n)


# -- solvable certificate ------------------------------------------------------


@dataclass
class SolvableReport:
    rho_A: float
    schur_margin: float
    ideal_residual_max: float
    ideal_residual_tail: float
    signal_bound: float
    verdict: str
    notes: list
    evidence: dict

    def to_dict(self) -> dict:
        return {"kind": "solvable-attractivity", **asdict(self)}


def certify_solvable(sys: WordSeriesSystem, signal: ExoSignal, horizon: int = 200,
                     x0: Optional[np.ndarray] = None) -> SolvableReport:
    """Conditional global attractivity / GAS certificate on a solvable algebra.

    Checks the chain (``_require_invariance``), that the linear part is Schur, and that the
    signal converges into the invariance ideal, then pairs the verdict with simulation evidence.
    The admissible input amplitude has no closed form; the certificate is
    explicitly conditional on the input being small enough, and the evidence
    section reports the observed decay; a run from the origin is no evidence.
    A signal whose distance from the ideal is not finite gives the verdict ``overflow``.
    The algebra is solvable: a system's ideal is nilpotent and contains [g, g].
    """
    _require_invariance(sys)
    rho_A = spectral_radius(sys.A)
    if rho_A >= 1.0:
        raise CertificateRejected(f"linear part is not Schur (rho = {rho_A:.6g})",
                                  margin=rho_A - 1.0)
    notes = ["input-amplitude smallness is assumed, not derived: no formula exists "
             "for the admissible bound; verdict is conditional on it"]
    if x0 is None:
        x0 = np.random.default_rng(7).standard_normal(sys.state_dim)
    traj = sys.simulate(x0, signal, horizon)
    evidence = {"initial_norm": float(traj.norms[0]), "final_norm": float(traj.norms[-1]),
                "diverged": traj.diverged}
    if traj.norms[0] == 0:
        notes.append("the simulated run starts at the origin, so it shows no decay")
    decayed = 0 < traj.norms[0] and not traj.diverged and traj.norms[-1] <= 1e-4 * traj.norms[0]
    with np.errstate(over="ignore"):  # a distance past the float range is an overflow verdict
        resid = slot_norms(_slotwise(sys.projections[0].P, signal.values(horizon + 1), sys.r), sys.r)  # off the ideal
    res_max = float(resid.max())
    tail = float(resid[int(0.75 * horizon):].max()) if horizon else res_max
    finite = math.isfinite(res_max)  # False for NaN too
    converging = finite and tail <= max(1e-10, 1e-6 * max(res_max, 1.0))
    if not finite:
        notes.append(f"the signal's distance from the ideal is not finite (residual {res_max:.3e})")
    elif not converging:
        notes.append(f"signal does not appear to converge into the ideal "
                     f"(tail residual {tail:.3e}); hypothesis warning")
    beta, _ = signal.envelope()
    verdict = ("overflow" if not finite else "hypothesis-warning" if not converging
               else "conditional-pass" if decayed else "conditional-pass-no-evidence")
    return SolvableReport(rho_A=rho_A, schur_margin=1.0 - rho_A,
                          ideal_residual_max=res_max, ideal_residual_tail=tail,
                          signal_bound=beta, verdict=verdict, notes=notes,
                          evidence=evidence)


# -- deadbeat -------------------------------------------------------------------


@dataclass
class DeadbeatCertificate:
    horizon: int
    per_level: list          # step after which quotient level i-1 is exactly zero
    chain_dims: list
    n: int
    algebra_dim: int

    def to_dict(self) -> dict:
        return {"kind": "deadbeat", **asdict(self)}


def deadbeat_horizon(sys: WordSeriesSystem) -> DeadbeatCertificate:
    """Finite-time convergence horizon for a nilpotent linear part.

    Requires the chain kept (``_require_invariance``, checked first) and rho(A) <= 1e-10,
    and expects ideal-valued inputs.  The level-i horizon is n (i dim g - sum_{j<=i} dim h^(j));
    with one state slot this is the plain dimension count i dim g - sum dim h^(j).
    """
    _require_invariance(sys)
    rho = spectral_radius(sys.A)
    if rho > 1e-10:
        raise HypothesisError(f"deadbeat requires rho(A) = 0; got {rho:.3e}")
    d = sys.algebra.dim
    dims = sys.chain.dims
    # chain = h^(1) .. h^(p+1) = 0; each level adds n (d - dim h^(i)) >= 0 steps
    per_level = [sys.n * (i * d - sum(dims[:i])) for i in range(1, len(dims) + 1)]
    return DeadbeatCertificate(horizon=per_level[-1], per_level=per_level,
                               chain_dims=dims, n=sys.n, algebra_dim=d)


def deadbeat_verified(sys: WordSeriesSystem, cert: DeadbeatCertificate,
                      signal_factory: Callable[[np.random.Generator], ExoSignal],
                      runs: int = 100, seed: int = 0, tol: float = 1e-9) -> dict:
    """Simulation companion: final and per-level states vanish at their horizons.

    Each of the ``runs`` runs draws its initial state and then its signal from
    one generator; the runs are simulated together as one batch.  A run that stops before
    its horizon verifies nothing it did not reach: its final state and every level it
    stopped short of count as inf.
    """
    rng = np.random.default_rng(seed)
    draws = [(rng.standard_normal(sys.state_dim), signal_factory(rng)) for _ in range(runs)]
    X0s = np.reshape([x0 for x0, _ in draws], (runs, sys.state_dim))
    worst_final = 0.0
    worst_levels = [0.0] * len(cert.per_level)
    for traj in sys.simulate_batch(X0s, [signal for _, signal in draws], cert.horizon + 2):
        worst_final = max(worst_final, math.inf if traj.diverged else float(traj.norms[cert.horizon:].max()))
        for i, ki in enumerate(cert.per_level):
            reached = traj.quotient_norms[ki:, i]
            worst_levels[i] = max(worst_levels[i], float(reached.max()) if reached.size else math.inf)
    return {"ok": worst_final < tol and all(v < tol for v in worst_levels),
            "worst_final": worst_final, "worst_levels": worst_levels}


# -- exponential envelopes -------------------------------------------------------


@dataclass
class EnvelopeFit:
    alpha: float
    decay: float
    satisfied: bool  # decay < 1, i.e. the fit certifies exponential decay
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def fit_envelope(bundle: Sequence[Trajectory]) -> EnvelopeFit:
    """Tightest exponential envelope ||X[k]|| <= alpha decay^k ||X[0]|| over a bundle.

    decay is the smallest rate at which the maximum of r_k / decay^k
    (r_k = ||X[k]|| / ||X[0]||) sits before the last nonzero sample K of every
    trajectory; below it the maximum moves to the window edge, i.e. the constant
    would grow without bound on a longer run.  r_K / decay^K beats every earlier
    r_k / decay^k exactly when decay^(K-k) < r_K / r_k, so in closed form
    decay = max over trajectories of min_{k < K, r_k > 0} (r_K / r_k)^(1/(K-k)),
    and alpha = max_k r_k / decay^k.  A pure geometric trajectory lambda^k X[0]
    reports (1, lambda); a constant one (1, 1) with the certificate flag off;
    early transients only enlarge alpha, not the rate.
    """
    ratios = []
    for traj in bundle:
        if traj.norms[0] <= 0:
            raise ValueError("every trajectory must start at a nonzero state")
        ratios.append(traj.norms / traj.norms[0])
    if not ratios:
        raise ValueError("empty trajectory bundle")
    overshoot = max(1.0, max(float(r.max()) for r in ratios))
    if all(float(r[1:].max(initial=0.0)) == 0.0 for r in ratios):
        return EnvelopeFit(alpha=1.0, decay=0.0, satisfied=True,
                           details={"overshoot": overshoot, "note": "zero past k = 0"})
    decay = 0.0
    for r in ratios:
        last = int(np.flatnonzero(r > 0).max())
        if last:  # a trajectory that vanishes past k = 0 binds no rate
            k = np.flatnonzero(r[:last] > 0)
            decay = max(decay, float(np.min((r[last] / r[k]) ** (1.0 / (last - k)))))
    with np.errstate(divide="ignore", over="ignore"):  # decay^k may underflow to 0
        alpha = max(float(np.nanmax(r / decay ** np.arange(r.shape[0], dtype=float)))
                    for r in ratios)
    # the root carries rounding noise, so the decay verdict carries a small guard band
    return EnvelopeFit(alpha=alpha, decay=decay, satisfied=decay < 1.0 - 1e-9,
                       details={"overshoot": overshoot, "trajectories": len(ratios)})


def deadbeat_envelope(sys: WordSeriesSystem, cert: DeadbeatCertificate,
                      signal_factory: Callable[[np.random.Generator], ExoSignal],
                      M: float, decay: float, runs: int = 50, seed: int = 1,
                      fresh_runs: int = 100) -> EnvelopeFit:
    """Exponential envelope implied by deadbeat convergence on a compact set.

    alpha is a sampled estimate, not a proven bound (``details["alpha_kind"]``):
    the max of ||X[k]|| / (decay^k ||X[0]||) over sampled runs with ||X[0]|| <= M
    and k below the horizon, floored at 1, then re-verified on fresh samples
    (slack 1e-9).  Each sample draws its initial direction, its scale in [0.1, 1]
    and its signal in that order; the samples of each set are simulated together.
    """
    if not (0.0 < decay < 1.0):  # decay 0 would divide 0 by 0 past the first step
        raise ValueError("decay must lie in (0, 1)")
    rng = np.random.default_rng(seed)

    def sample_alpha(count: int) -> float:
        x0s, signals = [], []
        for _ in range(count):
            x0 = rng.standard_normal(sys.state_dim)
            nrm = sys.state_norm(x0)
            if nrm == 0:
                continue
            x0s.append(x0 * (rng.uniform(0.1, 1.0) * M / nrm))
            signals.append(signal_factory(rng))
        worst = 0.0
        with np.errstate(divide="ignore"):
            for traj in sys.simulate_batch(np.reshape(x0s, (-1, sys.state_dim)), signals, cert.horizon):
                k = np.arange(traj.norms.shape[0], dtype=float)
                worst = max(worst, float(np.max(traj.norms / (decay ** k * traj.norms[0]))))
        return worst

    alpha = max(1.0, sample_alpha(runs))
    fresh = sample_alpha(fresh_runs)
    ok = fresh <= alpha * (1 + 1e-9)
    if not ok:
        alpha = max(alpha, fresh)
    return EnvelopeFit(alpha=float(alpha), decay=float(decay), satisfied=True,
                       details={"verified_on_fresh_samples": bool(ok), "M": M,
                                "alpha_kind": "sampled-estimate"})
