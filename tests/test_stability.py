import functools
import math
import re

import mpmath
import numpy as np
import pytest

from liestab.algebra import LieAlgebra, abelian, bracket_constant, heisenberg, nilpotent_upper
from liestab.dynamics import ExoSignal, Term, Trajectory, Word, WordSeriesSystem
from liestab.sampling import heisenberg_tracking_system, tracking_signal, tracking_state
from liestab.scenarios import (BUILTINS, EX61_X0, builtin_scenario, ex61_signal, ex61_system,
                               heisenberg_deadbeat_system, ideal_valued_samples,
                               uptri_deadbeat_system)
from liestab.quotient import adapted_norm, induced_map, is_ideal
from liestab.stability import (ENVELOPE_POWERS, CertificateRejected, HypothesisError,
                               block_sum_norm, certify_nilpotent, certify_solvable,
                               deadbeat_envelope, deadbeat_horizon, deadbeat_verified, fit_envelope,
                               forcing_gain, forcing_norms, power_envelope_constant,
                               spectral_radius)
from test_algebra import rotated
from test_quotient import reference_complement_basis


def traj_from_norms(norms):
    n = np.asarray(norms, dtype=float)
    return Trajectory(np.zeros((n.shape[0], 1)), n, np.zeros((n.shape[0], 1)))


def reference_block_sum_norm(M, block):
    """max_j sum_i ||M_ij||_2 one tile at a time (the loop ``block_sum_norm`` batches)."""
    nb = M.shape[0] // block
    worst = 0.0
    for j in range(nb):
        col = 0.0
        for i in range(nb):
            col += float(np.linalg.norm(M[i * block:(i + 1) * block, j * block:(j + 1) * block], 2))
        worst = max(worst, col)
    return worst


def reference_power_envelope(A, rate, block):
    """``power_envelope_constant`` one power and one block norm at a time."""
    rho = spectral_radius(A)
    sigma = 1.0
    P = np.eye(A.shape[0])
    ratio_last = 1.0
    for k in range(1, ENVELOPE_POWERS + 1):
        P = P @ A
        ratio_last = reference_block_sum_norm(P, block) / rate ** k
        sigma = max(sigma, ratio_last)
    nb = A.shape[0] // block
    kappa = adapted_norm(A, rate - rho).condition()
    return max(sigma, ratio_last * math.sqrt(nb) * kappa)


def test_block_sum_norm_on_a_stack():
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((7, 12, 12))
    for block in (1, 2, 3, 4, 6, 12):
        per = [block_sum_norm(M, block) for M in stack]
        assert block_sum_norm(stack, block).tolist() == per
        assert per == [reference_block_sum_norm(M, block) for M in stack]
    assert block_sum_norm(stack.reshape(7, 1, 12, 12), 3).shape == (7, 1)


def test_power_envelope_constant_matches_reference_loop(monkeypatch):
    cases = []

    def record(A, rate, block):  # the level matrices of the example-4.1 certificate
        cases.append((A, rate, block))
        return 1.0

    monkeypatch.setattr("liestab.stability.power_envelope_constant", record)
    sc = builtin_scenario("example-4.1")
    certify_nilpotent(sc.system, sc.signal, M=sc.M)
    monkeypatch.undo()
    assert len(cases) == 2
    rng = np.random.default_rng(5)
    for slots, block in [(2, 1), (2, 3), (3, 2), (3, 3)]:
        A = rng.standard_normal((slots * block, slots * block))
        A *= 0.9 / spectral_radius(A)
        cases.append((A, 0.95, block))
    nil = 0.7 * np.diag(np.ones(5), 1)  # A^6 = 0 exactly
    slow = np.array([[0.99, 1.0], [0.0, 0.99]])  # the tail bound past the 500th power decides
    cases += [(nil, 0.5, 6), (nil, 0.5, 2), (slow, 0.995, 1), (slow, 0.995, 2)]
    for A, rate, block in cases:
        assert power_envelope_constant(A, rate, block) == reference_power_envelope(A, rate, block)


def test_power_envelope_constant_past_an_underflowed_rate():
    # 0.04^k underflows to 0 near k = 230, long after nil^6 = 0
    nil = 0.7 * np.diag(np.ones(5), 1)
    rate = 0.04
    expected = max(reference_block_sum_norm(np.linalg.matrix_power(nil, k), 2) / rate ** k
                   for k in range(1, 6))
    assert power_envelope_constant(nil, rate, 2) == expected
    # a geometric signal of ratio 4 puts the level rates of this nilpotent A there
    sys_ = WordSeriesSystem(heisenberg(), 1, 1, np.array([[0.0, 0.5, 0.0], [0.0, 0.0, 0.0],
                                                          [0.25, -0.5, 0.0]]),
                            terms=[Term(Word((("X", 1), ("W", 1))), np.array([0.25]))])
    signal = ExoSignal("geometric", 1, 3, base=[0.1, 0.0, 0.0], ratio=4.0)
    cert = certify_nilpotent(sys_, signal, M=1.0)
    assert cert.consistent and cert.sigma_levels == [12.0, 18.0]


def test_power_envelope_constant_is_sound():
    rng = np.random.default_rng(0)
    for slots in (1, 2, 3):
        for _ in range(10):
            block = int(rng.integers(1, 4)) if slots > 1 else int(rng.integers(2, 7))
            n = slots * block
            A = rng.standard_normal((n, n))
            A *= 0.8 / spectral_radius(A)
            rate = spectral_radius(A) + 0.05
            sigma = power_envelope_constant(A, rate, block)
            powers = [np.eye(n)]
            for _ in range(1, 700):
                powers.append(powers[-1] @ A)
            # the slot-sum bound of every power, past the 500 powers taken
            bounds = block_sum_norm(np.array(powers[1:]), block)
            k = np.arange(1, 700)
            assert np.all(bounds <= sigma * rate ** k * (1 + 1e-9))


def test_power_envelope_constant_saturates_past_the_float_range():
    # 7^k leaves the float range at k = 365: the ratios past it are 0, not an OverflowError
    A = np.array([[0.5, 50.0], [0.0, 0.5]])
    P, expected = np.eye(2), 1.0
    for k in range(1, 365):
        P = P @ A
        expected = max(expected, reference_block_sum_norm(P, 1) / 7.0 ** k)
    assert power_envelope_constant(A, 7.0, 1) == expected > 7.0


def recorded_tails(monkeypatch):
    """Route ``adapted_norm`` through a recorder: one entry per tail bound taken."""
    tails = []

    def recording(A, epsilon):
        tails.append(epsilon)
        return adapted_norm(A, epsilon)

    monkeypatch.setattr("liestab.stability.adapted_norm", recording)
    return tails


def test_power_envelope_tail_runs_only_without_a_contracting_power(monkeypatch):
    tails = recorded_tails(monkeypatch)
    A = np.array([[0.5]])
    # a ratio of 1 - 1e-8 per power is past the guard: the first power ends the scan
    assert power_envelope_constant(A, 0.5 / (1 - 1e-8), 1) == 1.0 and tails == []
    # 1 - 1e-12 lies within the guard, and so does (1 - 1e-12)^500: the scan reaches the tail
    assert power_envelope_constant(A, 0.5 / (1 - 1e-12), 1) == 1.0 and len(tails) == 1
    # the Jordan block's ratios rise past 1 and fall below it only after the cap
    slow = np.array([[0.99, 1.0], [0.0, 0.99]])
    assert power_envelope_constant(slow, 0.995, 1) > 1.0 and len(tails) == 2


def test_power_envelope_constant_is_infinite_over_an_underflowed_rate():
    # rate^k underflows to 0 near k = 108 while N(B^k) = k 1e-3^(k-1) is still nonzero
    B = np.array([[1e-3, 1.0], [0.0, 1e-3]])
    assert power_envelope_constant(B, 1.001e-3, 1) == math.inf


def test_power_envelope_constant_is_sound_at_a_narrow_rate_margin(monkeypatch):
    # at rate = rho + 1e-3 some maps stop late and some reach the tail; 3000 powers keep
    # rate^k in the normal float range, past which the ratios mean nothing
    tails = recorded_tails(monkeypatch)
    rng = np.random.default_rng(1)
    powers_checked = 3000
    for slots in (1, 2, 3):
        for _ in range(10):
            block = int(rng.integers(1, 4)) if slots > 1 else int(rng.integers(2, 7))
            n = slots * block
            A = rng.standard_normal((n, n))
            A *= 0.8 / spectral_radius(A)
            rate = spectral_radius(A) + 1e-3
            assert rate ** powers_checked > np.finfo(float).tiny
            sigma = power_envelope_constant(A, rate, block)
            powers = [A]
            for _ in range(1, powers_checked):
                powers.append(powers[-1] @ A)
            k = np.arange(1, powers_checked + 1)
            assert np.all(block_sum_norm(np.array(powers), block) <= sigma * rate ** k * (1 + 1e-9))
    assert 0 < len(tails) < 30  # both ends of the scan are exercised


def reference_forcing_norms(sys_, states, signal, level):
    """``forcing_norms`` one step and one word at a time, each word one ``bracket_many`` chain."""
    ctx = sys_.projections[level]
    filt = sys_.projections[level - 1].P.T @ sys_.projections[level - 1].P
    out = np.zeros(states.shape[0])
    W = signal.values(states.shape[0])
    for k in range(states.shape[0]):
        slots = {"X": states[k].reshape(sys_.n, sys_.d), "W": W[k].reshape(sys_.r, sys_.d)}
        acc = np.zeros((sys_.n, ctx.quotient_dim))
        for t in sys_.all_terms():
            if t.word.length <= level:
                vals = [filt @ slots[kind][j - 1] for kind, j in t.word.letters]
                w = vals[-1]
                for y in vals[-2::-1]:
                    w = sys_.algebra.bracket_many(y, w)
                acc += np.outer(t.coeff, ctx.P @ w)
        out[k] = float(np.linalg.norm(acc, axis=1).sum())
    return out


def test_forcing_norms_match_the_per_step_loop():
    cases = [(sc.system, sc.signal, sc.x0) for sc in map(builtin_scenario, ("example-4.1", "uptri-deadbeat"))]
    cases += [(sys_, signal, np.full(sys_.d, 0.3)) for sys_, signal in map(sweep_system, (4, 5))]
    for sys_, signal, x0 in cases:
        traj = sys_.simulate(x0, signal, 50)
        for level in range(1, len(sys_.projections)):
            got = forcing_norms(sys_, traj.states, signal, level)
            assert np.array_equal(got, reference_forcing_norms(sys_, traj.states, signal, level))


def test_certificate_for_tracking_example():
    sc = builtin_scenario("example-4.1")
    cert = certify_nilpotent(sc.system, sc.signal, M=sc.M)
    assert cert.nilindex == 2
    assert cert.s == 2.0
    assert cert.threshold == pytest.approx(0.5)
    assert cert.rho_A == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)
    assert cert.consistent and not cert.warnings
    # ladder closed form: lambda_i = Lambda s^{i(i-1)/2}
    for i, lam in enumerate(cert.lambda_levels, start=1):
        assert lam == pytest.approx(cert.Lambda * cert.s ** (i * (i - 1) / 2))
    # intermediate rates strictly increase below Lambda < 1
    levels = cert.Lambda_levels
    assert all(a < b for a, b in zip(levels, levels[1:]))
    assert levels[-1] < cert.Lambda < 1.0
    assert cert.decay == cert.lambda_levels[-1] < 1.0
    # spectrum containment of every induced level
    for i in range(1, cert.nilindex + 1):
        q = sc.system.quotient_system(i)
        assert spectral_radius(q.A) <= cert.rho_A + 1e-12


def sweep_system(m):
    """``nilpotent_upper(m)`` with A = I/2, the two sweep terms and a 64-sample signal."""
    alg = nilpotent_upper(m)
    terms = [Term(Word((("X", 1), ("W", 1))), np.array([0.1])),
             Term(Word((("X", 1), ("X", 1), ("W", 1))), np.array([-0.05]))]
    sys_ = WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(alg.dim), terms=terms)
    rng = np.random.default_rng(0)
    return sys_, ExoSignal("samples", 1, alg.dim, samples=0.05 * rng.uniform(-1.0, 1.0, (64, alg.dim)))


def certificate_cases():
    sc = builtin_scenario("example-4.1")
    return [(sc.system, sc.signal, sc.M)] + [sweep_system(m) + (1.0,) for m in (4, 5, 6)]


def test_level_linear_parts_match_the_quotient_systems():
    # the quotient systems the certificate used to build are the reference
    for sys_, signal, M in certificate_cases():
        cert = certify_nilpotent(sys_, signal, M=M)
        p = cert.nilindex
        Lambda_levels, sigma_levels = [], []
        for i in range(1, p + 1):
            q = sys_.quotient_system(i)
            assert np.array_equal(induced_map(sys_.projections[i], sys_.A), q.A)
            Lambda_levels.append(spectral_radius(q.A) + (i / (p + 1.0)) * cert.epsilon)
            sigma_levels.append(power_envelope_constant(q.A, Lambda_levels[-1], q.d))
        assert cert.Lambda_levels == Lambda_levels
        assert cert.sigma_levels == sigma_levels


def test_certificate_builds_no_algebra_and_no_system(monkeypatch):
    cases = certificate_cases()
    built = []
    for cls in (LieAlgebra, WordSeriesSystem):
        def counting(self, *args, _init=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    for sys_, signal, M in cases:
        certify_nilpotent(sys_, signal, M=M)
    assert built == []
    cases[0][0].quotient_system(1)  # the counter does see a rebuild
    assert built == ["LieAlgebra", "WordSeriesSystem"]


def test_certificate_envelope_constants_hold():
    sc = builtin_scenario("example-4.1")
    cert = certify_nilpotent(sc.system, sc.signal, M=sc.M)
    # sigma_i certify ||Abar_i^k|| <= sigma_i Lambda_i^k in the slot-sum norm
    for i in range(1, cert.nilindex + 1):
        q = sc.system.quotient_system(i)
        P = np.eye(q.A.shape[0])
        for k in range(1, 200):
            P = P @ q.A
            bound = cert.sigma_levels[i - 1] * cert.Lambda_levels[i - 1] ** k
            assert np.linalg.norm(P, 2) <= bound * (1 + 1e-9)


def test_forcing_bound_on_certified_run():
    sc = builtin_scenario("example-4.1")
    cert = certify_nilpotent(sc.system, sc.signal, M=sc.M)
    traj = sc.system.simulate(sc.x0, sc.signal, 50)
    measured = forcing_norms(sc.system, traj.states, sc.signal, level=2)
    x2bar0 = traj.quotient_norms[0, 2]
    ks = np.arange(measured.shape[0])
    bound = cert.gamma_levels[1] * cert.lambda_levels[1] ** ks * x2bar0
    assert np.all(measured <= bound * (1 + 1e-6))
    # the certified end-to-end envelope holds along the run
    env = cert.alpha * cert.decay ** ks * traj.norms[0]
    assert np.all(traj.norms <= env * (1 + 1e-9))


def test_forcing_gain_structure():
    sc = builtin_scenario("example-4.1")
    sys_ = sc.system
    assert forcing_gain(sys_, 1, M=6.0, alpha_prev=1.0, beta=1.0, s=2.0,
                        lambda_prev=0.4) == 0.0
    mu = sys_.mu()
    # each word counts once, with its own state-letter count q: 0.5 [X2, X1] has q = 2 and
    # -1.5 [X2, W1] has q = 1, so with beta = 0 only the first survives
    alpha_prev, M = 1.7, 6.0
    got = forcing_gain(sys_, 2, M=M, alpha_prev=alpha_prev, beta=0.0, s=2.0,
                       lambda_prev=0.4)
    assert got == pytest.approx(0.5 * mu * alpha_prev ** 2 * M)
    got = forcing_gain(sys_, 2, M=M, alpha_prev=alpha_prev, beta=3.0, s=2.0, lambda_prev=0.4)
    assert got == pytest.approx(0.5 * mu * alpha_prev ** 2 * M + 1.5 * mu * alpha_prev * 3.0)
    # a coefficient vector enters by its 1-norm, since the state norm sums the slot norms
    two = WordSeriesSystem(heisenberg(), 2, 1, 0.3 * np.eye(6),
                           terms=[Term(Word((("X", 1), ("X", 2))), np.array([1.0, -1.0]))])
    got = forcing_gain(two, 2, M=M, alpha_prev=alpha_prev, beta=0.0, s=2.0, lambda_prev=0.4)
    assert got == pytest.approx(2.0 * two.mu() * alpha_prev ** 2 * M)


def test_forcing_gain_merges_repeated_words():
    # 5 [X1, W1] as one term or as five terms of coefficient 1 is the same map; the
    # letter-pattern count gave 15.75 and 3.15, the second below the 5 mu the word needs
    alg = heisenberg()
    word = Word((("X", 1), ("W", 1)))
    gains = [forcing_gain(WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(3), terms=terms), 2,
                          M=1.0, alpha_prev=1.0, beta=1.0, s=1.0, lambda_prev=1.0)
             for terms in ([Term(word, np.array([5.0]))], [Term(word, np.array([1.0]))] * 5)]
    assert gains[0] == gains[1] == pytest.approx(5.0 * bracket_constant(alg))
    # coefficient vectors are added before their 1-norm is taken: these two cancel
    cancel = WordSeriesSystem(alg, 2, 1, 0.5 * np.eye(6),
                              terms=[Term(word, np.array([1.0, -2.0])), Term(word, np.array([-1.0, 2.0]))])
    assert forcing_gain(cancel, 2, M=1.0, alpha_prev=1.0, beta=1.0, s=1.0, lambda_prev=1.0) == 0.0


def test_forcing_gain_of_a_word_without_a_state_letter():
    # [W1, W2] does not scale with ||X[0]||, so no finite gain bounds it unless it vanishes
    sys_ = WordSeriesSystem(heisenberg(), 1, 2, 0.5 * np.eye(3),
                            terms=[Term(Word((("W", 1), ("W", 2))), np.array([1.0]))])
    for M in (0.0, 1.0):
        assert forcing_gain(sys_, 2, M, alpha_prev=1.0, beta=1.0, s=1.0, lambda_prev=0.5) == math.inf
        assert forcing_gain(sys_, 2, M, alpha_prev=1.0, beta=0.0, s=1.0, lambda_prev=0.5) == 0.0


def reference_forcing_gain(sys_, level, M, alpha_prev, beta):
    """The gain as a letter-pattern count: at each word length l, the largest coefficient
    1-norm times all C(l, q) n^q r^(l-q) patterns of l letters, q of them state letters."""
    max_by_len = {}
    for t in sys_.all_terms():
        l = t.word.length
        max_by_len[l] = max(max_by_len.get(l, 0.0), float(np.abs(t.coeff).sum()))
    return sum(cmax * sys_.mu() ** (l - 1)
               * sum(math.comb(l, q) * sys_.n ** q * sys_.r ** (l - q) * alpha_prev ** q
                     * M ** (q - 1) * beta ** (l - q) for q in range(1, l + 1))
               for l, cmax in max_by_len.items() if 2 <= l <= level)


def test_forcing_gain_is_at_most_the_letter_pattern_count():
    # with no repeated word, each word is one of the patterns the count covers; example-6.1
    # has families on a solvable algebra, whose series never ends, so it has no gain
    systems = [builtin_scenario(name).system for name in BUILTINS if name != "example-6.1"]
    systems += [sweep_system(m)[0] for m in (4, 6, 8, 10)]
    for sys_ in systems:
        words = [t.word for t in sys_.all_terms()]
        assert len(set(words)) == len(words), sys_.name
        for level in range(2, sys_.nilindex + 1):
            for M, alpha_prev, beta in [(1.0, 1.0, 1.0), (6.0, 1.7, 0.0), (0.5, 3.0, 2.0)]:
                got = forcing_gain(sys_, level, M, alpha_prev, beta, s=1.0, lambda_prev=0.5)
                assert got <= reference_forcing_gain(sys_, level, M, alpha_prev, beta) * (1 + 1e-12)


@functools.lru_cache(maxsize=None)
def bench_sweep_case(m):
    """The benchmark's sweep system: its 64 samples drawn from default_rng([0, m]) after an
    initial state of d entries."""
    sys_, _ = sweep_system(m)
    rng = np.random.default_rng([0, m])
    rng.standard_normal(sys_.d)
    return sys_, ExoSignal("samples", 1, sys_.d, samples=0.05 * rng.uniform(-1.0, 1.0, (64, sys_.d)))


CHAIN_CASES = [*sorted(BUILTINS), *(f"sweep-m{m}" for m in range(4, 15))]


def chain_case_system(case):
    return bench_sweep_case(int(case[7:]))[0] if case.startswith("sweep") else builtin_scenario(case).system


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_every_chain_level_is_an_ideal(case):
    # the hypothesis of the theorem by which invariance_report proves the chain invariant
    sys_ = chain_case_system(case)
    assert all(is_ideal(sys_.algebra, sub) for sub in sys_.chain.ideals)


@pytest.mark.parametrize("case", CHAIN_CASES)
def test_axis_aligned_chain_ideals_are_exact_axes(case):
    # every ideal of these chains spans a coordinate subspace (its projector is a 0/1 diagonal
    # up to rounding) and comes back as those identity columns, so the flag is a signed
    # permutation and P_i selects q_i axes: a LAPACK that rotated a degenerate singular
    # subspace would leave more non-zeros
    sys_ = chain_case_system(case)
    d = sys_.d
    for sub in sys_.chain.ideals:
        proj = sub.projector()
        axes = np.round(np.diag(proj))
        np.testing.assert_allclose(proj, np.diag(axes), rtol=0, atol=1e-12)
        assert np.array_equal(sub.onb, np.eye(d)[:, axes == 1.0])
    flag = sys_.projections.flag
    assert (np.count_nonzero(flag, axis=1) == 1).all() and (np.abs(flag).sum(axis=1) == 1.0).all()
    for ctx in sys_.projections:
        assert np.count_nonzero(ctx.P) == ctx.quotient_dim


def test_sweep_certificate_is_finite_up_to_d66():
    # d = 45, 55 and 66
    for m in (10, 11, 12):
        sys_, signal = bench_sweep_case(m)
        cert = certify_nilpotent(sys_, signal, M=1.0)
        assert cert.consistent and math.isfinite(cert.alpha), m
        assert cert.mu == sys_.mu() == bracket_constant(sys_.algebra)


def test_certificate_level_inputs_do_not_depend_on_the_basis():
    # each level's linear part in the flag basis and in the Gram-Schmidt complement basis of its
    # ideal: the spectral radius and the envelope constant at the certificate's rate agree
    for m in (10, 12):  # d = 45 and 66
        sys_, signal = bench_sweep_case(m)
        cert = certify_nilpotent(sys_, signal, M=1.0)
        for i in range(1, cert.nilindex + 1):
            ctx = sys_.projections[i]
            ref = reference_complement_basis(ctx.ideal, sys_.d, ctx.ideal.dim).T
            Abar, Aref = induced_map(ctx, sys_.A), ref @ sys_.A @ ref.T
            rate = cert.Lambda_levels[i - 1]
            assert spectral_radius(Abar) == pytest.approx(spectral_radius(Aref), rel=1e-12, abs=0)
            assert power_envelope_constant(Abar, rate, ctx.quotient_dim) == pytest.approx(
                power_envelope_constant(Aref, rate, ctx.quotient_dim), rel=1e-12, abs=0)


def test_certificates_stop_before_the_stein_tail(monkeypatch):
    # every level of these certificates has a contracting power within the cap
    def no_tail(A, epsilon):
        raise AssertionError("power_envelope_constant reached the adapted-norm tail")

    monkeypatch.setattr("liestab.stability.adapted_norm", no_tail)
    sc = builtin_scenario("example-4.1")
    cases = [(sc.system, sc.signal, sc.M)] + [bench_sweep_case(m) + (1.0,) for m in range(4, 13)]
    for sys_, signal, M in cases:
        assert certify_nilpotent(sys_, signal, M=M).consistent, sys_.d


def test_certificate_solves_one_eigenvalue_problem_per_level(monkeypatch):
    # rho_A is the top rung's radius, and power_envelope_constant solves nothing before its tail
    solves = []

    def counting(M):
        solves.append(M.shape)
        return spectral_radius(M)

    monkeypatch.setattr("liestab.stability.spectral_radius", counting)
    sc = builtin_scenario("example-4.1")
    for (sys_, signal, M), p in [((sc.system, sc.signal, sc.M), 2), (bench_sweep_case(6) + (1.0,), 5)]:
        solves.clear()
        assert certify_nilpotent(sys_, signal, M=M).nilindex == p
        assert solves == [(sys_.n * ctx.quotient_dim,) * 2 for ctx in sys_.projections.contexts[1:]]


def test_certificate_rho_A_is_the_spectral_radius_of_A():
    # the flag of every chain here is a permutation, so the top rung is A's radius bit for bit
    sc = builtin_scenario("example-4.1")
    cases = [(sc.system, sc.signal, sc.M)] + [bench_sweep_case(m) + (1.0,) for m in range(4, 15)]
    for sys_, signal, M in cases:
        assert certify_nilpotent(sys_, signal, M=M).rho_A == spectral_radius(sys_.A), sys_.d


def mp_spectral_radius(A):
    with mpmath.workdps(50):
        return float(max(abs(ev) for ev in mpmath.eig(mpmath.matrix(A.tolist()), left=False, right=False)))


def test_certificate_rho_A_on_rotated_chains():
    # the chain of a rotated algebra is no coordinate flag; A is lower triangular in that flag,
    # so it keeps every chain ideal, and its top rung meets a 50-digit radius of A itself
    rng = np.random.default_rng(11)
    worst = 0.0
    for alg in (heisenberg(), nilpotent_upper(4)):
        for trial in range(8):
            rot, n = rotated(alg, rng), 1 + trial % 2
            flag = WordSeriesSystem(rot, n, 1, np.zeros((n * rot.dim,) * 2)).projections.flag
            F = 0.3 * rng.standard_normal((n, rot.dim, n, rot.dim))
            F *= np.tril(np.ones((rot.dim, rot.dim)))[None, :, None, :]
            for i in range(rot.dim):  # the diagonal blocks set the spectrum, inside the unit disc
                F[:, i, :, i] = rng.uniform(-0.8, 0.8, (n, n)) / n
            lift = np.kron(np.eye(n), flag)
            A = lift.T @ F.reshape(n * rot.dim, -1) @ lift
            sys_ = WordSeriesSystem(rot, n, 1, A)
            rho_A = certify_nilpotent(sys_, ExoSignal.zero(1, rot.dim), M=1.0).rho_A
            ref = mp_spectral_radius(A)
            worst = max(worst, abs(rho_A - ref) / ref, abs(spectral_radius(A) - ref) / ref)
    assert worst <= 1e-13


def test_certificate_rho_A_of_a_defective_A_on_rotated_chains():
    # a nilpotent A with a Jordan block of size k: rho_A and spectral_radius(A) each err from 0 by
    # up to about eps^(1/k) ||A||, each in its own basis, so they differ on that scale, not 1e-13's
    rng = np.random.default_rng(5)
    eps = np.finfo(float).eps
    for alg in (heisenberg(), heisenberg(), nilpotent_upper(4), nilpotent_upper(4)):
        rot = rotated(alg, rng)
        d = rot.dim
        flag = WordSeriesSystem(rot, 1, 1, np.zeros((d, d))).projections.flag
        F = np.diag(rng.uniform(0.5, 1.5, d - 1), -1)  # one Jordan chain of length d down the flag
        cases = [(flag.T @ F @ flag, d)]
        if d == 3:  # triangular in the user's basis: its own eigvals give 0 exactly
            z = flag[-1]  # the centre
            A = np.zeros((3, 3))
            A[2, :2] = (z[1], -z[0])  # A z = 0 and A^2 = 0
            cases.append((A, 2))
            assert spectral_radius(A) == 0
        for A, k in cases:
            rho_A = certify_nilpotent(WordSeriesSystem(rot, 1, 1, A), ExoSignal.zero(1, d), M=1.0).rho_A
            scale = np.linalg.norm(A, 2) * eps ** (1 / k)
            assert max(rho_A, spectral_radius(A)) <= scale, (d, k)


def test_power_envelope_constant_refuses_a_rate_at_or_below_rho():
    # the tail refuses a positive rate; a negative rate^k would otherwise pass as a contraction
    A = np.array([[0.5, 1.0], [0.0, 0.25]])
    for rate in (0.5, 0.4, 0.0, -0.4):
        with pytest.raises(ValueError, match="rate must exceed the spectral radius"):
            power_envelope_constant(A, rate, 1)


def reference_rate_maximum(lambda_prev, s, level):
    """max of lambda_prev^q s^(l-q) over 2 <= l <= level, 1 <= q <= l, by the double loop
    ``forcing_gain`` used before its closed-form rate check."""
    best = 0.0
    for l in range(2, level + 1):
        for q in range(1, l + 1):
            best = max(best, lambda_prev ** q * s ** (l - q))
    return best


def test_forcing_rate_check_matches_the_reference_maximum():
    sys_ = builtin_scenario("example-4.1").system
    outcomes = set()
    for lambda_prev in (0.3, 0.9, 1.0, 1.5, 7.0):
        for s in (1.0, 1.5, 2.0, 4.0):
            for level in range(2, 9):
                best = reference_rate_maximum(lambda_prev, s, level)
                attained = lambda_prev * s ** (level - 1)
                rejects = best > attained * (1 + 1e-12)
                outcomes.add(rejects)
                try:
                    forcing_gain(sys_, level, M=1.0, alpha_prev=1.0, beta=1.0, s=s,
                                 lambda_prev=lambda_prev)
                except CertificateRejected as exc:
                    assert rejects and exc.margin == best - attained, (lambda_prev, s, level)
                else:
                    assert not rejects, (lambda_prev, s, level)
    assert outcomes == {True, False}


def test_certificate_rejections():
    alg = heisenberg()
    hot = WordSeriesSystem(alg, 1, 1, 0.6 * np.eye(3))
    sig = ExoSignal("geometric", 1, 3, base=[1.0, 2.0, 3.0], ratio=2.0)
    with pytest.raises(CertificateRejected) as exc:
        certify_nilpotent(hot, sig, M=1.0)
    assert exc.value.margin == pytest.approx(0.1)
    # bounded signal: threshold is 1, any Schur linear part certifies
    cool = WordSeriesSystem(alg, 1, 1, 0.6 * np.eye(3))
    bounded = ExoSignal("samples", 1, 3, samples=np.array([[1.0, 0.0, 0.0]]))
    cert = certify_nilpotent(cool, bounded, M=1.0)
    assert cert.threshold == 1.0 and cert.consistent
    # non-nilpotent algebra or a proper ideal is a hypothesis error
    with pytest.raises(HypothesisError):
        certify_nilpotent(ex61_system(), ex61_signal(10), M=1.0)


@pytest.mark.parametrize("M", [-2.0, -1e-300, math.nan])
def test_certify_nilpotent_needs_a_nonnegative_M(M):
    # M = -2 was once issued, its gains summed with the sign of M^(q-1)
    sc = builtin_scenario("example-4.1")
    with pytest.raises(HypothesisError, match="M must be nonnegative"):
        certify_nilpotent(sc.system, sc.signal, M=M)
    assert certify_nilpotent(sc.system, sc.signal, M=0.0).gamma_levels[0] == 0.0


def test_certificate_overflow_is_inconsistent_not_an_error():
    # nilpotent_upper(4), two state slots, M = 1e200: the all-state word [X1, [X2, X1]]
    # puts M^2 in the level-3 gain, past the float range
    alg = nilpotent_upper(4)
    terms = [Term(Word((("X", 1), ("W", 1))), np.array([0.1, 0.0])),
             Term(Word((("X", 1), ("X", 2), ("X", 1))), np.array([-0.05, 0.0]))]
    sys_ = WordSeriesSystem(alg, 2, 1, 0.5 * np.eye(2 * alg.dim), terms=terms)
    signal = ExoSignal("samples", 1, alg.dim, samples=0.05 * np.ones((4, alg.dim)))
    assert forcing_gain(sys_, 3, M=1e200, alpha_prev=2.0, beta=0.1, s=1.0,
                        lambda_prev=0.6) == math.inf
    cert = certify_nilpotent(sys_, signal, M=1e200)
    assert cert.alpha == math.inf and not cert.consistent
    assert any("alpha is not finite" in w for w in cert.warnings)
    # example-4.1 with M = 1e308: the level-2 product overflows to inf
    sc = builtin_scenario("example-4.1")
    cert = certify_nilpotent(sc.system, sc.signal, M=1e308)
    assert cert.alpha == math.inf and math.isfinite(cert.alpha_levels[0])
    assert not cert.consistent
    assert any("level 2: envelope constant alpha is not finite" in w for w in cert.warnings)


def test_epsilon_override_warns_when_ladder_breaks():
    sc = builtin_scenario("example-4.1")
    cert = certify_nilpotent(sc.system, sc.signal, M=sc.M, epsilon=0.3)
    assert not cert.consistent
    assert any("lambda_p" in w for w in cert.warnings)


def test_solvable_certificate():
    sc = builtin_scenario("example-6.1")
    rep = certify_solvable(sc.system, sc.signal, horizon=sc.horizon, x0=sc.x0)
    assert rep.verdict == "conditional-pass"
    assert rep.rho_A == pytest.approx(0.75)
    assert rep.ideal_residual_max < 1e-10
    assert rep.notes  # the amplitude caveat is always spelled out
    bad = ex61_system()
    bad.A = 1.4 * bad.A
    with pytest.raises(CertificateRejected):
        certify_solvable(bad, sc.signal)


def test_solvable_evidence_is_relative_to_the_initial_norm():
    # decay is judged against the start, here of norm 5.6e-6: neither a run of no step nor one
    # that grows to 1.3e-5 shows any
    for horizon in (0, 5):
        rep = certify_solvable(ex61_system(), ex61_signal(0), horizon=horizon, x0=EX61_X0 * 1e-6)
        assert rep.verdict == "conditional-pass-no-evidence", horizon
        assert rep.evidence["final_norm"] >= rep.evidence["initial_norm"] == pytest.approx(5.56e-6, rel=1e-3)
    # the same start decays by far more than 1e-4 over 200 steps
    rep = certify_solvable(ex61_system(), ex61_signal(0), horizon=200, x0=EX61_X0 * 1e-6)
    assert rep.verdict == "conditional-pass"


def reference_ideal_residuals(sys_, signal, horizon):
    """``certify_solvable``'s signal-to-ideal distances, one step and one slot at a time."""
    ctx0 = sys_.projections[0]
    return np.array([sum(ctx0.quotient_norm(w) for w in Ws)
                     for Ws in signal.values(horizon + 1).reshape(horizon + 1, sys_.r, sys_.d)])


def test_solvable_ideal_residuals_match_the_per_slot_loop():
    sc = builtin_scenario("example-6.1")
    off = ExoSignal("samples", 2, 6, samples=np.random.default_rng(4).standard_normal((7, 12)))
    for signal in (sc.signal, off, ExoSignal("geometric", 2, 6, base=np.arange(12.0), ratio=0.9)):
        rep = certify_solvable(sc.system, signal, horizon=60, x0=sc.x0)
        ref = reference_ideal_residuals(sc.system, signal, 60)
        assert rep.ideal_residual_max == pytest.approx(ref.max(), rel=1e-15, abs=0.0)
        assert rep.ideal_residual_tail == pytest.approx(ref[45:].max(), rel=1e-15, abs=0.0)
    assert rep.ideal_residual_max > 1.0 and rep.verdict == "hypothesis-warning"


def test_solvable_warns_on_non_ideal_signal():
    sys61 = ex61_system()
    sig = ExoSignal("samples", 2, 6,
                    samples=np.tile(np.array([[1.0] + [0.0] * 11]), (5, 1)))
    rep = certify_solvable(sys61, sig, horizon=50)
    assert rep.verdict == "hypothesis-warning"


def test_both_routes_agree_on_nilpotent_zero_signal():
    alg = heisenberg()
    A = np.array([[0.5, 0.1, 0.0], [0.0, 0.4, 0.0], [0.2, 0.0, 0.3]])
    sys_ = WordSeriesSystem(alg, 1, 1, A,
                            terms=[Term(Word((("X", 1), ("W", 1))), np.array([1.0]))])
    sig = ExoSignal.zero(1, 3)
    cert = certify_nilpotent(sys_, sig, M=2.0)
    rep = certify_solvable(sys_, sig, horizon=150)
    assert cert.consistent and rep.verdict == "conditional-pass"


def test_deadbeat_horizons():
    cert = deadbeat_horizon(heisenberg_deadbeat_system())
    assert cert.horizon == 5
    assert cert.per_level == [0, 2, 5]
    cert = deadbeat_horizon(uptri_deadbeat_system())
    assert cert.horizon == 14
    assert cert.per_level == [3, 8, 14]
    # pure linear deadbeat on a commutative algebra: horizon = dimension
    alg = abelian(4)
    N = np.diag([1.0, 1.0, 1.0], k=1)
    lin = WordSeriesSystem(alg, 1, 1, N)
    cert = deadbeat_horizon(lin)
    assert cert.horizon == 4
    with pytest.raises(HypothesisError):
        deadbeat_horizon(heisenberg_tracking_system())


def test_deadbeat_simulation_verification():
    for make in (heisenberg_deadbeat_system, uptri_deadbeat_system):
        sys_ = make()
        cert = deadbeat_horizon(sys_)
        res = deadbeat_verified(
            sys_, cert, lambda rng: ideal_valued_samples(sys_, cert.horizon + 3, rng),
            runs=100, seed=3)
        assert res["ok"], res
        assert res["worst_final"] < 1e-9


def reference_deadbeat_verified(sys_, cert, signal_factory, runs=100, seed=0, tol=1e-9):
    """``deadbeat_verified`` one ``simulate`` call per run."""
    rng = np.random.default_rng(seed)
    worst_final = 0.0
    worst_levels = [0.0] * len(cert.per_level)
    for _ in range(runs):
        x0 = rng.standard_normal(sys_.state_dim)
        sig = signal_factory(rng)
        traj = sys_.simulate(x0, sig, cert.horizon + 2)
        if traj.diverged:  # a run stopped early: its final state and the levels it missed are inf
            worst_final = math.inf
        else:
            worst_final = max(worst_final, float(traj.norms[cert.horizon:].max()))
        for i, ki in enumerate(cert.per_level):
            reached = traj.quotient_norms[ki:, i]
            worst_levels[i] = max(worst_levels[i], float(reached.max()) if reached.size else math.inf)
    return {"ok": worst_final < tol and all(v < tol for v in worst_levels),
            "worst_final": worst_final, "worst_levels": worst_levels}


def reference_deadbeat_envelope(sys_, cert, signal_factory, M, decay, runs=50, seed=1,
                                fresh_runs=100):
    """``deadbeat_envelope`` one ``simulate`` call per run; returns (alpha, verified)."""
    rng = np.random.default_rng(seed)

    def sample_alpha(count):
        worst = 0.0
        for _ in range(count):
            x0 = rng.standard_normal(sys_.state_dim)
            nrm = sys_.state_norm(x0)
            if nrm == 0:
                continue
            x0 *= rng.uniform(0.1, 1.0) * M / nrm
            traj = sys_.simulate(x0, signal_factory(rng), cert.horizon)
            k = np.arange(traj.norms.shape[0], dtype=float)
            with np.errstate(divide="ignore"):
                worst = max(worst, float(np.max(traj.norms / (decay ** k * traj.norms[0]))))
        return worst

    alpha = max(1.0, sample_alpha(runs))
    fresh = sample_alpha(fresh_runs)
    ok = fresh <= alpha * (1 + 1e-9)
    return max(alpha, fresh), ok


@pytest.mark.parametrize("make", [heisenberg_deadbeat_system, uptri_deadbeat_system])
def test_batched_deadbeat_runs_match_the_per_run_loops(make):
    sys_ = make()
    cert = deadbeat_horizon(sys_)
    factory = lambda rng: ideal_valued_samples(sys_, cert.horizon + 3, rng)
    for seed in (0, 4, 17):
        assert deadbeat_verified(sys_, cert, factory, seed=seed) == \
            reference_deadbeat_verified(sys_, cert, factory, seed=seed)
        env = deadbeat_envelope(sys_, cert, factory, M=5.0, decay=0.5, seed=seed)
        alpha, ok = reference_deadbeat_envelope(sys_, cert, factory, M=5.0, decay=0.5, seed=seed)
        assert (env.alpha, env.details["verified_on_fresh_samples"]) == (alpha, ok)


def test_deadbeat_verification_fails_a_run_that_stops_early():
    # heisenberg-deadbeat's A with word coefficients of 1e300: every run passes 1e100 at step 1
    sys_ = WordSeriesSystem(heisenberg(), 1, 1, heisenberg_deadbeat_system().A,
                            terms=[Term(Word((("X", 1), ("W", 1))), np.array([1e300])),
                                   Term(Word((("W", 1), ("X", 1), ("W", 1))), np.array([1e300]))])
    cert = deadbeat_horizon(sys_)
    factory = lambda rng: ideal_valued_samples(sys_, cert.horizon + 3, rng)
    res = deadbeat_verified(sys_, cert, factory, runs=20)
    assert res == {"ok": False, "worst_final": math.inf, "worst_levels": [0.0, math.inf, math.inf]}
    assert res == reference_deadbeat_verified(sys_, cert, factory, runs=20)


def reference_ideal_valued_samples(sys_, count, rng):
    """``ideal_valued_samples`` one draw and one matrix-vector product per sample and slot."""
    B = sys_.ideal.onb
    samples = np.zeros((count, sys_.r * sys_.d))
    for k in range(count):
        for j in range(sys_.r):
            samples[k, j * sys_.d:(j + 1) * sys_.d] = B @ rng.standard_normal(B.shape[1])
    return samples


@pytest.mark.parametrize("make", [heisenberg_deadbeat_system, uptri_deadbeat_system, ex61_system])
def test_ideal_valued_samples_match_the_per_slot_loop(make):
    sys_ = make()
    for seed in range(40):
        for count in (1, 2, 11, 19):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = ideal_valued_samples(sys_, count, rng).samples
            assert np.array_equal(got, reference_ideal_valued_samples(sys_, count, ref_rng))
            assert rng.random() == ref_rng.random()  # the same draws were consumed


def test_deadbeat_envelope():
    sys_ = heisenberg_deadbeat_system()
    cert = deadbeat_horizon(sys_)
    factory = lambda rng: ideal_valued_samples(sys_, cert.horizon + 3, rng)
    env = deadbeat_envelope(sys_, cert, factory, M=10.0, decay=0.5, runs=60,
                            fresh_runs=100)
    assert env.satisfied and np.isfinite(env.alpha) and env.alpha >= 1.0
    with pytest.raises(ValueError):
        deadbeat_envelope(sys_, cert, factory, M=10.0, decay=1.0)


def test_deadbeat_envelope_refuses_a_decay_of_zero():
    # decay 0 once passed the range check; 0 ** k / 0 gave NaN, which max(0.0, nan) dropped,
    # so the envelope read alpha = 1 at decay 0
    sys_ = heisenberg_deadbeat_system()
    cert = deadbeat_horizon(sys_)
    factory = lambda rng: ideal_valued_samples(sys_, cert.horizon + 3, rng)
    for decay in (0.0, -0.5):
        with pytest.raises(ValueError, match=re.escape("decay must lie in (0, 1)")):
            deadbeat_envelope(sys_, cert, factory, M=5.0, decay=decay)


def test_deadbeat_envelope_names_its_alpha_an_estimate():
    sys_ = heisenberg_deadbeat_system()
    cert = deadbeat_horizon(sys_)
    env = deadbeat_envelope(sys_, cert, lambda rng: ideal_valued_samples(sys_, cert.horizon + 3, rng),
                            M=1.0, decay=0.5, runs=5, fresh_runs=5)
    assert env.to_dict()["details"]["alpha_kind"] == "sampled-estimate"


def test_envelope_alpha_grows_with_the_sample_set():
    # the constant is a max over runs, so a superset can only enlarge it
    sys_ = heisenberg_deadbeat_system()
    cert = deadbeat_horizon(sys_)
    rng = np.random.default_rng(9)
    factory = lambda r: ideal_valued_samples(sys_, cert.horizon + 3, r)
    def ratio_max(x0):
        traj = sys_.simulate(x0, factory(rng), cert.horizon)
        k = np.arange(traj.norms.shape[0], dtype=float)
        return float(np.max(traj.norms / (0.5 ** k * traj.norms[0])))
    small = [rng.standard_normal(3) * 2 for _ in range(20)]
    big = small + [rng.standard_normal(3) * 6 for _ in range(20)]
    a_small = max(ratio_max(x) for x in small)
    a_big = max(ratio_max(x) for x in big)
    assert a_big >= a_small


def test_fit_envelope_shapes():
    fit = fit_envelope([traj_from_norms(0.5 ** np.arange(51))])
    assert fit.alpha == pytest.approx(1.0, abs=1e-9)
    assert fit.decay == pytest.approx(0.5, abs=1e-9)
    assert fit.satisfied
    fit = fit_envelope([traj_from_norms(np.ones(31))])
    assert fit.decay == pytest.approx(1.0, abs=1e-9)
    assert not fit.satisfied
    fit = fit_envelope([traj_from_norms([2.0, 0.0, 0.0])])
    assert (fit.alpha, fit.decay) == (1.0, 0.0)
    # growth by 3 per step: the rate lies above the bracket [0, 2] a search would start from
    fit = fit_envelope([traj_from_norms(3.0 ** np.arange(21))])
    assert fit.decay == pytest.approx(3.0, rel=1e-12) and not fit.satisfied
    assert fit.alpha == pytest.approx(1.0, rel=1e-12)
    # the binding rate 0.8 comes from the trajectory with the smaller overshoot (1 against 4)
    fit = fit_envelope([traj_from_norms([1.0, 4.0, 2.0, 1.0, 0.5, 0.25]),
                        traj_from_norms(0.8 ** np.arange(6))])
    assert fit.decay == pytest.approx(0.8, rel=1e-12) and fit.satisfied
    assert fit.alpha == pytest.approx(4.0 / 0.8, rel=1e-12)
    assert fit.details == {"overshoot": 4.0, "trajectories": 2}
    with pytest.raises(ValueError):
        fit_envelope([traj_from_norms([0.0, 1.0])])
    with pytest.raises(ValueError):
        fit_envelope([])


def test_fit_envelope_on_tracking_bundle():
    sc = builtin_scenario("example-4.1")
    rng = np.random.default_rng(5)
    bundle = []
    for _ in range(10):
        e0 = rng.standard_normal(3)
        e0 *= rng.uniform(0.2, 1.0) * 5.0 / np.linalg.norm(e0)
        bundle.append(sc.system.simulate(tracking_state(e0), tracking_signal(1.0), 50))
    fit = fit_envelope(bundle)
    assert fit.satisfied and fit.decay < 1.0 and np.isfinite(fit.alpha)
    for traj in bundle:
        ks = np.arange(traj.norms.shape[0])
        assert np.all(traj.norms <= fit.alpha * fit.decay ** ks * traj.norms[0] * (1 + 1e-9))


def reference_fit_envelope(bundle):
    """(alpha, decay) by the bisection ``fit_envelope`` used before its closed form: the
    smallest decay at which no trajectory's maximum of r_k / decay^k is its last nonzero sample."""
    ratios = [t.norms / t.norms[0] for t in bundle]

    def interior(lam):
        for r in ratios:
            last = int(np.max(np.flatnonzero(r > 0)))
            if last >= 1 and int(np.argmax(r[:last + 1] / lam ** np.arange(last + 1.0))) == last:
                return False
        return True

    lo, hi = 0.0, 2.0
    while not interior(hi):
        hi *= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if not interior(mid) else (lo, mid)
    with np.errstate(divide="ignore", over="ignore"):
        return max(float(np.nanmax(r / hi ** np.arange(r.shape[0], dtype=float))) for r in ratios), hi


def test_fit_envelope_matches_the_reference_bisection():
    sc = builtin_scenario("example-4.1")
    rng = np.random.default_rng(9)
    bundles = [[traj_from_norms(3.0 ** np.arange(21))],
               [traj_from_norms([1.0, 4.0, 2.0, 1.0, 0.5, 0.25]), traj_from_norms(0.8 ** np.arange(6))]]
    for count, horizon in [(5, 200), (6, 50), (10, 50)]:
        bundles.append([sc.system.simulate(tracking_state(rng.standard_normal(3) * rng.uniform(1.0, 5.0)),
                                           tracking_signal(1.0), horizon) for _ in range(count)])
    for bundle in bundles:
        fit = fit_envelope(bundle)
        alpha, decay = reference_fit_envelope(bundle)
        assert fit.decay == pytest.approx(decay, rel=1e-15, abs=0)
        assert fit.alpha == pytest.approx(alpha, rel=1e-12, abs=0)


def test_forcing_norm_levels():
    # level-1 forcing is identically zero: no words of length <= 1 exist
    sc = builtin_scenario("example-4.1")
    traj = sc.system.simulate(sc.x0, sc.signal, 10)
    u1 = forcing_norms(sc.system, traj.states, sc.signal, level=1)
    assert np.max(u1) == 0.0
