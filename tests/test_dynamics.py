import math
import re
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
import scipy.linalg

from liestab import dynamics
from liestab.algebra import (abelian, derived_algebra, heisenberg, is_nilpotent, nilpotent_upper,
                             upper_triangular6)
from liestab.dynamics import (AdjointFamily, ExoSignal,
                              SystemSpecError, Term, Word, WordSeriesSystem,
                              _expm1_batch, _min_singular, parse_letter)
from liestab.quotient import (InvarianceViolation, _slotwise, collapse_identity_residual, induced_map,
                              invariance_bound, layered_word_residual, level_block)
from liestab.sampling import (expm, heisenberg_tracking_system, tracking_signal,
                              tracking_state)
from liestab.scenarios import (BUILTINS, EX61_X0, builtin_scenario, ex61_signal, ex61_system,
                               heisenberg_deadbeat_system, uptri_deadbeat_system)
from liestab.stability import HypothesisError, certify_nilpotent, forcing_norms
from test_algebra import complex_gemm_ad, rotated
from test_stability import bench_sweep_case


def tracking_error_step(e, w):
    """Closed-loop error map obtained by composing the hold-interval
    exponentials and substituting u = K e - L w, on the h-basis."""
    e1, e2, e3 = e
    return np.array([
        0.25 * e1 + 0.25 * e2,
        -0.25 * e1 + 0.25 * e2,
        0.01 * e3 - 0.125 * (e1 ** 2 + e2 ** 2) + 1.875 * (e2 - e1) * w,
    ])


def word_chain(alg, vals):
    """``[v1, [v2, [..., vk]]]`` as one ``bracket_many`` chain, right to left: a reference
    that shares nothing with the word evaluator behind ``bracket_word`` and the update map."""
    w = vals[-1]
    for v in vals[-2::-1]:
        w = alg.bracket_many(v, w)
    return w


def reference_step(sys_, X, W):
    """F(X, W) one term at a time: one ``bracket_many`` chain per word, scipy ``expm`` per
    family."""
    Xs = X.reshape(sys_.n, sys_.d)
    Ws = W.reshape(sys_.r, sys_.d)

    def value(letter):
        kind, j = letter
        return Xs[j - 1] if kind == "X" else Ws[j - 1]

    out = (sys_.A @ X).reshape(sys_.n, sys_.d).copy()
    for t in sys_.terms:
        out += np.outer(t.coeff, word_chain(sys_.algebra, [value(l) for l in t.word.letters]))
    for f in sys_.families:
        base = sum(w * value(letter) for letter, w in f.base.items())
        target = value(f.target)
        flow = scipy.linalg.expm(sys_.algebra.ad_many(base))
        out[f.out_slot - 1] += f.scale * (flow @ target - target)
    return out.reshape(-1)


def reference_update(sys_, X, W):
    """The batched update map with one ``bracket_many`` chain per word, one flow product per
    family and the input-only flows recomputed on every call (the loops that the shared-suffix
    evaluator, the per-call memo and the shared products replaced)."""
    B = X.shape[0]
    Xs = X.reshape(B, sys_.n, sys_.d)
    Ws = W.reshape(W.shape[0] if W.ndim > 1 else 1, sys_.r, sys_.d)
    out = (X @ sys_.A.T).reshape(B, sys_.n, sys_.d)

    def letter_vals(letter):
        kind, j = letter
        return Xs[:, j - 1, :] if kind == "X" else Ws[:, j - 1, :]

    for t in sys_.terms:
        w = word_chain(sys_.algebra, [letter_vals(l) for l in t.word.letters])
        out += t.coeff[np.newaxis, :, np.newaxis] * w[:, np.newaxis, :]
    keys = [tuple(sorted(f.base.items())) for f in sys_.families]
    ads = {key: sys_.algebra.ad_many(sum(wgt * letter_vals(l) for l, wgt in key))
           for key in dict.fromkeys(keys)}
    single = [key for key, ad in ads.items() if ad.shape[0] == 1]
    flows = {key: _expm1_batch(ad) for key, ad in ads.items() if ad.shape[0] != 1}
    if single:
        flows.update(zip(single, _expm1_batch(np.concatenate([ads[k] for k in single]))[:, None]))
    for f, key in zip(sys_.families, keys):
        out[:, f.out_slot - 1, :] += f.scale * (flows[key] @ letter_vals(f.target)[..., None])[..., 0]
    return out.reshape(B, -1)


def reference_equilibrium_report(sys_, seed=0, starts=100, iters=300):
    """``equilibrium_report`` over a fixed array of starts with a mask of the live ones,
    gathered and scattered on every step (the loop that dropping bad starts replaced)."""
    rng = np.random.default_rng(seed)
    structural = sys_.structural_state_letter_ok()
    lin_margin = _min_singular(np.eye(sys_.state_dim) - sys_.A)
    ctx0 = sys_.projections[0]
    A0 = _slotwise(ctx0.P, _slotwise(ctx0.P, sys_.A, sys_.n).T, sys_.n).T
    q_margin = _min_singular(np.eye(A0.shape[0]) - A0)
    violations, surviving = [], []
    for w in [np.zeros(sys_.r * sys_.d), rng.standard_normal(sys_.r * sys_.d) * 0.5]:
        pts = rng.standard_normal((starts, sys_.state_dim)) * max(sys_.radius, 1.0)
        alive = np.ones(starts, dtype=bool)
        for _ in range(iters):
            fx = sys_.evaluate_batch(pts[alive], w)
            good = np.all(np.isfinite(fx), axis=1) & (np.abs(fx).max(axis=1, initial=0.0) < 1e30)
            idx = np.flatnonzero(alive)
            pts[idx[good]] += 0.5 * (fx[good] - pts[idx[good]])
            alive[idx[~good]] = False
            if not alive.any():
                break
        xs = pts[alive]
        surviving.append(int(alive.sum()))
        resids = np.linalg.norm(sys_._update(xs, w) - xs, axis=1)
        norms = np.linalg.norm(xs.reshape(len(xs), sys_.n, sys_.d), axis=2).sum(axis=1)
        for x, resid, nrm in zip(xs, resids, norms):
            if resid < 1e-8 and nrm > 1e-4:
                violations.append({"norm": float(nrm), "residual": float(resid), "point": x.tolist()})
    return {"kind": "search",
            "structural_ok": structural,
            "linear_margin": lin_margin,
            "quotient_linear_margin": q_margin,
            "violations": violations,
            "surviving_starts": surviving,
            "ok": structural and not violations}


def reference_commuting_square_residual(sys_, level, samples=100, seed=0, scale=1.0):
    """``commuting_square_residual`` one sample per ``evaluate`` call on each side."""
    qsys = sys_.quotient_system(level)
    P = sys_.projections[level].P
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = rng.standard_normal(sys_.state_dim) * scale
        w = rng.standard_normal(sys_.r * sys_.d) * scale
        lhs = _slotwise(P, sys_.evaluate(x, w), sys_.n)
        rhs = qsys.evaluate(_slotwise(P, x, sys_.n), _slotwise(P, w, sys_.r))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def projected_signal(sig, P, K):
    """The first K inputs of ``sig``, each slot projected by P, as a samples signal."""
    return ExoSignal("samples", sig.r, P.shape[0], samples=_slotwise(P, sig.values(K), sig.r))


def sweep_system(m):
    """The term-only system on nilpotent_upper(m) that the dimension sweep uses."""
    alg = nilpotent_upper(m)
    terms = [Term(Word((("X", 1), ("W", 1))), np.array([0.1])),
             Term(Word((("X", 1), ("X", 1), ("W", 1))), np.array([-0.05]))]
    return WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(alg.dim), terms=terms)


FIVE_SYSTEMS = ["example-4.1", "example-6.1", "heisenberg-deadbeat", "uptri-deadbeat", "sweep-d15"]


def five_system(name):
    return sweep_system(6) if name == "sweep-d15" else builtin_scenario(name).system


def test_letter_parsing():
    assert parse_letter("X1") == ("X", 1)
    assert parse_letter("W12") == ("W", 12)
    for bad in ("Y1", "X0", "X", "", "Xx"):
        with pytest.raises(SystemSpecError):
            parse_letter(bad)
    with pytest.raises(SystemSpecError):
        Word((("X", 1),))  # bracket words need two letters


def test_eval_matches_closed_form():
    sys41 = heisenberg_tracking_system()
    rng = np.random.default_rng(0)
    for _ in range(100):
        e = rng.standard_normal(3) * 3
        w = rng.standard_normal()
        out = sys41.evaluate(tracking_state(e), w * np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(out[:3], tracking_error_step(e, w), atol=1e-12)
        # the image slot stays consistent: slot2 = F slot1 after every step
        np.testing.assert_allclose(out[3:], sys41.A[3:6, :3] @ e, atol=1e-12)


def test_eval_zero_state_and_linear():
    for sys_ in (heisenberg_tracking_system(), ex61_system(),
                 heisenberg_deadbeat_system(), uptri_deadbeat_system()):
        rng = np.random.default_rng(1)
        for _ in range(20):
            w = rng.standard_normal(sys_.r * sys_.d)
            assert np.linalg.norm(sys_.evaluate(np.zeros(sys_.state_dim), w)) == 0.0
    alg = abelian(3)
    lin = WordSeriesSystem(alg, 1, 1, np.diag([0.5, 0.2, 0.1]))
    x = np.array([1.0, 2.0, 3.0])
    np.testing.assert_allclose(lin.evaluate(x, np.zeros(3)), lin.A @ x)


def test_eval_batch_matches_serial():
    rng = np.random.default_rng(2)
    alg = upper_triangular6()
    shared = WordSeriesSystem(alg, 2, 2, 0.1 * rng.standard_normal((12, 12)), families=[
        AdjointFamily(1, 0.5, {"X1": 1.0, "W1": 2.0}, "X2"),
        AdjointFamily(2, -0.3, {"W1": 2.0, "X1": 1.0}, "X1"),  # same base as the first
        AdjointFamily(2, 0.4, {"X1": 1.0, "W1": -1.0}, "X2"),  # same letters, other weights
        AdjointFamily(1, 0.7, {"W1": 1.0, "W2": -0.5}, "W2"),  # input letters only
    ], invariance_ideal=derived_algebra(alg))
    # single-row flows share one kernel call: in a step, and for the input
    # bases under a shared W, flows of norm ~1e-11 sit next to norm ~30
    # (Heisenberg: e^{ad} - I = ad, so the big flow stays O(100))
    mixed = WordSeriesSystem(heisenberg(), 2, 2, 0.1 * rng.standard_normal((6, 6)), families=[
        AdjointFamily(1, 0.5, {"X1": 1e-11}, "X2"),
        AdjointFamily(2, 1.0, {"W1": 30.0}, "X1"),
        AdjointFamily(1, -2.0, {"W2": 1e-11}, "X1"),
        AdjointFamily(2, 0.3, {"W1": 30.0}, "W2"),
    ])
    for sys_ in (heisenberg_tracking_system(), ex61_system(), heisenberg_deadbeat_system(),
                 uptri_deadbeat_system(), shared, mixed):
        X = rng.standard_normal((9, sys_.state_dim))
        W = rng.standard_normal((9, sys_.r * sys_.d))
        batch = sys_.evaluate_batch(X, W)
        one_input = sys_.evaluate_batch(X, W[0])
        for i in range(9):
            for w, got in ((W[i], batch[i]), (W[0], one_input[i])):
                ref = reference_step(sys_, X[i], w)
                np.testing.assert_allclose(got, ref, atol=1e-12)
                np.testing.assert_allclose(sys_.evaluate(X[i], w), ref, atol=1e-12)


def _random_with_norms(rng, norms, d=6):
    mats = rng.standard_normal((len(norms), d, d))
    return mats * (np.asarray(norms) / np.abs(mats).sum(axis=1).max(axis=1))[:, None, None]


def test_expm1_batch_matches_mpmath():
    mats = _random_with_norms(np.random.default_rng(7), [1e-12, 1e-6, 0.3, 2.0, 40.0, 300.0])
    for M, E in zip(mats, _expm1_batch(mats)):
        with mpmath.workdps(50):
            ref = np.array((mpmath.expm(mpmath.matrix(M.tolist())) - mpmath.eye(6)).tolist(),
                           dtype=float)
        # in the mixed batch the largest norm sets the degree; alone, the row's own norm does
        for got in (E, _expm1_batch(M[None])[0]):
            assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-13
    mixed = np.concatenate([np.zeros((2, 6, 6)), mats])
    assert np.all(_expm1_batch(mixed)[:2] == 0.0)
    assert np.all(_expm1_batch(np.zeros((3, 4, 4))) == 0.0)
    assert _expm1_batch(np.zeros((0, 6, 6))).shape == (0, 6, 6)
    assert _expm1_batch(np.zeros((2, 0, 0))).shape == (2, 0, 0)


def term_by_term_expm1(mats):
    """``_expm1_batch`` with its Taylor polynomial summed one term at a time, each term the
    previous one times the scaled matrix over its index: the same scaling, degree and squarings."""
    mats = np.asarray(mats, dtype=float)
    norms = np.abs(mats).sum(axis=-2).max(axis=-1, initial=0.0)
    ok = norms <= 2.0 ** 59
    theta = float(norms.max(initial=0.0, where=ok))
    s = math.ceil(math.log2(theta)) + 1 if theta > 0.5 else 0
    scaled = np.where(ok[..., None, None], mats, np.nan) * 2.0 ** -s
    theta *= 2.0 ** -s
    term = out = scaled
    j = 1
    while theta ** j / math.factorial(j + 1) > 2.0 ** -53:
        j += 1
        term = term @ scaled / j
        out = out + term
    for _ in range(s):
        out = out @ (out + 2.0 * np.eye(mats.shape[-1]))
    return out


def mpmath_expm1(M):
    with mpmath.workdps(50):
        return np.array((mpmath.expm(mpmath.matrix(M.tolist())) - mpmath.eye(len(M))).tolist(), dtype=float)


# for each Taylor degree m = 1..14, a 1-norm at most 1/2 (so no scaling) that the degree rule
# theta^(m+1)/(m+1)! <= 2^-53 theta takes to m: 0.9 of the largest such norm, and 1/2 for m = 14
DEGREE_NORMS = [0.9 * (2.0 ** -53 * math.factorial(m + 1)) ** (1 / m) for m in range(1, 14)] + [0.5]


def test_expm1_batch_matches_mpmath_at_every_degree(monkeypatch):
    degrees = []
    blocks = dynamics._taylor_blocks
    monkeypatch.setattr(dynamics, "_taylor_blocks", lambda m: degrees.append(m) or blocks(m))
    # norms past 1/2 take s = 1, 3, 7 and 10 scalings to reach (1/4, 1/2]
    scaled_norms = [0.75, 3.0, 40.0, 300.0]
    mats = _random_with_norms(np.random.default_rng(9), DEGREE_NORMS + scaled_norms)
    for M in mats:
        got = _expm1_batch(M[None])[0]
        ref = mpmath_expm1(M)
        assert np.linalg.norm(got - ref) / np.linalg.norm(ref) <= 1e-13
    assert degrees[:14] == list(range(1, 15))


def test_expm1_batch_stays_near_the_term_by_term_sum():
    # the two evaluations differ in rounding only, which the squarings amplify with the norm
    rng = np.random.default_rng(10)
    for norm in [1e-12, 1e-6, 1e-3, 0.1, 0.5, 1.0, 3.0, 10.0, 40.0, 100.0]:
        mats = _random_with_norms(rng, [norm] * 100)
        got, ref = _expm1_batch(mats), term_by_term_expm1(mats)
        diff = np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert diff.max() <= 1e-15 * max(1.0, norm), norm
    for M in _random_with_norms(rng, DEGREE_NORMS):  # one degree a call
        got, ref = _expm1_batch(M[None])[0], term_by_term_expm1(M[None])[0]
        assert np.linalg.norm(got - ref) <= 1e-15 * np.linalg.norm(ref)


def test_expm1_batch_nonfinite_rows():
    # a row that cannot be scaled gives a non-finite flow and leaves the others alone
    rng = np.random.default_rng(8)
    mats = _random_with_norms(rng, [1e-9, 0.2, 3.0, 50.0])
    sys61 = ex61_system()
    X = rng.standard_normal((4, sys61.state_dim))
    W = rng.standard_normal(sys61.r * sys61.d)
    keep = [0, 1, 3]
    for bad in (np.inf, -np.inf, np.nan, 1e300):
        m = mats.copy()
        m[2, 1, 4] = bad
        out = _expm1_batch(m)
        assert not np.isfinite(out[2]).any()
        np.testing.assert_array_equal(out[keep], _expm1_batch(m[keep]))
        x = X.copy()
        x[2, 3] = bad
        with np.errstate(invalid="ignore"):  # the linear part A x meets inf * 0
            fx = sys61.evaluate_batch(x, W)
        assert not np.isfinite(fx[2]).all()
        np.testing.assert_array_equal(fx[keep], sys61.evaluate_batch(x[keep], W))


def scaled_ads(alg, coords, norm):
    """``ad`` of each coordinate row, scaled to the induced 1-norm ``norm``."""
    ads = alg.ad_many(coords)
    return ads * (norm / np.abs(ads).sum(axis=-2).max(axis=-1))[:, None, None]


def counted_kernel(monkeypatch):
    """Record each Taylor table the flow kernel takes (by degree) and count its squarings."""
    degrees, squarings = [], [0]
    blocks, twice = dynamics._taylor_blocks, dynamics._twice_identity
    monkeypatch.setattr(dynamics, "_taylor_blocks", lambda m: degrees.append(m) or blocks(m))
    monkeypatch.setattr(dynamics, "_twice_identity",
                        lambda d: squarings.__setitem__(0, squarings[0] + 1) or twice(d))
    return degrees, squarings


def nearly_nilpotent_stacks(rng):
    """``ad`` stacks of nilpotent and nearly nilpotent elements, 4 rows each, by name."""
    ut, n5, h = upper_triangular6(), nilpotent_upper(5), heisenberg()
    derived = rng.standard_normal((4, 3)) @ derived_algebra(ut).onb.T
    diagonal = np.zeros((4, 6))
    diagonal[:, :3] = 1e-4 * rng.standard_normal((4, 3))
    stacks = {}
    for norm in (0.75, 26.0, 1e3, 1e6):
        stacks[f"derived-{norm:g}"] = scaled_ads(ut, derived, norm)
        stacks[f"n5-{norm:g}"] = scaled_ads(n5, rng.standard_normal((4, n5.dim)), norm)
        stacks[f"heisenberg-{norm:g}"] = scaled_ads(h, rng.standard_normal((4, 3)), norm)
        # an ideal-valued part and a small diagonal one: the X1 + W1 base of example 6.1
        for small in (1.0, 1e-6):
            stacks[f"near{small:g}-{norm:g}"] = ut.ad_many(
                derived / np.abs(derived).sum(axis=1)[:, None] * norm / 2 + small * diagonal)
    dense = _random_with_norms(rng, [26.0])
    stacks["mixed"] = np.concatenate([stacks["derived-26"][:3], dense])
    return stacks


def test_expm1_batch_power_norm_rule_matches_mpmath(monkeypatch):
    degrees, squarings = counted_kernel(monkeypatch)
    for name, stack in nearly_nilpotent_stacks(np.random.default_rng(15)).items():
        together = _expm1_batch(stack)
        for M, E in zip(stack, together):
            ref = mpmath_expm1(M)
            for got in (E, _expm1_batch(M[None])[0]):
                assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref), name
        # ad of the derived algebra of upper_triangular6 cubes to 0 and of Heisenberg squares
        # to 0: past the 1-norm 4 they take degree 5 unscaled, where scaling took s >= 6
        del degrees[:]
        squarings[0] = 0
        _expm1_batch(stack)
        if name.startswith(("derived", "heisenberg")) and not name.endswith("-0.75"):
            assert degrees[-1] == 5 and squarings[0] == 0, name  # the last table is the one used
        if name == "near1e-06-1000":  # a diagonal of 1e-10: unscaled at a degree past q = 3
            assert degrees[-1] == 13 and squarings[0] == 0
    # a dense row takes the whole stack back to the scaled rule: theta = 26 scales by 2^-6
    assert squarings[0] == 6


def mpmath_frechet_expm(M, E):
    """The Frechet derivative of expm at M along E: the top right block of expm([[M, E], [0, M]])."""
    d = len(M)
    with mpmath.workdps(50):
        big = mpmath.expm(mpmath.matrix(np.block([[M, E], [np.zeros_like(M), M]]).tolist()))
        return np.array(big.tolist(), dtype=float)[:d, d:]


def test_expm1_batch_complex_step_is_the_frechet_derivative(monkeypatch):
    # Im e^(M + i h E) / h is the derivative along E up to O(h^2), on each of the kernel's rules
    degrees, squarings = counted_kernel(monkeypatch)
    rng = np.random.default_rng(17)
    nilpotent = nearly_nilpotent_stacks(rng)
    stacks = {"scaled": (_random_with_norms(rng, [3.0, 40.0]), lambda: squarings[0] > 0),
              "power-norm": (np.concatenate([nilpotent["derived-26"], nilpotent["near1e-06-1000"][:2]]),
                             lambda: squarings[0] == 0 and degrees[-1] > 1),
              "degree-1": (_random_with_norms(rng, [DEGREE_NORMS[0]] * 2), lambda: degrees[-1] == 1)}
    h = 2.0 ** -100
    for name, (stack, rule_taken) in stacks.items():
        E = rng.standard_normal(stack.shape)
        del degrees[:]
        squarings[0] = 0
        flows = _expm1_batch(stack + 1j * h * E)
        assert flows.dtype == np.complex128 and rule_taken(), name
        for M, e, got in zip(stack, E, flows.imag / h):
            ref = mpmath_frechet_expm(M, e)
            assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref), name


def test_the_update_map_keeps_float64_for_real_input():
    alg = heisenberg()
    for X in ([[1, 0, 0]], np.array([[1, 0, 0]]), np.array([[1, 0, 0]], dtype=np.float32)):
        assert alg.ad_many(X).dtype == np.float64
    assert alg.ad_many(np.array([[1j, 0, 0]])).dtype == np.complex128
    sys_ = ex61_system()
    rows = np.random.default_rng(5).standard_normal((3, sys_.state_dim))
    W = np.zeros(sys_.r * sys_.d)
    assert sys_._update(rows, W).dtype == np.float64
    assert sys_._update(rows[:1], W).dtype == np.float64


def test_example_61_simulation_skips_most_squarings(monkeypatch):
    # the scaled rule takes 11,856 squarings over these 2000 steps (theta about 26, s = 6)
    _, squarings = counted_kernel(monkeypatch)
    sc = builtin_scenario("example-6.1", horizon=2000)
    traj = sc.system.simulate(sc.x0, sc.signal, 2000)
    assert not traj.diverged and squarings[0] <= 1000


def test_dense_stacks_keep_the_scaled_rule(monkeypatch):
    degrees, squarings = counted_kernel(monkeypatch)
    rng = np.random.default_rng(16)
    for norm in [0.75, 1.0, 1.2, 2.0, 3.0, 4.5, 10.0, 26.0, 40.0, 100.0, 300.0]:
        for rows in (1, 4, 100):
            mats = _random_with_norms(rng, [norm] * rows)
            theta = float(np.abs(mats).sum(axis=-2).max())
            s = math.ceil(math.log2(theta)) + 1
            del degrees[:]
            squarings[0] = 0
            _expm1_batch(mats)
            assert (squarings[0], degrees) == (s, [old_taylor_degree(theta * 2.0 ** -s)]), (norm, rows)


def test_a_bad_row_beside_nilpotent_rows_leaves_them_alone(monkeypatch):
    stacks = nearly_nilpotent_stacks(np.random.default_rng(17))
    rows = np.concatenate([stacks["derived-26"], stacks["derived-1e+06"]])
    _, squarings = counted_kernel(monkeypatch)
    for bad in (np.inf, -np.inf, np.nan, 1e300):
        mats = np.insert(rows, 5, rows[0], axis=0)
        mats[5, 4, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _expm1_batch(mats)
        assert not np.isfinite(out[5]).any() and squarings[0] == 0  # the bad row is masked off
        np.testing.assert_array_equal(np.delete(out, 5, axis=0), _expm1_batch(rows))


def reference_expm1_batch(mats):
    """The flow kernel before its per-call trims, verbatim but for the ``dynamics.`` prefix of its
    helpers (so that ``counted_kernel`` counts its tables and squarings too): an array power
    rescaled X^2 and X^3, and the cube norm took masked row maxima even with no row masked."""
    mats = np.asarray(mats, dtype=float)
    d = mats.shape[-1]
    colsums = dynamics._ones(d) @ np.abs(mats)
    theta, ok = float(colsums.max(initial=0.0)), True
    if not theta <= 2.0 ** 59:  # some row is not finite or too large
        norms = colsums.max(axis=-1, initial=0.0)
        ok = norms <= 2.0 ** 59  # False for inf and NaN too
        theta = float(norms.max(initial=0.0, where=ok))
        mats = np.where(ok[..., None, None], mats, np.nan)
    s = math.ceil(math.log2(theta)) + 1 if theta > 0.5 else 0
    m = dynamics._taylor_degree(theta * 2.0 ** -s)
    powers = np.empty((math.isqrt(m - 1) + 1,) + mats.shape)  # X, ..., X^q, the power first
    np.multiply(mats, 2.0 ** -s, out=powers[0])
    for i in range(1, min(len(powers), 3)):
        np.matmul(powers[i - 1], powers[0], out=powers[i])
    if s > 3:  # an unscaled polynomial of degree >= 5 takes at least 3 products
        cube_norm = float((dynamics._ones(d) @ np.abs(powers[2])).max(axis=-1).max(initial=0.0, where=ok)) * 8.0 ** s
        unscaled = max(5, dynamics._taylor_degree(max(cube_norm ** (1 / 3), (cube_norm * theta) ** 0.25)))
        if unscaled <= 16 and sum(dynamics._taylor_blocks(unscaled).shape) - 2 < s:
            powers[1:3] *= np.array([4.0, 8.0]).reshape((2,) + (1,) * mats.ndim) ** s
            powers[0] = mats
            s, m = 0, unscaled
    table = dynamics._taylor_blocks(m)
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
        out = out @ (out + dynamics._twice_identity(d))
    return out


def kernel_corpus(rng):
    """Flow-kernel inputs by name: dense stacks at 1-norms 1e-17 to 1e3; ``ad`` of the derived
    algebras of ``upper_triangular6`` and ``nilpotent_upper(5)`` at 26 and 1e6; example 6.1's
    X1 + W1, a derived part and a diagonal of 1e-4; each in 1, 4 and 100 rows; rows of inf,
    -inf, NaN and 1e300 among good rows; and the ``nearly_nilpotent_stacks``, whose smallest
    diagonals go unscaled with X^3 not 0."""
    ut, n5 = upper_triangular6(), nilpotent_upper(5)
    corpus = {f"near-{name}": stack for name, stack in nearly_nilpotent_stacks(rng).items()}
    for rows in (1, 4, 100):
        for norm in (1e-17, 1e-9, 1e-3, 0.3, 0.75, 2.0, 4.5, 26.0, 1e3):
            corpus[f"dense-{rows}-{norm:g}"] = _random_with_norms(rng, [norm] * rows)
        for name, alg in (("uptri", ut), ("n5", n5)):
            onb = derived_algebra(alg).onb
            coords = rng.standard_normal((rows, onb.shape[1])) @ onb.T
            for norm in (26.0, 1e6):
                corpus[f"{name}-derived-{rows}-{norm:g}"] = scaled_ads(alg, coords, norm)
        x1w1 = 5.0 * rng.standard_normal((rows, 3)) @ derived_algebra(ut).onb.T
        x1w1[:, :3] += 1e-4 * rng.standard_normal((rows, 3))
        corpus[f"ex61-{rows}"] = ut.ad_many(x1w1)
    for bad in (np.inf, -np.inf, np.nan, 1e300):
        for name in ("dense-4-26", "uptri-derived-4-1e+06", "ex61-100"):
            mats = np.insert(corpus[name], 2, corpus[name][0], axis=0)
            mats[2, 1, 3] = bad
            corpus[f"{name}-{bad:g}"] = mats
    return corpus


def test_expm1_batch_keeps_the_bits_and_squarings_of_its_reference(monkeypatch):
    degrees, squarings = counted_kernel(monkeypatch)
    unscaled = scaled = 0
    for name, stack in kernel_corpus(np.random.default_rng(18)).items():
        runs = []
        for kernel in (_expm1_batch, reference_expm1_batch):
            del degrees[:]
            squarings[0] = 0
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                runs.append((kernel(stack), list(degrees), squarings[0]))
        (got, got_degrees, got_squarings), (want, want_degrees, want_squarings) = runs
        assert np.array_equal(got, want, equal_nan=True), name
        assert np.array_equal(np.signbit(got), np.signbit(want)), name
        assert (got_degrees, got_squarings) == (want_degrees, want_squarings), name
        if name.startswith(("uptri", "n5")):
            unscaled += got_squarings == 0
        scaled += got_squarings > 0
    # the corpus takes both rules: the derived stacks go unscaled, the large dense ones do not
    assert unscaled >= 12 and scaled >= 12


def test_degree_bounds_are_the_degree_loop_to_16():
    # the power-norm rule reads degrees up to 16, past the scaled rule's 14
    for m, bound in enumerate(dynamics._DEGREE_BOUNDS, start=1):
        assert old_taylor_degree(bound) == m and old_taylor_degree(np.nextafter(bound, 1.0)) == m + 1
        for theta in (np.nextafter(bound, 0.0), bound, np.nextafter(bound, 1.0)):
            assert dynamics._taylor_degree(float(theta)) == old_taylor_degree(float(theta))


def test_eval_multilinearity():
    # the linear part scales linearly, each word by the product of its letters
    alg = heisenberg()
    sys_ = WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(3),
                            terms=[Term(Word((("X", 1), ("W", 1))), np.array([2.0]))])
    rng = np.random.default_rng(3)
    x = rng.standard_normal(3)
    w = rng.standard_normal(3)
    base_word = sys_.evaluate(x, w) - sys_.A @ x
    for c in (0.5, 2.0, -3.0):
        np.testing.assert_allclose(sys_.evaluate(c * x, w) - sys_.A @ (c * x),
                                   c * base_word, atol=1e-12)
        np.testing.assert_allclose(sys_.evaluate(x, c * w) - sys_.A @ x,
                                   c * base_word, atol=1e-12)


def test_zero_dimensional_system():
    # example-4.1 modulo its whole (nilpotent) ideal: quotient dimension 0
    sc = builtin_scenario("example-4.1")
    q = sc.system.quotient_system(0)
    assert q.d == 0 and q.state_dim == 0
    assert q.evaluate(np.zeros(0), np.zeros(0)).shape == (0,)
    assert q.evaluate_batch(np.zeros((4, 0)), np.zeros(0)).shape == (4, 0)
    assert q.evaluate_batch(np.zeros((4, 0)), np.zeros((4, 0))).shape == (4, 0)
    traj = q.simulate(np.zeros(0), projected_signal(sc.signal, sc.system.projections[0].P, 5), 5)
    assert not traj.diverged and traj.states.shape == (6, 0)
    assert np.all(traj.norms == 0.0) and traj.quotient_norms.shape == (6, len(q.projections))
    eq = q.equilibrium_report(starts=5, iters=3)
    assert eq["ok"] and eq["linear_margin"] == np.inf and eq["quotient_linear_margin"] == np.inf
    assert q.invariance_report()["ok"]
    assert q.jacobian_report()["exact"]
    assert sc.system.commuting_square_residual(0, samples=5) == 0.0


def test_expand_family_basic():
    # nilindex 2: the whole series is the one word [W1, X1]
    heis = WordSeriesSystem(heisenberg(), 1, 1, np.zeros((3, 3)))
    terms = heis.expand_family(AdjointFamily(1, 0.5, {"W1": 1.0}, "X1"))
    assert len(terms) == 1
    assert terms[0].word.letters == (("W", 1), ("X", 1))
    np.testing.assert_allclose(terms[0].coeff, [0.5])

    flat = WordSeriesSystem(abelian(3), 1, 1, np.zeros((3, 3)),
                            families=[AdjointFamily(1, 1.0, {"W1": 1.0}, "X1")])
    assert flat.expand_family(flat.families[0]) == []


def test_expand_family_exact_on_nilpotent():
    # expansion at the nilindex agrees with conjugation in the matrix picture
    alg = heisenberg()
    sys_ = WordSeriesSystem(alg, 1, 1, np.zeros((3, 3)),
                            families=[AdjointFamily(1, 1.0, {"W1": 1.0}, "X1")])
    terms = sys_.expand_family(sys_.families[0])
    assert max(t.word.length for t in terms) <= 2  # nilindex 2: length > 2 vanishes
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = rng.standard_normal(3)
        w = rng.standard_normal(3)
        direct = sys_.evaluate(x, w)
        by_terms = sum(t.coeff[0] * _word_value(sys_, t, x, w) for t in terms)
        np.testing.assert_allclose(direct, by_terms, atol=1e-12)
        B = alg.to_matrix(w)
        conj = expm(B) @ alg.to_matrix(x) @ expm(-B)
        flowed = direct + x  # add back the identity part for the comparison
        np.testing.assert_allclose(alg.to_matrix(flowed), conj, atol=1e-10)


def _word_value(sys_, term, x, w):
    Xs = x.reshape(sys_.n, sys_.d)
    Ws = w.reshape(sys_.r, sys_.d)
    vals = [Xs[j - 1] if kind == "X" else Ws[j - 1] for kind, j in term.word.letters]
    return word_chain(sys_.algebra, vals)


def test_expand_family_matches_flow_exactly():
    # nilindex 4: the words up to length 4 are the whole flow, at any point, not only near 0
    alg = nilpotent_upper(5)
    d = alg.dim
    fam = AdjointFamily(2, 0.25, {"X1": 1.0, "W1": 1.0}, "X2")
    only_fam = WordSeriesSystem(alg, 2, 1, np.zeros((2 * d, 2 * d)), families=[fam])
    terms = only_fam.expand_family(fam)
    assert max(t.word.length for t in terms) == 4
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(2 * d)
        w = rng.standard_normal(d)
        direct = only_fam.evaluate(x, w)
        acc = np.zeros((2, d))
        for t in terms:
            acc += np.outer(t.coeff, _word_value(only_fam, t, x, w))
        np.testing.assert_allclose(direct, acc.reshape(-1), rtol=0, atol=1e-12)


def test_expand_family_refuses_non_nilpotent():
    # upper-triangular-6 is solvable, not nilpotent: its family series never ends
    sys61 = ex61_system()
    with pytest.raises(SystemSpecError, match="nilpotent"):
        sys61.expand_family(sys61.families[0])
    with pytest.raises(SystemSpecError):
        sys61.all_terms()


def test_series_majorant():
    sys41 = heisenberg_tracking_system()
    assert sys41.series_majorant(0.0) == 0.0
    assert np.isfinite(sys41.series_majorant(10.0))
    sys61 = ex61_system()
    mu = sys61.mu()
    r = 2.0
    expected_family = sum(abs(f.scale) * r * np.expm1(mu * f.base_weight_l1() * r)
                          for f in sys61.families)
    assert sys61.series_majorant(r) == pytest.approx(expected_family)
    with pytest.raises(ValueError):
        sys61.series_majorant(-1.0)
    # a power or an expm1 past the float range is an infinite majorant, once an OverflowError
    assert sys41.series_majorant(1e308) == np.inf and sys61.series_majorant(1e3) == np.inf
    # a word written into both slots adds |c_1| + |c_2| times its norm to the slot-sum
    # state norm; with ||c||_2 the majorant read 5.94 below the word part's 8.0
    two = WordSeriesSystem(heisenberg(), 2, 1, 0.3 * np.eye(6),
                           terms=[Term(Word((("X", 1), ("W", 1))), np.array([1.0, 1.0]))])
    X = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    W = np.array([0.0, 2.0, 0.0])
    word_part = two.state_norm(two.evaluate(X, W) - two.A @ X)
    assert word_part == 8.0
    majorant = two.series_majorant(2.0)
    assert majorant == pytest.approx(2.0 * two.mu() * 4.0) and majorant >= word_part


def test_simulate_decay_and_zero():
    sc = heisenberg_tracking_system()
    traj = sc.simulate(tracking_state([3.0, 2.0, -1.0]), tracking_signal(1.0), 50)
    e_norm = np.linalg.norm(traj.states[:, :3], axis=1)
    assert e_norm[50] < 1e-6
    zero = sc.simulate(np.zeros(6), tracking_signal(1.0), 20)
    assert np.max(zero.norms) == 0.0


def test_simulate_divergence_flag():
    alg = abelian(2)
    boom = WordSeriesSystem(alg, 1, 1, 2.0 * np.eye(2))
    traj = boom.simulate(np.array([1.0, 0.0]), ExoSignal.zero(1, 2), 500)
    assert traj.diverged
    assert traj.first_bad_index is not None
    assert traj.states.shape[0] == traj.first_bad_index


def reference_signal_value(signal, k):
    """W[k] of one step: the scalar signal read that ``ExoSignal.values`` replaced."""
    if signal.kind == "samples":
        return signal.samples[k % signal.samples.shape[0]]
    with np.errstate(over="ignore", invalid="ignore"):
        return np.float64(signal.ratio) ** k * signal.base


def reference_simulate(sys_, X0, signal, k_max):
    """``simulate`` one ``evaluate`` call and one signal read per step."""
    states = np.zeros((k_max + 1, sys_.state_dim))
    states[0] = np.asarray(X0, dtype=float).reshape(-1)
    first_bad = None
    for k in range(k_max):
        w = reference_signal_value(signal, k)
        finite = np.all(np.isfinite(states[k])) and np.all(np.isfinite(w))
        nxt = sys_.evaluate(states[k], w) if finite else None
        if nxt is None or not np.all(np.isfinite(nxt)) or np.abs(nxt).max(initial=0.0) > 1e100:
            first_bad = k + 1
            states = states[:k + 1]
            break
        states[k + 1] = nxt
    slots = states.reshape(states.shape[0], sys_.n, sys_.d)
    norms = np.linalg.norm(slots, axis=2).sum(axis=1)
    qnorms = np.stack([np.linalg.norm(slots @ ctx.P.T, axis=2).sum(axis=1)
                       for ctx in sys_.projections.contexts], axis=1)
    return states, norms, qnorms, first_bad is not None, first_bad


def trajectory_fields(traj):
    return traj.states, traj.norms, traj.quotient_norms, traj.diverged, traj.first_bad_index


def assert_same_run(got, want):
    for a, b in zip(got[:3], want[:3]):
        assert np.array_equal(a, b, equal_nan=True), (a, b)
    assert got[3:] == want[3:]


def test_simulate_batch_matches_single_runs_and_the_step_loop():
    # X+ = X / 2 + [W1, X1] on the upper-triangular algebra: ad_{t1} has eigenvalue 1
    ut = upper_triangular6()
    sys_ = WordSeriesSystem(ut, 1, 1, 0.5 * np.eye(6),
                            terms=[Term(Word((("W", 1), ("X", 1))), np.array([1.0]))],
                            invariance_ideal=derived_algebra(ut))
    t1 = np.eye(6)[0]
    rng = np.random.default_rng(2)
    runs = [(rng.standard_normal(6), ExoSignal.zero(1, 6)),                         # decays
            (rng.standard_normal(6), ExoSignal("geometric", 1, 6, base=3.0 * t1)),  # 3.5^k, past 1e100
            (np.zeros(6), ExoSignal("geometric", 1, 6, base=t1, ratio=1e100)),     # W[4] = inf
            (np.full(6, np.nan), ExoSignal.zero(1, 6)),
            (rng.standard_normal(6), ExoSignal("samples", 1, 6, samples=0.1 * rng.standard_normal((7, 6))))]
    X0s = np.array([x0 for x0, _ in runs])
    signals = [sig for _, sig in runs]
    for k_max in (0, 1, 4, 250):
        batch = sys_.simulate_batch(X0s, signals, k_max)
        for traj, (x0, sig) in zip(batch, runs):
            assert_same_run(trajectory_fields(traj), trajectory_fields(sys_.simulate(x0, sig, k_max)))
            assert_same_run(trajectory_fields(traj), reference_simulate(sys_, x0, sig, k_max))
    finite, grown, cut, nan, sampled = batch
    assert not finite.diverged and not sampled.diverged and finite.horizon == 250
    assert grown.diverged and 4 < grown.horizon < 250 and np.abs(grown.states).max() <= 1e100
    assert (cut.diverged, cut.first_bad_index, cut.horizon) == (True, 5, 4)
    assert (nan.diverged, nan.first_bad_index, nan.horizon) == (True, 1, 0)
    assert sys_.simulate_batch(np.zeros((0, 6)), [], 5) == []
    with pytest.raises(SystemSpecError):
        sys_.simulate_batch(X0s[:2], signals, 5)
    # with adjoint families the rows of a flow share one scaling of the flow kernel, so a run
    # agrees with its batch of one to rounding, not bit for bit
    fam = ex61_system()
    X0s = np.array([s * EX61_X0 for s in (1e-3, 0.3, 1.0, 2.0)])
    signals = [ex61_signal(80), ExoSignal.zero(2, 6), ex61_signal(80), ex61_signal(3)]
    for traj, x0, sig in zip(fam.simulate_batch(X0s, signals, 80), X0s, signals):
        single = fam.simulate(x0, sig, 80)
        assert (traj.diverged, traj.first_bad_index) == (single.diverged, single.first_bad_index)
        np.testing.assert_allclose(traj.states, single.states, rtol=1e-12, atol=1e-12 * abs(x0).max())
        np.testing.assert_allclose(traj.quotient_norms, single.quotient_norms, rtol=1e-12,
                                   atol=1e-12 * abs(x0).max())


def test_simulate_matches_the_step_loop_on_the_builtins():
    for name in ("example-4.1", "example-6.1", "heisenberg-deadbeat", "uptri-deadbeat"):
        sc = builtin_scenario(name)
        assert_same_run(trajectory_fields(sc.system.simulate(sc.x0, sc.signal, sc.horizon)),
                        reference_simulate(sc.system, sc.x0, sc.signal, sc.horizon))


def test_the_long_trajectory_run_keeps_the_bits_of_the_step_loop(monkeypatch):
    # the benchmark's 2000 steps, most of whose flows take the unscaled power-norm path, against
    # one ``evaluate`` call a step, under the flow kernel and under its reference
    sc = builtin_scenario("example-6.1", horizon=2000)
    got = trajectory_fields(sc.system.simulate(sc.x0, sc.signal, 2000))
    assert not got[3] and got[0].shape == (2001, 12)
    for kernel in (_expm1_batch, reference_expm1_batch):
        monkeypatch.setattr(dynamics, "_expm1_batch", kernel)
        want = reference_simulate(sc.system, sc.x0, sc.signal, 2000)
        assert_same_run(got, want)
        assert np.array_equal(np.signbit(got[0]), np.signbit(want[0]))


def test_exo_signal_kinds():
    sig = ExoSignal("samples", 1, 2, samples=np.array([[1.0, 0.0], [0.0, 2.0]]))
    np.testing.assert_allclose(sig.values(6)[[0, 5]], [[1.0, 0.0], [0.0, 2.0]])  # wraps around
    beta, s = sig.envelope()
    assert (beta, s) == (2.0, 1.0)
    geo = ExoSignal("geometric", 1, 2, base=[3.0, 4.0], ratio=2.0)
    np.testing.assert_allclose(geo.values(4)[3], [24.0, 32.0])
    # the same floats as one read per step, past the float range (inf, and inf * 0 = nan) too
    for signal in (sig, geo, ExoSignal.zero(2, 3), ExoSignal("geometric", 1, 2, base=[0.0, 1.0], ratio=1.37),
                   ExoSignal("geometric", 1, 2, base=[1.0, 2.0], ratio=0.0)):
        want = np.array([reference_signal_value(signal, k) for k in range(2300)])
        assert np.array_equal(signal.values(2300), want, equal_nan=True)
        assert signal.values(0).shape == (0, signal.r * signal.d)
    assert geo.envelope() == (5.0, 2.0)
    assert ExoSignal.zero(2, 3).envelope() == (0.0, 1.0)


def reference_ex61_samples(horizon):
    """Example 6.1's driving pair one step at a time, in scalar arithmetic."""
    w0 = np.array([0.0, 0.0, 0.0, 1.0, 7.0, 6.0])
    samples = np.zeros((horizon + 1, 12))
    samples[0, 0:6] = w0
    samples[0, 6:12] = w0
    for k in range(horizon):
        c1 = 2.0 * (1.0 - k * 1.1 ** (-0.5 * k)) * np.sin(10.0 * k)
        c2 = (2.0 - k ** 2 * 1.1 ** (-2.0 * k)) * np.cos(20.0 * k)
        samples[k + 1, 0:6] = c1 * w0
        samples[k + 1, 6:12] = c2 * w0
    return samples


@pytest.mark.parametrize("horizon", [0, 1, 200, 2000])
def test_ex61_signal_has_the_bits_of_the_step_loop(horizon):
    got, want = ex61_signal(horizon).samples, reference_ex61_samples(horizon)
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_invariance_report():
    for sys_ in (heisenberg_tracking_system(), ex61_system()):
        rep = sys_.invariance_report()
        assert rep["ok"], rep
    alg = heisenberg()
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    bad = WordSeriesSystem(alg, 1, 1, rot)
    rep = bad.invariance_report()
    assert not rep["ok"] and rep["state_letters"] and rep["kind"] == "proof"
    assert rep["levels"][1]["linear_residual"] > 0.1 > rep["bound"]
    # [W1, W2] lies in the centre of Heisenberg, but the proof needs a state letter in every word
    inputs_only = WordSeriesSystem(alg, 1, 2, 0.5 * np.eye(3),
                                   terms=[Term(Word((("W", 1), ("W", 2))), np.array([1.0]))])
    rep = inputs_only.invariance_report()
    assert not rep["ok"] and not rep["state_letters"]
    assert all(lv["linear_residual"] <= rep["bound"] for lv in rep["levels"])


def test_invariance_report_draws_and_evaluates_nothing(monkeypatch):
    sys_ = ex61_system()

    def refuse(*args, **kwargs):
        raise AssertionError("invariance_report drew a sample or stepped the map")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    monkeypatch.setattr(sys_, "_update", refuse)
    assert sys_.invariance_report()["ok"]


def test_dynamic_invariance_along_chain():
    # states launched inside a chain ideal stay there for 50 steps
    sys_ = ex61_system()
    rng = np.random.default_rng(6)
    for idx, sub in enumerate(sys_.chain.ideals):
        if sub.dim == 0:
            continue
        B = np.kron(np.eye(sys_.n), sub.onb)
        x0 = B @ rng.standard_normal(B.shape[1])
        traj = sys_.simulate(x0, ex61_signal(50), 50)
        for state in traj.states:
            off = state - B @ (B.T @ state)
            assert np.linalg.norm(off) < 1e-8


def test_equilibrium_report():
    rep = heisenberg_tracking_system().equilibrium_report(starts=40, iters=150)
    assert rep["ok"]
    assert rep["structural_ok"]
    assert rep["linear_margin"] > 0.4
    # a term with no state letters is rejected structurally
    alg = heisenberg()
    bad = WordSeriesSystem(alg, 1, 2, 0.5 * np.eye(3),
                           terms=[Term(Word((("W", 1), ("W", 2))), np.array([1.0]))])
    assert not bad.structural_state_letter_ok()
    assert not bad.equilibrium_report(starts=5, iters=10)["ok"]
    # input-targeted family with input letters in the base is rejected too
    fam_bad = WordSeriesSystem(alg, 1, 2, 0.5 * np.eye(3),
                               families=[AdjointFamily(1, 1.0, {"W1": 1.0}, "W2")])
    assert not fam_bad.structural_state_letter_ok()
    # linear map with a fixed-point subspace: its graded block has eigenvalue 1, so no proof, and
    # the search catches it
    loop = WordSeriesSystem(abelian(2), 1, 1, np.diag([1.0, 0.4]))
    rep = loop.equilibrium_report(starts=30, iters=200)
    assert rep["kind"] == "search"
    assert rep["violations"]
    assert not rep["ok"]


def test_jacobian_report():
    # a word has two letters or more, so the complex step meets A's product alone at the origin
    for sys_ in (heisenberg_tracking_system(), ex61_system(),
                 WordSeriesSystem(abelian(3), 1, 1, np.diag([0.5, 0.2, 0.1]))):
        bound = sys_.state_dim * (2.0 ** -53 * np.linalg.norm(sys_.A) + 2.0 ** -975)
        assert sys_.jacobian_report() == {"ok": True, "exact": True, "observed_order": None,
                                          "state_error": 0.0, "input_error": 0.0, "bound": bound}
    # h A underflows to 0 below 2^-922, within the bound's 2^-975 an entry
    tiny = WordSeriesSystem(abelian(3), 1, 1, np.diag([5e-301, 2e-301, 1e-301]))
    rep = tiny.jacobian_report()
    assert rep["ok"] and rep["state_error"] == np.linalg.norm(tiny.A) and rep["input_error"] == 0.0


def central_jacobian(sys_, W, h=1e-6):
    """(J_X, J_W) at (0, W) by central differences, one ``evaluate`` per probe."""
    nd, rd = sys_.state_dim, sys_.r * sys_.d
    cols = [(sys_.evaluate(h * e[:nd], W + h * e[nd:]) - sys_.evaluate(-h * e[:nd], W - h * e[nd:])) / (2 * h)
            for e in np.eye(nd + rd)]
    J = np.array(cols).T
    return J[:, :nd], J[:, nd:]


@pytest.mark.parametrize("name", FIVE_SYSTEMS)
def test_linearization_at_an_input_matches_central_differences(name):
    # the random input of the seed-3 equilibrium search, where the map is not linear in X
    sys_ = five_system(name)
    W = 0.5 * np.random.default_rng(3).standard_normal(sys_.r * sys_.d)
    for got, ref in zip(sys_.linearization(W), central_jacobian(sys_, W)):
        assert got.dtype == np.float64 and got.shape == ref.shape
        assert np.linalg.norm(got - ref) <= 1e-7 * np.linalg.norm(ref)
    with pytest.raises(SystemSpecError):
        sys_.linearization(W[:1])


@pytest.mark.parametrize("name", FIVE_SYSTEMS)
def test_linearization_does_not_depend_on_its_chunks(monkeypatch, name):
    # one _update call by default; one row a call, each flow stack choosing its own scaling
    sys_ = five_system(name)
    W = 0.5 * np.random.default_rng(3).standard_normal(sys_.r * sys_.d)
    whole = np.hstack(sys_.linearization(W))
    monkeypatch.setattr(dynamics, "LINEARIZATION_ENTRIES", sys_.d * max(sys_.d, sys_.n + sys_.r))
    assert np.linalg.norm(np.hstack(sys_.linearization(W)) - whole) <= 1e-12 * np.linalg.norm(whole)


@pytest.mark.parametrize("case", [*sorted(BUILTINS), *(f"sweep-m{m}" for m in range(4, 11))])
def test_ad_many_of_every_linearization_step_is_the_complex_gemm(monkeypatch, case):
    # one real GEMM per non-zero part forms the complex GEMM's products: at the origin every
    # entry has one non-zero term and keeps its bits, at the seed-3 input the sums agree to rounding
    sys_ = bench_sweep_case(int(case[7:]))[0] if case.startswith("sweep") else builtin_scenario(case).system
    alg, stacks = sys_.algebra, []
    ad_many = alg.ad_many
    monkeypatch.setattr(alg, "ad_many", lambda X: (stacks.append(X), ad_many(X))[1])
    for W in (np.zeros(sys_.r * sys_.d), 0.5 * np.random.default_rng(3).standard_normal(sys_.r * sys_.d)):
        stacks.clear()
        sys_.linearization(W)
        assert stacks and all(X.dtype == complex for X in stacks)
        for X in stacks:
            got, ref = ad_many(X), complex_gemm_ad(alg, X)
            assert got.shape == ref.shape and got.strides == ref.strides
            if W.any():
                assert np.linalg.norm(got - ref) <= 4 * 2.0 ** -52 * np.linalg.norm(ref)
            else:
                assert got.tobytes() == ref.tobytes()


def test_linearization_memory_is_bounded(monkeypatch):
    # d = 45 and r = 20: 945 axes, which one call took at once, holding about 120 MB at the origin
    alg = nilpotent_upper(10)
    sys_ = WordSeriesSystem(alg, 1, 20, 0.5 * np.eye(alg.dim),
                            terms=[Term(Word((("X", 1), ("W", 1))), np.array([0.1]))],
                            families=[AdjointFamily(1, 0.2, {"X1": 1.0, "W1": 1.0}, "X1")])
    rows, update = [], sys_._update
    monkeypatch.setattr(sys_, "_update", lambda X, W: (rows.append(len(X)), update(X, W))[1])
    # at the seed-3 input, where the flows are not tiny, calls of 129 rows held 59 MB
    for W in (np.zeros(sys_.r * sys_.d), 0.5 * np.random.default_rng(3).standard_normal(sys_.r * sys_.d)):
        rows.clear()
        tracemalloc.start()
        try:
            J_X, J_W = sys_.linearization(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2^18 // (45 (2 + 12) 45) rows a call: a base's ad and flow and the kernel's 12 stacks
        assert peak < 32e6 and rows == [9] * 105
        if not W.any():  # at the origin, (A, 0) as one call gives
            assert np.array_equal(J_X, sys_.A) and not J_W.any()


def test_quotient_system_levels():
    sys61 = ex61_system()
    q0 = sys61.quotient_system(0)
    rng = np.random.default_rng(7)
    for _ in range(30):
        x = rng.standard_normal(q0.state_dim)
        w = rng.standard_normal(q0.r * q0.d)
        np.testing.assert_allclose(q0.evaluate(x, w), q0.A @ x, atol=1e-12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvals(q0.A).real),
                               [-0.75] * 3 + [0.5] * 3, atol=1e-12)
    # factoring out the zero ideal reproduces the system exactly
    sys41 = heisenberg_tracking_system()
    top = sys41.quotient_system(len(sys41.chain.ideals) - 1)
    np.testing.assert_allclose(top.A, sys41.A, atol=1e-14)
    x = rng.standard_normal(6)
    w = rng.standard_normal(3)
    np.testing.assert_allclose(top.evaluate(x, w), sys41.evaluate(x, w), atol=1e-12)
    # mid level of the tracking system: brackets vanish, rotation-scaling block
    q1 = sys41.quotient_system(1)
    for _ in range(20):
        x = rng.standard_normal(q1.state_dim)
        w = rng.standard_normal(q1.r * q1.d)
        np.testing.assert_allclose(q1.evaluate(x, w), q1.A @ x, atol=1e-13)
    np.testing.assert_allclose(q1.A[:2, :2], [[0.25, 0.25], [-0.25, 0.25]], atol=1e-12)


def test_commuting_squares_all_levels():
    for sys_ in (heisenberg_tracking_system(), ex61_system()):
        for level in range(len(sys_.projections)):
            assert sys_.commuting_square_residual(level, samples=100, seed=11) < 1e-9


def test_quotient_simulation_matches_projection():
    sys61 = ex61_system()
    sig = ex61_signal(40)
    traj = sys61.simulate(EX61_X0, sig, 40)
    for level in (0, 1, 2):
        ctx = sys61.projections[level]
        qsys = sys61.quotient_system(level)
        qsig = projected_signal(sig, ctx.P, 40)
        lift = np.kron(np.eye(sys61.n), ctx.P)
        qtraj = qsys.simulate(lift @ EX61_X0, qsig, 40)
        np.testing.assert_allclose(qtraj.states, traj.states @ lift.T, atol=1e-8)
        # per-row, per-level loop as the reference for the vectorized norms
        ref = [np.linalg.norm((lift @ x).reshape(sys61.n, -1), axis=1).sum() for x in traj.states]
        np.testing.assert_allclose(traj.quotient_norms[:, level], ref, rtol=1e-14)
    np.testing.assert_allclose(traj.norms, [sys61.state_norm(x) for x in traj.states], rtol=1e-14)


def test_slotwise_matches_kron_lifts():
    sys61 = ex61_system()
    n, d = sys61.n, sys61.d
    rng = np.random.default_rng(9)
    X = rng.standard_normal((3, 4, n * d))
    for level in range(len(sys61.projections)):
        ctx = sys61.projections[level]
        lift_p, lift_i = np.kron(np.eye(n), ctx.P), np.kron(np.eye(n), ctx.P.T)
        np.testing.assert_allclose(_slotwise(ctx.P, X, n), X @ lift_p.T, atol=1e-14)
        np.testing.assert_allclose(induced_map(ctx, sys61.A), lift_p @ sys61.A @ lift_i,
                                   atol=1e-14)
    # every level's induced map and invariance residual, read off the flag-coordinate A: the map
    # bit for bit the two slot-wise P products, the residual ||(I - B B^T) A B||_F with B built by kron
    rot = WordSeriesSystem(heisenberg(), 2, 1, 0.5 * np.kron(np.eye(2), [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                                                         [-1.0, 0.0, 0.0]]))
    systems = [builtin_scenario(name).system for name in sorted(BUILTINS)]
    systems += [bench_sweep_case(m)[0] for m in range(4, 13)]
    for sys_ in systems + [rot]:  # rot moves the centre of the Heisenberg algebra off itself
        n, A = sys_.n, sys_.A
        for ctx in sys_.projections.contexts:
            Abar, resid = level_block(sys_.A_flag, ctx.quotient_dim)
            assert np.array_equal(Abar, _slotwise(ctx.P, _slotwise(ctx.P, A, n).T, n).T), (sys_.name, sys_.d)
            B = np.kron(np.eye(n), ctx.ideal.onb)
            img = A @ B
            assert resid == pytest.approx(np.linalg.norm(img - B @ (B.T @ img)),
                                          rel=0, abs=1e-14 * max(1.0, np.linalg.norm(A)))
    resid = level_block(rot.A_flag, rot.projections[1].quotient_dim)[1]
    with pytest.raises(InvarianceViolation):
        induced_map(rot.projections[1], rot.A)
    bound = invariance_bound(rot.projections.flag, rot.A)
    reason = f"A does not preserve chain level 2 (residual {resid:.3e}, bound {bound:.3e})"
    with pytest.raises(HypothesisError, match=rf"^{re.escape(reason)}$"):
        certify_nilpotent(rot, ExoSignal.zero(1, 3), M=1.0)


def test_invariance_violation_blocks_quotient():
    alg = heisenberg()
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    bad = WordSeriesSystem(alg, 1, 1, rot)
    with pytest.raises(InvarianceViolation) as exc:
        bad.quotient_system(1)  # modulo h_2: A moves h_2 off itself
    assert str(exc.value) == bad.invariance_refusal() == \
        "A does not preserve chain level 2 (residual 1.000e+00, bound 0.000e+00)"


def test_a_level_outside_the_chain_is_refused():
    # a negative level once wrapped round: quotient_system(-1) built the level-p system, named
    # ".../level-1", commuting_square_residual(-1) returned 0.0, and forcing_norms at level 0 or -1 zeros
    sc = builtin_scenario("example-4.1")
    sys_, p = sc.system, len(sc.system.projections) - 1
    states = sys_.simulate(sc.x0, sc.signal, 5).states
    letters = list(np.random.default_rng(0).standard_normal((3, sys_.d)))
    for level in (-1, p + 1):
        for call in (sys_.quotient_system, sys_.commuting_square_residual):
            with pytest.raises(ValueError, match=rf"^level must be in 0\.\.{p}, got {level}$"):
                call(level)
    for level in (-1, 0, p + 1):
        for call in (lambda: forcing_norms(sys_, states, sc.signal, level),
                     lambda: layered_word_residual(sys_.projections, letters, level),
                     lambda: collapse_identity_residual(sys_.projections, level)):
            with pytest.raises(ValueError, match=rf"^level must be in 1\.\.{p}, got {level}$"):
                call()
    assert sys_.quotient_system(p).name.endswith(f"/level{p}")  # the top level itself is valid


def test_family_base_refuses_a_repeated_letter():
    # two spellings of one letter once merged silently, the last weight winning
    for base, letter in (({"X1": 1.0, "X01": 2.0}, "X1"), ({("W", 2): 1.0, "W2": -1.0}, "W2")):
        with pytest.raises(SystemSpecError, match=f"family base repeats letter {letter}$"):
            AdjointFamily(1, 1.0, base, "X1")
    assert AdjointFamily(1, 1.0, {"X1": 1.0, "X2": 2.0}, "X1").base == {("X", 1): 1.0, ("X", 2): 2.0}


def test_system_spec_validation():
    alg = heisenberg()
    with pytest.raises(SystemSpecError):
        WordSeriesSystem(alg, 1, 1, np.eye(4))  # wrong A size
    with pytest.raises(SystemSpecError):
        WordSeriesSystem(alg, 1, 1, np.eye(3),
                         terms=[Term(Word((("X", 2), ("W", 1))), np.array([1.0]))])
    with pytest.raises(SystemSpecError):
        WordSeriesSystem(alg, 1, 1, np.eye(3), invariance_ideal=alg.span_labels(["h1"]))
    ut = upper_triangular6()
    with pytest.raises(SystemSpecError):
        # ideal must contain the derived algebra
        WordSeriesSystem(ut, 1, 1, np.eye(6), invariance_ideal=ut.span_labels(["t6"]))


@pytest.mark.parametrize("name", FIVE_SYSTEMS)
def test_update_keeps_every_chain_level(name):
    # what invariance_report proves from the words and A, checked on the map itself: from 20
    # random states of a level, under random inputs, a step stays in the level up to rounding
    sys_ = five_system(name)
    for seed in (0, 3):
        rng = np.random.default_rng(seed)
        for ctx in sys_.projections.contexts:
            sub = ctx.ideal
            if sub.dim == 0:
                continue
            X = _slotwise(sub.onb, rng.standard_normal((20, sys_.n * sub.dim)), sys_.n)
            Y = sys_.evaluate_batch(X, rng.standard_normal((20, sys_.r * sys_.d)))
            off = np.linalg.norm(_slotwise(ctx.P, Y, sys_.n), axis=1)  # ||P y||: y's part off the level
            assert np.all(off <= 1e-9 * np.maximum(1.0, np.linalg.norm(Y, axis=1))), (seed, sub.dim)


@pytest.mark.parametrize("name", FIVE_SYSTEMS)
def test_batched_reports_match_per_probe_loops(name):
    sys_ = five_system(name)
    for seed in (0, 3):
        # a commuting-square residual is rounding noise (up to ~1e-13 on example-6.1),
        # and its last digits follow the flow kernel's scaling, which a batch shares
        for level in range(len(sys_.projections)):
            got = sys_.commuting_square_residual(level, seed=seed)
            assert got == pytest.approx(reference_commuting_square_residual(sys_, level, seed=seed),
                                        rel=1e-12, abs=1e-13)


def partly_diverging_system():
    """Under a random input, some starts of radius 10 blow up: e^{ad X1} W1 grows with X1."""
    ut = upper_triangular6()
    return WordSeriesSystem(ut, 1, 1, 0.5 * np.eye(6),
                            families=[AdjointFamily(1, 1.0, {"X1": 1.0}, "W1")],
                            invariance_ideal=derived_algebra(ut), radius=10.0)


EQUILIBRIUM_CASES = {
    "loop": lambda: WordSeriesSystem(abelian(2), 1, 1, np.diag([1.0, 0.4])),  # fixed-point axis
    "partly-diverging": partly_diverging_system,
    "all-diverging": lambda: WordSeriesSystem(abelian(3), 1, 1, np.diag([3.0, 0.4, 0.4])),
} | {name: (lambda name=name: builtin_scenario(name).system)
     for name in ("example-4.1", "example-6.1", "heisenberg-deadbeat", "uptri-deadbeat")}


def counted_batches(sys_) -> list:
    """Wrap ``sys_.evaluate_batch`` on the instance; the list collects each call's row count."""
    rows, batch = [], sys_.evaluate_batch
    sys_.evaluate_batch = lambda X, W: (rows.append(len(X)), batch(X, W))[1]
    return rows


# g's own lower central series and no graded block of A with eigenvalue 1: the report is a proof
PROVED_CASES = {"all-diverging", "example-4.1", "heisenberg-deadbeat"}


@pytest.mark.parametrize("name", sorted(EQUILIBRIUM_CASES))
def test_equilibrium_search_matches_the_masked_loop(name):
    for seed in (0, 3):
        sys_ = EQUILIBRIUM_CASES[name]()
        ref = reference_equilibrium_report(EQUILIBRIUM_CASES[name](), seed=seed)
        report = sys_.equilibrium_report(seed=seed)
        if name in PROVED_CASES:
            assert report["kind"] == "proof" and report["ok"] and "violations" not in report
            assert {k: report[k] for k in ("structural_ok", "linear_margin", "quotient_linear_margin")} \
                == {k: ref[k] for k in ("structural_ok", "linear_margin", "quotient_linear_margin")}
        else:
            assert report == ref
        rows = counted_batches(sys_)
        got = sys_.equilibrium_search(seed=seed)  # the fallback alone, on every case
        assert got == {k: ref[k] for k in ("violations", "surviving_starts")}
        assert bool(got["violations"]) == (name == "loop")
        # at seed 0 the cases exercise what they are named for: violations, dropped
        # starts, the early stop; at seed 3 every start of example-6.1, uptri-deadbeat
        # and partly-diverging blows up under the random input, which also stops early
        if name == "partly-diverging" and seed == 0:
            assert len(rows) == 600 and 0 < rows[-1] < 100
        elif name == "all-diverging":
            assert len(rows) < 600 and rows[-1] > 0
        elif seed == 0:
            assert rows == [100] * 600


def flag_triangular_system(sys_, rng, scale):
    """``sys_`` with a random A that keeps every chain level: drawn in the chain's flag
    coordinates, entries N(0, scale^2 / (n d)) on and below the graded blocks and zeros above
    them, then written back in the system's basis."""
    n, d = sys_.n, sys_.d
    q = [ctx.quotient_dim for ctx in sys_.projections.contexts]
    piece = np.searchsorted(q, np.arange(d), side="right")  # the graded level of each flag coordinate
    F = scale / np.sqrt(n * d) * rng.standard_normal((n, d, n, d))
    F *= (piece[:, None] >= piece[None, :])[None, :, None, :]  # h_j's coordinates map into h_j
    flag = sys_.projections.flag
    A = np.einsum("ka,skul,lb->saub", flag, F, flag).reshape(n * d, n * d)
    return WordSeriesSystem(sys_.algebra, n, sys_.r, A, sys_.terms, sys_.families, invariance_ideal=sys_.ideal,
                            radius=sys_.radius)


def own_series_systems(rng):
    """Systems on g's own lower central series: the benchmark's sweep at m = 4 to 10, the two
    own-series builtins, and random flag-triangular A on them, on exact and on rotated flags."""
    heis = rotated(heisenberg(), rng)
    rotated_heis = WordSeriesSystem(heis, 2, 1, 0.5 * np.eye(6),
                                    terms=[Term(Word((("X", 1), ("W", 1))), np.array([0.25, -0.1])),
                                           Term(Word((("X", 2), ("X", 1), ("W", 1))), np.array([0.0, 0.2]))])
    bases = [builtin_scenario("example-4.1").system, heisenberg_deadbeat_system(), sweep_system(4),
             sweep_system(5), rotated_heis]
    return ([bench_sweep_case(m)[0] for m in range(4, 11)] + bases[:2]
            + [flag_triangular_system(base, rng, scale) for base in bases for scale in (0.5, 2.0)])


def test_where_the_proof_holds_the_search_finds_no_fixed_point():
    # the search stays reachable as the fallback; where the proof holds it must agree, at every
    # seed, on contracting maps whose starts settle at the origin and on growing ones
    for sys_ in own_series_systems(np.random.default_rng(41)):
        rows = counted_batches(sys_)
        rep = sys_.equilibrium_report()
        assert rep["kind"] == "proof" and rep["inputs"] == "all" and rep["ok"] and rows == []
        assert rep["linear_margin"] > rep["bound"]
        for seed in range(4):
            assert sys_.equilibrium_search(seed=seed)["violations"] == []


def test_proof_margin_bounds_every_graded_block_on_exact_flags():
    # a permutation flag copies A's entries: D_i is A on the axes of h_i / h_{i+1}, slot by slot, the
    # blocks above them are exact zeros, and sigma_min(I - A) is at most every sigma_min(I - D_i)
    checked = 0
    for sys_ in own_series_systems(np.random.default_rng(43)):
        flag = sys_.projections.flag
        if not (np.isin(flag, (0.0, 1.0)).all() and (flag.sum(axis=0) == 1).all()):
            continue  # a rotated flag
        axes = flag.argmax(axis=1)  # flag coordinate k is axis axes[k]
        n, d = sys_.n, sys_.d
        A4 = sys_.A.reshape(n, d, n, d)
        q = [ctx.quotient_dim for ctx in sys_.projections.contexts]
        rep = sys_.equilibrium_report()
        assert rep["kind"] == "proof" and rep["linear_margin"] == _min_singular(np.eye(n * d) - sys_.A)
        for a, b in zip(q[:-1], q[1:]):
            m = n * (b - a)
            assert not A4[:, axes[:a]][:, :, :, axes[a:b]].any()  # h_i / h_{i+1} into earlier levels
            D = A4[:, axes[a:b]][:, :, :, axes[a:b]].reshape(m, m)
            assert rep["linear_margin"] <= _min_singular(np.eye(m) - D) + rep["bound"]
        checked += 1
    assert checked == 17  # all but the two rotated Heisenberg systems


def test_every_workload_keeps_its_chain_exactly():
    # the builtins and the benchmark's sweep sit on axis-aligned chains: a permutation flag, whose
    # invariance bound is 0, and level residuals of exactly 0, so the rule is exact wherever it is timed
    systems = [builtin_scenario(name).system for name in sorted(BUILTINS)]
    systems += [bench_sweep_case(m)[0] for m in range(4, 15)]
    for sys_ in systems:
        flag = sys_.projections.flag
        assert np.isin(flag, (0.0, 1.0)).all() and (flag.sum(axis=0) == 1).all(), sys_.name
        assert [resid for _, resid in sys_.level_blocks] == [0.0] * len(sys_.level_blocks), sys_.name
        assert invariance_bound(flag, sys_.A) == 0.0 and sys_.invariance_refusal() is None


def test_rotated_chains_pass_and_every_quotient_builds():
    # an A that keeps a rotated chain exactly, rounded once into the user's basis, is within the
    # flag's rounding bound, and so is every quotient system's A; each level's quotient builds as on
    # the axis-aligned algebra.  Once the level whose quotient is abelian raised "invariance ideal must
    # be nilpotent": its constants were rounding noise, in which a floor scaled by the quotient's own
    # norm read a rank, and a solvable system's quotient modulo its ideal read one in the projected ideal
    rng = np.random.default_rng(47)
    for alg in (heisenberg(), nilpotent_upper(4), nilpotent_upper(6), upper_triangular6()):
        for trial in range(3):
            rot, n = rotated(alg, rng), 1 + trial % 2
            ideals = [None, None] if is_nilpotent(alg)[0] else [derived_algebra(rot), derived_algebra(alg)]
            zero = np.zeros((n * alg.dim,) * 2)
            base = WordSeriesSystem(rot, n, 1, zero, invariance_ideal=ideals[0])
            sys_ = flag_triangular_system(base, rng, 0.5)
            plain = WordSeriesSystem(alg, n, 1, zero, invariance_ideal=ideals[1])
            assert invariance_bound(sys_.projections.flag, sys_.A) > 0.0 and sys_.invariance_refusal() is None
            for level in range(len(sys_.projections)):
                qsys, ref = sys_.quotient_system(level), plain.quotient_system(level)
                assert (qsys.d, qsys.ideal.dim, qsys.nilindex) == (ref.d, ref.ideal.dim, ref.nilindex), alg.name
                assert qsys.invariance_refusal() is None, (alg.name, level)
                if qsys.d and not ref.algebra.C.any():  # abelian: [q, q] = 0
                    assert not qsys.algebra.C.any() and is_nilpotent(qsys.algebra) == (True, 1)


def test_a_level_residual_refuses_the_chain_and_the_proof():
    # Heisenberg without words, A = [[0.5, 0, eps], [0, 0.5, 0], [c, 0, 1 - delta]]: A moves h_2 =
    # span(h3) off itself by eps = 1e-7, once within the invariance tolerance (5e-7), and the graded
    # blocks 0.5 I and 1 - delta have margins 0.5 and 1e-3; yet c = delta / (2 eps) makes (2 eps, 0, 1)
    # a fixed point.  The flag is exact, so the bound is 0: the chain fails, and the report searches and
    # finds the fixed points
    eps, delta = 1e-7, 1e-3
    reason = "A does not preserve chain level 2 (residual 1.000e-07, bound 0.000e+00)"
    A = np.array([[0.5, 0.0, eps], [0.0, 0.5, 0.0], [delta / (2 * eps), 0.0, 1.0 - delta]])
    sys_ = WordSeriesSystem(heisenberg(), 1, 1, A)
    assert sys_.invariance_refusal() == reason and not sys_.invariance_report()["ok"]
    rep = sys_.equilibrium_report()
    assert rep["kind"] == "search" and not rep["ok"] and rep["violations"]
    # with 1/2 in place of 1 - delta, I - A is invertible (margin 5e-5); but the word [X1, W1] feeds
    # the residual back: under the input -(1/2 - 2 eps c) / (2 eps) h2, far outside the search's
    # draws, (2 eps, 0, 1) is again a fixed point, so neither a proof nor a certificate may be issued
    c = delta / (2 * eps)
    sys_ = WordSeriesSystem(heisenberg(), 1, 1, np.array([[0.5, 0.0, eps], [0.0, 0.5, 0.0], [c, 0.0, 0.5]]),
                            terms=[Term(Word((("X", 1), ("W", 1))), np.array([1.0]))])
    X, W = np.array([2 * eps, 0.0, 1.0]), np.array([0.0, -(0.5 - 2 * eps * c) / (2 * eps), 0.0])
    assert np.array_equal(sys_.evaluate_batch(X[None], W)[0], X)
    rep = sys_.equilibrium_report()
    assert sys_.invariance_refusal() == reason and rep["linear_margin"] > 1e-5
    assert rep["kind"] == "search"
    with pytest.raises(HypothesisError, match=rf"^{re.escape(reason)}$"):
        certify_nilpotent(sys_, ExoSignal("samples", 1, 3, samples=W[None]), M=2.0)
    # a residual of 1e-170 squares to 0, and its norm with it: the largest entry stands in
    A = 0.5 * np.eye(3)
    A[0, 2] = 1e-170
    assert WordSeriesSystem(heisenberg(), 1, 1, A).invariance_refusal() == \
        "A does not preserve chain level 2 (residual 1.000e-170, bound 0.000e+00)"


def test_a_graded_eigenvalue_one_falls_back_to_the_search():
    # A = I on Heisenberg without words (every state a fixed point, the CLI's case) and the loop's
    # fixed-point axis: a graded block with eigenvalue 1 has margin 0, so the report is the search,
    # and it finds the fixed points
    identity = WordSeriesSystem(heisenberg(), 1, 1, np.eye(3))
    for sys_ in (identity, EQUILIBRIUM_CASES["loop"]()):
        rows = counted_batches(sys_)
        rep = sys_.equilibrium_report()
        assert rep["kind"] == "search" and not rep["ok"] and len(rep["violations"]) == 200
        assert rows == [100] * 600


def test_update_takes_one_ad_per_leading_letter(monkeypatch):
    # sweep: [X1, W1], [X1, [X1, W1]]; uptri-deadbeat: [X1, W1], [W1, [W1, X1]], [X1, [W1, X1]]
    for sys_, leading in ((sweep_system(6), 1), (builtin_scenario("uptri-deadbeat").system, 2)):
        calls = []
        real = sys_.algebra.ad_many
        monkeypatch.setattr(sys_.algebra, "ad_many", lambda X, real=real: calls.append(1) or real(X))
        sys_.evaluate_batch(np.ones((5, sys_.state_dim)), np.ones(sys_.r * sys_.d))
        sys_.evaluate(np.ones(sys_.state_dim), np.ones(sys_.r * sys_.d))
        assert len(calls) == 2 * leading


def test_input_flow_memo_and_shared_products_are_exact():
    sys61 = ex61_system()
    # two families share the (base, target) pair (X2, X1) and so one product per call
    pairs = [(tuple(f.base.items()), f.target) for f in sys61.families]
    assert len(pairs) - len(set(pairs)) == 1
    rng = np.random.default_rng(11)
    X = rng.standard_normal((7, sys61.state_dim))
    w1, w2 = rng.standard_normal((2, sys61.r * sys61.d))
    zero = np.zeros(sys61.r * sys61.d)
    for w in (w1, w2, zero, -zero, w1, w1.copy(), w2):
        got = sys61.evaluate_batch(X, w)
        np.testing.assert_array_equal(got, ex61_system().evaluate_batch(X, w))
        np.testing.assert_array_equal(got, reference_update(sys61, X, w))
        # a scalar step and a stacked input in between leave the next shared input exact
        np.testing.assert_array_equal(sys61.evaluate(X[0], w2), reference_update(sys61, X[:1], w2)[0])
        W = rng.standard_normal((7, sys61.r * sys61.d))
        np.testing.assert_array_equal(sys61.evaluate_batch(X, W), reference_update(sys61, X, W))
    # terms evaluated once per shared suffix, with one ad per leading letter, keep every bit
    # (sign of zero included) of one chain per word, under a shared and a stacked input
    alg = nilpotent_upper(5)
    shared_suffixes = WordSeriesSystem(alg, 2, 1, 0.5 * np.eye(2 * alg.dim), terms=[
        Term(Word((("X", 1), ("X", 2), ("X", 1), ("W", 1))), np.array([0.3, -0.1])),
        Term(Word((("X", 2), ("X", 1), ("W", 1))), np.array([0.0, 0.2])),
        Term(Word((("X", 1), ("W", 1))), np.array([-0.5, 0.4]))])
    systems = [builtin_scenario(name).system
               for name in ("example-4.1", "heisenberg-deadbeat", "uptri-deadbeat")]
    for sys_ in systems + [sweep_system(m) for m in range(4, 9)] + [shared_suffixes]:
        X = rng.standard_normal((7, sys_.state_dim))
        X[0] = 0.0
        for W in (rng.standard_normal(sys_.r * sys_.d), rng.standard_normal((7, sys_.r * sys_.d)),
                  -np.zeros(sys_.r * sys_.d)):
            got, ref = sys_.evaluate_batch(X, W), reference_update(sys_, X, W)
            assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))


def unread_input_system():
    """Families and a term over W1 and W2 of three input slots: nothing reads W3."""
    alg = upper_triangular6()
    return WordSeriesSystem(alg, 2, 3, 0.1 * np.eye(12), terms=[
        Term(Word((("X", 1), ("W", 1))), np.array([0.2, -0.1]))], families=[
        AdjointFamily(1, 0.5, {"W1": 1.0}, "X1"),
        AdjointFamily(2, -0.3, {"X2": 1.0, "W2": 0.5}, "X1"),
        AdjointFamily(1, 0.2, {"X1": 1.0}, "W2"),
    ], invariance_ideal=derived_algebra(alg))


def test_a_letter_no_base_reads_stays_out_of_the_map():
    # the bases are gathered from the letters they name, so a non-finite input slot that
    # nothing reads reaches no row
    sys_ = unread_input_system()
    rng = np.random.default_rng(12)
    X = rng.standard_normal((6, sys_.state_dim))
    W = rng.standard_normal((6, sys_.r * sys_.d))
    W[:, 12:] = 0.0
    clean = sys_.evaluate_batch(X, W)
    for bad in (np.inf, -np.inf, np.nan):
        dirty = W.copy()
        dirty[::2, 12:] = bad
        np.testing.assert_array_equal(sys_.evaluate_batch(X, dirty), clean)
        np.testing.assert_array_equal(sys_.evaluate(X[0], dirty[0]), sys_.evaluate(X[0], W[0]))


def test_a_nonfinite_state_row_leaves_the_input_flow_memo_alone():
    rng = np.random.default_rng(13)
    for make in (ex61_system, unread_input_system):
        X = rng.standard_normal((5, make().state_dim))
        w = rng.standard_normal(make().r * make().d)
        for bad in (np.inf, -np.inf, np.nan):
            sys_ = make()
            poisoned = X.copy()
            poisoned[0] = bad  # the row that the input-only flows are taken from
            with np.errstate(invalid="ignore", over="ignore"):
                first = sys_.evaluate_batch(poisoned, w)
            assert not np.isfinite(first[0]).any()
            np.testing.assert_array_equal(first[1:], make().evaluate_batch(X[1:], w))
            # the next batch under w reuses the memo
            np.testing.assert_array_equal(sys_.evaluate_batch(X, w), make().evaluate_batch(X, w))


def test_a_scalar_step_takes_one_ad_and_one_flow_call(monkeypatch):
    # example 6.1: four distinct bases, five families, one ad_many and one kernel call a step
    sys61 = ex61_system()
    ads, flows = [], []
    real_ad, real_flow = sys61.algebra.ad_many, dynamics._expm1_batch
    monkeypatch.setattr(sys61.algebra, "ad_many", lambda X: ads.append(np.shape(X)) or real_ad(X))
    monkeypatch.setattr(dynamics, "_expm1_batch", lambda M: flows.append(np.shape(M)) or real_flow(M))
    sys61.evaluate(EX61_X0, np.tile(np.arange(6.0), 2))
    assert ads == [(4, 1, 6)] and flows == [(4, 6, 6)]


def old_taylor_degree(theta):
    """The degree loop of the flow kernel before its factorials were cached."""
    m = 1
    while theta ** m / math.factorial(m + 1) > 2.0 ** -53:
        m += 1
    return m


def test_taylor_degree_matches_the_factorial_loop():
    # the kernel scales theta to at most 1/2, where the degree is 14
    top = old_taylor_degree(0.5)
    assert top == 14
    for m in range(1, top + 1):
        # past this theta the degree exceeds m
        threshold = (2.0 ** -53 * math.factorial(m + 1)) ** (1 / m)
        for theta in (np.nextafter(threshold, 0.0), threshold, np.nextafter(threshold, 1.0)):
            assert dynamics._taylor_degree(float(theta)) == old_taylor_degree(float(theta))
    for theta in [0.0, 5e-324, 1e-300, 0.5, *np.random.default_rng(14).uniform(0.0, 0.5, 200)]:
        assert dynamics._taylor_degree(float(theta)) == old_taylor_degree(float(theta))
