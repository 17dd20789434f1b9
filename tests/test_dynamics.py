import mpmath
import numpy as np
import pytest
import scipy.linalg

from liestab.algebra import (abelian, derived_algebra, heisenberg, nilpotent_upper,
                             upper_triangular6)
from liestab.dynamics import (AdjointFamily, ExoSignal,
                              SystemSpecError, Term, Word, WordSeriesSystem,
                              _expm1_batch, _min_singular, parse_letter)
from liestab.quotient import (InvarianceViolation, _slotwise, bracket_word, induced_map,
                              invariance_residual, off_ideal_part)
from liestab.sampling import (expm, heisenberg_tracking_system, tracking_signal,
                              tracking_state)
from liestab.scenarios import (EX61_X0, builtin_scenario, ex61_signal, ex61_system,
                               heisenberg_deadbeat_system, uptri_deadbeat_system)


def tracking_error_step(e, w):
    """Closed-loop error map obtained by composing the hold-interval
    exponentials and substituting u = K e - L w, on the h-basis."""
    e1, e2, e3 = e
    return np.array([
        0.25 * e1 + 0.25 * e2,
        -0.25 * e1 + 0.25 * e2,
        0.01 * e3 - 0.125 * (e1 ** 2 + e2 ** 2) + 1.875 * (e2 - e1) * w,
    ])


def reference_step(sys_, X, W):
    """F(X, W) one term at a time: ``bracket_word`` per word, scipy ``expm`` per family."""
    Xs = X.reshape(sys_.n, sys_.d)
    Ws = W.reshape(sys_.r, sys_.d)

    def value(letter):
        kind, j = letter
        return Xs[j - 1] if kind == "X" else Ws[j - 1]

    out = (sys_.A @ X).reshape(sys_.n, sys_.d).copy()
    for t in sys_.terms:
        out += np.outer(t.coeff, bracket_word(sys_.algebra, [value(l) for l in t.word.letters]))
    for f in sys_.families:
        base = sum(w * value(letter) for letter, w in f.base.items())
        target = value(f.target)
        flow = scipy.linalg.expm(sys_.algebra.ad_many(base))
        out[f.out_slot - 1] += f.scale * (flow @ target - target)
    return out.reshape(-1)


def reference_update(sys_, X, W):
    """The batched update map with one flow product per family and the input-only flows
    recomputed on every call (the loop the per-call memo and shared products replaced)."""
    B = X.shape[0]
    Xs = X.reshape(B, sys_.n, sys_.d)
    Ws = W.reshape(W.shape[0] if W.ndim > 1 else 1, sys_.r, sys_.d)
    out = (X @ sys_.A.T).reshape(B, sys_.n, sys_.d)

    def letter_vals(letter):
        kind, j = letter
        return Xs[:, j - 1, :] if kind == "X" else Ws[:, j - 1, :]

    for t in sys_.terms:
        w = bracket_word(sys_.algebra, [letter_vals(l) for l in t.word.letters])
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
    return {"structural_ok": structural,
            "linear_margin": lin_margin,
            "quotient_linear_margin": q_margin,
            "violations": violations,
            "surviving_starts": surviving,
            "ok": structural and not violations}


def reference_jacobian_report(sys_, h_steps=(1e-2, 1e-3, 1e-4), directions=8, seed=0):
    """``jacobian_report`` one probe per ``evaluate`` call (the loops the batch replaced)."""
    h_steps = sorted(h_steps, reverse=True)
    nd, rd = sys_.state_dim, sys_.r * sys_.d
    x_err, w_err = [], []
    for h in h_steps:
        JX = np.zeros((nd, nd))
        for i in range(nd):
            e = np.zeros(nd)
            e[i] = h
            JX[:, i] = (sys_.evaluate(e, np.zeros(rd)) - sys_.evaluate(-e, np.zeros(rd))) / (2 * h)
        x_err.append(float(np.linalg.norm(JX - sys_.A)))
        JW = np.zeros((nd, rd))
        for i in range(rd):
            e = np.zeros(rd)
            e[i] = h
            JW[:, i] = (sys_.evaluate(np.zeros(nd), e) - sys_.evaluate(np.zeros(nd), -e)) / (2 * h)
        w_err.append(float(np.linalg.norm(JW)))
    rng = np.random.default_rng(seed)
    dirs = [(rng.standard_normal(nd), rng.standard_normal(rd)) for _ in range(directions)]
    dir_err = []
    for h in h_steps:
        worst = 0.0
        for v, w in dirs:
            diff = (sys_.evaluate(h * v, h * w) - sys_.evaluate(-h * v, -h * w)) / (2 * h)
            worst = max(worst, float(np.linalg.norm(diff - sys_.A @ v)))
        dir_err.append(worst)
    axes_ok = max(x_err) < 1e-12 and max(w_err) < 1e-12
    exact = all(e < 1e-12 for e in dir_err)
    order = None
    if not exact:
        order = float(np.polyfit(np.log(h_steps), np.log(np.maximum(dir_err, 1e-300)), 1)[0])
    ok = axes_ok and (exact or (order is not None and order >= 1.9))
    return {"h_steps": list(h_steps), "state_errors": x_err, "input_errors": w_err,
            "directional_errors": dir_err, "observed_order": order,
            "exact": exact, "ok": ok}


def reference_invariance_report(sys_, seed=0, nonlinear_samples=20, tol=1e-10):
    """``invariance_report`` one sample per ``evaluate`` call."""
    rng = np.random.default_rng(seed)
    scale = max(1.0, float(np.linalg.norm(sys_.A)))
    levels = []
    ok = True
    for idx, sub in enumerate(sys_.chain.ideals):
        if sub.dim == 0:
            levels.append({"level": idx + 1, "dim": 0, "linear_residual": 0.0,
                           "nonlinear_residual": 0.0})
            continue
        lin = invariance_residual(sub, sys_.A)
        nl = 0.0
        for _ in range(nonlinear_samples):
            x = _slotwise(sub.onb, rng.standard_normal(sys_.n * sub.dim), sys_.n)
            w = rng.standard_normal(sys_.r * sys_.d)
            y = sys_.evaluate(x, w)
            nl = max(nl, float(np.linalg.norm(off_ideal_part(sub, y, sys_.n))) / max(1.0, float(np.linalg.norm(y))))
        levels.append({"level": idx + 1, "dim": sub.dim, "linear_residual": lin,
                       "nonlinear_residual": nl})
        ok = ok and lin < tol * scale and nl < max(tol, 1e-9)
    return {"ok": ok, "levels": levels}


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


def sweep_system(m):
    """The term-only system on nilpotent_upper(m) that the dimension sweep uses."""
    alg = nilpotent_upper(m)
    terms = [Term(Word((("X", 1), ("W", 1))), np.array([0.1])),
             Term(Word((("X", 1), ("X", 1), ("W", 1))), np.array([-0.05]))]
    return WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(alg.dim), terms=terms)


def assert_same_report(got, ref):
    """Equal verdicts, keys and shapes; every number within 1e-12 relative or 1e-14 absolute."""
    if isinstance(ref, dict):
        assert sorted(got) == sorted(ref)
        for key in ref:
            assert_same_report(got[key], ref[key])
    elif isinstance(ref, list):
        assert len(got) == len(ref)
        for g, r in zip(got, ref):
            assert_same_report(g, r)
    elif isinstance(ref, (bool, type(None))):
        assert got is ref
    else:
        assert type(got) is type(ref)
        assert got == pytest.approx(ref, rel=1e-12, abs=1e-14)


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
    traj = q.simulate(np.zeros(0), sc.signal.projected(sc.system.projections[0].P), 5)
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
    from liestab.quotient import bracket_word
    Xs = x.reshape(sys_.n, sys_.d)
    Ws = w.reshape(sys_.r, sys_.d)
    vals = [Xs[j - 1] if kind == "X" else Ws[j - 1] for kind, j in term.word.letters]
    return bracket_word(sys_.algebra, vals)


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


def test_invariance_report():
    for sys_ in (heisenberg_tracking_system(), ex61_system()):
        rep = sys_.invariance_report()
        assert rep["ok"], rep
    alg = heisenberg()
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    bad = WordSeriesSystem(alg, 1, 1, rot)
    rep = bad.invariance_report()
    assert not rep["ok"]
    assert rep["levels"][1]["linear_residual"] > 0.1


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
    # linear map with a fixed-point subspace is caught by the search
    loop = WordSeriesSystem(abelian(2), 1, 1, np.diag([1.0, 0.4]))
    rep = loop.equilibrium_report(starts=30, iters=200)
    assert rep["violations"]
    assert not rep["ok"]


def test_jacobian_report():
    rep = heisenberg_tracking_system().jacobian_report()
    assert rep["ok"] and rep["exact"]
    rep = ex61_system().jacobian_report()
    assert rep["ok"] and rep["observed_order"] >= 1.9
    assert max(rep["input_errors"]) < 1e-12
    lin = WordSeriesSystem(abelian(3), 1, 1, np.diag([0.5, 0.2, 0.1]))
    rep = lin.jacobian_report(h_steps=(1.0, 1e-3))
    assert rep["exact"]


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
        qsig = sig.projected(ctx.P)
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
    rot = WordSeriesSystem(heisenberg(), 2, 1, np.kron(np.eye(2), [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0],
                                                                   [-1.0, 0.0, 0.0]]))
    for sys_ in (sys61, rot):  # rot moves the centre of the Heisenberg algebra off itself
        for sub in sys_.chain.ideals:
            B = np.kron(np.eye(sys_.n), sub.onb)
            img = sys_.A @ B
            assert invariance_residual(sub, sys_.A) == pytest.approx(
                np.linalg.norm(img - B @ (B.T @ img)), abs=1e-14)


def test_invariance_violation_blocks_quotient():
    alg = heisenberg()
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    bad = WordSeriesSystem(alg, 1, 1, rot)
    with pytest.raises(InvarianceViolation):
        bad.quotient_system(1)


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


@pytest.mark.parametrize("name", ["example-4.1", "example-6.1", "heisenberg-deadbeat",
                                  "uptri-deadbeat", "sweep-d15"])
def test_batched_reports_match_per_probe_loops(name):
    sys_ = sweep_system(6) if name == "sweep-d15" else builtin_scenario(name).system
    for seed in (0, 3):
        assert_same_report(sys_.jacobian_report(seed=seed), reference_jacobian_report(sys_, seed=seed))
        assert_same_report(sys_.invariance_report(seed=seed), reference_invariance_report(sys_, seed=seed))
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


@pytest.mark.parametrize("name", sorted(EQUILIBRIUM_CASES))
def test_equilibrium_search_matches_the_masked_loop(name):
    for seed in (0, 3):
        sys_ = EQUILIBRIUM_CASES[name]()
        rows = counted_batches(sys_)
        got = sys_.equilibrium_report(seed=seed)
        assert got == reference_equilibrium_report(EQUILIBRIUM_CASES[name](), seed=seed)
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
