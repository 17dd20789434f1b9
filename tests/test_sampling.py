import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from liestab.algebra import (_units, abelian, heisenberg, is_nilpotent, realized_algebra,
                             upper_triangular6)
from liestab.sampling import (GroupElement, LogNotConverged, PrincipalLogUndefined, TRACKING_A,
                              TRACKING_FEEDFORWARD, TRACKING_GAIN, TRACKING_REFERENCE_DIRECTION,
                              bch_coefficient_table, bch_compose, expm, heisenberg_tracking_system,
                              logm, tracking_group_step, tracking_signal, tracking_state)


def test_expm_logm_basics():
    np.testing.assert_allclose(expm(np.zeros((4, 4))), np.eye(4), atol=0)
    np.testing.assert_allclose(logm(np.eye(4)), np.zeros((4, 4)), atol=0)


def test_expm_exact_on_strictly_triangular():
    alg = heisenberg()
    rng = np.random.default_rng(0)
    for _ in range(50):
        N = alg.to_matrix(rng.standard_normal(3))
        manual = np.eye(3) + N + N @ N / 2.0  # N^3 = 0
        np.testing.assert_allclose(expm(N), manual, atol=1e-15)


def test_expm_matches_scipy():
    import scipy.linalg
    rng = np.random.default_rng(4)
    for _ in range(200):
        M = rng.standard_normal((4, 4))
        M *= rng.uniform(0.0, 2.0) / np.linalg.norm(M)
        want = scipy.linalg.expm(M)
        assert np.linalg.norm(expm(M) - want) <= 4e-15 * np.linalg.norm(want)
    assert np.array_equal(expm(np.zeros((0, 0))), np.zeros((0, 0)))


def test_expm_loads_no_scipy():
    # the flow kernel of the update map serves every square input; the runtime needs numpy alone
    probe = """
import sys
import numpy as np
from liestab.sampling import expm
t = 0.75
E = expm(np.array([[0.0, t], [-t, 0.0]]))
print(np.allclose(E, [[np.cos(t), np.sin(t)], [-np.sin(t), np.cos(t)]], rtol=0, atol=1e-15), "scipy" in sys.modules)
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["True", "False"]


def test_exp_log_roundtrip():
    rng = np.random.default_rng(1)
    worst1 = worst2 = 0.0
    for _ in range(100):
        X = rng.standard_normal((4, 4))
        X *= 1.0 / max(1.0, np.linalg.norm(X))
        worst1 = max(worst1, np.linalg.norm(logm(expm(X)) - X))
        Y = X * 2.0
        worst2 = max(worst2, np.linalg.norm(logm(expm(Y)) - Y))
    assert worst1 < 1e-10
    assert worst2 < 1e-9


def test_logm_domain_errors():
    with pytest.raises(PrincipalLogUndefined):
        logm(np.diag([-1.0, 2.0]))
    with pytest.raises(PrincipalLogUndefined):
        logm(np.diag([0.0, 1.0]))
    with pytest.raises(PrincipalLogUndefined):
        logm(np.diag([1.0, 1e-15]))  # zero to working precision beside 1
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            logm(np.array([[1.0, bad], [0.0, 1.0]]))


def se2_element(angle, tx, ty):
    return expm(np.array([[0.0, -angle, tx], [angle, 0.0, ty], [0.0, 0.0, 0.0]]))


def test_logm_matches_scipy():
    import scipy.linalg
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(200):
        X = rng.standard_normal((4, 4))
        cases.append(expm(X * rng.uniform(0.05, 2.0) / np.linalg.norm(X)))  # |X|_F <= 2
    cases += [se2_element(a, *rng.uniform(-5.0, 5.0, 2)) for a in np.linspace(-3.0, 3.0, 25) if a]
    cases += [expm(np.triu(rng.standard_normal((3, 3)))) for _ in range(100)]
    Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    unipotent = expm(Q @ np.triu(rng.standard_normal((4, 4)), 1) @ Q.T)  # not triangular: roots
    cases.append(unipotent)
    with warnings.catch_warnings():  # scipy's residual estimate flags one triangular case
        warnings.simplefilter("ignore", RuntimeWarning)
        wants = [scipy.linalg.logm(G) for G in cases]
    for G, want in zip(cases, wants):
        assert np.linalg.norm(logm(G) - want) <= 1e-12 * np.linalg.norm(want)


def reference_mercator(G):
    """``logm`` on strictly triangular G - I before inverse scaling and squaring: the finite
    Mercator series, one term at a time."""
    m = G.shape[0]
    N = G - np.eye(m)
    out = np.zeros_like(N)
    term = np.eye(m)
    for j in range(1, m):
        term = term @ N
        out = out + ((-1) ** (j + 1)) * term / j
    return out


def test_logm_keeps_mercator_bits_on_strictly_triangular():
    rng = np.random.default_rng(11)
    for m in range(1, 8):
        for scale in (1e-3, 1.0, 50.0):
            N = np.triu(scale * rng.standard_normal((m, m)), 1)
            for G in (np.eye(m) + N, np.eye(m) + N.T, expm(N)):
                assert logm(G).tobytes() == reference_mercator(G).tobytes()


def test_logm_runs_without_scipy():
    probe = """
import sys
sys.modules["scipy"] = None  # every import of scipy now fails
import numpy as np
from liestab.sampling import expm, logm
X = 0.5 * np.random.default_rng(0).standard_normal((4, 4))
S = np.array([[0.0, -2.5, 1.0], [2.5, 0.0, -0.5], [0.0, 0.0, 0.0]])
print([bool(np.linalg.norm(logm(expm(A)) - A) <= 1e-12 * np.linalg.norm(A)) for A in (S, X)])
"""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = os.environ | {"PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["[True,", "True]"]


def test_logm_domain_is_scale_free():
    # eigenvalues are judged against the largest modulus, so log(c G) = log(G) + log(c) I
    G = se2_element(0.7, 1.0, -2.0) @ np.diag([1.0, 1.0, 2.0])
    for c in (1e-15, 1e15):
        want = logm(G) + np.log(c) * np.eye(3)
        assert np.linalg.norm(logm(c * G) - want) <= 1e-13 * np.linalg.norm(want)
    np.testing.assert_allclose(logm(1e-15 * np.eye(2)), np.log(1e-15) * np.eye(2), rtol=1e-15)
    rot = np.array([[0.0, -1.0], [1.0, 0.0]])
    np.testing.assert_allclose(logm(1e-20 * rot), np.log(1e-20) * np.eye(2) + np.pi / 2 * rot,
                               rtol=1e-14, atol=0)


def test_logm_cap_raises_named_error():
    # the log's off-diagonal entry is about 7e29: more than 64 square roots from 1/4
    with pytest.raises(LogNotConverged, match="64 square roots"):
        logm(np.array([[1.0, 1e30], [0.0, 2.0]]))


def test_group_element():
    with pytest.raises(ValueError):
        GroupElement(np.zeros((2, 2)))
    for bad in (np.inf, np.nan):  # det inf passed; NaN warned, then failed in log_coords
        with pytest.raises(ValueError, match="finite"):
            GroupElement(np.diag([1.0, bad, 1.0]))
    tiny = GroupElement(1e-110 * np.eye(3))  # its determinant underflows to 0
    np.testing.assert_allclose(logm(tiny.matrix), np.log(1e-110) * np.eye(3), rtol=1e-15)
    alg = heisenberg()
    x = np.array([0.3, -0.2, 0.5])
    g = GroupElement(expm(alg.to_matrix(x)), alg)
    np.testing.assert_allclose(g.log_coords(), x, atol=1e-12)
    with pytest.raises(ValueError):
        GroupElement(np.diag([1.0, 2.0, 3.0]), alg).log_coords()  # not in the algebra span


def test_step_invariant_factors():
    # under zero-order hold one period advances by exp(T A(u)); k periods chain to exp(k T A(u))
    alg = heisenberg()
    u = np.array([0.4, -1.2, 0.7])
    factor = GroupElement(expm(alg.to_matrix(u)), alg)
    chained = np.linalg.multi_dot([factor.matrix] * 4)
    np.testing.assert_allclose(chained, expm(4.0 * alg.to_matrix(u)), atol=1e-12)


def test_bch_low_orders_match_printed_series():
    # through order 3 the series is X + Y + [X,Y]/2 + [X,[X,Y]]/12 + [Y,[Y,X]]/12
    rng = np.random.default_rng(2)
    table3 = bch_coefficient_table(3)

    def eval_table(table, X, Y):
        out = np.zeros_like(X)
        for word, coeff in table.items():
            vals = [X if c == 0 else Y for c in word]
            term = vals[-1]
            for v in vals[-2::-1]:
                term = v @ term - term @ v
            out = out + float(coeff) * term
        return out

    for _ in range(30):
        X = rng.standard_normal((5, 5)) * 0.1
        Y = rng.standard_normal((5, 5)) * 0.1
        br = lambda a, b: a @ b - b @ a
        printed = (X + Y + br(X, Y) / 2
                   + br(X, br(X, Y)) / 12 + br(Y, br(Y, X)) / 12)
        np.testing.assert_allclose(eval_table(table3, X, Y), printed, atol=1e-14)


def test_bch_compose_values():
    flat = abelian(3)
    x, y = np.array([1.0, 2.0, 3.0]), np.array([-0.5, 0.0, 4.0])
    np.testing.assert_allclose(bch_compose(flat, x, y, 4), x + y, atol=0)
    alg = heisenberg()
    z = bch_compose(alg, alg.basis_vector("h1"), alg.basis_vector("h2"), 2)
    np.testing.assert_allclose(z, alg.element(h1=1, h2=1, h3=-0.5), atol=1e-15)
    x = np.array([0.3, -0.7, 0.2])
    np.testing.assert_allclose(bch_compose(alg, x, -x, 2), np.zeros(3), atol=1e-15)


def test_bch_matches_matrix_log_oracle():
    rng = np.random.default_rng(3)
    for alg in (heisenberg(), abelian(4)):
        _, p = (2, 2) if alg.dim == 3 else (1, 1)
        worst = 0.0
        for _ in range(200):
            x = rng.standard_normal(alg.dim)
            y = rng.standard_normal(alg.dim)
            z = bch_compose(alg, x, y, 6)
            oracle = GroupElement(expm(alg.to_matrix(x)) @ expm(alg.to_matrix(y)),
                                  alg).log_coords()
            worst = max(worst, np.linalg.norm(z - oracle))
        assert worst < 1e-9, alg.name


def reference_bch_compose(alg, X, Y, order):
    """``bch_compose`` one ``bracket_many`` chain per table word (the loop that evaluating
    each shared suffix once replaced)."""
    _, p = is_nilpotent(alg)
    out = np.zeros(alg.dim)
    for word, coeff in bch_coefficient_table(max(min(order, p), 1)).items():
        w = X if word[-1] == 0 else Y
        for letter in word[-2::-1]:
            w = alg.bracket_many(X if letter == 0 else Y, w)
        out = out + float(coeff) * w
    return out


def test_bch_beyond_nilindex_two():
    # strictly upper-triangular m x m units in a shuffled basis: nilindex m - 1 = 3..6,
    # so words up to length 6 survive and share suffixes of every length below
    rng = np.random.default_rng(9)
    for m in range(4, 8):
        pairs = [(a, b) for a in range(m) for b in range(a + 1, m)]
        pairs = [pairs[i] for i in rng.permutation(len(pairs))]
        alg = realized_algebra(_units(m, *pairs), [f"E{a}{b}" for a, b in pairs], f"n{m}")
        assert is_nilpotent(alg) == (True, m - 1)
        for _ in range(10):
            x, y = 0.7 * rng.standard_normal((2, alg.dim))
            z = bch_compose(alg, x, y, m - 1)
            exact = logm(expm(alg.to_matrix(x)) @ expm(alg.to_matrix(y)))  # unipotent: exact series
            np.testing.assert_allclose(z, [exact[a, b] for a, b in pairs], rtol=0, atol=1e-9)
            for order in (m - 1, m - 2, 50):
                ref = reference_bch_compose(alg, x, y, order)
                assert np.linalg.norm(bch_compose(alg, x, y, order) - ref) <= 1e-13 * np.linalg.norm(ref)


def test_bch_rejects_bad_order_and_length():
    alg = heisenberg()
    h1, h2 = alg.basis_vector("h1"), alg.basis_vector("h2")
    for order in (0, -3):  # once the order-1 result X + Y
        with pytest.raises(ValueError, match="order must be >= 1"):
            bch_compose(alg, h1, h2, order)
    for X, Y in ((np.ones(2), h2), (h1, np.ones(4))):  # once numpy's broadcast error
        with pytest.raises(ValueError, match="length 3"):
            bch_compose(alg, X, Y, 2)
    with pytest.raises(ValueError, match="finite"):
        bch_compose(alg, h1, np.array([np.nan, 0.0, 0.0]), 2)


def test_bch_refuses_non_nilpotent():
    # the BCH series of a solvable, non-nilpotent algebra never ends; it is not truncated
    x = 0.05 * np.ones(6)
    y = 0.04 * np.ones(6)
    for order in (2, 6, 9):
        with pytest.raises(ValueError, match="nilpotent"):
            bch_compose(upper_triangular6(), x, y, order)


def test_adjoint_flow_step():
    # one sampled step X -> e^{ad_{T A}} X of the flow X' = [A, X]
    alg = heisenberg()
    # commuting pair: flow leaves the state alone
    x = alg.element(h1=1, h3=2)
    np.testing.assert_allclose(expm(alg.ad(alg.basis_vector("h3"))) @ x, x, atol=0)
    # one bracket survives: h2 -> h2 + [h1, h2] = h2 - h3
    out = expm(alg.ad(alg.basis_vector("h1"))) @ alg.basis_vector("h2")
    np.testing.assert_allclose(out, alg.element(h2=1, h3=-1), atol=1e-15)


def test_adjoint_flow_matches_conjugation():
    ut = upper_triangular6()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(6) * 0.5
        x = rng.standard_normal(6)
        flowed = expm(ut.ad(a)) @ x
        conj = expm(ut.to_matrix(a)) @ ut.to_matrix(x) @ expm(-ut.to_matrix(a))
        rep = ut.matrix_rep.reshape(6, -1)
        coords = np.linalg.lstsq(rep.T, conj.reshape(-1), rcond=None)[0]
        worst = max(worst, np.linalg.norm(flowed - coords))
    assert worst < 1e-9


def test_adjoint_flow_semigroup_property():
    ut = upper_triangular6()
    rng = np.random.default_rng(5)
    for _ in range(30):
        a = rng.standard_normal(6) * 0.4
        x = rng.standard_normal(6)
        one = expm(ut.ad(0.7 * a)) @ (expm(ut.ad(0.3 * a)) @ x)
        two = expm(ut.ad(a)) @ x
        assert np.linalg.norm(one - two) < 1e-10


def test_tracking_system_construction():
    sys41 = heisenberg_tracking_system()
    eigs = np.linalg.eigvals(sys41.A)
    assert np.max(np.abs(eigs)) == pytest.approx(1 / (2 * np.sqrt(2)), abs=1e-12)
    np.testing.assert_allclose(sys41.A[:3, :3], TRACKING_A)
    # e = 0 is fixed for any reference signal value
    for w in (0.0, 1.0, -3.5):
        out = sys41.evaluate(np.zeros(6), w * np.array([1.0, 2.0, 3.0]))
        assert np.linalg.norm(out) == 0.0
    sig = tracking_signal(1.0)
    assert sig.envelope() == (pytest.approx(np.sqrt(14)), 2.0)


def test_tracking_group_vs_word_system():
    sys41 = heisenberg_tracking_system()
    e0 = np.array([3.0, 2.0, -1.0])
    w = 1.0
    alg_step = sys41.evaluate(tracking_state(e0), w * np.array([1.0, 2.0, 3.0]))[:3]
    grp_step = tracking_group_step(e0, w)
    assert np.linalg.norm(alg_step - grp_step) < 1e-9
    rng = np.random.default_rng(6)
    for _ in range(50):
        e = rng.standard_normal(3) * 2
        w = rng.standard_normal()
        a = sys41.evaluate(tracking_state(e), w * np.array([1.0, 2.0, 3.0]))[:3]
        g = tracking_group_step(e, w)
        assert np.linalg.norm(a - g) < 1e-9


def test_tracking_bch_step_matches_group_and_word_system():
    # the sampled-data claim: the order-2 BCH composition is the exact error step (nilindex 2)
    alg, V = heisenberg(), TRACKING_REFERENCE_DIRECTION
    sys41 = heisenberg_tracking_system()
    rng = np.random.default_rng(8)
    for _ in range(200):
        e = rng.standard_normal(3) * 2
        w = rng.standard_normal()
        u = TRACKING_GAIN @ e - TRACKING_FEEDFORWARD * w
        z = bch_compose(alg, bch_compose(alg, 2 * w * V, u, 2), -w * V, 2)
        bch = bch_compose(alg, z, e, 2)
        for other in (tracking_group_step(e, w),
                      sys41.evaluate(tracking_state(e), w * np.array([1.0, 2.0, 3.0]))[:3]):
            assert np.linalg.norm(bch - other) <= 1e-12 * np.linalg.norm(other)
