import numpy as np
import pytest

from liestab.algebra import (LieAlgebra, _units, abelian, heisenberg, is_nilpotent,
                             realized_algebra, upper_triangular6)
from liestab.quotient import bracket_word
from liestab.sampling import (GroupElement, PrincipalLogUndefined, TRACKING_A, adjoint_flow_step,
                              bch_coefficient_table, bch_compose,
                              expm, heisenberg_tracking_system, logm, step_invariant,
                              tracking_bch_step, tracking_group_step, tracking_signal, tracking_state)


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


def test_group_element():
    with pytest.raises(ValueError):
        GroupElement(np.zeros((2, 2)))
    alg = heisenberg()
    x = np.array([0.3, -0.2, 0.5])
    g = GroupElement(expm(alg.to_matrix(x)), alg)
    np.testing.assert_allclose(g.log_coords(), x, atol=1e-12)
    with pytest.raises(ValueError):
        GroupElement(np.diag([1.0, 2.0, 3.0]), alg).log_coords()  # not in the algebra span


def test_step_invariant_factors():
    alg = heisenberg()
    gens = [alg.basis_vector("h1"), alg.basis_vector("h2"), alg.basis_vector("h3")]
    ident = step_invariant(alg, gens, [0.0, 0.0, 0.0], T=1.0)
    np.testing.assert_allclose(ident.matrix, np.eye(3), atol=0)
    u = np.array([0.4, -1.2, 0.7])
    factor = step_invariant(alg, gens, u, T=1.0)
    np.testing.assert_allclose(factor.matrix, expm(alg.to_matrix(u)), atol=1e-14)
    np.testing.assert_allclose(factor.log_coords(), u, atol=1e-12)
    # chaining k identical factors equals one factor over k periods
    chained = np.linalg.multi_dot([factor.matrix] * 4)
    np.testing.assert_allclose(chained, step_invariant(alg, gens, u, T=4.0).matrix,
                               atol=1e-12)


def se2_algebra():
    B1 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    B3 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    C = np.zeros((3, 3, 3))
    C[0, 1, 2] = 1.0   # [rot, x-shift] = y-shift
    C[1, 0, 2] = -1.0
    C[0, 2, 1] = -1.0  # [rot, y-shift] = -x-shift
    C[2, 0, 1] = 1.0
    return LieAlgebra(C, labels=["r", "x", "y"], matrix_rep=[B1, B2, B3], name="se2")


def test_step_invariant_planar_rigid_body():
    alg = se2_algebra()
    gens = [alg.basis_vector("r"), alg.basis_vector("x"), alg.basis_vector("y")]
    u = np.array([0.9, 1.5, -0.3])
    T = 0.25
    factor = step_invariant(alg, gens, u, T)
    np.testing.assert_allclose(factor.matrix,
                               expm(T * (u[0] * alg.matrix_rep[0]
                                         + u[1] * alg.matrix_rep[1]
                                         + u[2] * alg.matrix_rep[2])), atol=1e-14)


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
    """``bch_compose`` one ``bracket_word`` chain per table word (the loop that evaluating
    each shared suffix once replaced)."""
    _, p = is_nilpotent(alg)
    out = np.zeros(alg.dim)
    for word, coeff in bch_coefficient_table(max(min(order, p), 1)).items():
        out = out + float(coeff) * bracket_word(alg, [X if letter == 0 else Y for letter in word])
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
    alg = heisenberg()
    # commuting pair: flow leaves the state alone
    x = alg.element(h1=1, h3=2)
    np.testing.assert_allclose(adjoint_flow_step(alg, alg.basis_vector("h3"), 1.0, x),
                               x, atol=0)
    # one bracket survives: h2 -> h2 + [h1, h2] = h2 - h3
    out = adjoint_flow_step(alg, alg.basis_vector("h1"), 1.0, alg.basis_vector("h2"))
    np.testing.assert_allclose(out, alg.element(h2=1, h3=-1), atol=1e-15)


def test_adjoint_flow_matches_conjugation():
    ut = upper_triangular6()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        a = rng.standard_normal(6) * 0.5
        x = rng.standard_normal(6)
        flowed = adjoint_flow_step(ut, a, 1.0, x)
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
        one = adjoint_flow_step(ut, a, 0.7, adjoint_flow_step(ut, a, 0.3, x))
        two = adjoint_flow_step(ut, a, 1.0, x)
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
    # the sampled-data claim: the order-2 BCH composition is the exact error step
    sys41 = heisenberg_tracking_system()
    rng = np.random.default_rng(8)
    for _ in range(200):
        e = rng.standard_normal(3) * 2
        w = rng.standard_normal()
        bch = tracking_bch_step(e, w)
        for other in (tracking_group_step(e, w),
                      sys41.evaluate(tracking_state(e), w * np.array([1.0, 2.0, 3.0]))[:3]):
            assert np.linalg.norm(bch - other) <= 1e-12 * np.linalg.norm(other)
