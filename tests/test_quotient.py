import warnings

import numpy as np
import pytest

from liestab.algebra import (Subspace, catalog_algebras, derived_algebra, derived_series,
                             heisenberg, lower_central_series, nilpotent_upper,
                             upper_triangular6)
from liestab.quotient import (ChainProjections, InvarianceViolation,
                              QuotientContext, adapted_norm, bracket_word,
                              collapse_identity_residual, flag_basis,
                              induced_map, is_ideal, layered_word_residual,
                              quotient_algebra)
from liestab.sampling import TRACKING_A
from liestab.scenarios import BUILTINS, builtin_scenario

HEIS = heisenberg()
UT = upper_triangular6()


def heis_ctx():
    return QuotientContext(HEIS, HEIS.span_labels(["h3"]))


def test_projection_coordinates_and_kernel():
    ctx = heis_ctx()
    x = HEIS.element(h1=3, h2=2, h3=-1)
    np.testing.assert_allclose(ctx.P @ x, [3.0, 2.0], atol=1e-14)
    np.testing.assert_allclose(ctx.P @ HEIS.element(h3=7.5), [0.0, 0.0], atol=1e-14)
    ut_ctx = QuotientContext(UT, derived_algebra(UT))
    assert ut_ctx.quotient_dim == 3


def reference_complement_basis(ideal, d, m):
    """Gram-Schmidt on the standard axes, one accepted column at a time: the complement basis of
    each quotient before the flag basis, kept as the reference the builtin chains still match."""
    cols = []
    for i in range(d):
        v = np.zeros(d)
        v[i] = 1.0
        for _ in range(2):
            v = v - ideal.project(v)
            for q in cols:
                v = v - (q @ v) * q
        nrm = np.linalg.norm(v)
        if nrm > 1e-8:
            cols.append(v / nrm)
            if len(cols) == d - m:
                return np.column_stack(cols)
    u, _, _ = np.linalg.svd(ideal.onb, full_matrices=True)
    return u[:, m:]


def catalog_chains():
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(5)]
    for alg in algebras:
        for chain in [derived_series(alg), lower_central_series(alg),
                      lower_central_series(alg, derived_algebra(alg))]:
            yield alg, chain


def proper_chain_ideals():
    for alg, chain in catalog_chains():
        yield from (s for s in chain.ideals if 0 < s.dim < alg.dim)
    rng = np.random.default_rng(11)
    rotation, _ = np.linalg.qr(rng.standard_normal((7, 7)))
    yield Subspace(rotation[:, :3])  # not axis-aligned
    tilted = rng.standard_normal((6, 2))
    tilted[0, 0] = 1.0
    tilted[1:, 0] = 1e-7 * rng.standard_normal(5)
    yield Subspace(tilted)  # within 1e-7 of e_1: one projection pass loses orthogonality


def assert_adapted_flag(rows, ideals):
    """The rows of a flag basis are orthonormal and, for each ideal B of the flag, the leading
    d - dim B rows P have P.T P = I - B B.T, within 1e-14; an axis-aligned ideal alone gets the
    reference axes."""
    d = rows.shape[0]
    np.testing.assert_allclose(rows @ rows.T, np.eye(d), rtol=0, atol=1e-14)
    for ideal in ideals:
        B, P = ideal.onb, rows[:d - ideal.dim]
        np.testing.assert_allclose(P.T @ P, np.eye(d) - B @ B.T, rtol=0, atol=1e-14)
        if (np.count_nonzero(B, axis=0) == 1).all():
            alone = flag_basis([ideal], d)[:d - ideal.dim]
            assert np.array_equal(alone.T, reference_complement_basis(ideal, d, ideal.dim))


def assert_nested(proj):
    """Each level's P is the leading rows of the next level's, bit for bit."""
    for lower, upper in zip(proj, proj.contexts[1:]):
        assert np.array_equal(lower.P, upper.P[:lower.quotient_dim])


def test_flag_basis_on_the_catalog_chains_and_their_ideals():
    ideals = list(proper_chain_ideals())
    assert len(ideals) >= 10
    for ideal in ideals:
        assert_adapted_flag(flag_basis([ideal], ideal.ambient_dim), [ideal])
    chains = [(alg, chain) for alg, chain in catalog_chains() if chain.terminated]
    assert len(chains) >= 10
    for alg, chain in chains:
        proj = ChainProjections(alg, chain)
        assert_adapted_flag(proj[-1].P, chain.ideals)
        assert_nested(proj)
    rng = np.random.default_rng(29)
    for _ in range(50):  # axis-aligned ideals get their remaining axes, in order
        d = int(rng.integers(2, 12))
        ideal = Subspace(np.eye(d)[:, rng.choice(d, int(rng.integers(1, d)), replace=False)])
        assert_adapted_flag(flag_basis([ideal], d), [ideal])


def structured_ideal(rng, kind):
    """A seeded ideal of one of four kinds: 0 rotated, 1 spanned by sums of axis pairs (projected
    axes that depend on earlier ones), 2 axis-aligned with a 1e-9 tilt, 3 partly rotated."""
    d = int(rng.integers(2, 25))
    m = int(rng.integers(1, d))
    if kind == 0:
        basis = rng.standard_normal((d, m))
    elif kind == 1:
        basis = np.zeros((d, m))
        for j in range(m):
            basis[rng.choice(d, 2, replace=False), j] = 1.0
    elif kind == 2:
        basis = np.eye(d)[:, rng.choice(d, m, replace=False)] + 1e-9 * rng.standard_normal((d, m))
    else:
        k = int(rng.integers(1, m + 1))
        rows = rng.permutation(d)
        basis = np.zeros((d, m))
        basis[rows[:m - k], np.arange(m - k)] = 1.0
        basis[rows[m - k:], m - k:] = rng.standard_normal((d - m + k, k))
    return Subspace(basis)


def test_flag_basis_on_structured_ideals():
    # kind 1 is where one QR of all projected axes misselected for the Gram-Schmidt basis: the
    # rounding noise of a dependent axis entered the span of the axes after it, as e_3 here
    basis = np.zeros((6, 5))
    for j, pair in enumerate([(1, 2), (1, 4), (0, 2), (1, 5), (0, 5)]):
        basis[pair, j] = 1.0
    pairs = Subspace(basis)
    assert pairs.dim == 4
    assert_adapted_flag(flag_basis([pairs], 6), [pairs])
    rng = np.random.default_rng(23)
    checked = [0] * 4
    for i in range(500):
        ideal = structured_ideal(rng, i % 4)
        d, m = ideal.ambient_dim, ideal.dim
        if 0 < m < d:
            # with a random subspace below it, so a step past the first meets a rotated ideal
            inner = Subspace(ideal.onb @ rng.standard_normal((m, int(rng.integers(1, m + 1)))))
            assert_adapted_flag(flag_basis([ideal], d), [ideal])
            assert_adapted_flag(flag_basis([ideal, inner], d), [ideal, inner])
            checked[i % 4] += 1
    assert min(checked) >= 100


def test_flag_basis_on_the_central_chain_of_nilpotent_upper_12():
    alg = nilpotent_upper(12)
    chain = alg.central_chain
    assert len([s for s in chain.ideals if 0 < s.dim < alg.dim]) == 10
    proj = ChainProjections(alg, chain)
    assert [ctx.quotient_dim for ctx in proj] == [alg.dim - s.dim for s in chain.ideals]
    assert_adapted_flag(proj[-1].P, chain.ideals)
    assert_nested(proj)


def test_builtin_flags_end_in_the_identity():
    # the level of the zero ideal sees the whole flag: on the builtins, exactly the standard axes
    for name in BUILTINS:
        proj = builtin_scenario(name).system.projections
        assert np.array_equal(proj[-1].P, np.eye(proj.algebra.dim)), name
        assert_nested(proj)


def test_complement_basis_is_the_reference_bit_for_bit_on_the_builtin_chains():
    for name in BUILTINS:
        for ctx in builtin_scenario(name).system.projections.contexts:
            d, m = ctx.algebra.dim, ctx.ideal.dim
            if 0 < m < d:
                assert np.array_equal(ctx.P.T, reference_complement_basis(ctx.ideal, d, m)), name


def test_chain_projections_project_no_vector_one_at_a_time(monkeypatch):
    alg = nilpotent_upper(6)
    chain = alg.central_chain

    def refuse(self, x):
        raise AssertionError("Subspace.project called")

    monkeypatch.setattr(Subspace, "project", refuse)
    proj = ChainProjections(alg, chain)
    assert [ctx.quotient_dim for ctx in proj] == [0, 5, 9, 12, 14, 15]


def test_projection_right_inverse_and_kernel_image():
    rng = np.random.default_rng(0)
    for ctx in (heis_ctx(), QuotientContext(UT, derived_algebra(UT)),
                QuotientContext(UT, UT.span_labels(["t6"]))):
        q = ctx.quotient_dim
        np.testing.assert_allclose(ctx.P @ ctx.P.T, np.eye(q), atol=1e-12)
        for _ in range(50):
            x = rng.standard_normal(ctx.algebra.dim)
            # what P.T . P discards lands in the factored ideal
            leftover = x - ctx.P.T @ (ctx.P @ x)
            assert np.linalg.norm(ctx.P @ leftover) < 1e-12
            assert np.linalg.norm(leftover - ctx.ideal.project(leftover)) < 1e-12


def test_quotient_norm_values_and_monotonicity():
    ctx = heis_ctx()
    x = HEIS.element(h1=3, h2=2, h3=-1)
    assert ctx.quotient_norm(x) == pytest.approx(np.sqrt(13), abs=1e-12)
    assert ctx.quotient_norm(HEIS.element(h3=4)) == 0.0
    trivial = QuotientContext(HEIS, HEIS.span([]))
    assert trivial.quotient_norm(x) == pytest.approx(np.linalg.norm(x))
    # norms weakly decrease when the factored ideal grows
    chain = lower_central_series(UT, derived_algebra(UT))
    proj = ChainProjections(UT, chain)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x = rng.standard_normal(6)
        norms = [ctx_i.quotient_norm(x) for ctx_i in reversed(proj.contexts)]
        # reversed: growing ideal, so norms weakly decrease, ending <= ||x||
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))
        assert norms[0] <= np.linalg.norm(x) + 1e-12


def test_projection_has_unit_norm():
    rng = np.random.default_rng(2)
    for ctx in (heis_ctx(), QuotientContext(UT, derived_algebra(UT))):
        samples = rng.standard_normal((500, ctx.algebra.dim))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        vals = [ctx.quotient_norm(s) for s in samples]
        assert max(vals) <= 1.0 + 1e-10
        witness = ctx.P.T @ np.eye(ctx.quotient_dim)[0]
        vals.append(ctx.quotient_norm(witness / np.linalg.norm(witness)))
        assert max(vals) == pytest.approx(1.0, abs=1e-6)


def test_induced_map_examples():
    ctx = heis_ctx()
    bar = induced_map(ctx, TRACKING_A)
    np.testing.assert_allclose(bar, [[0.25, 0.25], [-0.25, 0.25]], atol=1e-12)
    np.testing.assert_allclose(induced_map(ctx, np.eye(3)), np.eye(2), atol=1e-14)
    # commuting square and spectrum containment
    rng = np.random.default_rng(3)
    for _ in range(50):
        V = ctx.ideal
        pi = V.projector()
        co = np.eye(3) - pi
        A = pi @ rng.standard_normal((3, 3)) @ pi + co @ rng.standard_normal((3, 3)) @ co \
            + pi @ rng.standard_normal((3, 3)) @ co
        bar = induced_map(ctx, A)
        assert np.linalg.norm(bar @ ctx.P - ctx.P @ A) < 1e-10
        eig_bar = np.linalg.eigvals(bar)
        eig_A = np.linalg.eigvals(A)
        for lam in eig_bar:
            assert np.min(np.abs(eig_A - lam)) < 1e-8


def test_induced_map_rejects_non_invariant():
    ctx = heis_ctx()
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])  # mixes h3 into h1
    with pytest.raises(InvarianceViolation) as exc:
        induced_map(ctx, rot)
    assert exc.value.residual > 0.1


def test_solvable_pair_induced_block():
    # factoring the derived algebra out of the coupled-pair linear part
    M2 = np.array([[-0.5, 0.5], [0.5, 0.25]])
    A = np.kron(M2, np.eye(6))
    ctx = QuotientContext(UT, derived_algebra(UT))
    lift_p = np.kron(np.eye(2), ctx.P)
    lift_i = np.kron(np.eye(2), ctx.P.T)
    bar = lift_p @ A @ lift_i
    np.testing.assert_allclose(bar, np.kron(M2, np.eye(3)), atol=1e-12)
    eigs = np.sort(np.linalg.eigvals(bar).real)
    np.testing.assert_allclose(eigs, [-0.75] * 3 + [0.5] * 3, atol=1e-12)


def test_quotient_algebra_structure():
    ctx = QuotientContext(UT, derived_algebra(UT))
    assert is_ideal(UT, ctx.ideal)
    qa = quotient_algebra(ctx)
    assert qa.dim == 3
    assert np.max(np.abs(qa.C)) < 1e-14  # the quotient by the derived algebra is abelian
    with pytest.raises(ValueError):
        quotient_algebra(QuotientContext(UT, UT.span_labels(["t1"])))  # not an ideal


def test_adapted_norm_examples():
    an = adapted_norm(np.diag([0.5, 0.3]), 0.05)
    assert an.certified_norm < 0.5 + 0.05
    an = adapted_norm(np.array([[0.5, 100.0], [0.0, 0.5]]), 0.1)
    assert an.certified_norm < 0.6
    an = adapted_norm(np.array([[0.0, 1.0], [0.0, 0.0]]), 0.01)
    assert an.certified_norm < 0.01
    with pytest.raises(ValueError):
        adapted_norm(np.eye(2), 0.0)


def test_adapted_norm_random_matrices():
    rng = np.random.default_rng(4)
    for _ in range(20):
        n = rng.integers(2, 8)
        A = rng.standard_normal((n, n))
        an = adapted_norm(A, 0.01)
        assert an.operator_norm(A) < an.spectral_radius + 0.01
        # vector norm consistency: ||A x||_T <= ||A||_T ||x||_T
        for _ in range(20):
            x = rng.standard_normal(n)
            assert an.vector_norm(A @ x) <= an.certified_norm * an.vector_norm(x) * (1 + 1e-10)


def test_adapted_norm_past_the_float_range_is_a_named_error():
    # the Stein sum holds kappa^2, about 1e600 here: it leaves the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(RuntimeError, match="adapted-norm scaling did not converge"):
            adapted_norm(np.array([[0.5, 1e300], [0.0, 0.5]]), 0.025)
    # a dense 54 x 54 map whose Schur damping needed a delta ** b past the float range
    A = np.random.default_rng(0).standard_normal((54, 54))
    A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
    an = adapted_norm(A, 0.025)
    assert an.operator_norm(A) < an.spectral_radius + 0.025


def test_word_identity_nilpotent_chain():
    chain = lower_central_series(HEIS)
    proj = ChainProjections(HEIS, chain)
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(100):
        letters = [rng.standard_normal(3) for _ in range(rng.integers(2, 6))]
        worst = max(worst, layered_word_residual(proj, letters))
    assert worst < 1e-10
    # letters already inside a chain ideal: both sides vanish at matching depth
    h3 = HEIS.basis_vector("h3")
    letters = [h3, rng.standard_normal(3)]
    lhs = proj[2].P @ bracket_word(HEIS, letters)
    assert np.linalg.norm(lhs) < 1e-14
    assert layered_word_residual(proj, letters, level=2) < 1e-14


def test_word_identity_solvable_chain():
    chain = lower_central_series(UT, derived_algebra(UT))
    proj = ChainProjections(UT, chain)
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(100):
        letters = [rng.standard_normal(6) for _ in range(rng.integers(2, 6))]
        worst = max(worst, layered_word_residual(proj, letters))
    assert worst < 1e-10
    # letters fixed by the level filter leave no correction terms
    for level in (1, 2):
        filt = proj[level - 1].P.T @ proj[level - 1].P
        letters = [filt @ rng.standard_normal(6) for _ in range(3)]
        plain = proj[level].P @ bracket_word(UT, [filt @ y for y in letters])
        lhs = proj[level].P @ bracket_word(UT, letters)
        assert np.linalg.norm(lhs - plain) < 1e-12


def test_collapse_identity():
    chain = lower_central_series(UT, derived_algebra(UT))
    proj = ChainProjections(UT, chain)
    assert collapse_identity_residual(proj) < 1e-12
    rng = np.random.default_rng(7)
    filt0 = proj[0].P.T @ proj[0].P
    for i in range(1, len(proj)):
        filt = proj[i - 1].P.T @ proj[i - 1].P
        for _ in range(100):
            x = rng.standard_normal(6)
            assert np.linalg.norm(filt0 @ (filt @ x) - filt0 @ x) < 1e-12
