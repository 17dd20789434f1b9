import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import liestab.algebra as algebra_module
import liestab.dynamics as dynamics_module
from liestab.algebra import (AlgebraLoadError, DimensionMismatch, InvalidAlgebra,
                             LieAlgebra, Subspace, abelian, algebra_from_dict, algebra_to_dict,
                             bracket_constant, catalog_algebras, derived_algebra,
                             derived_series, heisenberg, is_nilpotent, is_solvable,
                             lower_central_series, nilpotent_upper, orthonormal_basis,
                             realized_algebra, sl2, subspace_bracket, upper_triangular6)
from liestab.dynamics import WordSeriesSystem
from liestab.quotient import QuotientContext, quotient_algebra


def span_equal(alg, sub, labels):
    expected = alg.span_labels(labels)
    return sub.contains(expected) and expected.contains(sub)


def test_catalog_valid():
    for name, alg in catalog_algebras().items():
        assert alg.jacobi_residual() < 1e-12, name
        assert alg.rep_residual() < 1e-10, name


def test_bracket_values():
    alg = heisenberg()
    np.testing.assert_allclose(alg.bracket(alg.basis_vector("h1"), alg.basis_vector("h2")),
                               -alg.basis_vector("h3"), atol=1e-15)
    ut = upper_triangular6()
    np.testing.assert_allclose(ut.bracket(ut.basis_vector("t4"), ut.basis_vector("t5")),
                               ut.basis_vector("t6"), atol=1e-15)


def test_bracket_antisymmetry_random():
    alg = upper_triangular6()
    rng = np.random.default_rng(0)
    for _ in range(200):
        x = rng.uniform(-1, 1, 6)
        y = rng.uniform(-1, 1, 6)
        np.testing.assert_allclose(alg.bracket(x, y), -alg.bracket(y, x), atol=1e-14)
        assert np.linalg.norm(alg.bracket(x, x)) < 1e-14


def test_bracket_dimension_mismatch():
    alg = heisenberg()
    with pytest.raises(DimensionMismatch):
        alg.bracket([1.0, 0.0], [0.0, 1.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=9, max_size=9))
def test_jacobi_identity_on_elements(vals):
    alg = heisenberg()
    x, y, z = np.array(vals[0:3]), np.array(vals[3:6]), np.array(vals[6:9])
    resid = (alg.bracket(alg.bracket(x, y), z)
             + alg.bracket(alg.bracket(y, z), x)
             + alg.bracket(alg.bracket(z, x), y))
    assert np.linalg.norm(resid) < 1e-9 * max(1.0, np.linalg.norm(x) * np.linalg.norm(y) * np.linalg.norm(z))


def test_jacobi_residual_random_elements():
    # coords in [-1, 1], 1000 samples per catalog algebra
    rng = np.random.default_rng(1)
    for name, alg in catalog_algebras().items():
        d = alg.dim
        for _ in range(1000 // 4):
            x, y, z = rng.uniform(-1, 1, (3, d))
            resid = (alg.bracket(alg.bracket(x, y), z)
                     + alg.bracket(alg.bracket(y, z), x)
                     + alg.bracket(alg.bracket(z, x), y))
            assert np.linalg.norm(resid) < 1e-12, name


def test_subspace_bracket_spans():
    alg = heisenberg()
    full = alg.full_subspace()
    assert span_equal(alg, subspace_bracket(alg, full, full), ["h3"])
    zero = alg.span([])
    assert subspace_bracket(alg, full, zero).dim == 0
    ut = upper_triangular6()
    assert span_equal(ut, subspace_bracket(ut, ut.full_subspace(), ut.full_subspace()),
                      ["t4", "t5", "t6"])


def test_derived_series_chains():
    alg = heisenberg()
    chain = derived_series(alg)
    assert chain.dims == [3, 1, 0]
    assert span_equal(alg, chain.ideals[1], ["h3"])
    assert derived_series(abelian(5)).dims == [5, 0]
    ut = upper_triangular6()
    chain = derived_series(ut)
    assert chain.dims == [6, 3, 1, 0]
    assert span_equal(ut, chain.ideals[1], ["t4", "t5", "t6"])
    assert span_equal(ut, chain.ideals[2], ["t6"])


def test_lower_central_series_chains():
    alg = heisenberg()
    chain = lower_central_series(alg)
    assert chain.dims == [3, 1, 0]
    ut = upper_triangular6()
    h = derived_algebra(ut)
    chain = lower_central_series(ut, h)
    assert chain.dims == [3, 1, 0]
    assert span_equal(ut, chain.ideals[1], ["t6"])
    assert lower_central_series(abelian(4)).dims == [4, 0]
    # the full upper-triangular algebra stabilizes at its derived algebra
    chain = lower_central_series(ut)
    assert not chain.terminated
    assert chain.dims[-1] == 3


def test_classification():
    assert is_solvable(heisenberg()) == (True, 1)
    assert is_solvable(abelian(3)) == (True, 0)
    assert is_solvable(upper_triangular6()) == (True, 2)
    assert is_solvable(sl2()) == (False, None)
    assert is_nilpotent(heisenberg()) == (True, 2)
    assert is_nilpotent(abelian(4)) == (True, 1)
    assert is_nilpotent(upper_triangular6()) == (False, None)
    ut = upper_triangular6()
    assert is_nilpotent(ut, derived_algebra(ut)) == (True, 2)


def test_solvable_iff_derived_algebra_nilpotent():
    for name, alg in catalog_algebras().items():
        solvable, _ = is_solvable(alg)
        nil, _ = is_nilpotent(alg, derived_algebra(alg))
        assert solvable == nil, name


def test_strong_centrality_of_lower_central_series():
    # [h^(i), h^(j)] contained in h^(i+j) along every catalog chain
    cases = [(heisenberg(), None), (abelian(3), None)]
    ut = upper_triangular6()
    cases.append((ut, derived_algebra(ut)))
    for alg, start in cases:
        chain = lower_central_series(alg, start)
        ideals = chain.ideals
        for i in range(1, len(ideals) + 1):
            for j in range(1, len(ideals) + 1):
                si = ideals[min(i, len(ideals)) - 1]
                sj = ideals[min(j, len(ideals)) - 1]
                target = ideals[min(i + j, len(ideals)) - 1]
                prod = subspace_bracket(alg, si, sj)
                assert target.contains(prod, tol=1e-10)


def test_bracket_constant_kinds():
    assert bracket_constant(abelian(3)) == 0.0


def sampled_bracket_sup(alg) -> float:
    """Largest ||[x, y]|| over 2000 seeded random unit pairs, sharpened by up to 60 steps of
    alternating singular-vector ascent: a lower estimate of the best mu, never above it."""
    d = alg.dim
    if d == 0 or np.max(np.abs(alg.C)) == 0.0:
        return 0.0
    rng = np.random.default_rng(0)
    xs = rng.standard_normal((2000, d))
    ys = rng.standard_normal((2000, d))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    ys /= np.linalg.norm(ys, axis=1, keepdims=True)
    vals = np.linalg.norm(alg.bracket_many(xs, ys), axis=1)
    best = float(np.max(vals))
    x, y = xs[int(np.argmax(vals))], ys[int(np.argmax(vals))]
    # for fixed x the map y -> [x, y] is linear, so the best y is its top right-singular
    # vector, and symmetrically for x
    for _ in range(60):
        y = np.linalg.svd(alg.ad(x))[2][0]
        x = np.linalg.svd(alg.bracket_many(np.eye(d), y).T)[2][0]  # columns: [e_i, y]
        cur = float(np.linalg.norm(alg.bracket(x, y)))
        if cur <= best * (1 + 1e-12):
            return max(best, cur)
        best = cur
    return best


def test_bracket_constant_is_above_the_sampled_supremum():
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(m) for m in range(3, 13)]
    for alg in algebras:
        assert sampled_bracket_sup(alg) <= bracket_constant(alg), alg.name


def test_bracket_constant_pinned_values():
    guard = algebra_module.MU_GUARD
    expected = {"heisenberg": 1.0, "sl2": 2.0, "upper-triangular-6": np.sqrt(2.0), "abelian-3": 0.0}
    expected |= {f"nilpotent-upper-{m}": np.sqrt(2.0) for m in range(4, 13)}
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(m) for m in range(4, 13)]
    for alg in algebras:
        want = expected[alg.name]
        assert want <= bracket_constant(alg) <= want * (1 + 2 * guard), alg.name


def test_gram_guard_covers_the_inner_product_length():
    # each entry of the realization Gram of nilpotent_upper(12) is an inner product of length
    # m^2 = 144, so its eigenvalues can err by d gamma_144 lam_max = 1.06e-12 lam_max
    alg = nilpotent_upper(12)
    guard = alg._realization[3]
    assert guard == algebra_module._gram_guard(66, 144) > 1.05e-12 > algebra_module.MU_GUARD
    # the Gram is the identity, and the winning bound sqrt 2 / sqrt(1 - g) is raised by 1 + g
    assert bracket_constant(alg) >= np.sqrt(2.0) * (1.0 + 1.5 * 1.05e-12)
    # the unfolding Grams (length d^2) pass the floor from d = 21 on
    assert algebra_module._gram_guard(20, 400) == algebra_module.MU_GUARD < algebra_module._gram_guard(21, 441)


def test_bracket_constant_covers_the_representation_defect():
    # a realization shrunk by 1e-11 passes the rep_residual check; without its defect term
    # the Gram bound would be sqrt 2 (1 - 1e-11), below ||[t4, (t1 - t2) / sqrt 2]|| = sqrt 2
    ut = upper_triangular6()
    alg = LieAlgebra(ut.C, labels=ut.labels, matrix_rep=(1 - 1e-11) * ut.matrix_rep)
    assert 0 < alg.rep_residual() <= algebra_module.REP_TOL
    x, y = alg.element(t4=1.0), alg.element(t1=1.0, t2=-1.0) / np.sqrt(2.0)
    assert np.linalg.norm(alg.bracket(x, y)) == pytest.approx(np.sqrt(2.0), rel=1e-15)
    assert np.linalg.norm(alg.bracket(x, y)) <= bracket_constant(alg)


def test_bracket_constant_bounds_hold():
    rng = np.random.default_rng(2)
    for name, alg in catalog_algebras().items():
        mu = bracket_constant(alg)
        d = alg.dim
        x = rng.standard_normal((10_000, d))
        y = rng.standard_normal((10_000, d))
        lhs = np.linalg.norm(np.einsum("si,sj,ijk->sk", x, y, alg.C), axis=1)
        rhs = mu * np.linalg.norm(x, axis=1) * np.linalg.norm(y, axis=1)
        assert np.all(lhs <= rhs + 1e-12), name


def test_frobenius_bound_on_matrix_realization():
    # sqrt(2) bound for the Frobenius norm of commutators, any matrix algebra
    rng = np.random.default_rng(3)
    for name, alg in catalog_algebras().items():
        rep = alg.matrix_rep
        for _ in range(500):
            x = np.einsum("i,iab->ab", rng.standard_normal(alg.dim), rep)
            y = np.einsum("i,iab->ab", rng.standard_normal(alg.dim), rep)
            comm = x @ y - y @ x
            bound = np.sqrt(2) * np.linalg.norm(x, "fro") * np.linalg.norm(y, "fro")
            assert np.linalg.norm(comm, "fro") <= bound + 1e-12, name


def test_invalid_structure_constants_rejected():
    C = np.zeros((2, 2, 2))
    C[0, 1, 0] = 1.0  # not antisymmetric: mirror entry missing
    with pytest.raises(InvalidAlgebra):
        LieAlgebra(C)
    # antisymmetric but violating Jacobi: [[e1,e2],e3]+[[e2,e3],e1]+[[e3,e1],e2] = -e3
    C = np.zeros((3, 3, 3))
    C[0, 1, 2] = 1.0
    C[1, 0, 2] = -1.0
    C[0, 2, 0] = 1.0
    C[2, 0, 0] = -1.0
    with pytest.raises(InvalidAlgebra):
        LieAlgebra(C)


def test_json_roundtrip_and_errors():
    for alg in (heisenberg(), upper_triangular6(), sl2()):
        again = algebra_from_dict(algebra_to_dict(alg))
        np.testing.assert_allclose(again.C, alg.C, atol=0)
        assert again.labels == alg.labels
    data = {"dim": 3, "labels": ["a", "b", "c"],
            "brackets": [{"i": "a", "j": "b", "coeffs": {"c": -1.0}}]}
    alg = algebra_from_dict(data)
    np.testing.assert_allclose(alg.bracket(alg.basis_vector("a"), alg.basis_vector("b")),
                               -alg.basis_vector("c"))
    with pytest.raises(AlgebraLoadError):
        algebra_from_dict({"dim": 2, "labels": ["a", "b"],
                           "brackets": [{"i": "a", "j": "b", "coeffs": {"a": 1.0}},
                                        {"i": "b", "j": "a", "coeffs": {"a": 1.0}}]})
    with pytest.raises(AlgebraLoadError):
        algebra_from_dict({"dim": 2, "labels": ["a", "b"],
                           "brackets": [{"i": "a", "j": "z", "coeffs": {"a": 1.0}}]})
    with pytest.raises(AlgebraLoadError):
        algebra_from_dict({"dim": 1, "labels": ["a"],
                           "brackets": [{"i": "a", "j": "a", "coeffs": {"a": 1.0}}]})
    with pytest.raises(AlgebraLoadError):
        algebra_from_dict({"labels": ["a"]})
    # a null optional field is an absent one, as it was when the loader read fields by data.get
    plain = algebra_from_dict(data | {"matrix_rep": None, "name": None})
    assert plain.matrix_rep is None and plain.name == ""
    assert algebra_from_dict({"dim": 2, "labels": None, "brackets": None}).labels == ["e1", "e2"]
    with pytest.raises(AlgebraLoadError, match=r"^field 'dim' has wrong type \(NoneType\)$"):
        algebra_from_dict({"dim": None})


def kernel_cases():
    return list(catalog_algebras().values()) + [nilpotent_upper(5)]


def test_bracket_many_matches_reference_einsum():
    rng = np.random.default_rng(4)
    for alg in kernel_cases():
        def ref(x, y):
            return np.einsum("...i,...j,ijk->...k", x, y, alg.C)
        x, y = rng.standard_normal((2, alg.dim))
        X, Y = rng.standard_normal((2, 7, alg.dim))
        np.testing.assert_allclose(alg.bracket_many(x, y), ref(x, y), rtol=0, atol=1e-13)
        np.testing.assert_allclose(alg.bracket_many(X, Y), ref(X, Y), rtol=0, atol=1e-13)
        pairs = alg.bracket_many(X[:, None], Y[None, :5])
        assert pairs.shape == (7, 5, alg.dim)
        np.testing.assert_allclose(pairs, ref(X[:, None], Y[None, :5]), rtol=0, atol=1e-13)
        np.testing.assert_allclose(alg.ad(x), np.einsum("i,ijk->kj", x, alg.C), rtol=0, atol=1e-13)
        np.testing.assert_allclose(alg.ad_many(X), np.einsum("bi,ijk->bkj", X, alg.C), rtol=0, atol=1e-13)


def complex_gemm_ad(alg, X):
    """ad_many's complex reference: the complex GEMM of X against a complex copy of C."""
    XC = X @ alg.C.reshape(alg.dim, -1).astype(complex)
    return XC.reshape(X.shape[:-1] + (alg.dim, alg.dim)).swapaxes(-1, -2)


def test_ad_many_of_a_complex_stack_skips_zero_parts_and_propagates_non_finite_entries():
    rng = np.random.default_rng(6)
    for alg in kernel_cases():
        d = alg.dim
        X = np.empty((6, d), dtype=complex)
        X.real, X.imag = -0.0, rng.standard_normal((6, d))  # a part of zeros, signed
        got = alg.ad_many(X)
        assert got.dtype == complex and not got.real.any() and got.shape == (6, d, d)
        assert np.array_equal(got.imag, alg.ad_many(X.imag)) and np.array_equal(got, complex_gemm_ad(alg, X))
        X.real, X.imag = rng.standard_normal((6, d)), 0.0
        assert np.array_equal(alg.ad_many(X).real, alg.ad_many(X.real)) and not alg.ad_many(X).imag.any()
        X.imag = rng.standard_normal((6, d))  # both parts: the complex GEMM's products, summed alike
        ref = complex_gemm_ad(alg, X)
        assert np.abs(alg.ad_many(X) - ref).max() <= 4 * 2.0 ** -52 * np.abs(ref).max()
        assert not alg.ad_many(np.zeros((2, d), dtype=complex)).any()
        # a part holding NaN or inf is non-zero: a row with one comes back not finite, the others as before
        X[1, 0], X[2, d - 1] = complex(np.nan, 1.0), complex(-np.inf, 0.0)
        X[3].real, X[3, 0] = 0.0, complex(0.0, np.inf)
        X[4].real, X[4, d - 1] = -0.0, complex(-0.0, np.nan)
        with np.errstate(invalid="ignore"):
            got, ref = alg.ad_many(X), complex_gemm_ad(alg, X)
        finite = np.isfinite(ref)
        assert np.array_equal(np.isfinite(got), finite) and not finite[1:5].any() and finite[[0, 5]].all()
        assert np.abs(got[finite] - ref[finite]).max() <= 4 * 2.0 ** -52 * np.abs(ref[finite]).max()
        for bad in (complex(np.nan, 0.0), complex(0.0, -np.inf)):  # a part whose one non-zero is bad
            Y = np.zeros((2, d), dtype=complex)
            Y[0, 0] = bad
            with np.errstate(invalid="ignore"):
                got, ref = alg.ad_many(Y), complex_gemm_ad(alg, Y)
            assert np.array_equal(np.isfinite(got), np.isfinite(ref)) and not np.isfinite(got[0]).any()
            assert not got[1].any()


def test_subspace_bracket_and_quotient_match_einsum_formulas():
    rng = np.random.default_rng(5)
    for alg in kernel_cases():
        d = alg.dim
        s1 = Subspace(rng.standard_normal((d, min(2, d))))
        s2 = Subspace(rng.standard_normal((d, min(3, d))))
        prods = np.einsum("ia,jb,ijk->kab", s1.onb, s2.onb, alg.C).reshape(d, -1)
        old = Subspace(orthonormal_basis(prods), already_orthonormal=True)
        new = subspace_bracket(alg, s1, s2)
        assert new.dim == old.dim
        np.testing.assert_allclose(new.projector(), old.projector(), rtol=0, atol=1e-13)
        for ideal in derived_series(alg).ideals[1:] + lower_central_series(alg).ideals[1:]:
            ctx = QuotientContext(alg, ideal)
            old_C = np.einsum("ai,bj,ijk,ck->abc", ctx.P, ctx.P, alg.C, ctx.P)
            np.testing.assert_allclose(quotient_algebra(ctx).C, old_C, rtol=0, atol=1e-13)


def plain_svd_bracket(alg, s1, s2) -> np.ndarray:
    """Orthonormal basis of [s1, s2] from the plain SVD of the broadcast all-pairs stack; a
    stack with no entry above RANK_TOL ||C||_F spans 0."""
    prods = alg.bracket_many(s1.onb.T[:, None], s2.onb.T[None]).reshape(-1, alg.dim).T
    tol = algebra_module.RANK_TOL
    if not np.abs(prods).max(initial=0.0) > tol * np.linalg.norm(alg.C):
        return prods[:, :0]
    u, s, _ = np.linalg.svd(prods, full_matrices=False)
    return u[:, :int(np.sum(s > tol * s[0]))]


def rotated(alg, rng):
    """``alg`` in a random orthonormal basis: its realization rotated, so its constants are
    no longer 0 or 1."""
    Q = np.linalg.qr(rng.standard_normal((alg.dim, alg.dim)))[0]
    return realized_algebra(np.einsum("ai,abc->ibc", Q, alg.matrix_rep), alg.labels, alg.name + "-rotated")


def test_subspace_bracket_rank_matches_plain_svd():
    rng = np.random.default_rng(21)
    algebras = (list(catalog_algebras().values()) + [nilpotent_upper(m) for m in range(4, 15)]
                + [rotated(upper_triangular6(), rng), rotated(nilpotent_upper(6), rng)])
    for alg in algebras:
        full = Subspace.full(alg.dim)
        g1 = Subspace(plain_svd_bracket(alg, full, full), already_orthonormal=True)
        # the derived series, the central series and the central series of [g, g]
        for start, derived in ((full, True), (full, False), (g1, False)):
            cur = start
            while cur.dim:
                want = plain_svd_bracket(alg, cur, cur if derived else start)
                got = subspace_bracket(alg, cur, cur if derived else start)
                assert got.dim == want.shape[1], alg.name
                np.testing.assert_allclose(got.projector(), want @ want.T, rtol=0, atol=1e-12)
                if want.shape[1] == cur.dim:
                    break
                cur = Subspace(want, already_orthonormal=True)


def test_rotated_bases_classify_like_the_originals():
    # a bracket that vanishes computes as rounding noise, from which the relative rank rule
    # alone reads a rank: the central series of the rotated nilpotent_upper(6) would not end,
    # and the rotated upper_triangular6 would not be solvable
    rng = np.random.default_rng(23)
    for alg in (heisenberg(), upper_triangular6(), nilpotent_upper(6)):
        rot = rotated(alg, rng)
        assert is_nilpotent(rot) == is_nilpotent(alg) and is_solvable(rot) == is_solvable(alg), alg.name
        assert rot.central_chain.dims == alg.central_chain.dims, alg.name
        assert rot.derived_chain.dims == alg.derived_chain.dims, alg.name


def test_rank_at_the_cutoff_matches_plain_svd():
    # a 6 x 400 stack (reduced through its R factor) with singular values 1e-3 of RANK_TOL above
    # and below the cutoff, and an exact zero
    rng = np.random.default_rng(22)
    U, V = np.linalg.qr(rng.standard_normal((6, 6)))[0], np.linalg.qr(rng.standard_normal((400, 6)))[0]
    tol = algebra_module.RANK_TOL
    stack = (U * [1.0, 0.4, 1e-5, (1 + 1e-3) * tol, (1 - 1e-3) * tol, 0.0]) @ V.T
    s = np.linalg.svd(stack, compute_uv=False)
    assert orthonormal_basis(stack).shape[1] == int(np.sum(s > tol * s[0])) == 4


def plain_svd_basis(stack):
    """``orthonormal_basis`` through the plain SVD of the whole stack, zero columns kept."""
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    return u[:, :int(np.sum(s > algebra_module.RANK_TOL * s[0]))] if s.size and s[0] else u[:, :0]


def test_zero_columns_leave_the_span_and_small_stacks_alone(monkeypatch):
    rng = np.random.default_rng(23)
    qr_widths = []  # the width of every stack that reaches the QR
    qr = np.linalg.qr

    def recording_qr(a, mode):
        qr_widths.append(a.shape[0])
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recording_qr)
    # 20 x 200 with 12 non-zero columns of rank 8: narrower than tall once they go, so the
    # plain SVD runs on them and the QR never does
    wide = np.zeros((20, 200))
    wide[:, rng.choice(200, 12, replace=False)] = rng.standard_normal((20, 8)) @ rng.standard_normal((8, 12))
    got, ref = orthonormal_basis(wide), plain_svd_basis(wide)
    assert qr_widths == []
    assert got.shape[1] == ref.shape[1] == 8
    # 60 non-zero columns stay wider than tall: the QR sees those 60 only
    wide[:, rng.choice(200, 60, replace=False)] = rng.standard_normal((20, 60))
    nonzero = int(wide.any(axis=0).sum())
    got, ref = orthonormal_basis(wide), plain_svd_basis(wide)
    assert qr_widths == [nonzero] and nonzero < 200
    assert got.shape[1] == ref.shape[1] == 20
    np.testing.assert_allclose(got @ got.T, ref @ ref.T, rtol=0, atol=1e-12)
    assert orthonormal_basis(np.zeros((20, 200))).shape == (20, 0)
    # at most 1000 entries the stack goes to the SVD as it is, zero columns and all: bit for bit
    # at rank 2, where the rows outnumber the rank; at full rank the span is all of R^d
    for shape in ((6, 36), (10, 100), (3, 300)):
        small = rng.standard_normal(shape)
        small[:, ::3] = 0.0
        got, ref = orthonormal_basis(small), plain_svd_basis(small)
        np.testing.assert_allclose(got @ got.T, ref @ ref.T, rtol=0, atol=1e-12)
        low = rng.standard_normal((shape[0], 2)) @ small[:2]
        assert np.array_equal(orthonormal_basis(low), plain_svd_basis(low)), shape
    assert qr_widths == [nonzero]


def test_exact_axes_where_the_nonzero_rows_number_the_rank():
    rng = np.random.default_rng(31)
    # full rank, through the plain SVD and through the R-SVD: the identity
    for shape in ((5, 3 * 5), (8, 200)):
        assert np.array_equal(orthonormal_basis(rng.standard_normal(shape)), np.eye(shape[0])), shape
    # rank 3 on rows 1, 4 and 6 of 9, narrow and wide (zero columns mixed in): those axes
    for width in (6, 300):
        stack = np.zeros((9, width))
        stack[[1, 4, 6], ::2] = rng.standard_normal((3, (width + 1) // 2))
        assert np.array_equal(orthonormal_basis(stack), np.eye(9)[:, [1, 4, 6]]), width
    # e1 + e2 spans no coordinate plane: two non-zero rows, rank 1, the singular vector
    line = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
    got = orthonormal_basis(line)
    assert np.array_equal(got, plain_svd_basis(line)) and got.shape == (3, 1)
    np.testing.assert_allclose(got @ got.T, [[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 0.0]], rtol=0, atol=1e-15)
    # [g, g] of a rotated Heisenberg algebra: rank 1 with no zero row, left to the SVD bit for bit
    rot = rotated(heisenberg(), rng)
    full = rot.ad_many(np.eye(3)).swapaxes(0, 1).reshape(3, -1)
    assert full.any(axis=1).all()
    got = orthonormal_basis(full)
    assert np.array_equal(got, plain_svd_basis(full)) and got.shape == (3, 1)


def test_jacobi_residual_matches_einsum_formula():
    rng = np.random.default_rng(6)
    C = rng.standard_normal((5, 5, 5))
    C = C - C.transpose(1, 0, 2)  # antisymmetric, but not a Lie algebra
    t1 = np.einsum("ijl,lkm->ijkm", C, C)
    ref = np.max(np.abs(t1 + np.transpose(t1, (1, 2, 0, 3)) + np.transpose(t1, (2, 0, 1, 3))))
    with pytest.raises(InvalidAlgebra, match=re.escape(f"max residual {ref:.3e}")):
        LieAlgebra(C)


def reference_rep_residual(C, rep) -> float:
    """``rep_residual`` as three einsums (the formula the matrix products replaced)."""
    comm = np.einsum("iab,jbc->ijac", rep, rep) - np.einsum("jab,ibc->ijac", rep, rep)
    return float(np.max(np.abs(comm - np.einsum("ijk,kab->ijab", C, rep))))


def test_rep_residual_matches_einsum_formula():
    rng = np.random.default_rng(12)
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(m) for m in (2, 5, 8)]
    for alg in algebras:
        assert alg.rep_residual() == 0.0 == reference_rep_residual(alg.C, alg.matrix_rep), alg.name
        for m in (1, 3, 5):
            rep = rng.standard_normal((alg.dim, m, m))  # realizes nothing; the kernel of rep_residual
            for frobenius in (False, True):
                assert alg._defect(rep, frobenius)[0] == pytest.approx(reference_rep_residual(alg.C, rep), rel=1e-13)
    for alg in catalog_algebras().values():  # one entry off, below the diagonal
        rep = alg.matrix_rep.copy()
        rep[0, -1, 0] += 1.0
        with pytest.raises(InvalidAlgebra, match="matrix_rep commutators"):
            LieAlgebra(alg.C, labels=alg.labels, matrix_rep=rep)


def cyclic_jacobi_residual(C) -> float:
    """Max-norm residual of the three-term cyclic Jacobi sum, straight from the definition."""
    t1 = np.einsum("ijl,lkm->ijkm", C, C)
    return float(np.max(np.abs(t1 + np.transpose(t1, (1, 2, 0, 3)) + np.transpose(t1, (2, 0, 1, 3)))))


def test_jacobi_residual_is_the_cyclic_sum_over_every_block():
    # d = 28 runs the kernel in blocks of 11, 11 and 6 values of i; scaled by 1e-8, a
    # random antisymmetric C breaks Jacobi by ~1e-15 and so passes validation
    rng = np.random.default_rng(13)
    C = rng.standard_normal((28, 28, 28))
    C = 1e-8 * (C - C.transpose(1, 0, 2))
    ref = cyclic_jacobi_residual(C)
    assert 0 < ref < algebra_module.JACOBI_TOL
    assert LieAlgebra(C).jacobi_residual() == pytest.approx(ref, rel=1e-12)


def test_jacobi_violation_in_the_last_block_is_rejected():
    # the violating triple of the three-dimensional case, moved onto e26, e27, e28 of an
    # otherwise abelian algebra: only the last block of i meets it
    d = 28
    C = np.zeros((d, d, d))
    C[d - 3, d - 2, d - 1], C[d - 2, d - 3, d - 1] = 1.0, -1.0
    C[d - 3, d - 1, d - 3], C[d - 1, d - 3, d - 3] = 1.0, -1.0
    assert cyclic_jacobi_residual(C) == 1.0
    with pytest.raises(InvalidAlgebra, match=re.escape("Jacobi identity violated (max residual 1.000e+00)")):
        LieAlgebra(C)


def test_series_run_past_64_terms():
    # the filiform algebra [e1, e_i] = e_(i+1), i = 2..65, has nilindex 65
    d = 66
    C = np.zeros((d, d, d))
    for i in range(1, d - 1):
        C[0, i, i + 1], C[i, 0, i + 1] = 1.0, -1.0
    alg = LieAlgebra(C)
    assert is_nilpotent(alg) == (True, 65)
    assert lower_central_series(alg).dims == [66] + list(range(64, -1, -1))
    assert WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(d)).nilindex == 65


def test_nilpotent_upper_nilindex():
    for m in (*range(3, 8), 12):
        alg = nilpotent_upper(m)
        assert alg.dim == m * (m - 1) // 2
        assert alg.rep_residual() == 0.0 == alg.jacobi_residual()
        assert is_nilpotent(alg) == (True, m - 1)
        assert is_solvable(alg)[0]


def test_invariants_computed_once(monkeypatch):
    calls = {"subspace_bracket": 0, "lower_central_series": 0}

    def counting(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    counting(algebra_module, "subspace_bracket")
    for module in (algebra_module, dynamics_module):
        counting(module, "lower_central_series")
    alg = nilpotent_upper(5)
    first = (is_nilpotent(alg), is_solvable(alg), derived_algebra(alg))
    done = calls["subspace_bracket"]
    assert done > 0
    again = (is_nilpotent(alg), is_solvable(alg), derived_algebra(alg))
    assert calls["subspace_bracket"] == done
    assert again[:2] == first[:2] and again[2] is first[2]
    # building a system runs the lower central series once; the whole
    # algebra's series is cached on it, so a second system reuses it
    n4, ut = nilpotent_upper(4), upper_triangular6()
    for alg, start, p in ((n4, None, 3), (ut, derived_algebra(ut), 2)):
        calls["lower_central_series"] = 0
        assert WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(alg.dim), invariance_ideal=start).nilindex == p
        assert calls["lower_central_series"] == 1
    calls["lower_central_series"] = 0
    WordSeriesSystem(n4, 1, 1, 0.5 * np.eye(n4.dim))
    assert calls["lower_central_series"] == 0


def test_structure_constants_read_only():
    C = heisenberg().C.copy()
    alg = LieAlgebra(C)
    with pytest.raises(ValueError):
        alg.C[0, 1, 2] = 5.0
    C[0, 1, 2] = -1.0  # the caller's array stays writable: the algebra holds a copy


def reference_catalog_constants():
    """The structure constants the catalog used to state by hand, next to its realizations."""
    heis = np.zeros((3, 3, 3))
    heis[0, 1, 2], heis[1, 0, 2] = -1.0, 1.0  # [h1, h2] = -h3
    ut = np.zeros((6, 6, 6))
    for i, j, k, c in [(0, 3, 3, 1.0), (0, 5, 5, 1.0), (1, 3, 3, -1.0), (1, 4, 4, 1.0),
                       (2, 4, 4, -1.0), (2, 5, 5, -1.0), (3, 4, 5, 1.0)]:
        ut[i, j, k], ut[j, i, k] = c, -c
    s = np.zeros((3, 3, 3))
    s[0, 1, 2], s[1, 0, 2] = 1.0, -1.0  # [e, f] = h
    s[2, 0, 0], s[0, 2, 0] = 2.0, -2.0  # [h, e] = 2e
    s[2, 1, 1], s[1, 2, 1] = -2.0, 2.0  # [h, f] = -2f
    return {"heisenberg": heis, "upper-triangular-6": ut, "sl2": s, "abelian-3": np.zeros((3, 3, 3))}


def test_catalog_constants_are_read_off_the_realizations():
    cat = catalog_algebras()
    for name, C in reference_catalog_constants().items():
        assert np.array_equal(cat[name].C, C), name
        assert np.array_equal(np.signbit(cat[name].C), np.signbit(C)), name  # signs of zeros too
    for m in range(2, 13):
        # the old construction: commutators of the unit matrices, read at the (row, col) of each unit
        rows, cols = np.triu_indices(m, 1)
        rep = np.zeros((rows.size, m, m))
        rep[np.arange(rows.size), rows, cols] = 1.0
        comm = rep[:, None] @ rep[None] - rep[None] @ rep[:, None]
        alg = nilpotent_upper(m)
        assert np.array_equal(alg.C, comm[..., rows, cols]), m
        assert np.array_equal(np.signbit(alg.C), np.signbit(comm[..., rows, cols])), m
        assert np.array_equal(alg.matrix_rep, rep), m


def test_realization_outside_its_span_is_refused():
    # E12 and E21 alone: their commutator diag(1, -1) is no combination of them
    rep = np.zeros((2, 2, 2))
    rep[0, 0, 1] = rep[1, 1, 0] = 1.0
    with pytest.raises(InvalidAlgebra, match="matrix_rep commutators"):
        algebra_module.realized_algebra(rep, ["e", "f"], "not-closed")


# -- Jacobi from the realization ------------------------------------------------


def unvalidated(monkeypatch, C, rep):
    """An algebra on constants C and realization rep that need not agree (no validation)."""
    with monkeypatch.context() as patch:
        patch.setattr(LieAlgebra, "_validate", lambda self: None)
        return LieAlgebra(C, matrix_rep=rep)


def test_jacobi_bound_is_sound_for_perturbed_constants(monkeypatch):
    # the bound holds for any C against a fixed realization, antisymmetric or not
    rng = np.random.default_rng(14)
    for base in (upper_triangular6(), heisenberg(), sl2(), nilpotent_upper(4)):
        d = base.dim
        for draw in range(80):
            noise = rng.standard_normal((d, d, d)) * 10.0 ** rng.uniform(-13, -6)
            if draw % 2 == 0:
                noise -= noise.transpose(1, 0, 2)
            alg = unvalidated(monkeypatch, base.C + noise, base.matrix_rep)
            assert 0 < alg.jacobi_residual() <= alg.jacobi_bound(), (base.name, draw)


def test_jacobi_bound_skips_the_sweep_on_realized_algebras(monkeypatch):
    def refuse(self):
        raise AssertionError("jacobi_residual swept a realized algebra")
    monkeypatch.setattr(LieAlgebra, "jacobi_residual", refuse)
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(m) for m in range(4, 13)]
    for alg in algebras:
        assert alg.jacobi_bound() <= algebra_module.JACOBI_TOL / 6, alg.name


def test_jacobi_sweep_runs_without_a_proving_realization(monkeypatch):
    calls = []
    real = LieAlgebra.jacobi_residual

    def counting(self):
        calls.append(self)
        return real(self)
    monkeypatch.setattr(LieAlgebra, "jacobi_residual", counting)
    heis, ut = heisenberg(), upper_triangular6()
    assert calls == []
    quotient = quotient_algebra(QuotientContext(ut, derived_series(ut).ideals[2]))
    inline = algebra_from_dict(algebra_to_dict(heis) | {"matrix_rep": None})
    shrunk = LieAlgebra(ut.C, labels=ut.labels, matrix_rep=(1 - 1e-11) * ut.matrix_rep)
    # the zero realization of an abelian algebra is exact, but its Gram matrix is singular
    zero = LieAlgebra(np.zeros((3, 3, 3)), matrix_rep=np.zeros((3, 2, 2)))
    assert calls == [quotient, inline, shrunk, zero]
    assert quotient.jacobi_bound() == inline.jacobi_bound() == zero.jacobi_bound() == np.inf
    assert shrunk.jacobi_bound() > algebra_module.JACOBI_TOL


def test_constants_past_the_float_range_break_jacobi_by_name():
    # products of 1e160 overflow; inf - inf is NaN, which the residuals carry to the verdict
    s = sl2()
    with np.errstate(all="raise"):
        for rep in (None, 1e160 * s.matrix_rep):
            with pytest.raises(InvalidAlgebra, match=re.escape("Jacobi identity violated (max residual nan)")):
                LieAlgebra(1e160 * s.C, matrix_rep=rep)


def test_constants_and_realization_cannot_be_rebound():
    # a rebound realization once kept the validated one's cached residuals and Gram
    alg = heisenberg()
    for attr, value in (("C", np.zeros((3, 3, 3))), ("matrix_rep", None), ("matrix_rep", sl2().matrix_rep)):
        with pytest.raises(AttributeError):
            setattr(alg, attr, value)
    assert alg.rep_residual() == 0.0 and np.array_equal(alg.C, heisenberg().C)


def test_constants_need_a_finite_frobenius_norm():
    # Jacobi holds, but every bound scales by ||C||_F, whose Gram once raised LinAlgError
    C = heisenberg().C
    with np.errstate(all="raise"):
        for scale in (1e160, 1e308):
            with pytest.raises(InvalidAlgebra, match="structure constants must have a finite Frobenius norm"):
                LieAlgebra(scale * C)
        assert bracket_constant(LieAlgebra(1e100 * C)) == pytest.approx(1e100)


def test_mu_is_computed_once_per_algebra(monkeypatch):
    calls = []
    real = algebra_module.bracket_constant
    monkeypatch.setattr(algebra_module, "bracket_constant", lambda alg: calls.append(alg) or real(alg))
    alg = nilpotent_upper(4)
    first, second = (WordSeriesSystem(alg, 1, 1, 0.5 * np.eye(alg.dim)) for _ in range(2))
    assert first.mu() == second.mu() == alg.mu == real(alg) > 0
    assert calls == [alg]


def test_realization_is_read_only_and_its_kernel_runs_once(monkeypatch):
    calls = []
    real = LieAlgebra._defect

    def counting(self, R, frobenius=False):
        calls.append(frobenius)
        return real(self, R, frobenius)
    monkeypatch.setattr(LieAlgebra, "_defect", counting)
    n5 = nilpotent_upper(5)
    rep = n5.matrix_rep.copy()
    calls.clear()
    alg = LieAlgebra(n5.C, matrix_rep=rep)
    assert calls == [True]
    eigvalsh, grams = np.linalg.eigvalsh, []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda U: grams.append(U.shape) or eigvalsh(U))
    assert alg.rep_residual() == 0.0 and alg.jacobi_bound() > 0
    bracket_constant(alg)
    assert calls == [True] and len(grams) == 2  # the two unfoldings of C; the Gram is cached
    with pytest.raises(ValueError):
        alg.matrix_rep[0, 0, 1] = 2.0
    rep[0, 0, 1] = 2.0  # the caller's array stays writable: the algebra holds a copy
    assert alg.matrix_rep[0, 0, 1] == 1.0


# -- shared series brackets -------------------------------------------------------


def reference_series(alg, start, kind):
    """``_series`` with every bracket computed afresh."""
    chain = [start]
    while chain[-1].dim:
        nxt = subspace_bracket(alg, chain[-1], chain[-1] if kind == "derived-series" else start)
        if nxt.dim == chain[-1].dim:
            break
        chain.append(nxt)
    return chain


def test_shared_series_brackets_match_fresh_series():
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(m) for m in range(4, 13)]
    for alg in algebras:
        full = Subspace.full(alg.dim)
        derived = reference_series(alg, full, "derived-series")
        g1 = derived[min(1, len(derived) - 1)]
        cross = reference_series(alg, g1, "lower-central-series")
        central = reference_series(alg, full, "lower-central-series")
        assert is_nilpotent(alg) == ((True, len(central) - 1) if central[-1].dim == 0 else (False, None))
        want = (derived[-1].dim == 0, len(derived) - 2 if derived[-1].dim == 0 else None)
        assert is_solvable(alg) == want == alg.solvability, alg.name
        for got, ref in ((alg.derived_chain.ideals, derived), (alg.central_chain.ideals, central),
                         (lower_central_series(alg, derived_algebra(alg)).ideals, cross)):
            assert len(got) == len(ref), alg.name
            assert all(np.array_equal(a.onb, b.onb) for a, b in zip(got, ref)), alg.name


def test_series_compute_each_bracket_once(monkeypatch):
    # d = 45: the central series takes 9 brackets, the derived series 4 and the central series
    # of [g, g] 4; [g, g] opens the first two, and [g_1, g_1] is shared by the last two
    svds = []
    real = algebra_module.orthonormal_basis
    monkeypatch.setattr(algebra_module, "orthonormal_basis", lambda v: svds.append(v.shape) or real(v))
    alg = nilpotent_upper(10)
    assert is_nilpotent(alg) == (True, 9) and is_solvable(alg) == (True, 3)
    assert len(svds) == 15


def test_classification_at_d91():
    alg = nilpotent_upper(14)
    assert is_nilpotent(alg) == (True, 13) and is_solvable(alg) == (True, 3)
    assert alg.central_chain.dims[:4] == [91, 78, 66, 55]
