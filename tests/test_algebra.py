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
                             lower_central_series, nilpotent_upper, orthonormal_basis, sl2,
                             subspace_bracket, upper_triangular6)
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
            old_C = np.einsum("ai,bj,ijk,ck->abc", ctx.iota.T, ctx.iota.T, alg.C, ctx.P)
            np.testing.assert_allclose(quotient_algebra(ctx).C, old_C, rtol=0, atol=1e-13)


def test_jacobi_residual_matches_einsum_formula():
    rng = np.random.default_rng(6)
    C = rng.standard_normal((5, 5, 5))
    C = C - C.transpose(1, 0, 2)  # antisymmetric, but not a Lie algebra
    t1 = np.einsum("ijl,lkm->ijkm", C, C)
    ref = np.max(np.abs(t1 + np.transpose(t1, (1, 2, 0, 3)) + np.transpose(t1, (2, 0, 1, 3))))
    with pytest.raises(InvalidAlgebra, match=re.escape(f"max residual {ref:.3e}")):
        LieAlgebra(C)


def reference_rep_residual(alg) -> float:
    """``rep_residual`` as three einsums (the formula the matrix products replaced)."""
    rep = alg.matrix_rep
    comm = np.einsum("iab,jbc->ijac", rep, rep) - np.einsum("jab,ibc->ijac", rep, rep)
    return float(np.max(np.abs(comm - np.einsum("ijk,kab->ijab", alg.C, rep))))


def test_rep_residual_matches_einsum_formula():
    rng = np.random.default_rng(12)
    algebras = list(catalog_algebras().values()) + [nilpotent_upper(m) for m in (2, 5, 8)]
    for alg in algebras:
        assert alg.rep_residual() == 0.0 == reference_rep_residual(alg), alg.name
        for m in (1, 3, 5):
            alg.matrix_rep = rng.standard_normal((alg.dim, m, m))  # realizes nothing
            assert alg.rep_residual() == pytest.approx(reference_rep_residual(alg), rel=1e-13)
    for alg in catalog_algebras().values():  # one entry off, below the diagonal
        rep = alg.matrix_rep.copy()
        rep[0, -1, 0] += 1.0
        with pytest.raises(InvalidAlgebra, match="matrix_rep commutators"):
            LieAlgebra(alg.C, labels=alg.labels, matrix_rep=rep)


def test_nilpotent_upper_nilindex():
    for m in range(3, 8):
        alg = nilpotent_upper(m)
        assert alg.dim == m * (m - 1) // 2
        assert alg.rep_residual() == 0.0
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
