"""Matrix-model layer: bases, Killing forms, validated reductive packages.

Killing-form oracles are the closed trace forms, computed here from first
principles and compared against the library's ad-trace computation.
"""
import dataclasses
import functools

import numpy as np
import pytest
import scipy.linalg

from isofib import dynkin
from isofib.rootsys import SimpleType, build_root_system
from isofib.liealg import (
    _ALIASES,
    BlockFactor,
    MatrixAlgebra,
    _resolve,
    _validate_model,
    algebra_so,
    algebra_su,
    build_model,
    bracket,
    circle_generator,
    complexify,
    find_record,
    killing_form,
    matrix_exp,
    natural_reductivity_check,
    realify,
    so_basis,
    su_basis_complex,
)


@pytest.fixture(scope="module")
def su3_model():
    return build_model(find_record("su3-hopf"))


@pytest.fixture(scope="module")
def so6_model():
    return build_model(find_record("so6-stiefel"))


# --- realification and bases ---------------------------------------------------


def test_realify_roundtrip():
    rng = np.random.default_rng(0)
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(complexify(realify(Z)), Z)


def test_realify_is_an_algebra_map():
    rng = np.random.default_rng(1)
    Z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    W = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    assert np.allclose(realify(Z @ W), realify(Z) @ realify(W))


def test_realified_unitary_is_orthogonal():
    rng = np.random.default_rng(2)
    Z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    Q, _ = np.linalg.qr(Z)
    R = realify(Q)
    assert np.allclose(R @ R.T, np.eye(8), atol=1e-12)


def test_basis_dimensions():
    assert len(su_basis_complex(3)) == 8
    assert len(su_basis_complex(4)) == 15
    assert len(so_basis(6)) == 15
    assert algebra_su(3).dim == 8
    assert algebra_so(6).dim == 15


def test_su_basis_traceless_antihermitian():
    for Z in su_basis_complex(3):
        assert abs(np.trace(Z)) < 1e-14
        assert np.allclose(Z.conj().T, -Z)


# --- Killing form oracles --------------------------------------------------------


def test_killing_su2_diagonal_generator():
    # kappa(X, X) = 4 tr_C(X^2) for su(2); X = diag(i, -i) gives 4 * (-2) = -8
    a = algebra_su(2)
    X = realify(np.diag([1j, -1j]))
    assert killing_form(a, X, X) == pytest.approx(-8.0, abs=1e-9)


def test_killing_su3_closed_form():
    # kappa = 2m tr_C = m tr_R on the realification, m = 3
    a = algebra_su(3)
    rng = np.random.default_rng(3)
    for _ in range(5):
        X = a.from_coords(rng.normal(size=a.dim))
        Y = a.from_coords(rng.normal(size=a.dim))
        assert killing_form(a, X, Y) == pytest.approx(
            3.0 * np.trace(X @ Y), rel=1e-10, abs=1e-8
        )


def test_killing_so6_closed_form():
    # kappa = (n - 2) tr, n = 6
    a = algebra_so(6)
    rng = np.random.default_rng(4)
    for _ in range(5):
        X = a.from_coords(rng.normal(size=a.dim))
        Y = a.from_coords(rng.normal(size=a.dim))
        assert killing_form(a, X, Y) == pytest.approx(
            4.0 * np.trace(X @ Y), rel=1e-10, abs=1e-8
        )


def test_killing_so4_cross_ideal_vanishes():
    # so(4) splits into two commuting ideals; kappa pairs them to zero
    a = algebra_so(4)

    def rot(i, j):
        M = np.zeros((4, 4))
        M[i, j], M[j, i] = 1.0, -1.0
        return M

    plus = rot(0, 1) + rot(2, 3)
    minus = rot(0, 1) - rot(2, 3)
    assert abs(killing_form(a, plus, minus)) < 1e-10


def test_killing_ad_invariance():
    a = algebra_su(3)
    rng = np.random.default_rng(5)
    X, Y, Z = (a.from_coords(rng.normal(size=a.dim)) for _ in range(3))
    lhs = killing_form(a, bracket(X, Y), Z)
    rhs = -killing_form(a, Y, bracket(X, Z))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-8)


def test_killing_form_is_per_algebra_not_per_name():
    # algebras may share a name; each keeps the Gram matrix of its own basis
    so3 = algebra_so(3)
    L = so3.basis[0]
    assert killing_form(so3, L, L) == pytest.approx(-2.0, abs=1e-12)
    scaled = MatrixAlgebra(name=so3.name, n=3, basis=2.0 * so3.basis)
    assert killing_form(scaled, 2.0 * L, 2.0 * L) == pytest.approx(-8.0, abs=1e-12)
    bigger = MatrixAlgebra(name=so3.name, n=4, basis=algebra_so(4).basis)
    X = bigger.basis[0]
    # kappa = (n - 2) tr on so(4)
    assert killing_form(bigger, X, X) == pytest.approx(2.0 * np.trace(X @ X), abs=1e-12)


def test_killing_rejects_outsiders():
    a = algebra_su(2)
    with pytest.raises(ValueError, match="outside"):
        killing_form(a, np.eye(4), np.eye(4))


# --- circle generator -------------------------------------------------------------


def test_circle_generator_structure():
    z = circle_generator((2, -1, -1))
    zc = complexify(z)
    assert np.allclose(zc, 1j * np.diag([2.0, -1.0, -1.0]))
    assert abs(np.trace(zc)) < 1e-14


def test_circle_generator_period():
    z = circle_generator((2, -1, -1))
    assert np.allclose(matrix_exp(2 * np.pi * z), np.eye(6), atol=1e-10)
    assert not np.allclose(matrix_exp(np.pi * z), np.eye(6), atol=1e-3)


def test_matrix_exp_orthogonal_on_skew():
    rng = np.random.default_rng(6)
    A = rng.normal(size=(5, 5))
    S = A - A.T
    E = matrix_exp(S)
    assert np.allclose(E @ E.T, np.eye(5), atol=1e-12)


def _assert_orthogonal(E):
    eye = np.broadcast_to(np.eye(E.shape[-1]), E.shape)
    np.testing.assert_allclose(E @ np.swapaxes(E, -1, -2), eye, rtol=0, atol=1e-13)


def _assert_exp_matches_scipy(X):
    E = matrix_exp(X)
    assert E.shape == X.shape
    np.testing.assert_allclose(E, scipy.linalg.expm(X), rtol=0, atol=1e-13)
    _assert_orthogonal(E)


@pytest.mark.parametrize(
    "case_id",
    ["su3-hopf", "so6-stiefel", "su3-su1u2--k1-t1", "su4-su1u3--k1-0a2", "so8-so3so5--k1-0so3"],
)
def test_matrix_exp_matches_scipy_expm(case_id):
    model = build_model(find_record(case_id))
    rng = np.random.default_rng(41)
    for from_coords, d in ((model.from_m1_coords, model.dim_m1), (model.g.from_coords, model.dim_g)):
        _assert_exp_matches_scipy(from_coords(rng.normal(size=(12, d))))
        _assert_exp_matches_scipy(from_coords(rng.normal(size=d)))  # a single matrix
    _assert_exp_matches_scipy(np.zeros((model.n, model.n)))
    # one row far above theta_13 (1-norm 40: three squarings) beside a tiny
    # one.  There scipy's expm is itself off by up to ~1e-13 (against a
    # 40-digit reference, this exponential by ~1e-15), so the reference is
    # the spectral exp(X) = W exp(-i w) W^H of the Hermitian iX = W w W^H.
    X = model.from_m1_coords(rng.normal(size=(3, model.dim_m1)))
    X[0] *= 40.0 / np.abs(X[0]).sum(axis=0).max()
    X[2] *= 1e-9
    w, W = np.linalg.eigh(1j * X)
    ref = ((W * np.exp(-1j * w)[:, None, :]) @ np.swapaxes(W.conj(), 1, 2)).real
    np.testing.assert_allclose(matrix_exp(X), ref, rtol=0, atol=1e-13)
    _assert_orthogonal(matrix_exp(X))
    _assert_exp_matches_scipy(X[1:])
    # each matrix is scaled on its own: its result does not depend on the stack
    assert np.array_equal(matrix_exp(X)[2], matrix_exp(X[2]))


# --- validated models --------------------------------------------------------------


def test_su3_model_dimensions(su3_model):
    m = su3_model
    assert (m.dim_g, m.dim_k1, m.dim_k2, m.dim_m1, m.dim_m) == (8, 3, 1, 5, 4)
    assert m.n == 6 and m.complex_size == 3
    assert m.k1_factors == (BlockFactor("su", (1, 2)),)
    assert len(m.k2_factors) == 1 and m.k2_factors[0].kind == "circle"
    assert m.k2_factors[0].period == pytest.approx(2 * np.pi)


def test_so6_model_dimensions(so6_model):
    m = so6_model
    assert (m.dim_g, m.dim_k1, m.dim_k2, m.dim_m1, m.dim_m) == (15, 3, 3, 12, 9)
    assert m.n == 6 and m.complex_size == 0
    assert m.k1_factors == (BlockFactor("so", (0, 1, 2)),)
    assert m.k2_factors == (BlockFactor("so", (3, 4, 5)),)


def test_m1_basis_orthonormal(su3_model, so6_model):
    for m in (su3_model, so6_model):
        d = m.dim_m1
        G = np.array(
            [[m.kappa_ip(m.m1_basis[i], m.m1_basis[j]) for j in range(d)] for i in range(d)]
        )
        assert np.allclose(G, np.eye(d), atol=1e-9)


def test_m1_leads_with_k2_directions(su3_model):
    # the first m1 basis vector spans the circle direction
    z = su3_model.circle_mat
    e0 = su3_model.m1_basis[0]
    ip = su3_model.kappa_ip(e0, z)
    assert abs(abs(ip) - su3_model.m1_norm(z)) < 1e-8


def test_z_norm_is_six(su3_model):
    assert su3_model.m1_norm(su3_model.circle_mat) == pytest.approx(6.0, abs=1e-9)


def test_projection_idempotent(su3_model):
    rng = np.random.default_rng(7)
    X = su3_model.g.from_coords(rng.normal(size=8))
    P = su3_model.project_m1(X)
    assert np.allclose(su3_model.project_m1(P), P, atol=1e-10)


def test_natural_reductivity(su3_model, so6_model):
    assert natural_reductivity_check(su3_model) < 1e-9
    assert natural_reductivity_check(so6_model) < 1e-9


def test_su3_center_is_fiber_circle_sample(su3_model):
    # the nontrivial center elements sit on the circle subgroup
    z = su3_model.circle_mat
    omega = su3_model.center_elements[1]
    assert np.allclose(omega, matrix_exp(-2 * np.pi / 3 * z), atol=1e-10)


def test_so6_center(so6_model):
    assert len(so6_model.center_elements) == 2
    assert np.allclose(so6_model.center_elements[1], -np.eye(6))


def _side_dim(rec, side: tuple[int, ...]) -> int:
    """dim of a side of the record's splitting from rootsys: rank plus root
    count per component type, 1 for the circle."""
    dim = 0
    for i in side:
        if i == len(rec.k_component_types):
            dim += 1
        else:
            stype = SimpleType(*rec.k_component_types[i])
            dim += stype.rank + len(build_root_system(stype).all_roots)
    return dim


def test_every_model_builds_its_records_splitting():
    records = dynkin.catalog(dynkin.CatalogConfig(rank_cap=4)).records
    records = [r for r in records if r.model_available]
    assert len(records) == 26
    for rec in records:
        model = build_model(rec)
        assert model.group_label == rec.g_label
        assert len(model.k1_factors) == len(rec.k1_indexes)
        assert len(model.k2_factors) == len(rec.k2_indexes)
        assert model.dim_k1 == _side_dim(rec, rec.k1_indexes)
        assert model.dim_k2 == _side_dim(rec, rec.k2_indexes)


def test_model_build_deterministic():
    a = build_model(find_record("su3-hopf"))
    b = build_model(find_record("su3-hopf"))
    assert np.allclose(a.m1_basis, b.m1_basis, atol=0)
    assert np.allclose(a.m_basis, b.m_basis, atol=0)


def test_validation_catches_noncommuting_factors(su3_model):
    broken = dataclasses.replace(su3_model, k2=su3_model.k1)
    with pytest.raises(ValueError, match="commute|orthogonal|centralizer"):
        _validate_model(broken)


# --- build errors -------------------------------------------------------------------


def test_catalog_only_record_rejected():
    rec = find_record("e8-a4a4--k1-0a4")
    with pytest.raises(ValueError, match="no concrete model"):
        build_model(rec)


def test_degenerate_splitting_rejected():
    # su3-hopf has two blocks, SU(2) and the circle: K1 may be neither all
    # of them nor none
    rec = find_record("su3-hopf")
    for k1 in ((0, 1), ()):
        spec = dataclasses.replace(rec.model_spec, k1=k1)
        with pytest.raises(ValueError, match="degenerate splitting"):
            build_model(dataclasses.replace(rec, model_spec=spec))


def test_find_record_aliases():
    assert find_record("su3-hopf").slug == "su3-su1u2--k1-0a1"
    assert find_record("so6-stiefel").slug == "so6-so3so3--k1-0so3"
    with pytest.raises(LookupError):
        find_record("no-such-case")


def test_find_record_prefix_resolution():
    # only catalog-only records match: the first is returned for reporting
    rec = find_record("e8-a4a4")
    assert rec.slug == "e8-a4a4--k1-0a4" and rec.model_spec is None
    # an exact slug wins over the longer slugs it prefixes
    assert find_record("su4-su2u2--k1-0a1").slug == "su4-su2u2--k1-0a1"
    assert find_record("su4-su2u2--k1-0a1-t").slug == "su4-su2u2--k1-0a1-t1"
    with pytest.raises(LookupError, match="su3-su1u2--k1-0a1, su3-su1u2--k1-t1"):
        find_record("su3")


def test_find_record_family_scope_matches_full_catalog(monkeypatch):
    records = dynkin.catalog(dynkin.CatalogConfig()).records
    configs = []
    cached = functools.lru_cache(maxsize=None)(dynkin.catalog)

    def counting(cfg=None):
        configs.append(cfg)
        return cached(cfg)

    monkeypatch.setattr(dynkin, "catalog", counting)
    ids = [r.slug for r in records] + list(_ALIASES)
    # prefixes the tests use, plus ids whose group token is incomplete
    # ("so1" grows into so10..so17) or names the family by its letter
    ids += ["e8-a4a4", "su4-su2u2--k1-0a1-t", "su3", "no-such-case", "so1", "sp2-", "g2-"]
    for case_id in ids:
        configs.clear()
        try:
            want = _resolve(case_id, records)
        except LookupError as exc:
            with pytest.raises(LookupError) as got:
                find_record(case_id)
            assert str(got.value) == str(exc)
        else:
            assert find_record(case_id) == want
        assert len(configs) == 1
    configs.clear()
    find_record("so6-stiefel")
    assert configs == [dynkin.CatalogConfig(families=("D",))]


def test_algebra_rejects_dependent_basis():
    b = np.zeros((2, 2, 2))
    b[0, 0, 1], b[0, 1, 0] = 1.0, -1.0
    b[1] = 2 * b[0]
    with pytest.raises(ValueError, match="independent"):
        MatrixAlgebra(name="bad", n=2, basis=b)
