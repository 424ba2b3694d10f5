"""Coset geometry: chords, Killing-field lengths, geodesics, logs,
displacement profiles, fixed fibers, and invariant-plane certificates.

The fiber-circle facts used as oracles below are exact: the circle
generator z has metric norm 6, exp(pi z) lands in the isotropy block, so
the fiber geodesic closes after arc length 6 pi, and for small arc t the
distance from the base point to exp((t/6) z) K1 equals t.
"""
import dataclasses
import functools
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
from scipy.optimize._numdiff import approx_derivative

from isofib import homspace
from isofib.homspace import (
    CERT_RESIDUAL_TOL,
    CosetPoint,
    Isometry,
    KillingField,
    base_point,
    chord_k,
    chord_k1,
    chord_to_coset,
    displacement_profile,
    distance_lower_bound,
    fixed_fiber,
    fixed_point_certificate,
    geodesic,
    haar_orthogonal,
    haar_point,
    haar_unitary,
    killing_length,
    riemannian_log,
    sample_subgroup_element,
    share_logs,
    _circle_angles,
    _complex_pairing,
    _fd_jacobian,
    _k_star_batch,
    _orthogonal_log,
    _polish_roots,
    _so_procrustes,
    _su_procrustes,
    _su2_procrustes,
)
from isofib.liealg import build_model, find_record, matrix_exp, realify


@functools.lru_cache(maxsize=None)
def model_for(case_id):
    return build_model(find_record(case_id))


@pytest.fixture(scope="module")
def su3():
    return build_model(find_record("su3-hopf"))


@pytest.fixture(scope="module")
def so6():
    return build_model(find_record("so6-stiefel"))


# --- samplers -------------------------------------------------------------------


def test_haar_unitary_special():
    rng = np.random.default_rng(0)
    for _ in range(5):
        Q = haar_unitary(3, rng)
        assert np.allclose(Q @ Q.conj().T, np.eye(3), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


def test_haar_orthogonal_special():
    rng = np.random.default_rng(1)
    for _ in range(5):
        Q = haar_orthogonal(6, rng)
        assert np.allclose(Q @ Q.T, np.eye(6), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


def test_haar_point_deterministic(su3):
    a = haar_point(su3, np.random.default_rng(5)).rep
    b = haar_point(su3, np.random.default_rng(5)).rep
    assert np.array_equal(a, b)


def test_coset_point_validates(su3):
    with pytest.raises(ValueError, match="orthogonal"):
        CosetPoint(su3, np.ones((6, 6)))


def test_subgroup_samples_stay_in_subgroup(su3, so6):
    rng = np.random.default_rng(2)
    k = sample_subgroup_element(su3, su3.k1_factors, rng)
    # fixes the first complex column up to phase: block structure
    assert chord_to_coset(su3, np.eye(6), k, su3.k1_factors).upper < 1e-9
    k = sample_subgroup_element(so6, so6.k2_factors, rng)
    assert np.allclose(k[:3, :3], np.eye(3), atol=1e-12)


# --- Procrustes blocks ------------------------------------------------------------


def test_su2_procrustes_exact_against_sampling():
    rng = np.random.default_rng(3)
    P = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    val, k = _su2_procrustes(P)
    assert np.allclose(k @ k.conj().T, np.eye(2), atol=1e-12)
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-12)
    assert np.real(np.trace(k.conj().T @ P)) == pytest.approx(val, abs=1e-12)
    best = max(
        np.real(np.trace(haar_unitary(2, rng).conj().T @ P)) for _ in range(4000)
    )
    assert best <= val + 1e-9


def test_su_procrustes_three_by_three():
    rng = np.random.default_rng(4)
    P = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    feas, k = _su_procrustes(P)
    # the max over the full unitary group bounds the SU(3) max
    relax = np.sum(np.linalg.svd(P, compute_uv=False))
    assert feas <= relax + 1e-12
    assert np.allclose(k @ k.conj().T, np.eye(3), atol=1e-10)
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-10)
    assert np.real(np.trace(k.conj().T @ P)) == pytest.approx(feas, abs=1e-10)
    best = max(
        np.real(np.trace(haar_unitary(3, rng).conj().T @ P)) for _ in range(4000)
    )
    assert best <= feas + 1e-6


@pytest.mark.parametrize(
    "shape",
    [(5, 2, 2), (5, 3, 3), (5, 4, 4), (3, 7, 3, 3)],
    ids=["c2", "c3", "c4", "rows-angles-c3"],
)
def test_su_procrustes_stack_matches_single_blocks(shape):
    # every block of a stack follows its own ascent, bit for bit; the last
    # shape is the (rows, angles) stack of a circle grid
    rng = np.random.default_rng(32)
    P = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    vals, K = _su_procrustes(P)
    assert vals.shape == shape[:-2] and K.shape == shape
    for idx in np.ndindex(*shape[:-2]):
        val, k = _su_procrustes(P[idx])
        assert val == vals[idx]
        assert np.array_equal(k, K[idx])
    c = shape[-1]
    assert np.allclose(K @ np.swapaxes(K, -1, -2).conj(), np.eye(c), atol=1e-12)
    assert np.allclose(np.linalg.det(K), 1.0, atol=1e-12)


def test_so_procrustes_exact():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    val, k = _so_procrustes(A)
    assert np.allclose(k @ k.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(k.T @ A) == pytest.approx(val, abs=1e-12)
    best = max(np.trace(haar_orthogonal(3, rng).T @ A) for _ in range(4000))
    assert best <= val + 1e-9


# --- chords ------------------------------------------------------------------------


def test_chord_zero_on_same_coset(su3, so6):
    rng = np.random.default_rng(6)
    for model in (su3, so6):
        x = haar_point(model, rng)
        k = sample_subgroup_element(model, model.k1_factors, rng)
        y = CosetPoint(model, x.rep @ k)
        assert chord_k1(model, x, y).upper < 1e-12


def test_chord_symmetric(su3, so6):
    rng = np.random.default_rng(7)
    for model in (su3, so6):
        x, y = haar_point(model, rng), haar_point(model, rng)
        a = chord_k1(model, x, y)
        b = chord_k1(model, y, x)
        assert a.upper == pytest.approx(b.upper, abs=1e-9)


def test_chord_lower_at_most_upper(su3, so6):
    rng = np.random.default_rng(8)
    for model in (su3, so6):
        for _ in range(10):
            x, y = haar_point(model, rng), haar_point(model, rng)
            ch = chord_k1(model, x, y)
            assert ch.lower <= ch.upper + 1e-12
            # the shipped models have exact block maximizers
            assert ch.upper - ch.lower < 1e-6


def test_chord_k_includes_more_group(su3):
    # minimizing over the bigger subgroup K can only shrink the chord
    rng = np.random.default_rng(9)
    x, y = haar_point(su3, rng), haar_point(su3, rng)
    assert chord_k(su3, x, y).upper <= chord_k1(su3, x, y).upper + 1e-9


def test_fiber_closes_at_pi(su3):
    e = base_point(su3)
    far = CosetPoint(su3, matrix_exp(np.pi * su3.circle_mat))
    assert chord_k1(su3, e, far).upper < 1e-10


# one case per branch of the maximizer: SO blocks; an SU(2) block; a circle
# alone; a circle with an SU(2) block; an SU(3) block by ascent; a circle
# with an SU(3) block, where the ascent runs at every grid angle.  The last
# column is a circle grid size (None: the default CIRCLE_GRID).
K_STAR_CASES = [
    ("so6-stiefel", "k1", None),
    ("so6-stiefel", "k", None),
    ("su3-hopf", "k1", None),
    ("su3-hopf", "k", None),
    ("su3-su1u2--k1-t1", "k1", None),
    ("su4-su1u3--k1-0a2", "k1", None),
    ("su4-su1u3--k1-0a2", "k", None),
]


@pytest.mark.parametrize("case_id, group, grid", K_STAR_CASES)
def test_k_star_batch_matches_per_row_chords(case_id, group, grid, monkeypatch):
    if grid is not None:
        monkeypatch.setattr(homspace, "CIRCLE_GRID", grid)
    model = model_for(case_id)
    factors = model.k1_factors + (model.k2_factors if group == "k" else ())
    rng = np.random.default_rng(30)
    U = np.array([haar_point(model, rng).rep for _ in range(3)])
    V = haar_point(model, rng).rep
    K = _k_star_batch(model, U, V, factors)
    # a stack of targets, as the fixed-fiber residual passes, gives the same
    assert np.array_equal(K, _k_star_batch(model, U, np.array([V] * 3), factors))
    for u, k in zip(U, K):
        ch = chord_to_coset(model, u, V, factors)
        np.testing.assert_allclose(k, ch.k_star, rtol=0, atol=1e-14)
        for _ in range(20):
            s = sample_subgroup_element(model, factors, rng)
            assert ch.upper <= np.linalg.norm(u @ s - V) + 1e-9


def _brentq_circle_angles(model, P, factors):
    """The circle angles as a per-row oracle: the same grid, scipy's brentq
    (xtol 1e-14) on the envelope derivative of each bracketed row, and the
    better of the polished and the grid angle."""
    speeds = homspace._circle_phases(model)
    period = next(f.period for f in factors if f.kind == "circle")
    singles, blocks = homspace._split_columns(model, factors)
    fs = speeds[singles]

    def trace(thetas, p):
        vals = (np.exp(-1j * thetas[:, None] * fs) * p[singles, singles]).real.sum(axis=-1)
        for cols in blocks:
            rot = np.exp(-1j * speeds[cols[0]] * thetas)[:, None, None] * p[np.ix_(cols, cols)]
            vals += _su_procrustes(rot)[0]
        return vals

    def slope(theta, p):
        der = float(np.sum(fs * (np.exp(-1j * theta * fs) * p[singles, singles]).imag))
        for cols in blocks:
            rot = np.exp(-1j * speeds[cols[0]] * theta) * p[np.ix_(cols, cols)]
            k = _su_procrustes(rot)[1]
            der += speeds[cols[0]] * float(np.trace(k.conj().T @ rot).imag)
        return der

    grid = np.linspace(0.0, period, homspace.CIRCLE_GRID, endpoint=False)
    span = period / homspace.CIRCLE_GRID
    out = []
    for p in P:
        theta = best = grid[np.argmax(trace(grid, p))]
        if slope(theta - span, p) > 0 > slope(theta + span, p):
            best = scipy.optimize.brentq(slope, theta - span, theta + span, args=(p,), xtol=1e-14)
        cand = np.array([best, theta])
        out.append(cand[np.argmax(trace(cand, p))])
    return np.array(out)


# a circle alone (K1 of su3-su1u2--k1-t1), a circle with an SU(2) block (K of
# su3-hopf), and an SU(3) block under a circle on a small grid, where the
# derivative comes from the ascent's maximizer and the step is a secant
@pytest.mark.parametrize(
    "case_id, group, grid, rows",
    [
        ("su3-su1u2--k1-t1", "k1", None, 60),
        ("su3-hopf", "k", None, 60),
        ("su4-su1u3--k1-0a2", "k", 32, 8),
    ],
)
def test_polished_circle_angles_match_brentq(case_id, group, grid, rows, monkeypatch):
    if grid is not None:
        monkeypatch.setattr(homspace, "CIRCLE_GRID", grid)
    model = model_for(case_id)
    factors = model.k1_factors + (model.k2_factors if group == "k" else ())
    rng = np.random.default_rng(40)
    U = np.array([haar_point(model, rng).rep for _ in range(rows)])
    P = _complex_pairing(np.swapaxes(U, 1, 2) @ haar_point(model, rng).rep)
    diff = _circle_angles(model, P, factors) - _brentq_circle_angles(model, P, factors)
    if group == "k" and case_id == "su3-hopf":
        # exp(pi z) lies in the SU(2) block, so the maximized trace has
        # period pi and the grid maximum ties between theta and theta + pi
        diff = np.remainder(diff + np.pi / 2, np.pi) - np.pi / 2
    assert np.max(np.abs(diff)) <= 1e-14


def test_circle_angle_with_zero_derivative_stays_on_the_grid():
    # at the identity pairing the derivative at theta = 0 is exactly 0
    model = model_for("su3-su1u2--k1-t1")
    P = _complex_pairing(np.tile(np.eye(model.n), (3, 1, 1)))
    assert np.array_equal(_circle_angles(model, P, model.k1_factors), np.zeros(3))


def test_polish_keeps_a_point_with_zero_derivative():
    # T' = -(x - 1)^3 has T'' = 0 at its root, so no Newton step is defined
    # there; the row must stop where T' is exactly 0, not bisect away
    def derivs(x, rows):
        return -((x - 1.0) ** 3), -3 * (x - 1.0) ** 2

    lo, hi = np.array([0.99]), np.array([1.02])
    got = _polish_roots(derivs, np.array([1.0]), lo, hi, derivs(lo, None)[0], derivs(hi, None)[0])
    assert got[0] == 1.0


def test_polish_accepts_a_newton_point_on_a_bracket_end():
    # at x = 1, T' = 1e-20 > 0 makes 1 the left bracket end, and the Newton
    # point 1 + 1e-20 rounds to 1: it lies in the bracket and ends the
    # polish, where a strict test would bisect toward the right end
    def derivs(x, rows):
        return 1e-20 - (x - 1.0), -np.ones_like(x)

    lo, hi = np.array([0.99]), np.array([1.02])
    got = _polish_roots(derivs, np.array([1.0]), lo, hi, derivs(lo, None)[0], derivs(hi, None)[0])
    assert got[0] == 1.0


@pytest.mark.parametrize("case_id", ["so6-stiefel", "su3-hopf", "su3-su1u2--k1-t1"])
def test_fd_jacobian_is_scipy_two_point(case_id):
    model = model_for(case_id)
    rng = np.random.default_rng(31)
    U, V = haar_point(model, rng).rep, haar_point(model, rng).rep

    def residuals(C):
        P = U @ matrix_exp(model.from_m1_coords(C))
        K = _k_star_batch(model, P, V, model.k1_factors)
        return (P @ K - V).reshape(len(C), -1)

    # zero, negative, and beyond-unit coordinates take different steps
    x = 2.0 * rng.normal(size=model.dim_m1)
    x[:2] = (0.0, -0.3)
    J = _fd_jacobian(lambda C: residuals(C[0])[None], x[None], residuals(x[None]))[0]
    ref = approx_derivative(lambda c: residuals(c[None])[0], x, method="2-point")
    assert np.array_equal(J, ref)


# --- metric constants ---------------------------------------------------------------


def test_metric_constants(su3, so6):
    assert su3.frobenius_lambda_min == pytest.approx(3.0, abs=1e-9)
    assert so6.frobenius_lambda_min == pytest.approx(4.0, abs=1e-9)


def test_lower_bound_metric_is_per_model_not_per_name(su3):
    # a model whose m1 basis is halved keeps su3's name but has lambda_min
    # 12, so the chord (which does not see m1) gives twice the lower bound
    rng = np.random.default_rng(30)
    x, y = haar_point(su3, rng), haar_point(su3, rng)
    lower = distance_lower_bound(x, y)
    half = dataclasses.replace(su3, m1_basis=su3.m1_basis / 2)
    assert half.name == su3.name
    lower_half = distance_lower_bound(CosetPoint(half, x.rep), CosetPoint(half, y.rep))
    assert lower_half == pytest.approx(2 * lower, rel=1e-12)
    assert half.frobenius_lambda_min == pytest.approx(12.0, abs=1e-9)


@pytest.mark.parametrize("case_id", ["su3-hopf", "so6-stiefel", "so8-so3so5--k1-0so3"])
def test_lower_bound_at_most_geodesic_length(case_id):
    # geodesic(x, xi, 1) has metric length ||xi||, at least the distance it
    # spans; at a short xi that geodesic is minimizing and the two agree
    model = model_for(case_id)
    rng = np.random.default_rng(38)
    for length in (0.05, 0.3, 1.0, 2.5):
        x = haar_point(model, rng)
        c = rng.normal(size=model.dim_m1)
        xi = model.from_m1_coords(c)
        xi *= length / model.m1_norm(xi)
        lower = distance_lower_bound(x, geodesic(x, xi, 1.0))
        assert 0.0 < lower <= model.m1_norm(xi) + 1e-12


def test_lower_bound_on_the_fiber_circle(su3):
    # exp((t / 6) z) K1 lies at distance t from the base point for small t
    e = base_point(su3)
    for t in (0.05, 0.3, 1.0):
        y = CosetPoint(su3, matrix_exp((t / 6.0) * su3.circle_mat))
        assert 0.0 < distance_lower_bound(e, y) <= t + 1e-12


@pytest.mark.parametrize("case_id", ["su3-hopf", "so6-stiefel", "so8-so3so5--k1-0so3"])
def test_arc_lower_bound_never_below_chord_bound(case_id):
    model = model_for(case_id)
    rng = np.random.default_rng(39)
    scale = math.sqrt(model.frobenius_lambda_min)
    for _ in range(10):
        x, y = haar_point(model, rng), haar_point(model, rng)
        assert distance_lower_bound(x, y) >= scale * chord_k1(model, x, y).lower
    x = haar_point(model, rng)
    assert distance_lower_bound(x, x) == pytest.approx(0.0, abs=1e-6)


# --- Killing-field lengths ------------------------------------------------------------


def test_right_field_constant_length(su3):
    eta = KillingField(su3, "right", su3.circle_mat)
    rng = np.random.default_rng(10)
    vals = [killing_length(eta, haar_point(su3, rng)) for _ in range(50)]
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] == pytest.approx(6.0, abs=1e-9)


def test_left_field_generic_not_constant(su3):
    rng = np.random.default_rng(11)
    xi = su3.g.from_coords(rng.normal(size=su3.dim_g))
    f = KillingField(su3, "left", xi)
    vals = [killing_length(f, haar_point(su3, rng)) for _ in range(50)]
    assert max(vals) - min(vals) > 1e-3


def test_left_version_of_fiber_direction_not_constant(su3):
    # the same generator, acting from the left, fails to have constant length
    f = KillingField(su3, "left", su3.circle_mat)
    rng = np.random.default_rng(12)
    vals = [killing_length(f, haar_point(su3, rng)) for _ in range(50)]
    assert max(vals) - min(vals) > 1e-3


def test_killing_field_rejects_bad_generator(su3):
    with pytest.raises(ValueError, match="outside"):
        KillingField(su3, "right", su3.k1.basis[0])
    with pytest.raises(ValueError, match="kind"):
        KillingField(su3, "middle", su3.circle_mat)


# --- geodesics and logs -----------------------------------------------------------------


def test_geodesic_rejects_directions_outside_m1(su3):
    with pytest.raises(ValueError, match="outside m1"):
        geodesic(base_point(su3), su3.k1.basis[0], 1.0)


def test_geodesic_at_zero_time(su3):
    rng = np.random.default_rng(13)
    x = haar_point(su3, rng)
    xi = su3.from_m1_coords(rng.normal(size=su3.dim_m1))
    assert np.allclose(geodesic(x, xi, 0.0).rep, x.rep, atol=1e-12)


def test_geodesic_concatenation(su3):
    rng = np.random.default_rng(14)
    x = haar_point(su3, rng)
    xi = su3.from_m1_coords(rng.normal(size=su3.dim_m1))
    a = geodesic(x, xi, 0.9)
    b = geodesic(geodesic(x, xi, 0.4), xi, 0.5)
    assert np.allclose(a.rep, b.rep, atol=1e-10)


def test_geodesic_speed_constant(su3, so6):
    # the generating left field has constant length along its own curve
    rng = np.random.default_rng(15)
    for model in (su3, so6):
        x = haar_point(model, rng)
        c = rng.normal(size=model.dim_m1)
        xi = model.from_m1_coords(0.7 * c / np.linalg.norm(c))
        zeta = x.rep @ xi @ x.rep.T  # the field generating this geodesic
        f = KillingField(model, "left", zeta)
        vals = [killing_length(f, geodesic(x, xi, t)) for t in (0.0, 0.3, 1.1, 2.7)]
        assert max(vals) - min(vals) < 1e-8


def test_log_roundtrip(su3, so6):
    rng = np.random.default_rng(16)
    for model in (su3, so6):
        x = haar_point(model, rng)
        c = rng.normal(size=model.dim_m1)
        xi = model.from_m1_coords(0.4 * c / np.linalg.norm(c))
        y = geodesic(x, xi, 1.0)
        log = riemannian_log(x, y, restarts=2, seed=17)
        assert log.converged and log.residual < 1e-8
        assert log.upper == pytest.approx(0.4, abs=1e-6)


@pytest.mark.parametrize(
    "case_id, seed, upper",
    [
        ("so6-stiefel", 101, 7.945000786600988),
        ("su3-hopf", 102, 8.12172184187215),
        ("su3-su1u2--k1-t1", 103, 3.685358953487963),
    ],
)
def test_log_matches_recorded_upper(case_id, seed, upper):
    # recorded from the solver with scipy's per-point 2-point Jacobian
    model = model_for(case_id)
    rng = np.random.default_rng(seed)
    x, y = haar_point(model, rng), haar_point(model, rng)
    log = riemannian_log(x, y, restarts=2, seed=7)
    assert log.converged
    assert log.upper == pytest.approx(upper, rel=0, abs=1e-12)


@pytest.mark.parametrize(
    "case_id", ["su3-hopf", "so6-stiefel", "su3-su1u2--k1-t1", "so8-so3so5--k1-0so3"]
)
def test_profile_uppers_do_not_depend_on_the_batch(case_id):
    # the profile solves all (point, start) problems in one lockstep stack;
    # each must end exactly where its point's own log ends
    model = model_for(case_id)
    rng = np.random.default_rng(35)
    gam = Isometry(model, left=sample_subgroup_element(model, model.k2_factors, rng))
    seed, n, restarts = 9, 6, 2
    report = displacement_profile(gam, n_samples=n, seed=seed, restarts=restarts)
    prng = np.random.default_rng(seed)
    points = [base_point(model)] + [haar_point(model, prng) for _ in range(n - 1)]
    uppers = tuple(
        riemannian_log(p, gam.apply(p), restarts=restarts, seed=seed + 1000 + i).upper
        for i, p in enumerate(points)
    )
    assert report.uppers == uppers


@pytest.mark.parametrize(
    "case_id", ["su3-hopf", "so6-stiefel", "su3-su1u2--k1-t1", "so8-so3so5--k1-0so3"]
)
def test_joint_logs_match_solo_logs(case_id):
    # a verify job solves the logs of several profiles and unrelated pairs
    # in one lockstep call; each pair must end exactly where it ends alone
    model = model_for(case_id)
    rng = np.random.default_rng(36)
    xs, ys, seeds = [], [], []
    for factors in (model.k1_factors, model.k2_factors):
        gam = Isometry(model, left=sample_subgroup_element(model, factors, rng))
        sample = homspace.sample_profile(gam, n_samples=3, seed=11)
        xs += sample.points
        ys += sample.images
        seeds += sample.log_seeds
    for seed in (5, 6):
        xs.append(haar_point(model, rng))
        ys.append(haar_point(model, rng))
        seeds.append(seed)
    joint = homspace.riemannian_logs(xs, ys, seeds, restarts=2)
    for x, y, seed, log in zip(xs, ys, seeds, joint):
        solo = riemannian_log(x, y, restarts=2, seed=seed)
        assert (log.upper, log.residual, log.converged) == (
            solo.upper,
            solo.residual,
            solo.converged,
        )


def test_lm_jacobian_chunks_are_exact(so6, monkeypatch):
    # the Jacobian is reduced to J^T J and J^T F per stack of at most
    # _LM_SLICE points; smaller stacks must not change a single iterate
    rng = np.random.default_rng(37)
    n, d = so6.n, so6.dim_m1
    U = np.array([haar_point(so6, rng).rep for _ in range(5)])
    V = np.array([haar_point(so6, rng).rep for _ in range(5)])
    C0 = rng.normal(size=(5, d))
    sizes = []

    def residuals(C, rows):
        sizes.append(C.shape[0] * C.shape[1])
        P = (U[rows, None] @ matrix_exp(so6.from_m1_coords(C))).reshape(-1, n, n)
        T = np.repeat(V[rows], C.shape[1], axis=0)
        K = _k_star_batch(so6, P, T, so6.k1_factors)
        return (P @ K - T).reshape(C.shape[:2] + (-1,))

    X, F = homspace._lm(residuals, C0)
    assert max(sizes) == 5 * d  # every Jacobian in one stack
    sizes.clear()
    monkeypatch.setattr(homspace, "_LM_SLICE", 2)
    X2, F2 = homspace._lm(residuals, C0)
    assert max(sizes) == d  # one problem's Jacobian points per stack
    assert np.array_equal(X, X2) and np.array_equal(F, F2)


VERIFY_CASES = ["su3-hopf", "so6-stiefel", "su3-su1u2--k1-t1", "so8-so3so5--k1-0so3"]


@pytest.mark.parametrize("case_id", VERIFY_CASES)
def test_orthogonal_log_matches_scipy_logm(case_id):
    # the smart start of a log: W = U^T V k*^T for Haar points U, V
    model = model_for(case_id)
    rng = np.random.default_rng(39)
    U = np.array([haar_point(model, rng).rep for _ in range(12)])
    V = np.array([haar_point(model, rng).rep for _ in range(12)])
    K = _k_star_batch(model, U, V, model.k1_factors)
    W = np.swapaxes(U, 1, 2) @ V @ np.swapaxes(K, 1, 2)
    L = _orthogonal_log(W)
    away = [w for w in range(len(W)) if np.abs(np.linalg.eigvals(W[w]) + 1).min() > 1e-3]
    assert len(away) >= 10
    for w in away:
        np.testing.assert_allclose(L[w], np.real(scipy.linalg.logm(W[w])), rtol=0, atol=1e-10)
    # each matrix is taken on its own: its log does not depend on the stack
    assert np.array_equal(_orthogonal_log(W[3:4])[0], L[3])


def test_orthogonal_log_leaves_out_half_turns():
    # -1 eigenvalues carry no log, as in the real part of the principal one
    a = 0.7
    rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
    W = np.zeros((1, 5, 5))
    W[0, :2, :2] = rot
    W[0, 2:4, 2:4] = -np.eye(2)
    W[0, 4, 4] = 1.0
    L = _orthogonal_log(W)[0]
    expected = np.zeros((5, 5))
    expected[:2, :2] = [[0.0, -a], [a, 0.0]]
    np.testing.assert_allclose(L, expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("case_id", ["so6-stiefel", "so8-so3so5--k1-0so3"])
def test_lm_stops_at_converged_starts(case_id):
    # a problem stops once its residual is at most 1e-6 x its tolerance:
    # from an exact start it takes no step, from a near one a few steps
    model = model_for(case_id)
    rng = np.random.default_rng(38)
    n, d = model.n, model.dim_m1
    U = np.array([haar_point(model, rng).rep for _ in range(3)])
    C = rng.normal(size=(3, d))
    C *= 0.5 / np.linalg.norm(C, axis=1, keepdims=True)
    V = U @ matrix_exp(model.from_m1_coords(C))
    calls = []

    def residuals(X, rows):
        calls.append(len(rows))
        P = (U[rows, None] @ matrix_exp(model.from_m1_coords(X))).reshape(-1, n, n)
        T = np.repeat(V[rows], X.shape[1], axis=0)
        K = _k_star_batch(model, P, T, model.k1_factors)
        return (P @ K - T).reshape(X.shape[:2] + (-1,))

    X, F = homspace._lm(residuals, C, tol=1e-8)
    assert len(calls) == 1 and np.array_equal(X, C)
    calls.clear()
    X, F = homspace._lm(residuals, C + 1e-3 * rng.normal(size=C.shape), tol=1e-8)
    # one initial call, then a Jacobian and a trial call per step
    assert len(calls) <= 1 + 2 * 6
    assert np.linalg.norm(F, axis=1).max() <= 1e-14


@pytest.mark.parametrize("case_id", VERIFY_CASES)
def test_shared_logs_only_lower_uppers_by_converged_geodesics(case_id):
    model = model_for(case_id)
    rng = np.random.default_rng(40)
    # a central x right translation, then left translations by K1 and K2
    k2 = sample_subgroup_element(model, model.k2_factors, rng)
    gammas = [Isometry(model, left=model.center_elements[1], right=k2)]
    for factors in (model.k1_factors, model.k2_factors):
        gammas.append(Isometry(model, left=sample_subgroup_element(model, factors, rng)))
    samples = [homspace.sample_profile(gam, n_samples=8, seed=12) for gam in gammas]
    adopted = []
    for sample in samples:
        logs = homspace.riemannian_logs(
            list(sample.points), list(sample.images), sample.log_seeds, restarts=1
        )
        shared = share_logs(sample, logs)
        adopted.append(sum(log is not own for own, log in zip(logs, shared)))
        for p, q, own, log in zip(sample.points, sample.images, logs, shared):
            assert log.upper <= own.upper
            if log is not own:
                # an adopted log is a converged geodesic from p to q's coset
                assert log.converged and log.residual < homspace.COSET_TOL
                assert log.upper == pytest.approx(model.m1_norm(log.xi), rel=1e-12)
                assert chord_k1(model, geodesic(p, log.xi, 1.0), q).upper < homspace.COSET_TOL
        if sample is samples[0]:
            # a central isometry poses one problem at every point: the
            # uppers agree
            assert len({log.upper for log in shared}) == 1
    # the central profile's points adopt its shortest log; away from its
    # own point a non-central profile's shortest log misses the image coset
    assert adopted[0] > 0 and adopted[1:] == [0, 0]


def test_log_of_same_point_is_zero(su3):
    x = haar_point(su3, np.random.default_rng(18))
    log = riemannian_log(x, x, restarts=1, seed=0)
    assert log.converged and log.upper < 1e-9


def test_log_fiber_arc_small(su3):
    # distance along the fiber: t = 0.3 of unit speed
    e = base_point(su3)
    y = CosetPoint(su3, matrix_exp((0.3 / 6.0) * su3.circle_mat))
    log = riemannian_log(e, y, restarts=2, seed=19)
    assert log.converged
    assert log.upper == pytest.approx(0.3, abs=1e-6)


def test_log_monotone_in_restarts(su3):
    rng = np.random.default_rng(20)
    x, y = haar_point(su3, rng), haar_point(su3, rng)
    u_small = riemannian_log(x, y, restarts=0, seed=21).upper
    u_big = riemannian_log(x, y, restarts=4, seed=21).upper
    assert u_big <= u_small + 1e-12


def test_log_never_reports_below_true_distance(su3):
    # the log bound stays above the chord-based lower bound
    rng = np.random.default_rng(22)
    for _ in range(5):
        x, y = haar_point(su3, rng), haar_point(su3, rng)
        log = riemannian_log(x, y, restarts=2, seed=23)
        if log.converged:
            assert distance_lower_bound(x, y) <= log.upper + 1e-9


def test_lower_bound_at_most_upper(su3, so6):
    rng = np.random.default_rng(24)
    for model in (su3, so6):
        for _ in range(5):
            x, y = haar_point(model, rng), haar_point(model, rng)
            log = riemannian_log(x, y, restarts=2, seed=25)
            if log.converged:
                assert distance_lower_bound(x, y) <= log.upper + 1e-9


# --- displacement profiles -----------------------------------------------------------------


def test_central_pair_constant(su3):
    omega = su3.center_elements[1]
    k2 = matrix_exp(0.7 * su3.circle_mat)
    gam = Isometry(su3, left=omega, right=k2, label="central")
    rep = displacement_profile(gam, n_samples=12, seed=42, restarts=2)
    assert rep.verdict == "constant-within-tol"
    assert rep.rel_spread < 1e-6


def test_right_translation_constant(su3, so6):
    gam = Isometry(su3, right=matrix_exp(0.9 * su3.circle_mat), label="r-circle")
    rep = displacement_profile(gam, n_samples=12, seed=42, restarts=2)
    assert rep.verdict == "constant-within-tol"
    rng = np.random.default_rng(26)
    k2 = sample_subgroup_element(so6, so6.k2_factors, rng)
    rep = displacement_profile(
        Isometry(so6, right=k2, label="r-so3"), n_samples=10, seed=42, restarts=2
    )
    assert rep.verdict == "constant-within-tol"


def test_identity_isometry_constant_zero(su3):
    rep = displacement_profile(Isometry(su3, label="id"), n_samples=6, seed=1, restarts=1)
    assert rep.verdict == "constant-within-tol"
    assert max(rep.uppers) < 1e-9


def test_left_k1_translation_certified_nonconstant(su3, so6):
    rng = np.random.default_rng(27)
    for model in (su3, so6):
        k1 = sample_subgroup_element(model, model.k1_factors, rng)
        gam = Isometry(model, left=k1, label="k1-left")
        rep = displacement_profile(gam, n_samples=10, seed=42, restarts=2)
        assert rep.verdict == "certified-nonconstant"
        # the identity coset is fixed, so the first upper bound vanishes
        assert rep.uppers[0] < 1e-9
        assert max(rep.lowers) > 1e-2


def test_left_circle_translation_certified_nonconstant(su3):
    gam = Isometry(su3, left=matrix_exp(0.7 * su3.circle_mat), label="k2-left")
    rep = displacement_profile(gam, n_samples=12, seed=42, restarts=2)
    assert rep.verdict == "certified-nonconstant"


def test_report_serialization(su3):
    rep = displacement_profile(Isometry(su3, label="id"), n_samples=4, seed=2, restarts=1)
    d = rep.to_dict()
    for key in ("label", "verdict", "rel_spread", "gap", "seed", "n_samples"):
        assert key in d


def test_displacement_bounds_ordered(su3):
    gam = Isometry(su3, left=su3.center_elements[1], label="central-left")
    rep = displacement_profile(gam, n_samples=8, seed=3, restarts=2)
    for lo, up in zip(rep.lowers, rep.uppers):
        assert lo <= up + 1e-9


# --- fixed fibers -----------------------------------------------------------------------


def test_fixed_fiber_found_generic_su3(su3):
    rng = np.random.default_rng(28)
    g = haar_point(su3, rng).rep
    pt, resid = fixed_fiber(Isometry(su3, left=g), restarts=4, seed=4)
    assert pt is not None and resid < 1e-8
    assert resid < 1e-12  # recorded from the per-point solver: 5.1e-16
    moved = g @ pt.rep
    assert chord_k(su3, CosetPoint(su3, moved), pt).upper < 1e-7


def test_fixed_fiber_trivial_for_isotropy_element(su3):
    g = matrix_exp(0.7 * su3.circle_mat)
    pt, resid = fixed_fiber(Isometry(su3, left=g), restarts=1, seed=5)
    assert pt is not None and resid < 1e-8


def test_fixed_fiber_honest_negative(so6):
    angles = (0.9, 1.7, 2.5)
    rot = np.zeros((6, 6))
    for i, a in enumerate(angles):
        rot[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [
            [math.cos(a), -math.sin(a)],
            [math.sin(a), math.cos(a)],
        ]
    pt, resid = fixed_fiber(Isometry(so6, left=rot), restarts=4, seed=6)
    assert pt is None
    assert resid > 0.5
    # recorded from the solver with scipy's per-point 2-point Jacobian
    assert resid == pytest.approx(1.2302683150099174, rel=0, abs=1e-12)


# --- invariant-plane certificates ----------------------------------------------------------


def test_certificate_reflection_block_exact():
    A = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    cert = fixed_point_certificate(A, 1, 1)
    assert cert.dimension == 3
    proj = cert.basis @ cert.basis.T
    assert np.allclose(proj, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]), atol=1e-12)
    assert cert.residual < 1e-12


def test_certificate_random_reversals():
    rng = np.random.default_rng(29)
    for _ in range(10):
        Q = haar_orthogonal(6, rng, special=False)
        if np.linalg.det(Q) > 0:
            Q[:, 0] = -Q[:, 0]
        cert = fixed_point_certificate(Q, 1, 1)
        assert cert.residual < 1e-9
        assert cert.dimension == 3
        B = cert.basis
        assert np.allclose(B.T @ B, np.eye(3), atol=1e-9)


def test_certificate_other_signature():
    rng = np.random.default_rng(30)
    Q = haar_orthogonal(8, rng, special=False)
    if np.linalg.det(Q) > 0:
        Q[:, 0] = -Q[:, 0]
    cert = fixed_point_certificate(Q, 2, 1)
    assert cert.dimension == 5
    assert cert.residual < 1e-9
    assert list(cert.rotation_angles) == sorted(cert.rotation_angles)


def _schur_rotation_angles(A):
    """The rotation angles of an orthogonal A from its real Schur form,
    ascending, leaving out blocks within 1e-8 of 0 and pi."""
    T, _ = scipy.linalg.schur(A, output="real")
    angles, i = [], 0
    while i < len(A):
        if i + 1 < len(A) and abs(T[i + 1, i]) > 1e-10:
            theta = abs(math.atan2(T[i + 1, i], T[i, i]))
            if 1e-8 < theta < math.pi - 1e-8:
                angles.append(theta)
            i += 2
        else:
            i += 1
    return sorted(angles)


def _assert_certificate_matches_schur(A, s, t):
    cert = fixed_point_certificate(A, s, t)
    assert cert.residual < CERT_RESIDUAL_TOL
    assert cert.dimension == 2 * s + 1
    np.testing.assert_allclose(cert.basis.T @ cert.basis, np.eye(2 * s + 1), rtol=0, atol=1e-12)
    want = _schur_rotation_angles(A)
    assert len(cert.rotation_angles) == len(want)
    np.testing.assert_allclose(cert.rotation_angles, want, rtol=0, atol=1e-12)


def test_certificate_angles_match_schur_on_haar_reversals():
    rng = np.random.default_rng(41)
    for i in range(1000):
        s, t = ((1, 1), (2, 1), (1, 2), (0, 2), (3, 0))[i % 5]
        Q = haar_orthogonal(2 * s + 2 + 2 * t, rng, special=False)
        if np.linalg.det(Q) > 0:
            Q[:, 0] = -Q[:, 0]
        _assert_certificate_matches_schur(Q, s, t)


def _rotation(theta):
    return np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])


@pytest.mark.parametrize(
    "blocks, s",
    [
        # repeated angles
        ([_rotation(0.7), _rotation(0.7), [[1.0]], [[-1.0]]], 1),
        ([_rotation(0.7)] * 3 + [[[1.0]], [[-1.0]]], 2),
        ([_rotation(2.2), _rotation(2.2), _rotation(0.4), [[1.0]], [[-1.0]]], 2),
        # angles near 0 and pi
        ([_rotation(1e-3), _rotation(math.pi - 1e-3), [[1.0]], [[-1.0]]], 1),
        ([_rotation(1e-5), _rotation(math.pi - 1e-5), [[1.0]], [[-1.0]]], 2),
        # extra +1 and -1 eigenvalues
        ([_rotation(2.0), [[1.0]], [[1.0]], [[1.0]], [[-1.0]]], 2),
        ([_rotation(2.0), [[1.0]], [[-1.0]], [[-1.0]], [[-1.0]]], 2),
        ([[[1.0]]] * 3 + [[[-1.0]]] * 3, 1),
        ([[[1.0]]] * 5 + [[[-1.0]]] * 3, 3),
        # nearly repeated angles, and planes within 1.4e-6 of 0 and pi,
        # where eigenvalue clusters of (A + A^T) / 2 mixed the pieces
        # (residuals 1.5e-7 and 1.0e-7)
        ([_rotation(1.1), _rotation(1.1 + 1e-9), [[1.0]], [[-1.0]]], 1),
        ([_rotation(1e-7), _rotation(2.0), [[1.0]], [[-1.0]], _rotation(0.4)], 1),
        ([_rotation(math.pi - 1e-7), _rotation(2.0), [[1.0]], [[-1.0]], _rotation(0.4)], 2),
    ],
)
def test_certificate_angles_match_schur_on_degenerate_inputs(blocks, s):
    rng = np.random.default_rng(42)
    n = sum(len(b) for b in blocks)
    D = np.zeros((n, n))
    i = 0
    for b in blocks:
        D[i : i + len(b), i : i + len(b)] = b
        i += len(b)
    for _ in range(20):
        R = haar_orthogonal(n, rng)
        _assert_certificate_matches_schur(R @ D @ R.T, s, (n - 2 - 2 * s) // 2)


def test_certificate_rejects_rotations():
    with pytest.raises(ValueError, match="determinant"):
        fixed_point_certificate(np.eye(6), 1, 1)


def test_certificate_rejects_bad_shape():
    with pytest.raises(ValueError, match="expected"):
        fixed_point_certificate(np.eye(4), 1, 1)


def test_certificate_rejects_non_orthogonal():
    A = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -2.0])
    with pytest.raises(ValueError, match="orthogonal"):
        fixed_point_certificate(A, 1, 1)
