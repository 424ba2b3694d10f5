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

from isofib import homspace
from isofib.homspace import (
    CERT_RESIDUAL_TOL,
    CosetPoint,
    Isometry,
    KillingField,
    base_point,
    chord_to_coset,
    displacement_profile,
    distance_lower_bound,
    fixed_fiber,
    fixed_point_certificate,
    geodesic,
    haar_matrices,
    haar_points,
    killing_length,
    riemannian_log,
    sample_subgroup_element,
    share_logs,
    smart_starts,
    _circle_angles,
    _complex_pairing,
    _k_star_batch,
    _log_maps,
    _orthogonal_log,
    _polish_roots,
    _so_procrustes,
    _su_curve,
    _su_procrustes,
    _su2_procrustes,
    _torus_witness,
)
from isofib.liealg import build_model, complexify, find_record, matrix_exp, realify


@functools.lru_cache(maxsize=None)
def model_for(case_id):
    return build_model(find_record(case_id))


def chord(model, x, y, factors=None):
    """(lower, upper) of the certified chord of the one pair (x, y), a
    stack of one row; the factors default to K1."""
    factors = model.k1_factors if factors is None else factors
    ch = chord_to_coset(model, x.rep[None], y.rep, factors)
    return float(ch.lower[0]), float(ch.upper[0])


def lower_bound(x, y):
    """`distance_lower_bound` of the one pair (x, y)."""
    return float(distance_lower_bound([x], [y])[0])


@pytest.fixture(scope="module")
def su3():
    return build_model(find_record("su3-hopf"))


@pytest.fixture(scope="module")
def so6():
    return build_model(find_record("so6-stiefel"))


# --- samplers -------------------------------------------------------------------


def test_haar_unitary_special():
    rng = np.random.default_rng(0)
    for Q in haar_matrices("su", 3, rng, 5):
        assert np.allclose(Q @ Q.conj().T, np.eye(3), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


def test_haar_orthogonal_special():
    rng = np.random.default_rng(1)
    for Q in haar_matrices("so", 6, rng, 5):
        assert np.allclose(Q @ Q.T, np.eye(6), atol=1e-12)
        assert np.linalg.det(Q) == pytest.approx(1.0, abs=1e-12)


def test_haar_point_deterministic(su3):
    a = haar_points(su3, np.random.default_rng(5), 1)[0].rep
    b = haar_points(su3, np.random.default_rng(5), 1)[0].rep
    assert np.array_equal(a, b)


@pytest.mark.parametrize("case_id", ["so6-stiefel", "su3-hopf"])
def test_haar_batch_reads_the_stream_of_batches_of_one(case_id):
    # one normal draw and one stacked QR for a batch, laid out as the
    # draws of batches of one in turn
    model = model_for(case_id)
    batch = haar_points(model, np.random.default_rng(11), 7)
    rng = np.random.default_rng(11)
    for p in batch:
        assert np.allclose(p.rep, haar_points(model, rng, 1)[0].rep, rtol=0, atol=1e-14)
    assert haar_points(model, rng, 0) == []
    sample = homspace.sample_profile(Isometry(model, label="identity"), n_samples=1, seed=3)
    assert len(sample.points) == 1 and np.array_equal(sample.points[0].rep, np.eye(model.n))


def test_coset_point_validates(su3):
    with pytest.raises(ValueError, match="orthogonal"):
        CosetPoint(su3, np.ones((6, 6)))


def test_subgroup_samples_stay_in_subgroup(su3, so6):
    rng = np.random.default_rng(2)
    k = sample_subgroup_element(su3, su3.k1_factors, rng)
    # fixes the first complex column up to phase: block structure
    assert chord_to_coset(su3, np.eye(6)[None], k, su3.k1_factors).upper[0] < 1e-9
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
    best = max(np.real(np.trace(k.conj().T @ P)) for k in haar_matrices("su", 2, rng, 4000))
    assert best <= val + 1e-9


def _torus_max(P, rng, starts=20):
    """Multistart BFGS maximum of sum sigma_j cos phi_j over the phase torus
    sum phi_j = tau, the SU(c) maximum with k = U diag(e^{i phi}) V^h."""
    U, sig, Vh = np.linalg.svd(P)
    tau = -np.angle(np.linalg.det(U @ Vh))

    def cost(x):  # the last phase absorbs tau
        last = tau - x.sum()
        value = sig[:-1] @ np.cos(x) + sig[-1] * np.cos(last)
        return -value, sig[:-1] * np.sin(x) - sig[-1] * np.sin(last)

    return max(
        -scipy.optimize.minimize(
            cost, rng.uniform(-np.pi, np.pi, len(sig) - 1), jac=True,
            method="BFGS", options={"gtol": 1e-14},
        ).fun
        for _ in range(starts)
    )


def test_su_procrustes_three_by_three():
    # c = 3, 4, 5 at random, then a zero smallest sigma, a tied smallest
    # sigma and tau = pi from chosen singular values and tau
    rng = np.random.default_rng(4)
    Ps = [rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)) for c in (3, 4, 5)]
    for sig, tau in (
        ([2.0, 1.1, 0.0], 1.0),
        ([1.7, 0.6, 0.6, 0.6], 2.5),
        ([1.9, 1.2, 0.7, 0.3], np.pi),
    ):
        U, V = haar_matrices("su", len(sig), rng, 2)
        U[:, 0] *= np.exp(-1j * tau)  # U, V special unitary: -arg det(U V^h) = tau
        Ps.append(U @ np.diag(sig) @ V.conj().T)
    for P in Ps:
        c = len(P)
        val, k = _su_procrustes(P)
        assert val == pytest.approx(_torus_max(P, rng), rel=0, abs=1e-12)
        assert np.allclose(k @ k.conj().T, np.eye(c), atol=1e-12)
        assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-12)
        assert np.real(np.trace(k.conj().T @ P)) == pytest.approx(val, abs=1e-12)
        # stationary on all of SU(c): the skew part of k^H P is a multiple of i 1
        A = k.conj().T @ P
        skew = (A - A.conj().T) / 2
        assert np.allclose(skew - np.trace(skew) / c * np.eye(c), 0.0, atol=1e-12)


@pytest.mark.parametrize(
    "shape",
    [(5, 2, 2), (5, 3, 3), (5, 4, 4), (3, 7, 3, 3)],
    ids=["c2", "c3", "c4", "rows-angles-c3"],
)
def test_su_procrustes_stack_matches_single_blocks(shape):
    # every block of a stack gets its own bisection steps and maximizer, bit
    # for bit; the last shape has two batch axes
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


def _su_curve_cases():
    # c = 2..5 at random; a tied smallest sigma (c = 2 and 4); a zero smallest
    # sigma; tau = pi exactly on ties (det(U V^h) = -1 at theta = 0), where at
    # c = 2 sigma_1 + sigma_2 e^{i tau} is exactly 0
    rng = np.random.default_rng(41)
    cases = [
        pytest.param(rng.normal(size=(c, c)) + 1j * rng.normal(size=(c, c)), id=f"random-c{c}")
        for c in (2, 3, 4, 5)
    ]
    for name, sig, tau in (
        ("tie-c2", [1.3, 1.3], 2.0),
        ("tie-c4", [1.7, 0.6, 0.6, 0.6], 2.5),
        ("zero-c3", [2.0, 1.1, 0.0], 1.0),
    ):
        U, V = haar_matrices("su", len(sig), rng, 2)
        U[:, 0] *= np.exp(-1j * tau)  # U, V special unitary: -arg det(U V^h) = tau
        cases.append(pytest.param(U @ np.diag(sig) @ V.conj().T, id=name))
    for sig in ([1.0, -1.0], [1.0, 1.0, -1.0]):
        cases.append(pytest.param(np.diag(sig).astype(complex), id=f"pi-tie-c{len(sig)}"))
    return cases


@pytest.mark.parametrize("P", _su_curve_cases())
def test_su_curve_is_the_rotated_block_maximum(P):
    # the maximum over SU(c) of Re tr(k^H e^{-i a theta} P) is the curve of
    # P's singular values at det(U V^h) e^{-i c a theta}, with exact first and
    # second derivatives in theta; no operation may warn, even on a tie
    c, a = len(P), 0.7
    U, sig, Vh = np.linalg.svd(P)
    det = np.linalg.det(U @ Vh)
    thetas = np.linspace(0.0, 2 * np.pi / (c * a), 97)

    def block_max(step):
        return _su_procrustes(np.exp(-1j * a * (thetas + step))[:, None, None] * P)[0]

    with np.errstate(all="raise"):
        F, F1, F2 = _su_curve(sig, det * np.exp(-1j * c * a * thetas))
        np.testing.assert_allclose(F, block_max(0.0), rtol=0, atol=1e-13)
        assert np.all(np.isfinite(F1)) and np.all(np.isfinite(F2))
        # central differences, away from tau = +-pi, where F may have a kink
        smooth = np.abs(np.angle(det * np.exp(-1j * c * a * thetas))) < np.pi - 0.05
        h = 1e-6
        slope = (block_max(h) - block_max(-h)) / (2 * h)
        np.testing.assert_allclose((c * a * F1)[smooth], slope[smooth], rtol=0, atol=1e-8)
        h = 1e-4
        curv = (block_max(h) - 2 * F + block_max(-h)) / h**2
        np.testing.assert_allclose(((c * a) ** 2 * F2)[smooth], curv[smooth], rtol=0, atol=1e-5)


def test_so_procrustes_exact():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(3, 3))
    val, k = _so_procrustes(A)
    assert np.allclose(k @ k.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(k) == pytest.approx(1.0, abs=1e-12)
    assert np.trace(k.T @ A) == pytest.approx(val, abs=1e-12)
    best = max(np.trace(k.T @ A) for k in haar_matrices("so", 3, rng, 4000))
    assert best <= val + 1e-9


# --- chords ------------------------------------------------------------------------


def test_chord_zero_on_same_coset(su3, so6):
    rng = np.random.default_rng(6)
    for model in (su3, so6):
        x = haar_points(model, rng, 1)[0]
        k = sample_subgroup_element(model, model.k1_factors, rng)
        y = CosetPoint(model, x.rep @ k)
        assert chord(model, x, y)[1] < 1e-12


def test_chord_symmetric(su3, so6):
    rng = np.random.default_rng(7)
    for model in (su3, so6):
        x, y = haar_points(model, rng, 2)
        assert chord(model, x, y)[1] == pytest.approx(chord(model, y, x)[1], abs=1e-9)


def test_chord_lower_at_most_upper(su3, so6):
    rng = np.random.default_rng(8)
    for model in (su3, so6):
        for _ in range(10):
            x, y = haar_points(model, rng, 2)
            lower, upper = chord(model, x, y)
            assert lower <= upper + 1e-12
            # the shipped models have exact block maximizers
            assert upper - lower < 1e-6


@pytest.mark.parametrize("case_id", ["su4-su1u3--k1-0a2", "su5-su2u3--k1-0a1-1a2"])
def test_chord_bounds_meet_on_su_blocks(case_id):
    # K1 without a circle but with an SU(3) block: the block maximum is
    # exact, so the lower value is the upper one up to the trace slack
    model = model_for(case_id)
    rng = np.random.default_rng(40)
    for _ in range(5):
        x, y = haar_points(model, rng, 2)
        lower, upper = chord(model, x, y)
        assert 0.0 <= upper - lower < 1e-9


def test_chord_k_includes_more_group(su3):
    # minimizing over the bigger subgroup K can only shrink the chord
    rng = np.random.default_rng(9)
    x, y = haar_points(su3, rng, 2)
    k_factors = su3.k1_factors + su3.k2_factors
    assert chord(su3, x, y, k_factors)[1] <= chord(su3, x, y)[1] + 1e-9


def test_fiber_closes_at_pi(su3):
    e = base_point(su3)
    far = CosetPoint(su3, matrix_exp(np.pi * su3.circle_mat))
    assert chord(su3, e, far)[1] < 1e-10


# one case per branch of the maximizer: SO blocks (so6-stiefel); an SU(2)
# block alone (K1 of su3-hopf); a circle with an SU(2) block (K of su3-hopf);
# a circle alone (K1 of su3-su1u2--k1-t1); an SU(3) block alone (K1 of
# su4-su1u3--k1-0a2); a circle with an SU(3) block (its K, and K1 of
# su5-su2u3--k1-1a2-t1).  The last column is a circle grid size (None: the
# default CIRCLE_GRID).
K_STAR_CASES = [
    ("so6-stiefel", "k1", None),
    ("so6-stiefel", "k", None),
    ("su3-hopf", "k1", None),
    ("su3-hopf", "k", None),
    ("su3-su1u2--k1-t1", "k1", None),
    ("su4-su1u3--k1-0a2", "k1", None),
    ("su4-su1u3--k1-0a2", "k", None),
    ("su5-su2u3--k1-1a2-t1", "k1", None),
]


@pytest.mark.parametrize("case_id, group, grid", K_STAR_CASES)
def test_k_star_batch_matches_per_row_chords(case_id, group, grid, monkeypatch):
    if grid is not None:
        monkeypatch.setattr(homspace, "CIRCLE_GRID", grid)
    model = model_for(case_id)
    factors = model.k1_factors + (model.k2_factors if group == "k" else ())
    rng = np.random.default_rng(30)
    U = np.array([p.rep for p in haar_points(model, rng, 3)])
    V = haar_points(model, rng, 1)[0].rep
    K = _k_star_batch(model, U, V, factors)
    # a stack of targets, as the fixed-fiber residual passes, gives the same
    assert np.array_equal(K, _k_star_batch(model, U, np.array([V] * 3), factors))
    uppers = chord_to_coset(model, U, V, factors).upper
    for u, k, upper in zip(U, K, uppers):
        alone = _k_star_batch(model, u[None], V, factors)[0]
        np.testing.assert_allclose(k, alone, rtol=0, atol=1e-14)
        for _ in range(20):
            s = sample_subgroup_element(model, factors, rng)
            assert upper <= np.linalg.norm(u @ s - V) + 1e-9


# a circle alone, an SU(2) block, SO blocks, and K = K1 K2 with a circle
STACK_CASES = [
    ("su3-su1u2--k1-t1", "k1"),
    ("su3-hopf", "k1"),
    ("so8-so3so5--k1-0so3", "k1"),
    ("su3-hopf", "k"),
]


@pytest.mark.parametrize("case_id, group", STACK_CASES)
def test_stacked_chords_equal_one_row_calls(case_id, group):
    # a row's bounds do not depend on the rows it is computed with
    model = model_for(case_id)
    factors = model.k1_factors + (model.k2_factors if group == "k" else ())
    rng = np.random.default_rng(31)
    xs = haar_points(model, rng, 6)
    ys = haar_points(model, rng, 6)
    U, V = np.array([x.rep for x in xs]), np.array([y.rep for y in ys])
    ch = chord_to_coset(model, U, V, factors)
    assert ch.lower.shape == ch.upper.shape == (6,)
    assert np.all(ch.lower <= ch.upper)
    lowers = distance_lower_bound(xs, ys)
    for i, (x, y) in enumerate(zip(xs, ys)):
        assert chord(model, x, y, factors) == (ch.lower[i], ch.upper[i])
        if group == "k1":
            assert lower_bound(x, y) == lowers[i]


def _brentq_circle_angles(model, P, factors):
    """The circle angles as a per-row oracle: the same grid, scipy's brentq
    (xtol 1e-14) on the envelope derivative of each bracketed row, and the
    better of the polished and the grid angle."""
    speeds = model.circle_phases
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
# su3-hopf), and a circle with an SU(3) block (K of su4-su1u3--k1-0a2)
@pytest.mark.parametrize(
    "case_id, group, grid, rows",
    [
        ("su3-su1u2--k1-t1", "k1", None, 60),
        ("su3-hopf", "k", None, 60),
        ("su4-su1u3--k1-0a2", "k", None, 8),
    ],
)
def test_polished_circle_angles_match_brentq(case_id, group, grid, rows, monkeypatch):
    if grid is not None:
        monkeypatch.setattr(homspace, "CIRCLE_GRID", grid)
    model = model_for(case_id)
    factors = model.k1_factors + (model.k2_factors if group == "k" else ())
    rng = np.random.default_rng(40)
    U = np.array([p.rep for p in haar_points(model, rng, rows)])
    P = _complex_pairing(np.swapaxes(U, 1, 2) @ haar_points(model, rng, 1)[0].rep)
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
    got = _polish_roots(derivs, np.array([1.0]), lo, hi)
    assert got[0] == 1.0


def test_polish_accepts_a_newton_point_on_a_bracket_end():
    # at x = 1, T' = 1e-20 > 0 makes 1 the left bracket end, and the Newton
    # point 1 + 1e-20 rounds to 1: it lies in the bracket and ends the
    # polish, where a strict test would bisect toward the right end
    def derivs(x, rows):
        return 1e-20 - (x - 1.0), -np.ones_like(x)

    lo, hi = np.array([0.99]), np.array([1.02])
    got = _polish_roots(derivs, np.array([1.0]), lo, hi)
    assert got[0] == 1.0


def central_jacobian(residuals, c, h=1e-6):
    """Central differences of a one-problem residual map at c; k* is
    solved again at every point."""
    cols = []
    for j in range(len(c)):
        e = np.zeros(len(c))
        e[j] = h
        up, down = residuals((c + e)[None], np.arange(1)), residuals((c - e)[None], np.arange(1))
        cols.append((up[0] - down[0]) / (2 * h))
    return np.array(cols).T


# SO blocks, an SU(2) block, an SU(3) block, and a circle
JACOBIAN_CASES = ["so6-stiefel", "su3-hopf", "su4-su1u3--k1-0a2", "su3-su1u2--k1-t1"]


@pytest.mark.parametrize("case_id", JACOBIAN_CASES)
def test_coset_jacobian_is_exact_at_a_zero_residual(case_id):
    # there the orbit-projected Jacobian with k* held fixed is the full
    # derivative, k* moving included
    model = model_for(case_id)
    rng = np.random.default_rng(31)
    c = rng.normal(size=model.dim_m1)
    c *= 0.7 / np.linalg.norm(c)
    U = haar_points(model, rng, 1)[0].rep[None]
    residuals, jacobians = _log_maps(model, U, U @ matrix_exp(model.from_m1_coords(c)))
    assert np.linalg.norm(residuals(c[None], np.arange(1))) < 1e-13
    J = jacobians(np.arange(1))[0]
    np.testing.assert_allclose(J, central_jacobian(residuals, c), rtol=0, atol=1e-6)


@pytest.mark.parametrize("case_id", JACOBIAN_CASES)
def test_coset_jacobian_gives_the_gradient_at_haar_pairs(case_id):
    # away from a zero residual J is not the derivative, but J^T F is the
    # gradient of |F|^2 / 2 (envelope theorem: F is orthogonal to the
    # K-orbit at the maximizer)
    model = model_for(case_id)
    rng = np.random.default_rng(32)
    U, V = (np.array([p.rep]) for p in haar_points(model, rng, 2))
    residuals, jacobians = _log_maps(model, U, V)
    c = rng.normal(scale=0.5, size=model.dim_m1)
    F = residuals(c[None], np.arange(1))[0]
    J = jacobians(np.arange(1))[0]
    assert np.linalg.norm(F) > 0.1
    grad = central_jacobian(lambda C, rows: (residuals(C, rows) ** 2).sum(1, keepdims=True) / 2, c)
    np.testing.assert_allclose(J.T @ F, grad[0], rtol=0, atol=1e-6)


# --- metric constants ---------------------------------------------------------------


def test_metric_constants(su3, so6):
    assert su3.frobenius_lambda_min == pytest.approx(3.0, abs=1e-9)
    assert so6.frobenius_lambda_min == pytest.approx(4.0, abs=1e-9)


def test_lower_bound_metric_is_per_model_not_per_name(su3):
    # a model whose m1 basis is halved keeps su3's name but has lambda_min
    # 12, so the chord (which does not see m1) gives twice the lower bound
    rng = np.random.default_rng(30)
    x, y = haar_points(su3, rng, 2)
    lower = lower_bound(x, y)
    half = dataclasses.replace(su3, m1_basis=su3.m1_basis / 2)
    assert half.name == su3.name
    lower_half = lower_bound(CosetPoint(half, x.rep), CosetPoint(half, y.rep))
    assert lower_half == pytest.approx(2 * lower, rel=1e-12)
    assert half.frobenius_lambda_min == pytest.approx(12.0, abs=1e-9)


@pytest.mark.parametrize(
    "case_id", ["su3-hopf", "so6-stiefel", "so8-so3so5--k1-0so3", "su4-su1u3--k1-0a2"]
)
def test_lower_bound_at_most_geodesic_length(case_id):
    # geodesic(x, xi, 1) has metric length ||xi||, at least the distance it
    # spans; at a short xi that geodesic is minimizing and the two agree
    model = model_for(case_id)
    rng = np.random.default_rng(38)
    for length in (0.05, 0.3, 1.0, 2.5):
        x = haar_points(model, rng, 1)[0]
        c = rng.normal(size=model.dim_m1)
        xi = model.from_m1_coords(c)
        xi *= length / model.m1_norm(xi)
        lower = lower_bound(x, geodesic(x, xi, 1.0))
        assert 0.0 < lower <= model.m1_norm(xi) + 1e-12


def test_lower_bound_on_the_fiber_circle(su3):
    # exp((t / 6) z) K1 lies at distance t from the base point for small t
    e = base_point(su3)
    for t in (0.05, 0.3, 1.0):
        y = CosetPoint(su3, matrix_exp((t / 6.0) * su3.circle_mat))
        assert 0.0 < lower_bound(e, y) <= t + 1e-12


@pytest.mark.parametrize("case_id", ["su3-hopf", "so6-stiefel", "so8-so3so5--k1-0so3"])
def test_arc_lower_bound_never_below_chord_bound(case_id):
    model = model_for(case_id)
    rng = np.random.default_rng(39)
    scale = math.sqrt(model.frobenius_lambda_min)
    for _ in range(10):
        x, y = haar_points(model, rng, 2)
        assert lower_bound(x, y) >= scale * chord(model, x, y)[0]
    x = haar_points(model, rng, 1)[0]
    assert lower_bound(x, x) == pytest.approx(0.0, abs=1e-6)


# --- Killing-field lengths ------------------------------------------------------------


def test_right_field_constant_length(su3):
    eta = KillingField(su3, "right", su3.circle_mat)
    rng = np.random.default_rng(10)
    vals = [killing_length(eta, p) for p in haar_points(su3, rng, 50)]
    assert max(vals) - min(vals) < 1e-10
    assert vals[0] == pytest.approx(6.0, abs=1e-9)


def test_left_field_generic_not_constant(su3):
    rng = np.random.default_rng(11)
    xi = su3.g.from_coords(rng.normal(size=su3.dim_g))
    f = KillingField(su3, "left", xi)
    vals = [killing_length(f, p) for p in haar_points(su3, rng, 50)]
    assert max(vals) - min(vals) > 1e-3


def test_left_version_of_fiber_direction_not_constant(su3):
    # the same generator, acting from the left, fails to have constant length
    f = KillingField(su3, "left", su3.circle_mat)
    rng = np.random.default_rng(12)
    vals = [killing_length(f, p) for p in haar_points(su3, rng, 50)]
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
    x = haar_points(su3, rng, 1)[0]
    xi = su3.from_m1_coords(rng.normal(size=su3.dim_m1))
    assert np.allclose(geodesic(x, xi, 0.0).rep, x.rep, atol=1e-12)


def test_geodesic_concatenation(su3):
    rng = np.random.default_rng(14)
    x = haar_points(su3, rng, 1)[0]
    xi = su3.from_m1_coords(rng.normal(size=su3.dim_m1))
    a = geodesic(x, xi, 0.9)
    b = geodesic(geodesic(x, xi, 0.4), xi, 0.5)
    assert np.allclose(a.rep, b.rep, atol=1e-10)


def test_geodesic_speed_constant(su3, so6):
    # the generating left field has constant length along its own curve
    rng = np.random.default_rng(15)
    for model in (su3, so6):
        x = haar_points(model, rng, 1)[0]
        c = rng.normal(size=model.dim_m1)
        xi = model.from_m1_coords(0.7 * c / np.linalg.norm(c))
        zeta = x.rep @ xi @ x.rep.T  # the field generating this geodesic
        f = KillingField(model, "left", zeta)
        vals = [killing_length(f, geodesic(x, xi, t)) for t in (0.0, 0.3, 1.1, 2.7)]
        assert max(vals) - min(vals) < 1e-8


def test_log_roundtrip(su3, so6):
    rng = np.random.default_rng(16)
    for model in (su3, so6):
        x = haar_points(model, rng, 1)[0]
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
    x, y = haar_points(model, rng, 2)
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
    points = [base_point(model), *haar_points(model, prng, n - 1)]
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
        xs.append(haar_points(model, rng, 1)[0])
        ys.append(haar_points(model, rng, 1)[0])
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
    # the Jacobians are taken and reduced to J^T J and J^T F per stack of
    # at most _LM_SLICE (problem, column) pairs; one problem per stack must
    # not change a single iterate
    rng = np.random.default_rng(37)
    d = so6.dim_m1
    U = np.array([p.rep for p in haar_points(so6, rng, 5)])
    V = np.array([p.rep for p in haar_points(so6, rng, 5)])
    C0 = rng.normal(size=(5, d))
    residuals, jacobians = _log_maps(so6, U, V)
    sizes = []

    def counted(rows):
        sizes.append(len(rows))
        return jacobians(rows)

    X, F = homspace._lm(residuals, counted, C0)
    assert max(sizes) == 5  # every Jacobian in one stack
    sizes.clear()
    monkeypatch.setattr(homspace, "_LM_SLICE", d)
    X2, F2 = homspace._lm(residuals, counted, C0)
    assert max(sizes) == 1  # one problem's d columns per stack
    assert np.array_equal(X, X2) and np.array_equal(F, F2)


VERIFY_CASES = ["su3-hopf", "so6-stiefel", "su3-su1u2--k1-t1", "so8-so3so5--k1-0so3"]


@pytest.mark.parametrize("case_id", VERIFY_CASES)
def test_orthogonal_log_matches_scipy_logm(case_id):
    # the smart start of a log: W = U^T V k*^T for Haar points U, V
    model = model_for(case_id)
    rng = np.random.default_rng(39)
    U = np.array([p.rep for p in haar_points(model, rng, 12)])
    V = np.array([p.rep for p in haar_points(model, rng, 12)])
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
    d = model.dim_m1
    U = np.array([p.rep for p in haar_points(model, rng, 3)])
    C = rng.normal(size=(3, d))
    C *= 0.5 / np.linalg.norm(C, axis=1, keepdims=True)
    V = U @ matrix_exp(model.from_m1_coords(C))
    calls = []
    maps = _log_maps(model, U, V)

    def residuals(X, rows):
        calls.append(len(rows))
        return maps[0](X, rows)

    def jacobians(rows):
        calls.append(len(rows))
        return maps[1](rows)

    X, F = homspace._lm(residuals, jacobians, C, tol=1e-8)
    assert len(calls) == 1 and np.array_equal(X, C)
    calls.clear()
    X, F = homspace._lm(residuals, jacobians, C + 1e-3 * rng.normal(size=C.shape), tol=1e-8)
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
                assert chord(model, geodesic(p, log.xi, 1.0), q)[1] < homspace.COSET_TOL
        if sample is samples[0]:
            # a central isometry poses one problem at every point: the
            # uppers agree
            assert len({log.upper for log in shared}) == 1
    # the central profile's points adopt its shortest log; away from its
    # own point a non-central profile's shortest log misses the image coset
    assert adopted[0] > 0 and adopted[1:] == [0, 0]


@pytest.mark.parametrize("case_id", ["so6-stiefel", "su3-hopf"])
def test_base_point_log_reaches_every_point_only_for_a_central_isometry(case_id):
    # a verify job solves each profile's base point alone and shares that
    # log: gamma = z k2 poses the left translate of the base problem at
    # every point, a noncentral left translation does not
    model = model_for(case_id)
    rng = np.random.default_rng(41)
    k2 = sample_subgroup_element(model, model.k2_factors, rng)
    central = Isometry(model, left=model.center_elements[1], right=k2)
    noncentral = Isometry(model, left=sample_subgroup_element(model, model.k2_factors, rng))
    for gamma in (central, noncentral):
        sample = homspace.sample_profile(gamma, n_samples=8, seed=13)
        base = homspace.riemannian_logs(
            [sample.points[0]], [sample.images[0]], sample.log_seeds[:1], restarts=2
        )
        assert base[0].converged
        shared = share_logs(sample, base)
        assert len(shared) == len(sample.points) and shared[0] is base[0]
        lowers = distance_lower_bound(sample.points, sample.images).tolist()
        report = homspace.profile_report(sample, shared, lowers)
        if gamma is central:
            for p, q, log in zip(sample.points, sample.images, shared):
                assert log.converged and log.xi is base[0].xi
                assert log.upper == pytest.approx(model.m1_norm(log.xi), rel=1e-12)
                assert chord(model, geodesic(p, log.xi, 1.0), q)[1] < homspace.COSET_TOL
            assert report.verdict == "constant-within-tol"
        else:
            assert not any(log.converged for log in shared[1:])
            assert all(log.upper == math.inf for log in shared[1:])
            assert report.verdict != "constant-within-tol"


def test_log_of_same_point_is_zero(su3):
    x = haar_points(su3, np.random.default_rng(18), 1)[0]
    log = riemannian_log(x, x, restarts=1, seed=0)
    assert log.converged and log.upper < 1e-9


def test_log_fiber_arc_small(su3):
    # distance along the fiber: t = 0.3 of unit speed
    e = base_point(su3)
    y = CosetPoint(su3, matrix_exp((0.3 / 6.0) * su3.circle_mat))
    log = riemannian_log(e, y, restarts=2, seed=19)
    assert log.converged
    assert log.upper == pytest.approx(0.3, abs=1e-6)


def test_riemannian_logs_rejects_negative_restarts(su3):
    x, y = haar_points(su3, np.random.default_rng(33), 2)
    with pytest.raises(ValueError, match="restarts"):
        homspace.riemannian_logs([x], [y], [0], restarts=-1)
    # zero restarts keeps the smart start alone
    assert homspace.riemannian_logs([x], [x], [0], restarts=0)[0].converged


def test_log_monotone_in_restarts(su3):
    rng = np.random.default_rng(20)
    x, y = haar_points(su3, rng, 2)
    u_small = riemannian_log(x, y, restarts=0, seed=21).upper
    u_big = riemannian_log(x, y, restarts=4, seed=21).upper
    assert u_big <= u_small + 1e-12


def test_log_never_reports_below_true_distance(su3):
    # the log bound stays above the chord-based lower bound
    rng = np.random.default_rng(22)
    for _ in range(5):
        x, y = haar_points(su3, rng, 2)
        log = riemannian_log(x, y, restarts=2, seed=23)
        if log.converged:
            assert lower_bound(x, y) <= log.upper + 1e-9


def test_lower_bound_at_most_upper(su3, so6):
    rng = np.random.default_rng(24)
    # su4-su1u3--k1-0a2: K1 = SU(3), whose lower bound is the exact block maximum
    for model in (su3, so6, model_for("su4-su1u3--k1-0a2")):
        for _ in range(5):
            x, y = haar_points(model, rng, 2)
            log = riemannian_log(x, y, restarts=2, seed=25)
            if log.converged:
                assert lower_bound(x, y) <= log.upper + 1e-9


# the SO, SU and circle shapes of verify's bound-ordering check
CURVE_CASES = ["so6-stiefel", "su3-hopf", "su3-su1u2--k1-t1"]


def smart_curve_bounds(model, xs, ys):
    """(lower, upper) of each pair's smart-start curve: the lower bound from
    x to its end x exp(xi0), and the curve's length ||xi0||."""
    starts = smart_starts(xs, ys)
    ends = [geodesic(x, model.from_m1_coords(c), 1.0) for x, c in zip(xs, starts)]
    return distance_lower_bound(xs, ends), np.linalg.norm(starts, axis=1)


@pytest.mark.parametrize("case_id", CURVE_CASES)
def test_smart_start_curve_bounds_its_end_on_haar_pairs(case_id):
    # x exp(t xi0) K1, 0 <= t <= 1, has length ||xi0||, so no end lies
    # farther from x than that, whatever pair the smart start came from
    model = model_for(case_id)
    rng = np.random.default_rng(41)
    xs, ys = haar_points(model, rng, 12), haar_points(model, rng, 12)
    lowers, uppers = smart_curve_bounds(model, xs, ys)
    assert np.all(lowers > 0.0)
    assert np.all(lowers <= uppers + 1e-9)


@pytest.mark.parametrize("case_id", CURVE_CASES)
def test_smart_start_curve_bound_on_geodesics_of_known_length(case_id):
    # on y = x exp(xi) the smart start recovers |xi|, so the check runs
    # where the lower bound is near tight, and both bounds stay below |xi|
    model = model_for(case_id)
    rng = np.random.default_rng(42)
    for length in (0.05, 0.3, 1.0, 2.0, 3.0):
        x = haar_points(model, rng, 1)[0]
        xi = model.from_m1_coords(rng.normal(size=model.dim_m1))
        xi *= length / model.m1_norm(xi)
        y = geodesic(x, xi, 1.0)
        [lower], [upper] = smart_curve_bounds(model, [x], [y])
        assert upper == pytest.approx(length, rel=1e-4)
        assert lower <= upper + 1e-9
        assert lower_bound(x, y) <= length + 1e-9


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


def test_displacement_bounds_ordered(su3):
    gam = Isometry(su3, left=su3.center_elements[1], label="central-left")
    rep = displacement_profile(gam, n_samples=8, seed=3, restarts=2)
    for lo, up in zip(rep.lowers, rep.uppers):
        assert lo <= up + 1e-9


# --- torus witnesses -------------------------------------------------------------------


@pytest.mark.parametrize(
    "case_id, upper",
    [
        ("so8-so3so5--k1-0so3", 8.330200316911625),  # K1 = SO(3)
        ("so8-so3so5--k1-1so5", 4.9399701785543355),  # K1 = SO(5)
        ("su3-su1u2--k1-t1", 0.30595830282989467),  # K1 = a circle
        ("su3-hopf", 3.4548506189989014),  # K1 = SU(2)
        ("su4-su1u3--k1-0a2", 1.4770368478521674),  # K1 = SU(3)
    ],
)
def test_torus_witness_is_a_log_to_the_image(case_id, upper):
    # left translations by a sample of K1, of K2 and of G: each witness
    # is a log in m1 (traceless on SU models) whose exponential carries
    # the witness point into its image coset, so its length is an upper
    # bound at that point and never below the certified lower bound;
    # a K1 element fixes a point, where the witness upper is 0
    model = model_for(case_id)
    rng = np.random.default_rng(1)
    ks = [sample_subgroup_element(model, f, rng) for f in (model.k1_factors, model.k2_factors)]
    ks.append(haar_points(model, rng, 1)[0].rep)
    logs = []
    for k in ks:
        gam = Isometry(model, left=k)
        x, log = _torus_witness(gam)
        assert log.converged
        assert model.g.membership_residual(log.xi) < 1e-12
        assert np.linalg.norm(log.xi - model.project_m1(log.xi)) < 1e-12
        if model.complex_size:
            assert abs(np.trace(complexify(log.xi))) < 1e-12
        assert log.upper == pytest.approx(math.sqrt(model.kappa_ip(log.xi, log.xi)), abs=1e-12)
        end = CosetPoint(model, x.rep @ matrix_exp(log.xi))
        assert chord(model, end, gam.apply(x))[1] < 1e-12
        assert lower_bound(x, gam.apply(x)) <= log.upper + 1e-9
        logs.append(log)
    assert logs[0].upper < 1e-12
    assert logs[2].upper == pytest.approx(upper, rel=0, abs=1e-9)


def test_witness_report_never_claims_constancy(su3):
    # one upper bound shows no spread: a separation certifies, anything
    # else is inconclusive, even a witness upper of 0 (a K1 element)
    gam = Isometry(su3, left=matrix_exp(0.7 * su3.k1.basis[0]), label="k1-left")
    sample = homspace.sample_profile(gam, n_samples=6, seed=4)
    lowers = distance_lower_bound(sample.points, sample.images).tolist()
    rep = homspace.witness_report(sample, lowers)
    assert rep.verdict == "certified-nonconstant"
    assert rep.uppers[0] < 1e-12 and rep.gap == pytest.approx(max(lowers), abs=1e-12)
    assert homspace.witness_report(sample, [0.0] * 6).verdict == "inconclusive"
    # a witness that cannot meet the coset tolerance gives no upper bound
    rep = homspace.witness_report(sample, lowers, tol=1e-300)
    assert (rep.verdict, rep.gap) == ("inconclusive", -math.inf)


# --- fixed fibers -----------------------------------------------------------------------


# one equal-rank model per K shape: a circle and SU(2), a circle and a
# single column, a circle and two SU(2) blocks, SU(3) and a single column,
# SU(2) and SU(3)
@pytest.mark.parametrize("seed", range(1, 6))
@pytest.mark.parametrize(
    "case_id",
    [
        "su3-hopf",
        "su3-su1u2--k1-t1",
        "su4-su2u2--k1-0a1-t1",
        "su4-su1u3--k1-0a2",
        "su5-su2u3--k1-0a1-1a2",
    ],
)
def test_fixed_fiber_found_generic_su3(case_id, seed):
    model = model_for(case_id)
    assert model.record.equal_rank
    g = haar_points(model, np.random.default_rng(seed), 1)[0].rep
    pt, resid = fixed_fiber(Isometry(model, left=g))
    assert pt is not None and resid < 1e-12
    factors = model.k1_factors + model.k2_factors
    assert chord(model, CosetPoint(model, g @ pt.rep), pt, factors)[1] < 1e-12


def test_fixed_fiber_trivial_for_isotropy_element(su3):
    g = matrix_exp(0.7 * su3.circle_mat)
    pt, resid = fixed_fiber(Isometry(su3, left=g))
    assert pt is not None and resid < 1e-8
    # a real model of lower rank: K's torus planes take k's rotation planes
    so8 = model_for("so8-so3so5--k1-0so3")
    assert not so8.record.equal_rank
    factors = so8.k1_factors + so8.k2_factors
    k = sample_subgroup_element(so8, factors, np.random.default_rng(5))
    pt, resid = fixed_fiber(Isometry(so8, left=k))
    assert pt is not None and resid < 1e-12
    assert chord(so8, CosetPoint(so8, k @ pt.rep), pt, factors)[1] < 1e-12


def test_fixed_fiber_honest_negative(so6):
    angles = (0.9, 1.7, 2.5)
    rot = np.zeros((6, 6))
    for i, a in enumerate(angles):
        rot[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = [
            [math.cos(a), -math.sin(a)],
            [math.sin(a), math.cos(a)],
        ]
    pt, resid = fixed_fiber(Isometry(so6, left=rot))
    assert pt is None
    assert resid > 0.5
    # no method can succeed: x^T rot x lies in K = SO(3) x SO(3) for a
    # fixed coset x K, but rot has no eigenvalue 1, while every element of
    # SO(3) x SO(3) has it twice
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
    for Q in haar_matrices("o", 6, rng, 10):
        if np.linalg.det(Q) > 0:
            Q[:, 0] = -Q[:, 0]
        cert = fixed_point_certificate(Q, 1, 1)
        assert cert.residual < 1e-9
        assert cert.dimension == 3
        B = cert.basis
        assert np.allclose(B.T @ B, np.eye(3), atol=1e-9)


def test_certificate_other_signature():
    rng = np.random.default_rng(30)
    Q = haar_matrices("o", 8, rng, 1)[0]
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
        Q = haar_matrices("o", 2 * s + 2 + 2 * t, rng, 1)[0]
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
    for R in haar_matrices("so", n, rng, 20):
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
