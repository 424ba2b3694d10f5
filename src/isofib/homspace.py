"""Geometry of M~ = G/K1 with the normal metric (-Killing form on m1).

Points are group representatives of cosets; all coset comparisons go
through chord values: chord(x, y) = min over k in K1 of the ambient
Frobenius norm ||x k - y||.  `chord_to_coset` returns a certified pair
(lower, upper) per row of a stack: the upper value comes from an explicit
feasible k, the lower value from the exact maximum or, with a circle, a
group relaxation (full torus / full unitary group), so distance
certificates built on the lower value do not rest on the circle's grid
polish.  The factors of K1 and K2 are SO blocks, SU blocks of two or more
columns, and a circle.  Every block has an exact maximizer, so without a circle both
sides agree to roundoff; with a circle they agree to grid-polish accuracy.

Displacement verdicts compare upper bounds against per-point lower bounds
(`distance_lower_bound`: the arc length sqrt(lambda_min N) 2 asin(c / (2
sqrt N)) that a certified chord lower value c forces on an N x N model,
where lambda_min is the smallest eigenvalue of the normal metric against
the ambient Frobenius form), batched over point pairs.  A profile is
reported constant-within-tol, certified-nonconstant (some point's upper
bound lies below another point's lower bound), or inconclusive.  A
profile that may turn out constant (`profile_report`) takes an upper bound
at every sampled point from a multistart Riemannian log.  A left
translation predicted nonconstant (`witness_report`) takes one upper
bound, at a closed-form torus witness point (`_torus_witness`): there x^-1
k x lies in a maximal torus that contains one of K1, and what K1's torus
cannot cancel has an explicit log, checked to reach the image coset.

A fixed fiber (`fixed_fiber`) comes from the same alignment in closed
form: a frame x with x^-1 g x in a maximal torus that contains K's (on an
equal-rank model, one in K), checked to fix x K.  The Riemannian log is
the one Levenberg-Marquardt solve, of coset residuals F = U exp(xi) k* -
V, each evaluation needing the chord maximizer k*.  Its Jacobians (`_coset_jacobian`) come from one
eigendecomposition of xi per problem and the k* of the residual: the
columns hold k* fixed, less their projection onto the K1-orbit's tangent,
which leaves J^T F the exact gradient and J exact at a zero residual.
`_k_star_batch` computes k* for a whole stack of points in one numpy
pass (batched SO Procrustes;
`_su_procrustes` for SU blocks, closed form for SU(2) and one bisection
on the whole stack for larger blocks; under a circle, one SVD per row
makes each SU block's maximum an exact curve in the angle, `_su_curve`,
evaluated on one theta grid for every row, then one safeguarded Newton
polish, `_polish_roots`, of every row's angle with exact T' and T'').
`_lm` advances a stack of problems in lockstep, each with its own damping
and stop, sends the trial points of all of them through stacked residual
calls of at most `_LM_SLICE` points, and takes and reduces the Jacobians
to J^T J and J^T F in stacks of at most `_LM_SLICE` (problem, column)
pairs; a problem stops at the latest once its residual is at most 1e-6
times the tolerance of its solve.
`riemannian_logs` solves the (pair, start) problems of any number of
point pairs in one `_lm` call, starting each pair from its smart start
(`smart_starts`: the m1 part of one batched real log, `_orthogonal_log`,
of the chord-aligned difference) and seeded perturbations of it: a
verify job passes it every log it needs (round trips and the base point
of each of its two central displacement profiles).  A bound-ordering
pair (x, y) needs no solve: the curve x exp(t xi0) K1 of its smart start
xi0 has length ||xi0||, the upper bound, checked against the lower bound
of its end x exp(xi0).  `distance_lower_bound` takes those ends and the
sampled points of all four profiles in one call.  `riemannian_log` and
`displacement_profile` (`sample_profile`, then `share_logs`,
`distance_lower_bound` and `profile_report`) are compositions.
Haar points come in batches (`haar_points`, over `haar_matrices`): one
normal draw and one stacked QR per batch, laid out so that a batch reads
the stream, and gets the points, that batches of one read in turn.
A log is converged when it holds an explicit xi (`LogResult.converged`).
`share_logs` offers a profile's shortest converged log to each of its
points, which adopt it where it also reaches the image coset and is
shorter than their own, if any.  Every per-problem operation, the matrix
exponential included, acts on that problem's rows alone, so a pair's
result does not depend on the problems it is solved with.  The module
needs numpy alone: the reversal certificates and the SO torus witnesses
take their invariant planes from `np.linalg.eig`.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import CERT_RESIDUAL_TOL, CONSTANT_SPREAD_TOL, COSET_TOL, GAP_TOL
from .liealg import MEMBERSHIP_TOL, BlockFactor, GroupModel, complexify, matrix_exp, realify

ABS_ZERO_TOL = 1e-9
CIRCLE_GRID = 256
TRACE_SLACK = 1e-11  # absorbs roundoff in the max traces behind lower bounds


# --- points and isometries ----------------------------------------------------


@dataclass(frozen=True)
class CosetPoint:
    """A coset x K1 (or x K for base-space points), held by a representative."""

    model: GroupModel
    rep: np.ndarray

    def __post_init__(self):
        r = self.rep
        if np.linalg.norm(r @ r.T - np.eye(r.shape[0])) > 1e-9:
            raise ValueError("coset representative is not orthogonal")


@dataclass(frozen=True)
class Isometry:
    """x K1 -> left . x . right^{-1} K1; right must lie in r(K2)."""

    model: GroupModel
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    label: str = ""

    def apply(self, x: CosetPoint) -> CosetPoint:
        rep = x.rep
        if self.left is not None:
            rep = self.left @ rep
        if self.right is not None:
            rep = rep @ self.right.T
        return CosetPoint(self.model, rep)


@dataclass(frozen=True)
class KillingField:
    """Left fields come from xi in g; right fields from eta in k2."""

    model: GroupModel
    kind: str  # 'left' | 'right'
    xi: np.ndarray

    def __post_init__(self):
        if self.kind not in ("left", "right"):
            raise ValueError("kind must be 'left' or 'right'")
        alg = self.model.g if self.kind == "left" else self.model.k2
        if alg.membership_residual(self.xi) > MEMBERSHIP_TOL:
            raise ValueError(f"field generator outside {alg.name}")


def base_point(model: GroupModel) -> CosetPoint:
    return CosetPoint(model, np.eye(model.n))


# --- Haar-like sampling -------------------------------------------------------


def haar_matrices(group: str, size: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, size, size) stack of Haar samples of SO(size), O(size) or
    SU(size) (group "so", "o" or "su"; complex for "su") from one
    `rng.normal` draw and one stacked QR: Q R = Z with the sign or phase of
    each diagonal entry of R moved into Q, then for SO and SU the
    determinant folded into the first column.  The draw is laid out as
    `count` draws of one matrix (for SU the real part, then the imaginary
    part), so a batch reads the stream that batches of one read in turn,
    and each matrix is the one it is alone."""
    Z = rng.normal(size=(count, 2, size, size) if group == "su" else (count, size, size))
    if group == "su":
        Z = (Z[:, 0] + 1j * Z[:, 1]) / np.sqrt(2)
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=1, axis2=2)
    Q = Q * (d / np.abs(d))[:, None, :]
    if group == "su":
        Q[:, :, 0] /= np.linalg.det(Q)[:, None]
    elif group == "so":
        Q[:, :, 0] *= np.sign(np.linalg.det(Q))[:, None]
    return Q


def haar_points(model: GroupModel, rng: np.random.Generator, count: int) -> list[CosetPoint]:
    """count Haar points of the model's group, from one `haar_matrices`
    batch."""
    if model.complex_size:
        reps = realify(haar_matrices("su", model.complex_size, rng, count))
    else:
        reps = haar_matrices("so", model.n, rng, count)
    return [CosetPoint(model, rep) for rep in reps]


def embed_factor_element(
    model: GroupModel, factor: BlockFactor, rng: np.random.Generator
) -> np.ndarray:
    """A Haar sample of one K-factor, embedded in the ambient group."""
    if factor.kind == "circle":
        theta = rng.uniform(0.0, factor.period)
        return matrix_exp(theta * model.circle_mat)
    block = haar_matrices(factor.kind, len(factor.cols), rng, 1)[0]
    ix = np.ix_(factor.cols, factor.cols)
    if factor.kind == "so":
        out = np.eye(model.n)
        out[ix] = block
        return out
    Z = np.eye(model.complex_size, dtype=complex)
    Z[ix] = block
    return realify(Z)


def sample_subgroup_element(
    model: GroupModel, factors: tuple[BlockFactor, ...], rng: np.random.Generator
) -> np.ndarray:
    out = np.eye(model.n)
    for f in factors:
        out = out @ embed_factor_element(model, f, rng)
    return out


# --- chord machinery ----------------------------------------------------------


@dataclass(frozen=True)
class ChordResult:
    lower: np.ndarray  # one certified chord pair per row
    upper: np.ndarray


def _complex_pairing(M: np.ndarray) -> np.ndarray:
    """P with Re tr(k^H P) = tr(realify(k)^T M) for complex k; leading
    axes are a batch."""
    m = M.shape[-1] // 2
    M11, M12 = M[..., :m, :m], M[..., :m, m:]
    M21, M22 = M[..., m:, :m], M[..., m:, m:]
    return (M11 + M22) + 1j * (M21 - M12)


# SU(2) basis 1, diag(i, -i), [[0, 1], [-1, 0]], [[0, i], [i, 0]], flattened
_SU2_BASIS = np.array(
    [[1, 0, 0, 1], [1j, 0, 0, -1j], [0, 1, -1, 0], [0, 1j, 1j, 0]], dtype=complex
)


def _su2_procrustes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max of Re tr(k^H P) over SU(2), with maximizer.  Re tr(k^H P)
    = sum_a q_a t_a for the unit-quaternion coordinates q of k in the basis
    above and t the real part of P's pairing with it, so the max is |t|.
    Leading axes are a batch."""
    t = (P.reshape(P.shape[:-2] + (4,)) @ _SU2_BASIS.conj().T).real
    norm = np.sqrt(np.sum(t * t, axis=-1))
    zero = norm < 1e-300
    q = t / np.where(zero, 1.0, norm)[..., None]
    q = np.where(zero[..., None], (1.0, 0.0, 0.0, 0.0), q)
    return norm, (q @ _SU2_BASIS).reshape(P.shape)


def _su_root(sig: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(cos psi, sin psi, r) for the singular values sig (..., c), c >= 2, in
    descending order and the determinant det = det(U V^h) of an SVD P = U
    diag(sig) V^h (any positive multiple of it will do): r_j = sigma_c /
    sigma_j (j < c), and psi the phase phi_c at the maximum of sum sigma_j
    cos phi_j subject to sum phi_j = tau mod 2 pi, tau = -arg det in [-pi,
    pi], which is the SU(c) maximum of Re tr(k^H P) (`_su_procrustes`).

    There sigma_j sin phi_j = mu, and the second-order condition (sum a_j
    x_j^2 >= 0 where sum x_j = 0, a_j = sigma_j cos phi_j) allows one obtuse
    phi_i, only if sum_{j != i} (sigma_j^2 - mu^2)^{-1/2} <= (sigma_i^2 -
    mu^2)^{-1/2}, which the j = c term breaks unless sigma_i = sigma_c
    (relabel ties).  So phi_c = psi in [-pi, pi], phi_j = asin(r_j sin psi),
    and g(psi) = psi + sum_{j<c} asin(r_j sin psi) = tau mod 2 pi.  Along
    this curve the value has derivative -sigma_c sin psi g'(psi), and the
    second-order condition reads g' >= 0.  g is odd with g(pi) = pi, g' is
    even and falls on [0, pi], so g' >= 0 on one [-psi*, psi*], where g
    rises through [-pi, pi] and the value falls in |psi|: the maximum is
    the root of g = tau there.  For c = 2, sigma_1 sin(tau - psi) = sigma_2
    sin psi gives e^{i psi} = (sigma_2 + sigma_1 e^{i tau}) / |sigma_1 +
    sigma_2 e^{i tau}|, whose real part is >= 0 on a tie; where the modulus
    is 0 (a tie at tau = pi, value 0) psi = pi / 2, the limit from below.
    For larger c, {g < tau} is the part of [-pi, pi] below the root (less
    -pi itself when tau = -pi), so a bisection finds it."""
    r = sig[..., -1:] / np.where(sig[..., :-1] > 0, sig[..., :-1], 1.0)
    if sig.shape[-1] == 2:
        u = det.conj() / np.abs(det)  # e^{i tau}
        s1, s2 = sig[..., 0], sig[..., 1]
        n = np.abs(s1 + s2 * u)
        e = np.divide(s2 + s1 * u, n, out=np.full(n.shape, 1j), where=n > 0)
        return e.real, e.imag, r
    tau = -np.angle(det)
    lo, hi = np.full(tau.shape, -np.pi), np.full(tau.shape, np.pi)
    for _ in range(64):  # 2 pi / 2^64 is far below the roundoff of g
        mid = (lo + hi) / 2
        below = mid + np.arcsin(r * np.sin(mid)[..., None]).sum(axis=-1) < tau
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.cos(hi), np.sin(hi), r


def _su_procrustes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max, maximizer) of Re tr(k^H P) over SU(c), c >= 2; leading axes
    are a batch, and each block's result is the one it gets alone.  SU(2)
    takes the closed form, a larger block the exact maximum below.

    With P = U diag(sigma) V^h, sigma descending, W = U^h k V has det W =
    det(U^h V) and value Re tr(W^h diag(sigma)).  At a maximizer,
    stationarity along su(c) makes W^h diag(sigma) = H + i mu, H Hermitian,
    so H^2 = diag(sigma^2 - mu^2); a unitary commuting with diag(sigma)
    makes H diagonal, and with it W (sigma_c = 0 by continuity).  So k =
    U diag(e^{i phi}) V^h, maximizing sum sigma_j cos phi_j subject to
    sum phi_j = tau mod 2 pi, tau = -arg det(U V^h) in [-pi, pi], which
    `_su_root` solves; phi_c absorbs the residual of tau, so det k = 1."""
    if P.shape[-1] == 2:
        return _su2_procrustes(P)
    U, sig, Vh = np.linalg.svd(P)
    det = np.linalg.det(U @ Vh)
    sin, r = _su_root(sig, det)[1:]
    phis = np.arcsin(r * sin[..., None])
    phis = np.concatenate([phis, (-np.angle(det) - phis.sum(axis=-1))[..., None]], axis=-1)
    return np.sum(sig * np.cos(phis), axis=-1), (U * np.exp(1j * phis)[..., None, :]) @ Vh


def _su_curve(sig: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, F', F'') at tau = -arg det of the SU(c) maximum F(tau) of a block
    with singular values sig (..., c), at the phases of `_su_root`: as
    dF/dpsi = -sigma_c sin psi g'(psi) = F' dtau/dpsi, F' = -sigma_c sin psi
    and F'' = -sigma_c cos psi / g'(psi).  cos phi_j = sqrt((1 - r_j^2) +
    (r_j cos psi)^2) stays accurate on a tie r_j = 1; it is 0 only on a tie
    with cos psi = 0, where its term r_j cos psi / cos phi_j of g' is 0."""
    cos, sin, r = _su_root(sig, det)
    rc = r * cos[..., None]
    cos_phi = np.sqrt((1 - r) * (1 + r) + rc * rc)
    low = sig[..., -1]
    value = low * cos + np.sum(sig[..., :-1] * cos_phi, axis=-1)
    ratio = np.divide(rc, cos_phi, out=np.zeros(rc.shape), where=cos_phi > 0)
    return value, -low * sin, -low * cos / (1 + ratio.sum(axis=-1))


def _so_procrustes(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max of tr(k^T A) over SO(c), with maximizer; leading axes are
    a batch."""
    U, sig, Vt = np.linalg.svd(A)
    d = np.sign(np.linalg.det(U @ Vt))
    sig[..., -1] *= d
    U[..., :, -1] *= d[..., None]  # U diag(1, ..., 1, d)
    return np.sum(sig, axis=-1), U @ Vt


def _split_columns(
    model: GroupModel, factors: tuple[BlockFactor, ...]
) -> tuple[list[int], list[tuple[int, ...]]]:
    """(single columns, SU blocks) of a unitary model, both empty for a
    real one: the single columns are those outside every SU block, the
    columns on which a circle acts by a phase."""
    blocks = [f.cols for f in factors if f.kind == "su"]
    in_blocks = {j for cols in blocks for j in cols}
    return [j for j in range(model.complex_size) if j not in in_blocks], blocks


# the circle-angle polish stops a row once its step is at most this (the
# xtol its brentq predecessor used); bisection alone gets there from a
# grid bracket in 42 steps, so the cap only stops a derivative that never
# settles
_ANGLE_XTOL = 1e-14
_ANGLE_MAX_ITER = 100


def _polish_roots(derivs, x: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The zero crossing of a derivative T' in [lo, hi] for every row, where
    T'(lo) > 0 > T'(hi), by safeguarded Newton from x.  `derivs(x, rows)`
    returns (T', T'') at x for the rows `rows`.  Each row keeps a bracket
    with T' > 0 at its left end and T' < 0 at its right end; a step with
    T'' >= 0 or one that leaves the bracket (a step landing on an end stays)
    is replaced by bisection.  A row stops where T' is exactly 0, keeping
    its point, or after a step of at most _ANGLE_XTOL.  Rows never mix, so
    each follows the iterates it would follow alone."""
    x, a, b = x.copy(), lo.copy(), hi.copy()
    act = np.arange(len(x))
    g, h = derivs(x, act)
    for _ in range(_ANGLE_MAX_ITER):
        xa = x[act]
        a[act] = np.where(g > 0, xa, a[act])
        b[act] = np.where(g < 0, xa, b[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xa - g / h
        inside = (h < 0) & (newton >= a[act]) & (newton <= b[act])
        new = np.where(g == 0, xa, np.where(inside, newton, (a[act] + b[act]) / 2))
        x[act] = new
        act = act[(g != 0) & (np.abs(new - xa) > _ANGLE_XTOL)]
        if not act.size:
            break
        g, h = derivs(x[act], act)
    return x


def _circle_angles(
    model: GroupModel, P: np.ndarray, factors: tuple[BlockFactor, ...]
) -> np.ndarray:
    """Per row of the pairing stack P, the circle angle maximizing the
    trace with every SU block maximized exactly at that angle: a grid over
    the period for all rows at once, then one `_polish_roots` call for the
    zero crossings of the derivative next to the best grid angles, and per
    row the better of the polished and the grid angle.  The rotation
    e^{-i a theta} of an SU block of c columns keeps its singular values
    and multiplies det(U V^h) by e^{-i c a theta}: one SVD per row gives
    the block's maximum at every angle, the curve `_su_curve`."""
    speeds = model.circle_phases
    period = next(f.period for f in factors if f.kind == "circle")
    singles, blocks = _split_columns(model, factors)
    rows = np.arange(len(P))
    diag = P[:, singles, singles]
    fs = speeds[singles]
    curves = []  # (c a, singular values, det(U V^h)) per SU block
    for cols in blocks:
        U, sig, Vh = np.linalg.svd(P[np.ix_(rows, cols, cols)])
        curves.append((len(cols) * speeds[cols[0]], sig, np.linalg.det(U @ Vh)))

    def trace_at(thetas: np.ndarray) -> np.ndarray:
        # thetas (1 or B, T) -> maximized traces (B, T)
        rot = np.exp(-1j * (thetas[..., None] * fs)) * diag[:, None, :]
        vals = rot.real.sum(axis=-1)
        for ca, sig, det in curves:
            vals += _su_curve(sig[:, None], det[:, None] * np.exp(-1j * ca * thetas))[0]
        return vals

    def derivs(x: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (T', T'') at angles x (len(r),) of rows r
        rot = np.exp(-1j * (x[:, None] * fs)) * diag[r]
        der, curv = (fs * rot.imag).sum(axis=-1), -((fs * fs) * rot.real).sum(axis=-1)
        for ca, sig, det in curves:
            _, F1, F2 = _su_curve(sig[r], det[r] * np.exp(-1j * ca * x))
            der += ca * F1
            curv += ca * ca * F2
        return der, curv

    grid = np.linspace(0.0, period, CIRCLE_GRID, endpoint=False)
    i0 = np.argmax(trace_at(grid[None, :]), axis=1)
    span = period / CIRCLE_GRID
    best = grid[i0]
    lo, hi = best - span, best + span
    # the maximizer is a zero crossing of the derivative
    br = np.flatnonzero((derivs(lo, rows)[0] > 0) & (derivs(hi, rows)[0] < 0))
    if br.size:
        best[br] = _polish_roots(lambda x, r: derivs(x, br[r]), best[br], lo[br], hi[br])
    cand = np.stack([best, grid[i0]], axis=1)
    return cand[rows, np.argmax(trace_at(cand), axis=1)]


def _k_star_batch(
    model: GroupModel,
    U_stack: np.ndarray,
    V: np.ndarray,
    factors: tuple[BlockFactor, ...],
) -> np.ndarray:
    """The feasible maximizer k* of tr(k^T U^T V) over the factor subgroup
    (the one behind `chord_to_coset`'s upper value) for every U of a
    (B, n, n) stack; V is one matrix or a matching stack.  SO blocks take
    a batched Procrustes and SU blocks the batched exact maximizer of
    `_su_procrustes`; a circle takes the angle of `_circle_angles`, and
    the SU blocks are maximized at it."""
    M = np.swapaxes(U_stack, -1, -2) @ V  # maximize tr(k^T M) per row
    rows = np.arange(len(M))
    if {f.kind for f in factors} == {"so"}:
        K = np.tile(np.eye(model.n), (len(M), 1, 1))
        for f in factors:
            ix = np.ix_(rows, f.cols, f.cols)
            K[ix] = _so_procrustes(M[ix])[1]
        return K
    # unitary models
    P = _complex_pairing(M)
    m = model.complex_size
    Kc = np.tile(np.eye(m, dtype=complex), (len(M), 1, 1))
    theta = None
    if any(f.kind == "circle" for f in factors):
        speeds = model.circle_phases
        theta = _circle_angles(model, P, factors)
        Kc[:, np.arange(m), np.arange(m)] = np.exp(1j * speeds * theta[:, None])
    for f in factors:
        if f.kind != "su":
            continue
        ix = np.ix_(rows, f.cols, f.cols)
        sub = P[ix]
        if theta is not None:
            sub = np.exp(-1j * speeds[f.cols[0]] * theta)[:, None, None] * sub
        Kc[ix] = Kc[ix] @ _su_procrustes(sub)[1]  # the blocks are disjoint
    return realify(Kc)


def chord_to_coset(
    model: GroupModel,
    U: np.ndarray,
    V: np.ndarray,
    factors: tuple[BlockFactor, ...],
) -> ChordResult:
    """Certified chord pairs for min over k in the factor subgroup of
    ||U k - V||_F (the subgroup acts on the right of U), one per U of a
    (B, n, n) stack; V is one matrix or a matching stack.

    The upper value is the directly evaluated norm ||U k* - V|| at the
    feasible maximizer of `_k_star_batch`, which stays accurate near zero
    where the trace form 2N - 2 tr would cancel catastrophically.  The lower
    value is sqrt(2N - 2 b) for an upper bound b on the max of tr(k^T U^T V)
    over the subgroup, less a small slack so that roundoff cannot push it
    above the true chord.  Without a circle every block maximizer is exact,
    so b is the trace at k*; with one, b relaxes the single columns to the
    full torus and each SU block to the full unitary group."""
    K = _k_star_batch(model, U, V, factors)
    upper = np.linalg.norm((U @ K - V).reshape(len(K), -1), axis=1)
    M = np.swapaxes(U, -1, -2) @ V
    if any(f.kind == "circle" for f in factors):
        singles, blocks = _split_columns(model, factors)
        P = _complex_pairing(M)
        bound = np.sum(np.abs(P[:, singles, singles]), axis=1)
        for cols in blocks:
            block = P[np.ix_(np.arange(len(P)), cols, cols)]
            bound += np.sum(np.linalg.svd(block, compute_uv=False), axis=1)
    else:
        bound = np.sum(K * M, axis=(1, 2))
    lower = np.sqrt(np.maximum(2 * model.n - 2 * bound - TRACE_SLACK, 0.0))
    return ChordResult(lower=np.minimum(lower, upper), upper=upper)


# --- Killing fields and geodesics ---------------------------------------------


def killing_length(f: KillingField, x: CosetPoint) -> float:
    """Metric norm of the Killing field at the point.

    Left field xi in g: the value at gK1 is the m1-norm of Ad(g^{-1}) xi.
    Right field eta in k2: the m1-norm of eta, the same at every point by
    G-invariance of right translations.
    """
    model = f.model
    if f.kind == "right":
        return model.m1_norm(f.xi)
    g = x.rep
    return model.m1_norm(g.T @ f.xi @ g)


def geodesic(x: CosetPoint, xi: np.ndarray, t: float) -> CosetPoint:
    """exp(t Ad(g) xi) . x: the geodesic through x = gK1 with initial
    velocity xi given in the m1 frame at x."""
    model = x.model
    resid = np.linalg.norm(xi - model.project_m1(xi))
    if resid > 1e-8:
        raise ValueError(f"geodesic direction outside m1 (residual {resid:.2e})")
    g = x.rep
    return CosetPoint(model, g @ matrix_exp(t * xi))


_LM_TOL = 1e-15  # step and cost-reduction floors: stop only at roundoff
_LM_LAM0, _LM_LAM_MAX = 1e-3, 1e16
_LM_MAX_ITER = 200
# a problem stops once its residual norm is at most _LM_STOP times the
# tolerance of its solve: below that, steps only polish roundoff
_LM_STOP = 1e-6
# points per residual call and (problem, column) pairs per Jacobian call:
# the kernels' temporaries, and so the peak memory, grow with the stack
# (a so12 verify peaked at 55 MB, and at 81 MB with 64 problems per
# Jacobian call), while a so8 verify ran as fast in stacks of 128 points
# as of 256 (2-core x86 VM)
_LM_SLICE = 128


def _coset_jacobian(
    xi: np.ndarray,
    basis: np.ndarray,
    P: np.ndarray,
    K: np.ndarray,
    onb: np.ndarray,
) -> np.ndarray:
    """Jacobians (p, n * n, d) of the coset residuals F = P(c) k* - V of a
    stack of p problems, with P = U exp(xi) for xi = sum_j c_j basis_j
    (basis (d, n, n), skew), k* the maximizer K at c and V fixed.  Column
    j holds k* fixed, P Omega_j k* with Omega_j = exp(-xi)
    dexp_xi(basis_j), less its Frobenius projection onto the tangent P k*
    eta of the K-orbit at P k*, eta in the span of onb (orthonormal rows,
    `MatrixAlgebra.frobenius_onb`).

    Since F is orthogonal to that tangent at the maximizer (envelope
    theorem), J^T F is the exact gradient; at a zero residual F is
    orthogonal to it nearby too, so J is the exact Jacobian there.
    Omega_j comes from one eigendecomposition i xi = Q diag(lam) Q^H per
    problem (divided differences): Q (Psi o Q^H basis_j Q) Q^H, with Psi_kl
    = e^{i delta} sin(delta) / delta at delta = (lam_k - lam_l) / 2.  Each
    problem takes its own products, so its Jacobian does not depend on
    the stack."""
    p, n = P.shape[0], P.shape[-1]
    lam, Q = np.linalg.eigh(1j * xi)
    half = (lam[:, :, None] - lam[:, None, :]) / 2
    psi = (np.exp(1j * half) * np.sinc(half / np.pi))[:, None]
    Q, Qh = Q[:, None], np.conj(np.swapaxes(Q, 1, 2))[:, None]
    omega = (Q @ (psi * (Qh @ basis @ Q)) @ Qh).real  # (p, d, n, n)
    # the columns in the frame of P k*: (P k*)^T col_j
    Z = (np.swapaxes(K, 1, 2)[:, None] @ omega @ K[:, None]).reshape(p, len(basis), n * n)
    Z -= (Z @ onb.T) @ onb
    J = (P @ K)[:, None] @ Z.reshape(p, len(basis), n, n)
    return np.swapaxes(J.reshape(p, len(basis), n * n), 1, 2)


def _lm(
    residuals, jacobians, C0: np.ndarray, tol: float = COSET_TOL
) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt from every row of C0 (p, d), all problems
    advanced in lockstep.  `residuals(C, rows)` maps the (len(rows), d)
    coordinates of the problems `rows` to their (len(rows), r) residuals,
    and `jacobians(rows)` gives their (len(rows), r, d) Jacobians at the
    points where `residuals` last evaluated them: a Jacobian is taken only
    at a start or an accepted step, right after its residual.  Each step
    evaluates residuals on stacks of at most _LM_SLICE points and
    Jacobians on stacks of at most _LM_SLICE (problem, column) pairs, each
    reduced to J^T J and J^T F before the next, so no array holds the
    Jacobians of all problems.  Each problem keeps its own damping lam
    against diag J^T J (Marquardt scaling, Nielsen's update), takes a step
    only when it lowers the cost, and stops on its own: at a residual norm
    of at most _LM_STOP * tol, at a step or relative cost reduction below
    _LM_TOL, at damping above _LM_LAM_MAX, or after _LM_MAX_ITER steps.
    Every per-problem operation acts on that problem's rows alone, so a
    problem follows the iterates it would follow in a stack of one.
    Returns (C, F): final coordinates and the residuals there."""
    p, d = C0.shape
    try:
        floor = (_LM_STOP * tol) ** 2  # underflows to 0.0 for a tol below ~1e-150
    except OverflowError:  # a tol above ~1e160: every finite residual is below it
        floor = math.inf

    def sliced(C: np.ndarray, rows: np.ndarray) -> np.ndarray:
        s = _LM_SLICE
        parts = [residuals(C[i : i + s], rows[i : i + s]) for i in range(0, len(rows), s)]
        return np.concatenate(parts)

    jac_step = max(1, _LM_SLICE // d)  # problems per Jacobian stack

    X = C0.astype(float)
    F = sliced(X, np.arange(p))
    cost = np.einsum("ij,ij->i", F, F)
    lam, nu = np.full(p, _LM_LAM0), np.full(p, 2.0)
    diag = np.arange(d)
    A, g = np.empty((p, d, d)), np.empty((p, d))
    fresh = np.ones(p, dtype=bool)  # the Jacobian at X is still to be taken
    active = cost > floor
    for _ in range(_LM_MAX_ITER):
        act = np.flatnonzero(active)
        if not act.size:
            break
        jr = act[fresh[act]]
        for i in range(0, len(jr), jac_step):
            rows = jr[i : i + jac_step]
            J = jacobians(rows)
            Jt = np.swapaxes(J, 1, 2)
            A[rows] = Jt @ J
            g[rows] = (Jt @ F[rows][..., None])[..., 0]
        fresh[jr] = False
        Aa, ga, la = A[act], g[act], lam[act]
        D = np.diagonal(Aa, axis1=1, axis2=2).copy()
        D[D <= 0] = 1.0
        Aa[:, diag, diag] += la[:, None] * D
        step = -np.linalg.solve(Aa, ga[..., None])[..., 0]
        # reduction predicted by the linear model: -g.step + lam step.D.step
        pred = np.einsum("ij,ij->i", step, la[:, None] * D * step - ga)
        Xt = X[act] + step
        Ft = sliced(Xt, act)
        cost_t = np.einsum("ij,ij->i", Ft, Ft)
        gain = cost[act] - cost_t
        ok = gain > 0
        rho = np.where(ok, gain / np.where(pred > 0, pred, np.inf), 0.0)
        # Nielsen's update: shrink lam by up to 3 on a good step, double
        # the growth factor after each rejection
        lam[act] = np.where(ok, la * np.maximum(1 / 3, 1 - (2 * rho - 1) ** 3), la * nu[act])
        nu[act] = np.where(ok, 2.0, 2 * nu[act])
        acc = act[ok]
        small_gain = gain[ok] <= _LM_TOL * cost[acc]
        X[acc], F[acc], cost[acc] = Xt[ok], Ft[ok], cost_t[ok]
        fresh[acc] = True
        small_step = np.sqrt(np.einsum("ij,ij->i", step, step)) <= _LM_TOL * (
            _LM_TOL + np.sqrt(np.einsum("ij,ij->i", X[act], X[act]))
        )
        done = small_step | (lam[act] > _LM_LAM_MAX) | (cost[act] <= floor)
        done[ok] |= small_gain
        active[act[done]] = False
    return X, F


# eigenvalues of (W + W^T) / 2 within this of -1 count as -1 (rotation
# angles within ~1.4e-6 of pi, where the angle is lost to roundoff); the
# certificate counts eigenvalues of A with imaginary part within it of 0
# as +1 or -1
_HALF_TURN_TOL = 1e-12


def _orthogonal_log(W: np.ndarray) -> np.ndarray:
    """The principal real log K g(S) of each matrix of a (B, n, n)
    orthogonal stack, with S and K its symmetric and skew parts and
    g(c) = arccos(c) / sqrt(1 - c^2) applied on the eigenvectors of S.  A
    half turn (eigenvalue -1) has no preferred plane, so g is 0 on that
    eigenspace, as in the real part of the complex principal log.  Each
    matrix takes its own eigendecomposition and products, so its result
    does not depend on the stack."""
    Wt = np.swapaxes(W, 1, 2)
    c, Q = np.linalg.eigh((W + Wt) / 2)
    c = np.clip(c, -1.0, 1.0)
    s = np.sqrt((1 - c) * (1 + c))
    g = np.divide(np.arctan2(s, c), s, out=np.ones_like(c), where=s > 0)
    g[1 + c <= _HALF_TURN_TOL] = 0.0
    return ((W - Wt) / 2) @ (Q * g[:, None, :]) @ np.swapaxes(Q, 1, 2)


@dataclass(frozen=True)
class LogResult:
    """A Riemannian log: xi with upper bound ||xi||, or xi None and upper
    inf when no start reached the image coset; converged means xi is
    explicit."""

    xi: np.ndarray | None
    upper: float
    residual: float

    @property
    def converged(self) -> bool:
        return self.xi is not None


def _log_maps(model: GroupModel, U: np.ndarray, V: np.ndarray):
    """(residuals, jacobians) of `_lm` for the log problems of the (p, n, n)
    stacks U and V: problem i has coordinates c of xi in m1 and residual
    U_i exp(xi) k* - V_i, with k* the maximizer over K1 (`_k_star_batch`).
    `residuals` keeps xi, U_i exp(xi) and k* of each point it evaluates,
    and `jacobians` takes the Jacobians there."""
    factors, onb = model.k1_factors, model.k1.frobenius_onb
    xi, P, K = np.empty_like(U), np.empty_like(U), np.empty_like(U)

    def residuals(C: np.ndarray, rows: np.ndarray) -> np.ndarray:
        x = model.from_m1_coords(C)
        Pr = U[rows] @ matrix_exp(x)
        Kr = _k_star_batch(model, Pr, V[rows], factors)
        xi[rows], P[rows], K[rows] = x, Pr, Kr
        return (Pr @ Kr - V[rows]).reshape(len(C), -1)

    def jacobians(rows: np.ndarray) -> np.ndarray:
        return _coset_jacobian(xi[rows], model.m1_basis, P[rows], K[rows], onb)

    return residuals, jacobians


def smart_starts(xs: list[CosetPoint], ys: list[CosetPoint]) -> np.ndarray:
    """The (len(xs), dim m1) coordinates of the smart start xi0 of the log
    from xs[i] to ys[i]: the m1 part of the principal real log
    (`_orthogonal_log`) of the chord-aligned difference W = U^T V k*^T,
    with U, V the representatives and k* the chord maximizer over K1.  The
    curve x exp(t xi0) K1, 0 <= t <= 1, has length ||xi0|| (the metric
    norm), so ||xi0|| bounds the distance from x K1 to x exp(xi0) K1 above
    for every pair, whether or not that end is ys[i] K1."""
    model = xs[0].model
    U, V = np.array([x.rep for x in xs]), np.array([y.rep for y in ys])
    K = _k_star_batch(model, U, V, model.k1_factors)
    return model.m1_coords(_orthogonal_log(np.swapaxes(U, 1, 2) @ V @ np.swapaxes(K, 1, 2)))


def riemannian_logs(
    xs: list[CosetPoint],
    ys: list[CosetPoint],
    seeds: list[int],
    restarts: int = 4,
    tol: float = COSET_TOL,
) -> list[LogResult]:
    """The multistart log of `riemannian_log` for every pair (xs[i], ys[i])
    of points of one model, pair i drawing its restarts from seeds[i].  The
    len(xs) x (1 + restarts) (pair, start) problems are solved in one
    lockstep `_lm` call, and each pair's result is, bit for bit, the one it
    gets when solved alone.  Each pair starts from its `smart_starts` value
    and restarts seeded perturbations of it; restarts = 0 keeps the smart
    start alone, and a negative count raises ValueError."""
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    model = xs[0].model
    d = model.dim_m1
    U, V = np.array([x.rep for x in xs]), np.array([y.rep for y in ys])
    starts = []
    for c0, seed in zip(smart_starts(xs, ys), seeds):
        rng = np.random.default_rng(seed)
        scale = max(float(np.linalg.norm(c0)), 0.5)
        starts.append(c0)
        starts += [c0 + rng.normal(scale=0.35 * scale, size=d) for _ in range(restarts)]
    pair = np.repeat(np.arange(len(U)), 1 + restarts)
    X, F = _lm(*_log_maps(model, U[pair], V[pair]), np.array(starts), tol)
    X = X.reshape(len(U), 1 + restarts, d)
    R = np.linalg.norm(F, axis=-1).reshape(len(U), 1 + restarts)
    out = []
    for coords, rs in zip(X, R):
        conv = np.flatnonzero(rs < tol)
        if not conv.size:
            out.append(LogResult(xi=None, upper=math.inf, residual=float(rs.min())))
            continue
        # among converged starts keep the shortest: the bound can only
        # improve with more restarts
        norms = [float(np.linalg.norm(coords[j])) for j in conv]
        j = conv[int(np.argmin(norms))]
        xi = model.from_m1_coords(coords[j])
        out.append(LogResult(xi=xi, upper=min(norms), residual=float(rs[j])))
    return out


def riemannian_log(
    x: CosetPoint,
    y: CosetPoint,
    restarts: int = 4,
    seed: int = 0,
    tol: float = COSET_TOL,
) -> LogResult:
    """Multistart minimization of the coset residual chord(x exp(xi), y)
    over xi in m1.  Returns the best xi with upper bound ||xi|| (the metric
    norm); converged only when the residual drops below tol.  All restarts
    always run; the best result is kept, so the bound is monotone
    nonincreasing in the restart budget for a fixed seed."""
    return riemannian_logs([x], [y], [seed], restarts, tol)[0]


def distance_lower_bound(xs: list[CosetPoint], ys: list[CosetPoint]) -> np.ndarray:
    """sqrt(lambda_min N) 2 asin(c / (2 sqrt N)) for every pair (xs[i],
    ys[i]) of points of one model, with c the pair's certified chord lower
    value (all pairs in one `chord_to_coset` call) and N = model.n: a true
    lower bound for the Riemannian distance between the cosets, never below
    sqrt(lambda_min) c.

    A minimizing geodesic lifts to x exp(xi) = y k with xi in m1, so the
    distance is at least sqrt(lambda_min) ||xi||_F, and ||xi||_F^2 is at
    least the sum of theta_j^2 over the N principal angles of exp(xi).  The
    chord satisfies c^2 <= ||exp(xi) - 1||_F^2 = sum 4 sin^2(theta_j / 2),
    and theta^2 is convex and increasing in s = 4 sin^2(theta / 2), so
    Jensen's inequality gives sum theta_j^2 >= N (2 asin(c / (2 sqrt N)))^2."""
    model = xs[0].model
    root_n = math.sqrt(model.n)
    U, V = np.array([x.rep for x in xs]), np.array([y.rep for y in ys])
    chord = chord_to_coset(model, U, V, model.k1_factors).lower
    arc = 2 * np.arcsin(np.minimum(1.0, chord / (2 * root_n)))
    return math.sqrt(model.frobenius_lambda_min) * root_n * arc


# --- displacement profiles -----------------------------------------------------


@dataclass(frozen=True)
class DisplacementReport:
    label: str
    uppers: tuple[float, ...]
    lowers: tuple[float, ...]
    verdict: str  # constant-within-tol | certified-nonconstant | inconclusive
    rel_spread: float
    gap: float  # max lower - min upper


@dataclass(frozen=True)
class ProfileSample:
    """The sampled points of a displacement profile (the identity coset
    plus seeded Haar points) and their images under the isometry."""

    gamma: Isometry
    seed: int
    points: tuple[CosetPoint, ...]
    images: tuple[CosetPoint, ...]

    @property
    def log_seeds(self) -> list[int]:
        """The restart seed of each point's log."""
        return [self.seed + 1000 + i for i in range(len(self.points))]


def sample_profile(gamma: Isometry, n_samples: int = 200, seed: int = 42) -> ProfileSample:
    """The seeded sample of `displacement_profile`."""
    rng = np.random.default_rng(seed)
    points = [base_point(gamma.model), *haar_points(gamma.model, rng, max(n_samples - 1, 0))]
    return ProfileSample(gamma, seed, tuple(points), tuple(gamma.apply(p) for p in points))


def share_logs(
    sample: ProfileSample, logs: list[LogResult], tol: float = COSET_TOL
) -> list[LogResult]:
    """The logs of a sampled profile after sharing its shortest converged
    log xi.  `logs` holds those of the first len(logs) points (verify
    solves the base point's alone).  Every point p where xi also joins p to
    gamma(p) (chord upper value below tol, all points in one
    `chord_to_coset` call) and is shorter than p's own log, if any, adopts
    it as an explicit converged geodesic; a point with neither reads as
    non-converged.  A central gamma = z k2 maps x K1 to x (z k2) K1, the
    left translate of the base problem, so every point adopts xi."""
    logs = logs + [LogResult(None, math.inf, math.inf)] * (len(sample.points) - len(logs))
    converged = [log for log in logs if log.converged]
    if not converged:
        return logs
    best = min(converged, key=lambda log: log.upper)
    model = sample.gamma.model
    U = np.array([p.rep for p in sample.points]) @ matrix_exp(best.xi)
    V = np.array([q.rep for q in sample.images])
    R = chord_to_coset(model, U, V, model.k1_factors).upper
    return [
        LogResult(best.xi, best.upper, float(r))
        if r < tol and best.upper < log.upper
        else log
        for log, r in zip(logs, R)
    ]


def profile_report(
    sample: ProfileSample,
    logs: list[LogResult],
    lowers: list[float],
    tol_constant: float = CONSTANT_SPREAD_TOL,
    tol_gap: float = GAP_TOL,
) -> DisplacementReport:
    """The three-way verdict of a sampled profile, from the logs of its
    (point, image) pairs (upper bounds) and their `distance_lower_bound`
    values (lower bounds); it computes no bound of its own."""
    uppers = [log.upper for log in logs]
    min_u, max_u = min(uppers), max(uppers)
    mean_u = sum(u for u in uppers if math.isfinite(u)) / max(
        1, sum(1 for u in uppers if math.isfinite(u))
    )
    gap = max(lowers) - min_u
    if math.isfinite(max_u) and max_u < ABS_ZERO_TOL:
        verdict = "constant-within-tol"
        rel = 0.0
    else:
        rel = (max_u - min_u) / mean_u if mean_u > 0 and math.isfinite(max_u) else math.inf
        if gap > tol_gap:
            verdict = "certified-nonconstant"
        elif math.isfinite(max_u) and rel < tol_constant:
            verdict = "constant-within-tol"
        else:
            verdict = "inconclusive"
    return DisplacementReport(sample.gamma.label, tuple(uppers), tuple(lowers), verdict, rel, gap)


def displacement_profile(
    gamma: Isometry,
    n_samples: int = 200,
    seed: int = 42,
    restarts: int = 4,
    tol_constant: float = CONSTANT_SPREAD_TOL,
    tol_gap: float = GAP_TOL,
) -> DisplacementReport:
    """Per-point displacement bounds of the isometry over a seeded sample
    (the identity coset plus Haar points), with the three-way verdict: the
    logs of `riemannian_logs` after `share_logs` and the lower bounds of
    `distance_lower_bound`, then `profile_report`."""
    sample = sample_profile(gamma, n_samples, seed)
    logs = riemannian_logs(sample.points, sample.images, sample.log_seeds, restarts)
    logs = share_logs(sample, logs)
    lowers = distance_lower_bound(sample.points, sample.images).tolist()
    return profile_report(sample, logs, lowers, tol_constant, tol_gap)


def witness_report(
    sample: ProfileSample,
    lowers: list[float],
    tol: float = COSET_TOL,
    tol_gap: float = GAP_TOL,
) -> DisplacementReport:
    """The verdict on a left translation predicted nonconstant, from the
    one upper bound of its torus witness (`_torus_witness`) against the
    lower bounds of the sampled points: certified-nonconstant when the
    highest lower bound exceeds the witness upper by more than tol_gap,
    inconclusive otherwise.  One upper bound shows no spread, so the report
    never claims constancy (its rel_spread is inf) and solves no log."""
    upper = _torus_witness(sample.gamma, tol)[1].upper
    gap = max(lowers) - upper
    verdict = "certified-nonconstant" if gap > tol_gap else "inconclusive"
    return DisplacementReport(sample.gamma.label, (upper,), tuple(lowers), verdict, math.inf, gap)


# --- fixed fibers ---------------------------------------------------------------


def fixed_fiber(gamma: Isometry, tol: float = COSET_TOL) -> tuple[CosetPoint | None, float]:
    """A base coset x K (K = K1 K2) that the left translation gamma by g
    fixes, in closed form: on a unitary model x is the eigenvector frame
    of g (`_su_frame`) scaled to det 1, so x^-1 g x is diagonal; on a real
    model x is the invariant-plane frame of g (`_so_frame`) with the planes
    of K's torus filled first.  Returns (x K, residual), the residual being
    the chord upper value between x and g x over K, when it is below tol,
    and (None, residual) otherwise; nothing else is searched.

    Why an equal-rank model always succeeds: there K contains a maximal
    torus T of G, the diagonal one on a unitary model (K's blocks are
    diagonal) and the one on K's torus planes on a real model.  The frame
    puts t = x^-1 g x in T, so g x K = x t K = x K.  On a unitary model
    this needs eigenvectors of g, which `eigh` gives unless two
    eigenphases of g add up to 2 mod 2 pi (never, almost surely, for a
    Haar g).  A rank-deficient model can genuinely fail: its K misses part
    of every maximal torus."""
    model = gamma.model
    k = gamma.left if gamma.left is not None else np.eye(model.n)
    factors = model.k1_factors + model.k2_factors
    if model.complex_size:
        x = _su_frame(complexify(k))
        x[:, 0] /= np.linalg.det(x)
        x = realify(x)
    else:
        x = _so_frame(model, k, factors)[0]
    resid = float(chord_to_coset(model, x[None], k @ x, factors).upper[0])
    return (CosetPoint(model, x) if resid < tol else None), resid


# --- fixed-point certificates ----------------------------------------------------


@dataclass(frozen=True)
class PlaneCertificate:
    basis: np.ndarray  # (n, 2s+1) orthonormal columns
    residual: float
    rotation_angles: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def _invariant_pieces(
    A: np.ndarray,
) -> tuple[list[tuple[float, np.ndarray]], list[np.ndarray], list[np.ndarray]]:
    """(rotation planes with their angles in (0, pi], +1 lines, -1 lines)
    of an orthogonal matrix, all orthonormal.  The pieces come from the
    eigenpairs (lambda, x) of A, which `np.linalg.eig` computes with a small
    residual A x - lambda x even where eigenvalues cluster.  An eigenvalue
    with imaginary part above _HALF_TURN_TOL gives the rotation plane
    span(Re x, Im x); every other eigenvalue gives +1 or -1 lines, by the
    sign of its real part, from Re x (and Im x for a non-real one).  Each
    piece is taken orthogonal to the pieces before it, planes first, so a
    plane whose angle repeats or nearly repeats an earlier one is still
    found."""
    n = len(A)
    lam, X = np.linalg.eig(A)
    done = np.zeros((n, 0))  # every piece so far, orthonormal columns

    def fresh(V: np.ndarray) -> np.ndarray:
        """Orthonormal columns spanning V made orthogonal to every piece so
        far (projected out twice, which is enough in floating point)."""
        for _ in range(2):
            V = V - done @ (done.T @ V)
        return np.linalg.qr(V)[0]

    planes: list[tuple[float, np.ndarray]] = []
    for j in np.flatnonzero(lam.imag > _HALF_TURN_TOL):
        P = fresh(np.column_stack([X[:, j].real, X[:, j].imag]))
        B = P.T @ A @ P
        planes.append((abs(math.atan2(B[1, 0] - B[0, 1], B[0, 0] + B[1, 1])), P))
        done = np.column_stack([done, P])
    plus_lines: list[np.ndarray] = []
    minus_lines: list[np.ndarray] = []
    # one eigenvalue of each conjugate pair
    for j in np.flatnonzero((lam.imag >= 0) & (lam.imag <= _HALF_TURN_TOL)):
        parts = [X[:, j].real] + ([X[:, j].imag] if lam[j].imag > 0 else [])
        L = fresh(np.column_stack(parts))
        (plus_lines if lam[j].real > 0 else minus_lines).extend(L.T)
        done = np.column_stack([done, L])
    return planes, plus_lines, minus_lines


def fixed_point_certificate(A: np.ndarray, s: int, t: int) -> PlaneCertificate:
    """Invariant (2s+1)-plane of an orthogonal matrix with determinant -1
    on R^{2s+2+2t}: the +1 line that a negative determinant forces, plus s
    two-dimensional invariant pieces (rotation planes by ascending angle,
    then paired fixed lines, then paired -1 lines), the pieces of
    `_invariant_pieces`."""
    n = 2 * s + 2 + 2 * t
    if A.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix for (s, t) = ({s}, {t})")
    if np.linalg.norm(A @ A.T - np.eye(n)) > 1e-9:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(A) > 0:
        raise ValueError("determinant +1: no invariant odd plane is implied")

    planes, plus_lines, minus_lines = _invariant_pieces(A)
    if not plus_lines:
        raise AssertionError(
            "no +1 eigenvector found; impossible for det -1 in even dimension"
        )
    planes.sort(key=lambda p: p[0])
    pieces = [pair for _, pair in planes]
    for lines in (plus_lines[1:], minus_lines):
        for a in range(0, len(lines) - 1, 2):
            pieces.append(np.column_stack([lines[a], lines[a + 1]]))
    if len(pieces) < s:
        raise AssertionError("not enough invariant two-planes; broken input")
    cols = [plus_lines[0]] + [pieces[j][:, b] for j in range(s) for b in (0, 1)]
    basis = np.column_stack(cols)
    # orthonormal by construction; verify invariance
    inner = basis.T @ A @ basis
    residual = float(np.linalg.norm(A @ basis - basis @ inner))
    if residual > CERT_RESIDUAL_TOL:
        raise AssertionError(f"certificate residual {residual:.2e} too large")
    return PlaneCertificate(
        basis=basis,
        residual=residual,
        rotation_angles=tuple(th for th, _ in planes),
    )


# --- torus witnesses ---------------------------------------------------------------


def _so_frame(
    model: GroupModel, k: np.ndarray, factors: tuple[BlockFactor, ...]
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """(x, slots) for a real model: x in SO(n) whose column planes, the
    row pairs `slots`, hold the invariant pieces of k (`_invariant_pieces`:
    half turns, rotation planes by descending angle, then paired fixed
    lines), so that x^T k x rotates within each slot.  The slots are first
    the planes of the factors' torus (rows in pairs, m // 2 planes per
    SO(m) block) and then the other rows in pairs, so that the factors'
    torus meets the largest angles; for odd n the row left over holds a
    fixed line."""
    n = model.n
    planes, plus, minus = _invariant_pieces(k)
    pieces = [np.column_stack(minus[i : i + 2]) for i in range(0, len(minus) - 1, 2)]
    pieces += [P for _, P in sorted(planes, key=lambda p: -p[0])]
    pieces += [np.column_stack(plus[i : i + 2]) for i in range(0, len(plus) - 1, 2)]
    slots = [f.cols[i : i + 2] for f in factors for i in range(0, len(f.cols) - 1, 2)]
    taken = {r for slot in slots for r in slot}
    rest = [r for r in range(n) if r not in taken]
    slots += [tuple(rest[i : i + 2]) for i in range(0, len(rest) - 1, 2)]
    x = np.zeros((n, n))
    for slot, P in zip(slots, pieces):
        x[:, slot] = P
    if n % 2:
        x[:, rest[-1]] = plus[-1]
    if np.linalg.det(x) < 0:
        x[:, -1] = -x[:, -1]  # reverses one plane's angle, or the fixed line
    return x, slots


def _so_torus_log(model: GroupModel, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, L) for a real model: x the frame of `_so_frame` that fills K1's
    torus planes first, and L the log of x^T k x on x's column planes."""
    x, slots = _so_frame(model, k, model.k1_factors)
    R = x.T @ k @ x
    L = np.zeros((model.n, model.n))
    for a, b in slots:
        L[b, a] = math.atan2(R[b, a] - R[a, b], R[a, a] + R[b, b])
        L[a, b] = -L[b, a]
    return x, L


def _assignments(classes: list[tuple[int, ...]], free: tuple[int, ...]) -> list[dict[int, int]]:
    """Every way to hand the indices `free` to the columns of `classes`
    that differs in which indices each class gets, as {column: index}."""
    if not classes:
        return [{}]
    return [
        dict(zip(classes[0], chosen)) | tail
        for chosen in itertools.combinations(free, len(classes[0]))
        for tail in _assignments(classes[1:], tuple(i for i in free if i not in chosen))
    ]


def _su_frame(kc: np.ndarray) -> np.ndarray:
    """Orthonormal eigenvectors, as columns, of the m x m unitary kc: those
    of `eigh` of the Hermitian part of e^{-i} kc, whose eigenvalues
    cos(alpha - 1) keep the eigenphases alpha of kc apart unless two of
    them add up to 2 mod 2 pi."""
    h = np.exp(-1j) * kc
    return np.linalg.eigh((h + h.conj().T) / 2)[1]


def _su_torus_log(model: GroupModel, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, L) for a unitary model, both realified: x in SU(m) with
    eigenvectors of k as columns, and L = i diag(phi), traceless, with
    exp(L) = x^H k x k1 for some k1 in K1's torus, chosen for the shortest
    m1 part found.

    The columns are the eigenvectors of `_su_frame`.  The m1 part
    of L depends on phi only through the phase sum of each SU block of K1
    (the traceless rest lies in the block) and only up to multiples of the
    circle's speeds a; so each single column and each block is one unit u
    with a phase sum, and the search runs over
    - the assignments of eigenphases to columns, up to reordering within a
      block or within the single columns of one speed;
    - the circle angle t: one per interval on which every unit's sum
      alpha_u + s_u t (s_u = a on a single column, c a on a block of c
      columns) keeps one principal value in [-pi, pi];
    - the 2 pi shifts that bring the principal sums to a sum of 0, the
      trace of su(m), jointly: one unit at a time, each by the least
      increase of the m1 norm.
    A block's sum is spread evenly over its columns."""
    m = model.complex_size
    kc = complexify(k)
    vecs = _su_frame(kc)
    alpha = np.angle(np.einsum("ij,ik,kj->j", vecs.conj(), kc, vecs))
    singles, blocks = _split_columns(model, model.k1_factors)
    circle = next((f for f in model.k1_factors if f.kind == "circle"), None)
    speeds = model.circle_phases if circle else np.zeros(m)
    units = [(j,) for j in singles] + blocks
    S = np.zeros((len(units), m))  # unit phase sums of the column phases
    for u, cols in enumerate(units):
        S[u, list(cols)] = 1.0
    W = S / S.sum(axis=1, keepdims=True)  # unit sums -> column phases
    E = np.zeros((m, m, m), dtype=complex)
    E[np.arange(m), np.arange(m), np.arange(m)] = 1j
    M = W @ model.m1_coords(realify(E))  # unit sums -> m1 coordinates
    Q = M @ M.T  # the squared m1 norm on unit sums that add up to 0
    classes = blocks + [
        tuple(j for j in singles if speeds[j] == a) for a in sorted({speeds[j] for j in singles})
    ]
    perms = np.array([[a[j] for j in range(m)] for a in _assignments(classes, tuple(range(m)))])
    sums = alpha[perms] @ S.T  # (assignments, units)
    s = S @ speeds
    if circle is None:
        ts = np.zeros((len(perms), 1))
    else:
        # unit u's sum crosses pi |s_u| period / 2 pi times per period
        laps = [np.arange(round(abs(v) * circle.period / (2 * np.pi))) for v in s]
        cross = np.concatenate(
            [
                ((np.pi - sums[:, [u]] + 2 * np.pi * r) / s[u]) % circle.period
                for u, r in enumerate(laps)
            ],
            axis=1,
        )
        cross.sort(axis=1)
        ts = (cross + np.concatenate([cross[:, 1:], cross[:, :1] + circle.period], axis=1)) / 2
    C = ts.shape[1]
    T = (sums[:, None, :] + ts[..., None] * s).reshape(-1, len(units))
    T -= 2 * np.pi * np.round(T / (2 * np.pi))
    excess = np.round(T.sum(axis=1) / (2 * np.pi))
    cost = np.einsum("iu,uv,iv->i", T, Q, T)
    for _ in range(int(np.abs(excess).max(initial=0))):
        rows = np.flatnonzero(excess)
        d = -2 * np.pi * np.sign(excess[rows])[:, None]
        rise = 2 * d * (T[rows] @ Q) + d * d * np.diag(Q)
        u = np.argmin(rise, axis=1)
        T[rows, u] += d[:, 0]
        cost[rows] += rise[np.arange(len(rows)), u]
        excess[rows] += np.sign(d[:, 0])
    best = int(np.argmin(cost))
    x = vecs[:, perms[best // C]]
    x[:, 0] /= np.linalg.det(x)
    return realify(x), realify(np.diag(1j * (T[best] @ W)))


def _torus_witness(gamma: Isometry, tol: float = COSET_TOL) -> tuple[CosetPoint, LogResult]:
    """A point x K1 where the left translation gamma by k moves little, with
    an explicit log to its image: xi, the m1 part of the torus log L of
    `_so_torus_log` or `_su_torus_log`, and upper bound ||xi||.

    Why it is an upper bound: x^-1 k x k1 = exp(L) for some k1 in K1, with
    L in a Cartan subalgebra t that contains K1's t1.  L's k1 part lies in
    t1 (K1's blocks are aligned with t), so it commutes with xi = L - (k1
    part) and exponentiates into K1: x exp(xi) K1 = x exp(L) K1 = k x K1.
    The curve x exp(s xi) K1, s in [0, 1], has constant speed ||xi|| in the
    normal metric, and so the displacement at x K1 is at most ||xi||,
    which is at most ||L|| (G -> G/K1 is a Riemannian submersion).  The
    witness is used only if x exp(xi) reaches the image coset, with a chord
    upper value below tol; otherwise it gives no upper bound (inf).  It
    draws no random numbers."""
    model = gamma.model
    k = gamma.left
    x, L = (_su_torus_log if model.complex_size else _so_torus_log)(model, k)
    c = model.m1_coords(L)
    xi = model.from_m1_coords(c)
    end = (x @ matrix_exp(xi))[None]
    resid = float(chord_to_coset(model, end, k @ x, model.k1_factors).upper[0])
    if resid < tol:
        return CosetPoint(model, x), LogResult(xi, float(np.linalg.norm(c)), resid)
    return CosetPoint(model, x), LogResult(None, math.inf, resid)
