"""Geometry of M~ = G/K1 with the normal metric (-Killing form on m1).

Points travel as stacks (`Cosets`: (B, n, n) representatives of cosets,
checked orthogonal in one product); coset comparisons go through chord
values: chord(x, y) = min over k in K1 of the ambient Frobenius norm
||x k - y||.  `chord_to_coset` returns a certified pair (lower, upper)
per row: the upper value comes from an explicit feasible k, the lower
value from the exact maximum or, with a circle, a group relaxation (full
torus / full unitary group), so distance certificates built on the lower
value do not rest on the circle's grid polish.  The factors of K1 and K2
are SO blocks, SU blocks of two or more columns, and a circle.  Every
block has an exact maximizer, so without a circle both sides agree to
roundoff; with a circle they agree to grid-polish accuracy.

Displacement verdicts compare upper bounds against per-point lower bounds
(`distance_lower_bound`: the arc length sqrt(lambda_min N) 2 asin(c / (2
sqrt N)) that a certified chord lower value c forces on an N x N model,
where lambda_min is the smallest eigenvalue of the normal metric against
the ambient Frobenius form), batched over point pairs.  A profile is
reported constant-within-tol, certified-nonconstant (some point's upper
bound lies below another point's lower bound), or inconclusive.  A
profile that may turn out constant (`profile_report`) takes an upper bound
at every sampled point from a Riemannian log: the closed-form
`central_log` of a central isometry, carried to every point, or one
solved per point from its smart start.  A left
translation predicted nonconstant (`witness_report`) takes one upper
bound, at a closed-form torus witness point (`_torus_witness`): there x^-1
k x lies in a maximal torus that contains one of K1, and what K1's torus
cannot cancel has an explicit log, checked to reach the image coset.
Each model type has one frame builder, `_su_frame` (eigenvectors per
column block) or `_so_frame` (invariant planes per row block), and both
share one torus log, `_torus_log` (the frame, the torus log modulo K1,
its m1 part and the check that it reaches), which the witnesses take
with one block aligned to K1 and the central logs on K's blocks.

A fixed fiber (`fixed_fiber`) takes the frame alone, with one block
aligned to K's torus: x^-1 g x then lies in a maximal torus that contains
K's (on an equal-rank model, one in K), checked to fix x K.  The
Riemannian log is the one Levenberg-Marquardt solve, of coset residuals
F = U exp(xi) k* - V, each evaluation needing the chord maximizer k*.
Its Jacobians (`_coset_jacobian`) come from one eigendecomposition of
xi per problem and the k* of the residual: the columns hold k* fixed,
less their projection onto the K1-orbit's tangent, which leaves J^T F
the exact gradient and J exact at a zero residual.
`_k_star_batch` computes k* and the chord's bound for a whole stack of
points in one numpy pass (batched SO Procrustes; `_su_procrustes` for SU
blocks, closed form for SU(2), one SVD and a Newton solve of the phase for
larger blocks; under a circle, one SVD per block makes its maximum an exact
curve in the angle, `_su_curve`, evaluated on one theta grid for every row,
then one safeguarded Newton polish of every row's angle with exact T' and
T'', and gives the block of k*).  `_polish_roots` is the one root finder.
`_lm` advances a stack of problems in lockstep, each with its own damping
and stop, sends the trial points of all of them through stacked residual
calls of at most `_LM_SLICE` points, and takes and reduces the Jacobians
to J^T J and J^T F in stacks of at most `_LM_SLICE` (problem, column)
pairs; a problem stops at the latest once its residual is at most 1e-6
times the tolerance of its solve.
`riemannian_logs` solves one problem per point pair, any number of pairs
in one `_lm` call, each from its smart start (`smart_starts`: the m1
part of one batched real log, `_orthogonal_log`, of the chord-aligned
difference); it draws no random numbers.  A verify job passes it its
three log round trips.  A central isometry
z . k2 poses the base point's problem at every point, and `central_log`
solves that one in closed form, from the `_torus_log` of z k2^T on K's
blocks.  A bound-ordering
pair (x, y) needs no solve: the curve x exp(t xi0) K1 of its smart start
xi0 has length ||xi0||, the upper bound, checked against the lower bound
of its end x exp(xi0).  `distance_lower_bound` takes those ends and the
sampled points of all four profiles in one call.  `riemannian_log` and
`displacement_profile` (`sample_profile`, then `share_logs`,
`distance_lower_bound` and `profile_report`) are compositions.
Each batch of Haar points is one stack (`haar_points`, over `haar_matrices`)
from one normal draw and one stacked QR, laid out so that a batch reads
the stream, and gets the points, that batches of one read in turn.
A log is converged when it holds an explicit xi (`LogResult.converged`).
`share_logs` carries a profile's base-point log (on a central profile,
its `central_log`) to each of its points, which take it where it also
reaches the image coset.  Every per-problem operation, the matrix
exponential included, acts on that problem's rows alone, so a pair's
result does not depend on the problems it is solved with.  The module
needs numpy alone: the reversal certificates and the SO frames take
their invariant planes from `np.linalg.eig`.
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
class Cosets:
    """A stack of cosets x K1 (or x K for base-space points), held by (B, n,
    n) representatives; all rows are checked orthogonal in one product."""

    model: GroupModel
    reps: np.ndarray

    def __post_init__(self):
        r = self.reps
        err = np.linalg.norm(r @ np.swapaxes(r, 1, 2) - np.eye(r.shape[-1]), axis=(1, 2))
        if err.max(initial=0.0) > 1e-9:
            raise ValueError("coset representative is not orthogonal")

    def __len__(self) -> int:
        return len(self.reps)

    def __getitem__(self, rows) -> Cosets:  # a slice or an index array
        return Cosets(self.model, self.reps[rows])


def concat(stacks: list[Cosets]) -> Cosets:
    """One stack of the rows of `stacks` (of one model), in order."""
    return Cosets(stacks[0].model, np.concatenate([x.reps for x in stacks]))


@dataclass(frozen=True)
class Isometry:
    """x K1 -> left . x . right^{-1} K1 on every row x; right must lie in r(K2)."""

    model: GroupModel
    left: np.ndarray | None = None
    right: np.ndarray | None = None
    label: str = ""

    def apply(self, x: Cosets) -> Cosets:
        reps = x.reps
        if self.left is not None:
            reps = self.left @ reps
        if self.right is not None:
            reps = reps @ self.right.T
        return Cosets(self.model, reps)


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


def base_point(model: GroupModel) -> Cosets:
    return Cosets(model, np.eye(model.n)[None])


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


def haar_points(model: GroupModel, rng: np.random.Generator, count: int) -> Cosets:
    """A stack of count Haar points of the model's group, from one
    `haar_matrices` batch."""
    if model.complex_size:
        return Cosets(model, realify(haar_matrices("su", model.complex_size, rng, count)))
    return Cosets(model, haar_matrices("so", model.n, rng, count))


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
    For larger c, T' = tau - g is > 0 on [-pi, pi] below the root (less -pi
    itself when tau = -pi) and <= 0 above it, so `_polish_roots` finds the
    root from tau / g'(0), with T'' = -g'."""
    r = sig[..., -1:] / np.where(sig[..., :-1] > 0, sig[..., :-1], 1.0)
    if sig.shape[-1] == 2:
        u = det.conj() / np.abs(det)  # e^{i tau}
        s1, s2 = sig[..., 0], sig[..., 1]
        n = np.abs(s1 + s2 * u)
        e = np.divide(s2 + s1 * u, n, out=np.full(n.shape, 1j), where=n > 0)
        return e.real, e.imag, r
    tau = -np.angle(det).ravel()  # rows x angles under a circle, flat for the solve
    rs = np.broadcast_to(r, det.shape + r.shape[-1:]).reshape(len(tau), -1)

    def derivs(x: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = x + np.arcsin(rs[rows] * np.sin(x)[:, None]).sum(axis=-1)
        return tau[rows] - g, -_su_slope(rs[rows], np.cos(x))[1]

    pi = np.full(len(tau), np.pi)
    psi = _polish_roots(derivs, tau / (1 + rs.sum(axis=-1)), -pi, pi).reshape(det.shape)
    return np.cos(psi), np.sin(psi), r


def _su_slope(r: np.ndarray, cos: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cos phi_j, g' = 1 + sum_j r_j cos psi / cos phi_j) of `_su_root` at
    cos psi.  cos phi_j stays accurate on a tie r_j = 1; it is 0 only on a
    tie with cos psi = 0, where its term of g' is 0."""
    rc = r * cos[..., None]
    cos_phi = np.sqrt((1 - r) * (1 + r) + rc * rc)
    ratio = np.divide(rc, cos_phi, out=np.zeros(rc.shape), where=cos_phi > 0)
    return cos_phi, 1 + ratio.sum(axis=-1)


def _su_procrustes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(max, maximizer) of Re tr(k^H P) over SU(c), c >= 2; leading axes
    are a batch, and each block's result is the one it gets alone.  SU(2)
    takes the closed form, a larger block one SVD and `_su_polar`.

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
    return _su_polar(U, sig, Vh, np.linalg.det(U @ Vh))


def _su_polar(U: np.ndarray, sig: np.ndarray, Vh: np.ndarray, det: np.ndarray):
    """(sum sigma_j cos phi_j, U diag(e^{i phi}) V^h) at the phases phi of
    `_su_root(sig, det)`: `_su_procrustes` of U diag(sig) V^h at det = det(U
    V^h); at e^{-i c alpha} det(U V^h), that of e^{-i alpha} U diag(sig) V^h,
    its maximizer times e^{i alpha} (k*'s block under a circle)."""
    sin, r = _su_root(sig, det)[1:]
    phis = np.arcsin(r * sin[..., None])
    phis = np.concatenate([phis, (-np.angle(det) - phis.sum(axis=-1))[..., None]], axis=-1)
    return np.sum(sig * np.cos(phis), axis=-1), (U * np.exp(1j * phis)[..., None, :]) @ Vh


def _su_curve(sig: np.ndarray, det: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(F, F', F'') at tau = -arg det of the SU(c) maximum F(tau) of a block
    with singular values sig (..., c), at the phases of `_su_root`: as
    dF/dpsi = -sigma_c sin psi g'(psi) = F' dtau/dpsi, F' = -sigma_c sin psi
    and F'' = -sigma_c cos psi / g'(psi) (`_su_slope`)."""
    cos, sin, r = _su_root(sig, det)
    cos_phi, slope = _su_slope(r, cos)
    low = sig[..., -1]
    value = low * cos + np.sum(sig[..., :-1] * cos_phi, axis=-1)
    return value, -low * sin, -low * cos / slope


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


# `_polish_roots` stops a row once its step is at most this (the xtol of
# the circle polish's brentq predecessor); bisection alone gets there from
# a grid bracket in 42 steps and from [-pi, pi] in 50, so the cap only
# stops a derivative that never settles
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
) -> tuple[np.ndarray, list[int], list[tuple]]:
    """(angles, single columns, SU blocks): per row of the pairing stack P,
    the circle angle maximizing the trace with every SU block maximized
    exactly at that angle: a grid over the period for all rows at once,
    then one `_polish_roots` call for the zero crossings of the derivative
    next to the best grid angles, and per row the better of the polished
    and the grid angle.  The rotation e^{-i a theta} of an SU block of c
    columns keeps its singular values and multiplies det(U V^h) by e^{-i c
    a theta}: one SVD per block (columns, c a, U, sigma, V^h, det(U V^h))
    gives its maximum at every angle, the curve `_su_curve`."""
    speeds = model.circle_phases
    period = next(f.period for f in factors if f.kind == "circle")
    singles, blocks = _split_columns(model, factors)
    rows = np.arange(len(P))
    diag = P[:, singles, singles]
    fs = speeds[singles]
    curves = []
    for cols in blocks:
        U, sig, Vh = np.linalg.svd(P[np.ix_(rows, cols, cols)])
        curves.append((cols, len(cols) * speeds[cols[0]], U, sig, Vh, np.linalg.det(U @ Vh)))

    def trace_at(thetas: np.ndarray) -> np.ndarray:
        # thetas (1 or B, T) -> maximized traces (B, T)
        rot = np.exp(-1j * (thetas[..., None] * fs)) * diag[:, None, :]
        vals = rot.real.sum(axis=-1)
        for _, ca, _, sig, _, det in curves:
            vals += _su_curve(sig[:, None], det[:, None] * np.exp(-1j * ca * thetas))[0]
        return vals

    def derivs(x: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (T', T'') at angles x (len(r),) of rows r
        rot = np.exp(-1j * (x[:, None] * fs)) * diag[r]
        der, curv = (fs * rot.imag).sum(axis=-1), -((fs * fs) * rot.real).sum(axis=-1)
        for _, ca, _, sig, _, det in curves:
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
    return cand[rows, np.argmax(trace_at(cand), axis=1)], singles, curves


def _k_star_batch(
    model: GroupModel,
    U_stack: np.ndarray,
    V: np.ndarray,
    factors: tuple[BlockFactor, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """(k*, b) per U of a (B, n, n) stack, V one matrix or a matching stack:
    the maximizer k* of tr(k^T U^T V) over the factor subgroup and a bound
    b >= that maximum, behind `chord_to_coset`.  SO blocks take a batched
    Procrustes and SU blocks `_su_procrustes`, so b is the trace at k*.  A
    circle takes the angle of `_circle_angles` and each SU block the
    `_su_polar` of the SVD that found it (the circle's phase e^{i a theta}
    cancels the block's turn); b relaxes the single columns to the torus and
    each SU block to U(c): sum |P_jj| plus each block's sum of sigma."""
    M = np.swapaxes(U_stack, -1, -2) @ V  # maximize tr(k^T M) per row
    rows = np.arange(len(M))
    real = {f.kind for f in factors} == {"so"}
    P = M if real else _complex_pairing(M)
    K = np.tile(np.eye(P.shape[-1], dtype=P.dtype), (len(M), 1, 1))
    if all(f.kind != "circle" for f in factors):
        for f in factors:  # the blocks are disjoint
            ix = np.ix_(rows, f.cols, f.cols)
            K[ix] = (_so_procrustes if real else _su_procrustes)(P[ix])[1]
        K = K if real else realify(K)
        return K, np.sum(K * M, axis=(1, 2))
    theta, singles, curves = _circle_angles(model, P, factors)
    K[:, singles, singles] = np.exp(1j * model.circle_phases[singles] * theta[:, None])
    bound = np.sum(np.abs(P[:, singles, singles]), axis=1)
    for cols, ca, U, sig, Vh, det in curves:
        K[np.ix_(rows, cols, cols)] = _su_polar(U, sig, Vh, det * np.exp(-1j * ca * theta))[1]
        bound += np.sum(sig, axis=1)
    return realify(K), bound


def chord_to_coset(
    model: GroupModel,
    U: np.ndarray,
    V: np.ndarray,
    factors: tuple[BlockFactor, ...],
) -> ChordResult:
    """Certified chord pairs for min over k in the factor subgroup of
    ||U k - V||_F (the subgroup acts on the right of U), one per U of a
    (B, n, n) stack; V is one matrix or a matching stack.

    Both come from the one pass of `_k_star_batch`.  The upper value is the
    directly evaluated norm ||U k* - V||, which stays accurate near zero
    where the trace form 2N - 2 tr would cancel catastrophically.  The lower
    value is sqrt(2N - 2 b) for its bound b on the max of tr(k^T U^T V),
    less a small slack so that roundoff cannot push it above the chord."""
    K, bound = _k_star_batch(model, U, V, factors)
    upper = np.linalg.norm((U @ K - V).reshape(len(K), -1), axis=1)
    lower = np.sqrt(np.maximum(2 * model.n - 2 * bound - TRACE_SLACK, 0.0))
    return ChordResult(lower=np.minimum(lower, upper), upper=upper)


# --- Killing fields and geodesics ---------------------------------------------


def killing_lengths(f: KillingField, xs: Cosets) -> np.ndarray:
    """Metric norm of the Killing field at every point of the stack.

    Left field xi in g: the value at gK1 is the m1-norm of Ad(g^{-1}) xi.
    Right field eta in k2: the m1-norm of eta, the same at every point by
    G-invariance of right translations.
    """
    model = f.model
    if f.kind == "right":
        return np.full(len(xs), model.m1_norm(f.xi))
    c = model.m1_coords(np.swapaxes(xs.reps, 1, 2) @ f.xi @ xs.reps)
    return np.sqrt((c[:, None, :] @ c[:, :, None])[:, 0, 0])  # one dot per row


def geodesic(x: Cosets, xi: np.ndarray, t: float) -> Cosets:
    """exp(t Ad(g) xi) . x for every point x = gK1 of the stack: geodesics
    with initial velocity xi (one, or one per point) in the m1 frame at x."""
    model = x.model
    resid = np.linalg.norm(xi - model.project_m1(xi))
    if resid > 1e-8:
        raise ValueError(f"geodesic direction outside m1 (residual {resid:.2e})")
    return Cosets(model, x.reps @ matrix_exp(t * xi))


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
    inf when it did not reach the image coset; converged means xi is
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
        Kr = _k_star_batch(model, Pr, V[rows], factors)[0]
        xi[rows], P[rows], K[rows] = x, Pr, Kr
        return (Pr @ Kr - V[rows]).reshape(len(C), -1)

    def jacobians(rows: np.ndarray) -> np.ndarray:
        return _coset_jacobian(xi[rows], model.m1_basis, P[rows], K[rows], onb)

    return residuals, jacobians


def smart_starts(xs: Cosets, ys: Cosets) -> np.ndarray:
    """The (len(xs), dim m1) coordinates of the smart start xi0 of the log
    from xs[i] to ys[i]: the m1 part of the principal real log
    (`_orthogonal_log`) of the chord-aligned difference W = U^T V k*^T,
    with U, V the representatives and k* the chord maximizer over K1.  The
    curve x exp(t xi0) K1, 0 <= t <= 1, has length ||xi0|| (the metric
    norm), so ||xi0|| bounds the distance from x K1 to x exp(xi0) K1 above
    for every pair, whether or not that end is ys[i] K1."""
    model, U, V = xs.model, xs.reps, ys.reps
    K = _k_star_batch(model, U, V, model.k1_factors)[0]
    return model.m1_coords(_orthogonal_log(np.swapaxes(U, 1, 2) @ V @ np.swapaxes(K, 1, 2)))


def riemannian_logs(xs: Cosets, ys: Cosets, tol: float = COSET_TOL) -> list[LogResult]:
    """The log of `riemannian_log` for every pair (xs[i], ys[i]) of points
    of one model: one problem per pair, from its `smart_starts` value, all
    solved in one lockstep `_lm` call, and each pair's result is, bit for
    bit, the one it gets when solved alone.  A verify job solves its log
    round trips here."""
    model = xs.model
    X, F = _lm(*_log_maps(model, xs.reps, ys.reps), smart_starts(xs, ys), tol)
    out = []
    for coords, r in zip(X, np.linalg.norm(F, axis=1)):
        if r < tol:
            xi = model.from_m1_coords(coords)
            out.append(LogResult(xi, float(np.linalg.norm(coords)), float(r)))
        else:
            out.append(LogResult(None, math.inf, float(r)))
    return out


def riemannian_log(x: Cosets, y: Cosets, tol: float = COSET_TOL) -> LogResult:
    """Minimization of the coset residual chord(x exp(xi), y) over xi in
    m1 from the smart start, x and y stacks of one point: xi with upper
    bound ||xi|| (the metric norm), converged only when the residual drops
    below tol."""
    return riemannian_logs(x, y, tol)[0]


def distance_lower_bound(xs: Cosets, ys: Cosets) -> np.ndarray:
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
    model = xs.model
    root_n = math.sqrt(model.n)
    chord = chord_to_coset(model, xs.reps, ys.reps, model.k1_factors).lower
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
    points: Cosets
    images: Cosets


def sample_profile(gamma: Isometry, n_samples: int, seed: int) -> ProfileSample:
    """The seeded sample of `displacement_profile`."""
    rng = np.random.default_rng(seed)
    haar = haar_points(gamma.model, rng, max(n_samples - 1, 0)).reps
    points = Cosets(gamma.model, np.concatenate([np.eye(gamma.model.n)[None], haar]))
    return ProfileSample(gamma, points, gamma.apply(points))


def share_logs(sample: ProfileSample, log: LogResult, tol: float = COSET_TOL) -> list[LogResult]:
    """The logs of a sampled profile carried from `log`, its base point's
    log (the `central_log` of a central gamma): the base point keeps it,
    and every other point p where its xi also joins p to gamma(p) (chord
    upper value below tol, all points in one `chord_to_coset` call) takes
    it as an explicit converged geodesic; the others read as
    non-converged.  A central gamma = z k2 maps x K1 to x (z k2^T) K1, the
    left translate of the base problem, so every point takes xi."""
    if not log.converged:
        return [log] + [LogResult(None, math.inf, math.inf)] * (len(sample.points) - 1)
    model = sample.gamma.model
    U = sample.points.reps @ matrix_exp(log.xi)
    R = chord_to_coset(model, U, sample.images.reps, model.k1_factors).upper
    return [log] + [
        LogResult(log.xi, log.upper, float(r)) if r < tol else LogResult(None, math.inf, float(r))
        for r in R[1:]
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
    n_samples: int,
    seed: int,
    tol_constant: float = CONSTANT_SPREAD_TOL,
    tol_gap: float = GAP_TOL,
) -> DisplacementReport:
    """Per-point displacement bounds of the isometry over a seeded sample
    (the identity coset plus Haar points), with the three-way verdict.  A
    central isometry (left factor None or one of the model's center
    elements) takes its base point's `central_log`, which `share_logs`
    carries to every point; any other takes the per-point logs of
    `riemannian_logs`.  The lower bounds come from `distance_lower_bound`,
    then `profile_report` gives the verdict."""
    sample = sample_profile(gamma, n_samples, seed)
    left, centers = gamma.left, gamma.model.center_elements
    if left is None or any(np.array_equal(left, z) for z in centers):
        logs = share_logs(sample, central_log(gamma))
    else:
        logs = riemannian_logs(sample.points, sample.images)
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


def fixed_fiber(gamma: Isometry, tol: float = COSET_TOL) -> tuple[Cosets | None, float]:
    """A base coset x K (K = K1 K2) that the left translation gamma by g
    fixes, in closed form: x is the frame of g on one block, aligned to
    K's torus: on a unitary model the eigenvector frame (`_su_frame`, det
    1), so x^-1 g x is diagonal; on a real model the invariant-plane frame
    (`_so_frame`) with the planes of K's torus filled first.  Returns (x
    K, residual), x K a stack of one and the residual the chord upper
    value between x and g x over K, when it is below tol, and (None,
    residual) otherwise; nothing else is searched.

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
    whole = (tuple(range(model.complex_size or model.n)),)
    if model.complex_size:
        x = realify(_su_frame(complexify(k), whole))
    else:
        x = _so_frame(model, k, whole, factors)[0]
    resid = float(chord_to_coset(model, x[None], k @ x, factors).upper[0])
    return (Cosets(model, x[None]) if resid < tol else None), resid


# --- fixed-point certificates ----------------------------------------------------


@dataclass(frozen=True)
class PlaneCertificate:
    """Invariant (2s+1)-planes of a stack of B reversals, one per row."""

    basis: np.ndarray  # (B, n, 2s+1) orthonormal columns
    residual: np.ndarray  # (B,)
    rotation_angles: tuple[tuple[float, ...], ...]  # per row, ascending

    @property
    def dimension(self) -> int:
        return self.basis.shape[-1]


def _invariant_pieces(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(Q, kind, angle) of a (B, n, n) stack of orthogonal matrices: the
    orthonormal columns of each row of Q hold that row's invariant pieces,
    first the rotation planes as column pairs (kind 0), then the +1 lines
    (kind 1) and the -1 lines (kind -1).  `angle` holds a plane's angle in
    (0, pi] on both its columns and 0 on a line.  The pieces come from the
    eigenpairs (lambda, x) of one stacked `np.linalg.eig`, which gives a
    small residual A x - lambda x even where eigenvalues cluster, and
    |arg lambda| to roundoff (the eigenvalues of a normal matrix are
    perfectly conditioned).  An eigenvalue with imaginary part above
    _HALF_TURN_TOL gives the rotation plane span(Re x, Im x); every other
    eigenvalue of each conjugate pair gives +1 or -1 lines, by the sign of
    its real part, from Re x (and Im x for a non-real one).  Each row's
    columns are laid out planes first, then lines, each in `eig` order, and
    one stacked QR of them takes each piece orthogonal to the pieces before
    it (a Householder QR keeps the nested spans), so a plane whose angle
    repeats or nearly repeats an earlier one is still found."""
    n = A.shape[-1]
    lam, X = np.linalg.eig(A)
    # candidate columns Re x_j (at j) and Im x_j (at n + j): Re x_j for the
    # eigenvalue of each conjugate pair with imaginary part >= 0, Im x_j for
    # a non-real one, n in all, planes first; the rest sort last
    at = 2 * np.arange(n) + np.where(lam.imag > _HALF_TURN_TOL, 0, 2 * n)
    key = np.concatenate(
        [np.where(lam.imag >= 0, at, 4 * n), np.where(lam.imag > 0, at + 1, 4 * n)], axis=-1
    )
    cols = np.argsort(key, axis=-1)[:, :n]
    lam = np.take_along_axis(np.concatenate([lam, lam], axis=-1), cols, axis=-1)
    kind = np.where(lam.imag > _HALF_TURN_TOL, 0, np.where(lam.real > 0, 1, -1))
    ordered = np.take_along_axis(np.concatenate([X.real, X.imag], axis=-1), cols[:, None], axis=-1)
    return np.linalg.qr(ordered)[0], kind, np.where(kind == 0, np.abs(np.angle(lam)), 0.0)


def _reject_rows(bad: np.ndarray, error: type[Exception], message: str) -> None:
    """Raise `error` naming the first row of a stack where `bad` holds."""
    if bad.any():
        raise error(f"row {int(np.argmax(bad))}: {message}")


def fixed_point_certificate(A: np.ndarray, s: int, t: int) -> PlaneCertificate:
    """Invariant (2s+1)-planes of a (B, n, n) stack of orthogonal matrices
    with determinant -1 on R^n, n = 2s+2+2t, one per row: the +1 line that
    a negative determinant forces, plus s two-dimensional invariant pieces
    (rotation planes by ascending angle, then paired further fixed lines,
    then paired -1 lines), the pieces of `_invariant_pieces`.  Every check
    runs on the whole stack, and an error names the first bad row."""
    n = 2 * s + 2 + 2 * t
    if A.ndim != 3 or A.shape[1:] != (n, n):
        raise ValueError(f"expected a (B, {n}, {n}) stack for (s, t) = ({s}, {t}), got {A.shape}")
    err = np.linalg.norm(A @ np.swapaxes(A, 1, 2) - np.eye(n), axis=(1, 2))
    _reject_rows(err > 1e-9, ValueError, "matrix is not orthogonal")
    _reject_rows(
        np.linalg.det(A) > 0, ValueError, "determinant +1: no invariant odd plane is implied"
    )

    Q, kind, angle = _invariant_pieces(A)
    plus, minus = kind == 1, kind == -1
    _reject_rows(
        ~plus.any(axis=1),
        AssertionError,
        "no +1 eigenvector found; impossible for det -1 in even dimension",
    )
    # the basis order: the first +1 line, then the two-pieces (planes,
    # paired further +1 lines, paired -1 lines), then the unpaired lines
    plus_rank, minus_rank = np.cumsum(plus, axis=1), np.cumsum(minus, axis=1)  # from 1
    n_plus, n_minus = plus_rank[:, -1:], minus_rank[:, -1:]
    tier = np.select(
        [
            plus & (plus_rank == 1),
            kind == 0,
            plus & (plus_rank <= n_plus - (n_plus - 1) % 2),
            minus & (minus_rank <= n_minus - n_minus % 2),
        ],
        [0, 1, 2, 3],
        4,
    )
    _reject_rows(
        np.count_nonzero((tier > 0) & (tier < 4), axis=1) < 2 * s,
        AssertionError,
        "not enough invariant two-planes; broken input",
    )
    order = np.lexsort((angle, tier), axis=1)  # stable: ties keep Q's order
    basis = np.take_along_axis(Q, order[:, None, : 2 * s + 1], axis=2)
    # orthonormal by construction; verify invariance
    image = A @ basis
    residual = np.linalg.norm(image - basis @ (np.swapaxes(basis, 1, 2) @ image), axis=(1, 2))
    _reject_rows(
        residual > CERT_RESIDUAL_TOL,
        AssertionError,
        f"certificate residual too large (max {residual.max():.2e})",
    )
    return PlaneCertificate(
        basis=basis,
        residual=residual,
        rotation_angles=tuple(
            tuple(np.sort(a[k == 0][::2]).tolist()) for a, k in zip(angle, kind)
        ),
    )


# --- torus frames and logs ---------------------------------------------------


def _so_frame(
    model: GroupModel,
    k: np.ndarray,
    blocks: tuple[tuple[int, ...], ...],
    lead: tuple[BlockFactor, ...],
) -> tuple[np.ndarray, list[tuple[int, ...]]]:
    """(x, slots) for a real model and k block-diagonal on the row blocks
    `blocks`, which cover the rows: x in SO(n), block-diagonal on them
    with det 1 on each, whose column planes, the row pairs `slots`, hold
    the invariant pieces of k's blocks (`_invariant_pieces`), so that x^T
    k x rotates within each slot.  In a block, half turns (paired -1
    lines), then rotation planes by descending angle, then paired fixed
    lines fill the block's rows of the torus planes of the factors `lead`
    first (rows in pairs, m // 2 per SO(m) block), so that the lead torus
    meets the largest angles, then its other rows in pairs.  An odd
    block's leftover line (a fixed line, or a -1 line where its det is -1)
    goes in its last free row; the blocks' leftover -1 lines are paired
    across blocks into half-turn slots.  Reversing a block's last column
    where its det is -1 reverses one plane's angle or a line."""
    x = np.zeros((model.n, model.n))
    slots, halves = [], []
    for rows in blocks:
        ix = np.ix_(rows, rows)
        Q, kind, angle = (a[0] for a in _invariant_pieces(k[ix][None]))
        plus, minus = Q[:, kind == 1], Q[:, kind == -1]
        first = np.flatnonzero(kind == 0)[::2]  # each plane's first column
        first = first[np.argsort(-angle[first], kind="stable")]
        pieces = [minus[:, i : i + 2] for i in range(0, minus.shape[1] - 1, 2)]
        pieces += [Q[:, a : a + 2] for a in first]
        pieces += [plus[:, i : i + 2] for i in range(0, plus.shape[1] - 1, 2)]
        pairs = [p for f in lead for p in zip(f.cols[::2], f.cols[1::2]) if p[0] in rows]
        taken = sum(pairs, ())
        rest = [r for r in rows if r not in taken]
        pairs += zip(rest[::2], rest[1::2])
        for pair, P in zip(pairs, pieces):
            x[np.ix_(rows, pair)] = P
        if len(rows) % 2:
            odd = minus if minus.shape[1] % 2 else plus
            x[rows, rest[-1]] = odd[:, -1]
            if odd is minus:
                halves.append(rest[-1])
        if np.linalg.det(x[ix]) < 0:
            x[rows, rows[-1]] *= -1
        slots += pairs
    return x, slots + list(zip(halves[::2], halves[1::2]))


def _su_frame(kc: np.ndarray, blocks: tuple[tuple[int, ...], ...]) -> np.ndarray:
    """A frame of the m x m unitary kc, block-diagonal on its column blocks
    `blocks` and the identity elsewhere: on each block, orthonormal
    eigenvectors of kc's block, as columns, with the first scaled to det
    1.  They are those of `eigh` of the Hermitian part of e^{-i} times the
    block, whose eigenvalues cos(alpha - 1) keep the block's eigenphases
    alpha apart unless two of them add up to 2 mod 2 pi."""
    x = np.eye(len(kc), dtype=complex)
    for cols in blocks:
        ix = np.ix_(cols, cols)
        h = np.exp(-1j) * kc[ix]
        v = np.linalg.eigh((h + h.conj().T) / 2)[1]
        v[:, 0] /= np.linalg.det(v)
        x[ix] = v
    return x


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


def _su_phase_log(
    model: GroupModel, alpha: np.ndarray, reorder: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(perm, phi) for the eigenphases alpha of a unitary, in the order of
    its eigenvector columns: phi the column phases of L = i diag(phi),
    traceless, with exp(L) = D k1 for D = diag(e^{i alpha[perm]}) (the
    unitary in the frame of its columns reordered by perm) and some k1 in
    K1's torus, chosen for the shortest m1 part found; with reorder False,
    perm keeps the given order.

    The m1 part of L depends on phi only through the phase sum of each SU
    block of K1 (the traceless rest lies in the block) and only up to
    multiples of the circle's speeds a; so each single column and each
    block is one unit u with a phase sum, and the search runs over
    - the assignments of eigenphases to columns (reorder only), up to
      reordering within a block or within the single columns of one speed;
    - the circle angle t: one per interval on which every unit's sum
      alpha_u + s_u t (s_u = a on a single column, c a on a block of c
      columns) keeps one principal value in [-pi, pi];
    - the 2 pi shifts that bring the principal sums to a sum of 0, the
      trace of su(m), jointly: one unit at a time, each by the least
      increase of the m1 norm.
    A block's sum is spread evenly over its columns."""
    m = model.complex_size
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
    if reorder:
        classes = blocks + [
            tuple(j for j in singles if speeds[j] == a)
            for a in sorted({speeds[j] for j in singles})
        ]
        perms = np.array(
            [[a[j] for j in range(m)] for a in _assignments(classes, tuple(range(m)))]
        )
    else:
        perms = np.arange(m)[None]
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
    return perms[best // C], T[best] @ W


def _torus_log(
    model: GroupModel,
    k: np.ndarray,
    blocks: tuple[tuple[int, ...], ...],
    align: bool,
    tol: float = COSET_TOL,
) -> tuple[np.ndarray, LogResult]:
    """(x, log) for k block-diagonal on `blocks` (complex columns on a
    unitary model, rows on a real one): x the frame of k on those blocks,
    `_su_frame` or `_so_frame`, so that x^-1 k x is a torus element; L its
    torus log modulo K1; and log the m1 part xi of L, with upper bound
    ||xi||, converged only when x exp(xi) reaches k x K1 with a chord upper
    value below tol.  On a unitary model L = i diag(phi) of
    `_su_phase_log`; on a real one L holds the angle in [-pi, pi] of x^T
    k x in each slot of `_so_frame`.  Aligned (`align`), the frame meets
    K1's torus: on a unitary model `_su_phase_log` searches the order of
    its columns, and on a real model K1's torus planes take the largest
    angles; unaligned, the frame keeps its order.  It draws no random
    numbers."""
    if model.complex_size:
        kc = complexify(k)
        x = _su_frame(kc, blocks)
        alpha = np.angle(np.einsum("ij,ik,kj->j", x.conj(), kc, x))
        perm, phi = _su_phase_log(model, alpha, reorder=align)
        x = x[:, perm]
        if align:
            x[:, 0] /= np.linalg.det(x)  # an odd reordering turns det to -1
        x, L = realify(x), realify(np.diag(1j * phi))
    else:
        x, slots = _so_frame(model, k, blocks, model.k1_factors if align else ())
        R, L = x.T @ k @ x, np.zeros_like(k)
        for a, b in slots:
            L[b, a] = math.atan2(R[b, a] - R[a, b], R[a, a] + R[b, b])
            L[a, b] = -L[b, a]
    c = model.m1_coords(L)
    xi = model.from_m1_coords(c)
    end = (x @ matrix_exp(xi))[None]
    resid = float(chord_to_coset(model, end, k @ x, model.k1_factors).upper[0])
    if resid < tol:
        return x, LogResult(xi, float(np.linalg.norm(c)), resid)
    return x, LogResult(None, math.inf, resid)


# --- torus witnesses and central logs ----------------------------------------


def _torus_witness(gamma: Isometry, tol: float = COSET_TOL) -> tuple[Cosets, LogResult]:
    """A point x K1 (a stack of one) where the left translation gamma by k
    moves little, with an explicit log to its image: the `_torus_log` of k
    with one block, aligned to K1, so that xi is the m1 part of the torus
    log L of x^-1 k x, with upper bound ||xi||.

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
    whole = (tuple(range(model.complex_size or model.n)),)
    x, log = _torus_log(model, gamma.left, whole, True, tol)
    return Cosets(model, x[None]), log


def central_log(gamma: Isometry, tol: float = COSET_TOL) -> LogResult:
    """The log at the base coset of a central isometry gamma = z . k2 (z
    central, k2 in K2), in closed form: xi in m1 with exp(xi) in g K1, g =
    z k2^T, so that x exp(xi) K1 = x g K1 = gamma(x K1) at every point x
    (`share_logs` checks that point by point).  The `_torus_log` of g on
    K's SU or SO blocks, unaligned, gives a frame x0 of g, block by block
    of K, that makes R = x0^-1 g x0 a torus element, and xi' the m1 part
    of its torus log L modulo K1; then xi = Ad(x0) xi', with upper bound
    ||xi||, converged only when x0 exp(xi') reaches g x0 K1 with a chord
    upper value below tol.  On a unitary model, reordering the
    eigenvectors within a block of K leaves the m1 part unchanged (on a
    block of K1 only the phase sum enters; a block of K2 holds single
    columns of one circle speed, since the circle commutes with the
    block), so no order is searched.  It draws no random numbers.

    Why exp(xi) lies in g K1:
    - x0 normalizes K1.  g is block-diagonal in K's blocks (z is scalar
      and k2 is in K2), so x0 is too, with det 1 on each block: x0 lies
      in K's SU or SO blocks, so in K = K1 K2, whose factors commute; so
      x0 K1 x0^-1 = K1, Ad(x0) keeps k1 and, as it keeps the Killing form,
      m1 = k1-perp.
    - L's k1 part commutes with its m1 part and exponentiates into K1.
      On a unitary model L is diagonal.  k1 is a sum of weight spaces of
      the diagonal torus t (its blocks lie on coordinate columns and its
      circle is diagonal), and those of nonzero weight are Killing-
      orthogonal to t, so L's k1 part lies in t1 = k1 n t: diagonal, so
      it commutes with L, and exp(t1) lies in K1.  On a real model L is a
      sum of rotations in disjoint coordinate planes, which are Killing-
      orthogonal, so its k1 part is the sum of those within K1's rows:
      they commute with the rest and exponentiate into K1's SO block.
      So exp(xi') = exp(L) exp(-k1 part) lies in exp(L) K1 = R K1, and
      exp(xi) = x0 exp(xi') x0^-1 lies in x0 R K1 x0^-1 = g K1.
    - The reach checked at x0 is the reach at the base.  For k1 in K1,
      x0 exp(xi') k1 - g x0 = (exp(xi) k1' - g) x0 with k1' = x0 k1 x0^-1,
      and x0 is orthogonal; as x0 normalizes K1, k1' runs over K1 with
      k1.  So the chord from x0 exp(xi') to g x0 over K1 is the chord from
      exp(xi) to g over K1.
    - The half-turn pairing is valid on real models.  A real model's K is
      SO(p) x SO(q) on the rows, and z = -1 is not in K when p and q are
      odd: on each odd block, g has det -1 and an odd number of -1 lines,
      so one is left over after pairing within the block.  The leftover
      lines of distinct blocks are paired into half-turn planes: such a
      plane spans one row of each of two blocks, so its generator is
      Killing-orthogonal to k and lies in m, inside m1.  As det g = 1,
      the leftover lines are even in number and all are paired, so R
      rotates within the slots and exp(L) = R."""
    model = gamma.model
    g = gamma.apply(base_point(model)).reps[0]
    blocks = tuple(f.cols for f in model.k1_factors + model.k2_factors if f.kind != "circle")
    x0, log = _torus_log(model, g, blocks, False, tol)
    if not log.converged:
        return log
    c = model.m1_coords(x0 @ log.xi @ x0.T)
    return LogResult(model.from_m1_coords(c), float(np.linalg.norm(c)), log.residual)
