"""Geometry of M~ = G/K1 with the normal metric (-Killing form on m1).

Points are group representatives of cosets; all coset comparisons go
through chord values: chord(x, y) = min over k in K1 of the ambient
Frobenius norm ||x k - y||.  Every chord evaluation returns a certified
pair (lower, upper): the upper value comes from an explicit feasible k,
the lower value from a group relaxation (full unitary / diagonal torus),
so distance certificates built on the lower value are sound even when a
block maximizer is only locally optimized.  The factors of K1 and K2 are
SO blocks, SU blocks of two or more columns, and a circle.  SO and SU(2)
blocks have exact maximizers, so without a circle both sides agree to
roundoff; with a circle they agree to grid-polish accuracy.  An SU(c >= 3)
block is maximized by a det-phase-constrained ascent, which is only
locally optimal.

Displacement verdicts compare per-point upper bounds (from a multistart
Riemannian log) against per-point lower bounds (`distance_lower_bound`:
the arc length sqrt(lambda_min N) 2 asin(c / (2 sqrt N)) that a certified
chord lower value c forces on an N x N model, where lambda_min is the
smallest eigenvalue of the normal metric against the ambient Frobenius
form).  A profile is reported constant-within-tol,
certified-nonconstant (some point's upper bound lies below another
point's lower bound), or inconclusive.

The Riemannian log and the fixed-fiber search are Levenberg-Marquardt
solves whose cost is the finite-difference Jacobian: d residuals per
Jacobian, each needing the chord maximizer k*.  `_k_star_batch` computes
k* for a whole stack of points in one numpy pass (batched SO Procrustes;
`_su_procrustes` for SU blocks, closed form for SU(2) and the ascent on
the whole stack for larger blocks; one theta grid for every row, with
the SU blocks maximized at every grid angle in one call, then one
safeguarded Newton polish, `_polish_roots`, of every row's angle).
`_lm` advances a stack of problems in lockstep, each with its own damping
and stop, sends the Jacobian points or trial points of all of them
through stacked residual calls of at most `_LM_SLICE` points, and reduces
the Jacobian to J^T J and J^T F one such call at a time; a problem stops
at the latest once its residual is at most 1e-6 times the tolerance of
its solve.
`riemannian_logs` solves the (pair, start) problems of any number of
point pairs in one `_lm` call, starting each pair from the m1 part of one
batched real log (`_orthogonal_log`) and seeded perturbations of it: a
verify job passes it every log it needs (round trips, bound-ordering
pairs and the sampled points of its four displacement profiles), and
`riemannian_log` and `displacement_profile` (`sample_profile`, then
`share_logs` and `profile_report`) are compositions of it.  `share_logs`
offers a profile's shortest converged log to each of its points, which
adopt it where it also reaches the image coset and is shorter than their
own.  Every per-problem operation, the matrix exponential included, acts
on that problem's rows alone, so a pair's result does not depend on the
problems it is solved with.  The module needs numpy alone: the reversal
certificates take their invariant planes from `np.linalg.eig`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .liealg import MEMBERSHIP_TOL, BlockFactor, GroupModel, complexify, matrix_exp, realify

COSET_TOL = 1e-8
CERT_RESIDUAL_TOL = 1e-9
CONSTANT_SPREAD_TOL = 1e-4
GAP_TOL = 1e-3
ABS_ZERO_TOL = 1e-9
CIRCLE_GRID = 256
TRACE_SLACK = 1e-11  # absorbs roundoff in trace relaxations (lower bounds)


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


def haar_unitary(m: int, rng: np.random.Generator) -> np.ndarray:
    Z = (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2)
    Qm, R = np.linalg.qr(Z)
    Qm = Qm * (np.diag(R) / np.abs(np.diag(R)))
    # fold the determinant phase into the first column: Haar on SU(m)
    Qm[:, 0] = Qm[:, 0] / np.linalg.det(Qm)
    return Qm


def haar_orthogonal(k: int, rng: np.random.Generator, special: bool = True) -> np.ndarray:
    Z = rng.normal(size=(k, k))
    Qm, R = np.linalg.qr(Z)
    Qm = Qm * np.sign(np.diag(R))
    if special and np.linalg.det(Qm) < 0:
        Qm[:, 0] = -Qm[:, 0]
    return Qm


def haar_point(model: GroupModel, rng: np.random.Generator) -> CosetPoint:
    if model.complex_size:
        return CosetPoint(model, realify(haar_unitary(model.complex_size, rng)))
    return CosetPoint(model, haar_orthogonal(model.n, rng))


def embed_factor_element(
    model: GroupModel, factor: BlockFactor, rng: np.random.Generator
) -> np.ndarray:
    """A Haar sample of one K-factor, embedded in the ambient group."""
    if factor.kind == "circle":
        theta = rng.uniform(0.0, factor.period)
        return matrix_exp(theta * model.circle_mat)
    if factor.kind == "so":
        out = np.eye(model.n)
        out[np.ix_(factor.cols, factor.cols)] = haar_orthogonal(len(factor.cols), rng)
        return out
    # su block
    Z = np.eye(model.complex_size, dtype=complex)
    Z[np.ix_(factor.cols, factor.cols)] = haar_unitary(len(factor.cols), rng)
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
    lower: float
    upper: float
    k_star: np.ndarray  # feasible embedded K-element achieving the upper value


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


def _su2_pairing(P: np.ndarray) -> np.ndarray:
    """Complex 4-vector w with Re tr(k^H P) = sum_a q_a Re(w_a) for the
    unit-quaternion coordinates q of k in the SU(2) basis above; leading
    axes are a batch."""
    return P.reshape(P.shape[:-2] + (4,)) @ _SU2_BASIS.conj().T


def _su2_procrustes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max of Re tr(k^H P) over SU(2), with maximizer.  The group is
    the unit sphere in the real span of the basis, so the max is the norm
    of the pairing vector.  Leading axes are a batch."""
    t = _su2_pairing(P).real
    norm = np.sqrt(np.sum(t * t, axis=-1))
    zero = norm < 1e-300
    q = t / np.where(zero, 1.0, norm)[..., None]
    q = np.where(zero[..., None], (1.0, 0.0, 0.0, 0.0), q)
    return norm, (q @ _SU2_BASIS).reshape(P.shape)


def _su_procrustes(P: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(feasible max, maximizer) of Re tr(k^H P) over SU(c), c >= 2;
    leading axes are a batch.  Exact for c = 2; for larger blocks a
    det-phase-constrained ascent, run on the whole stack with a per-block
    stop mask, so every block follows the iterates it would follow alone."""
    c = P.shape[-1]
    if c == 2:
        return _su2_procrustes(P)
    U, sig, Vh = np.linalg.svd(P)
    # det constraint: k = U diag(e^{i phi_j}) V^h needs sum(phi) = -arg det(U V^h)
    tau = -np.angle(np.linalg.det(U @ Vh))
    step = (0.5 / (np.max(sig, axis=-1) + 1e-12))[..., None]

    def value(phis):
        return np.sum(sig * np.cos(phis), axis=-1)

    best_val, best_phis = np.full(tau.shape, -np.inf), np.zeros(sig.shape)
    for tau_shift in (tau, tau - 2 * np.pi, tau + 2 * np.pi):
        # init: whole phase on the smallest singular value
        phis = np.zeros(sig.shape)
        phis[..., -1] = tau_shift
        val = value(phis)
        moving = np.ones(tau.shape, dtype=bool)
        for _ in range(200):
            grad = -sig * np.sin(phis)
            grad -= grad.mean(axis=-1, keepdims=True)  # project onto the constraint plane
            new = phis + step * grad
            new[..., -1] = tau_shift - np.sum(new[..., :-1], axis=-1)
            new_val = value(new)
            moving &= ~(new_val <= val + 1e-15)
            if not moving.any():
                break
            phis = np.where(moving[..., None], new, phis)
            val = np.where(moving, new_val, val)
        better = val > best_val
        best_val = np.where(better, val, best_val)
        best_phis = np.where(better[..., None], phis, best_phis)
    D = np.zeros(P.shape, dtype=complex)
    D[..., np.arange(c), np.arange(c)] = np.exp(1j * best_phis)
    return best_val, U @ D @ Vh


def _so_procrustes(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact max of tr(k^T A) over SO(c), with maximizer; leading axes are
    a batch."""
    U, sig, Vt = np.linalg.svd(A)
    d = np.sign(np.linalg.det(U @ Vt))
    sig[..., -1] *= d
    U[..., :, -1] *= d[..., None]  # U diag(1, ..., 1, d)
    return np.sum(sig, axis=-1), U @ Vt


def _circle_phases(model: GroupModel) -> np.ndarray:
    """Diagonal speeds a_j with exp(theta z) = diag(e^{i a_j theta})."""
    return np.diag(complexify(model.circle_mat)).imag


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


def _polish_roots(
    derivs, x: np.ndarray, lo: np.ndarray, hi: np.ndarray, g_lo: np.ndarray, g_hi: np.ndarray
) -> np.ndarray:
    """The zero crossing of a derivative T' in [lo, hi] for every row, where
    T'(lo) = g_lo > 0 > g_hi = T'(hi), by safeguarded Newton from x.
    `derivs(x, rows)` returns (T', T'') at x for the rows `rows`, or (T', None),
    in which case the step is a secant through the row's last two points
    (the opposite bracket end at first).  Each row keeps a bracket with T' > 0
    at its left end and T' < 0 at its right end; a step with T'' >= 0 or one
    that leaves the bracket (a step landing on an end stays) is replaced by
    bisection.  A row stops where T' is exactly 0, keeping its point, or after
    a step of at most _ANGLE_XTOL.  Rows never mix, so each follows the
    iterates it would follow alone."""
    x, a, b = x.copy(), lo.copy(), hi.copy()
    act = np.arange(len(x))
    g, h = derivs(x, act)
    xp, gp = np.where(g > 0, hi, lo), np.where(g > 0, g_hi, g_lo)
    for _ in range(_ANGLE_MAX_ITER):
        xa = x[act]
        a[act] = np.where(g > 0, xa, a[act])
        b[act] = np.where(g < 0, xa, b[act])
        with np.errstate(divide="ignore", invalid="ignore"):
            if h is None:
                h = (g - gp) / (xa - xp)
            newton = xa - g / h
        inside = (h < 0) & (newton >= a[act]) & (newton <= b[act])
        new = np.where(g == 0, xa, np.where(inside, newton, (a[act] + b[act]) / 2))
        x[act] = new
        going = (g != 0) & (np.abs(new - xa) > _ANGLE_XTOL)
        xp, gp, act = xa[going], g[going], act[going]
        if not act.size:
            break
        g, h = derivs(x[act], act)
    return x


def _circle_angles(
    model: GroupModel, P: np.ndarray, factors: tuple[BlockFactor, ...]
) -> np.ndarray:
    """Per row of the pairing stack P, the circle angle maximizing the
    trace with every SU block maximized at that angle: a grid over the
    period for all rows at once, then one `_polish_roots` call for the zero
    crossings of the derivative next to the best grid angles, and per row
    the better of the polished and the grid angle."""
    speeds = _circle_phases(model)
    period = next(f.period for f in factors if f.kind == "circle")
    singles, blocks = _split_columns(model, factors)
    rows = np.arange(len(P))
    diag = P[:, singles, singles]
    fs = speeds[singles]
    # SU(2) blocks work on their pairing vectors: `_su_procrustes` would
    # also assemble a maximizer at every grid angle
    su2_data = []  # (speed, pairing 4-vectors)
    big_blocks = []  # (speed, submatrices) of SU(c >= 3) blocks
    for cols in blocks:
        sub = P[np.ix_(rows, cols, cols)]
        if len(cols) == 2:
            su2_data.append((speeds[cols[0]], _su2_pairing(sub)))
        else:
            big_blocks.append((speeds[cols[0]], sub))

    def trace_at(thetas: np.ndarray) -> np.ndarray:
        # thetas (1 or B, T) -> maximized traces (B, T)
        rot = np.exp(-1j * (thetas[..., None] * fs)) * diag[:, None, :]
        vals = rot.real.sum(axis=-1)
        for a, w in su2_data:
            t = (np.exp(-1j * a * thetas)[..., None] * w[:, None, :]).real
            vals += np.sqrt((t**2).sum(axis=-1))
        for a, sub in big_blocks:
            rot = np.exp(-1j * a * thetas)[..., None, None] * sub[:, None]
            vals += _su_procrustes(rot)[0]
        return vals

    def derivs(x: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        # (T', T'') at angles x (len(r),) of rows r; SU(2) blocks by the
        # derivatives of |Re(e^{-ia x} w)|, SU(c >= 3) blocks by the envelope
        # rule at the ascent's maximizer, which gives no T''
        rot = np.exp(-1j * (x[:, None] * fs)) * diag[r]
        der, curv = (fs * rot.imag).sum(axis=-1), -((fs * fs) * rot.real).sum(axis=-1)
        for a, w in su2_data:
            u = np.exp(-1j * a * x)[:, None] * w[r]
            t, s = u.real, u.imag
            n, ts = np.sqrt((t * t).sum(axis=-1)), (t * s).sum(axis=-1)
            ok = n > 1e-12
            n = np.where(ok, n, 1.0)
            der += np.where(ok, a * ts / n, 0.0)
            ss = (s * s).sum(axis=-1)
            curv += np.where(ok, a * a * ((ss - n * n) / n - ts * ts / n**3), 0.0)
        for a, sub in big_blocks:
            rot = np.exp(-1j * a * x)[:, None, None] * sub[r]
            k = _su_procrustes(rot)[1]
            der += a * (k.conj() * rot).imag.sum(axis=(-2, -1))
            curv = None
        return der, curv

    grid = np.linspace(0.0, period, CIRCLE_GRID, endpoint=False)
    i0 = np.argmax(trace_at(grid[None, :]), axis=1)
    span = period / CIRCLE_GRID
    best = grid[i0]
    lo, hi = best - span, best + span
    g_lo, g_hi = derivs(lo, rows)[0], derivs(hi, rows)[0]
    # the maximizer is a zero crossing of the derivative
    br = np.flatnonzero((g_lo > 0) & (g_hi < 0))
    if br.size:
        best[br] = _polish_roots(
            lambda x, r: derivs(x, br[r]), best[br], lo[br], hi[br], g_lo[br], g_hi[br]
        )
    cand = np.stack([best, grid[i0]], axis=1)
    return cand[rows, np.argmax(trace_at(cand), axis=1)]


def _k_star_batch(
    model: GroupModel,
    U_stack: np.ndarray,
    V: np.ndarray,
    factors: tuple[BlockFactor, ...],
) -> np.ndarray:
    """The feasible maximizer k* of tr(k^T U^T V) over the factor subgroup
    (the `k_star` of `chord_to_coset`) for every U of a (B, n, n) stack; V
    is one matrix or a matching stack.  SO blocks take a batched
    Procrustes, SU(2) blocks the closed-form quaternion pairing, a circle
    the angle of `_circle_angles` with the blocks maximized at it, SU(c >= 3)
    blocks the batched ascent of `_su_procrustes`."""
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
        speeds = _circle_phases(model)
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


def _max_trace_bound(
    model: GroupModel,
    M: np.ndarray,
    factors: tuple[BlockFactor, ...],
    k_star: np.ndarray,
) -> float:
    """An upper bound on the max of tr(k^T M) over the factor subgroup.
    Where the block maximizers are exact (SO blocks, or SU(2) blocks
    without a circle) it is the value at k*; otherwise the relaxation to
    the full unitary group on each block and, with a circle, the full torus
    on the single columns."""
    circle = any(f.kind == "circle" for f in factors)
    singles, blocks = _split_columns(model, factors)
    if not circle and all(len(cols) == 2 for cols in blocks):
        return float(np.sum(k_star * M))
    P = _complex_pairing(M)
    diag = P[singles, singles]
    relax = float(np.sum(np.abs(diag) if circle else diag.real))
    for cols in blocks:
        sig = np.linalg.svd(P[np.ix_(cols, cols)], compute_uv=False)
        relax += float(np.sum(sig))
    return relax


def chord_to_coset(
    model: GroupModel,
    U: np.ndarray,
    V: np.ndarray,
    factors: tuple[BlockFactor, ...],
) -> ChordResult:
    """Certified chord pair for min over k in the factor subgroup of
    ||U k - V||_F (the subgroup acts on the right of U).

    The upper value is always the directly evaluated norm ||U k* - V|| at
    the assembled feasible maximizer, which stays accurate near zero where
    the trace form 2N - 2 tr would cancel catastrophically.  The lower
    value comes from a relaxation trace with a small slack subtracted, so
    roundoff cannot push it above the true chord.
    """
    k_star = _k_star_batch(model, U[None], V, factors)[0]
    upper = float(np.linalg.norm(U @ k_star - V))
    bound = _max_trace_bound(model, U.T @ V, factors, k_star)
    lower = math.sqrt(max(2 * model.n - 2 * bound - TRACE_SLACK, 0.0))
    return ChordResult(lower=min(lower, upper), upper=upper, k_star=k_star)


def chord_k1(model: GroupModel, x: CosetPoint, y: CosetPoint) -> ChordResult:
    return chord_to_coset(model, x.rep, y.rep, model.k1_factors)


def chord_k(model: GroupModel, x: CosetPoint, y: CosetPoint) -> ChordResult:
    """Chord against the full isotropy K = K1 K2 (base-space cosets)."""
    return chord_to_coset(
        model, x.rep, y.rep, model.k1_factors + model.k2_factors
    )


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


_FD_STEP = math.sqrt(np.finfo(float).eps)
_LM_TOL = 1e-15  # step and cost-reduction floors: stop only at roundoff
_LM_LAM0, _LM_LAM_MAX = 1e-3, 1e16
_LM_MAX_ITER = 200
# a problem stops once its residual norm is at most _LM_STOP times the
# tolerance of its solve: below that, steps only polish roundoff
_LM_STOP = 1e-6
# points per residual call: the kernel's temporaries, and so the peak
# memory, grow with the stack, while a so8 verify ran as fast in stacks
# of 128 points as of 256 (2-core x86 VM)
_LM_SLICE = 128


def _fd_jacobian(residuals, X: np.ndarray, F: np.ndarray) -> np.ndarray:
    """scipy's 2-point forward-difference Jacobian (step sqrt(eps) sign0(x)
    max(1, |x|), divided by (x + h) - x) of every problem of a stack: X (p,
    d) coordinates with residuals F (p, r), and `residuals` a map (p, k, d)
    -> (p, k, r) that evaluates the d perturbed points of all problems in
    one batch.  Returns J with shape (p, r, d)."""
    d = X.shape[-1]
    H = _FD_STEP * np.where(X >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(X))
    idx = np.arange(d)
    Xs = np.repeat(X[:, None], d, axis=1)
    Xs[:, idx, idx] = X + H
    Fs = residuals(Xs)  # (p, d, r): row j perturbed in coordinate j
    Fs -= F[:, None]
    Fs /= ((X + H) - X)[..., None]
    return np.swapaxes(Fs, 1, 2)


def _lm(residuals, C0: np.ndarray, tol: float = COSET_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Levenberg-Marquardt from every row of C0 (p, d), all problems
    advanced in lockstep.  `residuals(C, rows)` maps the (len(rows), k, d)
    coordinates of the problems `rows` to their (len(rows), k, r)
    residuals; each step evaluates it on stacks of at most _LM_SLICE
    points.  Each problem keeps its own damping lam against diag J^T J
    (Marquardt scaling, Nielsen's update), takes a step only when it
    lowers the cost, and stops on its own: at a residual norm of at most
    _LM_STOP * tol, at a step or relative cost reduction below _LM_TOL, at
    damping above _LM_LAM_MAX, or after _LM_MAX_ITER steps.  The Jacobian
    is `_fd_jacobian`, taken and reduced to J^T J and J^T F one stack of at
    most _LM_SLICE points at a time, so no array holds the Jacobians of all
    problems.  Every per-problem operation acts on that problem's rows
    alone, so a problem follows the iterates it would follow in a stack of
    one.  Returns (C, F): final coordinates and the residuals there."""
    p, d = C0.shape
    floor = (_LM_STOP * tol) ** 2  # underflows to 0.0 for a tol below ~1e-150

    def sliced(C: np.ndarray, rows: np.ndarray) -> np.ndarray:
        step = max(1, _LM_SLICE // C.shape[1])
        parts = [residuals(C[i : i + step], rows[i : i + step]) for i in range(0, len(rows), step)]
        return np.concatenate(parts)

    jac_step = max(1, _LM_SLICE // d)  # problems per Jacobian stack

    X = C0.astype(float)
    F = sliced(X[:, None], np.arange(p))[:, 0]
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
            J = _fd_jacobian(lambda C: residuals(C, rows), X[rows], F[rows])
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
        Ft = sliced(Xt[:, None], act)[:, 0]
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
    xi: np.ndarray | None
    upper: float
    residual: float
    converged: bool


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
    gets when solved alone."""
    model = xs[0].model
    n, d, factors = model.n, model.dim_m1, model.k1_factors
    U, V = np.array([x.rep for x in xs]), np.array([y.rep for y in ys])
    restarts = max(restarts, 0)
    # smart start: the m1 part of the log of the chord-aligned difference
    W = np.swapaxes(U, 1, 2) @ V @ np.swapaxes(_k_star_batch(model, U, V, factors), 1, 2)
    starts = []
    for c0, seed in zip(model.m1_coords(_orthogonal_log(W)), seeds):
        rng = np.random.default_rng(seed)
        scale = max(float(np.linalg.norm(c0)), 0.5)
        starts.append(c0)
        starts += [c0 + rng.normal(scale=0.35 * scale, size=d) for _ in range(restarts)]
    pair = np.repeat(np.arange(len(U)), 1 + restarts)

    def residuals(C: np.ndarray, rows: np.ndarray) -> np.ndarray:
        P = (U[pair[rows], None] @ matrix_exp(model.from_m1_coords(C))).reshape(-1, n, n)
        T = np.repeat(V[pair[rows]], C.shape[1], axis=0)
        K = _k_star_batch(model, P, T, factors)
        return (P @ K - T).reshape(C.shape[:2] + (-1,))

    X, F = _lm(residuals, np.array(starts), tol)
    X = X.reshape(len(U), 1 + restarts, d)
    R = np.linalg.norm(F, axis=-1).reshape(len(U), 1 + restarts)
    out = []
    for coords, rs in zip(X, R):
        conv = np.flatnonzero(rs < tol)
        if not conv.size:
            out.append(LogResult(xi=None, upper=math.inf, residual=float(rs.min()), converged=False))
            continue
        # among converged starts keep the shortest: the bound can only
        # improve with more restarts
        norms = [float(np.linalg.norm(coords[j])) for j in conv]
        j = conv[int(np.argmin(norms))]
        xi = model.from_m1_coords(coords[j])
        out.append(LogResult(xi=xi, upper=min(norms), residual=float(rs[j]), converged=True))
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


def distance_lower_bound(x: CosetPoint, y: CosetPoint) -> float:
    """sqrt(lambda_min N) 2 asin(c / (2 sqrt N)), with c the certified chord
    lower value and N = model.n: a true lower bound for the Riemannian
    distance between the cosets, never below sqrt(lambda_min) c.

    A minimizing geodesic lifts to x exp(xi) = y k with xi in m1, so the
    distance is at least sqrt(lambda_min) ||xi||_F, and ||xi||_F^2 is at
    least the sum of theta_j^2 over the N principal angles of exp(xi).  The
    chord satisfies c^2 <= ||exp(xi) - 1||_F^2 = sum 4 sin^2(theta_j / 2),
    and theta^2 is convex and increasing in s = 4 sin^2(theta / 2), so
    Jensen's inequality gives sum theta_j^2 >= N (2 asin(c / (2 sqrt N)))^2."""
    model = x.model
    root_n = math.sqrt(model.n)
    chord = chord_k1(model, x, y).lower
    arc = 2 * math.asin(min(1.0, chord / (2 * root_n)))
    return math.sqrt(model.frobenius_lambda_min) * root_n * arc


# --- displacement profiles -----------------------------------------------------


@dataclass(frozen=True)
class DisplacementReport:
    label: str
    n_samples: int
    seed: int
    uppers: tuple[float, ...]
    lowers: tuple[float, ...]
    verdict: str  # constant-within-tol | certified-nonconstant | inconclusive
    rel_spread: float
    gap: float  # max lower - min upper
    restarts: int
    tol_constant: float
    tol_gap: float

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "verdict": self.verdict,
            "rel_spread": self.rel_spread,
            "gap": self.gap,
            "min_upper": min(self.uppers),
            "max_upper": max(self.uppers),
            "max_lower": max(self.lowers),
            "restarts": self.restarts,
            "tol_constant": self.tol_constant,
            "tol_gap": self.tol_gap,
        }


@dataclass(frozen=True)
class ProfileSample:
    """The sampled points of a displacement profile (the identity coset
    plus seeded Haar points) and their images under the isometry."""

    gamma: Isometry
    n_samples: int
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
    points = [base_point(gamma.model)]
    while len(points) < n_samples:
        points.append(haar_point(gamma.model, rng))
    return ProfileSample(
        gamma, n_samples, seed, tuple(points), tuple(gamma.apply(p) for p in points)
    )


def share_logs(
    sample: ProfileSample, logs: list[LogResult], tol: float = COSET_TOL
) -> list[LogResult]:
    """The logs of a sampled profile after sharing its shortest converged
    log xi: every point p where xi also joins p to gamma(p) (coset residual
    below tol, all points in one `_k_star_batch` call) and is shorter than
    p's own log adopts it.  Upper bounds only fall, each adopted one is an
    explicit converged geodesic, and the lower bounds do not change.  For
    a central gamma the problem is the same at every point up to a left
    translation, so restart luck cannot spread the uppers; for a
    non-central one the residual test fails away from xi's own point."""
    converged = [log for log in logs if log.converged]
    if not converged:
        return logs
    best = min(converged, key=lambda log: log.upper)
    model = sample.gamma.model
    U = np.array([p.rep for p in sample.points]) @ matrix_exp(best.xi)
    V = np.array([q.rep for q in sample.images])
    K = _k_star_batch(model, U, V, model.k1_factors)
    R = np.linalg.norm((U @ K - V).reshape(len(U), -1), axis=1)
    return [
        LogResult(best.xi, best.upper, float(r), True)
        if r < tol and best.upper < log.upper
        else log
        for log, r in zip(logs, R)
    ]


def profile_report(
    sample: ProfileSample,
    logs: list[LogResult],
    restarts: int,
    tol_constant: float = CONSTANT_SPREAD_TOL,
    tol_gap: float = GAP_TOL,
) -> DisplacementReport:
    """The three-way verdict of a sampled profile, from the logs of its
    (point, image) pairs (upper bounds) and `distance_lower_bound` (lower
    bounds)."""
    lowers = [distance_lower_bound(p, q) for p, q in zip(sample.points, sample.images)]
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
    return DisplacementReport(
        label=sample.gamma.label,
        n_samples=sample.n_samples,
        seed=sample.seed,
        uppers=tuple(uppers),
        lowers=tuple(lowers),
        verdict=verdict,
        rel_spread=rel,
        gap=gap,
        restarts=restarts,
        tol_constant=tol_constant,
        tol_gap=tol_gap,
    )


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
    logs of `riemannian_logs` after `share_logs`, then `profile_report`."""
    sample = sample_profile(gamma, n_samples, seed)
    logs = riemannian_logs(list(sample.points), list(sample.images), sample.log_seeds, restarts)
    return profile_report(sample, share_logs(sample, logs), restarts, tol_constant, tol_gap)


# --- fixed fibers ---------------------------------------------------------------


def fixed_fiber(
    gamma: Isometry,
    restarts: int = 8,
    seed: int = 0,
    tol: float = COSET_TOL,
) -> tuple[CosetPoint | None, float]:
    """Search for a base coset xK with (left of gamma) . xK = xK, by
    multistart minimization over x in G of the K-coset residual.  Returns
    (witness, best residual); the witness is None when no start converges,
    which is reported honestly (an equal-rank model should always succeed,
    a rank-deficient one can genuinely fail)."""
    model = gamma.model
    gmat = gamma.left if gamma.left is not None else np.eye(model.n)
    dg = model.g.dim
    k_factors = model.k1_factors + model.k2_factors
    rng = np.random.default_rng(seed)

    def residuals(C: np.ndarray, x0: np.ndarray) -> np.ndarray:
        X = (x0 @ matrix_exp(model.g.from_coords(C))).reshape(-1, model.n, model.n)
        Y = gmat @ X
        K = _k_star_batch(model, Y, X, k_factors)
        return (Y @ K - X).reshape(C.shape[:2] + (-1,))

    best_val, best_X = np.inf, None
    for trial in range(max(1, restarts)):
        x0 = np.eye(model.n) if trial == 0 else haar_point(model, rng).rep
        c0 = np.zeros(dg) if trial == 0 else rng.normal(scale=0.3, size=dg)
        C, F = _lm(lambda C, rows, x0=x0: residuals(C, x0), c0[None], tol)
        r = float(np.linalg.norm(F[0]))
        if r < best_val:
            best_val = r
            best_X = x0 @ matrix_exp(model.g.from_coords(C[0]))
        if best_val < tol:
            break
    if best_val < tol:
        return CosetPoint(model, best_X), best_val
    return None, best_val


# --- fixed-point certificates ----------------------------------------------------


@dataclass(frozen=True)
class PlaneCertificate:
    basis: np.ndarray  # (n, 2s+1) orthonormal columns
    residual: float
    rotation_angles: tuple[float, ...]

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def fixed_point_certificate(A: np.ndarray, s: int, t: int) -> PlaneCertificate:
    """Invariant (2s+1)-plane of an orthogonal matrix with determinant -1
    on R^{2s+2+2t}: the +1 line that a negative determinant forces, plus s
    two-dimensional invariant pieces (rotation planes by ascending angle,
    then paired fixed lines, then paired -1 lines).  The pieces come from
    the eigenpairs (lambda, x) of A, which `np.linalg.eig` computes with a
    small residual A x - lambda x even where eigenvalues cluster.  An
    eigenvalue with imaginary part above _HALF_TURN_TOL gives the rotation
    plane span(Re x, Im x); every other eigenvalue gives +1 or -1 lines,
    by the sign of its real part, from Re x (and Im x for a non-real one).
    Each piece is taken orthogonal to the pieces before it, planes first,
    so a plane whose angle repeats or nearly repeats an earlier one is
    still found."""
    n = 2 * s + 2 + 2 * t
    if A.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix for (s, t) = ({s}, {t})")
    if np.linalg.norm(A @ A.T - np.eye(n)) > 1e-9:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(A) > 0:
        raise ValueError("determinant +1: no invariant odd plane is implied")

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
