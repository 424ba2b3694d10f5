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
Riemannian log) against per-point lower bounds (sqrt(lambda_min) times the
chord, where lambda_min is the smallest eigenvalue of the normal metric
against the ambient Frobenius form).  A profile is reported
constant-within-tol, certified-nonconstant (some point's upper bound lies
below another point's lower bound), or inconclusive.

The Riemannian log and the fixed-fiber search are Levenberg-Marquardt
solves whose cost is the finite-difference Jacobian: d + 1 residuals per
Jacobian, each needing the chord maximizer k*.  `_k_star_batch` computes
k* for a whole stack of points in one numpy pass (batched SO Procrustes;
`_su_procrustes` for SU blocks, closed form for SU(2) and the ascent on
the whole stack for larger blocks; one theta grid for every row, with
the SU blocks maximized at every grid angle in one call), and `_lm` feeds
scipy's own 2-point rule through it as one batch, with the residual alone
as a batch of one.  The iterates, and so the results, are those of the
per-point solver up to roundoff.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy  # bare: .linalg/.optimize load on first use, catalog runs skip them

from .liealg import BlockFactor, GroupModel, complexify, matrix_exp, realify

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
        if alg.membership_residual(self.xi) > 1e-8:
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


def _circle_angles(
    model: GroupModel, P: np.ndarray, factors: tuple[BlockFactor, ...]
) -> np.ndarray:
    """Per row of the pairing stack P, the circle angle maximizing the
    trace with every SU block maximized at that angle: a grid over the
    period for all rows at once, then a brentq polish of each row's zero
    crossing of the derivative."""
    speeds = _circle_phases(model)
    period = next(f.period for f in factors if f.kind == "circle")
    singles, blocks = _split_columns(model, factors)
    rows = np.arange(len(P))
    diag = P[:, singles, singles]
    fs = speeds[singles]
    # SU(2) blocks keep their own pairing-vector terms in trace_at and
    # slope: `_su_procrustes` would also assemble every maximizer, and
    # numpy calls in slope cost more than plain Python numbers; routed
    # through it, a 9-row su3 kernel under a circle ran 3-5x slower (2-core
    # x86 VM)
    su2_data = []  # (speed, pairing 4-vectors)
    big_blocks = []  # (speed, submatrices) of SU(c >= 3) blocks
    for cols in blocks:
        sub = P[np.ix_(rows, cols, cols)]
        if len(cols) == 2:
            su2_data.append((float(speeds[cols[0]]), _su2_pairing(sub)))
        else:
            big_blocks.append((float(speeds[cols[0]]), sub))

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

    # the derivative is polished one row at a time: plain Python numbers
    # cost less than numpy calls on a handful of entries
    fs_list, diag_rows = fs.tolist(), diag.tolist()
    su2_rows = [(a, w.tolist()) for a, w in su2_data]

    def phase(x: float) -> complex:  # exp(-ix)
        return complex(math.cos(x), -math.sin(x))

    def slope(theta: float, r: int) -> float:
        # d/d theta of the maximized trace; block terms by the envelope rule
        der = sum(f * (phase(f * theta) * d).imag for f, d in zip(fs_list, diag_rows[r]))
        for a, w in su2_rows:
            ph = phase(a * theta)
            tvec = [ph * x for x in w[r]]
            n = math.sqrt(sum(x.real * x.real for x in tvec))
            if n > 1e-12:
                der += a * sum(x.real * x.imag for x in tvec) / n
        for a, sub in big_blocks:
            rot = np.exp(-1j * a * theta) * sub[r]
            _, k = _su_procrustes(rot)
            der += a * float(np.trace(k.conj().T @ rot).imag)
        return der

    grid = np.linspace(0.0, period, CIRCLE_GRID, endpoint=False)
    i0 = np.argmax(trace_at(grid[None, :]), axis=1)
    span = period / CIRCLE_GRID
    best = grid[i0]
    for r, theta in enumerate(best.tolist()):
        lo, hi = theta - span, theta + span
        try:
            # the maximizer is a zero crossing of the derivative
            if slope(lo, r) > 0 > slope(hi, r):
                best[r] = scipy.optimize.brentq(slope, lo, hi, args=(r,), xtol=1e-14)
        except ValueError:
            pass
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


def _fd_jacobian(residuals, x: np.ndarray) -> np.ndarray:
    """scipy's 2-point forward-difference Jacobian of x -> residuals(x[None])[0]
    (step sqrt(eps) sign0(x) max(1, |x|), divided by (x + h) - x),
    evaluated as one batch of d + 1 points, row 0 the unperturbed point."""
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    idx = np.arange(len(x))
    X = np.repeat(x[None], len(x) + 1, axis=0)
    X[idx + 1, idx] = x + h
    F = residuals(X)
    return ((F[1:] - F[0]) / ((x + h) - x)[:, None]).T


def _lm(residuals, c0: np.ndarray) -> scipy.optimize.OptimizeResult:
    """Levenberg-Marquardt from c0 on a batched residual map (B, d) ->
    (B, r), with the Jacobian of `_fd_jacobian`.  The residual alone is
    the same map on a batch of one, so both come from identical
    arithmetic and the iterates are those of scipy's own 2-point rule."""
    return scipy.optimize.least_squares(
        lambda x: residuals(x[None])[0],
        c0,
        jac=lambda x: _fd_jacobian(residuals, x),
        method="lm",
        xtol=1e-15,
        ftol=1e-15,
        gtol=1e-15,
    )


@dataclass(frozen=True)
class LogResult:
    xi: np.ndarray | None
    upper: float
    residual: float
    converged: bool


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
    model = x.model
    U, V = x.rep, y.rep
    d = model.dim_m1

    def residuals(C: np.ndarray) -> np.ndarray:
        P = U @ matrix_exp(model.from_m1_coords(C))
        K = _k_star_batch(model, P, V, model.k1_factors)
        return (P @ K - V).reshape(len(C), -1)

    # smart start: project the ambient log of the chord-aligned difference
    ch = chord_to_coset(model, U, V, model.k1_factors)
    W = U.T @ V @ ch.k_star.T
    try:
        L = np.real(scipy.linalg.logm(W))
        c0 = model.m1_coords(model.g.project(L))
    except Exception:
        c0 = np.zeros(d)

    rng = np.random.default_rng(seed)
    starts = [c0]
    scale = max(float(np.linalg.norm(c0)), 0.5)
    for _ in range(max(restarts, 0)):
        starts.append(c0 + rng.normal(scale=0.35 * scale, size=d))

    converged: list[tuple[float, float, np.ndarray]] = []  # (norm, resid, c)
    best_r, best_c = np.inf, None
    for c_init in starts:
        res = _lm(residuals, c_init)
        r = float(np.linalg.norm(res.fun))
        if r < best_r:
            best_r, best_c = r, res.x
        if r < tol:
            converged.append((float(np.linalg.norm(res.x)), r, res.x))
    if converged:
        # among converged candidates keep the shortest: the bound can only
        # improve with more restarts
        norm, resid, c = min(converged, key=lambda t: t[0])
        return LogResult(
            xi=model.from_m1_coords(c),
            upper=norm,
            residual=resid,
            converged=True,
        )
    return LogResult(xi=None, upper=math.inf, residual=best_r, converged=False)


def distance_lower_bound(x: CosetPoint, y: CosetPoint) -> float:
    """sqrt(lambda_min) times the certified chord lower value: a true lower
    bound for the Riemannian distance between the cosets."""
    model = x.model
    lam = model.frobenius_lambda_min
    return math.sqrt(lam) * chord_k1(model, x, y).lower


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


def displacement_profile(
    gamma: Isometry,
    n_samples: int = 200,
    seed: int = 42,
    restarts: int = 4,
    tol_constant: float = CONSTANT_SPREAD_TOL,
    tol_gap: float = GAP_TOL,
) -> DisplacementReport:
    """Per-point displacement bounds of the isometry over a seeded sample
    (the identity coset plus Haar points), with the three-way verdict."""
    model = gamma.model
    rng = np.random.default_rng(seed)
    points = [base_point(model)]
    while len(points) < n_samples:
        points.append(haar_point(model, rng))
    uppers, lowers = [], []
    for i, p in enumerate(points):
        q = gamma.apply(p)
        lowers.append(distance_lower_bound(p, q))
        log = riemannian_log(p, q, restarts=restarts, seed=seed + 1000 + i)
        uppers.append(log.upper)
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
        label=gamma.label,
        n_samples=n_samples,
        seed=seed,
        uppers=tuple(uppers),
        lowers=tuple(lowers),
        verdict=verdict,
        rel_spread=rel,
        gap=gap,
        restarts=restarts,
        tol_constant=tol_constant,
        tol_gap=tol_gap,
    )


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
        X = x0 @ matrix_exp(model.g.from_coords(C))
        Y = gmat @ X
        K = _k_star_batch(model, Y, X, k_factors)
        return (Y @ K - X).reshape(len(C), -1)

    best_val, best_X = np.inf, None
    for trial in range(max(1, restarts)):
        x0 = np.eye(model.n) if trial == 0 else haar_point(model, rng).rep
        c0 = np.zeros(dg) if trial == 0 else rng.normal(scale=0.3, size=dg)
        res = _lm(lambda C, x0=x0: residuals(C, x0), c0)
        r = float(np.linalg.norm(res.fun))
        if r < best_val:
            best_val = r
            best_X = x0 @ matrix_exp(model.g.from_coords(res.x))
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
    on R^{2s+2+2t}, assembled from the real Schur form: the +1 line that a
    negative determinant forces, plus s two-dimensional invariant pieces
    (rotation planes by ascending angle, then paired fixed lines)."""
    n = 2 * s + 2 + 2 * t
    if A.shape != (n, n):
        raise ValueError(f"expected a {n} x {n} matrix for (s, t) = ({s}, {t})")
    if np.linalg.norm(A @ A.T - np.eye(n)) > 1e-9:
        raise ValueError("matrix is not orthogonal")
    if np.linalg.det(A) > 0:
        raise ValueError("determinant +1: no invariant odd plane is implied")

    T, Q = scipy.linalg.schur(A, output="real")
    plus_lines: list[np.ndarray] = []
    minus_lines: list[np.ndarray] = []
    planes: list[tuple[float, np.ndarray]] = []
    i = 0
    while i < n:
        if i + 1 < n and abs(T[i + 1, i]) > 1e-10:
            block = T[i : i + 2, i : i + 2]
            theta = math.atan2(block[1, 0], block[0, 0])
            pair = Q[:, i : i + 2]
            if abs(theta) < 1e-8:
                plus_lines += [pair[:, 0], pair[:, 1]]
            elif abs(abs(theta) - math.pi) < 1e-8:
                minus_lines += [pair[:, 0], pair[:, 1]]
            else:
                planes.append((abs(theta), pair))
            i += 2
        else:
            v = Q[:, i]
            if T[i, i] > 0:
                plus_lines.append(v)
            else:
                minus_lines.append(v)
            i += 1

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
    # orthonormal by construction (Schur columns); verify invariance
    inner = basis.T @ A @ basis
    residual = float(np.linalg.norm(A @ basis - basis @ inner))
    if residual > CERT_RESIDUAL_TOL:
        raise AssertionError(f"certificate residual {residual:.2e} too large")
    return PlaneCertificate(
        basis=basis,
        residual=residual,
        rotation_angles=tuple(th for th, _ in planes),
    )
