"""Geometry of M~ = G/K1 with the normal metric (-Killing form on m1).

Points are group representatives of cosets; all coset comparisons go
through chord values: chord(x, y) = min over k in K1 of the ambient
Frobenius norm ||x k - y||.  Every chord evaluation returns a certified
pair (lower, upper): the upper value comes from an explicit feasible k,
the lower value from a group relaxation (full unitary / diagonal torus),
so distance certificates built on the lower value are sound even when a
block maximizer is only locally optimized.  For the shipped models the
K1 factors are an SU(2) block, an SO block, or a circle, and both sides
agree to grid-polish accuracy.

Displacement verdicts compare per-point upper bounds (from a multistart
Riemannian log) against per-point lower bounds (sqrt(lambda_min) times the
chord, where lambda_min is the smallest eigenvalue of the normal metric
against the ambient Frobenius form).  A profile is reported
constant-within-tol, certified-nonconstant (some point's upper bound lies
below another point's lower bound), or inconclusive.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.optimize

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


def _complex_pairing(M: np.ndarray, m: int) -> np.ndarray:
    """P with Re tr(k^H P) = tr(realify(k)^T M) for complex k."""
    M11, M12 = M[:m, :m], M[:m, m:]
    M21, M22 = M[m:, :m], M[m:, m:]
    return (M11 + M22) + 1j * (M21 - M12)


_SU2_BASIS = (
    np.eye(2, dtype=complex),
    np.diag([1j, -1j]),
    np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex),
    np.array([[0.0, 1j], [1j, 0.0]], dtype=complex),
)


def _su2_pairing(P: np.ndarray) -> np.ndarray:
    """Complex 4-vector w with Re tr(k^H P) = sum_a q_a Re(w_a) for the
    unit-quaternion coordinates q of k in the SU(2) basis above."""
    return np.array([np.trace(b.conj().T @ P) for b in _SU2_BASIS])


def _su2_procrustes(P: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact max of Re tr(k^H P) over SU(2), with maximizer.  The group is
    the unit sphere in the real span of the basis, so the max is the norm
    of the pairing vector."""
    t = _su2_pairing(P).real
    norm = float(np.linalg.norm(t))
    if norm < 1e-300:
        return 0.0, np.asarray(_SU2_BASIS[0])
    q = t / norm
    k = sum(qi * bi for qi, bi in zip(q, _SU2_BASIS))
    return norm, k


def _su_procrustes(P: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(feasible max, unitary-relaxation max, feasible maximizer) of
    Re tr(k^H P) over SU(c).  Exact for c <= 2; for larger blocks the
    feasible value comes from a det-phase-constrained ascent and the
    relaxation from the full unitary polar bound."""
    c = P.shape[0]
    if c == 1:
        return float(P[0, 0].real), float(P[0, 0].real), np.eye(1, dtype=complex)
    U, sig, Vh = np.linalg.svd(P)
    relaxed = float(np.sum(sig))
    if c == 2:
        val, k = _su2_procrustes(P)
        return val, relaxed, k
    # det constraint: k = U diag(e^{i phi_j}) V^h needs sum(phi) = -arg det(U V^h)
    tau = -np.angle(np.linalg.det(U @ Vh))

    def value(phis):
        return float(np.sum(sig * np.cos(phis)))

    best_val, best_phis = -np.inf, None
    for tau_shift in (tau, tau - 2 * np.pi, tau + 2 * np.pi):
        # init: whole phase on the smallest singular value
        phis = np.zeros(c)
        phis[-1] = tau_shift
        for _ in range(200):
            grad = -sig * np.sin(phis)
            grad -= grad.mean()  # project onto the constraint plane
            step = 0.5 / (np.max(sig) + 1e-12)
            new = phis + step * grad
            new[-1] = tau_shift - np.sum(new[:-1])
            if value(new) <= value(phis) + 1e-15:
                break
            phis = new
        if value(phis) > best_val:
            best_val, best_phis = value(phis), phis
    k = U @ np.diag(np.exp(1j * best_phis)) @ Vh
    return best_val, relaxed, k


def _so_procrustes(A: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact max of tr(k^T A) over SO(c), with maximizer."""
    U, sig, Vt = np.linalg.svd(A)
    d = np.sign(np.linalg.det(U @ Vt))
    vals = sig.copy()
    vals[-1] *= d
    D = np.eye(A.shape[0])
    D[-1, -1] = d
    return float(np.sum(vals)), U @ D @ Vt


def _circle_phases(model: GroupModel) -> np.ndarray:
    """Diagonal speeds a_j with exp(theta z) = diag(e^{i a_j theta})."""
    return np.diag(complexify(model.circle_mat)).imag


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
    N = model.n
    M = U.T @ V  # maximize tr(k^T M)

    def lower_from(trace_val: float) -> float:
        return math.sqrt(max(2 * N - 2 * trace_val - TRACE_SLACK, 0.0))

    su_factors = [f for f in factors if f.kind == "su"]
    so_factors = [f for f in factors if f.kind == "so"]
    circle = any(f.kind == "circle" for f in factors)

    if so_factors and not su_factors and not circle:
        rows_in = set()
        total, k_star = 0.0, np.eye(N)
        for f in so_factors:
            rows_in |= set(f.cols)
            ix = np.ix_(f.cols, f.cols)
            val, k = _so_procrustes(M[ix])
            k_star[ix] = k
            total += val
        total += sum(M[i, i] for i in range(N) if i not in rows_in)
        upper = float(np.linalg.norm(U @ k_star - V))
        return ChordResult(lower=min(lower_from(total), upper), upper=upper, k_star=k_star)

    # unitary models
    m = model.complex_size
    P = _complex_pairing(M, m)
    block_cols = set()
    for f in su_factors:
        block_cols |= set(f.cols)
    free_cols = [j for j in range(m) if j not in block_cols]

    if not circle:
        total_feas, total_relax = 0.0, 0.0
        all_exact = True
        Kc = np.eye(m, dtype=complex)
        for f in su_factors:
            sub = P[np.ix_(f.cols, f.cols)]
            feas, relax, k = _su_procrustes(sub)
            total_feas += feas
            total_relax += relax
            if len(f.cols) > 2:
                all_exact = False  # ascent block: only the relaxation certifies
            Kc[np.ix_(f.cols, f.cols)] = k  # the blocks are disjoint
        ident = float(sum(P[j, j].real for j in free_cols))
        total_feas += ident
        total_relax += ident
        k_star = realify(Kc)
        upper = float(np.linalg.norm(U @ k_star - V))
        lower = lower_from(total_feas if all_exact else total_relax)
        return ChordResult(lower=min(lower, upper), upper=upper, k_star=k_star)

    # circle present: vectorized 1-parameter grid over theta, then a scalar
    # polish; block maxima re-solved per theta
    speeds = _circle_phases(model)
    period = next(f.period for f in factors if f.kind == "circle")
    diag = np.array([P[j, j] for j in free_cols])
    fs = np.array([speeds[j] for j in free_cols])

    su2_data = []  # (speed, pairing 4-vector) for exact SU(2) blocks
    big_blocks = []  # (speed, submatrix) for blocks solved by ascent
    for f in su_factors:
        a = float(speeds[f.cols[0]])
        sub = P[np.ix_(f.cols, f.cols)]
        if len(f.cols) == 2:
            su2_data.append((a, _su2_pairing(sub)))
        elif len(f.cols) == 1:
            su2_data.append((a, None))
            diag = np.append(diag, sub[0, 0])
            fs = np.append(fs, a)
        else:
            big_blocks.append((a, sub))

    def grid_values(thetas: np.ndarray) -> np.ndarray:
        vals = (np.exp(-1j * np.outer(thetas, fs)) * diag).real.sum(axis=1)
        for a, w in su2_data:
            if w is None:
                continue
            t = (np.exp(-1j * a * thetas)[:, None] * w[None, :]).real
            vals += np.sqrt((t**2).sum(axis=1))
        for a, sub in big_blocks:
            vals += np.array(
                [_su_procrustes(np.exp(-1j * a * th) * sub)[0] for th in thetas]
            )
        return vals

    def trace_prime(theta: float) -> float:
        # d/d theta of the maximized trace; block terms by the envelope rule
        ph = np.exp(-1j * fs * theta) * diag
        der = float((fs * ph.imag).sum())
        for a, w in su2_data:
            if w is None:
                continue
            tvec = np.exp(-1j * a * theta) * w
            n = float(np.linalg.norm(tvec.real))
            if n > 1e-12:
                der += a * float(tvec.real @ tvec.imag) / n
        for a, sub in big_blocks:
            _, _, k = _su_procrustes(np.exp(-1j * a * theta) * sub)
            c = np.trace(k.conj().T @ (np.exp(-1j * a * theta) * sub))
            der += a * float(c.imag)
        return der

    thetas = np.linspace(0.0, period, CIRCLE_GRID, endpoint=False)
    vals = grid_values(thetas)
    i0 = int(np.argmax(vals))
    span = period / CIRCLE_GRID
    lo, hi = thetas[i0] - span, thetas[i0] + span
    theta_best = float(thetas[i0])
    try:
        # the maximizer is a zero crossing of the derivative
        if trace_prime(lo) > 0 > trace_prime(hi):
            theta_best = float(
                scipy.optimize.brentq(trace_prime, lo, hi, xtol=1e-14)
            )
    except ValueError:
        pass
    cand = np.array([theta_best, thetas[i0]])
    theta_best = float(cand[np.argmax(grid_values(cand))])
    # assemble the feasible maximizer at theta_best
    Kc = np.diag(np.exp(1j * speeds * theta_best))
    for f in su_factors:
        a = speeds[f.cols[0]]
        ix = np.ix_(f.cols, f.cols)
        _, _, k = _su_procrustes(np.exp(-1j * a * theta_best) * P[ix])
        Kc[ix] = Kc[ix] @ k
    k_star = realify(Kc)
    upper = float(np.linalg.norm(U @ k_star - V))
    # relaxation: full torus on free columns, full unitary group on blocks
    relax = float(np.sum(np.abs(diag)))
    for f in su_factors:
        if len(f.cols) == 1:
            continue  # already counted through the torus term
        _, r, _ = _su_procrustes(P[np.ix_(f.cols, f.cols)])
        relax += r
    return ChordResult(
        lower=min(lower_from(relax), upper), upper=upper, k_star=k_star
    )


def chord_k1(model: GroupModel, x: CosetPoint, y: CosetPoint) -> ChordResult:
    return chord_to_coset(model, x.rep, y.rep, model.k1_factors)


def chord_k(model: GroupModel, x: CosetPoint, y: CosetPoint) -> ChordResult:
    """Chord against the full isotropy K = K1 K2 (base-space cosets)."""
    return chord_to_coset(
        model, x.rep, y.rep, model.k1_factors + model.k2_factors
    )


def coset_equal(model: GroupModel, x: CosetPoint, y: CosetPoint, tol=COSET_TOL) -> bool:
    return chord_k1(model, x, y).upper < tol


# --- metric constants ----------------------------------------------------------

_LAMBDA_CACHE: dict[str, float] = {}


def metric_vs_frobenius_min(model: GroupModel) -> float:
    """Smallest eigenvalue of the normal metric on m1 against the ambient
    Frobenius form: -kappa(xi, xi) >= lambda_min ||xi||_F^2 on m1."""
    key = model.name
    if key not in _LAMBDA_CACHE:
        E = model.m1_basis  # -kappa-orthonormal
        d = len(E)
        F = np.empty((d, d))
        for i in range(d):
            for j in range(i, d):
                F[i, j] = F[j, i] = float(np.sum(E[i] * E[j]))
        lam = 1.0 / float(np.linalg.eigvalsh(F)[-1])
        _LAMBDA_CACHE[key] = lam
    return _LAMBDA_CACHE[key]


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

    def residual_vec(c: np.ndarray) -> np.ndarray:
        P = U @ matrix_exp(model.from_m1_coords(c))
        ch = chord_to_coset(model, P, V, model.k1_factors)
        return (P @ ch.k_star - V).ravel()

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
        res = scipy.optimize.least_squares(
            residual_vec,
            c_init,
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
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
    lam = metric_vs_frobenius_min(model)
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

    def residual_vec(c: np.ndarray, x0: np.ndarray) -> np.ndarray:
        X = x0 @ matrix_exp(model.g.from_coords(c))
        Y = gmat @ X
        ch = chord_to_coset(model, Y, X, k_factors)
        return (Y @ ch.k_star - X).ravel()

    best_val, best_X = np.inf, None
    for trial in range(max(1, restarts)):
        x0 = np.eye(model.n) if trial == 0 else haar_point(model, rng).rep
        c0 = np.zeros(dg) if trial == 0 else rng.normal(scale=0.3, size=dg)
        res = scipy.optimize.least_squares(
            lambda c: residual_vec(c, x0),
            c0,
            method="lm",
            xtol=1e-15,
            ftol=1e-15,
            gtol=1e-15,
        )
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
