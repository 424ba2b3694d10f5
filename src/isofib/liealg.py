"""Concrete matrix models for the unitary and orthogonal catalog cases.

Conventions.  Complex algebras are realified up front: an m x m complex
matrix Z = A + iB becomes the 2m x 2m real matrix [[A, -B], [B, A]], so a
complex column j corresponds to real columns j and m + j, and realified
unitaries are orthogonal.  All bases, Killing forms and decompositions live
in this single real backend.

The Killing form is computed as the trace form of the adjoint action on the
model's own basis (structure constants, one bracket stack per basis
element), never from a closed formula; the closed trace forms (2n tr(XY)
for su(n), (n-2) tr(XY) for so(n)) appear only in tests as independent
oracles.

A GroupModel, built from a record's `dynkin.ModelSpec`, packages
g = k1 + m1 with m1 = k1-perp relative to the Killing form, m = k-perp,
the finite center of G, and block descriptors of K1 and K2 that
downstream geometry uses for group sampling and coset projections.
The build works on coordinate rows in g's basis, where the metric inner
product of rows C1 and C2 is C1 @ (-kappa) @ C2.T: complements are SVD
null spaces, made orthonormal by Gram-Schmidt on the rows.  All structural
invariants (bracket closure, orthogonality, definiteness, the centralizer
identity, and the zero-fixed-space property of ad(k) on m) are validated
at build time, each by one stacked bracket and one product.
`build_model` builds and validates one model per record per process and
hands the same object to every caller, so every array a model holds, those
of its algebras and its cached properties included, is read-only: writing
into one raises ValueError.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .dynkin import FibrationRecord

STRUCTURAL_TOL = 1e-10
MEMBERSHIP_TOL = 1e-8


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, made read-only in place: models are shared (`build_model`)."""
    a.setflags(write=False)
    return a


def realify(Z: np.ndarray) -> np.ndarray:
    """Complex m x m -> real 2m x 2m, [[A, -B], [B, A]] for Z = A + iB;
    leading axes are a batch."""
    A, B = Z.real, Z.imag
    top = np.concatenate([A, -B], axis=-1)
    bot = np.concatenate([B, A], axis=-1)
    return np.concatenate([top, bot], axis=-2)


def complexify(R: np.ndarray) -> np.ndarray:
    """Inverse of realify for matrices in its image."""
    m = R.shape[0] // 2
    A = R[:m, :m]
    B = R[m:, :m]
    return A + 1j * B


@dataclass(frozen=True)
class MatrixAlgebra:
    """A real matrix Lie algebra given by an explicit basis."""

    name: str
    n: int
    basis: np.ndarray  # shape (dim, n, n)
    _pinv: np.ndarray = field(repr=False, compare=False, default=None)

    def __post_init__(self):
        flat = self.basis.reshape(self.dim, -1).T  # (n*n, dim)
        if np.linalg.matrix_rank(flat, tol=1e-8) != self.dim:
            raise ValueError(f"{self.name}: basis not linearly independent")
        _read_only(self.basis)
        object.__setattr__(self, "_pinv", _read_only(np.linalg.pinv(flat)))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def killing_gram(self) -> np.ndarray:
        """The basis Gram matrix of the Killing form (`killing_matrix`),
        computed once per algebra."""
        return _read_only(killing_matrix(self))

    @cached_property
    def frobenius_onb(self) -> np.ndarray:
        """Frobenius-orthonormal rows (dim, n * n) spanning the basis."""
        return _read_only(np.linalg.qr(self.basis.reshape(self.dim, -1).T)[0].T)

    def coords(self, X: np.ndarray) -> np.ndarray:
        """The coordinates of X on the basis; leading axes of X are a batch."""
        return X.reshape(X.shape[:-2] + (-1,)) @ self._pinv.T

    def from_coords(self, c: np.ndarray) -> np.ndarray:
        """The matrix with coordinates c; leading axes of c are a batch."""
        return np.einsum("...i,ijk->...jk", c, self.basis)

    def project(self, X: np.ndarray) -> np.ndarray:
        return self.from_coords(self.coords(X))

    def membership_residual(self, X: np.ndarray) -> float | np.ndarray:
        """The Frobenius distance of X from the algebra; leading axes of X
        are a batch."""
        return np.linalg.norm(X - self.project(X), axis=(-2, -1))


def bracket(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return X @ Y - Y @ X


def su_basis_complex(m: int) -> list[np.ndarray]:
    """Antisymmetric real pairs, symmetric imaginary pairs, traceless
    imaginary diagonals: the standard m^2 - 1 generators of su(m)."""
    out = []
    for i in range(m):
        for j in range(i + 1, m):
            E = np.zeros((m, m), dtype=complex)
            E[i, j], E[j, i] = 1.0, -1.0
            out.append(E)
            S = np.zeros((m, m), dtype=complex)
            S[i, j] = S[j, i] = 1j
            out.append(S)
    for k in range(m - 1):
        D = np.zeros((m, m), dtype=complex)
        D[k, k], D[k + 1, k + 1] = 1j, -1j
        out.append(D)
    return out


def so_basis(n: int, rows: tuple[int, ...] | None = None) -> list[np.ndarray]:
    """Elementary rotations e_i e_j^T - e_j e_i^T, optionally restricted to a
    block of rows."""
    idx = list(rows) if rows is not None else list(range(n))
    out = []
    for a in range(len(idx)):
        for b in range(a + 1, len(idx)):
            L = np.zeros((n, n))
            L[idx[a], idx[b]], L[idx[b], idx[a]] = 1.0, -1.0
            out.append(L)
    return out


@lru_cache(maxsize=None)
def algebra_su(m: int) -> MatrixAlgebra:
    basis = np.array([realify(Z) for Z in su_basis_complex(m)])
    return MatrixAlgebra(name=f"su({m})r", n=2 * m, basis=basis)


@lru_cache(maxsize=None)
def algebra_so(n: int) -> MatrixAlgebra:
    return MatrixAlgebra(name=f"so({n})", n=n, basis=np.array(so_basis(n)))


def su_block_basis(m: int, cols: tuple[int, ...]) -> list[np.ndarray]:
    """su(|cols|) embedded at the given complex columns of su(m), realified."""
    k = len(cols)
    out = []
    for Zk in su_basis_complex(k):
        Z = np.zeros((m, m), dtype=complex)
        for a in range(k):
            for b in range(k):
                Z[cols[a], cols[b]] = Zk[a, b]
        out.append(realify(Z))
    return out


def circle_generator(speeds: tuple[int, ...]) -> np.ndarray:
    """i diag(a_1, ..., a_m) for the integer speeds a_j, realified."""
    return realify(1j * np.diag([float(a) for a in speeds]))


# --- Killing form -----------------------------------------------------------


def structure_constants(a: MatrixAlgebra) -> np.ndarray:
    """The (dim, dim, dim) tensor c with [B_i, B_j] = sum_k c[i, j, k] B_k,
    one bracket stack per basis element."""
    c = np.empty((a.dim,) * 3)
    for i, B in enumerate(a.basis):
        c[i] = a.coords(bracket(B, a.basis))
    return c


def killing_matrix(a: MatrixAlgebra) -> np.ndarray:
    """Gram matrix kappa(B_i, B_l) = tr(ad B_i ad B_l) of the basis: ad B_i
    has the entry c[i, j, k] at (k, j), so the trace pairs j with k."""
    c = structure_constants(a)
    return np.tensordot(c, c, axes=([1, 2], [2, 1]))


def killing_form(a: MatrixAlgebra, X: np.ndarray, Y: np.ndarray) -> float:
    """kappa(X, Y) = tr(ad X ad Y) through the cached basis Gram matrix."""
    for M in (X, Y):
        r = a.membership_residual(M)
        if r > MEMBERSHIP_TOL:
            raise ValueError(
                f"matrix outside {a.name} (projection residual {r:.2e})"
            )
    return float(a.coords(X) @ a.killing_gram @ a.coords(Y))


# degree-13 Pade coefficients and the 1-norm bound theta_13 up to which
# they reach double precision unscaled (Higham 2005, Table 2.3)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152


def matrix_exp(X: np.ndarray) -> np.ndarray:
    """exp of a real square matrix by degree-13 Pade scaling and squaring
    (Higham 2005); leading axes are a batch.  Each matrix takes its own
    scaling 2^-s from its own 1-norm, so its result does not depend on the
    stack it rides in."""
    n = X.shape[-1]
    A = X.reshape(-1, n, n)
    norm1 = np.abs(A).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm1, 1e-300) / _THETA13)).clip(0).astype(int)
    A = A * np.exp2(-s)[:, None, None]
    b = _PADE13
    eye = np.eye(n)
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    R = np.linalg.solve(V - U, V + U)
    for j in range(int(s.max(initial=0))):
        sq = s > j
        R[sq] = R[sq] @ R[sq]
    return R.reshape(X.shape)


# --- subgroup descriptors ----------------------------------------------------


@dataclass(frozen=True)
class BlockFactor:
    """One primitive factor of K1 or K2 inside the ambient group.

    kind 'su': special unitary block on the listed complex columns.
    kind 'so': rotation block on the listed real rows.
    kind 'circle': the one-parameter group exp(theta * generator), with the
    smallest positive theta giving the identity stored as period.
    """

    kind: str  # 'su' | 'so' | 'circle'
    cols: tuple[int, ...]
    period: float = 0.0


@dataclass(frozen=True)
class GroupModel:
    """Validated reductive package for one fibration record."""

    record: FibrationRecord
    name: str
    group_label: str
    n: int  # ambient real matrix size
    complex_size: int  # m for SU(m) models, 0 for real models
    g: MatrixAlgebra
    k1: MatrixAlgebra
    k2: MatrixAlgebra
    m_basis: np.ndarray  # kappa-orthonormal basis of k-perp (as matrices)
    m1_basis: np.ndarray  # kappa-orthonormal basis of k1-perp, k2 directions first
    center_elements: tuple[np.ndarray, ...]
    k1_factors: tuple[BlockFactor, ...]
    k2_factors: tuple[BlockFactor, ...]
    circle_mat: np.ndarray | None  # generator when a circle factor exists

    def __post_init__(self):
        for a in (self.m_basis, self.m1_basis, self.circle_mat, *self.center_elements):
            if a is not None:
                _read_only(a)

    @property
    def dim_g(self) -> int:
        return self.g.dim

    @property
    def dim_k1(self) -> int:
        return self.k1.dim

    @property
    def dim_k2(self) -> int:
        return self.k2.dim

    @property
    def dim_m1(self) -> int:
        return self.m1_basis.shape[0]

    @property
    def dim_m(self) -> int:
        return self.m_basis.shape[0]

    @cached_property
    def frobenius_lambda_min(self) -> float:
        """Smallest eigenvalue of the normal metric on m1 against the ambient
        Frobenius form: -kappa(xi, xi) >= lambda_min ||xi||_F^2 on m1."""
        E = self.m1_basis.reshape(self.dim_m1, -1)  # -kappa-orthonormal
        return 1.0 / float(np.linalg.eigvalsh(E @ E.T)[-1])

    @cached_property
    def natural_reductivity_residual(self) -> float:
        """`natural_reductivity_check` of the model, computed once: a model
        is read-only, and a process serves it request after request."""
        return natural_reductivity_check(self)

    @cached_property
    def circle_phases(self) -> np.ndarray:
        """Diagonal speeds a_j with exp(theta z) = diag(e^{i a_j theta}) for
        the circle generator z."""
        return _read_only(np.diag(complexify(self.circle_mat)).imag)

    def kappa_ip(self, X: np.ndarray, Y: np.ndarray) -> float:
        """The metric inner product -kappa(X, Y) on g."""
        return float(-(self.g.coords(X) @ self.g.killing_gram @ self.g.coords(Y)))

    def project_m1(self, X: np.ndarray) -> np.ndarray:
        return self.from_m1_coords(self.m1_coords(X))

    @cached_property
    def _m1_dual(self) -> np.ndarray:
        """(n^2, d) matrix D with m1_coords(X) = vec(X) @ D: column j is the
        functional X -> -kappa(X, E_j) on g coordinates."""
        E = self.g.coords(self.m1_basis)
        return _read_only(-self.g._pinv.T @ (self.g.killing_gram @ E.T))

    def m1_coords(self, X: np.ndarray) -> np.ndarray:
        """The coordinates -kappa(X, E_j) on the m1 basis; leading axes of X
        are a batch, each matrix taking its own (1, n^2) @ (n^2, d) product
        so its result does not depend on the stack."""
        flat = X.reshape(-1, 1, self.n * self.n)
        return (flat @ self._m1_dual).reshape(X.shape[:-2] + (self.dim_m1,))

    def m1_norm(self, X: np.ndarray) -> float:
        c = self.m1_coords(X)
        return float(np.sqrt(c @ c))

    def from_m1_coords(self, c: np.ndarray) -> np.ndarray:
        """The m1 matrix with coordinates c; leading axes of c are a batch."""
        return np.einsum("...i,ijk->...jk", c, self.m1_basis)


def _null_rows(A: np.ndarray, rtol: float) -> np.ndarray:
    """Orthonormal rows spanning the null space of A: the right singular
    vectors past the rank, which counts the singular values above rtol
    times the largest."""
    # a wide A needs all of V; a tall one has it with U kept thin
    _, sv, Vt = np.linalg.svd(A, full_matrices=len(A) < A.shape[1])
    return Vt[int(np.sum(sv > rtol * sv.max(initial=0.0))):]


def _gram_schmidt(C: np.ndarray, G: np.ndarray) -> np.ndarray:
    """Gram-Schmidt of the coordinate rows C, in order, in the inner product
    x @ G @ y, dropping each row whose remainder has squared norm at most
    1e-16.  Each row is projected off the rows kept before it twice, so the
    kept rows stay orthonormal to roundoff."""
    Q, k = np.empty(C.shape), 0
    for v in C:
        for _ in range(2):
            v = v - (v @ G @ Q[:k].T) @ Q[:k]
        norm2 = v @ G @ v
        if norm2 > 1e-16:
            Q[k], k = v / np.sqrt(norm2), k + 1
    return Q[:k]


def orthogonal_complement(g: MatrixAlgebra, rows: np.ndarray) -> np.ndarray:
    """-kappa-orthonormal coordinate rows spanning the kappa-complement in g
    of the span of the coordinate rows `rows`.

    The form -kappa must be positive definite on the complement; a
    degenerate restriction is rejected.
    """
    K = g.killing_gram
    onb = _gram_schmidt(_null_rows(rows @ K, 1e-9), -K)
    if len(onb) != g.dim - len(rows):
        raise ValueError(
            "degenerate Killing restriction on the requested complement"
        )
    return onb


def natural_reductivity_check(model: GroupModel) -> float:
    """Max over basis triples of |<[x,y]_m1, z> + <y, [x,z]_m1>| on m1."""
    E = model.m1_basis
    prod = np.einsum("iab,jbc->ijac", E, E)
    # proj[i, j, k]: the m1 coordinate k of [E_i, E_j]
    proj = model.m1_coords(prod - np.swapaxes(prod, 0, 1))
    return float(np.abs(proj + np.swapaxes(proj, 1, 2)).max())


# --- model construction -------------------------------------------------------


def _validate_model(model: GroupModel) -> None:
    g, k1, k2 = model.g, model.k1, model.k2
    # bracket closure of g on 12 seeded pairs and of the subalgebras
    i, j = np.random.default_rng(7).integers(0, g.dim, size=(12, 2)).T
    if g.membership_residual(bracket(g.basis[i], g.basis[j])).max() > STRUCTURAL_TOL:
        raise ValueError("g basis not bracket-closed")
    for sub in (k1, k2):
        B = bracket(sub.basis[:, None], sub.basis[None])
        if sub.membership_residual(B).max() > STRUCTURAL_TOL:
            raise ValueError(f"{sub.name} not bracket-closed")
    # every kappa product below is on coordinate rows in g's basis
    G = -g.killing_gram
    C1, C2 = g.coords(k1.basis), g.coords(k2.basis)
    # k1 and k2 commute and are kappa-orthogonal
    B = bracket(k1.basis[:, None], k2.basis[None])
    if np.linalg.norm(B, axis=(-2, -1)).max() > STRUCTURAL_TOL:
        raise ValueError("k1 and k2 do not commute")
    if np.abs(C1 @ G @ C2.T).max() > STRUCTURAL_TOL * 100:
        raise ValueError("k1 not kappa-orthogonal to k2")
    # reductivity: [k1, m1] inside m1
    B = bracket(k1.basis[:, None], model.m1_basis[None])
    if np.linalg.norm(B - model.project_m1(B), axis=(-2, -1)).max() > STRUCTURAL_TOL * 100:
        raise ValueError("[k1, m1] escapes m1")
    # -kappa positive definite on m1 (orthonormal by construction; spot check)
    C_m1 = g.coords(model.m1_basis)
    if np.diag(C_m1 @ G @ C_m1.T).min() < 0.5:
        raise ValueError("-kappa not positive definite on m1")
    # centralizer: fixed space of ad(k1) on g = k2 + center(k1).  Row j of
    # ad_k1[x] holds the coordinates of [X_x, B_j], so ad(X_x) is its
    # transpose; the transposes stack row-wise over k1's basis
    ad_k1 = g.coords(bracket(k1.basis[:, None], g.basis[None]))
    fixed = _null_rows(np.swapaxes(ad_k1, 1, 2).reshape(-1, g.dim), 1e-8)
    # center of k1: fixed space of ad(k1) inside k1, in k1 coordinates
    ad_k1 = structure_constants(k1)
    z_k1 = _null_rows(np.swapaxes(ad_k1, 1, 2).reshape(-1, k1.dim), 1e-8)
    if len(fixed) != k2.dim + len(z_k1):
        raise ValueError(
            f"centralizer dimension {len(fixed)} != dim k2 + dim z(k1) "
            f"= {k2.dim} + {len(z_k1)}"
        )
    # each fixed vector decomposes into k2 + z(k1) parts within tolerance
    S = np.concatenate([C2, z_k1 @ C1]).T
    if S.size:
        resid = fixed.T - S @ np.linalg.lstsq(S, fixed.T, rcond=None)[0]
        if np.linalg.norm(resid, axis=0).max() > 1e-8:
            raise ValueError("centralizer of k1 exceeds k2 + z(k1)")
    # zero fixed space of ad(k) on m: no nonzero invariant vector on the base
    if model.dim_m:
        k_basis = np.concatenate([k1.basis, k2.basis])
        B = g.coords(bracket(k_basis[:, None], model.m_basis[None]))
        # A[(X, E), F] = -kappa([X, E], F) for X in k, E and F in m
        A = (B @ G @ g.coords(model.m_basis).T).reshape(-1, model.dim_m)
        sv = np.linalg.svd(A.T @ A, compute_uv=False)
        if sv[-1] < 1e-10:
            raise ValueError("ad(k) has a nonzero fixed vector on m")
    # center elements commute with the whole algebra
    Z = np.array(model.center_elements)
    B = Z @ np.swapaxes(Z, 1, 2) - np.eye(model.n)
    if np.linalg.norm(B, axis=(-2, -1)).max() > STRUCTURAL_TOL:
        raise ValueError("center element not orthogonal")
    B = bracket(Z[:, None], g.basis[:: max(1, g.dim // 6)][None])
    if np.linalg.norm(B, axis=(-2, -1)).max() > STRUCTURAL_TOL:
        raise ValueError("center element does not commute with g")


def _block_data(
    size: int, block: tuple[str, tuple[int, ...]]
) -> tuple[list[np.ndarray], BlockFactor]:
    """The basis and the descriptor of one block of a `dynkin.ModelSpec`
    whose group has the given size."""
    kind, idx = block
    if kind == "su":
        return su_block_basis(size, idx), BlockFactor("su", idx)
    if kind == "so":
        return so_basis(size, idx), BlockFactor("so", idx)
    period = 2 * np.pi / np.gcd.reduce(idx)
    return [circle_generator(idx)], BlockFactor("circle", (), period)


@lru_cache(maxsize=None)
def build_model(rec: FibrationRecord) -> GroupModel:
    """Concrete validated model of a record from its `dynkin.ModelSpec`: g,
    K1 and K2 as block subalgebras, m1 = k1-perp with the k2 directions
    first, and m = k-perp.  Catalog-only records are rejected.  Built and
    validated once per record per process; every caller gets the same
    read-only model."""
    spec = rec.model_spec
    if spec is None:
        raise ValueError(
            f"no concrete model for {rec.slug}: catalog-only case "
            f"({rec.base_label})"
        )
    nblocks = len(spec.blocks)
    if not spec.k1 or not set(spec.k1) < set(range(nblocks)):
        raise ValueError(
            "degenerate splitting: K1 must be a proper nonempty subset of "
            f"the blocks {[kind for kind, _ in spec.blocks]}"
        )
    size = spec.size
    if spec.group == "su":
        g, n = algebra_su(size), 2 * size
        omega = np.exp(2j * np.pi / size)
        center = tuple(
            realify(np.diag([omega**k] * size).astype(complex)) for k in range(size)
        )
    else:
        g, n = algebra_so(size), size
        center = (np.eye(n), -np.eye(n)) if n % 2 == 0 else (np.eye(n),)
    data = [_block_data(size, b) for b in spec.blocks]
    k1_data = [data[i] for i in range(nblocks) if i in spec.k1]
    k2_data = [data[i] for i in range(nblocks) if i not in spec.k1]
    k1_mats = [M for mats, _ in k1_data for M in mats]
    k2_mats = [M for mats, _ in k2_data for M in mats]
    k1 = MatrixAlgebra(name=f"k1[{rec.slug}]", n=n, basis=np.array(k1_mats))
    k2 = MatrixAlgebra(name=f"k2[{rec.slug}]", n=n, basis=np.array(k2_mats))
    m1_rows = orthogonal_complement(g, g.coords(k1.basis))
    # reorder m1 so the k2 directions come first (Gram-Schmidt from k2)
    seed = np.concatenate([g.coords(k2.basis), m1_rows])
    m1_ordered = _gram_schmidt(seed, -g.killing_gram)
    if len(m1_ordered) != len(m1_rows):
        raise ValueError("k2 escapes the k1-complement")
    model = GroupModel(
        record=rec,
        name=rec.slug,
        group_label=f"{spec.group.upper()}({size})",
        n=n,
        complex_size=size if spec.group == "su" else 0,
        g=g,
        k1=k1,
        k2=k2,
        # m = k-perp: the directions of m1 past k2
        m_basis=g.from_coords(m1_ordered[k2.dim :]),
        m1_basis=g.from_coords(m1_ordered),
        center_elements=center,
        k1_factors=tuple(fac for _, fac in k1_data),
        k2_factors=tuple(fac for _, fac in k2_data),
        circle_mat=next(
            (mats[0] for mats, fac in data if fac.kind == "circle"), None
        ),
    )
    _validate_model(model)
    return model


_ALIASES = {
    "su3-hopf": "su3-su1u2--k1-0a1",
    "so6-stiefel": "so6-so3so3--k1-0so3",
}


def _slug_family(slug: str) -> str | None:
    """The family letter that the group token of a slug names: suN is A,
    soN is B for odd N and D for even N, sp2 is B, spN (N >= 3) is C, and
    e*, f*, g* are E, F, G.  None when the token is not complete (no "-"
    follows it, so "so1" may still grow into so10 or so11) or names no
    family."""
    token, dash, _ = slug.partition("-")
    if not dash:
        return None
    kind, digits = token[:2], token[2:]
    if kind not in ("su", "so", "sp") or not digits.isdecimal():
        return token[0].upper() if token[:1] in ("e", "f", "g") else None
    n = int(digits)
    if kind == "su":
        return "A"
    if kind == "so":
        return "B" if n % 2 else "D"
    return "B" if n == 2 else "C" if n >= 3 else None


def _resolve(case_id: str, records) -> FibrationRecord:
    """The record a case id names among `records` (see `find_record`)."""
    slug = _ALIASES.get(case_id, case_id)
    for r in records:
        if r.slug == slug:
            return r
    matches = [r for r in records if r.slug.startswith(case_id)]
    with_model = [r for r in matches if r.model_available]
    if len(with_model) > 1:
        raise LookupError(
            f"ambiguous case id {case_id!r}: " + ", ".join(r.slug for r in with_model[:6])
        )
    if not matches:
        raise LookupError(f"no catalog record with id {case_id!r}")
    return (with_model or matches)[0]


def find_record(case_id: str) -> FibrationRecord:
    """Resolve a case id to a catalog record: a friendly alias, an exact
    slug, or a slug prefix.  A prefix resolves to the one matching record
    with a concrete model; when only catalog-only records match, the first
    of them is returned so the caller can report that no model exists.
    Raises LookupError when nothing matches or several models do.  Only
    the family that the id's group token names is enumerated; an id
    without one searches the whole catalog."""
    from .dynkin import CatalogConfig, catalog

    family = _slug_family(_ALIASES.get(case_id, case_id))
    cfg = CatalogConfig(families=(family,)) if family else CatalogConfig()
    return _resolve(case_id, catalog(cfg).records)
