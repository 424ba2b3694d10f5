"""Exact root-system combinatorics for the simple Lie types.

A root is a tuple of ``int``: its coordinates in an orthonormal ambient
basis, doubled, so that the half-integer roots of F_4 and E_8 are integers
too.  Inner products, Cartan integers, highest-root coefficients and
Weyl-group orders are then integer arithmetic, and every quotient of two of
them is taken by ``divmod`` with a remainder check; the module needs the
standard library alone.  ``Fraction`` enters only where a caller may pass a
rational vector (in the same doubled coordinates): ``reflect``,
``root_coefficients`` and ``weyl_orbit_spans``.

Simple-root coordinate conventions (indexed 1..rank; stored doubled):

  A_n  in R^{n+1}: a_i = e_i - e_{i+1}
  B_n  in R^n    : a_i = e_i - e_{i+1} (i < n),  a_n = e_n
  C_n  in R^n    : a_i = e_i - e_{i+1} (i < n),  a_n = 2 e_n
  D_n  in R^n    : a_i = e_i - e_{i+1} (i < n),  a_n = e_{n-1} + e_n
  G_2  in R^3    : a_1 = e_1 - e_2 (short),  a_2 = -2e_1 + e_2 + e_3 (long)
  F_4  in R^4    : a_1 = e_2 - e_3,  a_2 = e_3 - e_4,  a_3 = e_4,
                   a_4 = (e_1 - e_2 - e_3 - e_4)/2
  E_8  in R^8    : a_1 = (e_1 + e_8)/2 - (e_2 + ... + e_7)/2,  a_2 = e_1 + e_2,
                   a_k = e_{k-2} - e_{k-3}  (k = 3..8)
  E_6, E_7       : the first 6 resp. 7 simple roots of E_8

Rank bounds avoid the low-rank coincidences: A >= 1, B >= 2, C >= 3, D >= 4,
E in {6,7,8}, F = 4, G = 2.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

Vector = tuple[int, ...]
RationalVector = Sequence[Fraction | int]

_RANK_BOUNDS = {
    "A": (1, 24),
    "B": (2, 24),
    "C": (3, 24),
    "D": (4, 24),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


@dataclass(frozen=True, order=True)
class SimpleType:
    """A simple Lie type: family letter plus rank, validated on construction."""

    family: str
    rank: int

    def __post_init__(self) -> None:
        if self.family not in _RANK_BOUNDS:
            raise ValueError(f"unknown family {self.family!r}; expected one of A..G")
        lo, hi = _RANK_BOUNDS[self.family]
        if not (lo <= self.rank <= hi):
            raise ValueError(
                f"rank {self.rank} out of bounds for family {self.family} "
                f"(allowed {lo}..{hi})"
            )

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class RootSystem:
    """A root system: simple roots, Cartan matrix, and the full root set.

    ``all_roots`` is the closure of the simple roots under the simple
    reflections, sorted lexicographically so identical inputs give identical
    tuples.  ``label`` is e.g. "E8", or "A1xA1" for reducible products built
    by :func:`product_system`.
    """

    stype: SimpleType | None
    label: str
    simple_roots: tuple[Vector, ...]
    cartan: tuple[tuple[int, ...], ...]
    all_roots: tuple[Vector, ...]

    @property
    def rank(self) -> int:
        return len(self.simple_roots)

    @property
    def ambient_dim(self) -> int:
        return len(self.simple_roots[0])


@dataclass(frozen=True)
class HighestRoot:
    """Highest root of an irreducible system with its simple-root coefficients."""

    vector: Vector
    coefficients: tuple[int, ...]


def dot(u: RationalVector, v: RationalVector) -> Fraction | int:
    return sum(a * b for a, b in zip(u, v))


def reflect(v: RationalVector, alpha: RationalVector) -> tuple[Fraction, ...]:
    """Reflection of v in the hyperplane orthogonal to alpha (exact)."""
    c = Fraction(2 * dot(v, alpha), dot(alpha, alpha))
    return tuple(vi - c * ai for vi, ai in zip(v, alpha))


def _simple_roots_for(stype: SimpleType) -> tuple[Vector, ...]:
    """The simple roots of the conventions above, doubled."""
    f, n = stype.family, stype.rank

    def chain(dim: int) -> list[Vector]:  # 2(e_i - e_{i+1}), i < dim - 1
        return [
            tuple(2 if j == i else -2 if j == i + 1 else 0 for j in range(dim))
            for i in range(dim - 1)
        ]

    if f == "A":
        return tuple(chain(n + 1))
    if f in ("B", "C", "D"):
        last = [0] * n
        if f == "B":
            last[n - 1] = 2
        elif f == "C":
            last[n - 1] = 4
        else:
            last[n - 2] = last[n - 1] = 2
        return tuple(chain(n) + [tuple(last)])
    if f == "G":
        return ((2, -2, 0), (-4, 2, 2))
    if f == "F":
        return ((0, 2, -2, 0), (0, 0, 2, -2), (0, 0, 0, 2), (1, -1, -1, -1))
    if f == "E":
        a1 = (1,) + (-1,) * 6 + (1,)
        a2 = (2, 2) + (0,) * 6
        rest = [
            tuple(-2 if j == k - 3 else 2 if j == k - 2 else 0 for j in range(8))
            for k in range(3, 9)
        ]
        return tuple([a1, a2] + rest)[:n]
    raise AssertionError(f"unhandled family {f}")


def _cartan_matrix(simple: Sequence[Vector]) -> tuple[tuple[int, ...], ...]:
    rows = []
    for ai in simple:
        row = []
        for aj in simple:
            c, rem = divmod(2 * dot(ai, aj), dot(aj, aj))
            if rem:
                raise ValueError("non-integral Cartan entry; roots are not a base")
            row.append(c)
        rows.append(tuple(row))
    return tuple(rows)


def _reflection_closure(simple: Sequence[Vector]) -> tuple[Vector, ...]:
    """Closure of the simple roots under the simple reflections, sorted.

    For a root system each reflection coefficient 2 (v, a) / (a, a) is an
    integer, checked by `divmod` on every step against the norms (a, a)
    computed once per simple root.  Raises ValueError on a non-integral
    reflection coefficient.
    """
    gens = [(a, dot(a, a)) for a in simple]
    roots: set[Vector] = set(simple)
    queue = list(simple)
    while queue:
        v = queue.pop()
        for a, norm in gens:
            c, rem = divmod(2 * dot(v, a), norm)
            if rem:
                raise ValueError("non-integral reflection coefficient; roots are not a base")
            if c:
                w = tuple(x - c * y for x, y in zip(v, a))
                if w not in roots:
                    roots.add(w)
                    queue.append(w)
    return tuple(sorted(roots))


@lru_cache(maxsize=None)
def build_root_system(stype: SimpleType) -> RootSystem:
    """Root system for a simple type, with the full root set generated by
    closing the simple roots under simple reflections."""
    simple = _simple_roots_for(stype)
    cartan = _cartan_matrix(simple)
    for i, row in enumerate(cartan):
        if row[i] != 2:
            raise AssertionError("Cartan diagonal must be 2")
        if any(row[j] > 0 for j in range(len(row)) if j != i):
            raise AssertionError("Cartan off-diagonal must be <= 0")
    roots = _reflection_closure(simple)
    return RootSystem(
        stype=stype,
        label=str(stype),
        simple_roots=simple,
        cartan=cartan,
        all_roots=roots,
    )


def product_system(a: RootSystem, b: RootSystem) -> RootSystem:
    """Orthogonal direct sum of two root systems (reducible; used as the
    negative control for Weyl-orbit span tests)."""
    da, db = a.ambient_dim, b.ambient_dim

    def pad_a(v: Vector) -> Vector:
        return v + (0,) * db

    def pad_b(v: Vector) -> Vector:
        return (0,) * da + v

    simple = tuple(pad_a(v) for v in a.simple_roots) + tuple(
        pad_b(v) for v in b.simple_roots
    )
    roots = tuple(sorted([pad_a(v) for v in a.all_roots] + [pad_b(v) for v in b.all_roots]))
    return RootSystem(
        stype=None,
        label=f"{a.label}x{b.label}",
        simple_roots=simple,
        cartan=_cartan_matrix(simple),
        all_roots=roots,
    )


def _solve_fraction(mat: Sequence[RationalVector], rhs: RationalVector) -> list[Fraction]:
    """Exact Gaussian elimination over the rationals (integer entries are
    lifted to Fraction first); mat must be square and invertible."""
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(rhs[i])] for i, row in enumerate(mat)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular system")
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [aug[i][n] for i in range(n)]


def root_coefficients(rs: RootSystem, v: RationalVector) -> tuple[Fraction, ...]:
    """Coefficients of v over the simple roots.  Raises ValueError if v is
    not in the span of the simple roots."""
    gram = [[dot(a, b) for b in rs.simple_roots] for a in rs.simple_roots]
    coeffs = _solve_fraction(gram, [dot(a, v) for a in rs.simple_roots])
    recon = tuple(
        sum(c * x for c, x in zip(coeffs, col)) for col in zip(*rs.simple_roots)
    )
    if recon != tuple(v):
        raise ValueError("vector is outside the span of the simple roots")
    return tuple(coeffs)


@lru_cache(maxsize=None)
def highest_root(rs: RootSystem) -> HighestRoot:
    """The unique root of maximal height, with integer coefficients over the
    simple roots.  Requires an irreducible system; raises ValueError for a
    product system.  Cached per (frozen) system, as `weyl_order` is.

    An ascent from the first simple root steps to r + a_i while that is a
    root for some simple a_i, and its steps count the coefficients.  It
    stops at the highest root theta, because theta - r has nonnegative
    coefficients for every root r (Bourbaki, Lie Groups and Lie Algebras,
    Ch. VI, Sec. 1.8), and a positive root r below a root g always has a
    step up.  Proof: (d, d) > 0 for d = g - r gives a simple a_i in d with
    (g, a_i) > (r, a_i).  Either (r, a_i) < 0, and r + a_i is a root; or
    (g, a_i) > 0, and g - a_i is a root or 0: it is r (then r + a_i = g),
    or a root above r of smaller height, where the argument repeats.
    """
    if rs.stype is None:
        raise ValueError("highest root is defined here for irreducible systems only")
    roots = set(rs.all_roots)
    vec = rs.simple_roots[0]
    coeffs = [1] + [0] * (rs.rank - 1)
    climbing = True
    while climbing:
        for i, a in enumerate(rs.simple_roots):
            up = tuple(x + y for x, y in zip(vec, a))
            if up in roots:
                vec = up
                coeffs[i] += 1
                break
        else:
            climbing = False
    if not all(coeffs):
        raise AssertionError("highest-root coefficients must be positive integers")
    return HighestRoot(vector=vec, coefficients=tuple(coeffs))


def _reflection_matrices_coeff_basis(rs: RootSystem) -> list[list[list[int]]]:
    """Matrices of the simple reflections on the span of the simple roots,
    written in the simple-root coefficient basis (integer entries)."""
    n = rs.rank
    cartan = rs.cartan
    mats = []
    for i in range(n):
        m = [[1 if r == c else 0 for c in range(n)] for r in range(n)]
        for j in range(n):
            m[i][j] -= cartan[j][i]
        mats.append(m)
    return mats


@lru_cache(maxsize=None)
def weyl_order(rs: RootSystem) -> int:
    """Order of the Weyl group of an irreducible system, from its highest
    root: |W| = l! n_1 ... n_l f, where l is the rank, the n_i are the
    highest-root coefficients and f is the index of connection, which equals
    the number of vertices of the extended diagram with coefficient 1 (the
    lowest-root vertex and each simple root with n_i = 1); Bourbaki, Lie
    Groups and Lie Algebras, Ch. VI, Sec. 2, and Humphreys, Reflection
    Groups and Coxeter Groups, Sec. 4.9.  Raises ValueError for a product
    system.  Cached per (frozen) system, as `build_root_system` is per type.
    """
    c = highest_root(rs).coefficients
    return math.factorial(rs.rank) * math.prod(c) * (1 + c.count(1))


def weyl_order_bfs(rs: RootSystem, max_order: int = 2_000_000) -> int:
    """Order of the Weyl group by explicit generation: closure of the simple
    reflections (as integer matrices on the coefficient basis) under
    multiplication.  Intended for small rank; raises RuntimeError beyond
    max_order elements."""
    n = rs.rank
    gens = [tuple(tuple(row) for row in m) for m in _reflection_matrices_coeff_basis(rs)]

    def mul(a, b):
        return tuple(
            tuple(sum(a[r][k] * b[k][c] for k in range(n)) for c in range(n))
            for r in range(n)
        )

    ident = tuple(tuple(1 if r == c else 0 for c in range(n)) for r in range(n))
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                wg = mul(w, g)
                if wg not in seen:
                    seen.add(wg)
                    nxt.append(wg)
                    if len(seen) > max_order:
                        raise RuntimeError("Weyl group exceeds max_order; use weyl_order")
        frontier = nxt
    return len(seen)


def weyl_orbit_spans(rs: RootSystem, v: RationalVector) -> bool:
    """True iff the span of the Weyl orbit of v is the full span of the
    simple roots.

    v is given in doubled ambient coordinates and must be a nonzero
    rational vector in the span of the simple roots.  The orbit span is
    computed as the closure of span{v} under the simple reflections, which
    equals the span of the full orbit (both are the smallest
    reflection-invariant subspace containing v).
    """
    coeffs = root_coefficients(rs, v)
    if all(c == 0 for c in coeffs):
        raise ValueError("v must be nonzero")
    n = rs.rank
    mats = _reflection_matrices_coeff_basis(rs)

    # integer working vectors: clear denominators (scaling preserves spans)
    den = math.lcm(*(c.denominator for c in coeffs))
    start = tuple(int(c * den) for c in coeffs)

    pivots: dict[int, tuple[Fraction, ...]] = {}

    def try_add(w: Sequence[int]) -> bool:
        row = [Fraction(x) for x in w]
        for col, prow in pivots.items():
            if row[col] != 0:
                f = row[col]
                row = [x - f * y for x, y in zip(row, prow)]
        lead = next((i for i, x in enumerate(row) if x != 0), None)
        if lead is None:
            return False
        lv = row[lead]
        pivots[lead] = tuple(x / lv for x in row)
        return True

    try_add(start)
    queue = [start]
    while queue and len(pivots) < n:
        w = queue.pop()
        for m in mats:
            u = tuple(sum(m[r][c] * w[c] for c in range(n)) for r in range(n))
            if try_add(u):
                queue.append(u)
                if len(pivots) == n:
                    break
    return len(pivots) == n


def weyl_orbit(
    rs: RootSystem, v: RationalVector, max_size: int = 100_000
) -> tuple[tuple[Fraction | int, ...], ...]:
    """The full Weyl orbit of an ambient vector v, by closure under the
    simple reflections.  Exponential in rank; meant for cross-checks."""
    seen = {tuple(v)}
    queue = [tuple(v)]
    while queue:
        w = queue.pop()
        for a in rs.simple_roots:
            u = reflect(w, a)
            if u not in seen:
                if len(seen) >= max_size:
                    raise RuntimeError("orbit exceeds max_size")
                seen.add(u)
                queue.append(u)
    return tuple(sorted(seen))

