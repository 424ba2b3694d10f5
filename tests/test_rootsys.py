"""Exact root-system layer: counts, highest roots, Weyl orders, orbit spans.

Expected values were fixed by an independent oracle run: reflection-closure
root counts cross-checked against dimension formulas (A_n: n(n+1),
B_n/C_n: 2n^2, D_n: 2n(n-1), G2: 12, F4: 48, E6: 72, E7: 126, E8: 240),
and Weyl orders against the literal BFS matrix-group generation, before
being frozen here.
"""
import math
from fractions import Fraction

import pytest

from isofib.rootsys import (
    _RANK_BOUNDS,
    RootSystem,
    SimpleType,
    _reflection_closure,
    _simple_roots_for,
    build_root_system,
    dot,
    highest_root,
    product_system,
    reflect,
    root_coefficients,
    weyl_orbit,
    weyl_orbit_spans,
    weyl_order,
    weyl_order_bfs,
)

Q = Fraction

TYPES_RANK_LE_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4),
    ("F", 4), ("G", 2),
]

ROOT_COUNTS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 12, ("A", 4): 20,
    ("B", 2): 8, ("B", 3): 18, ("B", 4): 32,
    ("C", 3): 18, ("C", 4): 32,
    ("D", 4): 24, ("D", 5): 40,
    ("E", 6): 72, ("E", 7): 126, ("E", 8): 240,
    ("F", 4): 48, ("G", 2): 12,
}

WEYL_ORDERS = {
    ("A", 1): 2, ("A", 2): 6, ("A", 3): 24, ("A", 4): 120,
    ("B", 2): 8, ("B", 3): 48, ("B", 4): 384,
    ("C", 3): 48, ("C", 4): 384,
    ("D", 4): 192, ("D", 5): 1920,
    ("E", 6): 51840, ("E", 7): 2903040, ("E", 8): 696729600,
    ("F", 4): 1152, ("G", 2): 12,
}

HIGHEST_ROOT_COEFFS = {
    ("A", 4): (1, 1, 1, 1),
    ("B", 4): (1, 2, 2, 2),
    ("C", 4): (2, 2, 2, 1),
    ("D", 5): (1, 2, 2, 1, 1),
    ("G", 2): (3, 2),
    ("F", 4): (2, 3, 4, 2),
    ("E", 6): (1, 2, 2, 3, 2, 1),
    ("E", 7): (2, 2, 3, 4, 3, 2, 1),
    ("E", 8): (2, 3, 4, 6, 5, 4, 3, 2),
}


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_root_counts(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    assert len(rs.all_roots) == ROOT_COUNTS[(family, rank)]


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_roots_closed_under_simple_reflections(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    roots = set(rs.all_roots)
    for alpha in rs.simple_roots:
        for v in rs.all_roots:
            assert reflect(v, alpha) in roots


CLOSURE_TYPES = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(3, 9)]
    + [("D", n) for n in range(4, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def fraction_closure(simple):
    """Reference: the closure on Fraction vectors, reflecting with the
    textbook formula v - 2 (v, a) / (a, a) a on every step."""

    def ip(u, v):
        return sum((x * y for x, y in zip(u, v)), Fraction(0))

    roots = set(simple)
    queue = list(simple)
    while queue:
        v = queue.pop()
        for a in simple:
            c = 2 * ip(v, a) / ip(a, a)
            w = tuple(x - c * y for x, y in zip(v, a))
            if w not in roots:
                roots.add(w)
                queue.append(w)
    return tuple(sorted(roots))


def halved(vectors):
    """Doubled integer vectors back in the textbook coordinates."""
    return tuple(tuple(Q(x, 2) for x in v) for v in vectors)


@pytest.mark.parametrize("family,rank", CLOSURE_TYPES)
def test_integer_closure_matches_fraction_closure(family, rank):
    simple = _simple_roots_for(SimpleType(family, rank))
    roots = _reflection_closure(simple)
    assert halved(roots) == fraction_closure(halved(simple))
    assert all(type(x) is int for v in roots for x in v)


def test_closure_rejects_non_base_pair():
    # norms 8 and 10: 2 (a, b) / (b, b) = -4/10 is no Cartan integer
    simple = ((2, -2, 0), (0, 1, -3))
    with pytest.raises(ValueError, match="non-integral reflection coefficient"):
        _reflection_closure(simple)


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_roots_are_integer_tuples(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    for v in rs.simple_roots + rs.all_roots + (highest_root(rs).vector,):
        assert all(type(x) is int for x in v), v
        assert type(dot(v, v)) is int


@pytest.mark.parametrize("family,rank", [("F", 4), ("E", 8), ("G", 2), ("C", 3)])
def test_rational_paths_stay_exact_on_integer_roots(family, rank):
    # an int / int in these paths would turn a coefficient into a float
    rs = build_root_system(SimpleType(family, rank))
    for alpha in rs.simple_roots:
        for v in rs.all_roots:
            assert all(type(x) is Fraction for x in reflect(v, alpha))
    for v in rs.simple_roots + (highest_root(rs).vector,):
        coeffs = root_coefficients(rs, v)
        assert all(type(c) is Fraction and c.denominator == 1 for c in coeffs)


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_cartan_matrix_shape(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    C = rs.cartan
    for i in range(rank):
        assert C[i][i] == 2
        for j in range(rank):
            assert C[i][j].denominator == 1
            if i != j:
                assert C[i][j] <= 0
                # zero entries must be symmetric
                assert (C[i][j] == 0) == (C[j][i] == 0)


@pytest.mark.parametrize("family,rank", sorted(ROOT_COUNTS))
def test_length_ratios(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    lengths = {dot(r, r) for r in rs.all_roots}
    assert len(lengths) <= 2
    if len(lengths) == 2:
        ratio = max(lengths) / min(lengths)
        assert ratio in (Q(2), Q(3))
        assert (ratio == 3) == (family == "G")


@pytest.mark.parametrize("family,rank", sorted(HIGHEST_ROOT_COEFFS))
def test_highest_root_coefficients(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    hr = highest_root(rs)
    assert hr.coefficients == HIGHEST_ROOT_COEFFS[(family, rank)]
    # reconstruction: coefficients against the simple roots give the vector
    assert root_coefficients(rs, hr.vector) == hr.coefficients


def test_highest_root_height_is_coxeter_number_minus_one():
    # every type in bounds: the coefficients sum to h - 1 with h the
    # Coxeter number #roots / rank, and reconstruct the vector
    for family, (lo, hi) in _RANK_BOUNDS.items():
        for rank in range(lo, hi + 1):
            rs = build_root_system(SimpleType(family, rank))
            hr = highest_root(rs)
            assert sum(hr.coefficients) + 1 == len(rs.all_roots) // rank
            recon = tuple(
                sum(c * x for c, x in zip(hr.coefficients, col))
                for col in zip(*rs.simple_roots)
            )
            assert recon == hr.vector


def test_highest_root_dominates_no_further():
    rs = build_root_system(SimpleType("E", 8))
    hr = highest_root(rs)
    roots = set(rs.all_roots)
    for alpha in rs.simple_roots:
        bumped = tuple(a + b for a, b in zip(hr.vector, alpha))
        assert bumped not in roots


@pytest.mark.parametrize("family,rank", sorted(WEYL_ORDERS))
def test_weyl_order_coxeter(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    assert weyl_order(rs) == WEYL_ORDERS[(family, rank)]


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_4)
def test_weyl_order_bfs_matches_coxeter(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    assert weyl_order_bfs(rs) == weyl_order(rs)


def test_weyl_order_cached_per_system():
    rs = build_root_system(SimpleType("E", 7))
    assert weyl_order(rs) == WEYL_ORDERS[("E", 7)]
    # an equal system built anew shares the entry; the cache keys on the
    # frozen system's value, so it agrees with the generation count
    fresh = RootSystem(rs.stype, rs.label, rs.simple_roots, rs.cartan, rs.all_roots)
    assert fresh is not rs and weyl_order(fresh) == weyl_order(rs)
    b3 = build_root_system(SimpleType("B", 3))
    assert weyl_order(b3) == weyl_order_bfs(b3) == WEYL_ORDERS[("B", 3)]
    assert weyl_order.cache_info().hits > 0


def test_weyl_order_e_series_integrality():
    # the highest-root product is integer arithmetic throughout; E6..E8 land
    # on the known orders
    for rank, want in [(6, 51840), (7, 2903040), (8, 696729600)]:
        assert weyl_order(build_root_system(SimpleType("E", rank))) == want


def _closed_form_weyl_order(family, n):
    if family == "A":
        return math.factorial(n + 1)
    if family in ("B", "C"):
        return 2**n * math.factorial(n)
    if family == "D":
        return 2 ** (n - 1) * math.factorial(n)
    return WEYL_ORDERS[(family, n)]  # the E, F and G table


def test_weyl_order_matches_family_closed_forms():
    # every type in bounds, not only the tabulated low ranks
    for family, (lo, hi) in _RANK_BOUNDS.items():
        for rank in range(lo, hi + 1):
            rs = build_root_system(SimpleType(family, rank))
            assert weyl_order(rs) == _closed_form_weyl_order(family, rank), (family, rank)


def test_weyl_order_rejects_product_system():
    a1 = build_root_system(SimpleType("A", 1))
    with pytest.raises(ValueError):
        weyl_order(product_system(a1, a1))


# span grid: coefficient-basis entries p/q with p in {-1,0,1}, q in {1,2,3,4}
GRID_FRACTIONS = [Q(p, q) for q in (1, 2, 3, 4) for p in (-1, 0, 1)]


def _grid_vectors(rs, entries=GRID_FRACTIONS):
    # all nonzero coefficient vectors over the documented grid, rank <= 2;
    # higher ranks use a deterministic slice to keep runtime in budget
    import itertools

    rank = rs.rank
    if rank <= 2:
        pool = itertools.product(entries, repeat=rank)
    else:
        pool = (
            tuple(entries[(i + 5 * j) % len(entries)] for j in range(rank))
            for i in range(40)
        )
    out = []
    for coeffs in pool:
        if all(c == 0 for c in coeffs):
            continue
        vec = tuple(
            sum(c * r[k] for c, r in zip(coeffs, rs.simple_roots))
            for k in range(rs.ambient_dim)
        )
        out.append(vec)
    return out


@pytest.mark.parametrize("family,rank", TYPES_RANK_LE_4)
def test_weyl_orbit_spans_grid(family, rank):
    rs = build_root_system(SimpleType(family, rank))
    for v in _grid_vectors(rs):
        assert weyl_orbit_spans(rs, v), (family, rank, v)


def test_weyl_orbit_spans_matches_literal_orbit():
    # cross-check the linear-closure method against the literal orbit span
    # on small systems where the orbit is enumerable
    from isofib.rootsys import _solve_fraction  # noqa: F401  (import guard)

    for st in [SimpleType("A", 2), SimpleType("B", 2), SimpleType("G", 2)]:
        rs = build_root_system(st)
        for v in _grid_vectors(rs)[:40]:
            orbit = weyl_orbit(rs, v, max_size=2000)
            # rank of the orbit's span
            basis: list[tuple] = []
            for w in orbit:
                cand = list(w)
                for b in basis:
                    # eliminate leading entries
                    pivot = next((k for k, x in enumerate(b) if x != 0), None)
                    if pivot is not None and cand[pivot] != 0:
                        f = cand[pivot] / b[pivot]
                        cand = [c - f * x for c, x in zip(cand, b)]
                if any(x != 0 for x in cand):
                    basis.append(tuple(cand))
            spans = len(basis) >= rs.rank
            assert spans == weyl_orbit_spans(rs, v)


def test_weyl_orbit_spans_negative_control():
    # reducible product system: a vector inside one factor cannot span
    ab = product_system(
        build_root_system(SimpleType("A", 1)), build_root_system(SimpleType("A", 1))
    )
    v_in_factor = ab.simple_roots[0]
    assert not weyl_orbit_spans(ab, v_in_factor)
    # while a generic vector with weight in both factors does span
    generic = tuple(
        a + b for a, b in zip(ab.simple_roots[0], ab.simple_roots[1])
    )
    assert weyl_orbit_spans(ab, generic)


def test_zero_vector_rejected():
    rs = build_root_system(SimpleType("A", 2))
    zero = tuple(Q(0) for _ in range(rs.ambient_dim))
    with pytest.raises(ValueError):
        weyl_orbit_spans(rs, zero)


def test_invalid_ranks_rejected():
    for family, rank in [("A", 0), ("B", 1), ("C", 2), ("D", 3), ("E", 5), ("E", 9), ("F", 3), ("G", 1), ("H", 2)]:
        with pytest.raises(ValueError):
            SimpleType(family, rank)


def test_root_coefficients_rejects_outside_span():
    rs = build_root_system(SimpleType("A", 2))
    # ambient of A2 is 3-dimensional; the all-ones vector is orthogonal to the span
    bad = (Q(1), Q(1), Q(1))
    with pytest.raises(ValueError):
        root_coefficients(rs, bad)


def test_product_system_counts():
    a1 = build_root_system(SimpleType("A", 1))
    g2 = build_root_system(SimpleType("G", 2))
    prod = product_system(a1, g2)
    assert prod.rank == 3
    assert len(prod.all_roots) == 2 + 12
    lengths = {dot(r, r) for r in prod.all_roots}
    assert len(lengths) >= 2
