"""Diagram enumeration: component recognition, deletions, splittings,
Euler characteristics, automorphism proxies, catalog and golden files.

The per-type deletion tables below were derived by hand from the extended
diagrams (attachment point of the lowest root per family, highest-root
coefficients) and frozen before the enumeration code was finished.
"""
import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import isofib
from isofib.dynkin import (
    CLASS_NAMES,
    CatalogConfig,
    GOLDEN_FILES,
    _types_in_scope,
    bds_enumerate,
    catalog,
    chi_from_types,
    classify_components,
    diagram_automorphisms,
    diagram_from_roots,
    diagram_of,
    euler_characteristic,
    golden_diff,
    golden_projection,
    load_golden,
    splittings,
    stiefel_records,
)
from isofib.rootsys import SimpleType, build_root_system


# --- diagram construction ----------------------------------------------------

def test_diagram_of_recognizes_itself():
    for st in [
        ("A", 1), ("A", 5), ("B", 2), ("B", 4), ("C", 3), ("D", 4), ("D", 6),
        ("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2),
    ]:
        stype = SimpleType(*st)
        comps = classify_components(diagram_of(stype))
        assert [c.stype for c in comps] == [stype]


# lowest-root attachment in the extended diagram: the simple roots (0-based
# indexes) adjacent to -b.  Type A is left out: every highest-root
# coefficient is 1, so no deletion below keeps -b.
LOWEST_ATTACH = {
    ("B", 4): {1},
    ("C", 4): {0},
    ("D", 5): {1},
    ("G", 2): {1},
    ("F", 4): {0},
    ("E", 6): {1},
    ("E", 7): {0},
    ("E", 8): {7},
}


@pytest.mark.parametrize("family,rank", sorted(LOWEST_ATTACH))
def test_extended_diagram_attachment(family, rank):
    # each n0 > 1 deletion is the extended diagram less one simple root, so
    # -b keeps the neighbours the table gives, less the deleted root
    cases = [c for c in bds_enumerate(SimpleType(family, rank)) if c.n0 > 1]
    assert cases
    for case in cases:
        d = case.k_diagram
        assert d.labels[-1] == "-b" and d.origins[-1] == -1
        last = d.n_vertices - 1
        neighbors = {d.origins[i] for i, j, _ in d.edges if j == last} | {
            d.origins[j] for i, j, _ in d.edges if i == last
        }
        assert neighbors == LOWEST_ATTACH[(family, rank)] - {case.psi0 - 1}


def test_extended_diagram_a1_rejected():
    # the extended diagram of A1 pairs alpha with -alpha: multiplicity 4, not
    # a diagram
    alpha = build_root_system(SimpleType("A", 1)).simple_roots[0]
    with pytest.raises(ValueError, match="multiplicity above 3"):
        diagram_from_roots(["a1", "-b"], [alpha, tuple(-x for x in alpha)], [0, -1])


def test_diagram_from_roots_rejects_bad_pairing():
    # two vectors at 45 degrees with irrational-free but non-Cartan pairing
    u = (2, 0)
    w = (2, 2)
    with pytest.raises(ValueError):
        diagram_from_roots(["u", "w"], [u, w], [0, 1])


# --- deletion tables ---------------------------------------------------------

# (psi0, n0, base_label, sorted component labels, circle?)
DELETION_TABLES = {
    ("A", 2): [
        (1, 1, "SU(3)/S(U(1)U(2))", ["A1"], True),
        (2, 1, "SU(3)/S(U(1)U(2))", ["A1"], True),
    ],
    ("B", 2): [
        (1, 1, "SO(5)/SO(2)SO(3)", ["A1"], True),
        (2, 2, "Sp(2)/Sp(1)Sp(1)", ["A1", "A1"], False),
    ],
    ("B", 4): [
        (1, 1, "SO(9)/SO(2)SO(7)", ["B3"], True),
        (2, 2, "SO(9)/SO(4)SO(5)", ["A1", "A1", "B2"], False),
        (3, 2, "SO(9)/SO(3)SO(6)", ["A1", "A3"], False),
        (4, 2, "SO(9)/SO(8)", ["D4"], False),
    ],
    ("C", 3): [
        (1, 2, "Sp(3)/Sp(1)Sp(2)", ["A1", "B2"], False),
        (2, 2, "Sp(3)/Sp(1)Sp(2)", ["A1", "B2"], False),
        (3, 1, "Sp(3)/U(3)", ["A2"], True),
    ],
    ("D", 4): [
        (1, 1, "SO(8)/SO(2)SO(6)", ["A3"], True),
        (2, 2, "SO(8)/SO(4)SO(4)", ["A1", "A1", "A1", "A1"], False),
        (3, 1, "SO(8)/U(4)", ["A3"], True),
        (4, 1, "SO(8)/U(4)", ["A3"], True),
    ],
    ("G", 2): [
        (1, 3, "G2/A2", ["A2"], False),
        (2, 2, "G2/A1A1", ["A1", "A1"], False),
    ],
    ("F", 4): [
        (1, 2, "F4/A1C3", ["A1", "C3"], False),
        (2, 3, "F4/A2A2", ["A2", "A2"], False),
        (4, 2, "F4/B4", ["B4"], False),
    ],
    ("E", 6): [
        (1, 1, "E6/D5T1", ["D5"], True),
        (2, 2, "E6/A1A5", ["A1", "A5"], False),
        (3, 2, "E6/A1A5", ["A1", "A5"], False),
        (4, 3, "E6/A2A2A2", ["A2", "A2", "A2"], False),
        (5, 2, "E6/A1A5", ["A1", "A5"], False),
        (6, 1, "E6/D5T1", ["D5"], True),
    ],
    ("E", 7): [
        (1, 2, "E7/A1D6", ["A1", "D6"], False),
        (2, 2, "E7/A7", ["A7"], False),
        (3, 3, "E7/A2A5", ["A2", "A5"], False),
        (5, 3, "E7/A2A5", ["A2", "A5"], False),
        (6, 2, "E7/A1D6", ["A1", "D6"], False),
        (7, 1, "E7/E6T1", ["E6"], True),
    ],
    ("E", 8): [
        (1, 2, "E8/D8", ["D8"], False),
        (2, 3, "E8/A8", ["A8"], False),
        (5, 5, "E8/A4A4", ["A4", "A4"], False),
        (7, 3, "E8/A2E6", ["A2", "E6"], False),
        (8, 2, "E8/A1E7", ["A1", "E7"], False),
    ],
}


@pytest.mark.parametrize("family,rank", sorted(DELETION_TABLES))
def test_bds_enumerate_tables(family, rank):
    got = [
        (
            c.psi0,
            c.n0,
            c.base_label,
            sorted(x.label for x in c.k_components),
            c.has_circle_factor,
        )
        for c in bds_enumerate(SimpleType(family, rank))
    ]
    assert got == DELETION_TABLES[(family, rank)]


def test_equal_rank_vertex_count():
    for st in [("B", 4), ("C", 4), ("D", 5), ("E", 7), ("F", 4), ("G", 2)]:
        stype = SimpleType(*st)
        for c in bds_enumerate(stype):
            if c.n0 > 1:
                assert c.k_diagram.n_vertices == stype.rank
            else:
                assert c.k_diagram.n_vertices == stype.rank - 1
            ranks = sum(x.stype.rank for x in c.k_components)
            assert ranks + (1 if c.has_circle_factor else 0) == stype.rank


def test_dimension_bookkeeping():
    # dim g = dim k + dim m with dimensions from root counts
    for st in [("A", 4), ("B", 3), ("D", 4), ("F", 4), ("E", 6)]:
        stype = SimpleType(*st)
        rs = build_root_system(stype)
        dim_g = stype.rank + len(rs.all_roots)
        for c in bds_enumerate(stype):
            dim_k = sum(x.dimension for x in c.k_components)
            if c.has_circle_factor:
                dim_k += 1
            assert 0 < dim_k < dim_g


# --- splittings --------------------------------------------------------------

def _case(family, rank, psi0):
    for c in bds_enumerate(SimpleType(family, rank)):
        if c.psi0 == psi0:
            return c
    raise LookupError


def test_splittings_simple_k_empty():
    assert splittings(_case("E", 8, 2)) == ()  # E8/A8
    assert splittings(_case("G", 2, 1)) == ()  # G2/A2
    assert splittings(_case("F", 4, 4)) == ()  # F4/B4
    assert splittings(_case("E", 7, 2)) == ()  # E7/A7


def test_splittings_cached_per_case():
    case = _case("E", 7, 3)
    recs = splittings(case)
    # a tuple of frozen records: the cached value cannot be mutated
    assert isinstance(recs, tuple) and recs
    assert splittings(case) is recs
    # an equal case built anew hits the same entry
    assert splittings(dataclasses.replace(case)) is recs
    # the catalog emits the cached records themselves
    full = catalog(CatalogConfig(families=("E7",))).records
    assert [r for r in full if r.psi0 == case.psi0] == list(recs)


def test_splittings_su_case_six_records():
    recs = splittings(_case("A", 4, 2))  # SU(5)/S(U(2)U(3))
    assert len(recs) == 6
    assert sorted(r.k1_label for r in recs) == [
        "SU(2)", "SU(2)SU(3)", "SU(3)", "T1", "U(2)", "U(3)",
    ]
    slugs = {r.slug for r in recs}
    assert all(r.swap_slug in slugs for r in recs)


def test_splittings_hermitian_pair():
    recs = splittings(_case("A", 2, 1))  # SU(3)/S(U(1)U(2))
    assert len(recs) == 2
    assert sorted(r.mtilde_label for r in recs) == ["SU(3)/SU(2)", "SU(3)/T1"]
    assert {r.k2_label for r in recs} == {"T1", "SU(2)"}


def test_splittings_closed_under_swap():
    for case in bds_enumerate(SimpleType("E", 6)):
        recs = splittings(case)
        by_slug = {r.slug: r for r in recs}
        for r in recs:
            partner = by_slug[r.swap_slug]
            assert partner.k1_indexes == r.k2_indexes
            assert partner.k2_indexes == r.k1_indexes


def test_f4_long_short_tags():
    recs = splittings(_case("F", 4, 2))
    tags = sorted(r.k1_length_tags for r in recs)
    assert tags == [("long",), ("short",)]
    # both factors present with the same letter label
    assert {r.mtilde_label for r in recs} == {"F4/A2"}


def test_e8_two_bundles():
    recs = splittings(_case("E", 8, 5))
    assert len(recs) == 2
    assert {r.slug for r in recs} == {"e8-a4a4--k1-0a4", "e8-a4a4--k1-1a4"}
    assert all(not r.outer_proxy_exception for r in recs)
    assert all(r.euler_characteristic == 48384 for r in recs)


def test_so8_four_factor_splittings():
    recs = splittings(_case("D", 4, 2))
    assert len(recs) == 14  # 2^4 - 2 ordered bipartitions
    assert {r.k1_label for r in recs} == {"A1", "A1A1", "A1A1A1", "SO(4)"}


# --- euler characteristics ---------------------------------------------------

def test_chi_values():
    assert chi_from_types(SimpleType("A", 2), [SimpleType("A", 1)]) == 3
    assert chi_from_types(
        SimpleType("G", 2), [SimpleType("A", 1), SimpleType("A", 1)]
    ) == 3
    assert chi_from_types(
        SimpleType("E", 8), [SimpleType("A", 4), SimpleType("A", 4)]
    ) == 48384
    # degenerate K = G
    assert chi_from_types(SimpleType("E", 8), [SimpleType("E", 8)]) == 1


def test_euler_characteristic_on_records():
    recs = splittings(_case("A", 2, 1))
    for r in recs:
        assert euler_characteristic(r) == 3 == r.euler_characteristic


def test_euler_characteristic_rejects_rank_deficient():
    rec = stiefel_records(1, 1)[0]
    assert rec.euler_characteristic == 0
    with pytest.raises(ValueError):
        euler_characteristic(rec)


def test_chi_non_divisible_raises():
    with pytest.raises(ArithmeticError):
        chi_from_types(SimpleType("A", 2), [SimpleType("B", 2)])


# --- diagram automorphisms ---------------------------------------------------

AUT_ORDERS = {
    ("A", 1): 1, ("A", 3): 2, ("A", 5): 2,
    ("B", 3): 1, ("C", 4): 1,
    ("D", 4): 6, ("D", 5): 2,
    ("E", 6): 2, ("E", 7): 1, ("E", 8): 1,
    ("F", 4): 1, ("G", 2): 1,
}


@pytest.mark.parametrize("family,rank", sorted(AUT_ORDERS))
def test_diagram_automorphism_orders(family, rank):
    order, perms = diagram_automorphisms(diagram_of(SimpleType(family, rank)))
    assert order == AUT_ORDERS[(family, rank)]
    assert len(perms) == order
    assert tuple(range(rank)) in perms


def test_automorphisms_preserve_structure():
    d = diagram_of(SimpleType("D", 4))
    adj = d.adjacency()
    _, perms = diagram_automorphisms(d)
    for p in perms:
        for i in range(d.n_vertices):
            assert d.sq_length(i) == d.sq_length(p[i])
            for j in range(d.n_vertices):
                assert adj[i].get(j, 0) == adj[p[i]].get(p[j], 0)


@pytest.mark.parametrize("family,rank", [("F", 4), ("E", 8), ("G", 2), ("C", 4), ("B", 3)])
def test_diagram_lengths_are_integers(family, rank):
    for case in bds_enumerate(SimpleType(family, rank)):
        d = case.k_diagram
        assert all(type(x) is int for r in d.roots for x in r)
        assert all(type(d.sq_length(i)) is int for i in range(d.n_vertices))
        assert all(type(x) is int for c in case.k_components for x in c.sq_lengths)


# --- outer-symmetry proxy and exception flags --------------------------------

def test_proxy_counts_su22():
    recs = splittings(_case("A", 3, 2))  # SU(4)/S(U(2)U(2))
    by_k1 = {}
    for r in recs:
        by_k1.setdefault(r.k1_label, set()).add(r.isometry_component_counts)
        assert r.outer_proxy_exception  # s = t flagged
    # the chain flip fixes psi0, swaps the two SU(2) blocks, fixes the circle
    assert by_k1["T1"] == {(2, 2)}
    assert by_k1["SU(2)SU(2)"] == {(2, 2)}
    assert by_k1["SU(2)"] == {(1, 1)}
    assert by_k1["U(2)"] == {(1, 1)}


def test_proxy_counts_e6_a2a2a2():
    recs = splittings(_case("E", 6, 4))
    assert {r.isometry_component_counts for r in recs} == {(1, 1), (2, 2)}
    assert all(r.outer_proxy_exception for r in recs)


def test_stiefel_counts():
    for r in stiefel_records(1, 2):
        assert r.isometry_component_counts == (2, 1)
        assert not r.equal_rank
        assert not r.outer_proxy_exception
    for r in stiefel_records(2, 2):
        assert r.outer_proxy_exception  # s = t


def test_exception_flags_catalog_wide():
    res = catalog(CatalogConfig())
    flagged = {r.base_label for r in res.records if r.outer_proxy_exception}
    assert flagged == {
        "SU(4)/S(U(2)U(2))", "SU(6)/S(U(3)U(3))", "SU(8)/S(U(4)U(4))",
        "Sp(2)/Sp(1)Sp(1)", "Sp(4)/Sp(2)Sp(2)", "Sp(6)/Sp(3)Sp(3)",
        "Sp(8)/Sp(4)Sp(4)",
        "SO(8)/SO(4)SO(4)", "SO(12)/SO(6)SO(6)", "SO(16)/SO(8)SO(8)",
        "E6/A2A2A2",
        "SO(6)/SO(3)SO(3)", "SO(10)/SO(5)SO(5)", "SO(14)/SO(7)SO(7)",
        "SO(18)/SO(9)SO(9)",
    }
    # explicitly not flagged
    unflagged = {r.base_label for r in res.records if not r.outer_proxy_exception}
    assert "F4/A2A2" in unflagged
    assert "E8/A4A4" in unflagged


# --- catalog -----------------------------------------------------------------

def test_catalog_deterministic():
    a = catalog(CatalogConfig())
    b = catalog(CatalogConfig())
    assert [r.slug for r in a.records] == [r.slug for r in b.records]


def test_catalog_family_filter():
    res = catalog(CatalogConfig(families=("E",)))
    assert {r.g_label for r in res.records} == {"E6", "E7", "E8"}
    labels = {r.base_label for r in res.records}
    assert {"E8/A1E7", "E8/A2E6", "E8/A4A4"} <= labels


def test_catalog_rank_cap():
    res = catalog(CatalogConfig(families=("A",), rank_cap=2))
    assert {r.base_label for r in res.records} == {"SU(3)/S(U(1)U(2))"}
    with pytest.raises(ValueError, match="rank cap"):
        CatalogConfig(families=("A",), rank_cap=0)


def test_rank_cap_beyond_bounds_caps_every_family():
    # a cap above the largest supported rank stops each family at its own
    # upper bound instead of naming an out-of-bounds type
    types = _types_in_scope(dict.fromkeys("ABCDEFG"), 25)
    top = {}
    for t in types:
        top[t.family] = max(top.get(t.family, 0), t.rank)
    assert top == {"A": 24, "B": 24, "C": 24, "D": 24, "E": 8, "F": 4, "G": 2}
    assert _types_in_scope({"A": None}, 25)[-1] == SimpleType("A", 24)


@pytest.mark.parametrize("cap", [-3, 25, 10**9])
def test_catalog_config_rejects_rank_cap_out_of_range(cap):
    # the largest rank any family supports, 24, bounds the cap: a larger
    # one would only enumerate more Stiefel records (about cap^2 / 2)
    with pytest.raises(ValueError, match="between 1 and 24"):
        CatalogConfig(rank_cap=cap)
    assert CatalogConfig(rank_cap=24).rank_cap == 24


def test_catalog_class_filter():
    res = catalog(CatalogConfig(classes=("nearly-kaehler",)))
    assert {r.base_label for r in res.records} == {
        "E6/A2A2A2", "E7/A2A5", "E8/A2E6", "F4/A2A2",
    }


def test_catalog_simple_k_cases():
    res = catalog(CatalogConfig(classes=("nearly-kaehler",), include_simple_k=True))
    simple = {c.base_label for c in res.cases if c.is_simple_k}
    assert simple == {"G2/A2", "E8/A8"}
    # simple cases contribute no records either way
    assert {r.base_label for r in res.records} == {
        "E6/A2A2A2", "E7/A2A5", "E8/A2E6", "F4/A2A2",
    }


def test_catalog_mirror_dedup():
    res = catalog(CatalogConfig(families=("A",)))
    su5 = [r for r in res.records if r.base_label == "SU(5)/S(U(2)U(3))"]
    assert len(su5) == 6
    resd = catalog(CatalogConfig(families=("D",), classes=("hermitian",)))
    u5 = [r for r in resd.records if r.base_label == "SO(10)/U(5)"]
    assert len(u5) == 2
    # in the full catalog no signature survives from two deletions
    full = catalog(CatalogConfig(include_simple_k=True))
    psi_by_key: dict[tuple, set] = {}
    for r in full.records:
        if r.psi0 is not None:
            key = (r.base_label, r.k1_label, r.k2_label, r.k1_length_tags)
            psi_by_key.setdefault(key, set()).add(r.psi0)
    assert all(len(psis) == 1 for psis in psi_by_key.values())
    # the deletions are dropped per type before the class filter: each class
    # alone is exactly the full catalog's records of that class, in order
    for cls in CLASS_NAMES:
        alone = catalog(CatalogConfig(classes=(cls,), include_simple_k=True))
        assert alone.records == tuple(r for r in full.records if r.base_class == cls)


def test_exact_half_needs_only_the_standard_library():
    # a fresh interpreter: enumeration and golden diff load no numpy
    child = (
        "import sys\n"
        f"sys.path.insert(0, {str(Path(isofib.__file__).parents[1])!r})\n"
        "from isofib import dynkin\n"
        "res = dynkin.catalog(dynkin.CatalogConfig(include_simple_k=True))\n"
        "goldens = {name: dynkin.load_golden(name) for name in dynkin.GOLDEN_FILES}\n"
        "diff = dynkin.golden_diff(dynkin.golden_projection(res), goldens)\n"
        "print(len(diff), 'numpy' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out == ["0", "False"]


def test_catalog_chi_always_positive_integer():
    res = catalog(CatalogConfig())
    for r in res.records:
        if r.equal_rank:
            assert isinstance(r.euler_characteristic, int)
            assert r.euler_characteristic > 0
        else:
            assert r.euler_characteristic == 0


def test_catalog_invalid_inputs():
    with pytest.raises(ValueError):
        CatalogConfig(families=("X",))
    for label in ("B1", "E9", "AB", ""):
        with pytest.raises(ValueError):
            CatalogConfig(families=(label,))
    with pytest.raises(ValueError):
        CatalogConfig(classes=("riemannian",))


def test_stiefel_range_and_labels():
    res = catalog(CatalogConfig(classes=("stiefel",)))
    assert len(res.records) == 32  # 16 (s,t) pairs, two sides each
    assert "SO(6)/SO(3)SO(3)" in {r.base_label for r in res.records}
    for r in res.records:
        assert r.base_class == "stiefel"
        assert r.model_available
    with pytest.raises(ValueError):
        stiefel_records(0, 1)


# --- golden files ------------------------------------------------------------

def test_golden_files_match_catalog():
    res = catalog(CatalogConfig(include_simple_k=True))
    proj = golden_projection(res)
    goldens = {name: load_golden(name) for name in GOLDEN_FILES}
    assert golden_diff(proj, goldens) == []


def test_golden_diff_detects_mismatch():
    res = catalog(CatalogConfig(include_simple_k=True))
    proj = golden_projection(res)
    goldens = {name: load_golden(name) for name in GOLDEN_FILES}
    goldens["5-symmetric"] = dict(goldens["5-symmetric"])
    goldens["5-symmetric"]["bases"] = {"E8/A4A4": ["tampered"]}
    diff = golden_diff(proj, goldens)
    assert diff and any("5-symmetric" in line for line in diff)
