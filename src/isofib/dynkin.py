"""Diagram-level enumeration of isotropy-splitting fibrations.

Construction implemented here: for a compact simple G, take the extended
diagram (simple roots plus the lowest root -b).  Delete one simple root
psi0 whose coefficient n0 in the highest root is 1 or prime.

  n0 = 1   : K = K' x circle, K' spanned by the remaining simple roots
             (hermitian base; no lowest root adjoined).
  n0 prime : adjoin -b; K is the equal-rank semisimple subgroup spanned by
             the remaining vertices.

Whenever K has at least two factors (counting the circle), every bipartition
(K1, K2) of the factors gives a fibration G/K1 -> G/K with fiber K2, and K2
acts on the total space by isometries on the right.  The base class is read
off n0: 1 hermitian, 2 symmetric, 3 nearly-kaehler, 5 5-symmetric.

Alongside the equal-rank enumeration, the rank-deficient family
SO(2s+2t+2) / [SO(2s+1) x SO(2t+1)] (s, t >= 1) is injected explicitly;
it is the only non-equal-rank splitting and is enumerated over the
documented range s + t <= rank cap.

Naming notes.  Classical bases use matrix-group names (SO(5)/SO(4) is
presented symplectically as Sp(2)/Sp(1)Sp(1), its quaternion-Kaehler
presentation, matching the rank-2 coincidence so(5) = sp(2)).  Circle
factors are written T1, except in SO(2)xSO(2n-2)-type isotropy where the
circle is the SO(2) factor.  The Euler characteristic of an equal-rank base
is the exact integer |W_G| / |W_K|; rank-deficient records carry the 0
marker instead.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from typing import Iterable, Sequence

from .rootsys import (
    _RANK_BOUNDS,
    RootSystem,
    SimpleType,
    Vector,
    build_root_system,
    dot,
    highest_root,
    weyl_order,
)

_FAMILY_ORDER = "ABCDEFG"
_CLASS_BY_N0 = {1: "hermitian", 2: "symmetric", 3: "nearly-kaehler", 5: "5-symmetric"}
CLASS_NAMES = ("hermitian", "symmetric", "nearly-kaehler", "5-symmetric", "stiefel")

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class DynkinDiagram:
    """Vertices carry their generating root (doubled integer ambient
    coordinates, as in ``rootsys``) and an origin marker; edges carry the
    bond multiplicity."""

    labels: tuple[str, ...]
    roots: tuple[Vector, ...]
    edges: tuple[tuple[int, int, int], ...]
    origins: tuple[int, ...]  # index of the simple root, or -1 for the lowest root

    @property
    def n_vertices(self) -> int:
        return len(self.labels)

    def sq_length(self, i: int) -> int:
        return dot(self.roots[i], self.roots[i])

    def adjacency(self) -> dict[int, dict[int, int]]:
        adj: dict[int, dict[int, int]] = {i: {} for i in range(self.n_vertices)}
        for i, j, m in self.edges:
            adj[i][j] = m
            adj[j][i] = m
        return adj


@dataclass(frozen=True)
class DiagramComponent:
    stype: SimpleType
    vertex_ids: tuple[int, ...]
    sq_lengths: tuple[int, ...]

    @property
    def label(self) -> str:
        return str(self.stype)

    @property
    def dimension(self) -> int:
        # dim = rank + number of roots of the component's type
        rs = build_root_system(self.stype)
        return self.stype.rank + len(rs.all_roots)


@dataclass(frozen=True)
class BdSCase:
    """One admissible deletion: the isotropy group K of G/K with its
    component decomposition and classical part names."""

    ambient: SimpleType
    psi0: int  # 1-based index of the deleted simple root
    n0: int
    k_diagram: DynkinDiagram
    k_components: tuple[DiagramComponent, ...]
    has_circle_factor: bool
    base_class: str
    g_label: str
    base_label: str
    named_parts: tuple[tuple[str, tuple[int, ...]], ...]
    circle_part_name: str | None
    quaternion_kaehler: bool

    @property
    def is_simple_k(self) -> bool:
        return len(self.k_components) + (1 if self.has_circle_factor else 0) < 2


@dataclass(frozen=True)
class FibrationRecord:
    """One fibration G/K1 -> G/K: a bipartition of K's factors."""

    g_label: str
    ambient: SimpleType | None
    base_label: str
    base_class: str
    n0: int | None
    psi0: int | None
    equal_rank: bool
    k_component_types: tuple[tuple[str, int], ...]
    k_component_labels: tuple[str, ...]  # one per component, circle excluded
    has_circle_factor: bool
    k1_indexes: tuple[int, ...]  # indexes into components; circle index = len(comps)
    k2_indexes: tuple[int, ...]
    k1_label: str
    k2_label: str
    mtilde_label: str
    slug: str
    swap_slug: str
    euler_characteristic: int  # 0 marker when equal_rank is False
    isometry_component_counts: tuple[int, int]
    outer_proxy_exception: bool
    quaternion_kaehler: bool
    model_spec: tuple | None
    k1_length_tags: tuple[str, ...]
    k2_length_tags: tuple[str, ...]

    @property
    def model_available(self) -> bool:
        return self.model_spec is not None


def diagram_from_roots(
    labels: Sequence[str], roots: Sequence[Vector], origins: Sequence[int]
) -> DynkinDiagram:
    """Build a diagram from a list of roots; bond multiplicity between two
    roots a, b is the product of their Cartan integers.  Rejects multiplicity
    above 3 (proportional or non-root-like pairs)."""
    edges = []
    m = len(roots)
    norms = [dot(r, r) for r in roots]
    for i in range(m):
        for j in range(i + 1, m):
            twice = 2 * dot(roots[i], roots[j])
            nij, rij = divmod(twice, norms[j])
            nji, rji = divmod(twice, norms[i])
            if rij or rji:
                raise ValueError("non-integral Cartan pairing in diagram build")
            if nij > 0:
                raise ValueError("acute pair; diagram vertices must be a base")
            mult = nij * nji
            if mult > 3:
                raise ValueError("bond multiplicity above 3; vertices not a base")
            if mult:
                edges.append((i, j, mult))
    return DynkinDiagram(
        labels=tuple(labels), roots=tuple(roots), edges=tuple(edges), origins=tuple(origins)
    )


@lru_cache(maxsize=None)
def diagram_of(stype: SimpleType) -> DynkinDiagram:
    rs = build_root_system(stype)
    labels = tuple(f"a{i+1}" for i in range(rs.rank))
    return diagram_from_roots(labels, rs.simple_roots, tuple(range(rs.rank)))


def extended_diagram(stype: SimpleType) -> DynkinDiagram:
    """Simple roots plus the lowest root (labelled '-b', origin -1)."""
    rs = build_root_system(stype)
    hr = highest_root(rs)
    lowest = tuple(-x for x in hr.vector)
    labels = tuple(f"a{i+1}" for i in range(rs.rank)) + ("-b",)
    roots = rs.simple_roots + (lowest,)
    return diagram_from_roots(labels, roots, tuple(range(rs.rank)) + (-1,))


def _connected_components(d: DynkinDiagram) -> list[tuple[int, ...]]:
    adj = d.adjacency()
    seen: set[int] = set()
    comps = []
    for start in range(d.n_vertices):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(tuple(sorted(comp)))
    comps.sort(key=lambda c: c[0])
    return comps


def _arm_lengths(adj: dict[int, dict[int, int]], vids: Sequence[int], center: int) -> list[int]:
    arms = []
    for nb in sorted(adj[center]):
        if nb not in vids:
            continue
        length = 1
        prev, cur = center, nb
        while True:
            nxts = [w for w in adj[cur] if w in vids and w != prev]
            if not nxts:
                break
            if len(nxts) > 1:
                raise ValueError("nested branch vertex; not a simple-type diagram")
            prev, cur = cur, nxts[0]
            length += 1
        arms.append(length)
    return sorted(arms)


def _classify_one(d: DynkinDiagram, vids: tuple[int, ...]) -> SimpleType:
    n = len(vids)
    adj = d.adjacency()
    sub = {v: {w: m for w, m in adj[v].items() if w in vids} for v in vids}
    degrees = {v: len(sub[v]) for v in vids}
    mults = sorted(m for v in vids for m in sub[v].values())
    lengths = sorted({d.sq_length(v) for v in vids})

    if any(m == 3 for m in mults):
        if n == 2:
            return SimpleType("G", 2)
        raise ValueError("triple bond in a component of size != 2")

    if any(m == 2 for m in mults):
        doubles = [(v, w) for v in vids for w, m in sub[v].items() if m == 2 and v < w]
        if len(doubles) != 1 or max(degrees.values()) > 2:
            raise ValueError("unrecognized multiply-laced component")
        if n == 2:
            return SimpleType("B", 2)
        if len(lengths) != 2:
            raise ValueError("double bond without two root lengths")
        shorts = sum(1 for v in vids if d.sq_length(v) == lengths[0])
        longs = n - shorts
        if n == 4 and shorts == 2 and longs == 2:
            return SimpleType("F", 4)
        if shorts == 1:
            return SimpleType("B", n)
        if longs == 1:
            return SimpleType("C", n)
        raise ValueError("unrecognized B/C/F component shape")

    # simply laced
    if len(lengths) != 1:
        raise ValueError("single-bond component with mixed root lengths")
    deg3 = [v for v in vids if degrees[v] == 3]
    if any(degrees[v] > 3 for v in vids):
        raise ValueError("vertex of degree above 3")
    if not deg3:
        return SimpleType("A", n)
    if len(deg3) > 1:
        raise ValueError("more than one branch vertex")
    arms = _arm_lengths(adj, vids, deg3[0])
    if arms[0] == 1 and arms[1] == 1:
        return SimpleType("D", n)
    if arms == [1, 2, 2]:
        return SimpleType("E", 6)
    if arms == [1, 2, 3]:
        return SimpleType("E", 7)
    if arms == [1, 2, 4]:
        return SimpleType("E", 8)
    raise ValueError(f"unrecognized branched diagram with arms {arms}")


def classify_components(d: DynkinDiagram) -> list[DiagramComponent]:
    """Split a diagram into connected components and identify each simple
    type.  Components keep their vertex ids and squared root lengths, so
    factors of equal type but different length class stay distinguishable."""
    out = []
    for vids in _connected_components(d):
        stype = _classify_one(d, vids)
        out.append(
            DiagramComponent(
                stype=stype,
                vertex_ids=vids,
                sq_lengths=tuple(d.sq_length(v) for v in vids),
            )
        )
    return out


def length_tag(d: DynkinDiagram, comp: DiagramComponent) -> str:
    """'long' / 'short' / 'mixed' relative to the root lengths present in the
    whole diagram; '' when the diagram has a single length."""
    all_lengths = {d.sq_length(v) for v in range(d.n_vertices)}
    if len(all_lengths) == 1:
        return ""
    mx, mn = max(all_lengths), min(all_lengths)
    cl = set(comp.sq_lengths)
    if cl == {mx}:
        return "long"
    if cl == {mn}:
        return "short"
    return "mixed"


@lru_cache(maxsize=None)
def diagram_automorphisms(d: DynkinDiagram) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """All vertex permutations preserving squared lengths and bond
    multiplicities, by backtracking.  Returns (order, permutations); the
    permutation tuples map vertex i to perm[i]."""
    n = d.n_vertices
    adj = d.adjacency()

    def signature(v: int):
        return (
            d.sq_length(v),
            sorted((m, d.sq_length(w)) for w, m in adj[v].items()),
        )

    sigs = [signature(v) for v in range(n)]
    candidates = [[w for w in range(n) if sigs[w] == sigs[v]] for v in range(n)]
    perms: list[tuple[int, ...]] = []
    assign: list[int] = []
    used: set[int] = set()

    def extend(v: int) -> None:
        if v == n:
            perms.append(tuple(assign))
            return
        for w in candidates[v]:
            if w in used:
                continue
            ok = True
            for u in range(v):
                if adj[v].get(u, 0) != adj[w].get(assign[u], 0):
                    ok = False
                    break
            if ok:
                assign.append(w)
                used.add(w)
                extend(v + 1)
                assign.pop()
                used.remove(w)

    extend(0)
    perms.sort()
    return len(perms), tuple(perms)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    p = 2
    while p * p <= n:
        if n % p == 0:
            return False
        p += 1
    return True


def _sorted_pair(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a <= b else (b, a)


def _comp_index_of_vertices(comps: Sequence[DiagramComponent], vids: set[int]) -> tuple[int, ...]:
    out = []
    for i, c in enumerate(comps):
        if set(c.vertex_ids) <= vids:
            out.append(i)
        elif set(c.vertex_ids) & vids:
            raise AssertionError("named part does not respect components")
    return tuple(out)


def _classical_naming(
    stype: SimpleType,
    psi0: int,
    n0: int,
    comps: Sequence[DiagramComponent],
    kd: DynkinDiagram,
) -> tuple[str, str, tuple[tuple[str, tuple[int, ...]], ...], str | None, bool]:
    """g_label, base_label, named parts (classical name -> component indexes),
    circle part name, quaternion-kaehler flag."""
    f, n = stype.family, stype.rank
    origin_to_vertex = {o: v for v, o in enumerate(kd.origins)}

    def part_for_origins(origins: Iterable[int]) -> tuple[int, ...]:
        vids = {origin_to_vertex[o] for o in origins if o in origin_to_vertex}
        return _comp_index_of_vertices(comps, vids)

    if f == "A":
        s, t = psi0, n + 1 - psi0
        g = f"SU({n+1})"
        lo, hi = _sorted_pair(s, t)
        base = f"{g}/S(U({lo})U({hi}))"
        parts = []
        if s >= 2:
            parts.append((f"SU({s})", part_for_origins(range(psi0 - 1))))
        if t >= 2:
            parts.append((f"SU({t})", part_for_origins(range(psi0, n))))
        return g, base, tuple(parts), "T1", False

    if f == "B":
        g = f"SO({2*n+1})"
        if n0 == 1:
            # psi0 = a1
            base = f"{g}/SO(2)SO({2*n-1})"
            parts = ((f"SO({2*n-1})", part_for_origins(range(1, n))),)
            return g, base, parts, "SO(2)", False
        i = psi0
        if i == n and n == 2:
            # so(5) = sp(2): K = A1A1 presented symplectically
            parts = (
                ("Sp(1)", part_for_origins([0])),
                ("Sp(1)", part_for_origins([-1])),
            )
            return "Sp(2)", "Sp(2)/Sp(1)Sp(1)", parts, None, True
        if i == n:
            base = f"{g}/SO({2*n})"  # sphere; simple K
            parts = ((f"SO({2*n})", part_for_origins(list(range(n - 1)) + [-1])),)
            return g, base, parts, None, False
        s, t = 2 * i, 2 * (n - i) + 1
        lo, hi = _sorted_pair(s, t)
        base = f"{g}/SO({lo})SO({hi})"
        parts = (
            (f"SO({s})", part_for_origins(list(range(i - 1)) + [-1])),
            (f"SO({t})", part_for_origins(range(i, n))),
        )
        return g, base, parts, None, min(s, t) in (3, 4)

    if f == "C":
        g = f"Sp({n})"
        if n0 == 1:
            base = f"{g}/U({n})"
            parts = ((f"SU({n})", part_for_origins(range(n - 1))),)
            return g, base, parts, "T1", False
        i = psi0
        lo, hi = _sorted_pair(i, n - i)
        base = f"{g}/Sp({lo})Sp({hi})"
        parts = (
            (f"Sp({i})", part_for_origins(list(range(i - 1)) + [-1])),
            (f"Sp({n-i})", part_for_origins(range(i, n))),
        )
        return g, base, parts, None, min(i, n - i) == 1

    if f == "D":
        g = f"SO({2*n})"
        if n0 == 1:
            if psi0 == 1:
                base = f"{g}/SO(2)SO({2*n-2})"
                parts = ((f"SO({2*n-2})", part_for_origins(range(1, n))),)
                return g, base, parts, "SO(2)", False
            base = f"{g}/U({n})"
            keep = [o for o in range(n) if o != psi0 - 1]
            parts = ((f"SU({n})", part_for_origins(keep)),)
            return g, base, parts, "T1", False
        i = psi0
        s, t = 2 * i, 2 * (n - i)
        lo, hi = _sorted_pair(s, t)
        base = f"{g}/SO({lo})SO({hi})"
        parts = (
            (f"SO({s})", part_for_origins(list(range(i - 1)) + [-1])),
            (f"SO({t})", part_for_origins(range(i, n))),
        )
        return g, base, parts, None, min(s, t) in (3, 4)

    # exceptional families: letter naming
    g = str(stype)
    comp_labels = sorted(c.label for c in comps)
    circle = "T1" if n0 == 1 else None
    base = f"{g}/{''.join(comp_labels)}{circle or ''}"
    parts = tuple((c.label, (i,)) for i, c in enumerate(comps))
    qk = n0 == 2 and len(comps) >= 2
    return g, base, parts, circle, qk


@lru_cache(maxsize=None)
def bds_enumerate(stype: SimpleType) -> tuple[BdSCase, ...]:
    """All admissible deletions for one simple type, one case per simple
    root whose highest-root coefficient is 1 or prime."""
    rs = build_root_system(stype)
    hr = highest_root(rs)
    lowest = tuple(-x for x in hr.vector)
    cases = []
    for idx, coeff in enumerate(hr.coefficients):
        if coeff != 1 and not _is_prime(coeff):
            continue
        n0 = coeff
        keep = [j for j in range(rs.rank) if j != idx]
        labels = [f"a{j+1}" for j in keep]
        roots = [rs.simple_roots[j] for j in keep]
        origins = list(keep)
        if n0 > 1:
            labels.append("-b")
            roots.append(lowest)
            origins.append(-1)
        kd = diagram_from_roots(labels, roots, origins)
        comps = tuple(classify_components(kd))
        if n0 > 1 and kd.n_vertices != rs.rank:
            raise AssertionError("equal-rank deletion lost a vertex")
        g_label, base_label, parts, circle_name, qk = _classical_naming(
            stype, idx + 1, n0, comps, kd
        )
        cases.append(
            BdSCase(
                ambient=stype,
                psi0=idx + 1,
                n0=n0,
                k_diagram=kd,
                k_components=comps,
                has_circle_factor=(n0 == 1),
                base_class=_CLASS_BY_N0[n0],
                g_label=g_label,
                base_label=base_label,
                named_parts=parts,
                circle_part_name=circle_name,
                quaternion_kaehler=qk,
            )
        )
    return tuple(cases)


def _slugify(text: str) -> str:
    out = []
    for ch in text.lower():
        if ch.isalnum():
            out.append(ch)
        elif ch == "/" and out and out[-1] != "-":
            out.append("-")
    return "".join(out)


def _k_side_label(case: BdSCase, side: tuple[int, ...]) -> str:
    """Human label for one side of a bipartition.  Uses the classical part
    names when the side is exactly a union of named parts (plus, for the
    unitary family, the circle completing an SU part to U); otherwise falls
    back to letter-type component labels."""
    ncomps = len(case.k_components)
    circle_idx = ncomps
    has_circle = case.has_circle_factor and circle_idx in side
    comp_side = frozenset(i for i in side if i != circle_idx)

    part_map = {frozenset(idxs): name for name, idxs in case.named_parts}
    # exact union of named parts?
    remaining = set(comp_side)
    chosen: list[str] = []
    for idxs, name in sorted(part_map.items(), key=lambda kv: kv[1]):
        if set(idxs) <= remaining:
            chosen.append(name)
            remaining -= set(idxs)
    if not remaining:
        names = sorted(chosen)
        if has_circle:
            if len(names) == 1 and names[0].startswith("SU("):
                return "U(" + names[0][3:]
            if case.circle_part_name == "SO(2)":
                names = ["SO(2)"] + names
            else:
                names = names + ["T1"]
        if not names:
            return "T1" if case.circle_part_name != "SO(2)" else "SO(2)"
        return "".join(names)
    # fallback: letter labels
    names = sorted(case.k_components[i].label for i in comp_side)
    if has_circle:
        names.append("T1")
    return "".join(names)


def chi_from_types(
    g_stype: SimpleType, k_types: Sequence[SimpleType]
) -> int:
    """|W_G| / prod |W_Ki| as an exact integer (circle factors contribute 1);
    raises if the quotient is not integral."""
    num = weyl_order(build_root_system(g_stype))
    den = 1
    for kt in k_types:
        den *= weyl_order(build_root_system(kt))
    q, r = divmod(num, den)
    if r != 0:
        raise ArithmeticError(
            f"|W_G|={num} not divisible by |W_K|={den} for {g_stype} case"
        )
    return q


def euler_characteristic(rec: FibrationRecord) -> int:
    """Euler characteristic of the base G/K of an equal-rank record."""
    if not rec.equal_rank:
        raise ValueError(
            "rank-deficient record: Euler characteristic is 0 by convention "
            "and is stored on the record directly"
        )
    assert rec.ambient is not None
    return chi_from_types(
        rec.ambient, [SimpleType(f, r) for f, r in rec.k_component_types]
    )


def _outer_proxy_count(case: BdSCase, k1_comp_idxs: frozenset[int]) -> int:
    """Automorphisms of the ambient diagram fixing the deleted vertex and
    stabilizing the K1 component set (the lowest-root vertex is always
    fixed).  A combinatorial stand-in for the group of outer symmetries."""
    gd = diagram_of(case.ambient)
    _, perms = diagram_automorphisms(gd)
    psi_idx = case.psi0 - 1
    kd = case.k_diagram
    origin_to_vertex = {o: v for v, o in enumerate(kd.origins)}
    k1_vertices = set()
    for i in k1_comp_idxs:
        k1_vertices |= set(case.k_components[i].vertex_ids)
    count = 0
    for p in perms:
        if p[psi_idx] != psi_idx:
            continue
        image = set()
        ok = True
        for v in k1_vertices:
            o = kd.origins[v]
            if o == -1:
                image.add(v)
                continue
            io = p[o]
            if io not in origin_to_vertex:
                ok = False
                break
            image.add(origin_to_vertex[io])
        if ok and image == k1_vertices:
            count += 1
    return count


def _is_outer_exception(case: BdSCase) -> bool:
    """Case labels where the diagram proxy is known not to equal the true
    outer symmetry group: orthocomplementation families (equal-factor
    Grassmannian-type bases) and E6/A2A2A2."""
    f, n = case.ambient.family, case.ambient.rank
    if f == "A" and n % 2 == 1 and case.psi0 == (n + 1) // 2:
        return True  # SU(2k)/S(U(k)U(k))
    if f == "C" and case.n0 == 2 and 2 * case.psi0 == n:
        return True  # Sp(2k)/Sp(k)Sp(k)
    if f == "D" and case.n0 == 2 and 2 * case.psi0 == n:
        return True  # SO(4i)/SO(2i)SO(2i)
    if f == "B" and n == 2 and case.psi0 == 2:
        return True  # Sp(2)/Sp(1)Sp(1)
    if f == "E" and n == 6 and case.base_label == "E6/A2A2A2":
        return True
    return False


@lru_cache(maxsize=None)
def splittings(case: BdSCase) -> tuple[FibrationRecord, ...]:
    """All bipartitions of K's factors (components plus circle) into
    (K1, K2), both nonempty.  Output is closed under the swap; simple K
    yields no records.  Cached per case, like `bds_enumerate` per type."""
    ncomps = len(case.k_components)
    nfactors = ncomps + (1 if case.has_circle_factor else 0)
    if nfactors < 2:
        return ()
    base_slug = _slugify(case.base_label)
    chi = chi_from_types(
        case.ambient, [c.stype for c in case.k_components]
    )
    exception = _is_outer_exception(case)
    kd = case.k_diagram
    tags = tuple(length_tag(kd, c) for c in case.k_components)

    def side_slug(side: tuple[int, ...]) -> str:
        bits = []
        for i in side:
            if i == ncomps:
                bits.append("t1")
            else:
                bits.append(f"{i}{case.k_components[i].label.lower()}")
        return "-".join(bits)

    records = []
    all_idx = tuple(range(nfactors))
    for mask in range(1, 2**nfactors - 1):
        k1 = tuple(i for i in all_idx if mask >> i & 1)
        k2 = tuple(i for i in all_idx if not mask >> i & 1)
        k1_label = _k_side_label(case, k1)
        k2_label = _k_side_label(case, k2)
        slug = f"{base_slug}--k1-{side_slug(k1)}"
        swap = f"{base_slug}--k1-{side_slug(k2)}"
        proxy = _outer_proxy_count(case, frozenset(i for i in k1 if i < ncomps))
        model_spec = _model_spec_for(case, k1)
        records.append(
            FibrationRecord(
                g_label=case.g_label,
                ambient=case.ambient,
                base_label=case.base_label,
                base_class=case.base_class,
                n0=case.n0,
                psi0=case.psi0,
                equal_rank=True,
                k_component_types=tuple(
                    (c.stype.family, c.stype.rank) for c in case.k_components
                ),
                k_component_labels=tuple(c.label for c in case.k_components),
                has_circle_factor=case.has_circle_factor,
                k1_indexes=k1,
                k2_indexes=k2,
                k1_label=k1_label,
                k2_label=k2_label,
                mtilde_label=f"{case.g_label}/{k1_label}",
                slug=slug,
                swap_slug=swap,
                euler_characteristic=chi,
                isometry_component_counts=(proxy, proxy),
                outer_proxy_exception=exception,
                quaternion_kaehler=case.quaternion_kaehler,
                model_spec=model_spec,
                k1_length_tags=tuple(tags[i] for i in k1 if i < ncomps),
                k2_length_tags=tuple(tags[i] for i in k2 if i < ncomps),
            )
        )
    return tuple(sorted(records, key=lambda r: r.k1_indexes))


def _model_spec_for(case: BdSCase, k1: tuple[int, ...]) -> tuple | None:
    """Concrete matrix models exist for the unitary family: blocks are
    SU(s) (cols 0..s-1), SU(t) (cols s..s+t-1) and the circle."""
    if case.ambient.family != "A":
        return None
    n = case.ambient.rank
    s, t = case.psi0, n + 1 - case.psi0
    ncomps = len(case.k_components)
    kd = case.k_diagram
    blocks: list[str] = []
    for i in k1:
        if i == ncomps:
            blocks.append("z")
            continue
        origins = {kd.origins[v] for v in case.k_components[i].vertex_ids}
        # block 1 holds simple roots 0..psi0-2, block 2 holds psi0..n-1
        blocks.append("b1" if max(origins) < case.psi0 - 1 else "b2")
    return ("su", s, t, tuple(sorted(set(blocks))))


def stiefel_records(s: int, t: int) -> list[FibrationRecord]:
    """The rank-deficient family SO(2s+2t+2)/[SO(2s+1) x SO(2t+1)], s,t >= 1.
    Euler characteristic carries the 0 marker; isometry component counts are
    (2, 1): the full isometry group has exactly one extra component, from
    the orientation-reversing block reflection."""
    if s < 1 or t < 1:
        raise ValueError("stiefel family needs s, t >= 1")
    n = 2 * s + 2 * t + 2
    g_label = f"SO({n})"
    lo, hi = _sorted_pair(2 * s + 1, 2 * t + 1)
    base_label = f"{g_label}/SO({lo})SO({hi})"
    base_slug = _slugify(base_label)

    def ctype(m: int) -> tuple[str, int]:
        return ("A", 1) if m == 1 else ("B", m)

    comp_types = (ctype(s), ctype(t))
    comp_labels = (f"SO({2*s+1})", f"SO({2*t+1})")
    recs = []
    for k1_pos in (0, 1):
        k2_pos = 1 - k1_pos
        slug = f"{base_slug}--k1-{k1_pos}so{2*(s if k1_pos == 0 else t)+1}"
        swap = f"{base_slug}--k1-{k2_pos}so{2*(s if k2_pos == 0 else t)+1}"
        recs.append(
            FibrationRecord(
                g_label=g_label,
                ambient=None,
                base_label=base_label,
                base_class="stiefel",
                n0=None,
                psi0=None,
                equal_rank=False,
                k_component_types=comp_types,
                k_component_labels=comp_labels,
                has_circle_factor=False,
                k1_indexes=(k1_pos,),
                k2_indexes=(k2_pos,),
                k1_label=comp_labels[k1_pos],
                k2_label=comp_labels[k2_pos],
                mtilde_label=f"{g_label}/{comp_labels[k1_pos]}",
                slug=slug,
                swap_slug=swap,
                euler_characteristic=0,
                isometry_component_counts=(2, 1),
                outer_proxy_exception=(s == t),
                quaternion_kaehler=False,
                model_spec=("so_odd", s, t, k1_pos),
                k1_length_tags=("",),
                k2_length_tags=("",),
            )
        )
    return recs


@dataclass(frozen=True)
class CatalogConfig:
    # letters ("E": the whole family) or letter+rank labels ("E8", "A5":
    # that one type); None = all
    families: tuple[str, ...] | None = None
    rank_cap: int = 8
    classes: tuple[str, ...] | None = None  # subset of CLASS_NAMES; None = all
    include_simple_k: bool = False

    def __post_init__(self) -> None:
        for f in self.families or ():
            _parse_family(f)
        if self.classes is not None:
            bad = [c for c in self.classes if c not in CLASS_NAMES]
            if bad:
                raise ValueError(f"unknown classes {bad}; expected {CLASS_NAMES}")


@dataclass(frozen=True)
class CatalogResult:
    config: CatalogConfig
    cases: tuple[BdSCase, ...]  # all admissible deletions (incl. simple K)
    records: tuple[FibrationRecord, ...]


def _parse_family(f: str) -> tuple[str, int | None]:
    """(letter, rank) for a family filter; rank None for a bare letter.
    Case and surrounding spaces are ignored; a label must name a valid
    simple type, so B1 or E9 is as unknown as H."""
    f = f.strip().upper()
    if len(f) == 1 and f in _FAMILY_ORDER:
        return f, None
    if len(f) > 1 and f[1:].isdigit():
        stype = SimpleType(f[0], int(f[1:]))
        return stype.family, stype.rank
    raise ValueError(f"unknown family {f!r}; expected a letter A..G or a label like E8")


def _family_scope(cfg: CatalogConfig) -> dict[str, set[int] | None]:
    """Selected ranks per family letter; None selects the whole family."""
    if cfg.families is None:
        return dict.fromkeys(_FAMILY_ORDER)
    scope: dict[str, set[int] | None] = {}
    for letter, rank in map(_parse_family, cfg.families):
        ranks = scope.setdefault(letter, set())
        if rank is None:
            scope[letter] = None
        elif ranks is not None:
            ranks.add(rank)
    return scope


def _types_in_scope(scope: dict[str, set[int] | None], rank_cap: int) -> list[SimpleType]:
    out = []
    for f in _FAMILY_ORDER:
        if f not in scope:
            continue
        lo, hi = _RANK_BOUNDS[f]
        for r in range(lo, min(rank_cap, hi) + 1):
            if scope[f] is None or r in scope[f]:
                out.append(SimpleType(f, r))
    return out


def catalog(cfg: CatalogConfig | None = None) -> CatalogResult:
    """Enumerate fibration records over all simple types within the rank cap,
    plus the rank-deficient family over s + t <= rank cap.  For family
    labels the rank-deficient SO(2s+2t+2) records count as type D_{s+t+1}
    (D4 selects SO(8)/SO(3)SO(5)) while the rank cap still bounds s + t.
    Deterministic order: family letter, rank, deleted vertex, K1 bitmask;
    the rank-deficient records follow, ordered by (s + t, s, side)."""
    cfg = cfg or CatalogConfig()
    scope = _family_scope(cfg)
    cases: list[BdSCase] = []
    records: list[FibrationRecord] = []
    want_class = (
        set(cfg.classes) if cfg.classes is not None else set(CLASS_NAMES)
    )
    for stype in _types_in_scope(scope, cfg.rank_cap):
        for case in bds_enumerate(stype):
            if case.base_class not in want_class:
                continue
            if case.is_simple_k and not cfg.include_simple_k:
                continue
            cases.append(case)
            records.extend(splittings(case))
    # Mirror deletions (psi0 = s versus psi0 = s + t - ... of the unitary
    # family, or the two U(n) vertices of SO(2n)) yield label-identical
    # records; keep the smallest psi0 per label signature.  Same-case
    # repeats (E8/A4A4's two bundles, equal-factor splits) are kept.
    min_psi: dict[tuple, int] = {}
    for r in records:
        if r.psi0 is None:
            continue
        key = (r.base_label, r.k1_label, r.k2_label, r.k1_length_tags)
        if key not in min_psi or r.psi0 < min_psi[key]:
            min_psi[key] = r.psi0
    records = [
        r
        for r in records
        if r.psi0 is None
        or min_psi[(r.base_label, r.k1_label, r.k2_label, r.k1_length_tags)] == r.psi0
    ]
    if "stiefel" in want_class and "D" in scope:
        for tot in range(2, cfg.rank_cap + 1):
            if scope["D"] is not None and tot + 1 not in scope["D"]:
                continue
            for s in range(1, tot):
                t = tot - s
                if s > t:
                    continue
                for rec in stiefel_records(s, t):
                    records.append(rec)
    return CatalogResult(config=cfg, cases=tuple(cases), records=tuple(records))


def record_to_dict(rec: FibrationRecord) -> dict:
    """Stable-key-order dict for serialization."""
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fibration_record",
        "slug": rec.slug,
        "g": rec.g_label,
        "base": rec.base_label,
        "mtilde": rec.mtilde_label,
        "class": rec.base_class,
        "n0": rec.n0,
        "psi0": rec.psi0,
        "equal_rank": rec.equal_rank,
        "k_components": list(rec.k_component_labels),
        "has_circle_factor": rec.has_circle_factor,
        "k1": rec.k1_label,
        "k2": rec.k2_label,
        "k1_indexes": list(rec.k1_indexes),
        "k2_indexes": list(rec.k2_indexes),
        "k1_length_tags": [t for t in rec.k1_length_tags if t],
        "euler_characteristic": rec.euler_characteristic,
        "isometry_component_counts": list(rec.isometry_component_counts),
        "outer_proxy_exception": rec.outer_proxy_exception,
        "quaternion_kaehler": rec.quaternion_kaehler,
        "model_available": rec.model_available,
        "swap_slug": rec.swap_slug,
    }


# ---------------------------------------------------------------------------
# golden projections

GOLDEN_FILES = {
    "hermitian": "class_hermitian.json",
    "symmetric": "class_symmetric.json",
    "nearly-kaehler": "class_nearly_kaehler.json",
    "5-symmetric": "class_5_symmetric.json",
    "stiefel": "class_stiefel.json",
}


def golden_projection(result: CatalogResult) -> dict:
    """Reduce a catalog run to the comparison form stored in the golden
    files: per class, the sorted base labels and (where meaningful) the
    fibration label sets per base."""
    by_class: dict[str, dict] = {}

    herm: dict[str, set[str]] = {}
    for r in result.records:
        if r.base_class == "hermitian":
            herm.setdefault(r.base_label, set()).add(r.mtilde_label)
    by_class["hermitian"] = {
        "bases": {b: sorted(v) for b, v in sorted(herm.items())}
    }

    symm = sorted({r.base_label for r in result.records if r.base_class == "symmetric"})
    qk = sorted(
        {
            r.base_label
            for r in result.records
            if r.base_class == "symmetric" and r.quaternion_kaehler
        }
    )
    by_class["symmetric"] = {"bases": symm, "quaternion_kaehler": qk}

    nk_split = sorted(
        {r.base_label for r in result.records if r.base_class == "nearly-kaehler"}
    )
    nk_simple = sorted(
        {
            c.base_label
            for c in result.cases
            if c.base_class == "nearly-kaehler" and c.is_simple_k
        }
    )
    by_class["nearly-kaehler"] = {"simple": nk_simple, "split": nk_split}

    five: dict[str, list[str]] = {}
    for r in result.records:
        if r.base_class == "5-symmetric":
            five.setdefault(r.base_label, []).append(r.slug)
    by_class["5-symmetric"] = {
        "bases": {b: sorted(v) for b, v in sorted(five.items())}
    }

    sti = sorted({r.base_label for r in result.records if r.base_class == "stiefel"})
    by_class["stiefel"] = {"bases": sti}
    return by_class


def load_golden(name: str) -> dict:
    path = resources.files("isofib").joinpath("golden", GOLDEN_FILES[name])
    with path.open("r", encoding="utf-8") as fh:
        return json.load(fh)


def golden_diff(projection: dict, goldens: dict[str, dict]) -> list[str]:
    """Human-readable diff lines between a catalog projection and the golden
    content; empty means exact match."""
    lines: list[str] = []

    def walk(path: str, got, want) -> None:
        if isinstance(want, dict) and isinstance(got, dict):
            for k in sorted(set(want) | set(got)):
                if k not in got:
                    lines.append(f"{path}.{k}: missing from catalog")
                elif k not in want:
                    lines.append(f"{path}.{k}: not in golden")
                else:
                    walk(f"{path}.{k}", got[k], want[k])
        elif got != want:
            lines.append(f"{path}: catalog={got!r} golden={want!r}")

    for cls, golden in goldens.items():
        body = {k: v for k, v in golden.items() if not k.startswith("_") and k != "schema_version"}
        walk(cls, projection.get(cls), body)
    return lines
