"""Whole-package acceptance run: one test per shipped guarantee.

Exercises the public surface end to end at the tolerances promised in the
README: catalog golden lists, Weyl-order cross-checks, orbit spans, model
invariants, the two length/displacement dichotomies, reversal
certificates, and Euler characteristic integrality.  Each test prints a
single summary line and asserts a wall-clock budget so a verbose run
reads as a checklist.
"""
import itertools
import time
from fractions import Fraction as Q

import numpy as np
import pytest

from isofib import cli
from isofib.dynkin import CatalogConfig, catalog, record_to_dict
from isofib.homspace import (
    Isometry,
    KillingField,
    displacement_profile,
    fixed_point_certificate,
    haar_orthogonal,
    haar_point,
    killing_length,
    sample_subgroup_element,
)
from isofib.liealg import (
    bracket,
    build_model,
    find_record,
    natural_reductivity_check,
)
from isofib.rootsys import (
    SimpleType,
    build_root_system,
    product_system,
    weyl_order,
    weyl_order_bfs,
    weyl_orbit_spans,
)

SMALL_TYPES = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 3), ("C", 4),
    ("D", 4),
    ("F", 4), ("G", 2),
]

E_ORDERS = {6: 51_840, 7: 2_903_040, 8: 696_729_600}

MODEL_ALIASES = ("su3-hopf", "so6-stiefel")


def _cli(argv):
    args = cli.build_parser().parse_args(argv)
    cfg = cli.config_from_args(args)
    cmd = {
        "catalog": cli.cmd_catalog,
        "verify": cli.cmd_verify,
        "selfcheck": cli.cmd_selfcheck,
    }[cfg.command]
    return cmd(cfg)


def _line(name: str, detail: str, t0: float) -> None:
    print(f"acceptance {name}: PASS ({detail}; {time.perf_counter() - t0:.1f}s)")


@pytest.fixture(scope="module")
def models():
    return [build_model(find_record(a)) for a in MODEL_ALIASES]


def test_catalog_golden_zero_diffs():
    t0 = time.perf_counter()
    code, payload = _cli(["catalog", "--golden"])
    assert code == 0
    assert payload["failures"] == []
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(
        "catalog-golden",
        f"0 diffs, {len(payload['records'])} records",
        t0,
    )


def test_weyl_orders_generation_vs_degree_product():
    t0 = time.perf_counter()
    for family, rank in SMALL_TYPES:
        rs = build_root_system(SimpleType(family, rank))
        assert weyl_order_bfs(rs) == weyl_order(rs), (family, rank)
    # the degree-product path asserts exponent integrality internally and
    # must land on the known orders for the large exceptional types
    for rank, want in E_ORDERS.items():
        assert weyl_order(build_root_system(SimpleType("E", rank))) == want
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(
        "weyl-orders",
        f"{len(SMALL_TYPES)} generated orders + E6..E8 degree products",
        t0,
    )


# coefficient grid p/q, p in {-1,0,1}, q in {1,2,3,4}; exhaustive for
# rank <= 2, a deterministic 40-vector slice for higher ranks
GRID_FRACTIONS = [Q(p, q) for q in (1, 2, 3, 4) for p in (-1, 0, 1)]


def _grid_vectors(rs):
    if rs.rank <= 2:
        pool = itertools.product(GRID_FRACTIONS, repeat=rs.rank)
    else:
        pool = (
            tuple(
                GRID_FRACTIONS[(i + 5 * j) % len(GRID_FRACTIONS)]
                for j in range(rs.rank)
            )
            for i in range(40)
        )
    out = []
    for coeffs in pool:
        if all(c == 0 for c in coeffs):
            continue
        out.append(
            tuple(
                sum(c * r[k] for c, r in zip(coeffs, rs.simple_roots))
                for k in range(rs.ambient_dim)
            )
        )
    return out


def test_weyl_orbit_spans_grid_with_negative_control():
    t0 = time.perf_counter()
    checked = 0
    for family, rank in SMALL_TYPES:
        rs = build_root_system(SimpleType(family, rank))
        for v in _grid_vectors(rs):
            assert weyl_orbit_spans(rs, v), (family, rank, v)
            checked += 1
    # reducible control: a vector inside one factor of A1 x A1 cannot span
    ab = product_system(
        build_root_system(SimpleType("A", 1)),
        build_root_system(SimpleType("A", 1)),
    )
    assert not weyl_orbit_spans(ab, ab.simple_roots[0])
    _line("orbit-spans", f"{checked} grid vectors span; control rejects", t0)


def test_model_invariants_and_reductivity():
    t0 = time.perf_counter()
    worst = 0.0
    for alias in MODEL_ALIASES:
        model = build_model(find_record(alias))
        worst = max(worst, natural_reductivity_check(model))
        # no nonzero vector of m commutes with all of k: the stacked
        # bracket map must have full column rank, exactly
        k_basis = list(model.k1.basis) + list(model.k2.basis)
        cols = [
            np.concatenate([bracket(kb, mb).ravel() for kb in k_basis])
            for mb in model.m_basis
        ]
        stacked = np.column_stack(cols)
        assert np.linalg.matrix_rank(stacked) == len(model.m_basis), alias
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _line(
        "model-invariants",
        f"2 models valid, reductivity residual {worst:.3e}",
        t0,
    )


def test_killing_length_dichotomy(models):
    t0 = time.perf_counter()
    n_points = 200
    for model in models:
        rng = np.random.default_rng(42)
        pts = [haar_point(model, rng) for _ in range(n_points)]

        def unit(mat):
            return mat / np.sqrt(model.kappa_ip(mat, mat))

        for _ in range(20):
            coeffs = rng.normal(size=len(model.k2.basis))
            eta = unit(sum(c * b for c, b in zip(coeffs, model.k2.basis)))
            field = KillingField(model, "right", eta)
            vals = [killing_length(field, p) for p in pts]
            assert max(vals) - min(vals) < 1e-9, model.name
        for _ in range(50):
            coeffs = rng.normal(size=len(model.g.basis))
            xi = unit(sum(c * b for c, b in zip(coeffs, model.g.basis)))
            field = KillingField(model, "left", xi)
            vals = [killing_length(field, p) for p in pts]
            assert max(vals) - min(vals) > 1e-3, model.name
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _line(
        "killing-dichotomy",
        f"2 models x (20 vertical + 50 generic) fields x {n_points} points",
        t0,
    )


def test_displacement_dichotomy(models):
    t0 = time.perf_counter()
    n_constant = n_certified = 0
    for model in models:
        rng = np.random.default_rng(42)
        centers = model.center_elements

        central = []
        for i in range(10):
            c = centers[i % len(centers)]
            y = sample_subgroup_element(model, model.k2_factors, rng)
            central.append(Isometry(model, left=c, right=y, label=f"central-{i}"))

        noncentral = []
        for factors in (model.k1_factors, model.k2_factors):
            made = 0
            while made < 5:
                k = sample_subgroup_element(model, factors, rng)
                if min(np.linalg.norm(k - c) for c in centers) > 0.3:
                    noncentral.append(Isometry(model, left=k))
                    made += 1

        for iso in central:
            report = displacement_profile(iso, n_samples=16, seed=42)
            assert report.verdict == "constant-within-tol", (model.name, iso.label)
            n_constant += 1
        for iso in noncentral:
            report = displacement_profile(iso, n_samples=16, seed=42)
            assert report.verdict == "certified-nonconstant", model.name
            n_certified += 1
    assert n_constant >= 20 and n_certified >= 20
    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0
    _line(
        "displacement-dichotomy",
        f"{n_constant} constant + {n_certified} certified, 0 inconclusive",
        t0,
    )


def test_reversal_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        A = haar_orthogonal(6, rng, special=False)
        if np.linalg.det(A) > 0:
            A[:, 0] = -A[:, 0]
        cert = fixed_point_certificate(A, 1, 1)
        assert cert.dimension == 3
        assert cert.residual < 1e-9
        worst = max(worst, cert.residual)
    # the half-reversal returns the leading coordinate 3-plane exactly
    block = np.diag([1.0, 1.0, 1.0, -1.0, -1.0, -1.0])
    cert = fixed_point_certificate(block, 1, 1)
    proj = cert.basis @ cert.basis.T
    assert np.array_equal(proj, np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]))
    _line("reversal-certificates", f"100 planes, worst residual {worst:.3e}", t0)


def test_euler_characteristics_integral_and_positive():
    t0 = time.perf_counter()
    result = catalog(CatalogConfig(include_simple_k=True))
    n_checked = 0
    for rec in result.records:
        d = record_to_dict(rec)
        if not d["equal_rank"]:
            continue
        chi = d["euler_characteristic"]
        assert isinstance(chi, int) and chi > 0, d["slug"]
        n_checked += 1
    assert n_checked >= 300
    _line("euler-characteristics", f"{n_checked} records, all integral > 0", t0)
