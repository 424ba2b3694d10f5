"""Command-line front end: catalog emission, golden verification, numeric
verification runs on concrete models, and a structural selfcheck.

Outputs are deterministic for a fixed configuration: the seed and every
tolerance are echoed into each artifact, JSON keys are sorted, and no
timestamps or environment data enter the stream.  Exit codes: 0 when every
check passes, 1 when a check fails, 2 for configuration or lookup errors.
Failure lines name the library claim they contradict by a stable slug.
"""
from __future__ import annotations

import argparse
import csv
import functools
import importlib.util
import io
import json
import math
import operator
import os
import sys
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING

from . import CERT_RESIDUAL_TOL, CONSTANT_SPREAD_TOL, COSET_TOL, GAP_TOL, dynkin
from .dynkin import CatalogConfig, catalog, golden_diff, golden_projection, load_golden
from .rootsys import SimpleType, build_root_system, weyl_order, weyl_order_bfs

if TYPE_CHECKING:
    import numpy as np


def _lazy_module(name: str):
    """The module `name`, bound now and executed on its first attribute
    access (the `importlib.util.LazyLoader` recipe), or the module already
    imported under that name.

    Only `verify` and `selfcheck` use the numeric half, so `catalog` loads
    neither it nor numpy.  A plain import inside the verify code would
    leave both modules out of `sys.modules`, where span tracers look up
    what they wrap: `perfbench/tracing.py`'s `Tracer.install` then fails
    `test_wrappers_replace_every_binding_and_nest` and
    `test_cold_child_spans_merge_as_one_request` with
    `KeyError: 'isofib.liealg'`."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


liealg = _lazy_module(f"{__package__}.liealg")
homspace = _lazy_module(f"{__package__}.homspace")

DEFAULT_TOLERANCES = {
    "structural": 1e-9,  # natural-reductivity and validation residuals
    "coset": COSET_TOL,  # coset-matching residuals (logs, fixed fibers)
    "length": 1e-9,  # allowed spread of a constant-length field
    "constant": CONSTANT_SPREAD_TOL,  # relative spread, constant displacement
    "gap": GAP_TOL,  # certified separation, nonconstant displacement
    "cert": CERT_RESIDUAL_TOL,  # invariant-plane certificate residual
}


@dataclass
class RunConfig:
    command: str
    families: tuple[str, ...] | None = None
    rank_cap: int = 8
    classes: tuple[str, ...] | None = None
    simple_k: bool = False
    golden: bool = False
    case_id: str = ""
    seed: int = 42
    samples: int = 16
    fmt: str = "text"
    out: str = ""
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def echo(self) -> dict:
        d = asdict(self)
        d.pop("out")
        return d


class ConfigError(Exception):
    pass


# The upper cap of verify's samples: a job's chord stack holds about 4 x
# samples points, each with a grid of 256 angles per column on a circle
# model.
MAX_SAMPLES = 1024


# --- checks ---------------------------------------------------------------------


# Solver outputs below this floor are roundoff: their digits vary between
# runs of one input (summation order follows memory alignment), so check
# details print them as "< 1e-12".  So do structural residuals such as the
# natural-reductivity residual, whose digits follow the roundoff in the
# model's bases.  Verdicts compare the unrounded values.
SOLVER_FLOOR = 1e-12


def _solver_value(x: float, spec: str = ".3e") -> str:
    return f"< {SOLVER_FLOOR:.0e}" if x < SOLVER_FLOOR else format(x, spec)


def _noncentral_sample(
    model: liealg.GroupModel,
    factors: tuple[liealg.BlockFactor, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """A subgroup sample kept away from the center, so the nonconstancy
    prediction applies to it."""
    import numpy as np

    for _ in range(64):
        k = homspace.sample_subgroup_element(model, factors, rng)
        if all(np.linalg.norm(k - z) > 0.3 for z in model.center_elements):
            return k
    raise RuntimeError("could not draw a sample away from the center")


def _verify_checks(cfg: RunConfig, model: liealg.GroupModel) -> list[dict]:
    import numpy as np

    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    checks: list[dict] = []

    def add(name: str, claim: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "claim": claim, "passed": bool(passed), "detail": detail})

    # structural package (build_model already validated; the residual is
    # computed once per model)
    nr = model.natural_reductivity_residual
    add(
        "natural-reductivity",
        "normal-metric-naturally-reductive",
        nr < tol["structural"],
        f"residual {_solver_value(nr)} (tol {tol['structural']:.1e}); dims g={model.dim_g} "
        f"k1={model.dim_k1} k2={model.dim_k2} m1={model.dim_m1} m={model.dim_m}",
    )

    haar = homspace.haar_points(model, rng, max(cfg.samples, 4) - 1)
    pts = homspace.concat([homspace.base_point(model), haar])

    # right-invariant fields have constant length
    spreads = []
    for _ in range(3):
        c = rng.normal(size=model.dim_k2)
        eta = model.k2.from_coords(c)
        f = homspace.KillingField(model, "right", eta)
        spreads.append(np.ptp(homspace.killing_lengths(f, pts)))
    add(
        "right-length-constant",
        "right-translation-fields-constant-length",
        max(spreads) < tol["length"],
        f"max spread {max(spreads):.3e} over 3 fields x {len(pts)} points "
        f"(tol {tol['length']:.1e})",
    )

    # generic left fields do not have constant length
    spreads = []
    for _ in range(3):
        xi = model.g.from_coords(rng.normal(size=model.dim_g))
        f = homspace.KillingField(model, "left", xi)
        spreads.append(np.ptp(homspace.killing_lengths(f, pts)))
    add(
        "left-length-nonconstant",
        "generic-left-fields-nonconstant-length",
        min(spreads) > tol["gap"],
        f"min spread {min(spreads):.3e} over 3 generic fields (floor {tol['gap']:.1e})",
    )

    # geodesics along k2 directions stay in the base coset (the fiber)
    eta = model.k2.from_coords(rng.normal(size=model.dim_k2))
    eta = eta / max(model.m1_norm(eta), 1e-12)
    x0 = homspace.haar_points(model, rng, 1)
    ys = homspace.geodesic(x0, np.array([t * eta for t in (0.2, 0.9, 2.3)]), 1.0).reps
    U = np.broadcast_to(x0.reps, ys.shape)
    chords = homspace.chord_to_coset(model, U, ys, model.k1_factors + model.k2_factors)
    worst = float(chords.upper.max())
    add(
        "fiber-geodesic-vertical",
        "isotropy-direction-geodesics-stay-in-fiber",
        worst < tol["coset"],
        f"max base-coset residual {_solver_value(worst)} along the vertical geodesic",
    )

    # the log round trips are drawn first and solved in one lockstep call,
    # one problem each from its smart start.  Each central profile takes
    # its base point's log in closed form, which `share_logs` carries to
    # the other points.  Each bound-ordering
    # pair (x, y) takes its smart start xi0 as the upper bound ||xi0||, the
    # length of the curve x exp(t xi0) K1, and the lower bound of that
    # curve's end.  The lower bounds of those ends and of every profile
    # point come from one batched call; each noncentral profile takes its
    # one upper bound from its torus witness
    roundtrip, xis = [], []
    for _ in range(3):
        roundtrip.append(homspace.haar_points(model, rng, 1))
        c = rng.normal(size=model.dim_m1)
        xis.append(model.from_m1_coords(0.4 * c / np.linalg.norm(c)))
    ends = homspace.haar_points(model, rng, 8)
    gammas = []
    for i in range(2):
        # central x right translations, predicted constant
        z = model.center_elements[(i + 1) % len(model.center_elements)]
        k2 = homspace.sample_subgroup_element(model, model.k2_factors, rng)
        gammas.append(homspace.Isometry(model, left=z, right=k2, label=f"central-{i}"))
    for factors, label in ((model.k1_factors, "k1-left"), (model.k2_factors, "k2-left")):
        # noncentral left translations, predicted nonconstant
        k = _noncentral_sample(model, factors, rng)
        gammas.append(homspace.Isometry(model, left=k, label=label))
    samples = [homspace.sample_profile(g, cfg.samples, cfg.seed) for g in gammas]
    central, noncentral = samples[:2], samples[2:]
    xs = homspace.concat(roundtrip)
    ys = homspace.geodesic(xs, np.array(xis), 1.0)
    logs = homspace.riemannian_logs(xs, ys, tol["coset"])
    firsts = ends[0::2]
    starts = homspace.smart_starts(firsts, ends[1::2])
    curve_ends = homspace.geodesic(firsts, model.from_m1_coords(starts), 1.0)
    lowers = homspace.distance_lower_bound(
        homspace.concat([firsts, *(s.points for s in samples)]),
        homspace.concat([curve_ends, *(s.images for s in samples)]),
    )
    splits = np.cumsum([len(starts)] + [len(s.points) for s in samples])[:-1]
    ordered_lowers, *sample_lowers = (b.tolist() for b in np.split(lowers, splits))
    central_logs = [homspace.central_log(s.gamma, tol["coset"]) for s in central]
    central_reports = [
        homspace.profile_report(
            s, homspace.share_logs(s, log, tol["coset"]), low, tol["constant"], tol["gap"]
        )
        for s, log, low in zip(central, central_logs, sample_lowers)
    ]
    noncentral_reports = [
        homspace.witness_report(s, low, tol["coset"], tol["gap"])
        for s, low in zip(noncentral, sample_lowers[len(central) :])
    ]

    # log inverts the exponential at moderate range
    errs = [abs(log.upper - 0.4) if log.converged else float("inf") for log in logs]
    add(
        "log-roundtrip",
        "riemannian-log-inverts-geodesics",
        max(errs) < 1e-6,
        f"max |recovered - true| {_solver_value(max(errs))} over 3 pairs",
    )

    # lower bounds never exceed upper bounds: no curve's end lies farther
    # from its start than the curve's length
    uppers = np.linalg.norm(starts, axis=1).tolist()
    bad = max(0.0, *(lower - upper for lower, upper in zip(ordered_lowers, uppers)))
    add(
        "bounds-ordered",
        "chord-lower-bounds-below-log-upper-bounds",
        bad <= 1e-9,
        f"max (lower - upper) {_solver_value(bad)} over 4 random pairs",
    )

    # displacement: central x right translations are constant
    ok = all(r.verdict == "constant-within-tol" for r in central_reports)
    add(
        "displacement-central-constant",
        "center-times-right-translations-constant-displacement",
        ok,
        "; ".join(
            f"{r.label}: {r.verdict} (rel {_solver_value(r.rel_spread, '.1e')})"
            for r in central_reports
        ),
    )

    # displacement: noncentral left translations are certified nonconstant
    ok = all(r.verdict == "certified-nonconstant" for r in noncentral_reports)
    add(
        "displacement-noncentral-certified",
        "noncentral-left-translations-nonconstant-displacement",
        ok,
        "; ".join(
            f"{r.label}: {r.verdict} (gap {r.gap:.2e}; witness upper "
            f"{_solver_value(r.uppers[0])}, max lower {max(r.lowers):.3e})"
            for r in noncentral_reports
        ),
    )

    # fixed fibers: isotropy-type elements fix the base coset
    factors = model.k1_factors + model.k2_factors
    k = homspace.sample_subgroup_element(model, factors, rng)
    resid = float(homspace.chord_to_coset(model, k[None], np.eye(model.n), factors).upper[0])
    detail = f"isotropy sample residual {_solver_value(resid)}"
    ok = resid < tol["coset"]
    if model.record.equal_rank:
        # equal rank: every element fixes some base coset
        g = homspace.haar_points(model, rng, 1).reps[0]
        found2, resid2 = homspace.fixed_fiber(homspace.Isometry(model, left=g), tol["coset"])
        ok = ok and found2 is not None
        detail += f"; generic sample residual {_solver_value(resid2)}"
    add(
        "fixed-fiber-witness",
        "rotation-isometries-admit-fixed-base-cosets",
        ok,
        detail,
    )

    # odd Stiefel models, two odd SO blocks: reversal certificates
    factors = sorted(factors, key=lambda f: f.cols)
    if all(f.kind == "so" and len(f.cols) % 2 for f in factors):
        s, t = (len(f.cols) // 2 for f in factors)
        Qs = homspace.haar_matrices("o", model.n, rng, 10)
        Qs[:, :, 0] *= -np.sign(np.linalg.det(Qs))[:, None]
        worst = float(homspace.fixed_point_certificate(Qs, s, t).residual.max())
        add(
            "reversal-certificates",
            "orientation-reversing-elements-fix-odd-planes",
            worst < tol["cert"],
            f"max residual {_solver_value(worst)} over 10 reversals (tol {tol['cert']:.1e})",
        )

    return checks


def _golden_diffs() -> tuple[int, list[str]]:
    """Record count of the complete catalog (simple-K cases included) and
    its diff lines against the checked-in golden lists."""
    full = catalog(CatalogConfig(include_simple_k=True))
    goldens = {name: load_golden(name) for name in dynkin.GOLDEN_FILES}
    return len(full.records), golden_diff(golden_projection(full), goldens)


def _selfcheck_checks(cfg: RunConfig) -> list[dict]:
    checks: list[dict] = []

    def add(name: str, claim: str, passed: bool, detail: str) -> None:
        checks.append({"name": name, "claim": claim, "passed": bool(passed), "detail": detail})

    # Weyl group sizes: literal orbit-stabilizer BFS against the closed form
    mismatches = []
    count = 0
    for family, ranks in (
        ("A", (1, 2, 3, 4)),
        ("B", (2, 3, 4)),
        ("C", (3, 4)),
        ("D", (4,)),
        ("F", (4,)),
        ("G", (2,)),
    ):
        for r in ranks:
            if r > cfg.rank_cap:
                continue
            rs = build_root_system(SimpleType(family, r))
            count += 1
            if weyl_order_bfs(rs) != weyl_order(rs):
                mismatches.append(f"{family}{r}")
    add(
        "weyl-order-crosscheck",
        "reflection-group-order-matches-closed-form",
        not mismatches,
        f"{count} types compared" + (f"; mismatches {mismatches}" if mismatches else ""),
    )

    # diagram automorphisms: brute-force orders against the known table
    expected = {("A", 1): 1, ("A", 3): 2, ("D", 4): 6, ("E", 6): 2, ("F", 4): 1, ("G", 2): 1}
    bad = []
    count = 0
    for (fam, rank), want in expected.items():
        if rank > max(cfg.rank_cap, 4):
            continue
        count += 1
        d = dynkin.diagram_of(SimpleType(fam, rank))
        order, perms = dynkin.diagram_automorphisms(d)
        if order != want or len(perms) != want:
            bad.append(f"{fam}{rank}: got {order} want {want}")
        adj = d.adjacency()
        for perm in perms:
            broken = any(
                adj.get(perm[i], {}).get(perm[j]) != mult
                for i, nbrs in adj.items()
                for j, mult in nbrs.items()
            )
            if broken:
                bad.append(f"{fam}{rank}: permutation breaks the diagram")
    add(
        "diagram-automorphism-table",
        "symmetry-counts-match-brute-force",
        not bad,
        f"{count} diagrams checked" + (f"; {bad}" if bad else ""),
    )

    # golden catalog integrity
    n_records, diffs = _golden_diffs()
    add(
        "golden-catalog-match",
        "enumeration-reproduces-checked-in-lists",
        not diffs,
        f"{n_records} records vs {len(dynkin.GOLDEN_FILES)} golden files"
        + ("; first diffs: " + " | ".join(diffs[:10]) if diffs else ""),
    )

    # concrete models build and validate
    try:
        su3 = liealg.build_model(liealg.find_record("su3-hopf"))
        so6 = liealg.build_model(liealg.find_record("so6-stiefel"))
        nr = max(su3.natural_reductivity_residual, so6.natural_reductivity_residual)
        add(
            "model-validation",
            "concrete-models-satisfy-structural-invariants",
            nr < cfg.tolerances["structural"],
            f"both models validated; worst reductivity residual {_solver_value(nr)}",
        )
    except Exception as exc:  # validation errors carry the failing invariant
        add(
            "model-validation",
            "concrete-models-satisfy-structural-invariants",
            False,
            str(exc),
        )
    return checks


# --- commands -------------------------------------------------------------------


def _case_dict(case, record_count: int) -> dict:
    return {
        "base": case.base_label,
        "g": case.g_label,
        "class": case.base_class,
        "psi0": case.psi0,
        "n0": case.n0,
        "simple_k": case.is_simple_k,
        "splitting_records": record_count,
        "note": "no splitting" if case.is_simple_k else "",
    }


def cmd_catalog(cfg: RunConfig) -> tuple[int, dict]:
    res = catalog(
        CatalogConfig(
            families=cfg.families,
            rank_cap=cfg.rank_cap,
            classes=cfg.classes,
            include_simple_k=cfg.simple_k,
        )
    )
    by_base: dict[str, int] = {}
    for r in res.records:
        by_base[r.base_label] = by_base.get(r.base_label, 0) + 1
    payload = {
        "schema_version": dynkin.SCHEMA_VERSION,
        "command": "catalog",
        "config": cfg.echo(),
        "cases": [_case_dict(c, by_base.get(c.base_label, 0)) for c in res.cases],
        "records": list(res.records),  # frozen; `render` serializes them
        "failures": [],
    }
    code = 0
    if cfg.golden:
        # the golden lists cover the complete default catalog; diff that,
        # independent of any filters applied to the emitted stream
        _, diffs = _golden_diffs()
        payload["failures"] = [
            {"claim": "enumeration-reproduces-checked-in-lists", "detail": d}
            for d in diffs
        ]
        code = 1 if diffs else 0
    return code, payload


def cmd_verify(cfg: RunConfig) -> tuple[int, dict]:
    try:
        rec = liealg.find_record(cfg.case_id)
    except LookupError as exc:
        raise ConfigError(str(exc)) from exc
    if not rec.model_available:
        raise ConfigError(
            f"no concrete model for {rec.slug} ({rec.base_label}): catalog-only case"
        )
    model = liealg.build_model(rec)
    head = {"case": rec.slug, "base": rec.base_label, "total_space": rec.mtilde_label}
    return _checks_payload(cfg, head, _verify_checks(cfg, model))


def cmd_selfcheck(cfg: RunConfig) -> tuple[int, dict]:
    return _checks_payload(cfg, {}, _selfcheck_checks(cfg))


def _checks_payload(cfg: RunConfig, head: dict, checks: list[dict]) -> tuple[int, dict]:
    """(exit code, payload) of a check command: the envelope, the command's
    own head keys, its checks and one failure per failed check."""
    failed = [c for c in checks if not c["passed"]]
    failures = [{"claim": c["claim"], "detail": f"{c['name']}: {c['detail']}"} for c in failed]
    payload = {
        "schema_version": dynkin.SCHEMA_VERSION,
        "command": cfg.command,
        "config": cfg.echo(),
        **head,
        "checks": checks,
        "failures": failures,
    }
    return (1 if failures else 0), payload


# --- rendering --------------------------------------------------------------------


def _flatten(d: dict) -> dict:
    out = {}
    for k, v in d.items():
        if isinstance(v, (list, tuple)):
            out[k] = ";".join(str(x) for x in v)
        elif isinstance(v, dict):
            out[k] = json.dumps(v, sort_keys=True)
        else:
            out[k] = v
    return out


# A catalog serves the same frozen records request after request, so each
# record's JSON and CSV text is built once per process, in separate caches:
# a request builds only its own format.


def _cached_by_slug(build):
    """`build(rec)` cached per record slug.  Slugs are unique, and a slug's
    hash is stored with the string, while the frozen record's generated
    hash would hash every field again on each lookup."""
    cache: dict[str, str] = {}

    @functools.wraps(build)
    def cached(rec: dynkin.FibrationRecord) -> str:
        text = cache.get(rec.slug)
        if text is None:
            text = cache[rec.slug] = build(rec)
        return text

    return cached


@_cached_by_slug
def _record_json(rec: dynkin.FibrationRecord) -> str:
    """The record as the indented payload lays it out in its records
    array: every line after the first 4 spaces deeper."""
    text = json.dumps(dynkin.record_to_dict(rec), indent=2, sort_keys=True, default=str)
    return text.replace("\n", "\n    ")


@_cached_by_slug
def _record_csv(rec: dynkin.FibrationRecord) -> str:
    row = _flatten(dynkin.record_to_dict(rec))
    buf = io.StringIO()
    csv.DictWriter(buf, fieldnames=sorted(row)).writerow(row)
    return buf.getvalue()


# A case's fields are fixed per case but for its record count, which sorts
# last among its keys: the rest is cached as text that ends where the
# count's line begins.
_CASE_FIXED = ("base", "class", "g", "n0", "note", "psi0", "simple_k")
_case_fixed_values = operator.itemgetter(*_CASE_FIXED)


@functools.lru_cache(maxsize=None)
def _case_json_head(values: tuple) -> str:
    text = json.dumps(dict(zip(_CASE_FIXED, values)), indent=2, sort_keys=True, default=str)
    return text[: -len("\n}")].replace("\n", "\n    ")


def _case_json(case: dict) -> str:
    head = _case_json_head(_case_fixed_values(case))
    return f'{head},\n      "splitting_records": {case["splitting_records"]}\n    }}'


def render(payload: dict, fmt: str) -> str:
    records = payload.get("records")
    if fmt == "json":
        arrays = {}  # top-level key -> its array's text, as the envelope indents it
        if payload.get("cases"):
            arrays["cases"] = map(_case_json, payload["cases"])
        if records:
            arrays["records"] = map(_record_json, records)
        text = json.dumps(
            {**payload, **dict.fromkeys(arrays, [])}, indent=2, sort_keys=True, default=str
        )
        for key, items in arrays.items():
            # only a top-level key sits at exactly 2 spaces, and JSON strings
            # hold no raw newline, so this matches the envelope's key
            array = "[\n    " + ",\n    ".join(items) + "\n  ]"
            text = text.replace(f'\n  "{key}": []', f'\n  "{key}": {array}', 1)
        return text + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(payload["config"], sort_keys=True) + "\n")
        if records:
            fields = sorted(dynkin.record_to_dict(records[0]))
            csv.DictWriter(buf, fieldnames=fields).writeheader()
            buf.writelines(map(_record_csv, records))
        elif payload.get("checks"):
            rows = [_flatten(c) for c in payload["checks"]]
            writer = csv.DictWriter(buf, fieldnames=sorted(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
        return buf.getvalue()
    # text
    lines = [
        f"command: {payload['command']} (schema {payload['schema_version']})",
        "config: " + json.dumps(payload["config"], sort_keys=True),
    ]
    if payload["command"] == "catalog":
        lines.append(f"{len(records)} records, {len(payload['cases'])} cases")
        for c in payload["cases"]:
            if c["simple_k"]:
                lines.append(f"  case {c['base']} [{c['class']}]: no splitting")
        for r in records:
            lines.append(
                f"  {r.slug}: {r.mtilde_label} -> {r.base_label} "
                f"[{r.base_class}] chi={r.euler_characteristic}"
            )
    else:
        for c in payload.get("checks", []):
            status = "PASS" if c["passed"] else "FAIL"
            lines.append(f"  {status} {c['name']}: {c['detail']}")
    if payload.get("failures"):
        lines.append("failures:")
        for f in payload["failures"]:
            lines.append(f"  contradicts {f['claim']}: {f['detail']}")
    else:
        lines.append("all checks passed" if payload["command"] != "catalog" else "ok")
    return "\n".join(lines) + "\n"


# --- argument parsing ---------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use.  Each parse makes
    a fresh namespace and no argument's default is a mutable object that an
    action changes, so one call cannot leak into the next."""
    p = argparse.ArgumentParser(
        prog="isofib",
        description="Isotropy-splitting fibration catalog and numeric verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=RunConfig.seed)
        sp.add_argument("--samples", type=int, default=RunConfig.samples)
        sp.add_argument(
            "--format", choices=("json", "csv", "text"), default=RunConfig.fmt, dest="fmt"
        )
        sp.add_argument("--out", default=RunConfig.out, help="write the artifact to this path")
        for name in DEFAULT_TOLERANCES:
            sp.add_argument(
                f"--tol-{name}", type=float, default=None, dest=f"tol_{name}"
            )

    sp = sub.add_parser("catalog", help="emit the fibration catalog")
    sp.add_argument("--family", action="append", default=None,
                    help="restrict to a simple family: letter or letter+rank "
                         "label, e.g. E or E8 (repeatable)")
    sp.add_argument("--rank-cap", type=int, default=RunConfig.rank_cap)
    sp.add_argument("--class", action="append", default=None, dest="classes",
                    help="restrict to a geometry class (repeatable)")
    sp.add_argument("--simple-k", action="store_true",
                    help="include cases whose isotropy group is simple")
    sp.add_argument("--golden", action="store_true",
                    help="diff the catalog against the checked-in lists")
    common(sp)

    sp = sub.add_parser("verify", help="run the numeric suite on a concrete model")
    sp.add_argument("case_id",
                    help="record slug, unique slug prefix or alias (su3-hopf, so6-stiefel)")
    common(sp)

    sp = sub.add_parser("selfcheck", help="structural self-tests")
    sp.add_argument("--rank-cap", type=int, default=4)
    common(sp)
    return p


def config_from_args(args: argparse.Namespace) -> RunConfig:
    tolerances = dict(DEFAULT_TOLERANCES)
    for name in DEFAULT_TOLERANCES:
        override = getattr(args, f"tol_{name}", None)
        if override is not None:
            tolerances[name] = override
    return RunConfig(
        command=args.command,
        families=tuple(args.family) if getattr(args, "family", None) else None,
        rank_cap=getattr(args, "rank_cap", RunConfig.rank_cap),
        classes=tuple(args.classes) if getattr(args, "classes", None) else None,
        simple_k=getattr(args, "simple_k", RunConfig.simple_k),
        golden=getattr(args, "golden", RunConfig.golden),
        case_id=getattr(args, "case_id", RunConfig.case_id),
        seed=args.seed,
        samples=args.samples,
        fmt=args.fmt,
        out=args.out,
        tolerances=tolerances,
    )


def check_config(cfg: RunConfig) -> None:
    """Reject, before any work runs, inputs that would otherwise surface as
    a traceback or as a failed check."""
    out_dir = os.path.dirname(cfg.out)
    if out_dir and not os.path.isdir(out_dir):
        raise ConfigError(f"--out: no such directory {out_dir!r}")
    if os.path.isdir(cfg.out):
        raise ConfigError(f"--out: {cfg.out!r} is a directory")
    if cfg.out:
        try:
            os.stat(cfg.out)
        except FileNotFoundError:
            pass  # written after the run
        except OSError as exc:  # a name too long, a loop of symbolic links, ...
            raise ConfigError(f"--out: {exc}") from exc
    for name, value in cfg.tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--tol-{name} must be finite and positive, got {value}")
    if cfg.seed < 0:
        raise ConfigError(f"--seed must be at least 0, got {cfg.seed}")
    if cfg.samples < 2:
        raise ConfigError(f"--samples must be at least 2, got {cfg.samples}")
    if cfg.samples > MAX_SAMPLES:
        raise ConfigError(f"--samples must be at most {MAX_SAMPLES}, got {cfg.samples}")
    if cfg.rank_cap < 1:
        raise ConfigError(f"--rank-cap must be at least 1, got {cfg.rank_cap}")
    if cfg.command == "catalog":
        try:
            CatalogConfig(rank_cap=cfg.rank_cap)  # the catalog's own bounds
        except ValueError as exc:
            raise ConfigError(f"--rank-cap: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    cfg = config_from_args(args)
    try:
        check_config(cfg)
        if cfg.command == "catalog":
            code, payload = cmd_catalog(cfg)
        elif cfg.command == "verify":
            code, payload = cmd_verify(cfg)
        else:
            code, payload = cmd_selfcheck(cfg)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = render(payload, cfg.fmt)
    if not cfg.out:
        sys.stdout.write(text)
        return code
    try:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # what no check before the run can see
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
