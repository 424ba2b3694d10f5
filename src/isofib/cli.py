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
import io
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field

import numpy as np

from . import dynkin, homspace, liealg
from .dynkin import CatalogConfig, catalog, golden_diff, golden_projection, load_golden
from .rootsys import SimpleType, build_root_system, weyl_order, weyl_order_bfs

SCHEMA_VERSION = 1

DEFAULT_TOLERANCES = {
    "structural": 1e-9,  # natural-reductivity and validation residuals
    "coset": homspace.COSET_TOL,  # coset-matching residuals (logs, fixed fibers)
    "length": 1e-9,  # allowed spread of a constant-length field
    "constant": homspace.CONSTANT_SPREAD_TOL,  # relative spread, constant displacement
    "gap": homspace.GAP_TOL,  # certified separation, nonconstant displacement
    "cert": homspace.CERT_RESIDUAL_TOL,  # invariant-plane certificate residual
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
    restarts: int = 2
    fmt: str = "text"
    out: str = ""
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))

    def echo(self) -> dict:
        d = asdict(self)
        d.pop("out")
        return d


class ConfigError(Exception):
    pass


# --- checks ---------------------------------------------------------------------


@dataclass
class Check:
    name: str
    claim: str
    passed: bool
    detail: str

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "claim": self.claim,
            "passed": self.passed,
            "detail": self.detail,
        }


# Solver outputs below this floor are roundoff: their digits vary between
# runs of one input (summation order follows memory alignment), so check
# details print them as "< 1e-12".  Verdicts compare the unrounded values.
SOLVER_FLOOR = 1e-12


def _solver_value(x: float, spec: str = ".3e") -> str:
    return f"< {SOLVER_FLOOR:.0e}" if x < SOLVER_FLOOR else format(x, spec)


def _spread(vals: list[float]) -> float:
    return max(vals) - min(vals)


def _noncentral_sample(
    model: liealg.GroupModel,
    factors: tuple[liealg.BlockFactor, ...],
    rng: np.random.Generator,
) -> np.ndarray:
    """A subgroup sample kept away from the center, so the nonconstancy
    prediction applies to it."""
    for _ in range(64):
        k = homspace.sample_subgroup_element(model, factors, rng)
        if all(np.linalg.norm(k - z) > 0.3 for z in model.center_elements):
            return k
    raise RuntimeError("could not draw a sample away from the center")


def _verify_checks(cfg: RunConfig, model: liealg.GroupModel) -> list[Check]:
    tol = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    checks: list[Check] = []

    def add(name: str, claim: str, passed: bool, detail: str) -> None:
        checks.append(Check(name, claim, bool(passed), detail))

    # structural package (build_model already validated; re-derive residual)
    nr = liealg.natural_reductivity_check(model)
    add(
        "natural-reductivity",
        "normal-metric-naturally-reductive",
        nr < tol["structural"],
        f"residual {nr:.3e} (tol {tol['structural']:.1e}); dims g={model.dim_g} "
        f"k1={model.dim_k1} k2={model.dim_k2} m1={model.dim_m1} m={model.dim_m}",
    )

    pts = [homspace.base_point(model)] + [
        homspace.haar_point(model, rng) for _ in range(max(cfg.samples, 4) - 1)
    ]

    # right-invariant fields have constant length
    spreads = []
    for _ in range(3):
        c = rng.normal(size=model.dim_k2)
        eta = model.k2.from_coords(c)
        f = homspace.KillingField(model, "right", eta)
        spreads.append(_spread([homspace.killing_length(f, p) for p in pts]))
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
        spreads.append(_spread([homspace.killing_length(f, p) for p in pts]))
    add(
        "left-length-nonconstant",
        "generic-left-fields-nonconstant-length",
        min(spreads) > tol["gap"],
        f"min spread {min(spreads):.3e} over 3 generic fields (floor {tol['gap']:.1e})",
    )

    # geodesics along k2 directions stay in the base coset (the fiber)
    eta = model.k2.from_coords(rng.normal(size=model.dim_k2))
    eta = eta / max(model.m1_norm(eta), 1e-12)
    worst = 0.0
    x0 = homspace.haar_point(model, rng)
    for t in (0.2, 0.9, 2.3):
        y = homspace.geodesic(x0, eta, t)
        worst = max(worst, homspace.chord_k(model, x0, y).upper)
    add(
        "fiber-geodesic-vertical",
        "isotropy-direction-geodesics-stay-in-fiber",
        worst < tol["coset"],
        f"max base-coset residual {_solver_value(worst)} along the vertical geodesic",
    )

    # the pairs of every Riemannian log of the job are drawn first and
    # solved in one lockstep call: the log round trips, the bound-ordering
    # pairs and the sampled points of the four displacement profiles
    roundtrip = []
    for _ in range(3):
        x = homspace.haar_point(model, rng)
        c = rng.normal(size=model.dim_m1)
        xi = model.from_m1_coords(0.4 * c / np.linalg.norm(c))
        roundtrip.append((x, homspace.geodesic(x, xi, 1.0)))
    ordered = []
    for _ in range(4):
        ordered.append((homspace.haar_point(model, rng), homspace.haar_point(model, rng)))
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
    pairs = roundtrip + ordered + [pq for s in samples for pq in zip(s.points, s.images)]
    seeds = [cfg.seed] * (len(roundtrip) + len(ordered))
    seeds += [seed for s in samples for seed in s.log_seeds]
    logs = iter(
        homspace.riemannian_logs(
            [x for x, _ in pairs], [y for _, y in pairs], seeds, cfg.restarts, tol["coset"]
        )
    )
    roundtrip_logs = [next(logs) for _ in roundtrip]
    ordered_logs = [next(logs) for _ in ordered]
    reports = [
        homspace.profile_report(
            s,
            homspace.share_logs(s, [next(logs) for _ in s.points], tol["coset"]),
            cfg.restarts,
            tol["constant"],
            tol["gap"],
        )
        for s in samples
    ]

    # log inverts the exponential at moderate range
    errs = [abs(log.upper - 0.4) if log.converged else float("inf") for log in roundtrip_logs]
    add(
        "log-roundtrip",
        "riemannian-log-inverts-geodesics",
        max(errs) < 1e-6,
        f"max |recovered - true| {_solver_value(max(errs))} over 3 pairs",
    )

    # lower bounds never exceed upper bounds
    bad = 0.0
    for (x, y), log in zip(ordered, ordered_logs):
        if log.converged:
            bad = max(bad, homspace.distance_lower_bound(x, y) - log.upper)
    add(
        "bounds-ordered",
        "chord-lower-bounds-below-log-upper-bounds",
        bad <= 1e-9,
        f"max (lower - upper) {_solver_value(bad)} over 4 random pairs",
    )

    # displacement: central x right translations are constant
    central_reports, results = reports[:2], reports[2:]
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
    ok = all(r.verdict == "certified-nonconstant" for r in results)
    add(
        "displacement-noncentral-certified",
        "noncentral-left-translations-nonconstant-displacement",
        ok,
        "; ".join(f"{r.label}: {r.verdict} (gap {r.gap:.2e})" for r in results),
    )

    # fixed fibers: isotropy-type elements fix a base coset
    found, resid = homspace.fixed_fiber(
        homspace.Isometry(
            model,
            left=homspace.sample_subgroup_element(
                model, model.k1_factors + model.k2_factors, rng
            ),
        ),
        restarts=4,
        seed=cfg.seed,
        tol=tol["coset"],
    )
    detail = f"isotropy sample residual {_solver_value(resid)}"
    ok = found is not None
    if model.record.equal_rank:
        # equal rank: every element fixes some base coset
        g = homspace.haar_point(model, rng).rep
        found2, resid2 = homspace.fixed_fiber(
            homspace.Isometry(model, left=g), restarts=6, seed=cfg.seed, tol=tol["coset"]
        )
        ok = ok and found2 is not None
        detail += f"; generic sample residual {_solver_value(resid2)}"
    add(
        "fixed-fiber-witness",
        "rotation-isometries-admit-fixed-base-cosets",
        ok,
        detail,
    )

    # odd Stiefel models, two odd SO blocks: reversal certificates
    factors = sorted(model.k1_factors + model.k2_factors, key=lambda f: f.cols)
    if all(f.kind == "so" and len(f.cols) % 2 for f in factors):
        s, t = (len(f.cols) // 2 for f in factors)
        worst = 0.0
        for _ in range(10):
            Q = homspace.haar_orthogonal(model.n, rng, special=False)
            if np.linalg.det(Q) > 0:
                Q[:, 0] = -Q[:, 0]
            cert = homspace.fixed_point_certificate(Q, s, t)
            worst = max(worst, cert.residual)
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


def _selfcheck_checks(cfg: RunConfig) -> list[Check]:
    checks: list[Check] = []

    def add(name: str, claim: str, passed: bool, detail: str) -> None:
        checks.append(Check(name, claim, bool(passed), detail))

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
        nr = max(
            liealg.natural_reductivity_check(su3),
            liealg.natural_reductivity_check(so6),
        )
        add(
            "model-validation",
            "concrete-models-satisfy-structural-invariants",
            nr < cfg.tolerances["structural"],
            f"both models validated; worst reductivity residual {nr:.3e}",
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
        "schema_version": SCHEMA_VERSION,
        "command": "catalog",
        "config": cfg.echo(),
        "cases": [_case_dict(c, by_base.get(c.base_label, 0)) for c in res.cases],
        "records": [dynkin.record_to_dict(r) for r in res.records],
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
    checks = _verify_checks(cfg, model)
    failures = [c for c in checks if not c.passed]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "verify",
        "config": cfg.echo(),
        "case": rec.slug,
        "base": rec.base_label,
        "total_space": rec.mtilde_label,
        "checks": [c.to_dict() for c in checks],
        "failures": [
            {"claim": c.claim, "detail": f"{c.name}: {c.detail}"} for c in failures
        ],
    }
    return (1 if failures else 0), payload


def cmd_selfcheck(cfg: RunConfig) -> tuple[int, dict]:
    checks = _selfcheck_checks(cfg)
    failures = [c for c in checks if not c.passed]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "command": "selfcheck",
        "config": cfg.echo(),
        "checks": [c.to_dict() for c in checks],
        "failures": [
            {"claim": c.claim, "detail": f"{c.name}: {c.detail}"} for c in failures
        ],
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


def render(payload: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(payload, indent=2, sort_keys=True, default=str) + "\n"
    if fmt == "csv":
        rows = payload.get("records") or payload.get("checks") or []
        buf = io.StringIO()
        buf.write("# config: " + json.dumps(payload["config"], sort_keys=True) + "\n")
        rows = [_flatten(r) for r in rows]
        if rows:
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
        lines.append(f"{len(payload['records'])} records, {len(payload['cases'])} cases")
        for c in payload["cases"]:
            if c["simple_k"]:
                lines.append(f"  case {c['base']} [{c['class']}]: no splitting")
        for r in payload["records"]:
            lines.append(
                f"  {r['slug']}: {r['mtilde']} -> {r['base']} "
                f"[{r['class']}] chi={r['euler_characteristic']}"
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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="isofib",
        description="Isotropy-splitting fibration catalog and numeric verification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=int, default=RunConfig.seed)
        sp.add_argument("--samples", type=int, default=RunConfig.samples)
        sp.add_argument("--restarts", type=int, default=RunConfig.restarts)
        sp.add_argument(
            "--format", choices=("json", "csv", "text"), default="text", dest="fmt"
        )
        sp.add_argument("--out", default="", help="write the artifact to this path")
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
        simple_k=getattr(args, "simple_k", False),
        golden=getattr(args, "golden", False),
        case_id=getattr(args, "case_id", ""),
        seed=args.seed,
        samples=args.samples,
        restarts=args.restarts,
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
    for name, value in cfg.tolerances.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"--tol-{name} must be finite and positive, got {value}")
    if cfg.samples < 2:
        raise ConfigError(f"--samples must be at least 2, got {cfg.samples}")
    if cfg.restarts < 0:
        raise ConfigError(f"--restarts must be at least 0, got {cfg.restarts}")
    if cfg.rank_cap < 1:
        raise ConfigError(f"--rank-cap must be at least 1, got {cfg.rank_cap}")


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
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
