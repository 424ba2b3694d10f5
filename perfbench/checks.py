"""Output checks for every benchmark request.

`check_response` returns a `Verdict`: `ok`, a failure that matches one of
the documented known defects of the program (`KNOWN_DEFECTS`), or an
unexplained failure.  Both kinds of failure count as failed requests;
only unexplained ones make a run report `correct: false`.  A known
defect stops matching as soon as the program is fixed, because the
fixed response then passes the ordinary check.

Catalog responses are compared record by record against a reference:
the full catalog (simple-K cases included) that the worker enumerated
at setup and checked against the golden files.  Filters are applied
here independently of the program, by the semantics the CLI documents.
"""
from __future__ import annotations

import csv
import io
import json
import re
from collections import Counter
from dataclasses import dataclass, field

KNOWN_DEFECTS = {
    "classical-label-ignored": (
        "catalog --family with a classical letter+rank label (e.g. A5) "
        "returns the whole family letter instead of the one group"
    ),
    "displacement-inconclusive": (
        "verify: a displacement check (central constancy or non-central "
        "certificate) comes out inconclusive at some seeds: "
        "so8-so3so5--k1-0so3 at --seed 1, 2, 1803, 5100, so6-stiefel at "
        "3139, su3-hopf at 6336"
    ),
}

VERIFY_ALIASES = {
    "su3-hopf": "su3-su1u2--k1-0a1",
    "so6-stiefel": "so6-so3so3--k1-0so3",
}
DISPLACEMENT_CHECKS = {"displacement-central-constant", "displacement-noncentral-certified"}


@dataclass
class Verdict:
    ok: bool
    known_defect: str | None = None
    reasons: list[str] = field(default_factory=list)

    @property
    def unexplained(self) -> bool:
        return not self.ok and self.known_defect is None


def _fail(*reasons: str) -> Verdict:
    return Verdict(False, None, list(reasons))


# --- reference -----------------------------------------------------------------


@dataclass(frozen=True)
class RefRecord:
    """One record of the reference catalog with what filters need: the
    family letter and rank of G, and the rank the catalog's rank cap is
    compared against (s + t for the rank-deficient SO(2s+2t+2) family)."""

    record: dict
    letter: str
    rank: int
    cap_rank: int


def reference_records(records, record_to_dict) -> list[RefRecord]:
    """RefRecords for the program's FibrationRecords, serialized by its own
    `record_to_dict` (the JSON form every format is compared against)."""
    refs = []
    for r in records:
        if r.ambient is not None:
            letter, rank, cap_rank = r.ambient.family, r.ambient.rank, r.ambient.rank
        else:  # SO(2s+2t+2)/SO(2s+1)SO(2t+1): type D, capped by s + t
            n = int(r.g_label[len("SO("):-1])
            letter, rank, cap_rank = "D", n // 2, n // 2 - 1
        refs.append(RefRecord(record_to_dict(r), letter, rank, cap_rank))
    return refs


# --- request parsing -----------------------------------------------------------


@dataclass(frozen=True)
class CatalogRequest:
    families: tuple[str, ...]
    rank_cap: int
    classes: tuple[str, ...]
    simple_k: bool
    golden: bool
    fmt: str


def parse_catalog_request(argv: list[str]) -> CatalogRequest:
    if not argv or argv[0] != "catalog":
        raise ValueError(f"not a catalog request: {argv}")
    families, classes = [], []
    rank_cap, simple_k, golden, fmt = 8, False, False, "text"
    it = iter(argv[1:])
    for a in it:
        if a == "--family":
            families.append(next(it).strip().upper())
        elif a == "--class":
            classes.append(next(it))
        elif a == "--rank-cap":
            rank_cap = int(next(it))
        elif a == "--format":
            fmt = next(it)
        elif a == "--simple-k":
            simple_k = True
        elif a == "--golden":
            golden = True
        else:
            raise ValueError(f"unexpected catalog argument {a!r}")
    return CatalogRequest(tuple(families), rank_cap, tuple(classes), simple_k, golden, fmt)


def expected_records(
    req: CatalogRequest, reference: list[RefRecord], labels: tuple[str, ...] | None = None
) -> list[dict]:
    """Reference records a catalog request should return.  A bare letter
    selects its whole family; a letter+rank label selects that one group
    (e.g. A5 is SU(6)).  `labels` overrides which labels act as labels;
    the rest act as their bare letter."""
    fams = req.families
    if labels is None:
        labels = tuple(f for f in fams if len(f) > 1)
    letters = {f[0] for f in fams}
    by_letter: dict[str, set[int]] = {}
    for lab in labels:
        by_letter.setdefault(lab[0], set()).add(int(lab[1:]))
    whole = {f[0] for f in fams if len(f) == 1 or f not in labels}
    out = []
    for ref in reference:
        rec = ref.record
        if req.classes and rec["class"] not in req.classes:
            continue
        if ref.cap_rank > req.rank_cap:
            continue
        if fams:
            if ref.letter not in letters:
                continue
            if ref.letter not in whole and ref.rank not in by_letter.get(ref.letter, ()):
                continue
        out.append(rec)
    return out


# --- response parsing ----------------------------------------------------------

_TEXT_RECORD = re.compile(r"^  (\S+): (.+) -> (.+) \[(.+)\] chi=(-?\d+)$")


def _flat(v) -> str:
    if isinstance(v, (list, tuple)):
        return ";".join(str(x) for x in v)
    if isinstance(v, dict):
        return json.dumps(v, sort_keys=True)
    return "" if v is None else str(v)


def _records_from(fmt: str, text: str) -> tuple[list[dict], list[str]]:
    """(records as the format carries them, failure lines).  Raises
    ValueError when the response does not parse."""
    if fmt == "json":
        payload = json.loads(text)
        if payload.get("command") != "catalog":
            raise ValueError("json payload is not a catalog payload")
        return payload["records"], [f"{f['claim']}: {f['detail']}" for f in payload["failures"]]
    if fmt == "csv":
        lines = text.splitlines()
        if not lines or not lines[0].startswith("# config: "):
            raise ValueError("csv response lacks its config line")
        json.loads(lines[0][len("# config: "):])
        rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]) + "\n")))
        return rows, []
    lines = text.splitlines()
    m = re.match(r"^(\d+) records, (\d+) cases$", lines[2] if len(lines) > 2 else "")
    if not lines or not lines[0].startswith("command: catalog") or not m:
        raise ValueError("text response lacks its catalog header")
    records, failures, in_failures = [], [], False
    for line in lines[3:]:
        if line == "failures:":
            in_failures = True
        elif in_failures:
            failures.append(line.strip())
        elif line.startswith("  case "):
            continue
        elif line == "ok":
            continue
        else:
            r = _TEXT_RECORD.match(line)
            if not r:
                raise ValueError(f"unparsable text line {line!r}")
            slug, mtilde, base, cls, chi = r.groups()
            records.append(
                {"slug": slug, "mtilde": mtilde, "base": base, "class": cls,
                 "euler_characteristic": int(chi)}
            )
    if len(records) != int(m.group(1)):
        raise ValueError("text record count does not match its header")
    if not failures and lines[-1] != "ok":
        raise ValueError("text response does not end with ok")
    return records, failures


def _same_record(fmt: str, got: dict, want: dict) -> bool:
    if fmt == "json":
        return got == want
    if fmt == "csv":
        return got == {k: _flat(v) for k, v in want.items()}
    return all(got[k] == want[k] for k in got)


def _match(fmt: str, got: list[dict], want: list[dict]) -> list[str]:
    """Mismatch descriptions; empty when `got` is exactly `want`."""
    want_by_slug = {r["slug"]: r for r in want}
    problems = []
    got_slugs, want_slugs = Counter(r.get("slug") for r in got), Counter(want_by_slug.keys())
    extra, missing = got_slugs - want_slugs, want_slugs - got_slugs
    if extra:
        problems.append(f"{sum(extra.values())} records outside the request, e.g. {next(iter(extra))}")
    if missing:
        problems.append(f"{sum(missing.values())} records missing, e.g. {next(iter(missing))}")
    for r in got:
        w = want_by_slug.get(r.get("slug"))
        if w is not None and not _same_record(fmt, r, w):
            problems.append(f"record {r['slug']} differs from the reference")
            break
    return problems


def check_catalog(argv: list[str], rc: int, text: str, reference: list[RefRecord]) -> Verdict:
    req = parse_catalog_request(argv)
    if rc != 0:
        return _fail(f"exit code {rc}")
    try:
        got, failures = _records_from(req.fmt, text)
    except (ValueError, KeyError, IndexError) as exc:
        return _fail(f"unparsable {req.fmt} response: {exc}")
    if failures:
        return _fail(f"golden failures reported: {failures[:3]}")
    problems = _match(req.fmt, got, expected_records(req, reference))
    if not problems:
        return Verdict(True)
    exceptional = tuple(f for f in req.families if len(f) > 1 and f[0] in "EFG")
    if exceptional != tuple(f for f in req.families if len(f) > 1):
        as_program = expected_records(req, reference, labels=exceptional)
        if not _match(req.fmt, got, as_program):
            return Verdict(False, "classical-label-ignored", problems)
    return _fail(*problems)


def check_verify(argv: list[str], rc: int, text: str) -> Verdict:
    case, seed = argv[1], int(argv[argv.index("--seed") + 1])
    if rc not in (0, 1):
        return _fail(f"exit code {rc}")
    try:
        payload = json.loads(text)
        checks = payload["checks"]
        slug, echoed_seed = payload["case"], payload["config"]["seed"]
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"unparsable verify response: {exc}")
    if slug != VERIFY_ALIASES.get(case, case) or echoed_seed != seed:
        return _fail(f"response is for {slug} seed {echoed_seed}, not {case} seed {seed}")
    if not checks:
        return _fail("no checks in the response")
    failed = [c for c in checks if not c["passed"]]
    if (rc == 1) != bool(failed) or len(payload["failures"]) != len(failed):
        return _fail(f"exit code {rc} disagrees with {len(failed)} failed checks")
    if not failed:
        return Verdict(True)
    reasons = [f"{c['name']}: {c['detail']}" for c in failed]
    if all(c["name"] in DISPLACEMENT_CHECKS and "inconclusive" in c["detail"] for c in failed):
        return Verdict(False, "displacement-inconclusive", reasons)
    return _fail(*reasons)


def check_response(argv: list[str], rc: int, text: str, reference: list[RefRecord]) -> Verdict:
    if argv[0] == "catalog":
        return check_catalog(argv, rc, text, reference)
    if argv[0] == "verify":
        return check_verify(argv, rc, text)
    raise ValueError(f"no checker for {argv[0]!r}")
