"""Command-line behavior: filters, formats, determinism, exit codes."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import isofib
from isofib import cli, dynkin, homspace


def run_main(argv):
    return cli.main(argv)


def payload_for(argv):
    args = cli.build_parser().parse_args(argv)
    cfg = cli.config_from_args(args)
    if cfg.command == "catalog":
        return cli.cmd_catalog(cfg)
    if cfg.command == "verify":
        return cli.cmd_verify(cfg)
    return cli.cmd_selfcheck(cfg)


FAST_VERIFY = ["--samples", "10", "--restarts", "1"]


# --- catalog ---------------------------------------------------------------------


def test_catalog_family_e8_bases():
    code, payload = payload_for(["catalog", "--family", "E8"])
    assert code == 0
    bases = {r["base"] for r in payload["records"]}
    assert {"E8/A1E7", "E8/A2E6", "E8/A4A4"} <= bases
    assert all(r["g"] == "E8" for r in payload["records"])


def test_catalog_whole_family_letter():
    code, payload = payload_for(["catalog", "--family", "G"])
    assert code == 0
    assert {r["g"] for r in payload["records"]} == {"G2"}


def _family_flags(families):
    return [arg for f in families for arg in ("--family", f)]


@pytest.mark.parametrize(
    "families,rank_cap,letters,groups",
    [
        (("A5",), 7, ("A",), {"SU(6)"}),
        (("A", "A5"), 8, ("A",), None),
        (("G2", "B"), 3, ("B", "G"), None),
        (("D4",), 8, ("D",), {"SO(8)"}),
        (("D4",), 3, ("D",), {"SO(8)"}),
    ],
)
def test_catalog_family_labels(families, rank_cap, letters, groups):
    """A label selects one group, a bare letter its whole family; the
    expected records are those of the bare letters, filtered by group
    (None keeps every group).  D4 takes the SO(8)/SO(3)SO(5) stiefel
    records, which the rank cap bounds by s + t = 3, not by 4."""
    cap = ["--rank-cap", str(rank_cap)]
    code, got = payload_for(["catalog", *_family_flags(families), *cap])
    _, whole = payload_for(["catalog", *_family_flags(letters), *cap])
    keep = lambda entries: [e for e in entries if groups is None or e["g"] in groups]
    assert code == 0 and got["records"]
    assert got["records"] == keep(whole["records"])
    assert got["cases"] == keep(whole["cases"])


def test_catalog_loads_no_scipy_submodules():
    # a fresh interpreter: the package imports no scipy module at all
    child = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(Path(isofib.__file__).parents[1])!r})\n"
        "from isofib import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['catalog', '--family', 'G'])\n"
        "print(code, ' '.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", child], capture_output=True, text=True, check=True
    ).stdout.split()
    assert out[0] == "0"
    loaded = set(out[1:])
    assert "isofib.homspace" in loaded and "isofib.dynkin" in loaded
    assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


@pytest.mark.parametrize("case", ["su3-su1u2--k1-t1", "so6-stiefel"])
def test_verify_runs_without_scipy(case):
    # a fresh interpreter in which any scipy import fails
    child = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {str(Path(isofib.__file__).parents[1])!r})\n"
        "from isofib import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main(['verify', {case!r}, *{FAST_VERIFY!r}])\n"
        "print(code)\n"
    )
    out = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["0"]


@pytest.mark.parametrize("label", ["B1", "E9"])
def test_catalog_invalid_family_label_exit_2(label, capsys):
    assert run_main(["catalog", "--family", label]) == 2
    assert "out of bounds" in capsys.readouterr().err


def test_catalog_simple_k_flagged():
    code, payload = payload_for(
        ["catalog", "--class", "nearly-kaehler", "--simple-k"]
    )
    assert code == 0
    flagged = {c["base"] for c in payload["cases"] if c["note"] == "no splitting"}
    assert flagged == {"G2/A2", "E8/A8"}
    text = cli.render(payload, "text")
    assert "G2/A2" in text and "no splitting" in text


def test_catalog_unknown_family_exit_2(capsys):
    assert run_main(["catalog", "--family", "H"]) == 2
    assert "error" in capsys.readouterr().err


def test_catalog_invalid_class_exit_2(capsys):
    assert run_main(["catalog", "--class", "not-a-class"]) == 2


def test_catalog_golden_passes():
    code, payload = payload_for(["catalog", "--golden"])
    assert code == 0
    assert payload["failures"] == []


def test_catalog_json_provenance():
    code, payload = payload_for(["catalog", "--family", "G", "--seed", "7"])
    out = cli.render(payload, "json")
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"]["seed"] == 7
    assert doc["config"]["tolerances"]["coset"] == 1e-8


def test_catalog_csv_round_trips():
    _, payload = payload_for(["catalog", "--family", "G"])
    out = cli.render(payload, "csv")
    lines = out.splitlines()
    assert lines[0].startswith("# config:")
    rows = list(csv.DictReader(io.StringIO("\n".join(lines[1:]))))
    assert len(rows) == len(payload["records"])
    assert {"slug", "base", "euler_characteristic"} <= set(rows[0].keys())


def test_catalog_deterministic_bytes():
    _, a = payload_for(["catalog", "--family", "D"])
    _, b = payload_for(["catalog", "--family", "D"])
    assert cli.render(a, "json") == cli.render(b, "json")


# mixed filters and formats; the A-D ones share cached cases with the
# warm-up, E and the Stiefel family are appended per call
CACHE_REQUESTS = (
    ["catalog", "--rank-cap", "4", "--format", "json"],
    ["catalog", "--family", "A5", "--format", "csv"],
    ["catalog", "--class", "symmetric", "--simple-k", "--rank-cap", "6"],
    ["catalog", "--family", "E", "--family", "G2", "--format", "json"],
    ["catalog", "--family", "D", "--class", "stiefel", "--rank-cap", "5", "--format", "csv"],
)


def test_catalog_cached_requests_match_fresh_process(capsys):
    # the per-type caches of rootsys and dynkin must not leak one request
    # into another: in process, after a full catalog and in either order,
    # each request renders the bytes a fresh process does
    src = str(Path(isofib.__file__).parents[1])
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "isofib.cli", *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            check=True,
        ).stdout.decode()
        for argv in CACHE_REQUESTS
    ]
    assert run_main(["catalog", "--simple-k"]) == 0
    capsys.readouterr()
    for order in (range(len(CACHE_REQUESTS)), reversed(range(len(CACHE_REQUESTS)))):
        for i in order:
            assert run_main(CACHE_REQUESTS[i]) == 0
            assert capsys.readouterr().out == fresh[i], CACHE_REQUESTS[i]


def test_tolerance_override_echoed():
    _, payload = payload_for(["catalog", "--family", "G", "--tol-gap", "0.5"])
    assert payload["config"]["tolerances"]["gap"] == 0.5


# --- verify -----------------------------------------------------------------------


def test_verify_su3_passes():
    code, payload = payload_for(["verify", "su3-hopf", "--seed", "42", *FAST_VERIFY])
    assert code == 0
    assert payload["failures"] == []
    # roundoff-level solver residuals print as the floor, not as digits
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["fixed-fiber-witness"] == (
        "isotropy sample residual < 1e-12; generic sample residual < 1e-12"
    )
    names = {c["name"] for c in payload["checks"]}
    assert {
        "natural-reductivity",
        "right-length-constant",
        "left-length-nonconstant",
        "displacement-central-constant",
        "displacement-noncentral-certified",
        "fixed-fiber-witness",
    } <= names


def test_verify_so6_passes_with_certificates():
    code, payload = payload_for(["verify", "so6-stiefel", "--seed", "42", *FAST_VERIFY])
    assert code == 0
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    # a roundoff-level certificate residual prints as the floor
    assert details["reversal-certificates"] == (
        "max residual < 1e-12 over 10 reversals (tol 1.0e-09)"
    )


def test_verify_catalog_only_exit_2(capsys):
    assert run_main(["verify", "e8-a4a4"]) == 2
    assert "no concrete model" in capsys.readouterr().err


def test_verify_unknown_case_exit_2(capsys):
    assert run_main(["verify", "definitely-not-a-case"]) == 2


def test_verify_prefix_enumerates_catalog_once(monkeypatch, capsys):
    calls = []
    real = dynkin.catalog

    def counting(cfg=None):
        calls.append(cfg)
        return real(cfg)

    monkeypatch.setattr(dynkin, "catalog", counting)
    assert run_main(["verify", "e8-a4a4"]) == 2
    assert "no concrete model" in capsys.readouterr().err
    assert len(calls) == 1


def test_verify_deterministic_bytes():
    _, a = payload_for(["verify", "su3-hopf", "--seed", "3", *FAST_VERIFY])
    _, b = payload_for(["verify", "su3-hopf", "--seed", "3", *FAST_VERIFY])
    assert cli.render(a, "json") == cli.render(b, "json")


def test_verify_displacement_honours_tol_coset():
    # no log reaches a residual of 1e-300, so no profile has a finite upper
    # bound and neither displacement verdict can be drawn
    code, payload = payload_for(["verify", "su3-hopf", "--tol-coset", "1e-300"])
    assert code == 1
    checks = {c["name"]: c for c in payload["checks"]}
    for name in ("displacement-central-constant", "displacement-noncentral-certified"):
        assert not checks[name]["passed"]
        assert checks[name]["detail"].count("inconclusive") == 2
    assert "rel inf" in checks["displacement-central-constant"]["detail"]
    assert "gap -inf" in checks["displacement-noncentral-certified"]["detail"]


def test_verify_job_makes_one_lm_call_outside_fixed_fiber(monkeypatch):
    # every Riemannian log of a job shares one lockstep solve; each
    # fixed-fiber restart is a solve of its own
    calls = {"lm": 0, "fiber_depth": 0}
    real_lm, real_fiber = homspace._lm, homspace.fixed_fiber

    def counting_lm(*args, **kwargs):
        calls["lm"] += calls["fiber_depth"] == 0
        return real_lm(*args, **kwargs)

    def fiber(*args, **kwargs):
        calls["fiber_depth"] += 1
        try:
            return real_fiber(*args, **kwargs)
        finally:
            calls["fiber_depth"] -= 1

    monkeypatch.setattr(homspace, "_lm", counting_lm)
    monkeypatch.setattr(homspace, "fixed_fiber", fiber)
    code, _ = payload_for(["verify", "su3-hopf", *FAST_VERIFY])
    assert code == 0
    assert calls["lm"] == 1


def test_verify_job_makes_no_logm_call(monkeypatch):
    # the smart starts of a job's logs come from one batched real log
    import scipy.linalg

    calls = []

    def refuse(*args, **kwargs):
        calls.append(args)
        raise AssertionError("scipy.linalg.logm called")

    monkeypatch.setattr(scipy.linalg, "logm", refuse)
    for case in ("su3-hopf", "so6-stiefel"):
        code, _ = payload_for(["verify", case, *FAST_VERIFY])
        assert code == 0
    assert calls == []


@pytest.mark.parametrize("seed", [2, 1803])
def test_verify_so8_central_constant_without_restart_luck(seed):
    # at these seeds a restart converges at some points of central-0 to a
    # shorter log than at the others; shared logs give every point the
    # shortest one
    _, payload = payload_for(["verify", "so8-so3so5--k1-0so3", "--seed", str(seed)])
    checks = {c["name"]: c for c in payload["checks"]}
    central = checks["displacement-central-constant"]
    assert central["passed"], central["detail"]


@pytest.mark.parametrize(
    "case, seed",
    [
        ("so8-so3so5--k1-0so3", 1),
        ("so8-so3so5--k1-0so3", 5100),
        ("su3-hopf", 6336),
        ("su3-hopf", 11),
    ],
)
def test_verify_k2_left_certified_by_arc_lower_bound(case, seed):
    # with the chord itself as the lower bound, k2-left came out
    # inconclusive at these seeds; the arc-length bound separates it
    _, payload = payload_for(["verify", case, "--seed", str(seed)])
    checks = {c["name"]: c for c in payload["checks"]}
    noncentral = checks["displacement-noncentral-certified"]
    assert noncentral["passed"], noncentral["detail"]
    assert "k2-left: certified-nonconstant" in noncentral["detail"]


def test_verify_csv_checks():
    _, payload = payload_for(["verify", "su3-hopf", *FAST_VERIFY])
    out = cli.render(payload, "csv")
    rows = list(csv.DictReader(io.StringIO("\n".join(out.splitlines()[1:]))))
    assert {"name", "claim", "passed", "detail"} == set(rows[0].keys())


# --- selfcheck ---------------------------------------------------------------------


def test_selfcheck_passes():
    code, payload = payload_for(["selfcheck", "--rank-cap", "2"])
    assert code == 0
    assert payload["failures"] == []
    # E6 exceeds the rank cap, so five of the six table entries are compared
    details = {c["name"]: c["detail"] for c in payload["checks"]}
    assert details["diagram-automorphism-table"] == "5 diagrams checked"


def test_selfcheck_detects_corrupted_golden(monkeypatch):
    real = cli.load_golden

    def corrupted(name):
        data = real(name)
        if name == "hermitian":
            data = json.loads(json.dumps(data))
            key = next(k for k in data if not k.startswith("_"))
            data[key]["euler_characteristic"] = -1
        return data

    monkeypatch.setattr(cli, "load_golden", corrupted)
    code, payload = payload_for(["selfcheck", "--rank-cap", "2"])
    assert code == 1
    claims = {f["claim"] for f in payload["failures"]}
    assert "enumeration-reproduces-checked-in-lists" in claims


def test_out_writes_file(tmp_path):
    out = tmp_path / "cat.json"
    code = run_main(
        ["catalog", "--family", "G", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "catalog"


def test_failure_lines_name_claims():
    # a forced-failure run: zero tolerance makes the reductivity check fail
    code, payload = payload_for(
        ["verify", "su3-hopf", *FAST_VERIFY, "--tol-structural", "0"]
    )
    assert code == 1
    assert payload["failures"]
    for f in payload["failures"]:
        assert f["claim"]
    text = cli.render(payload, "text")
    assert "contradicts" in text


@pytest.mark.parametrize(
    "argv, message",
    [
        (["catalog", "--out", "missing-dir/cat.json"], "no such directory"),
        (["verify", "su3-hopf", "--tol-coset", "nan"], "--tol-coset"),
        (["verify", "su3-hopf", "--tol-gap", "inf"], "--tol-gap"),
        (["verify", "su3-hopf", "--tol-structural", "0"], "--tol-structural"),
        (["verify", "su3-hopf", "--tol-constant", "-0.5"], "--tol-constant"),
        (["verify", "su3-hopf", "--samples", "1"], "--samples"),
        (["verify", "su3-hopf", "--samples", "-3"], "--samples"),
        (["verify", "su3-hopf", "--restarts", "-1"], "--restarts"),
        (["selfcheck", "--rank-cap", "0"], "--rank-cap"),
        # one rank-cap check for both commands that take the option
        (["catalog", "--family", "A", "--rank-cap", "0"], "--rank-cap"),
        (["catalog", "--rank-cap", "-3"], "--rank-cap"),
        (["selfcheck", "--rank-cap", "-3"], "--rank-cap"),
        (["verify", "su3-hopf", "--out", "."], "is a directory"),
    ],
)
def test_nonsensical_input_exit_2(argv, message, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # nothing may run: a lookup, a build or a check would fail this test
    monkeypatch.setattr(cli, "cmd_catalog", None)
    monkeypatch.setattr(cli, "cmd_verify", None)
    monkeypatch.setattr(cli, "cmd_selfcheck", None)
    assert run_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and message in err
    assert not (tmp_path / "missing-dir").exists()
