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
    bases = {r.base_label for r in payload["records"]}
    assert {"E8/A1E7", "E8/A2E6", "E8/A4A4"} <= bases
    assert all(r.g_label == "E8" for r in payload["records"])


def test_catalog_whole_family_letter():
    code, payload = payload_for(["catalog", "--family", "G"])
    assert code == 0
    assert {r.g_label for r in payload["records"]} == {"G2"}


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
    keep = lambda entries, g: [e for e in entries if groups is None or g(e) in groups]
    assert code == 0 and got["records"]
    assert got["records"] == keep(whole["records"], lambda r: r.g_label)
    assert got["cases"] == keep(whole["cases"], lambda c: c["g"])


SRC = str(Path(isofib.__file__).parents[1])


def test_catalog_loads_no_scipy_submodules():
    # fresh interpreters: a catalog request imports no scipy module and no
    # numpy; the numeric modules are bound in sys.modules, where span
    # tracers find them, but never executed
    child = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from isofib import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(sys.argv[1:])\n"
        "print(code, ' '.join(sorted(sys.modules)))\n"
    )
    for argv in (["catalog", "--family", "G"], ["catalog", "--golden"]):
        out = subprocess.run(
            [sys.executable, "-c", child, *argv], capture_output=True, text=True, check=True
        ).stdout.split()
        assert out[0] == "0"
        loaded = set(out[1:])
        assert {"isofib.dynkin", "isofib.homspace", "isofib.liealg"} <= loaded
        assert "numpy" not in loaded
        assert not {m for m in loaded if m == "scipy" or m.startswith("scipy.")}


def test_verify_after_catalog_matches_fresh_process():
    # the numeric half, loaded on first use after a numpy-free catalog,
    # gives the bytes of a process that starts with verify
    verify = ["verify", "su3-su1u2--k1-t1", "--format", "json", *FAST_VERIFY]
    child = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {SRC!r})\n"
        "from isofib import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['catalog', '--rank-cap', '3']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        f"sys.exit(cli.main({verify!r}))\n"
    )
    after = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True)
    fresh = subprocess.run(
        [sys.executable, "-m", "isofib.cli", *verify],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC},
    )
    assert after.returncode == fresh.returncode == 0, after.stderr + fresh.stderr
    assert after.stdout == fresh.stdout


def test_default_tolerances_have_one_source():
    for key, name in (
        ("coset", "COSET_TOL"),
        ("constant", "CONSTANT_SPREAD_TOL"),
        ("gap", "GAP_TOL"),
        ("cert", "CERT_RESIDUAL_TOL"),
    ):
        assert cli.DEFAULT_TOLERANCES[key] is getattr(isofib, name) is getattr(homspace, name)


@pytest.mark.parametrize("case", ["su3-su1u2--k1-t1", "so6-stiefel"])
def test_verify_runs_without_scipy(case):
    # a fresh interpreter in which any scipy import fails
    child = (
        "import contextlib, io, sys\n"
        "sys.modules['scipy'] = None\n"
        f"sys.path.insert(0, {SRC!r})\n"
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


def _assert_same_text(got, want):
    # compares a window at the first difference: pytest's own diff of two
    # whole catalogs takes minutes
    i = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    window = slice(max(0, i - 60), i + 60)
    assert (got[window], len(got)) == (want[window], len(want))


@pytest.mark.parametrize(
    "argv",
    [
        ["catalog", "--simple-k"],
        ["catalog", "--golden"],
        ["catalog", "--family", "E8"],
        # no record: the envelope alone
        ["catalog", "--class", "nearly-kaehler", "--family", "A"],
        # a case and no record
        ["catalog", "--family", "G", "--simple-k", "--class", "nearly-kaehler"],
    ],
)
def test_render_matches_stdlib_encoding(argv):
    # the cached per-record and per-case text must lay out what encoding
    # the whole payload, with every record as its dict, gives
    _, payload = payload_for(argv)
    dicts = [dynkin.record_to_dict(r) for r in payload["records"]]
    want = json.dumps({**payload, "records": dicts}, indent=2, sort_keys=True, default=str)
    _assert_same_text(cli.render(payload, "json"), want + "\n")
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(payload["config"], sort_keys=True) + "\n")
    rows = [cli._flatten(d) for d in dicts]
    if rows:
        writer = csv.DictWriter(buf, fieldnames=sorted(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    _assert_same_text(cli.render(payload, "csv"), buf.getvalue())


# mixed filters and formats; the A-D ones share cached cases with the
# warm-up, E and the Stiefel family are appended per call; requests with
# and without repeatable options follow each other in both orders
CACHE_REQUESTS = (
    ["catalog", "--rank-cap", "4", "--format", "json"],
    ["catalog", "--family", "A5", "--format", "csv"],
    ["catalog", "--class", "symmetric", "--simple-k", "--rank-cap", "6"],
    ["catalog", "--family", "E", "--family", "G2", "--format", "json"],
    ["catalog", "--family", "D", "--class", "stiefel", "--rank-cap", "5", "--format", "csv"],
    ["catalog", "--rank-cap", "1", "--simple-k"],
    ["catalog", "--family", "F4", "--rank-cap", "2", "--format", "json"],
    ["catalog", "--class", "stiefel", "--rank-cap", "3"],
    ["catalog", "--class", "nearly-kaehler", "--family", "A", "--format", "json"],
    ["catalog", "--class", "nearly-kaehler", "--family", "A", "--format", "csv"],
    ["catalog", "--simple-k", "--format", "csv"],
)


def test_catalog_cached_requests_match_fresh_process(capsys):
    # the process's one parser, the per-type caches of rootsys and dynkin
    # (splittings, Stiefel records) and the per-record JSON and CSV text
    # must not leak one request into another: in process, after a full
    # catalog and in either order, each request renders the bytes a fresh
    # process does
    fresh = [
        subprocess.run(
            [sys.executable, "-m", "isofib.cli", *argv],
            env={**os.environ, "PYTHONPATH": SRC},
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
    # so does the roundoff-level reductivity residual
    assert details["natural-reductivity"] == (
        "residual < 1e-12 (tol 1.0e-09); dims g=8 k1=3 k2=1 m1=5 m=4"
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


def test_verify_rerun_around_another_request_repeats_its_bytes(capsys):
    # all three requests share one cached model: a request that changed it
    # would show in the rerun
    first = ["verify", "so6-stiefel", "--seed", "4", "--format", "json", *FAST_VERIFY]
    outs = []
    for argv in (first, ["verify", "so6-stiefel", "--seed", "5", *FAST_VERIFY], first):
        run_main(argv)
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[2]


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


def test_verify_huge_tol_coset_ends_with_a_verdict():
    # a stopping floor of (1e-6 tol)^2 overflows a float above tol ~1e160
    argv = ["verify", "su3-hopf", "--samples", "2", "--restarts", "1", "--tol-coset", "1e300"]
    out = subprocess.run(
        [sys.executable, "-m", "isofib.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )
    assert out.returncode in (0, 1)
    assert "Traceback" not in out.stderr
    assert out.stdout.startswith("command: verify")


def test_verify_job_makes_one_lm_call(monkeypatch):
    # every Riemannian log of a job shares one lockstep solve: 3 round
    # trips and the base point of each central profile, whose log the
    # profile's other points share (the bound-ordering pairs take their
    # upper bound from a smart start's curve, the noncentral profiles
    # from a torus witness, and fixed fibers come in closed form)
    calls = []
    pairs = []
    real_lm, real_logs = homspace._lm, homspace.riemannian_logs

    def counting_lm(*args, **kwargs):
        calls.append(1)
        return real_lm(*args, **kwargs)

    def counting_logs(xs, ys, *args, **kwargs):
        pairs.append(len(xs))
        return real_logs(xs, ys, *args, **kwargs)

    monkeypatch.setattr(homspace, "_lm", counting_lm)
    monkeypatch.setattr(homspace, "riemannian_logs", counting_logs)
    code, _ = payload_for(["verify", "su3-hopf", *FAST_VERIFY])
    assert code == 0
    assert len(calls) == 1
    assert pairs == [3 + 2]


def test_verify_job_makes_one_lower_bound_call(monkeypatch):
    # the lower bounds of the bound-ordering curves' ends and of every
    # profile point come from one batched call, as the logs do
    calls = []
    real = homspace.distance_lower_bound

    def counting(xs, ys):
        calls.append(len(xs))
        return real(xs, ys)

    monkeypatch.setattr(homspace, "distance_lower_bound", counting)
    code, _ = payload_for(["verify", "su3-hopf", *FAST_VERIFY])
    assert code == 0
    assert calls == [4 + 4 * 10]


def test_verify_job_makes_no_logm_call(monkeypatch):
    # the smart starts of a job's logs and of its bound-ordering curves
    # come from batched real logs
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


def test_verify_so8_log_solve_stops_before_the_step_cap(monkeypatch):
    # the job's one lockstep log solve, of the round trips and the central
    # base points, stops before the _LM_MAX_ITER cap; this seed is one where
    # a crawling start once held the whole solve to the cap
    steps = []
    real_lm = homspace._lm

    def counting_lm(residuals, jacobians, C0, *args, **kwargs):
        calls = []

        def counted(C, rows):
            calls.append(len(rows))
            return residuals(C, rows)

        out = real_lm(counted, jacobians, C0, *args, **kwargs)
        steps.append((len(C0), len(calls) - 1))  # one trial call per step
        return out

    monkeypatch.setattr(homspace, "_lm", counting_lm)
    monkeypatch.setattr(homspace, "_LM_SLICE", 10**6)  # no step splits its calls
    code, _ = payload_for(["verify", "so8-so3so5--k1-0so3", "--seed", "2"])
    assert code == 0
    # the one solve of many problems is the job's riemannian_logs call
    [log_steps] = [n for p, n in steps if p > 1]
    assert log_steps < homspace._LM_MAX_ITER


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


@pytest.mark.parametrize("seed", [9, 9906])
def test_verify_so8_noncentral_certified_by_torus_witness(seed):
    # k2-left was inconclusive here with its upper bounds from multistart
    # logs at Haar points; the torus witness's upper separates it, and the
    # detail names the bounds the verdict rests on
    _, payload = payload_for(["verify", "so8-so3so5--k1-0so3", "--seed", str(seed)])
    checks = {c["name"]: c for c in payload["checks"]}
    noncentral = checks["displacement-noncentral-certified"]
    assert noncentral["passed"], noncentral["detail"]
    assert "k1-left: certified-nonconstant (gap" in noncentral["detail"]
    assert "witness upper < 1e-12, max lower" in noncentral["detail"]
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
    # a roundoff-level reductivity residual prints as the floor
    assert details["model-validation"] == (
        "both models validated; worst reductivity residual < 1e-12"
    )


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


@pytest.mark.parametrize(
    "argv, keys",
    [
        (
            ["catalog", "--family", "G"],
            {"schema_version", "command", "config", "cases", "records", "failures"},
        ),
        (
            ["verify", "su3-hopf", *FAST_VERIFY],
            {"schema_version", "command", "config", "case", "base", "total_space",
             "checks", "failures"},
        ),
        (
            ["selfcheck", "--rank-cap", "2"],
            {"schema_version", "command", "config", "checks", "failures"},
        ),
    ],
)
def test_payload_top_level_keys(argv, keys):
    _, payload = payload_for(argv)
    assert set(payload) == keys
    assert set(json.loads(cli.render(payload, "json"))) == keys


def test_out_writes_file(tmp_path):
    out = tmp_path / "cat.json"
    code = run_main(
        ["catalog", "--family", "G", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "catalog"


def test_out_write_error_exit_2(tmp_path, monkeypatch, capsys):
    # a file that passes the checks before the run but cannot be written
    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", args[0])

    monkeypatch.setattr(cli, "open", refuse, raising=False)
    out = tmp_path / "cat.json"
    assert run_main(["catalog", "--family", "G", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: --out:") and "Permission denied" in captured.err
    assert captured.out == ""


def _echoed_config(capsys, argv):
    assert run_main([*argv, "--format", "json"]) == 0
    return json.loads(capsys.readouterr().out)["config"]


def test_one_parser_serves_many_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    # repeatable options and overrides do not carry into the next call
    _echoed_config(capsys, ["catalog", "--family", "E", "--family", "F", "--class", "symmetric"])
    config = _echoed_config(capsys, ["catalog"])
    assert config["families"] is None and config["classes"] is None
    _echoed_config(capsys, ["catalog", "--family", "G", "--tol-coset", "1e-6"])
    config = _echoed_config(capsys, ["catalog", "--family", "G"])
    assert config["tolerances"] == cli.DEFAULT_TOLERANCES
    # a rejected call, by argparse or by the checks, leaves the next one intact
    good = ["catalog", "--family", "G", "--format", "csv"]
    assert run_main(good) == 0
    want = capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        run_main(["catalog", "--format", "yaml"])
    assert exc.value.code == 2
    assert run_main(["catalog", "--rank-cap", "0"]) == 2
    capsys.readouterr()
    assert run_main(good) == 0
    assert capsys.readouterr().out == want
    # the two commands' subparsers alternate on one parser
    outputs = []
    for _ in range(2):
        for argv in (good, ["verify", "su3-hopf", "--seed", "5", *FAST_VERIFY, "--format", "json"]):
            assert run_main(argv) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]
    assert outputs[0] == want


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
        (["catalog", "--out", "x" * 300], "File name too long"),
        (["verify", "su3-hopf", "--seed", "-1"], "--seed must be at least 0"),
        (["catalog", "--rank-cap", "25"], "--rank-cap"),
        (["catalog", "--rank-cap", "1000000000"], "--rank-cap"),
        # a central profile's log with no restart rests on a smart start
        # that never moves when z = -1
        (["verify", "so6-stiefel", "--restarts", "0"], "--restarts must be at least 1"),
        # caps from above: the LM stack grows with the restarts and the
        # chord stack with the samples
        (["verify", "su3-hopf", "--restarts", "65"], "--restarts must be at most 64"),
        (["verify", "su3-hopf", "--restarts", "100000000000"], "--restarts must be at most 64"),
        (["verify", "su3-hopf", "--samples", "1025"], "--samples must be at most 1024"),
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
