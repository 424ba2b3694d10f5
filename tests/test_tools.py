"""The repository's tools, run as a user runs them."""
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SWEEP = ROOT / "tools" / "verify_sweep.py"


def run_sweep(*args):
    proc = subprocess.run(
        [sys.executable, str(SWEEP), *args], capture_output=True, text=True, timeout=300
    )
    out = proc.stdout.splitlines()
    lines = [json.loads(line) for line in out if line.startswith("{")]
    return proc.returncode, lines, [line for line in out if line.startswith("K1 ")]


def test_verify_sweep_reports_each_record_and_seed():
    code, lines, summary = run_sweep(
        "su3-hopf", "so6-stiefel", "--seeds", "1,2", "--timeout", "60"
    )
    assert code == 0
    assert [(r["record"], r["seed"]) for r in lines] == [
        ("su3-su1u2--k1-0a1", 1),
        ("su3-su1u2--k1-0a1", 2),
        ("so6-so3so3--k1-0so3", 1),
        ("so6-so3so3--k1-0so3", 2),
    ]
    for r in lines:
        assert r["exit"] == 0 and r["failing"] == {}
        assert r["k2_left_gap"] > 0.0 and r["wall_s"] > 0.0
        assert re.fullmatch("[0-9a-f]{16}", r["stdout_sha256"])
    assert len({r["stdout_sha256"] for r in lines}) == 4
    assert [r["k1"] for r in lines] == ["SU(2)", "SU(2)", "SO(3)", "SO(3)"]
    assert summary == [
        "K1 SO(3): 2 runs, 0 failed (0 timed out), min k2-left gap "
        f"{min(r['k2_left_gap'] for r in lines[2:]):.2e}, max wall "
        f"{max(r['wall_s'] for r in lines[2:]):.1f} s",
        "K1 SU(2): 2 runs, 0 failed (0 timed out), min k2-left gap "
        f"{min(r['k2_left_gap'] for r in lines[:2]):.2e}, max wall "
        f"{max(r['wall_s'] for r in lines[:2]):.1f} s",
    ]


def test_verify_sweep_kills_a_request_past_its_timeout():
    code, lines, summary = run_sweep(
        "su3-hopf", "su3-su1u2--k1-t1", "--seeds", "1", "--timeout", "0.05"
    )
    assert code == 1
    assert [(r["exit"], r["failing"], r["k2_left_gap"]) for r in lines] == [(None, {}, None)] * 2
    assert [r["k1"] for r in lines] == ["SU(2)", "circle"]
    assert all(s.split(":")[1].startswith(" 1 runs, 1 failed (1 timed out)") for s in summary)


def test_verify_sweep_rejects_an_unknown_record():
    code, lines, _ = run_sweep("nope")
    assert (code, lines) == (2, [])


def test_verify_sweep_hashes_each_request_stdout():
    # two runs of one request print one hash, the hash of the stdout that
    # the request prints when run by hand (the sweep names su3-hopf by its
    # slug)
    code, lines, _ = run_sweep("su3-hopf", "--seeds", "1,1", "--timeout", "60")
    assert code == 0
    assert [r["seed"] for r in lines] == [1, 1]
    assert lines[0]["stdout_sha256"] == lines[1]["stdout_sha256"]
    request = [sys.executable, "-m", "isofib.cli", "verify", "su3-su1u2--k1-0a1"]
    out = subprocess.run(
        [*request, "--seed", "1", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        check=True,
        timeout=60,
    ).stdout
    assert hashlib.sha256(out).hexdigest()[:16] == lines[0]["stdout_sha256"]
