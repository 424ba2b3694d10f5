"""Run `verify` on every record with a concrete model, at a list of seeds,
each request in a fresh process, and report every run's verdicts.

Usage: python tools/verify_sweep.py [--seeds 1,2,3] [--timeout SECONDS] [RECORD ...]

Runs `python -m isofib.cli verify SLUG --seed S --format json` for each
(record, seed), two processes at a time, against this tree's `src/` with
one BLAS thread each.  A RECORD names a case as `verify` does; with none,
every record with a concrete model in the default catalog (rank cap 8,
118 records) runs.  A run that outlives the timeout (default 240 s)
is killed and counts as failed.

Prints one JSON line per (record, seed), in that order: the slug, the
seed, K1's shape, the exit code (null after a timeout), each failing
check's detail, the `k2-left` gap of the noncentral check, the first 16
hex digits of the SHA-256 of the request's stdout and the wall time.
Then one summary line per K1 shape.  Two sweeps of one tree print the
same lines apart from the wall times, and two trees whose output is
byte-identical print the same lines too, so their sweeps diff to byte
parity, not just to equal verdicts.  Exits 1 when any run failed,
2 on a usage error.  SIGTERM or SIGINT stops the running requests before
the tool exits.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PARALLEL = 2
POLL_S = 0.02
# the k2-left verdict of the displacement-noncentral-certified detail
K2_GAP = re.compile(r"k2-left: [a-z-]+ \(gap ([^;]+);")


def k1_shape(spec) -> str:
    """K1's blocks, e.g. "SO(3)", "SU(2) x circle"."""
    names = []
    for i in spec.k1:
        kind, cols = spec.blocks[i]
        names.append("circle" if kind == "circle" else f"{kind.upper()}({len(cols)})")
    return " x ".join(sorted(names))


def records(ids: list[str]) -> list:
    """The records to sweep: those the ids name, else every record with a
    concrete model in the default catalog."""
    sys.path.insert(0, str(SRC))
    if ids:
        from isofib.liealg import find_record

        found = [find_record(i) for i in ids]
        missing = [r.slug for r in found if not r.model_available]
        if missing:
            raise LookupError(f"no concrete model for {', '.join(missing)}")
        return found
    from isofib.dynkin import CatalogConfig, catalog

    return [r for r in catalog(CatalogConfig()).records if r.model_available]


def start(slug: str, seed: int):
    """A running verify request: (process, stdout file, start time).  Its
    stdout goes to a file, so a long payload never blocks the child."""
    argv = [sys.executable, "-m", "isofib.cli", "verify", slug, "--seed", str(seed)]
    argv += ["--format", "json"]
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(SRC), **threads)
    out = tempfile.TemporaryFile()
    proc = subprocess.Popen(argv, env=env, stdout=out, stderr=subprocess.DEVNULL)
    return proc, out, time.monotonic()


def result(rec, seed: int, code: int | None, stdout: bytes, wall: float) -> dict:
    failing, gap = {}, None
    try:
        checks = json.loads(stdout)["checks"]
    except ValueError:  # a timeout, or a crash before the payload
        checks = []
        if code is not None:
            failing["payload"] = "no JSON payload"
    for check in checks:
        if not check["passed"]:
            failing[check["name"]] = check["detail"]
        if check["name"] == "displacement-noncentral-certified":
            match = K2_GAP.search(check["detail"])
            gap = float(match.group(1)) if match else None
    return {
        "record": rec.slug,
        "seed": seed,
        "k1": k1_shape(rec.model_spec),
        "exit": code,
        "failing": failing,
        "k2_left_gap": gap,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest()[:16],
        "wall_s": round(wall, 2),
    }


def sweep(jobs: list[tuple], timeout: float):
    """Yield each job's result in job order, running PARALLEL at a time."""
    pending, running, done, nxt = list(enumerate(jobs)), {}, {}, 0
    try:
        while nxt < len(jobs):
            while pending and len(running) < PARALLEL:
                i, (rec, seed) = pending.pop(0)
                running[i] = start(rec.slug, seed)
            time.sleep(POLL_S)
            for i, (proc, out, t0) in list(running.items()):
                wall = time.monotonic() - t0
                if proc.poll() is None and wall <= timeout:
                    continue
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
                code = proc.returncode if proc.returncode >= 0 else None
                out.seek(0)
                done[i] = result(*jobs[i], code, out.read(), wall)
                out.close()
                del running[i]
            while nxt in done:
                yield done.pop(nxt)
                nxt += 1
    finally:
        for proc, out, _ in running.values():
            if proc.poll() is None:
                proc.terminate()
                proc.wait()
            out.close()


def summary(lines: list[dict]) -> list[str]:
    by_shape = defaultdict(list)
    for line in lines:
        by_shape[line["k1"]].append(line)
    out = []
    for shape in sorted(by_shape):
        runs = by_shape[shape]
        failed = sum(r["exit"] != 0 for r in runs)
        timed_out = sum(r["exit"] is None for r in runs)
        gaps = [r["k2_left_gap"] for r in runs if r["k2_left_gap"] is not None]
        gap = f"{min(gaps):.2e}" if gaps else "none"
        out.append(
            f"K1 {shape}: {len(runs)} runs, {failed} failed ({timed_out} timed out), "
            f"min k2-left gap {gap}, max wall {max(r['wall_s'] for r in runs):.1f} s"
        )
    return out


def exit_on_signal(signum: int, frame) -> None:
    """Turn SIGTERM and SIGINT into SystemExit, so the running requests
    are stopped on the way out."""
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(prog="verify_sweep", description=__doc__.splitlines()[0])
    p.add_argument("records", nargs="*", metavar="RECORD")
    p.add_argument("--seeds", default="1,2,3", help="comma-separated verify seeds")
    p.add_argument("--timeout", type=float, default=240.0, help="seconds per request")
    args = p.parse_args(argv)
    try:
        seeds = [int(s) for s in args.seeds.split(",")]
        recs = records(args.records)
    except (ValueError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, exit_on_signal)
    lines = []
    jobs = [(rec, seed) for rec in recs for seed in seeds]
    with contextlib.closing(sweep(jobs, args.timeout)) as runs:
        for line in runs:
            lines.append(line)
            print(json.dumps(line, sort_keys=True), flush=True)
    for text in summary(lines):
        print(text)
    return 1 if any(line["exit"] != 0 for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
