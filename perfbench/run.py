"""isofib benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload catalog_queries --seed 1 --seconds 5 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  Load is one client in a closed loop inside one worker process:
each request is sent when the previous one has returned, in-process on
catalog_queries and verify_jobs, as a fresh `python -m isofib.cli`
interpreter on cold_cli.  The worker issues the seed's deck of requests
(see workloads.py) in whole passes until `--seconds` have passed.

--trace 0 prints the end-to-end metrics; set-up is repeated in fresh
interpreters (SETUPS in all) and its median reported.  --trace 1 is a
separate run of the same requests with every traced public function
wrapped (see tracing.py), and prints the per-layer metrics.  Human-
readable lines come first; the last line of stdout is the JSON result.
Results and span files go to `.perfbench_out/` in the checkout.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import KNOWN_DEFECTS  # noqa: E402
from hostspeed import REFERENCE_MS  # noqa: E402
from workloads import NOT_COVERED, WORKLOADS  # noqa: E402

# set-up samples per untraced run; setup_s is their median.  Each costs
# 7-10 s on the warm workloads; a third would push a verify_jobs run well
# past a minute, which the benchmark's time budget cannot take.
SETUPS = 2
P90_MIN_SAMPLES = 100
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_TIMEOUT_S = 170


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({v: BLAS_THREADS for v in BLAS_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PERFBENCH_SRC"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class WorkerError(RuntimeError):
    pass


def _worker(args, extra: list[str], deadline: float) -> tuple[float, float, dict | None]:
    """Start a worker; return (seconds from start to its `ready` line, less
    the time it spent calibrating; the calibration it took during set-up,
    in ms; its JSON result or None for a probe)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ] + extra
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker timed out")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not first.startswith("ready "):
        raise WorkerError(f"worker failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    ready = json.loads(first[len("ready "):])
    setup_s -= ready["spent_s"]
    if "--probe" in extra:
        return setup_s, ready["calib_ms"], None
    return setup_s, ready["calib_ms"], json.loads(rest.strip().splitlines()[-1])


def _quantile(values: list[float], q: float) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "isofib" / "__init__.py").is_file():
        print(f"error: no isofib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    start = time.perf_counter()
    tag = f"{args.workload}-seed{args.seed}"
    try:
        setups = []  # (seconds, calibration in ms) per set-up
        if not args.trace:
            for _ in range(SETUPS - 1):
                setups.append(_worker(args, ["--probe"], start + RUN_TIMEOUT_S)[:2])
        extra = ["--spans", str(OUT / f"spans-{tag}.csv.gz")] if args.trace else []
        *setup, res = _worker(args, extra, start + RUN_TIMEOUT_S)
        setups.append(tuple(setup))
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    reqs = res["requests"]
    lat = [r["ms"] for r in reqs]
    failed = [r for r in reqs if not r["ok"]]
    unexplained = [r for r in failed if r["known_defect"] is None]
    correct = not res["golden_diffs"] and not unexplained
    p50 = statistics.median(lat)
    ops = len(lat) / (sum(lat) / 1e3)
    # the same two figures with each latency divided by the calibration
    # measured around it (see hostspeed.py): steady across host speed
    rel = [r["ms"] / r["calib_ms"] for r in reqs]
    p50_calib = statistics.median(rel)
    ops_kcalib = 1e3 * len(rel) / sum(rel)
    deck = len({r["index"] for r in reqs})
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {v: BLAS_THREADS for v in BLAS_VARS},
        **res["versions"],
    }

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(reqs)} requests, {res['passes']} passes over a deck of {deck}, "
          f"mix {res['digest']}, loop {res['loop_s']:.2f} s")
    print("env " + json.dumps(env, sort_keys=True))
    n = f"n={len(lat)}"
    calib = statistics.median(r["calib_ms"] for r in reqs)
    print(f"ops_per_s {ops:.4f} 1/s (requests / time spent in requests)")
    print(f"latency_p50_ms {p50:.3f} ms ({n})")
    if len(lat) >= P90_MIN_SAMPLES:
        print(f"latency_p90_ms {_quantile(lat, 0.9):.3f} ms ({n})")
    print(f"calibration {calib:.4f} ms (median over requests; host speed)")
    print(f"ops_per_kcalib {ops_kcalib:.4f} 1/kcalib (requests per 1000 calibrations)")
    print(f"latency_p50_calib {p50_calib:.4f} calib ({n})")
    print(f"fail_ratio {len(failed) / len(reqs):.4f} ({len(failed)}/{len(reqs)} failed)")
    defects = {k: sum(r["known_defect"] == k for r in failed) for k in KNOWN_DEFECTS}
    for name, count in defects.items():
        print(f"  known defect {name}: {count} requests ({KNOWN_DEFECTS[name]})")
    for gap in NOT_COVERED:
        print(f"not covered: {gap}")
    for r in unexplained[:5]:
        print(f"  FAILED {' '.join(r['argv'])}: {'; '.join(r['reasons'])[:300]}")
    for d in res["golden_diffs"][:5]:
        print(f"  GOLDEN {d}")
    if not args.trace:
        # each set-up's seconds scaled to the host speed REFERENCE_MS stands
        # for, as the request latencies are divided by their calibration
        scaled = [sec * REFERENCE_MS / calib for sec, calib in setups]
        setup_s = statistics.median(scaled)
        print(f"setup_s {setup_s:.4f} s (median of {len(setups)} set-ups scaled to a "
              f"{REFERENCE_MS} ms calibration: " + ", ".join(f"{x:.3f}" for x in scaled)
              + "; raw " + ", ".join(f"{sec:.3f} s at {calib:.3f} ms" for sec, calib in setups) + ")")
        print(f"peak_rss_mb {res['peak_rss_mb']:.2f} MB")
        metrics = {
            "ops_per_kcalib": (ops_kcalib, "1/kcalib"),
            "latency_p50_calib": (p50_calib, "calib"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        }
    else:
        layer = res["per_layer"]
        layer["process.import_ms"] = res["import_ms"]
        layer["trace.latency_p50_calib"] = p50_calib
        layer["trace.ops_per_kcalib"] = ops_kcalib
        base = OUT / f"{tag}-trace0.json"
        if base.is_file():
            ref = json.loads(base.read_text())["metrics"]
            print(f"tracing overhead vs untraced run of this seed: latency_p50_calib "
                  f"{p50_calib / ref['latency_p50_calib']['value'] - 1:+.1%}, ops_per_kcalib "
                  f"{ops_kcalib / ref['ops_per_kcalib']['value'] - 1:+.1%}")
        else:
            print(f"tracing overhead: no untraced run of this seed in {OUT.name}/ to compare")
        units = {"self_ms": "ms", "_ms": "ms", "calls": "count", "ratio": "ratio",
                 "bytes": "bytes", "_calib": "calib", "ops_per_kcalib": "1/kcalib"}
        metrics = {}
        for name in sorted(layer):
            unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
            metrics[name] = (layer[name], unit)
        for name, (v, unit) in metrics.items():
            print(f"{name} {v} {unit}")

    result = {
        "correct": correct,
        "attempted": len(reqs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, digest=res["digest"], env=env,
                  known_defects=defects, not_covered=NOT_COVERED, setups=setups,
                  wall_s=time.perf_counter() - start, requests=reqs)
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
