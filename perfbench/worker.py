"""One benchmark worker process: import isofib, set up, then (unless it is
a set-up probe) run the workload's closed loop: in-process, or on
cold_cli one fresh interpreter per request.

Started by run.py with `src/` of the checkout on PYTHONPATH.  Prints
`ready` when set-up is done, so the parent can time interpreter start to
first request, with the calibration taken during set-up and the time
spent taking it; prints one JSON result line at the end.  Set-up is the
warm-up the workload's requests depend on:

- catalog_queries: the first full catalog (simple-K cases included),
  checked against the golden files and kept as the reference the catalog
  checks compare against;
- verify_jobs: none.  Every verify job looks its case up in a full
  catalog enumeration of its own; the first one, cold, is part of the
  deck's first request, as it is for a CLI user's verify job.  That
  request is always the slowest case (see workloads.py), so the cold
  lookup does not move the median, and set-up, at about 0.5 s instead of
  8-10 s, leaves the run time for a deck twice as large;
- cold_cli: every request is a fresh interpreter, so set-up only builds
  the reference, up to the deck's COLD_RANK_CAP; the golden files hold
  the full catalog only, so that partial reference is not golden-checked.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import RefRecord, check_response, reference_records  # noqa: E402
from hostspeed import HostSpeed, calibrate, calibrate_cold  # noqa: E402
from workloads import COLD_RANK_CAP, digest, make_deck  # noqa: E402

MAX_PASSES = 64


def _reference(dynkin, workload: str) -> tuple[list[RefRecord], list[str]]:
    """Set-up: the reference catalog the workload's checks compare against,
    and its differences from the golden files."""
    if workload == "verify_jobs":
        return [], []
    if workload == "cold_cli":
        part = dynkin.catalog(dynkin.CatalogConfig(rank_cap=COLD_RANK_CAP, include_simple_k=True))
        return reference_records(part.records, dynkin.record_to_dict), []
    full = dynkin.catalog(dynkin.CatalogConfig(include_simple_k=True))
    goldens = {name: dynkin.load_golden(name) for name in dynkin.GOLDEN_FILES}
    diffs = dynkin.golden_diff(dynkin.golden_projection(full), goldens)
    return reference_records(full.records, dynkin.record_to_dict), diffs


def _call(cli, argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed request; the loop goes on
            rc = -1
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def _run_child(cmd: list[str]) -> tuple[int, str, str, float]:
    """Run `cmd` to completion; return (exit code, stdout, stderr, its own
    peak RSS in MB).  The output goes through files in the run's output
    directory so the child can be waited for with `os.wait4`, which gives
    its resource usage apart from every other child's."""
    with tempfile.TemporaryFile("w+", dir=OUT) as out, tempfile.TemporaryFile("w+", dir=OUT) as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, text=True)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read(), err.read(), usage.ru_maxrss / 1024


def _call_cold(argv: list[str], tracer) -> tuple[int, str, str, float, float | None]:
    """Run one request in a fresh interpreter, as a CLI user does:
    `python -m isofib.cli`, or under tracing the benchmark's cold_child.py,
    whose spans are merged into `tracer`.  Returns (exit code, stdout,
    stderr, the child's peak RSS in MB, its import time in ms or None)."""
    if tracer is None:
        return (*_run_child([sys.executable, "-m", "isofib.cli", *argv]), None)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        spans = Path(tmp) / "spans.json"
        result = _run_child([sys.executable, str(HERE / "cold_child.py"), str(spans), *argv])
        import_ms = None
        if spans.is_file():
            dumped = json.loads(spans.read_text())
            tracer.absorb(dumped, tracer.request_id)
            import_ms = dumped["import_ms"]
    return (*result, import_ms)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--probe", action="store_true", help="set up, report, exit")
    ap.add_argument("--spans", default="", help="write spans here (traced runs)")
    args = ap.parse_args()

    src = Path(os.environ["PERFBENCH_SRC"]).resolve()
    cold = args.workload == "cold_cli"
    tracer = None
    # the host's speed during set-up, for run.py to scale set-up time by;
    # not sampled in traced runs, whose set-up time is not reported
    setup_host = HostSpeed(0.0 if args.trace else 0.5)
    with setup_host:
        t0 = time.perf_counter()
        from isofib import cli, dynkin
        import_ms = (time.perf_counter() - t0) * 1e3
        if src not in Path(cli.__file__).resolve().parents:
            print(f"error: isofib imported from {cli.__file__}, not from {src}", file=sys.stderr)
            return 2
        if args.trace:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
        reference, golden_diffs = _reference(dynkin, args.workload)
    t = time.perf_counter()
    setup_calib = statistics.median([*setup_host.samples, calibrate()])
    spent_s = setup_host.spent_s + time.perf_counter() - t
    print("ready " + json.dumps({"calib_ms": setup_calib, "spent_s": spent_s}), flush=True)
    if args.probe:
        return 0

    deck = make_deck(args.workload, args.seed)
    results = []
    loop_start = time.perf_counter()
    measure = calibrate_cold if cold else calibrate
    before = measure()
    # in a traced run the handler's time would land in whatever span it
    # interrupts, and during a cold request it would compete with the
    # child, so calibration there is only around requests
    host = HostSpeed(0.0 if tracer is not None or cold else 0.5)
    child_import_ms, child_rss_mb = [], [0.0]
    for pass_no in range(MAX_PASSES):
        for index, argv in enumerate(deck):
            if tracer is not None:
                tracer.request_id = len(results) + 1
            t = time.perf_counter()
            with host:
                if cold:
                    rc, out, err, rss_mb, child_ms = _call_cold(argv, tracer)
                    child_rss_mb.append(rss_mb)
                else:
                    rc, out, err = _call(cli, argv)
            dt = time.perf_counter() - t - host.spent_s
            after = measure()
            calib_ms = statistics.median([before, *host.samples, after])
            before = after
            if cold and child_ms is not None:
                child_import_ms.append(child_ms)
            verdict = check_response(argv, rc, out, reference)
            results.append(
                {
                    "pass": pass_no,
                    "index": index,
                    "argv": argv,
                    "ms": dt * 1e3,
                    "calib_ms": calib_ms,
                    "rc": rc,
                    "ok": verdict.ok,
                    "known_defect": verdict.known_defect,
                    "reasons": verdict.reasons + ([err.strip()[-500:]] if rc not in (0, 1) and err else []),
                }
            )
        if time.perf_counter() - loop_start >= args.seconds:
            break
    loop_s = time.perf_counter() - loop_start

    import numpy
    import scipy

    # on cold_cli the program's process is each child: the import time is
    # theirs (traced runs only), the peak RSS the largest child's
    own_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "import_ms": statistics.median(child_import_ms) if child_import_ms else import_ms,
        "golden_diffs": golden_diffs,
        "loop_s": loop_s,
        "requests": results,
        "digest": digest(deck),
        "passes": pass_no + 1,
        "peak_rss_mb": max(child_rss_mb) if cold else own_rss_mb,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer is not None:
        result["per_layer"] = tracer.metrics()
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
