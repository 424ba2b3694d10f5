"""Byte parity of `catalog`, `selfcheck` and `verify --format json` output,
and of the demos' output, between the working tree and a git ref.

Usage: python tools/verify_parity.py REF

Exports REF's `src/` and `demos/` with `git archive` into a temporary
directory (so no worktree is registered in the repository), runs every
request of the parity set in a fresh `python -m isofib.cli` process
against the working tree's `src/` and against the export's `src/`, then
each tree's demos (those of the working tree, by name) against its own
`src/`, and prints SAME or DIFF per request and per demo with both exit
codes.  A run is SAME when stdout and exit code match.  The last line
counts the failing runs (exit code not 0) of each side, so the direction
of any pass/fail change shows at a glance.  Exits 1 on any DIFF, 2 when
REF cannot be exported.  SIGTERM or SIGINT stops both running processes
and removes the export before the tool exits.
"""
from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# the catalog in each format, under each filter kind (the default and
# every rank cap 1-8, --simple-k, --class, a family letter, a letter+rank
# label), a request with no record, then the golden diff and the selfcheck
CATALOG_SET = (
    ("catalog",),
    ("catalog", "--format", "json"),
    ("catalog", "--format", "csv"),
    ("catalog", "--simple-k"),
    ("catalog", "--simple-k", "--format", "json"),
    *(
        ("catalog", "--rank-cap", str(cap), "--format", ("text", "json", "csv")[cap % 3])
        for cap in range(1, 9)
    ),
    ("catalog", "--class", "hermitian", "--format", "csv"),
    ("catalog", "--class", "symmetric", "--simple-k"),
    ("catalog", "--class", "nearly-kaehler", "--simple-k", "--format", "json"),
    ("catalog", "--class", "5-symmetric", "--class", "stiefel"),
    ("catalog", "--family", "A", "--format", "json"),
    ("catalog", "--family", "D", "--rank-cap", "6", "--format", "csv"),
    ("catalog", "--family", "E", "--family", "F", "--family", "G"),
    ("catalog", "--family", "A5", "--format", "csv"),
    ("catalog", "--family", "D4", "--format", "json"),
    ("catalog", "--family", "E8", "--family", "B2", "--simple-k"),
    ("catalog", "--family", "C3", "--family", "C", "--rank-cap", "5", "--format", "json"),
    ("catalog", "--class", "nearly-kaehler", "--family", "A", "--format", "json"),
    ("catalog", "--class", "nearly-kaehler", "--family", "A", "--format", "csv"),
    ("catalog", "--golden"),
    ("catalog", "--golden", "--format", "json"),
    ("catalog", "--golden", "--format", "csv"),
    ("selfcheck",),
    ("selfcheck", "--format", "json"),
)

# the 18 requests of perfbench's verify_jobs decks 1-3, then further seeds
# of the same cases.
# so8-so3so5--k1-0so3 at 9, 10, 11, 29, 9980, 6205, 9906 and 9094 failed
# (displacement-inconclusive: the k2-left profile was not separated while
# its upper bounds came from multistart logs at Haar points), and at 1, 4242
# and 5100, as su3-hopf at 6336 and 11, under the chord lower bound.
# so8-so3so5--k1-0so3 at 1988, 3609, 4166 and 9292 and the last two
# so6-stiefel seeds are where the luck of random starts once decided the
# central verdict: the closed-form central log must keep it there, and
# the round trips, now one start each, must keep theirs.  The next three
# cases cover the block shapes of `liealg.build_model` that the others leave
# out: two SU blocks, an SU(3) block, and K1 as the second block.  The next
# two have K1 with an SU(3) block and no circle: their k2-left profiles
# separate only because the chord lower bound is that block's exact
# maximum.  su5-su2u3--k1-1a2-t1 has K1 = circle x SU(3), whose logs
# evaluate the SU(3) block's maximum at every circle angle (the slowest
# request of the set).  The last ones failed k2-left
# (displacement-noncentral-certified) before the torus witness: K1 = SO(3)
# on SO(10) and SO(12), K1 = the circle alone (su5, su6), and K1 = SU(4),
# which still fails (its witness upper lies just above the highest lower
# bound).  The slower failing records, SO(14) to SO(18), are left out;
# so18-so9so9--k1-0so9, which passes, stands in for that range: K1 = SO(9)
# and K2 = SO(9) in SO(18) is the largest block shape `liealg.build_model`
# makes
VERIFY_SET = tuple(
    ("verify", case, "--seed", str(seed), "--format", "json")
    for case, seeds in (
        (
            "so8-so3so5--k1-0so3",
            (5100, 1803, 8206, 1, 2, 17, 333, 4242, 7777, 1988, 3609, 4166, 9292)
            + (9, 10, 11, 29, 9980, 6205, 9906, 9094),
        ),
        # at 8688 a solved central-1 base-point log once crawled to the
        # step cap: the closed-form central log must pass there
        ("su3-hopf", (1705, 6869, 6336, 11, 5100, 8688)),
        ("su3-su1u2--k1-t1", (3546, 1046, 2454, 4651, 4805, 7656, 77, 901)),
        ("so6-stiefel", (7991, 9215, 7294, 9042, 2298, 1177, 25, 3139, 3370, 8743)),
        ("su4-su2u2--k1-0a1-t1", (1,)),
        ("su4-su1u3--k1-0a2", (1,)),
        ("so8-so3so5--k1-1so5", (1,)),
        ("su5-su2u3--k1-0a1-1a2", (1,)),
        ("su6-su3u3--k1-0a2-1a2", (1,)),
        ("su5-su2u3--k1-1a2-t1", (1,)),
        ("su5-su1u4--k1-t1", (1,)),
        ("su6-su1u5--k1-t1", (1,)),
        ("su6-su2u4--k1-t1", (1,)),
        ("su6-su2u4--k1-1a3", (1,)),
        # K1 = circle x SU(4): a circle with a block past SU(3), where the
        # block's phase takes the Newton solve of `homspace._su_root` at
        # c = 4 and its k* comes from the SVD that found the circle angle
        ("su6-su2u4--k1-1a3-t1", (1, 2)),
        ("su8-su4u4--k1-0a3-t1", (1,)),
        # K1 = SU(3): k2-left fails at seed 7 (also 11, 15, 16 and 27), gap -0.03
        ("su4-su1u3--k1-0a2", (7,)),
        ("so10-so3so7--k1-0so3", (1, 2, 3)),
        ("so12-so3so9--k1-0so3", (1, 2, 3)),
        ("so18-so9so9--k1-0so9", (1,)),
        # central shapes the others leave out, for the closed-form central
        # log: K1 = SO(5) (z = -1 pairs two SO(5) blocks' -1 lines), K1 =
        # SU(2) x SU(2) with K2 the circle, and K1 the circle with K2 =
        # SU(2) x SU(2)
        ("so10-so5so5--k1-0so5", (1,)),
        ("su4-su2u2--k1-0a1-1a1", (1,)),
        ("su4-su2u2--k1-t1", (1,)),
    )
    for seed in seeds
)
PARITY_SET = CATALOG_SET + VERIFY_SET


def start(tree: Path, args: list[str]) -> subprocess.Popen:
    """`python args` against the tree's `src/`."""
    # one BLAS thread, as in the benchmark: the two processes share the cores
    threads = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **threads)
    return subprocess.Popen(
        [sys.executable, *args], env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
    )


def compare(runs: list[tuple[Path, list[str]]]) -> tuple[bool, int, int]:
    """(same, working exit code, REF exit code) of the working tree's run
    and REF's run, each a (tree, args) pair of `start`, side by side."""
    procs: list[subprocess.Popen] = []
    try:
        for tree, args in runs:
            procs.append(start(tree, args))
        (work, work_code), (ref, ref_code) = [(p.communicate()[0], p.returncode) for p in procs]
    finally:
        for p in procs:
            if p.returncode is None:
                p.terminate()
                p.wait()
    return work == ref and work_code == ref_code, work_code, ref_code


def exit_on_signal(signum: int, frame) -> None:
    """Turn SIGTERM and SIGINT into SystemExit, so the export's temporary
    directory and the running children are cleaned up on the way out."""
    raise SystemExit(128 + signum)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, exit_on_signal)
    with tempfile.TemporaryDirectory(prefix="verify-parity-") as ref_dir:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", argv[0], "src", "demos"], capture_output=True
        )
        if archive.returncode:
            print(archive.stderr.decode().strip(), file=sys.stderr)
            return 2
        subprocess.run(["tar", "-x", "-C", ref_dir], input=archive.stdout, check=True)
        ref = Path(ref_dir)
        jobs = [
            (" ".join(r), [(tree, ["-m", "isofib.cli", *r]) for tree in (ROOT, ref)])
            for r in PARITY_SET
        ]
        demos = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
        jobs += [
            (f"demos/{d}", [(tree, [str(tree / "demos" / d)]) for tree in (ROOT, ref)])
            for d in demos
        ]
        diffs, failing = [0, 0], [0, 0]
        for i, (label, runs) in enumerate(jobs):
            same, work_code, ref_code = compare(runs)
            diffs[i >= len(PARITY_SET)] += not same
            failing[0] += work_code != 0
            failing[1] += ref_code != 0
            status = "SAME" if same else "DIFF"
            print(f"{status} {label} (exit {work_code} vs {ref_code})", flush=True)
    print(f"{len(PARITY_SET) - diffs[0]} of {len(PARITY_SET)} requests byte-identical")
    print(f"{len(demos) - diffs[1]} of {len(demos)} demos byte-identical")
    print(f"failing: {argv[0]} {failing[1]}, tree {failing[0]}")
    return 1 if any(diffs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
