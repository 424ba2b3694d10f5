"""One traced cold CLI request: a fresh interpreter that imports isofib,
installs the benchmark's span wrappers and runs `cli.main` on its
arguments, as `python -m isofib.cli` would.

    python3 perfbench/cold_child.py SPANS_JSON catalog --rank-cap 3

The response goes to stdout and the exit code is `cli.main`'s; the spans,
counts and import time go to SPANS_JSON for the worker to merge.
"""
from __future__ import annotations

import json
import sys
import time
from pathlib import Path

t0 = time.perf_counter()
from isofib import cli  # noqa: E402

import_ms = (time.perf_counter() - t0) * 1e3
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer  # noqa: E402


def main(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(dict(tracer.dump(), import_ms=import_ms), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
