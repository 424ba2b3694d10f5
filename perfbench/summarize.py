"""Summarize run records as Markdown: per workload and metric, the run
count, median, quartiles and their spread (Q3 - Q1 over the median), as
`statistics.quantiles(values, n=4)` gives them.

    python3 perfbench/summarize.py .perfbench_out/*-trace0.json
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def main(paths: list[str]) -> int:
    runs = defaultdict(list)
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        runs[(rec["workload"], rec["trace"])].append(rec)
    for (workload, trace), recs in sorted(runs.items()):
        recs.sort(key=lambda r: r["seed"])
        seeds = ", ".join(str(r["seed"]) for r in recs)
        attempted = sum(r["attempted"] for r in recs)
        failed = sum(r["failed"] for r in recs)
        print(f"### {workload}, trace {trace}: {len(recs)} runs (seeds {seeds})\n")
        print(f"failed {failed} of {attempted} requests ({failed / attempted:.2%}); "
              f"correct in {sum(r['correct'] for r in recs)} of {len(recs)} runs\n")
        print("| metric | unit | median | Q1 | Q3 | spread |")
        print("| --- | --- | --- | --- | --- | --- |")
        for name, m in recs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in recs]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / med:.3f}" if med else "-"
                print(f"| {name} | {m['unit']} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread} |")
            else:
                print(f"| {name} | {m['unit']} | {med:.6g} | | | |")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
