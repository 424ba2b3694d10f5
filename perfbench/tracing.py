"""Span tracing of isofib's public functions, installed from outside.

`Tracer.install` replaces each traced function with a wrapper on every
isofib module that binds it, so names imported directly into another
module (for example `cli.catalog`) are traced too.  Each call records a
span: name, start and end in nanoseconds, parent span and request id.
Spans are kept in flat arrays in memory and written out once, at the end
of the run.  Self time is a span's duration minus the durations of its
direct children, which on one thread are nested inside it.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from array import array
from collections import defaultdict

# (module, attribute) -> span name.  Several functions may share one name.
TRACED = {
    ("isofib.rootsys", "build_root_system"): "rootsys.build_root_system",
    ("isofib.rootsys", "highest_root"): "rootsys.highest_root",
    ("isofib.rootsys", "weyl_order"): "rootsys.weyl_order",
    ("isofib.rootsys", "weyl_order_bfs"): "rootsys.weyl_order",
    ("isofib.dynkin", "catalog"): "dynkin.catalog",
    ("isofib.dynkin", "splittings"): "dynkin.splittings",
    ("isofib.dynkin", "diagram_of"): "dynkin.diagram_of",
    ("isofib.dynkin", "diagram_automorphisms"): "dynkin.diagram_automorphisms",
    ("isofib.dynkin", "bds_enumerate"): "dynkin.bds_enumerate",
    ("isofib.dynkin", "load_golden"): "dynkin.golden",
    ("isofib.dynkin", "golden_projection"): "dynkin.golden",
    ("isofib.dynkin", "golden_diff"): "dynkin.golden",
    ("isofib.liealg", "find_record"): "liealg.find_record",
    ("isofib.liealg", "build_model"): "liealg.build_model",
    ("isofib.liealg", "natural_reductivity_check"): "liealg.natural_reductivity_check",
    ("isofib.homspace", "riemannian_log"): "homspace.riemannian_log",
    ("isofib.homspace", "chord_to_coset"): "homspace.chord_to_coset",
    ("isofib.homspace", "displacement_profile"): "homspace.displacement_profile",
    ("isofib.homspace", "fixed_fiber"): "homspace.fixed_fiber",
    ("isofib.homspace", "distance_lower_bound"): "homspace.distance_lower_bound",
    ("isofib.cli", "render"): "cli.render",
    ("isofib.cli", "main"): "cli.main",
}
SPAN_NAMES = tuple(dict.fromkeys(TRACED.values()))


def chord_path(factors) -> str:
    """The branch of `chord_to_coset` a factor tuple takes: the circle-grid
    path whenever a circle factor is present, the SO Procrustes path for
    SO factors alone, the SU block path otherwise."""
    kinds = {f.kind for f in factors}
    if "circle" in kinds:
        return "circle"
    if kinds and kinds <= {"so"}:
        return "so"
    return "su"


class Tracer:
    def __init__(self) -> None:
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.request = array("l")
        self.request_id = 0  # 0 = setup
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, fn, span: str):
        idx = SPAN_NAMES.index(span)
        counts = self.counts
        names, starts, ends = self.name, self.start, self.end
        parents, requests, stack = self.parent, self.request, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            requests.append(self.request_id)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if span == "homspace.riemannian_log" and out.converged:
                counts["homspace.riemannian_log.converged"] += 1
            elif span == "homspace.chord_to_coset":
                factors = args[3] if len(args) > 3 else kwargs["factors"]
                counts[f"homspace.chord_to_coset.calls.{chord_path(factors)}"] += 1
            elif span == "cli.render":
                counts["cli.render.bytes"] += len(out.encode())
            return out

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an isofib module binds it."""
        modules = [m for n, m in sys.modules.items() if n == "isofib" or n.startswith("isofib.")]
        for (mod_name, attr), span in TRACED.items():
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(original, span)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapped)

    def dump(self) -> dict:
        """The spans and counts as plain lists, for another process's
        tracer to `absorb`."""
        return {
            "name": self.name.tolist(), "start": self.start.tolist(), "end": self.end.tolist(),
            "parent": self.parent.tolist(), "counts": dict(self.counts),
        }

    def absorb(self, dumped: dict, request_id: int) -> None:
        """Append another process's spans (see `dump`) as request
        `request_id`.  Both clocks are the system's monotonic clock."""
        base = len(self.name)
        self.name.extend(dumped["name"])
        self.start.extend(dumped["start"])
        self.end.extend(dumped["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in dumped["parent"])
        self.request.extend(request_id for _ in dumped["name"])
        for key, n in dumped["counts"].items():
            self.counts[key] += n

    def metrics(self) -> dict[str, float]:
        n = len(self.name)
        self_ns = [self.end[i] - self.start[i] for i in range(n)]
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                self_ns[p] -= self.end[i] - self.start[i]
        out: dict[str, float] = {}
        for span in SPAN_NAMES:
            out[f"{span}.self_ms"] = 0.0
            out[f"{span}.calls"] = 0
        for i in range(n):
            span = SPAN_NAMES[self.name[i]]
            out[f"{span}.self_ms"] += self_ns[i] / 1e6
            out[f"{span}.calls"] += 1
        # dynkin.catalog calls made under a find_record span: each one is a
        # full enumeration repeated per lookup
        find, cat = SPAN_NAMES.index("liealg.find_record"), SPAN_NAMES.index("dynkin.catalog")
        under = 0
        for i in range(n):
            if self.name[i] != cat:
                continue
            p = self.parent[i]
            while p >= 0 and self.name[p] != find:
                p = self.parent[p]
            under += p >= 0
        out["liealg.find_record.catalog_calls"] = under
        for path in ("circle", "su", "so"):
            key = f"homspace.chord_to_coset.calls.{path}"
            out[key] = self.counts[key]
        logs = out["homspace.riemannian_log.calls"]
        out["homspace.riemannian_log.converged"] = self.counts["homspace.riemannian_log.converged"]
        out["homspace.riemannian_log.converged_ratio"] = (
            out["homspace.riemannian_log.converged"] / logs if logs else 0.0
        )
        out["cli.render.bytes"] = self.counts["cli.render.bytes"]
        out["trace.spans"] = n
        return out

    def write(self, path: str) -> None:
        """Spans as gzip'd CSV: id,name,start_ns,end_ns,parent,request."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("id,name,start_ns,end_ns,parent,request\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i},{SPAN_NAMES[self.name[i]]},{self.start[i]},{self.end[i]},"
                    f"{self.parent[i]},{self.request[i]}\n"
                )
