"""Tracer wrappers, span nesting and self time.  Installing the tracer
rebinds isofib's functions for the whole process, so the traced part runs
in a child interpreter."""
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, chord_path

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent

CHILD = """
import io, contextlib, json, sys
from isofib import cli, dynkin
import isofib
from tracing import Tracer
t = Tracer()
t.install()
out = {"same": cli.catalog is dynkin.catalog is isofib.catalog,
       "wrapped": hasattr(cli.catalog, "__wrapped__")}
with contextlib.redirect_stdout(io.StringIO()):
    t.request_id = 1
    cli.main(["catalog", "--family", "G", "--format", "json"])
    t.request_id = 2
    cli.main(["catalog", "--family", "B", "--rank-cap", "3", "--format", "text"])
spans = [dict(name=t.name[i], start=t.start[i], end=t.end[i], parent=t.parent[i],
              request=t.request[i]) for i in range(len(t.name))]
out.update(spans=spans, metrics=t.metrics())
print(json.dumps(out))
"""


def traced_child():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(PERFBENCH)]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_wrappers_replace_every_binding_and_nest():
    out = traced_child()
    assert out["same"] and out["wrapped"]
    spans = out["spans"]
    roots = [s for s in spans if s["parent"] == -1]
    assert [s["request"] for s in roots] == [1, 2]
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] >= 0:
            p = spans[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
            assert p["request"] == s["request"]
    m = out["metrics"]
    assert m["cli.main.calls"] == 2 and m["cli.render.calls"] == 2
    assert m["dynkin.catalog.calls"] == 2 and m["dynkin.splittings.calls"] > 0
    # self times partition the root spans' time
    total_self = sum(v for k, v in m.items() if k.endswith(".self_ms"))
    total_root = sum(s["end"] - s["start"] for s in roots) / 1e6
    assert abs(total_self - total_root) < 1e-6 * max(1.0, total_root)
    assert m["trace.spans"] == len(spans)
    assert m["homspace.riemannian_log.calls"] == 0
    assert m["homspace.riemannian_log.converged_ratio"] == 0.0


def test_cold_child_spans_merge_as_one_request(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    spans = tmp_path / "spans.json"
    argv = ["catalog", "--family", "G", "--format", "json"]
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "cold_child.py"), str(spans), *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["command"] == "catalog"
    dumped = json.loads(spans.read_text())
    assert dumped["import_ms"] > 0
    t = Tracer()
    t.absorb(dumped, 3)
    t.absorb(dumped, 4)
    n = len(dumped["name"])
    assert len(t.name) == 2 * n and set(t.request) == {3, 4}
    assert list(t.parent[n:]) == [p + n if p >= 0 else -1 for p in dumped["parent"]]
    m = t.metrics()
    assert m["cli.main.calls"] == 2 and m["dynkin.catalog.calls"] == 2
    assert m["rootsys.build_root_system.calls"] > 0


def test_chord_paths_follow_factor_kinds():
    f = lambda *kinds: tuple(SimpleNamespace(kind=k) for k in kinds)  # noqa: E731
    assert chord_path(f("su", "circle")) == "circle"
    assert chord_path(f("circle")) == "circle"
    assert chord_path(f("so", "so")) == "so"
    assert chord_path(f("su")) == "su"
    assert chord_path(f("su", "su")) == "su"


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = set(Tracer().metrics()) | {
        "process.import_ms", "trace.latency_p50_calib", "trace.ops_per_kcalib"
    }
    assert {m["name"] for m in bench["per_layer"]} == names
