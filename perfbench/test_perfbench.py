"""The benchmark's own tests:  python3 -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from perfhom import fem, meshing, solvers  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _f(x):
    return np.sin(np.pi * x[:, 0])


def _small_solve():
    mesh = meshing.mesh_box((0.0, -1.0), (1.0, 1.0), 0.25)
    return solvers.solve_homogenized_plain(mesh, fem.CoefficientSet(dim=2), _f)


def test_end_to_end_names_and_units_match_spec():
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert spec == run.END_TO_END_UNITS
    assert all(NAME.match(n) for n in spec)


def test_layer_names_and_units_match_spec():
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert list(spec) == list(tracing.LAYER_METRICS)
    assert spec == {m: tracing.unit(m) for m in tracing.LAYER_METRICS}
    assert all(NAME.match(n) for n in spec)
    emitted = tracing.layer_metrics(tracing.Tracer("t"))
    assert set(emitted) | {"trace.overhead_s"} == set(spec)


def test_workloads_match_spec():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    assert all(NAME.match(w["name"]) for w in SPEC["workloads"])
    reference = json.loads(run.REFERENCE.read_text())
    assert set(reference["workloads"]) == set(workloads.WORKLOADS)


def test_wrappers_restore_originals():
    before = [(m, a, getattr(m, a)) for m, a, _, _ in tracing.targets()]
    tracer = tracing.Tracer("t")
    with tracing.instrument(tracer):
        assert all(getattr(m, a) is not f for m, a, f in before)
        _small_solve()
    assert all(getattr(m, a) is f for m, a, f in before)
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracer):
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in before)


def test_traced_solve_spans_counts_and_outputs():
    plain = _small_solve()
    tracer = tracing.Tracer("t")
    with tracing.instrument(tracer), tracer.span("workload"):
        traced = _small_solve()
    assert np.array_equal(plain.values, traced.values)
    parent = {s.name: tracer.spans[s.parent].name for s in tracer.spans
              if s.parent is not None}
    assert parent["meshing.mesh_interface"] == "workload"
    assert parent["solvers.solve_homogenized_plain"] == "workload"
    assert parent["fem.assemble"] == "solvers.solve_homogenized_plain"
    assert parent["kernel.cg"] == "fem.solve_linear"
    assert all(s.end >= s.start and s.run_id == "t" for s in tracer.spans)
    m = tracing.layer_metrics(tracer)
    assert m["solvers.u0_solves"] == 1 and m["kernel.cg.calls"] >= 1
    assert m["fem.assemble.calls"] == 1
    assert m["fem.assemble.simplices"] == plain.mesh.n_simplices


def test_self_time_subtracts_direct_children():
    S = tracing.Span
    spans = [S("a", 0.0, 10.0, None, "r"), S("b", 1.0, 4.0, 0, "r"),
             S("c", 2.0, 3.0, 1, "r"), S("b", 5.0, 6.0, 0, "r")]
    st = tracing.self_times(spans)
    assert st["a"] == (6.0, 1)
    assert st["b"] == (3.0, 2)
    assert st["c"] == (1.0, 1)


def test_u0_cap_hits_groups_solves_by_row():
    S = tracing.Span
    spans = [S("harness.run_study", 0, 9, None, "r")]
    for n in (2, 4, 3):
        spans.append(S("geometry.make_layout", 0, 0, 0, "r"))
        spans += [S("solvers.solve_homogenized_plain", 0, 0, 0, "r")] * n
    assert tracing.u0_cap_hits(spans, cap=2) == 1
    assert tracing.u0_cap_hits(spans, cap=1) == 2


def test_failed_ops_rules():
    ref = {"ops": [{"id": "a", "x": 1.0, "ok": True},
                   {"id": "b", "x": 2.0, "ok": False}],
           "shared": {"c_fit": 0.5, "flag": None}}

    def out(x=1.0, ok=True, c_fit=0.5):
        return {"ops": [{"id": "a", "x": x, "ok": ok},
                        {"id": "b", "x": 2.0, "ok": False}],
                "shared": {"c_fit": c_fit, "flag": None}}

    assert workloads.failed_ops(out(), ref, True) == []
    assert workloads.failed_ops(out(x=1.0 + 1e-7), ref, True) == []
    assert workloads.failed_ops(out(x=1.0 + 1e-5), ref, True) == [0]
    assert workloads.failed_ops(out(x=1.0 + 1e-5), ref, False) == []
    assert workloads.failed_ops(out(x=float("nan")), ref, False) == [0]
    assert workloads.failed_ops(out(ok=False), ref, False) == [0]
    assert workloads.failed_ops(out(c_fit=0.6), ref, True) == [0, 1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plain-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
