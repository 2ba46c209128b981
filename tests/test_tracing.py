"""The benchmark's tracer against the current API: every traced entry point
exists, wrapping restores it, and a traced T2 row records the nonlinear
solve spans.  perfbench/tracing.py is only imported, never changed."""

import importlib.util
import sys
from pathlib import Path

import pytest

from perfhom import harness

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
_SPEC = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_SPEC)
sys.modules[_SPEC.name] = tracing
_SPEC.loader.exec_module(tracing)


def test_every_target_resolves():
    names = [name for *_, name, _ in tracing.targets()]
    assert len(set(names)) == len(names)
    for module, attr, name, hook in tracing.targets():
        assert callable(getattr(module, attr, None)), name
        assert hook is None or callable(hook)


def test_instrument_wraps_and_restores_every_target():
    before = [(m, a, getattr(m, a)) for m, a, _, _ in tracing.targets()]
    with tracing.instrument(tracing.Tracer("t")):
        assert all(getattr(m, a) is not f for m, a, f in before)
    assert all(getattr(m, a) is f for m, a, f in before)
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer("t")):
            raise RuntimeError("boom")
    assert all(getattr(m, a) is f for m, a, f in before)


def test_traced_t2_row_records_the_nonlinear_spans():
    config = harness.StudyConfig(theorem="T2", nbc_kind="saturating",
                                 nbc_sigma=2.0, eps_list=(1 / 8,))
    tracer = tracing.Tracer("t")
    with tracing.instrument(tracer), tracer.span("workload"):
        report = harness.run_study(config)
    assert len(report.rows) == 1

    def ancestors(span):
        while span.parent is not None:
            span = tracer.spans[span.parent]
            yield span.name

    # the chord sweeps are linear solves inside the nonlinear solve
    sweeps = [s for s in tracer.spans if s.name == "fem.solve_linear"]
    assert sweeps
    assert all("solvers.solve_assembled" in ancestors(s) for s in sweeps)
    m = tracing.layer_metrics(tracer)
    # one assembly per mesh: h, h/2 and each u0 level; every rhs on the h
    # mesh and on each u0 level, f0 alone on h/2
    (row,) = report.rows
    assert m["solvers.solve_assembled.calls"] == 3 * (1 + row["u0_solves"]) + 1
    assert m["fem.assemble.calls"] == 2 + row["u0_solves"]
    # the chord sweeps build no Jacobian, and no solve reports Newton steps
    assert m["fem.boundary_nonlinear.calls"] == m["solvers.newton_iters"] == 0
    assert m["solvers.picard_iters"] == m["fem.solve_linear.calls"] >= 1
    # each system factors K inside its first solve; the fallback hook counts
    # an LU whose caller is a solvers span, so none may appear there
    lus = [s for s in tracer.spans if s.name == "kernel.splu"]
    assert lus and all(tracer.spans[s.parent].name == "fem.solve_linear"
                       for s in lus)
    assert m["kernel.newton_splu_fallbacks"] == 0
    # qhull runs once in each perforated mesh, h and h/2, so kernel.delaunay
    # times qhull alone
    meshes = [i for i, s in enumerate(tracer.spans)
              if s.name == "meshing.mesh_perforated"]
    qhull = [s.parent for s in tracer.spans if s.name == "kernel.delaunay"]
    assert len(meshes) == 2 and sorted(qhull) == meshes
