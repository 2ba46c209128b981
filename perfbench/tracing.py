"""Outside-in tracing of perfhom: spans around public functions and scipy kernels.

The program is not modified.  ``instrument`` replaces each listed module
attribute with a wrapper that records a span (name, start, end, parent, run
id), runs the original, and hands the result to an optional counter hook.
The originals are restored when the context exits, also on error.  Spans are
kept in memory; ``layer_metrics`` derives self times and counts from them.

The wrappers only see calls that go through the module attribute, which is
how perfhom's modules call each other (``fem.assemble``, ``spla.cg``) and how
a module calls its own functions (a global lookup).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None
    run_id: str


@dataclass
class Tracer:
    """Span recorder for one single-threaded traced pass."""

    run_id: str
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    u0_cap: int | None = None  # u0_refine_cap of the traced study, if any
    _stack: list = field(default_factory=list)

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    def parent_name(self):
        """Name of the innermost open span, or None outside every span."""
        return self.spans[self._stack[-1]].name if self._stack else None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), None, parent, self.run_id))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def wrap(self, name, fn, hook=None):
        def traced(*args, **kwargs):
            caller = self.parent_name()
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self, caller, result)
            return result
        return traced


# --- counter hooks: (tracer, name of the calling span, result) --------------

def _n_vertices(key):
    def hook(tr, caller, mesh):
        tr.count(key, mesh.n_vertices)
    return hook


def _on_interpolate(tr, caller, vals):
    tr.count("meshing.interpolate.points", len(vals))


def _on_assemble(tr, caller, system):
    tr.count("fem.assemble.simplices", system.mesh.n_simplices)


def _add_iters(tr, info):
    tr.count("solvers.picard_iters", int(info.get("picard_iters", 0)))
    tr.count("solvers.newton_iters", int(info.get("newton_iters", 0)))


def _on_solve_assembled(tr, caller, result):
    _add_iters(tr, result[1])


def _on_homogenized(tr, caller, field_):
    tr.count("solvers.u0_solves")
    _add_iters(tr, field_.info)


def _on_slab(tr, caller, slab):
    tr.count("snorm.trace_dofs", slab.n_trace)


def _on_s_norm(tr, caller, result):
    if isinstance(result, tuple):
        info = result[1]
        tr.count("snorm.power_iters", sum(info["iterations"]))
        tr.count("snorm.stalled", int(bool(info["stalled"])))


def _on_run_study(tr, caller, report):
    tr.count("harness.rows", len(report.rows))
    tr.u0_cap = report.config["u0_refine_cap"]


def _on_splu(tr, caller, result):
    # solvers calls splu itself only when Newton's BiCGStab did not converge
    if caller is not None and caller.startswith("solvers."):
        tr.count("kernel.newton_splu_fallbacks")


def targets():
    """(module, attribute, span name, hook) for every traced entry point."""
    import scipy.sparse.linalg as spla

    from perfhom import (alpha, corrector, fem, geometry, harness, meshing,
                         snorm, solvers)

    return [
        (spla, "splu", "kernel.splu", _on_splu),
        (spla, "spilu", "kernel.spilu", None),
        (spla, "cg", "kernel.cg", None),
        (spla, "bicgstab", "kernel.bicgstab", None),
        (spla, "gmres", "kernel.gmres", None),
        (meshing, "Delaunay", "kernel.delaunay", None),
        (geometry, "make_layout", "geometry.make_layout", None),
        # mesh_box delegates to mesh_interface, so one span covers both
        (meshing, "mesh_interface", "meshing.mesh_interface",
         _n_vertices("meshing.u0_vertices")),
        (meshing, "mesh_perforated", "meshing.mesh_perforated",
         _n_vertices("meshing.perforated_vertices")),
        (meshing, "interpolate", "meshing.interpolate", _on_interpolate),
        (fem, "assemble", "fem.assemble", _on_assemble),
        (fem, "load_vector", "fem.load_vector", None),
        (fem, "l2_of_function", "fem.l2_of_function", None),
        (fem, "norms", "fem.norms", None),
        (fem, "solve_linear", "fem.solve_linear", None),
        (fem, "boundary_nonlinear", "fem.boundary_nonlinear", None),
        (fem, "estimate_lambda0", "fem.estimate_lambda0", None),
        (alpha, "alpha0_mean", "alpha.alpha0_mean", None),
        (alpha, "surface_density", "alpha.surface_density", None),
        (solvers, "solve_assembled", "solvers.solve_assembled", _on_solve_assembled),
        (solvers, "solve_homogenized_plain", "solvers.solve_homogenized_plain",
         _on_homogenized),
        (solvers, "solve_homogenized_delta", "solvers.solve_homogenized_delta",
         _on_homogenized),
        (snorm, "kappa_table", "snorm.kappa_table", None),
        (snorm, "slab_for_layout", "snorm.slab_for_layout", _on_slab),
        (snorm, "s_norm", "snorm.s_norm", _on_s_norm),
        (corrector, "cell_beta", "corrector.cell_beta", None),
        (corrector, "mu_table", "corrector.mu_table", None),
        (harness, "run_study", "harness.run_study", _on_run_study),
    ]


@contextlib.contextmanager
def instrument(tracer):
    """Wrap every target for the duration of the block, then restore it."""
    saved = []
    try:
        for module, attr, name, hook in targets():
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans):
    """Per span name: (summed self time, call count).

    Self time is a span's duration minus the time its direct children cover;
    children of one single-threaded span never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child[s.parent] += s.end - s.start
    out = {}
    for s, c in zip(spans, child):
        t, n = out.get(s.name, (0.0, 0))
        out[s.name] = (t + (s.end - s.start) - c, n + 1)
    return out


def u0_cap_hits(spans, cap):
    """Study rows whose u0 refinement ladder ran to its cap.

    A row starts at each layout built directly under ``harness.run_study``;
    its ladder ends on the cap when it made cap + 2 homogenized solves.
    """
    solves = []
    for s in spans:
        parent = spans[s.parent].name if s.parent is not None else None
        if s.name == "geometry.make_layout" and parent == "harness.run_study":
            solves.append(0)
        elif s.name.startswith("solvers.solve_homogenized_") and solves:
            solves[-1] += 1
    return sum(1 for n in solves if n >= cap + 2)


# per-layer metric -> span whose self time it reports
_SELF_TIME = {
    "kernel.bicgstab.s": "kernel.bicgstab",
    "kernel.spilu.s": "kernel.spilu",
    "kernel.splu.s": "kernel.splu",
    "kernel.cg.s": "kernel.cg",
    "kernel.delaunay.s": "kernel.delaunay",
    "fem.solve_linear.s": "fem.solve_linear",
    "fem.assemble.s": "fem.assemble",
    "fem.load_vector.s": "fem.load_vector",
    "fem.norms.s": "fem.norms",
    "fem.boundary_nonlinear.s": "fem.boundary_nonlinear",
    "meshing.mesh_interface.s": "meshing.mesh_interface",
    "meshing.mesh_perforated.s": "meshing.mesh_perforated",
    "meshing.interpolate.s": "meshing.interpolate",
    "solvers.solve_assembled.s": "solvers.solve_assembled",
    "snorm.s_norm.s": "snorm.s_norm",
    "snorm.slab_for_layout.s": "snorm.slab_for_layout",
    "geometry.make_layout.s": "geometry.make_layout",
    "corrector.mu_table.s": "corrector.mu_table",
    "corrector.cell_beta.s": "corrector.cell_beta",
    "harness.run_study.s": "harness.run_study",
}

# per-layer metric -> span whose call count it reports
_CALLS = {
    "kernel.bicgstab.calls": "kernel.bicgstab",
    "kernel.spilu.calls": "kernel.spilu",
    "kernel.splu.calls": "kernel.splu",
    "kernel.gmres.calls": "kernel.gmres",
    "kernel.cg.calls": "kernel.cg",
    "fem.solve_linear.calls": "fem.solve_linear",
    "fem.assemble.calls": "fem.assemble",
    "fem.load_vector.calls": "fem.load_vector",
    "fem.boundary_nonlinear.calls": "fem.boundary_nonlinear",
    "meshing.mesh_perforated.calls": "meshing.mesh_perforated",
    "solvers.solve_assembled.calls": "solvers.solve_assembled",
    "snorm.s_norm.calls": "snorm.s_norm",
    "geometry.make_layout.calls": "geometry.make_layout",
}

# per-layer metric -> counter filled by a hook
_COUNTS = (
    "kernel.newton_splu_fallbacks",
    "fem.assemble.simplices",
    "meshing.u0_vertices",
    "meshing.perforated_vertices",
    "meshing.interpolate.points",
    "solvers.picard_iters",
    "solvers.newton_iters",
    "solvers.u0_solves",
    "snorm.power_iters",
    "snorm.trace_dofs",
    "snorm.stalled",
)


# every per-layer metric a traced run reports; run.py adds the overhead
LAYER_METRICS = (*_SELF_TIME, *_CALLS, *_COUNTS, "alpha.s",
                 "solvers.u0_solves_per_row", "solvers.u0_cap_hits",
                 "trace.overhead_s")


def unit(metric):
    if metric.endswith((".s", "_s")):
        return "s"
    if metric == "solvers.u0_solves_per_row":
        return "solves/row"
    return "count"


def layer_metrics(tracer):
    """Per-layer metric name -> value, from one traced pass."""
    st = self_times(tracer.spans)
    out = {}
    for metric, name in _SELF_TIME.items():
        out[metric] = st.get(name, (0.0, 0))[0]
    for metric, name in _CALLS.items():
        out[metric] = st.get(name, (0.0, 0))[1]
    for key in _COUNTS:
        out[key] = tracer.counts.get(key, 0)
    out["alpha.s"] = sum(t for name, (t, _) in st.items()
                         if name.startswith("alpha."))
    rows = tracer.counts.get("harness.rows", 0)
    out["solvers.u0_solves_per_row"] = out["solvers.u0_solves"] / rows if rows else 0.0
    out["solvers.u0_cap_hits"] = (0 if tracer.u0_cap is None
                                  else u0_cap_hits(tracer.spans, tracer.u0_cap))
    return out
