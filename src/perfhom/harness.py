"""Convergence studies against the homogenization rate bounds.

A study sweeps eps, solves the perforated problem and the matching
homogenized problem, measures the error norms over the perforated domain,
certifies each row with a two-mesh Richardson guard, fits log-log slopes,
and checks single-constant dominance of the predicted bound.  Constants in
the bounds are unknown, so only exponents and dominance are asserted.
"""

from __future__ import annotations

import json
import logging
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields
from itertools import repeat

import numpy as np

from . import alpha as alpha_mod
from . import fem, geometry, meshing, snorm, solvers
from .errors import ConfigError, _config_value, _known_keys
from .geometry import _positive

log = logging.getLogger(__name__)

DEFAULT_SWEEP = (1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32, 1 / 48, 1 / 64)
DEFAULT_SWEEP_3D = (1 / 4, 1 / 6, 1 / 8)

# the study protocol, the same for every config: the tolerance of a row's
# h vs h/2 guard, the least refinement of the meshes near the cavities, and
# vanish_near_s's cutoff, 0 within CUTOFF_RADII[0] of S and 1 beyond [1]
GUARD_TOL, REFINE_FLOOR = 0.1, 4.0
CUTOFF_RADII = (0.15, 0.3)

# theorem tag -> (asserted norm, needs kappa, side condition, homogenized kind)
_THEOREMS = {
    "T1a": ("h1", False, "a_zero", "plain"),
    "T1b": ("h1", False, "eta_to_zero", "plain"),
    "T2": ("h1", True, None, "delta"),
    "T3a": ("l2", False, "a_zero", "plain"),
    "T3b": ("l2", False, "eta_to_zero", "plain"),
    "T4": ("l2", True, None, "delta"),
}


def predicted_bound(theorem, eps, eta, n, kappa=None, f_norms=None):
    """Rate bound with C = 1; the harness fits the constant separately.

    f_norms: (||f|| over the perforated domain, ||f|| over the cavities);
    required for the two-term L2 theorems, optional scaling otherwise.
    """
    if theorem not in _THEOREMS:
        raise ValueError(f"unknown theorem tag {theorem!r}")
    needs_kappa = _THEOREMS[theorem][1]
    if needs_kappa and kappa is None:
        raise ValueError(f"{theorem} bound requires kappa")
    two_term = theorem in ("T3a", "T3b", "T4")
    if two_term and f_norms is None:
        raise ValueError(f"{theorem} bound requires both f norms")
    second = eps * eta + math.sqrt(eps) * eta ** (n / 2.0)
    if theorem == "T1a":
        first = second
    elif theorem == "T1b":
        first = eps * eta + eta ** (n - 1)
    elif theorem == "T2":
        first = math.sqrt(eps) + kappa
    elif theorem == "T3a":
        first = eps ** 2 * eta ** 2 + eps * eta ** n
    elif theorem == "T3b":
        first = eps ** 2 * eta + eta ** (n - 1)
    else:
        first = eps + kappa
    if not two_term:
        scale = 1.0 if f_norms is None else f_norms[0]
        return first * scale
    return first * f_norms[0] + second * f_norms[1]


def fit_rate(pairs):
    """Least squares on (log eps, log error) -> (slope, intercept, stderr)."""
    pairs = [(float(e), float(v)) for e, v in pairs]
    if len(pairs) < 3:
        raise ValueError("rate fit needs at least 3 points")
    if any(e <= 0 or v <= 0 for e, v in pairs):
        raise ValueError("rate fit needs positive values")
    x = np.log([p[0] for p in pairs])
    y = np.log([p[1] for p in pairs])
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    resid = y - A @ coef
    dof = len(x) - 2
    sxx = float(((x - x.mean()) ** 2).sum())
    stderr = math.sqrt(float((resid ** 2).sum()) / dof / sxx) if dof > 0 else 0.0
    return float(coef[0]), float(coef[1]), stderr


def smoothstep(t):
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


_RHS_BY_NAME = {
    "trig": lambda x: np.sin(np.pi * x[:, 0]) * np.cos(0.5 * np.pi * x[:, -1]),
    "gauss": lambda x: np.exp(-4.0 * ((x - 0.35) ** 2).sum(axis=1)),
    "poly": lambda x: 1.0 + x[:, 0] * (1.0 - x[:, 0]) - 0.5 * x[:, -1],
    "zero": lambda x: np.zeros(len(x)),
}


def standard_rhs(names=("trig", "gauss", "poly"), vanish_near_s=False, s0=0.0):
    """Named smooth right-hand sides, optionally cut off around the interface.

    The cutoff is exactly 0 for |x_n - s0| < inner and 1 beyond outer, so the
    cavity-band f-norm vanishes identically once cavities fit in the band.
    """
    if not vanish_near_s:
        return [(name, _RHS_BY_NAME[name]) for name in names]
    inner, outer = CUTOFF_RADII

    def cut(x):
        return smoothstep((np.abs(x[:, -1] - s0) - inner) / (outer - inner))
    return [(name, lambda x, _f=_RHS_BY_NAME[name]: _f(x) * cut(x))
            for name in names]


def f_norm_cavities(layout, f):
    """||f|| over the cavity interiors via per-shape mapped quadrature."""
    total = 0.0
    scale = layout.cavity_scale
    quadratures = {}  # one per distinct shape
    for center, shape in zip(layout.centers, layout.shapes):
        key = (shape.family, tuple(sorted(shape.params.items())))
        if key not in quadratures:
            quadratures[key] = shape.area_quadrature(layout.dim)
        pts, w = quadratures[key]
        x = center[None, :] + scale * pts
        total += float(np.sum(np.abs(f(x)) ** 2 * w)) * scale ** layout.dim
    return math.sqrt(total)


@dataclass
class StudyConfig:
    """One convergence study; the README's "Study config" table lists the
    fields.  A config that constructs can run: construction converts every
    field, checks the theorem's side condition and c0 against the principal
    part, builds the layout of every eps and checks that the first u0 grid
    has a free dof, and raises a PerfhomError naming the first refusal."""

    theorem: str
    dim: int = 2
    layout_kind: str = "periodic"
    layout_params: dict = field(default_factory=dict)
    eta_rule: object = 1.0
    drift: object = None
    reaction: object = 0.0
    c0: float = 1.0
    matrix: object = None
    nbc_kind: str = "zero"
    nbc_sigma: object = 0.0
    rhs_names: tuple = ("trig", "gauss", "poly")
    vanish_near_s: bool = False
    eps_list: tuple = ()
    h_factor: float = 0.75
    lam: float | None = None
    u0_refine_cap: int = 2
    seed: int = 0

    def __post_init__(self):
        self.dim = _config_value("dim", self.dim, geometry._dimension)
        self.eps_list = _config_value("eps_list", self.eps_list,
                                      lambda v: tuple(_positive(e) for e in v))
        if not self.eps_list:
            self.eps_list = DEFAULT_SWEEP if self.dim == 2 else DEFAULT_SWEEP_3D
        self.layout_kind = _config_value("layout_kind", self.layout_kind,
                                         _layout_kind)
        self.eta_rule = _config_value("eta_rule", self.eta_rule, _eta_rule)
        # every row builds its layout with eta_rule(eps) in (0, 1]
        _config_value("eta_rule", self.eta_rule, lambda rule: [
            geometry.eval_eta(rule, e) for e in self.eps_list])
        self.rhs_names = _config_value("rhs_names", self.rhs_names, _rhs_names)
        self.u0_refine_cap = _config_value("u0_refine_cap", self.u0_refine_cap,
                                            geometry._count)
        for key in ("c0", "h_factor"):
            setattr(self, key, _config_value(key, getattr(self, key), _positive))
        self.seed = _config_value("seed", self.seed, geometry._count)
        self.vanish_near_s = _config_value("vanish_near_s", self.vanish_near_s,
                                           _bool)
        n = self.dim
        # the shapes each coefficient's real numbers may take (None: may be None)
        for key, shapes in (("matrix", [None, (n, n)]), ("drift", [None, (), (n,)]),
                            ("reaction", [()]), ("nbc_sigma", [()])):
            setattr(self, key, _config_value(
                key, getattr(self, key), lambda v: _coefficient(v, shapes)))
        self.nbc_kind = _config_value("nbc_kind", self.nbc_kind,
                                      lambda k: fem.NonlinearBC(k).kind)
        # the solvers' own threshold rule, so validate rejects what study would
        if self.lam is not None:
            self.lam = _config_value("lam", self.lam, lambda v: solvers._resolve_lambda(
                self.coefficients(), self.nonlinearity(), v))
        self.layout_params = _config_value("layout_params", self.layout_params,
                                           _json_dict)
        if self.layout_params.get("dim", n) != n:
            raise ConfigError(f"layout_params dim {self.layout_params['dim']!r} "
                              f"conflicts with dim {n}")
        if self.theorem not in _THEOREMS:
            raise ConfigError(f"unknown theorem tag {self.theorem!r}")
        side = _THEOREMS[self.theorem][2]
        if side == "a_zero" and self.nbc_kind != "zero":
            raise ConfigError(f"{self.theorem} requires a == 0")
        decaying = isinstance(self.eta_rule, tuple) and self.eta_rule[1] > 0
        if side == "eta_to_zero" and not decaying:
            raise ConfigError(f"{self.theorem} requires a decaying eta rule")
        if any(b >= a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("eps_list must be strictly decreasing")
        if len(self.rhs_names) < 3:
            raise ConfigError("at least 3 right-hand sides are required")
        # the principal part is constant, so one point gives its ellipticity
        self.coefficients().validate_ellipticity(np.zeros((1, n)))
        # every row's layout, so that one no row could build is refused before
        # the first mesh; the first u0 level at the largest eps is the
        # coarsest grid, and a delta limit's normal axis is split at s0 and
        # keeps an interior node
        first = [self.layout(e) for e in self.eps_list][0]
        h0 = self.h_factor * self.eps_list[0] / 2.0
        m = n - (_THEOREMS[self.theorem][3] == "delta")
        if any(len(meshing._segment(a, b, h0)) < 3
               for a, b in zip(first.domain_lo[:m], first.domain_hi[:m])):
            raise ConfigError(f"h_factor={self.h_factor:g} leaves the first u0 grid at "
                              f"eps={self.eps_list[0]:g} (h0={h0:g}) without a free dof")

    def coefficients(self):
        return fem.CoefficientSet(dim=self.dim, matrix=self.matrix,
                                  drift=self.drift, reaction=self.reaction,
                                  c0=self.c0)

    def nonlinearity(self):
        return fem.NonlinearBC(self.nbc_kind, sigma=self.nbc_sigma)

    def layout(self, eps):
        return geometry.make_layout(self.layout_kind,
                                    dict(self.layout_params, dim=self.dim),
                                    eps, eta_rule=self.eta_rule)

    def to_dict(self):
        return {key: v.tolist() if isinstance(v, np.ndarray) else
                list(v) if isinstance(v, tuple) else v
                for key, v in asdict(self).items()}

    @staticmethod
    def from_dict(doc):
        _known_keys(doc, [f.name for f in fields(StudyConfig)], "study config")
        if "theorem" not in doc:
            raise ConfigError("study config needs a 'theorem' key")
        return StudyConfig(**doc)


def _json_dict(v):
    """v as a dict of plain JSON data: numpy arrays and numbers become lists
    and Python numbers; anything else that JSON cannot hold is refused."""
    def plain(x):
        if isinstance(x, (np.ndarray, np.generic)):
            return x.tolist()
        raise TypeError(f"{type(x).__name__} is not JSON data")
    return dict(json.loads(json.dumps(v, default=plain)))


def _bool(x):
    if not isinstance(x, bool):
        raise ValueError("must be true or false")
    return x


def _int_in(lo, hi):
    """Config converter to an integer n with lo <= n < hi."""
    def convert(n):
        if not lo <= geometry._count(n) < hi:
            raise ValueError(f"must be an integer in [{lo}, {hi})")
        return int(n)
    return convert


def _one_of(choices):
    """Config converter that passes only a member of choices."""
    def convert(v):
        if v not in choices:
            raise ValueError(f"must be one of {', '.join(choices)}")
        return v
    return convert


_layout_kind = _one_of(geometry.LAYOUT_KINDS)


def _eta_rule(rule):
    if not isinstance(rule, (list, tuple)):
        return float(rule)
    kind, gamma = rule
    if kind != "power":
        raise ValueError
    return kind, float(gamma)


def _coefficient(value, shapes):
    """Real numbers of one of the given shapes; None passes where shapes
    lists it."""
    if value is None and None in shapes:
        return value
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or arr.shape not in shapes:
        raise ValueError("must be real numbers of shape " + " or ".join(
            str(s) for s in shapes if s is not None))
    return arr.item() if arr.ndim == 0 else arr


def _rhs_names(names):
    if isinstance(names, str) or not set(names) <= set(_RHS_BY_NAME):
        raise ValueError
    if len(set(names)) != len(names):
        raise ValueError("each right-hand side may appear once")
    return tuple(names)


@dataclass
class RateReport:
    config: dict
    rows: list
    slopes: dict
    c_fit: float | None
    dominance_ok: bool | None
    uniformity: dict
    degenerate: bool = False
    kappa_rows: list = field(default_factory=list)

    def to_dict(self):
        return asdict(self)

    @staticmethod
    def from_dict(doc):
        return RateReport(**doc)

    def accepted(self, norm):
        key = f"accepted_{norm}"
        return [r for r in self.rows if r.get(key)]

    @property
    def primary_norm(self):
        return _THEOREMS[self.config["theorem"]][0]


def _u0_level(layout, kind, h0):
    """One u0 ladder level: its grid mesh (the layout box, with the interface
    plane at s0 for the delta limit) and the grid's node counts per axis.
    The box and s0 are a study's own, and each axis segment's count falls as
    h0 grows, so within a study equal counts mean the same grid."""
    s0 = None if kind == "plain" else layout.s0
    mesh = meshing.mesh_interface(layout.domain_lo, layout.domain_hi, s0, h0)
    return mesh, tuple(len(a) for a in mesh.grid["axes"])


def _increment_subdominant(e_prev, e_h, idx):
    """The ladder's Richardson check: the last refinement moved the error by
    at most a tenth of itself (a zero increment on a zero error passes)."""
    return abs(e_prev[idx] - e_h[idx]) <= 0.1 * e_h[idx]


def _study_row(config, eps, kappa_val=None, u0_cache=None):
    """All solves and measurements for one eps; returns a report row.

    u0_cache maps a u0 ladder level, keyed on (alpha0, its grid's node
    counts), to every right-hand side's solution there with its solve info.
    run_study shares one dict across its rows; a row given none starts an
    empty one of its own, and is the same but for u0_shared.
    """
    u0_cache = {} if u0_cache is None else u0_cache
    norm_key, needs_kappa, _, homog_kind = _THEOREMS[config.theorem]
    layout = config.layout(eps)
    eta = layout.eta
    coeffs = config.coefficients()
    nbc = config.nonlinearity()
    lam = solvers._resolve_lambda(coeffs, nbc, config.lam)

    fs = standard_rhs(config.rhs_names, config.vanish_near_s, layout.s0)
    name0, f0 = fs[0]

    h = config.h_factor * eps
    refine = max(REFINE_FLOOR, 2.5 * h / (eps * eta))
    alpha0 = alpha_mod.alpha0_mean(layout) if homog_kind == "delta" else None

    def solve_all(mesh, rhs, boundary, weight=None):
        """(nodal solution, info) for each (name, f) of rhs: the mesh is
        assembled once and its system, with its factorization, freed on
        return."""
        system = fem.assemble(mesh, coeffs, dirichlet="outer", lam=lam,
                              boundary=boundary, weight=weight)
        return [solvers.solve_assembled(system, fem.load_vector(mesh, f))
                for _, f in rhs]

    # the perforated phase, one system at a time: every rhs on the h mesh,
    # f0 alone on the h/2 mesh
    mesh_h = meshing.mesh_perforated(layout, h, refine)
    solved_h = solve_all(mesh_h, fs, ("cavity", nbc))
    mesh_half = meshing.mesh_perforated(layout, h / 2.0, refine)
    solved_half = solve_all(mesh_half, fs[:1], ("cavity", nbc))
    u_h, u_half = solved_h[0][0], solved_half[0][0]
    infos = [info for _, info in solved_h + solved_half]

    # refine u_0's own mesh from h/2 until its Richardson increment is
    # subdominant; each level solves every rhs, its f0 error on the h mesh
    # is its check, and the last level's is e_h.  The level that uses up
    # the cap goes unchecked.  Each level's transfer P_h onto the h mesh is
    # built once; the final level's serves the other right-hand sides too.
    # A level found in u0_cache is read, never assembled or solved again
    u0_boundary = None if homog_kind == "plain" else ("interface", nbc)
    h0, e_prev, idx = h, None, 0 if norm_key == "l2" else 2
    u0_shared = 0
    for u0_solves in range(1, config.u0_refine_cap + 3):
        h0 /= 2.0
        u0_mesh, counts = _u0_level(layout, homog_kind, h0)
        key = (alpha0, counts)
        if key in u0_cache:
            u0_shared += 1
        else:
            u0_cache[key] = solve_all(u0_mesh, fs, u0_boundary, alpha0)
        solved_u0 = u0_cache[key]
        infos += [info for _, info in solved_u0]
        P_h = meshing.interpolation_matrix(u0_mesh, mesh_h.vertices)
        e_h = fem.norms(mesh_h, u_h - P_h @ solved_u0[0][0])
        if u0_solves >= config.u0_refine_cap + 2:
            log.warning("u0 refinement at eps=%g used up u0_refine_cap=%d; "
                        "its last level is unchecked", eps, config.u0_refine_cap)
            break
        if e_prev is not None and _increment_subdominant(e_prev, e_h, idx):
            break
        e_prev = e_h

    P_half = meshing.interpolation_matrix(u0_mesh, mesh_half.vertices)
    e_half = fem.norms(mesh_half, u_half - P_half @ solved_u0[0][0])

    guard_l2, guard_h1 = (abs(e_h[i] - e_half[i]) / e_half[i] if e_half[i] else 0.0
                          for i in (0, 2))

    f_omega = fem.l2_of_function(mesh_h, f0)
    f_theta = f_norm_cavities(layout, f0)
    bound = predicted_bound(config.theorem, eps, eta, config.dim,
                            kappa=kappa_val, f_norms=(f_omega, f_theta))

    # uniformity across right-hand sides, measured on the h mesh against
    # the final ladder level
    per_f = {name0: {"l2": e_h[0], "h1": e_h[2], "f_norm": f_omega}}
    for (name, f), (uh, _), (u0v, _) in zip(fs[1:], solved_h[1:], solved_u0[1:]):
        err = fem.norms(mesh_h, uh - P_h @ u0v)
        per_f[name] = {"l2": err[0], "h1": err[2],
                       "f_norm": fem.l2_of_function(mesh_h, f)}

    return {
        "eps": eps,
        "eta": eta,
        "err_l2": e_half[0],
        "err_h1": e_half[2],
        "bound": bound,
        "guard_l2": guard_l2,
        "guard_h1": guard_h1,
        "accepted_l2": guard_l2 < GUARD_TOL,
        "accepted_h1": guard_h1 < GUARD_TOL,
        "kappa": kappa_val,
        "f_norm_omega": f_omega,
        "f_norm_theta": f_theta,
        "per_f": per_f,
        "n_vertices_h": mesh_h.n_vertices,
        "n_vertices": mesh_half.n_vertices,
        "n_vertices_u0": u0_mesh.n_vertices,
        "u0_solves": u0_solves,
        "u0_shared": u0_shared,
        "u0_converged": u0_solves < config.u0_refine_cap + 2,
        "solver": _solver_record(infos),
    }


def _solver_record(infos):
    """JSON-safe totals over a row's solve infos: backend(s), method(s),
    summed iteration counts and the largest final relative residual."""
    record = {key: ",".join(sorted({i[key] for i in infos}))
              for key in ("backend", "method")}
    for key in ("picard_iters", "linear_iters"):
        record[key] = int(sum(i[key] for i in infos))
    record["residual"] = float(max(i["residual"] for i in infos))
    return record


def run_study(config, jobs=1):
    """Full sweep -> RateReport; see the module docstring for the protocol."""
    norm_key, needs_kappa, _, _ = _THEOREMS[config.theorem]
    # the pool forks all its workers at once, so it starts no idle ones
    workers = min(_config_value("jobs", jobs, _int_in(1, math.inf)),
                  len(config.eps_list))

    kappa_map = {}
    kappa_rows = []
    if needs_kappa:
        kappa_rows = snorm.kappa_table(config.eps_list, config.layout,
                                       seed=config.seed)
        kappa_map = {r["eps"]: r["kappa"] for r in kappa_rows}

    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_study_row, repeat(config), config.eps_list,
                                 map(kappa_map.get, config.eps_list)))
    else:
        u0_cache = {}  # this call's u0 ladder levels, shared by its rows
        rows = [_study_row(config, e, kappa_map.get(e), u0_cache)
                for e in config.eps_list]

    degenerate = all(r["err_l2"] == 0.0 and r["err_h1"] == 0.0 for r in rows)
    slopes = {}
    c_fit = None
    dominance_ok = None
    if not degenerate:
        for key in ("l2", "h1"):
            acc = [r for r in rows if r[f"accepted_{key}"] and r[f"err_{key}"] > 0]
            if len(acc) >= 3:
                slope, intercept, stderr = fit_rate(
                    [(r["eps"], r[f"err_{key}"]) for r in acc])
                slopes[key] = {"slope": slope, "stderr": stderr,
                               "n_rows": len(acc)}
        acc = [r for r in rows if r[f"accepted_{norm_key}"]]
        if acc:
            c_fit = acc[0][f"err_{norm_key}"] / acc[0]["bound"]
            dominance_ok = all(
                r[f"err_{norm_key}"] <= 1.25 * c_fit * r["bound"] + 1e-300
                for r in acc)

    # a degenerate study (all its errors zero: the first right-hand side is
    # zero) has no rhs spread to check either, and a zero right-hand side
    # has no ratio
    spreads = {}
    for r in [] if degenerate else rows:
        vals = [v[norm_key] / v["f_norm"] for v in r["per_f"].values()
                if v["f_norm"] > 0]
        if max(vals) > 0:
            spreads[r["eps"]] = max(vals) / max(min(vals), 1e-300)
    uniformity = {
        "max_spread": max(spreads.values()) if spreads else None,
        "per_eps": spreads,
        "ok": all(s < 3.0 for s in spreads.values()) if spreads else None,
    }

    return RateReport(config.to_dict(), rows, slopes, c_fit, dominance_ok,
                      uniformity, degenerate, kappa_rows)


def write_csv(path, rows, cols):
    """Write the cols of each row as a header line and one line of float
    reprs per row."""
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for r in rows:
            fh.write(",".join(repr(float(r[c])) for c in cols) + "\n")


def emit_report(report, out_dir):
    """Write rates.csv, summary.json and plot.gp; returns the paths.

    rates.csv carries only the rows accepted in the theorem's own norm;
    summary.json keeps every row with its guard ratios and flags.
    """
    import os

    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "rates.csv")
    write_csv(csv_path, report.accepted(report.primary_norm),
              ["eps", "eta", "err_l2", "err_h1", "bound", "guard_l2", "guard_h1"])
    json_path = os.path.join(out_dir, "summary.json")
    with open(json_path, "w") as fh:
        json.dump(report.to_dict(), fh, indent=2, default=float)
    gp_path = os.path.join(out_dir, "plot.gp")
    with open(gp_path, "w") as fh:
        fh.write(
            "set logscale xy\n"
            "set xlabel 'eps'\n"
            "set ylabel 'error'\n"
            "set datafile separator ','\n"
            "set key left top\n"
            f"plot 'rates.csv' every ::1 using 1:3 with linespoints title 'L2', \\\n"
            f"     'rates.csv' every ::1 using 1:4 with linespoints title 'H1', \\\n"
            f"     'rates.csv' every ::1 using 1:5 with lines title 'bound'\n"
        )
    return csv_path, json_path, gp_path
