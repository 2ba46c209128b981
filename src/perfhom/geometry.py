"""Cavity layouts along a flat interface inside a box.

A layout describes a finite family of small cavities whose centers sit within
distance ``R0*eps`` of the interface plane ``{x_n = s0}``.  Each cavity is a
rescaled copy of a unit shape that is star-shaped about the origin and pinched
between the balls of radius ``R1`` and ``R2``.  The physical cavity attached
to a center ``M`` is ``M + eps*eta*shape``.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import (ConfigError, ConfigReader, InfeasibleSpacingError,
                     ManifoldOutsideDomainError, _config_value)

log = logging.getLogger(__name__)

#: R0 bounds |center - S| in units of eps, R1/R2 pinch the unit shapes,
#: b > 1 is the disjointness factor, tau0 is the slab thickness used by the
#: multiplier-norm problems.
DEFAULT_CONSTANTS = {"R0": 0.5, "R1": 0.1, "R2": 0.2, "b": 1.2, "tau0": 1.0}
LAYOUT_KINDS = ("periodic", "perturbed-periodic", "clustered", "explicit")

_measure_cache: dict = {}


def _count(n):
    if isinstance(n, bool) or int(n) != n or n < 0:
        raise ValueError
    return int(n)


def _positive(x):
    if isinstance(x, bool) or not (math.isfinite(float(x)) and float(x) > 0):
        raise ValueError("must be a finite number > 0")
    return float(x)


# each shape family's params with their converters, and the ones it needs
_SHAPE_PARAMS = {"ball": {"radius": float},
                 "ellipse": {"semi_axes": lambda v: tuple(float(a) for a in v)},
                 "star": {"r0": float, "r1": float, "wings": _count, "phase": float}}
_REQUIRED_PARAMS = {"ball": ("radius",), "ellipse": ("semi_axes",), "star": ("r0", "r1")}


@dataclass
class Shape:
    """Unit cavity shape, star-shaped with respect to the origin.

    Families
    --------
    ball : params {"radius": rho}
    ellipse : params {"semi_axes": (a1, ..., an)}
    star : params {"r0": .., "r1": .., "wings": m, "phase": ..} with
        boundary radius r0 + r1*cos(wings*t + phase), 2D only.
    """

    family: str
    params: dict

    def __post_init__(self):
        if self.family not in _SHAPE_PARAMS:
            raise ConfigError(f"unknown shape family {self.family!r}")
        for key in _REQUIRED_PARAMS[self.family]:
            if key not in self.params:
                raise ConfigError(f"a {self.family} shape needs the param {key!r}")
        read = ConfigReader(dict(self.params), f"{self.family} shape param")
        self.params = {key: read(key, None, convert) for key, convert in
                       _SHAPE_PARAMS[self.family].items() if key in read.doc}
        read.done()

    # -- radial description (2D families) ---------------------------------

    def radius(self, theta):
        """Boundary radius at polar angle theta (2D)."""
        theta = np.asarray(theta, dtype=float)
        if self.family == "ball":
            return np.full_like(theta, self.params["radius"])
        if self.family == "ellipse":
            a, b = self.params["semi_axes"][:2]
            return 1.0 / np.sqrt((np.cos(theta) / a) ** 2 + (np.sin(theta) / b) ** 2)
        r0, r1 = self.params["r0"], self.params["r1"]
        m = self.params.get("wings", 5)
        ph = self.params.get("phase", 0.0)
        return r0 + r1 * np.cos(m * theta + ph)

    def rmin(self, dim=2):
        if self.family == "ball":
            return self.params["radius"]
        if self.family == "ellipse":
            return min(self.params["semi_axes"][:dim])
        return self.params["r0"] - abs(self.params["r1"])

    def rmax(self, dim=2):
        if self.family == "ball":
            return self.params["radius"]
        if self.family == "ellipse":
            return max(self.params["semi_axes"][:dim])
        return self.params["r0"] + abs(self.params["r1"])

    # -- predicates and measures ------------------------------------------

    def contains(self, y):
        """Membership test in unit coordinates; y has shape (m, dim)."""
        y = np.atleast_2d(np.asarray(y, dtype=float))
        dim = y.shape[1]
        if self.family == "ball":
            return np.linalg.norm(y, axis=1) <= self.params["radius"]
        if self.family == "ellipse":
            ax = np.asarray(self.params["semi_axes"][:dim], dtype=float)
            return np.sum((y / ax) ** 2, axis=1) <= 1.0
        if dim != 2:
            raise ValueError("star shapes are planar")
        r = np.linalg.norm(y, axis=1)
        theta = np.arctan2(y[:, 1], y[:, 0])
        return r <= self.radius(theta)

    def boundary_measure(self, dim):
        """Perimeter (dim=2) or surface area (dim=3) of the unit shape.

        Computed by quadrature and cached; closed forms are only used as
        test oracles.
        """
        key = (self.family, tuple(sorted(self.params.items())), dim)
        if key in _measure_cache:
            return _measure_cache[key]
        if dim == 2:
            t = np.linspace(0.0, 2.0 * np.pi, 16385)
            if self.family == "ellipse":
                a, b = self.params["semi_axes"][:2]
                dx, dy = -a * np.sin(t), b * np.cos(t)
                val = np.trapezoid(np.hypot(dx, dy), t)
            else:
                r = self.radius(t)
                dr = self._radius_prime(t)
                val = np.trapezoid(np.sqrt(r * r + dr * dr), t)
        elif dim == 3:
            if self.family == "star":
                raise ValueError("star shapes are planar")
            ax = self.params["semi_axes"][:3] if self.family == "ellipse" else [self.params["radius"]] * 3
            a1, a2, a3 = (float(v) for v in ax)
            th = np.linspace(0.0, np.pi, 1025)[:, None]
            ph = np.linspace(0.0, 2.0 * np.pi, 2049)[None, :]
            # |r_theta x r_phi| for the standard spherical parametrization
            st, ct = np.sin(th), np.cos(th)
            sp, cp = np.sin(ph), np.cos(ph)
            e = np.sqrt(
                (a2 * a3 * st * st * cp) ** 2
                + (a1 * a3 * st * st * sp) ** 2
                + (a1 * a2 * st * ct) ** 2
            )
            val = np.trapezoid(np.trapezoid(e, ph[0], axis=1), th[:, 0])
        else:
            raise ValueError("dim must be 2 or 3")
        _measure_cache[key] = float(val)
        return float(val)

    def _radius_prime(self, theta):
        if self.family == "ball":
            return np.zeros_like(np.asarray(theta, dtype=float))
        r0, r1 = self.params["r0"], self.params["r1"]
        m = self.params.get("wings", 5)
        ph = self.params.get("phase", 0.0)
        return -r1 * m * np.sin(m * np.asarray(theta, dtype=float) + ph)

    # -- boundary sampling (meshing support) -------------------------------

    def boundary_points(self, dim, m, offset=0.0):
        """m points on (or radially offset from) the unit boundary."""
        if dim == 2:
            t = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
            if self.family == "ellipse":
                a, b = self.params["semi_axes"][:2]
                pts = np.column_stack([a * np.cos(t), b * np.sin(t)])
                if offset:
                    nrm = np.column_stack([b * np.cos(t), a * np.sin(t)])
                    nrm /= np.linalg.norm(nrm, axis=1)[:, None]
                    pts = pts + offset * nrm
                return pts
            r = self.radius(t) + offset
            return np.column_stack([r * np.cos(t), r * np.sin(t)])
        if dim == 3:
            pts = _fibonacci_sphere(m)
            if self.family == "ball":
                return (self.params["radius"] + offset) * pts
            ax = np.asarray(self.params["semi_axes"][:3], dtype=float)
            out = pts * ax
            if offset:
                nrm = pts / ax
                nrm /= np.linalg.norm(nrm, axis=1)[:, None]
                out = out + offset * nrm
            return out
        raise ValueError("dim must be 2 or 3")

    def area_quadrature(self, dim):
        """Quadrature points/weights over the unit shape interior: 24
        Gauss-Legendre radii (and polar cosines) by 96 angles."""
        n_r, n_t = 24, 96
        if dim == 2:
            gl_x, gl_w = np.polynomial.legendre.leggauss(n_r)
            t = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
            dt = 2.0 * np.pi / n_t
            rb = self.radius(t)
            # map r in (0, rb(t)): x = rb*(x+1)/2, weight rb/2 * w * r * dt
            r = 0.5 * rb[None, :] * (gl_x[:, None] + 1.0)
            w = 0.5 * rb[None, :] * gl_w[:, None] * r * dt
            pts = np.stack([r * np.cos(t)[None, :], r * np.sin(t)[None, :]], axis=-1)
            return pts.reshape(-1, 2), w.ravel()
        if dim == 3:
            if self.family == "star":
                raise ValueError("star shapes are planar")
            ax = (
                np.asarray(self.params["semi_axes"][:3], dtype=float)
                if self.family == "ellipse"
                else np.full(3, self.params["radius"])
            )
            gl_x, gl_w = np.polynomial.legendre.leggauss(n_r)
            mu, muw = gl_x, gl_w  # cos(theta) in (-1,1)
            ph = np.linspace(0.0, 2.0 * np.pi, n_t, endpoint=False)
            dph = 2.0 * np.pi / n_t
            r = 0.5 * (gl_x + 1.0)
            rw = 0.5 * gl_w
            R, MU, PH = np.meshgrid(r, mu, ph, indexing="ij")
            RW, MUW, _ = np.meshgrid(rw, muw, ph, indexing="ij")
            st = np.sqrt(1.0 - MU * MU)
            pts = np.stack(
                [
                    ax[0] * R * st * np.cos(PH),
                    ax[1] * R * st * np.sin(PH),
                    ax[2] * R * MU,
                ],
                axis=-1,
            )
            w = ax.prod() * R * R * RW * MUW * dph
            return pts.reshape(-1, 3), w.ravel()
        raise ValueError("dim must be 2 or 3")

    def to_dict(self):
        """The inverse of Shape(**d), ready for JSON."""
        return {"family": self.family, "params": dict(self.params)}


def _fibonacci_sphere(m):
    i = np.arange(m) + 0.5
    phi = np.pi * (1.0 + math.sqrt(5.0)) * i
    z = 1.0 - 2.0 * i / m
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    return np.column_stack([r * np.cos(phi), r * np.sin(phi), z])


@dataclass
class PerforationLayout:
    """Finite cavity family near the interface {x_dim = s0} in a box."""

    dim: int
    domain_lo: tuple
    domain_hi: tuple
    s0: float
    eps: float
    eta: float
    centers: np.ndarray
    shapes: list
    constants: dict = field(default_factory=lambda: dict(DEFAULT_CONSTANTS))

    def __post_init__(self):
        self.centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        if self.centers.size == 0:
            self.centers = self.centers.reshape(0, self.dim)
        if len(self.shapes) == 1 and len(self.centers) > 1:
            self.shapes = list(self.shapes) * len(self.centers)

    @property
    def n_cavities(self):
        return len(self.centers)

    @property
    def cavity_scale(self):
        """Physical scale eps*eta multiplying the unit shapes."""
        return self.eps * self.eta

    @property
    def tangential_extent(self):
        lo = np.asarray(self.domain_lo, dtype=float)[: self.dim - 1]
        hi = np.asarray(self.domain_hi, dtype=float)[: self.dim - 1]
        return lo, hi

    def centers_tangential(self):
        """Projections of the centers onto S (tangential coordinates)."""
        return self.centers[:, : self.dim - 1]

    def boundary_measures(self):
        return np.array([s.boundary_measure(self.dim) for s in self.shapes])

    def min_center_gap(self):
        if self.n_cavities < 2:
            return math.inf
        tree = cKDTree(self.centers)
        d, _ = tree.query(self.centers, k=2)
        return float(d[:, 1].min())

    def to_json(self, path=None):
        doc = {
            "dim": self.dim,
            "domain_lo": list(self.domain_lo),
            "domain_hi": list(self.domain_hi),
            "s0": self.s0,
            "eps": self.eps,
            "eta": self.eta,
            "centers": self.centers.tolist(),
            "shapes": [s.to_dict() for s in self.shapes],
            "constants": dict(self.constants),
        }
        text = json.dumps(doc, indent=2)
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text

    @staticmethod
    def from_json(text_or_path):
        text = os.fspath(text_or_path)
        if "\n" not in text and text.strip().endswith(".json"):
            with open(text) as fh:
                text = fh.read()
        doc = json.loads(text)
        return PerforationLayout(
            dim=doc["dim"],
            domain_lo=tuple(doc["domain_lo"]),
            domain_hi=tuple(doc["domain_hi"]),
            s0=doc["s0"],
            eps=doc["eps"],
            eta=doc["eta"],
            centers=np.asarray(doc["centers"], dtype=float),
            shapes=[Shape(**s) for s in doc["shapes"]],
            constants=dict(doc["constants"]),
        )


def eval_eta(eta_rule, eps):
    """Evaluate an eta rule: a number, ("power", gamma), or a callable."""
    if isinstance(eta_rule, (int, float)):
        val = float(eta_rule)
    elif callable(eta_rule):
        val = float(eta_rule(eps))
    else:
        kind, gamma = eta_rule
        if kind != "power":
            raise ValueError(f"unknown eta rule {eta_rule!r}")
        val = float(eps) ** float(gamma)
    if not 0.0 < val <= 1.0:
        raise ValueError(f"eta must lie in (0, 1], got {val}")
    return val


def _default_domain(dim):
    if dim == 2:
        return (0.0, -0.5), (1.0, 0.5)
    return (0.0, 0.0, -0.5), (1.0, 1.0, 0.5)


def _default_shape():
    return Shape("ball", {"radius": 0.15})


def _dimension(dim):
    if dim not in (2, 3):
        raise ValueError
    return int(dim)


def _box(dim):
    """Config converter to a box [lo, hi] of dim-vectors with lo < hi."""
    def convert(domain):
        lo, hi = np.asarray(domain, dtype=float)
        if lo.shape != (dim,) or not np.all(lo < hi):
            raise ValueError(f"must be [lo, hi] with lo < hi, each {dim} numbers")
        return lo, hi
    return convert


def _shape(dim):
    """Config converter to a Shape in dim dimensions, from a Shape or its
    {family, params}."""
    def convert(v):
        shape = v if isinstance(v, Shape) else Shape(**dict(v))
        if dim != 2 and shape.family == "star":
            raise ValueError("star shapes are planar")
        if shape.family == "ellipse" and len(shape.params["semi_axes"]) < dim:
            raise ValueError(f"'semi_axes' needs {dim} numbers in {dim}D")
        return shape
    return convert


def _shapes(n, dim):
    """Config converter to n Shapes: one shape for all, or a list of n."""
    def convert(v):
        if isinstance(v, Shape):
            return [v] * n
        shapes = [_shape(dim)(s) for s in v]
        if len(shapes) != n:
            raise ValueError(f"{len(shapes)} shapes for {n} centers")
        return shapes
    return convert


def _floats(*shape):
    """Config converter to a float array of the given shape (-1: any
    number of rows); each row must have shape[-1] numbers."""
    def convert(v):
        arr = np.asarray(v, dtype=float)
        if arr.size and arr.shape[-1:] != shape[-1:]:
            raise ValueError(f"shape {arr.shape}: rows of {shape[-1]} expected")
        return arr.reshape(shape)
    return convert


def make_layout(kind, params, eps, eta_rule=1.0):
    """Build a validated cavity layout.

    Parameters
    ----------
    kind : {"periodic", "perturbed-periodic", "clustered", "explicit"}
    params : dict
        Family parameters; every kind reads "dim", "domain" ((lo, hi) tuples),
        "s0", "shape" and "constants", then its own in its branch below.  An
        unread key, or a constant not in DEFAULT_CONSTANTS, is a ConfigError.
    eps : float
        Small parameter; lattice pitch is proportional to eps.
    eta_rule : float | ("power", gamma) | callable
        Cavity size factor eta as a function of eps.

    Returns
    -------
    PerforationLayout
        Satisfies the placement invariants (validated before return).
    """
    value = ConfigReader(dict(params or {}), "layout param")
    dim = value("dim", 2, _dimension)
    eps = float(eps)
    eta = eval_eta(eta_rule, eps)
    lo, hi = (tuple(b.tolist()) for b in value("domain", _default_domain(dim),
                                               _box(dim)))
    s0 = value("s0", 0.0, float)
    given = ConfigReader(value("constants", {}, dict), "layout constant")
    # tau0 sets the slab height of every kappa and mu table
    constants = {key: given(key, v, _positive if key == "tau0" else float)
                 for key, v in DEFAULT_CONSTANTS.items()}
    given.done()
    if not lo[dim - 1] < s0 < hi[dim - 1]:
        raise ManifoldOutsideDomainError(
            f"s0={s0} outside normal extent ({lo[dim-1]}, {hi[dim-1]})"
        )
    shape = value("shape", _default_shape(), _shape(dim))

    if kind == "periodic" or kind == "perturbed-periodic":
        periods = value("periods", (1.0,) * (dim - 1), _floats(dim - 1))
        offset = value("offset", np.r_[periods / 2.0, 0.0], _floats(dim))
        if abs(offset[-1]) > constants["R0"]:
            raise ManifoldOutsideDomainError(
                f"normal offset {offset[-1]} exceeds R0={constants['R0']}"
            )
        if min(periods) <= 2.0 * constants["b"] * constants["R2"]:
            raise InfeasibleSpacingError(
                f"period {min(periods)} <= 2*b*R2 = {2*constants['b']*constants['R2']}"
            )
        axes = []
        for i, p in enumerate(periods):
            k_lo = math.floor((lo[i] / eps - offset[i]) / p) - 1
            k_hi = math.ceil((hi[i] / eps - offset[i]) / p) + 1
            axes.append(np.arange(k_lo, k_hi + 1) * p + offset[i])
        grids = np.meshgrid(*axes, indexing="ij")
        tang = eps * np.column_stack([g.ravel() for g in grids])
        centers = np.column_stack(
            [tang, np.full(len(tang), s0 + eps * offset[-1])]
        )
        shapes = [shape] * len(centers)
        if kind == "perturbed-periodic":
            mu = value("mu", 0.0, float)
            rng = value("seed", 0, np.random.default_rng)
            shift = rng.uniform(-1.0, 1.0, size=centers.shape)
            shift /= np.maximum(1.0, np.linalg.norm(shift, axis=1) / 1.0)[:, None]
            centers = centers + mu * eps * shift / math.sqrt(dim)
            # keep the centers within reach of the interface
            nrm = centers[:, dim - 1] - s0
            cap = constants["R0"] * eps
            centers[:, dim - 1] = s0 + np.clip(nrm, -cap, cap)
            pj = value("perimeter_jitter", 0.0, float)
            if pj > 0.0:
                if shape.family != "ball":
                    raise ConfigError(f"bad value for 'perimeter_jitter': {pj!r} "
                                      f"(ball shapes only, not {shape.family!r})")
                rho = float(shape.params["radius"])
                base = shape.boundary_measure(dim)
                scale = 1.0 + rng.uniform(-1.0, 1.0, len(centers)) * pj / base
                shapes = [
                    Shape("ball", {"radius": min(constants["R2"],
                                                 max(constants["R1"], rho * s))})
                    for s in scale
                ]
    elif kind == "clustered":
        if dim != 2:
            raise ConfigError(f"bad value for 'layout_kind': 'clustered' "
                              f"(built for dim=2 only, not dim={dim})")
        beta = value("beta", 0.25, float)
        cluster_period = value("cluster_period", 0.5, float)
        extent0 = value("extent0", 0.2, float)
        spacing = value("cluster_spacing", 0.6, float) * eps
        if spacing <= 2.0 * constants["b"] * constants["R2"] * eps:
            raise InfeasibleSpacingError("in-cluster spacing violates disjointness")
        extent = extent0 * eps ** beta
        c_lo, c_hi = lo[0], hi[0]
        cluster_centers = np.arange(c_lo + cluster_period / 2.0, c_hi, cluster_period)
        pts = []
        for c in cluster_centers:
            m = max(1, int(math.floor(extent / spacing)) + 1)
            local = c + (np.arange(m) - (m - 1) / 2.0) * spacing
            pts.append(local)
        tang = np.concatenate(pts) if pts else np.zeros(0)
        centers = np.column_stack([tang, np.full(len(tang), s0)])
        shapes = [shape] * len(centers)
    elif kind == "explicit":
        centers = value("centers", None, _floats(-1, dim))
        shapes = value("shapes", shape, _shapes(len(centers), dim))
    else:
        raise ValueError(f"unknown layout kind {kind!r}")
    value.done()

    # drop cavities too close to the outer boundary; lattice points whose
    # center is not even inside the box are silent overshoot
    margin = constants["b"] * constants["R2"] * eps
    reach = constants["R2"] * eps * eta
    inside = np.ones(len(centers), dtype=bool)
    keep = np.ones(len(centers), dtype=bool)
    for i in range(dim):
        inside &= (centers[:, i] > lo[i]) & (centers[:, i] < hi[i])
        keep &= centers[:, i] - reach - margin >= lo[i]
        keep &= centers[:, i] + reach + margin <= hi[i]
    n_warn = int((inside & ~keep).sum())
    if n_warn:
        log.warning("dropping %d cavities within %g of the outer boundary",
                    n_warn, margin)
    centers = centers[keep]
    shapes = [s for s, k in zip(shapes, keep) if k]

    layout = PerforationLayout(
        dim=dim, domain_lo=lo, domain_hi=hi, s0=s0, eps=eps, eta=eta,
        centers=centers, shapes=shapes, constants=constants,
    )
    report = validate_layout(layout)
    if not report.passed:
        bad = ", ".join(n for n, c in report.checks.items() if not c.passed)
        raise InfeasibleSpacingError(f"layout at eps={eps:g} invalid: {bad}\n"
                                     f"{report.summary()}")
    return layout


@dataclass
class CheckResult:
    passed: bool
    margin: float
    detail: str


@dataclass
class ValidationReport:
    checks: dict

    @property
    def passed(self):
        return all(c.passed for c in self.checks.values())

    def summary(self):
        lines = []
        for name, c in self.checks.items():
            lines.append(f"{'PASS' if c.passed else 'FAIL'} {name}: {c.detail}")
        return "\n".join(lines)

    def to_dict(self):
        return {
            "passed": self.passed,
            "checks": {
                n: {"passed": c.passed, "margin": c.margin, "detail": c.detail}
                for n, c in self.checks.items()
            },
        }


def validate_layout(layout):
    """Check the placement invariants; never raises, reports margins."""
    c = layout.constants
    eps, eta, dim = layout.eps, layout.eta, layout.dim
    checks = {}

    gap = layout.min_center_gap()
    need = 2.0 * c["b"] * c["R2"] * eps
    checks["disjointness"] = CheckResult(
        gap >= need, gap / need if need > 0 else math.inf,
        f"min center gap {gap:.4g} vs required {need:.4g}",
    )

    if layout.n_cavities:
        dist = np.abs(layout.centers[:, dim - 1] - layout.s0)
        worst = float(dist.max()) / eps
    else:
        worst = 0.0
    checks["near-interface"] = CheckResult(
        worst <= c["R0"] + 1e-12, c["R0"] - worst,
        f"max |center - S|/eps = {worst:.4g} vs R0 = {c['R0']}",
    )

    rmins = [s.rmin(dim) for s in layout.shapes] or [c["R1"]]
    rmaxs = [s.rmax(dim) for s in layout.shapes] or [c["R2"]]
    ok = min(rmins) >= c["R1"] - 1e-12 and max(rmaxs) <= c["R2"] + 1e-12
    checks["shape-inclusion"] = CheckResult(
        ok, min(min(rmins) - c["R1"], c["R2"] - max(rmaxs)),
        f"shape radii in [{min(rmins):.4g}, {max(rmaxs):.4g}] vs [{c['R1']}, {c['R2']}]",
    )

    lo = np.asarray(layout.domain_lo)
    hi = np.asarray(layout.domain_hi)
    if layout.n_cavities:
        reach = c["R2"] * eps * eta
        m1 = (layout.centers - lo[None, :]).min() - reach
        m2 = (hi[None, :] - layout.centers).min() - reach
        margin = float(min(m1, m2))
    else:
        margin = math.inf
    checks["inside-domain"] = CheckResult(
        margin > 0, margin, f"cavity clearance to outer boundary {margin:.4g}",
    )

    ok = lo[dim - 1] < layout.s0 < hi[dim - 1]
    checks["interface-inside"] = CheckResult(
        ok, min(layout.s0 - lo[dim - 1], hi[dim - 1] - layout.s0),
        f"s0 = {layout.s0} within ({lo[dim-1]}, {hi[dim-1]})",
    )

    measures = layout.boundary_measures() if layout.n_cavities else np.array([0.0])
    sup = float(measures.max())
    checks["boundary-measure"] = CheckResult(
        math.isfinite(sup), sup, f"sup unit boundary measure {sup:.6g}",
    )
    return ValidationReport(checks)
