"""Mollified surface density on the interface and its homogenized mean.

Each cavity k deposits a bump of mass (eps*eta)^(n-1) * |bd omega_k| on the
hyperplane S = {x_n = s0}, spread over the disc of radius eps*R2 around the
projected center:

    alpha_eps(x) = eta^(n-1) |bd omega_k| / R2^(n-1)
                   * zeta(|x' - M_k'| / (eps*R2)),

with zeta a radial mollifier normalized so its integral over the tangential
plane R^(n-1) is 1.  Integrating the bump then reproduces the cavity's own
boundary measure exactly, which is what makes the mean of alpha_eps
eps-independent for lattice layouts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import PointOffManifoldError


def bump(r):
    """Smooth compactly supported profile exp(-1/(1-r^2)) on |r| < 1."""
    r = np.asarray(r, dtype=float)
    out = np.zeros_like(r)
    inside = np.abs(r) < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        out[inside] = np.exp(-1.0 / (1.0 - r[inside] ** 2))
    return out


@dataclass(frozen=True)
class Mollifier:
    """Radial profile zeta(r) = amp * bump(r), unit mass over R^(dim-1)."""

    dim: int
    amp: float

    def __call__(self, r):
        return self.amp * bump(r)

    @property
    def zero_value(self):
        return self.amp * math.exp(-1.0)


#: Unit mass of bump over R^(dim-1): int_{-1}^{1} bump in 2D and
#: 2 pi int_0^1 r bump(r) dr = pi (e^-1 - E1(1)) in 3D, as the doubles that
#: adaptive Gauss-Kronrod quadrature (scipy.integrate.quad) returns.
BUMP_MASS = {2: 0.44399381616807865, 3: 0.4665123931783276}


def make_mollifier(dim):
    if dim not in BUMP_MASS:
        raise ValueError("dim must be 2 or 3")
    return Mollifier(dim, 1.0 / BUMP_MASS[dim])


@dataclass
class SurfaceDensity:
    """alpha_eps as a function on S, evaluable at tangential or full points."""

    layout: object
    mollifier: Mollifier
    coefs: np.ndarray        # per-cavity eta^(n-1)|bd omega_k|/R2^(n-1)
    support: float           # bump radius eps*R2

    def __post_init__(self):
        self._tree = cKDTree(self.layout.centers_tangential())

    def tangential(self, xp):
        """Evaluate at tangential coordinates xp of shape (m, dim-1)."""
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        hits = self._tree.query_ball_point(xp, self.support)
        counts = np.fromiter(map(len, hits), dtype=np.intp, count=len(hits))
        ks = np.fromiter(itertools.chain.from_iterable(hits), dtype=np.intp,
                         count=int(counts.sum()))
        pts = np.repeat(np.arange(len(xp)), counts)
        cent = self.layout.centers_tangential()
        r = np.linalg.norm(xp[pts] - cent[ks], axis=1) / self.support
        # bincount adds each point's bumps in the order the tree listed them
        return np.bincount(pts, weights=self.coefs[ks] * self.mollifier(r),
                           minlength=len(xp))

    def __call__(self, x):
        """Evaluate at full points; they must lie on S up to a tight tolerance."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        lo = np.asarray(self.layout.domain_lo)
        hi = np.asarray(self.layout.domain_hi)
        tol = 1e-9 * float(np.max(hi - lo))
        off = np.abs(x[:, -1] - self.layout.s0)
        if off.max() > tol:
            raise PointOffManifoldError(
                f"point off the interface by {off.max():.3e}"
            )
        return self.tangential(x[:, :-1])

    def sup_bound(self):
        """Rigorous upper bound: peak value times the support multiplicity."""
        return float(self.coefs.max()) * self.mollifier.zero_value * self.multiplicity()

    def multiplicity(self):
        """Max number of bump supports covering a single point of S."""
        cent = self.layout.centers_tangential()
        if len(cent) == 0:
            return 0
        hits = self._tree.query_ball_point(cent, 2.0 * self.support)
        return max(len(h) for h in hits)

    def masses(self):
        """Exact integral of each cavity's bump: (eps*eta)^(n-1) |bd omega_k|."""
        n = self.layout.dim
        return self.layout.cavity_scale ** (n - 1) * self.layout.boundary_measures()

    def mass(self):
        """Exact integral over S of alpha_eps, assuming supports inside S."""
        return float(self.masses().sum())

    def mean(self):
        """Average of alpha_eps over the interface S cut by the box."""
        lo, hi = self.layout.tangential_extent
        area = float(np.prod(hi - lo))
        return self.mass() / area

    def to_csv(self, path, samples=512):
        lo, hi = self.layout.tangential_extent
        m = samples if self.layout.dim == 2 else int(math.sqrt(samples))
        grid = np.meshgrid(*(np.linspace(a, b, m) for a, b in zip(lo, hi)),
                           indexing="ij")
        pts = np.column_stack([g.ravel() for g in grid])
        with open(path, "w") as fh:
            fh.write("s,alpha\n" if len(grid) == 1 else "s1,s2,alpha\n")
            for p, v in zip(pts, self.tangential(pts)):
                fh.write(",".join(repr(float(c)) for c in (*p, v)) + "\n")


def surface_density(layout):
    n = layout.dim
    R2 = layout.constants["R2"]
    moll = make_mollifier(n)
    coefs = layout.eta ** (n - 1) * layout.boundary_measures() / R2 ** (n - 1)
    return SurfaceDensity(layout, moll, coefs, layout.eps * R2)


def alpha0_mean(layout):
    """Box average of alpha_eps; for a lattice that fills the box, its cell
    mean (corrector.cell_beta)."""
    return surface_density(layout).mean()


def density_count(layout, r3=0.25):
    """Max number of projected centers in one covering ball of radius r3.

    Covering points are placed on the interface with spacing 7*r3/5, inside
    the admissible band [6*r3/5, 8*r3/5], extended to the tangential extent
    of the box.
    """
    cent = layout.centers_tangential()
    if len(cent) == 0:
        return 0
    lo, hi = layout.tangential_extent
    spacing = 1.4 * r3
    axes = [np.arange(a, b + spacing, spacing) for a, b in zip(lo, hi)]
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    tree = cKDTree(cent)
    counts = tree.query_ball_point(pts, r3, return_length=True)
    return int(counts.max())
