"""Periodic half-space corrector attached to the interface density.

In cell coordinates xi = x/eps the lattice density restricted to one
tangential period is a fixed bump profile; subtracting its mean alpha0
leaves a mean-zero cell function beta(xi').  The corrector

    Psi(xi', xi_n) = sum_{m != 0} gamma_m e^{i k_m . xi'} e^{-|k_m| xi_n},
    gamma_m = beta_hat_m / |k_m|,  k_m = 2 pi m / b,

is harmonic in the half-space xi_n > 0 and satisfies
-d Psi/d xi_n = beta on xi_n = 0, so eps * Psi(x/eps) absorbs the
oscillating part of the interface flux at first order.  The residual
budget mu collects everything that stops the rescaled corrector from being
an exact absorber; its leading term eps*sup|Psi| is linear in eps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import alpha as alpha_mod
from .errors import NonzeroMeanError


@dataclass
class BetaField:
    """Mean-zero cell density fluctuation sampled on a periodic grid."""

    values: np.ndarray       # (n,) for 1d cells, (n, n) for 2d cells
    cell: tuple              # tangential periods b
    alpha0: float            # subtracted mean
    raw_mean: float          # sampled mean before the exact re-centering

    @property
    def tdim(self):
        return self.values.ndim


def cell_beta(density, cell, n=256):
    """Sample a lattice density minus its cell mean on an n-point grid.

    density: the layout's SurfaceDensity; cell: its tangential periods in
    units of eps.  The grid covers one cell around the layout's first center,
    which sits at the cell's middle.  alpha0 is that cavity's exact mass over
    the cell area.  The sampled mean of the smooth periodic bump agrees with
    alpha0 to spectral accuracy; the tiny residual is subtracted so that the
    zero Fourier mode vanishes identically, and a residual above 1e-7 of
    alpha0 raises (the grid does not resolve the bump).  Relative to alpha0,
    the verdict is the same for every eta.
    """
    layout = density.layout
    cell = tuple(float(c) for c in cell)
    grid = np.meshgrid(*[np.arange(n) * (b / n) - b / 2.0 for b in cell],
                       indexing="ij")
    offsets = np.column_stack([g.ravel() for g in grid])
    center = layout.centers_tangential()[0]
    vals = density.tangential(center + layout.eps * offsets).reshape(grid[0].shape)
    a0 = float(density.masses()[0] / (layout.eps ** (layout.dim - 1) * np.prod(cell)))
    beta = vals - a0
    raw = float(beta.mean())
    if abs(raw) > 1e-7 * a0:
        raise NonzeroMeanError(
            f"cell density mean off by {raw / a0:.3e} of alpha0; grid too coarse "
            "for the bump"
        )
    return BetaField(beta - raw, cell, a0, raw)


def cell_beta_from_layout(layout, n=256):
    """Cell fluctuation of a lattice layout, sampled from its own density.

    The period along each tangential axis is the smallest gap between
    distinct center coordinates, in units of eps (1.0 on an axis with one
    coordinate), exact for layouts built with the lattice generator.
    """
    gaps = [np.diff(np.unique(c)) for c in layout.centers_tangential().T]
    cell = [float(g.min()) / layout.eps if len(g) else 1.0 for g in gaps]
    return cell_beta(alpha_mod.surface_density(layout), cell, n=n)


@dataclass
class Corrector:
    """Truncated Fourier representation of the half-space corrector."""

    gamma: np.ndarray        # coefficients, zero mode removed (set to 0)
    mvecs: np.ndarray        # (M, tdim) integer modes m of gamma
    kvecs: np.ndarray        # (M, tdim) dual-lattice vectors
    kabs: np.ndarray         # |k_m|
    cell: tuple
    modes: int               # tangential truncation order per axis
    tail: float              # sqrt(sum |beta_hat_m|^2/|k_m|) over the dropped m

    def evaluate(self, xi_t, xi_n):
        """Psi at tangential points xi_t (m, tdim) and heights xi_n (m,)."""
        xi_t = np.atleast_2d(np.asarray(xi_t, dtype=float))
        xi_n = np.broadcast_to(np.asarray(xi_n, dtype=float), (len(xi_t),))
        phase = np.exp(1j * (xi_t @ self.kvecs.T))
        decay = np.exp(-np.outer(xi_n, self.kabs))
        return np.real((phase * decay) @ self.gamma)

    def normal_flux(self, xi_t, xi_n):
        """-d Psi/d xi_n, equal to beta when evaluated at xi_n = 0."""
        xi_t = np.atleast_2d(np.asarray(xi_t, dtype=float))
        xi_n = np.broadcast_to(np.asarray(xi_n, dtype=float), (len(xi_t),))
        phase = np.exp(1j * (xi_t @ self.kvecs.T))
        decay = np.exp(-np.outer(xi_n, self.kabs))
        return np.real((phase * decay) @ (self.gamma * self.kabs))

    def sup_boundary(self, samples=4096):
        """sup |Psi|; by the maximum principle it is attained at xi_n = 0.

        Psi(., 0) is sampled on the periodic grid of `samples` points of the
        cell (m x m, m = isqrt(samples), for a 2D cell) by one inverse FFT of
        gamma placed at its integer modes; modes past the grid's Nyquist
        order alias onto it and are summed there.
        """
        m = samples if self.mvecs.shape[1] == 1 else math.isqrt(samples)
        spec = np.zeros((m,) * self.mvecs.shape[1], dtype=complex)
        np.add.at(spec, tuple((self.mvecs % m).T), self.gamma)
        return float(np.abs(np.fft.ifftn(spec, norm="forward").real).max())

    def flux_at_height(self, xi_n):
        """Bound sum_m |gamma_m| |k_m| e^{-|k_m| xi_n} for the outer defect."""
        return float(np.sum(np.abs(self.gamma) * self.kabs * np.exp(-self.kabs * xi_n)))


def fourier_corrector(beta, modes=64):
    """Corrector from a mean-zero cell field, keeping |m_i| <= modes.

    One FFT of the cell grid gives both gamma and the energy-type bound on
    the discarded modes, sqrt(sum |beta_hat|^2/|k|), kept as the tail.
    """
    v = beta.values
    if modes >= v.shape[0] // 2:
        raise ValueError("modes must stay below the grid Nyquist order")
    ms = np.fft.fftfreq(v.shape[0], d=1.0 / v.shape[0]).astype(int)
    mm = np.column_stack([g.ravel() for g in np.meshgrid(*[ms] * v.ndim, indexing="ij")])
    vhat = (np.fft.fftn(v) / v.size).ravel()
    cell = np.asarray(beta.cell)[None, :]
    low = (np.abs(mm) <= modes).all(axis=1)
    ktail = 2.0 * math.pi * np.linalg.norm(mm[~low] / cell, axis=1)
    tail = float(math.sqrt(np.sum(np.abs(vhat[~low]) ** 2 / ktail)))
    keep = low & mm.any(axis=1)
    mvecs = mm[keep]
    kvecs = 2.0 * math.pi * mvecs / cell
    kabs = np.linalg.norm(kvecs, axis=1)
    return Corrector(vhat[keep] / kabs, mvecs, kvecs, kabs, beta.cell, modes, tail)


def kappa_bound(mu, calibration):
    """Certified interface defect bound C_cal * sqrt(mu)."""
    return calibration * math.sqrt(mu)


def calibrate(kappa_measured, mu):
    """Calibration constant 2*kappa/sqrt(mu), frozen at the coarsest eps."""
    return 2.0 * kappa_measured / math.sqrt(mu)


def mu_table(eps_values, beta, modes=64, tau0=1.0, kappas=None):
    """Residual budget across eps; optionally row-wise certified bounds.

    Rows carry eps, psi_sup, lap_sup, outer_flux, s_mismatch and mu.
    kappas: measured interface defects aligned with eps_values.  If given,
    the calibration constant is frozen from the first (coarsest) row and
    returned with the rows (None without kappas).
    """
    corr = fourier_corrector(beta, modes=modes)
    sup = corr.sup_boundary()
    rows = []
    for eps in eps_values:
        psi_sup = eps * sup
        outer = corr.flux_at_height(tau0 / (2.0 * eps))
        rows.append({
            "eps": float(eps),
            "psi_sup": psi_sup,
            # every kept mode e^{i k.xi_t} e^{-|k| xi_n} is harmonic, so the
            # truncated series leaves no interior defect
            "lap_sup": 0.0,
            "outer_flux": outer,
            "s_mismatch": corr.tail,
            "mu": psi_sup + outer + corr.tail,
        })
    calibration = None
    if kappas is not None:
        calibration = calibrate(kappas[0], rows[0]["mu"])
        for r, k in zip(rows, kappas):
            r["kappa"] = float(k)
            r["kappa_bound"] = kappa_bound(r["mu"], calibration)
            r["certified"] = r["kappa"] <= r["kappa_bound"] + 1e-12
    return rows, calibration
