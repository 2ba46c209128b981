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


def cell_beta(shape, eta, dim=2, cell=(1.0,), constants=None, n=256):
    """Sample the one-bump cell density minus its mean on an n-point grid.

    The sampled mean of the smooth periodic bump agrees with the analytic
    mean to spectral accuracy; the tiny residual is subtracted so that the
    zero Fourier mode vanishes identically, and a residual above 1e-7 of
    alpha0 raises (the grid does not resolve the bump).  Relative to
    alpha0, the verdict is the same for every eta.
    """
    from .geometry import DEFAULT_CONSTANTS

    constants = DEFAULT_CONSTANTS if constants is None else constants
    R2 = constants["R2"]
    cell = tuple(float(c) for c in cell)
    tdim = dim - 1
    if len(cell) != tdim:
        raise ValueError("cell must have dim-1 periods")
    moll = alpha_mod.make_mollifier(dim)
    coef = eta ** (dim - 1) * shape.boundary_measure(dim) / R2 ** (dim - 1)
    axes = [np.arange(n) * (b / n) for b in cell]
    if tdim == 1:
        r = np.abs(axes[0] - cell[0] / 2.0)
    else:
        g = np.meshgrid(*axes, indexing="ij")
        r = np.hypot(g[0] - cell[0] / 2.0, g[1] - cell[1] / 2.0)
    vals = coef * moll(r / R2)
    a0 = alpha_mod.alpha0_lattice(shape, eta, cell, dim)
    beta = vals - a0
    raw = float(beta.mean())
    if abs(raw) > 1e-7 * a0:
        raise NonzeroMeanError(
            f"cell density mean off by {raw / a0:.3e} of alpha0; grid too coarse "
            "for the bump"
        )
    return BetaField(beta - raw, cell, a0, raw)


def cell_beta_from_layout(layout, n=256):
    """Cell fluctuation for a lattice layout, using its shape and constants.

    Assumes a single repeated shape; the tangential period is read off the
    center spacing (exact for layouts built with the lattice generator).
    """
    cent = layout.centers_tangential()
    if layout.dim == 2:
        s = np.sort(cent[:, 0])
        period = float(np.diff(s).min()) / layout.eps if len(s) > 1 else 1.0
        cell = (period,)
    else:
        sx = np.unique(np.round(cent[:, 0] / layout.eps, 9))
        sy = np.unique(np.round(cent[:, 1] / layout.eps, 9))
        px = float(np.diff(sx).min()) if len(sx) > 1 else 1.0
        py = float(np.diff(sy).min()) if len(sy) > 1 else 1.0
        cell = (px, py)
    return cell_beta(layout.shapes[0], layout.eta, dim=layout.dim,
                     cell=cell, constants=layout.constants, n=n)


@dataclass
class Corrector:
    """Truncated Fourier representation of the half-space corrector."""

    gamma: np.ndarray        # coefficients, zero mode removed (set to 0)
    mvecs: np.ndarray        # (M, tdim) integer modes m of gamma
    kvecs: np.ndarray        # (M, tdim) dual-lattice vectors
    kabs: np.ndarray         # |k_m|
    cell: tuple
    modes: int               # tangential truncation order per axis

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

    def harmonic_defect(self):
        """sup |Laplacian Psi|, which is exactly 0.0.

        Each mode e^{i k.xi_t} e^{-|k| xi_n} decays at the rate |k| of its
        own tangential frequency, so every term of the truncated series is
        harmonic.  Kept as the lap_sup entry of the mu budget.
        """
        return 0.0

    def flux_at_height(self, xi_n):
        """Bound sum_m |gamma_m| |k_m| e^{-|k_m| xi_n} for the outer defect."""
        return float(np.sum(np.abs(self.gamma) * self.kabs * np.exp(-self.kabs * xi_n)))


def _fourier_modes(beta):
    """Integer modes (N, tdim) of the cell grid and the coefficients
    fftn(values)/size (N,) that go with them, both in FFT order."""
    v = beta.values
    ms = np.fft.fftfreq(v.shape[0], d=1.0 / v.shape[0]).astype(int)
    grids = np.meshgrid(*[ms] * beta.tdim, indexing="ij")
    modes = np.column_stack([g.ravel() for g in grids])
    return modes, (np.fft.fftn(v) / v.size).ravel()


def fourier_corrector(beta, modes=64):
    """Corrector from a mean-zero cell field, keeping |m_i| <= modes."""
    if modes >= beta.values.shape[0] // 2:
        raise ValueError("modes must stay below the grid Nyquist order")
    mm, vhat = _fourier_modes(beta)
    keep = (np.abs(mm) <= modes).all(axis=1) & mm.any(axis=1)
    mvecs = mm[keep]
    kvecs = 2.0 * math.pi * mvecs / np.asarray(beta.cell)[None, :]
    kabs = np.linalg.norm(kvecs, axis=1)
    return Corrector(vhat[keep] / kabs, mvecs, kvecs, kabs, beta.cell, modes)


def spectral_tail(beta, modes):
    """Energy-type bound on the discarded modes: sqrt(sum |beta_hat|^2/|k|)."""
    mm, vhat = _fourier_modes(beta)
    sel = (np.abs(mm) > modes).any(axis=1)
    if not sel.any():
        return 0.0
    kabs = 2.0 * math.pi * np.linalg.norm(mm[sel] / np.asarray(beta.cell)[None, :], axis=1)
    return float(math.sqrt(np.sum(np.abs(vhat[sel]) ** 2 / kabs)))


def residual_components(corr, beta, eps, tau0=1.0):
    """The mu budget at scale eps for a corrector built from beta."""
    return _residual_row(corr, eps, tau0, corr.sup_boundary(),
                         spectral_tail(beta, corr.modes))


def _residual_row(corr, eps, tau0, sup, tail):
    """residual_components given the eps-independent sup|Psi| and tail."""
    psi_sup = eps * sup
    lap_sup = corr.harmonic_defect()
    outer = corr.flux_at_height(tau0 / (2.0 * eps))
    mu = psi_sup + lap_sup + outer + tail
    return {
        "eps": float(eps),
        "psi_sup": psi_sup,
        "lap_sup": lap_sup,
        "outer_flux": outer,
        "s_mismatch": tail,
        "mu": mu,
    }


def kappa_bound(mu, calibration):
    """Certified interface defect bound C_cal * sqrt(mu)."""
    return calibration * math.sqrt(mu)


def calibrate(kappa_measured, mu):
    """Calibration constant 2*kappa/sqrt(mu), frozen at the coarsest eps."""
    return 2.0 * kappa_measured / math.sqrt(mu)


def mu_table(eps_values, beta, modes=64, tau0=1.0, kappas=None, out_csv=None):
    """Residual budget across eps; optionally row-wise certified bounds.

    kappas: measured interface defects aligned with eps_values.  If given,
    the calibration constant is frozen from the first (coarsest) row and
    returned with the rows (None without kappas).  Writes
    'eps,psi_sup,lap_sup,outer_flux,s_mismatch,mu,kappa' when out_csv is
    set (kappa column only with kappas).
    """
    corr = fourier_corrector(beta, modes=modes)
    sup, tail = corr.sup_boundary(), spectral_tail(beta, corr.modes)
    rows = [_residual_row(corr, e, tau0, sup, tail) for e in eps_values]
    calibration = None
    if kappas is not None:
        calibration = calibrate(kappas[0], rows[0]["mu"])
        for r, k in zip(rows, kappas):
            r["kappa"] = float(k)
            r["kappa_bound"] = kappa_bound(r["mu"], calibration)
            r["certified"] = r["kappa"] <= r["kappa_bound"] + 1e-12
    if out_csv:
        cols = ["eps", "psi_sup", "lap_sup", "outer_flux", "s_mismatch", "mu"]
        if kappas is not None:
            cols.append("kappa")
        with open(out_csv, "w") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                fh.write(",".join(repr(r[c]) for c in cols) + "\n")
    return rows, calibration
