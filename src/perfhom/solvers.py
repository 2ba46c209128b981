"""Nonlinear solves for the perforated problem and its two homogenized
limits.

The boundary term a(x, u) is handled by a chord iteration, the L-scheme
(I. S. Pop, F. Radu and P. Knabner, J. Comput. Appl. Math. 168, 2004).
fem.assemble folds the term's slope at zero into the system's operator,
K + J_b(0) with J_b(0) the facet mass of a_u(x, 0), and the system builds
its one setup on it: the LU in 2D, a preconditioner in 3D.  Each sweep
u <- u - (K + J_b(0))^{-1} G(u), on the residual G(u) = K u + r_b(u) - F,
is one fem.solve_linear on that setup, on the system's free dofs.  For the
monotone terms here a_u(x, 0) = sigma is the largest slope, so the sweeps
contract at a rate that does not depend on the mesh, and a linear term,
which J_b(0) holds whole, takes one solve, as the zero term does.  The
sweeps run until the relative residual is below PICARD_TOL; a far start
at a stiff sigma needs thousands, and PICARD_MAX_ITER of them raise.  The
fields that solve_* return keep no system, so each factorization is freed
with its system.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import NoConvergenceError

log = logging.getLogger(__name__)


# far starts on a perforated mesh (eps = 1/8) take up to thousands of
# sweeps: saturating sigma = 1e4 from u = 1000 takes 796, from u = 1e4 3004
PICARD_MAX_ITER = 5000
PICARD_TOL = 1e-9  # relative nonlinear residual
LINEAR_TOL = 1e-11


@dataclass
class SolveOptions:
    """Options of a nonlinear solve.  lam serves only the solve_* drivers,
    which assemble at it; solve_assembled takes a system already assembled
    at its lam and does not read it."""

    lam: float | None = None        # spectral shift; None -> lam0_hat - 1
    initial: object = None          # optional nodal initial guess


def _resolve_lambda(coeffs, nbc, lam):
    """lam as a float, lam0_hat - 1 for None; raises unless below lam0_hat.
    A callable coefficient declares no sup bound, so it has no lam0_hat: a
    given lam is then taken as it is, and None raises ValueError."""
    try:
        lam0 = fem.estimate_lambda0(coeffs, nbc)
    except ValueError:
        if lam is None:
            raise
        return float(lam)
    lam = lam0 - 1.0 if lam is None else float(lam)
    if lam >= lam0:
        raise ValueError(
            f"lam={lam} is not below the coercivity threshold {lam0:.6g}"
        )
    return lam


def solve_perforated(mesh, coeffs, nbc, f, opts=None):
    """Weak solution with the nonlinear flux condition on cavity boundaries."""
    return _solve(mesh, coeffs, nbc, f, opts, "outer", "cavity")


def solve_homogenized_plain(mesh, coeffs, f, opts=None, dirichlet="outer"):
    """Unperforated Dirichlet problem (the homogenized limit without S)."""
    return _solve(mesh, coeffs, None, f, opts, dirichlet, None)


def solve_homogenized_delta(mesh, coeffs, alpha0, nbc, f, opts=None,
                            dirichlet="outer"):
    """Transmission problem with the weighted nonlinearity on the interface.

    alpha0 may be a constant or a callable of full coordinates on S.
    Continuity across S holds by conformity; the conormal jump condition is
    natural.
    """
    return _solve(mesh, coeffs, nbc, f, opts, dirichlet, "interface", alpha0)


def _solve(mesh, coeffs, nbc, f, opts, dirichlet, selector, weight=None):
    """Assemble at the resolved lam with nbc on selector's facets and solve."""
    opts = opts or SolveOptions()
    nbc = nbc or fem.NonlinearBC("zero")
    lam = _resolve_lambda(coeffs, nbc, opts.lam)
    system = fem.assemble(mesh, coeffs, dirichlet=dirichlet, lam=lam,
                          boundary=(selector, nbc), weight=weight)
    u, info = _nonlinear_solve(system, fem.load_vector(mesh, f), opts)
    info["lam"] = lam
    return fem.DiscreteField(mesh, u, info)


def solve_assembled(system, load, opts=None):
    """Nonlinear solve of the assembled system, with its own boundary term,
    against the nodal load vector load (fem.load_vector), reusing the
    system's caches.

    Sweeping several right-hand sides over one mesh should assemble once and
    call this with each load vector.
    """
    return _nonlinear_solve(system, load, opts or SolveOptions())


def _nonlinear_solve(system, load, opts):
    """Restricts the nodal load once and embeds the solution once."""
    K, F = system.matrix, np.asarray(load)[system.free]
    fscale = max(float(np.linalg.norm(F)), 1e-300)
    krylov_start = system.krylov_iters
    contraction = []

    def result(u, method, picard_iters, res):
        # read after the first solve, which builds the system's backend
        return system.nodal(u), {
            "method": method, "backend": system.backend,
            "picard_iters": picard_iters,
            "linear_iters": system.krylov_iters - krylov_start,
            "residual": res, "contraction": contraction}

    if system.nbc.is_linear:
        u = fem.solve_linear(system, F, tol=LINEAR_TOL)
        return result(u, "linear", 0, float(np.linalg.norm(K @ u - F)) / fscale)

    def residual(u):
        """(relative norm of G, G = K u + r_b - F) with K and r_b split at
        J_b(0) as the system holds them"""
        G = K @ u + fem.boundary_residual(system, u) - F
        return float(np.linalg.norm(G)) / fscale, G

    # the chord sweeps; G(0) = -F, so the first from zero solves for F.  A
    # far start may raise the residual for a sweep and still converge, so
    # only the cap stops them
    u = np.zeros(len(F)) if opts.initial is None else np.asarray(opts.initial)[system.free]
    res, G = residual(u)
    picard_iters, prev_step = 0, None
    while res > PICARD_TOL:
        if picard_iters == PICARD_MAX_ITER:
            raise NoConvergenceError(
                f"{PICARD_MAX_ITER} chord sweeps left relative residual "
                f"{res:.3e}, last contraction {contraction[-1]:.3g}")
        step = fem.solve_linear(system, G, tol=LINEAR_TOL)
        snorm_ = float(np.linalg.norm(step))
        if prev_step:
            contraction.append(snorm_ / prev_step)
        prev_step = snorm_
        u = u - step
        picard_iters += 1
        res, G = residual(u)
    return result(u, "picard", picard_iters, res)
