"""Nonlinear solves for the perforated problem and its two homogenized
limits.

The boundary nonlinearity is handled by Picard iteration, which freezes
a(., u) at the previous iterate and re-solves the fixed coercive linear
system; Newton takes over once a step is small or fails to halve the
residual.  There is one factorization per system and Newton iterates on
it: every Picard sweep is solved by the system's cached LU or
preconditioner, and every Newton tangent K + J_b by fem.solve_linear,
which takes the boundary Jacobian J_b and runs a Krylov method that the
same setup preconditions.  J_b lives on cavity or interface facets only,
so with the exact LU of K a 2D step takes a handful of iterations.  Both
iterate on the system's free dofs.  The fields that solve_* return keep
no system, so each factorization is freed with its system.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import fem
from .errors import NoConvergenceError

log = logging.getLogger(__name__)


PICARD_MAX_ITER = 80
LINEAR_TOL = 1e-11
NEWTON_SWITCH = 1e-3        # relative step size triggering Newton
NEWTON_MAX_ITER = 30


@dataclass
class SolveOptions:
    lam: float | None = None        # spectral shift; None -> lam0_hat - 1
    picard_tol: float = 1e-9        # relative nonlinear residual
    initial: object = None          # optional nodal initial guess

    def __post_init__(self):
        if self.picard_tol <= 0:
            raise ValueError("picard_tol must be positive")


def _resolve_lambda(coeffs, nbc, lam):
    """lam as a float, lam0_hat - 1 for None; raises unless below lam0_hat."""
    lam0 = fem.estimate_lambda0(coeffs, nbc)
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

    def result(u, method, picard_iters, newton_iters, res):
        # read after the first solve, which builds the system's backend
        return system.nodal(u), {
            "method": method, "backend": system.backend,
            "picard_iters": picard_iters, "newton_iters": newton_iters,
            "linear_iters": system.krylov_iters - krylov_start,
            "residual": res, "contraction": contraction}

    if system.nbc.is_zero:
        u = fem.solve_linear(system, F, tol=LINEAR_TOL)
        return result(u, "linear", 0, 0, float(np.linalg.norm(K @ u - F)) / fscale)

    def residual(u):
        """(relative norm of G, G = K u + r_b - F, r_b)"""
        r_b = fem.boundary_residual(system, u)
        G = K @ u + r_b - F
        return float(np.linalg.norm(G)) / fscale, G, r_b

    if opts.initial is None:
        u = fem.solve_linear(system, F, tol=LINEAR_TOL)
    else:
        u = np.asarray(opts.initial)[system.free]
    prev_step = None
    prev_res = math.inf
    accepted = None  # (res, G, r_b) at u when evaluated already

    for picard_iters in range(1, PICARD_MAX_ITER + 1):
        res, G, r_b = residual(u)
        if res <= opts.picard_tol:
            return result(u, "picard", picard_iters, 0, res)
        if res > 0.5 * prev_res:
            # Picard stopped contracting: Newton takes over from u, as it
            # does after the last sweep
            accepted = res, G, r_b
            break
        prev_res = res
        step = fem.solve_linear(system, F - r_b, tol=LINEAR_TOL) - u
        snorm_ = float(np.linalg.norm(step))
        if prev_step is not None and prev_step > 0:
            contraction.append(snorm_ / prev_step)
        prev_step = snorm_
        u = u + step
        if snorm_ <= NEWTON_SWITCH * max(float(np.linalg.norm(u)), 1.0):
            break

    newton_iters = 0
    for it in range(1, NEWTON_MAX_ITER + 1):
        res, G, _ = accepted or residual(u)
        if res <= opts.picard_tol:
            return result(u, "picard+newton", picard_iters, newton_iters,
                          res)
        newton_iters = it
        jac = fem.boundary_nonlinear(system, u)
        delta = fem.solve_linear(system, -G, tol=1e-12, jacobian=jac)
        # line search guards the global phase Newton inherited from Picard
        scale, accepted = 1.0, None
        for _ in range(6):
            trial = residual(u + scale * delta)
            if trial[0] < res:
                accepted = trial
                break
            scale *= 0.5
        u = u + scale * delta
    res = (accepted or residual(u))[0]
    if res <= opts.picard_tol:
        return result(u, "picard+newton", picard_iters, newton_iters, res)
    raise NoConvergenceError(
        f"Newton stalled at relative residual {res:.3e}"
    )
