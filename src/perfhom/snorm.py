"""Trace norms on the interface measured through a graded slab.

The slab is the box (tangential extent of S) x (0, tau0/2) on the tensor
grid of meshing.slab_axes: fine at the bottom and geometrically coarsened
upward.  Its energy form is the H1 Gram matrix K,

    ||V||_K^2 = ||grad V||^2 + ||V||^2        (no essential conditions).

For a real weight field w on S (typically alpha_eps - alpha0) the induced
seminorm of the weighted trace functional is

    snorm(w) = sup_{U, V}  |int_S w U V| / (||U||_K ||V||_K)
             = max |mu|  over  M_w v = mu K v,

where M_w is the weighted facet mass of S on the whole slab, (M_w U)_i =
int_S w U phi_i.  (Restricting U to minimal-energy extensions of its bottom
data gives the equivalent form sup_Phi Phi^T B_w^T K^{-1} B_w Phi /
Phi^T S_c Phi, S_c the Schur complement of K on the bottom nodes, with top
eigenvalue max mu^2; no code here needs S_c.)  M_w is nonzero only on the
bottom nodes, so the pencil reduces to the trace space: its nonzero mu are
the eigenvalues of B R, B the bottom block of M_w and R the bottom block of
K^{-1}.  s_norm runs Lanczos on B R with trace-sized vectors; each step
applies R by one full-slab solve through the slab's factorization of K,
and B by a trace-sized sparse product.

A slab is its factorization: build_slab factors K once and keeps only the
factor, never K.  A 2D slab needs no mesh: the grid's triangles are
right-angled, so K has a closed form per cell, written from the cell sizes
straight into LAPACK's upper band storage in the grid's own vertex order
and factored there by the banded Cholesky pbtrf/pbtrs (Anderson et al.,
LAPACK Users' Guide, SIAM 1999).  A 3D slab assembles K on its mesh and
factors it by the sparse LU fem.sparse_lu.  The trace nodes are the grid's
bottom layer in both; a slab's mesh is built only when asked for.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg as la

from . import fem, meshing

log = logging.getLogger(__name__)

LANCZOS_TOL, LANCZOS_MAX_ITER = 1e-9, 300


@dataclass
class BandCholesky:
    """Cholesky factor of a symmetric positive definite band matrix in
    LAPACK's upper band storage."""

    factor: np.ndarray       # (u + 1, n): row u + i - j holds entry (i, j)

    def solve(self, rhs):
        return la.cho_solve_banded((self.factor, False), rhs, check_finite=False)


def _gram_2d(xs, ys):
    """Upper band of the P1 H1 Gram matrix K of meshing._tri_grid(xs, ys),
    from its cell sizes.

    Every triangle is right-angled with its legs on grid lines, so a leg of
    length h couples its two ends in the stiffness by -h'/(2h), h' the
    cell's other side, and the hypotenuse by 0; the mass is |T|/12 (1 +
    delta_ij) on each triangle.  Node (i, j) is vertex i (ny + 1) + j, so K
    has the upper diagonals 0, 1 (legs along y), ny + 1 (legs along x), and
    ny + 2 and ny (the hypotenuses of even and odd cells).  Returns the band
    (ny + 3, n) in LAPACK's upper band storage and column-major order, for
    pbtrf to factor in place.
    """
    hx, hy = np.diff(xs), np.diff(ys)
    nx, ny = len(hx), len(hy)
    n = (nx + 1) * (ny + 1)
    u = ny + 2
    band = np.zeros((u + 1, n), order="F")

    def put(d, values, nodes=np.s_[:]):
        # K[p, p + d] at the nodes p = (i, j) picked by nodes, 0 at the rest;
        # row u - d of the band holds it at column p + d
        lower = np.zeros((nx + 1, ny + 1))
        lower[nodes] = values
        band[u - d, d:] = lower.ravel()[:n - d]

    def node_sums(v):  # per node: the sum of v over its one or two cells
        return np.r_[v, 0.0] + np.r_[0.0, v]

    wx, wy = node_sums(hx), node_sums(hy)
    sx, sy = node_sums(0.5 / hx), node_sums(0.5 / hy)
    # node (i, j) lies on the diagonal of all four of its cells when i + j
    # is even, and of none otherwise
    even = np.add.outer(np.arange(nx + 1), np.arange(ny + 1)) % 2 == 0
    # the diagonal: h'/(2h) of each leg at the node, and the mass of its
    # cells, doubled where the node lies in both triangles of each
    put(0, np.outer(wx, sy) + np.outer(sx, wy)
        + (1.0 + even) * np.outer(wx, wy) / 12.0)
    put(1, np.outer(wx, hy / 24.0 - 0.5 / hy), np.s_[:, :-1])     # (i, j) - (i, j + 1)
    put(ny + 1, np.outer(hx / 24.0 - 0.5 / hx, wy), np.s_[:-1])   # (i, j) - (i + 1, j)
    cell = np.outer(hx, hy) / 12.0
    put(ny + 2, np.where(even[:-1, :-1], cell, 0.0), np.s_[:-1, :-1])  # v00 - v11
    put(ny, np.where(even[:-1, :-1], 0.0, cell), np.s_[:-1, 1:])       # v01 - v10
    return band


@dataclass
class SlabSpace:
    """Graded slab on its grid axes (tangential axes, then the rows): the
    bottom (trace) nodes of the grid's bottom layer and one factorization
    of the slab's H1 Gram matrix K (anything with .solve).  The mesh is
    built only when asked for."""

    axes: list
    h: float
    factor: object = field(repr=False)
    bottom_facets: np.ndarray = field(init=False, repr=False)
    bottom: np.ndarray = field(init=False)

    def __post_init__(self):
        shape = [len(a) for a in self.axes]
        self.bottom_facets = meshing._grid_layer(shape, len(shape) - 1, 0)
        self.bottom = np.unique(self.bottom_facets)

    @property
    def n_trace(self):
        return len(self.bottom)

    @property
    def n_vertices(self):
        return math.prod(len(a) for a in self.axes)

    @cached_property
    def mesh(self):
        return meshing._grid_mesh(self.axes, self.h, k=0)

    def solve(self, rhs):
        return self.factor.solve(rhs)

    def trace_matrix(self, weight):
        """Sparse B_w with (B_w Phi)_i = int_S w Phi_h phi_i, Phi on bottom nodes."""
        index = np.unravel_index(self.bottom_facets, [len(a) for a in self.axes])
        verts = np.stack([a[i] for a, i in zip(self.axes, index)], axis=-1)
        cache = fem.facet_cache(self.bottom_facets, verts, weight)
        # column of a facet node: its position in the sorted bottom nodes
        return cache.mass((self.n_vertices, self.n_trace),
                          columns=np.searchsorted(self.bottom, self.bottom_facets))

    def lift(self, weight, phi):
        """Neumann lift U = K^{-1} B_w phi of bottom nodal data phi."""
        B = self.trace_matrix(weight)
        return self.solve(B @ phi)

    def lift_energy(self, weight, phi):
        """(w phi, U)_S = ||U||_K^2 for the Neumann lift U."""
        B = self.trace_matrix(weight)
        g = B @ phi
        U = self.solve(g)
        return float(np.real(np.vdot(g, U)))


def build_slab(tangential_lo, tangential_hi, h_bottom, tau0=1.0):
    """Slab (tangential box) x (0, tau0/2) with bottom rows of height h_bottom.

    A 2D slab's Gram band is written from its axes and factored in place by
    the banded Cholesky; a 3D band spans a whole tangential axis of rows, so
    a 3D slab assembles its Gram matrix on the mesh and keeps only its
    sparse LU fem.sparse_lu.
    """
    meshing._finite_positive("tau0", tau0)
    axes = meshing.slab_axes(tangential_lo, tangential_hi, tau0 / 2.0, h_bottom)
    if len(axes) == 2:
        band = la.cholesky_banded(_gram_2d(*axes), overwrite_ab=True,
                                  check_finite=False)
        return SlabSpace(axes, h_bottom, BandCholesky(band))
    K = fem.h1_gram(meshing._grid_mesh(axes, h_bottom, k=0))
    return SlabSpace(axes, h_bottom, fem.sparse_lu(K, hermitian=True))


def slab_for_layout(layout, points_per_bump=8):
    """Slab whose bottom resolves the density bumps of the layout."""
    lo, hi = layout.tangential_extent
    h = 2.0 * layout.eps * layout.constants["R2"] / points_per_bump
    return build_slab(lo, hi, h, tau0=layout.constants.get("tau0", 1.0))


def s_norm(slab, weight, seed=0, return_info=False):
    """max |mu| over the pencil M_w v = mu K v on the whole slab.

    M_w = E_b B E_b^T lives on the bottom nodes (B the bottom block of the
    trace matrix, E_b the injection of bottom values), so the nonzero mu are
    the eigenvalues of B R with R = E_b^T K^-1 E_b, which is self-adjoint in
    <x, y>_R = x.R y.  A Lanczos run on B R in that inner product, with full
    reorthogonalization, needs trace-sized vectors only: it stores the basis
    Q and P = R Q, and each step's one slab solve is p = R w (Parlett, The
    Symmetric Eigenvalue Problem, SIAM 1998, ch. 13).  The start vector is
    seeded by seed.  The run stops when the largest-|theta| Ritz pair of
    the tridiagonal has residual beta |s_k| <= LANCZOS_TOL |theta|, or when
    the Krylov space is invariant; the value is that |theta|, so both ends
    +-mu of a sign-changing weight are resolved.

    LANCZOS_MAX_ITER caps the slab solves; info["iterations"] (one entry)
    records their count.  A run that hits the cap sets info["stalled"], logs
    a warning and returns the largest |Ritz value| so far, a lower bound
    since Ritz values lie inside the spectrum.  A weight whose M_w has no
    nonzero entry gives exactly 0.  ValueError names a weight that is
    complex or not finite.
    """
    B = slab.trace_matrix(weight)
    if np.iscomplexobj(B.data):
        raise ValueError("s_norm needs a real weight")
    if not np.isfinite(B.data).all():
        raise ValueError("s_norm needs a weight with finite values")
    info = {"iterations": [0], "stalled": False}
    if B.count_nonzero() == 0:
        return (0.0, info) if return_info else 0.0
    bottom, n_trace = slab.bottom, slab.n_trace
    B = B[bottom]
    rhs = np.zeros(slab.n_vertices)  # E_b x: zero off the bottom nodes

    def apply_r(x):  # R x = E_b^T K^-1 E_b x: one slab solve
        info["iterations"][0] += 1
        rhs[bottom] = x
        return slab.solve(rhs)[bottom]

    size = min(LANCZOS_MAX_ITER, n_trace)
    Q, P = np.empty((size, n_trace)), np.empty((size, n_trace))
    alpha, beta = np.empty(size), np.zeros(size)
    q = np.random.default_rng(seed).standard_normal(n_trace)
    p = apply_r(q)
    scale = math.sqrt(q @ p)
    Q[0], P[0] = q / scale, p / scale
    for j in range(size):
        w = B @ P[j]
        if j:
            w -= beta[j] * Q[j - 1]
        alpha[j] = P[j] @ w
        w -= alpha[j] * Q[j]
        w -= Q[:j + 1].T @ (P[:j + 1] @ w)
        ritz, S = la.eigh_tridiagonal(alpha[:j + 1], beta[1:j + 1])
        k = np.argmax(np.abs(ritz))  # the largest-|theta| Ritz pair
        theta, s_k = ritz[k], S[-1, k]
        if j + 1 == n_trace:
            break  # the Krylov space is the whole trace space
        if j + 1 == size:
            info["stalled"] = True
            log.warning("s-norm Lanczos solve stalled; value is a lower bound")
            break
        p = apply_r(w)
        b = math.sqrt(max(w @ p, 0.0))
        if b * abs(s_k) <= LANCZOS_TOL * abs(theta):
            break  # converged, or b = 0: the Krylov space is invariant
        beta[j + 1] = b
        Q[j + 1], P[j + 1] = w / b, p / b
    val = abs(float(theta))
    return (val, info) if return_info else val


def kappa(slab, density, alpha0=None, **kw):
    """s-norm distance between the layout density and its homogenized mean
    alpha0, a number (density.mean() when None)."""
    alpha0 = float(density.mean() if alpha0 is None else alpha0)
    return s_norm(slab, lambda x: density.tangential(x[:, :-1]) - alpha0, **kw)


def kappa_table(eps_values, layout_fn, alpha0=None, points_per_bump=8, seed=0):
    """kappa(eps) of the mollified surface density over a family of layouts,
    one row per eps.  layout_fn: eps -> PerforationLayout.
    """
    from . import alpha as alpha_mod

    rows = []
    for eps in eps_values:
        layout = layout_fn(eps)
        dens = alpha_mod.surface_density(layout)
        slab = slab_for_layout(layout, points_per_bump=points_per_bump)
        val, info = kappa(slab, dens, alpha0=alpha0, seed=seed, return_info=True)
        rows.append({
            "eps": float(eps),
            "kappa": float(val),
            "n_cavities": layout.n_cavities,
            "trace_dofs": slab.n_trace,
            "stalled": info["stalled"],
            "solves": info["iterations"][0],
        })
        log.info("kappa(eps=%g) = %g", eps, val)
        del slab  # frees its factorization before the next eps builds its slab
    return rows
