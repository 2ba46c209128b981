"""Independent reference solutions used by several test modules.

Everything here is deliberately computed by a different method than the
package under test (shooting for the transmission profile, dense linear
algebra for the slab pencil, plain loops for the surface density) so that
agreement is meaningful.
"""

import math

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from perfhom import fem, meshing
from perfhom.fem import _cell_points, _eval_field, _scatter, cell_quadrature
from perfhom.meshing import _edge_cofactors


def transmission_shooting(c_sigma, y):
    """Symmetric profile of -u'' + u = 1 on (-1, 1), u(+-1) = 0, with the
    conormal jump u'(0+) - u'(0-) = c_sigma * u(0) at the interface.

    Shoots on [0, 1] over the unknown u(0); the jump plus symmetry pins
    u'(0+) = c_sigma/2 * u(0).  Returns u evaluated at |y|.
    """

    def boundary_residual(a):
        sol = solve_ivp(
            lambda t, z: [z[1], z[0] - 1.0],
            (0.0, 1.0), [a, 0.5 * c_sigma * a],
            rtol=1e-11, atol=1e-13,
        )
        return sol.y[0, -1]

    a = brentq(boundary_residual, 0.0, 1.0, xtol=1e-13)
    sol = solve_ivp(
        lambda t, z: [z[1], z[0] - 1.0],
        (0.0, 1.0), [a, 0.5 * c_sigma * a],
        rtol=1e-11, atol=1e-13, dense_output=True,
    )
    return sol.sol(np.abs(np.asarray(y, dtype=float)))[0]


def transmission_closed_form(c_sigma, y):
    """Same profile in closed form: u = 1 + C*cosh|y| + D*sinh|y|."""
    s1, c1 = math.sinh(1.0), math.cosh(1.0)
    C = -(1.0 + 0.5 * c_sigma * s1) / (c1 + 0.5 * c_sigma * s1)
    D = 0.5 * c_sigma * (1.0 + C)
    ay = np.abs(np.asarray(y, dtype=float))
    return 1.0 + C * np.cosh(ay) + D * np.sinh(ay)


def plain_profile(y):
    """-u'' + u = 1 on (-1, 1), u(+-1) = 0."""
    return 1.0 - np.cosh(np.asarray(y, dtype=float)) / math.cosh(1.0)


def csr_band(K):
    """Upper band (u + 1, n) of the CSR matrix K in LAPACK's storage and
    column-major order, u read off K's nonzeros."""
    n = K.shape[0]
    row = np.repeat(np.arange(n), np.diff(K.indptr))
    upper = K.indices >= row
    row, col = row[upper], K.indices[upper]
    u = int((col - row).max())
    ab = np.zeros((u + 1, n), order="F")
    ab[u + row - col, col] = K.data[upper]
    return ab


class AssembledSlab:
    """A 2D slab built the generic way: meshing.mesh_slab, the assembled H1
    Gram matrix fem.h1_gram, the banded Cholesky of the band read off its
    CSR arrays, and the trace matrix from the mesh's interface facets.  It
    has what snorm.s_norm reads of a slab."""

    def __init__(self, tangential_lo, tangential_hi, h_bottom, tau0=1.0):
        self.mesh = meshing.mesh_slab(tangential_lo, tangential_hi, tau0 / 2.0,
                                      h_bottom)
        self.matrix = fem.h1_gram(self.mesh)
        self.bottom = np.unique(self.mesh.facets[self.mesh.facet_mask("interface")])
        self.factor = la.cholesky_banded(csr_band(self.matrix), check_finite=False)
        self.n_trace = len(self.bottom)
        self.n_vertices = self.mesh.n_vertices

    def solve(self, rhs):
        return la.cho_solve_banded((self.factor, False), rhs, check_finite=False)

    def trace_matrix(self, weight):
        cache = fem.build_facet_cache(self.mesh, "interface", weight)
        return cache.mass((self.n_vertices, self.n_trace),
                          columns=np.searchsorted(self.bottom, cache.nodes))


def band_matrix(ab):
    """Symmetric sparse matrix whose upper band ab is in LAPACK's storage:
    row r of ab holds the diagonal u - r, as in a dia_array."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    upper = sp.dia_array((ab, u - np.arange(u + 1)), shape=(n, n)).tocsr()
    return (upper + sp.triu(upper, 1).T).tocsr()


def schur_bottom(slab):
    """Dense Schur complement S_c of the slab's K on its bottom nodes: the
    energy matrix of minimal-energy extensions of bottom data."""
    K = fem.h1_gram(slab.mesh).toarray()
    ib = slab.bottom
    ii = np.setdiff1d(np.arange(slab.n_vertices), ib)
    return K[np.ix_(ib, ib)] - K[np.ix_(ib, ii)] @ np.linalg.solve(
        K[np.ix_(ii, ii)], K[np.ix_(ii, ib)])


def extension_energy(slab, phi):
    """||V||_K^2 of the minimal-energy extension V of bottom data phi."""
    return float(np.real(np.vdot(phi, schur_bottom(slab) @ phi)))


def snorm_dense(slab, weight):
    """Largest generalized Rayleigh quotient of the slab pencil, densely.

    Assembles B_w^H K^{-1} B_w and the Schur complement S_c of K on the
    bottom nodes as dense matrices and calls eigh; returns the square root
    of the top eigenvalue.  Only sensible for small slabs.
    """
    from scipy.linalg import eigh

    K = fem.h1_gram(slab.mesh).toarray()
    B = np.asarray(slab.trace_matrix(weight).todense())
    A = B.conj().T @ np.linalg.solve(K, B)
    vals = eigh(A.real, schur_bottom(slab).real, eigvals_only=True)
    return math.sqrt(max(float(vals[-1]), 0.0))


def assembly_dense(mesh, coeffs, lam, rule):
    """Dense K of the form in the fem module docstring, one simplex and one
    quadrature point at a time:

        K[a, b] = int_T (A grad phi_b) . grad phi_a + (A_1 . grad phi_b) phi_a
                  + (A_0 - lam) phi_b phi_a,

    summed over simplices T, with the gradients from inverting each simplex's
    affine map [1, x] and the coefficients evaluated at the barycentric rule
    (points, weights), which must be the package's cell rule.
    """
    bary, wq = rule
    dim = mesh.dim

    def at(spec, x, default):
        if spec is None:
            return default
        return np.asarray(spec(x[None, :])[0] if callable(spec) else spec)

    K = np.zeros((mesh.n_vertices,) * 2, dtype=complex)
    for s in mesh.simplices:
        X = mesh.vertices[s]
        T = np.column_stack([np.ones(dim + 1), X])
        G = np.linalg.inv(T)[1:].T                     # row a: grad phi_a
        vol = abs(np.linalg.det(T)) / math.factorial(dim)
        for phi, w in zip(bary, wq):
            x = phi @ X
            A = at(coeffs.matrix, x, np.eye(dim))
            drift = np.broadcast_to(at(coeffs.drift, x, 0.0), (dim,))
            block = (G @ A @ G.T + np.outer(phi, G @ drift)
                     + (at(coeffs.reaction, x, 0.0) - lam) * np.outer(phi, phi))
            K[np.ix_(s, s)] += w * vol * block
    return K


def density_loop(density, xp):
    """alpha_eps at tangential points xp, one point and one cavity at a time
    over every cavity, without the density's search tree."""
    xp = np.atleast_2d(np.asarray(xp, dtype=float))
    cent = density.layout.centers_tangential()
    vals = np.zeros(len(xp))
    for i in range(len(xp)):
        for k in range(len(cent)):
            r = np.linalg.norm(xp[i] - cent[k]) / density.support
            if r < 1.0:
                vals[i] += density.coefs[k] * density.mollifier(r)
    return vals


def fit_slope(eps, err):
    """Least-squares log-log slope, kept separate from the package's own."""
    x = np.log(np.asarray(eps, dtype=float))
    y = np.log(np.asarray(err, dtype=float))
    A = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


# Unblocked references of the per-simplex kernels.  Unlike the oracles above
# they repeat the package's arithmetic, over every simplex of the mesh at once
# instead of block by block, so the blocked kernels must match them bit for
# bit.

def p1_geometry_unblocked(vertices, simplices):
    """(volumes, barycentric gradients) from one pass over all simplices."""
    det, cof = _edge_cofactors(vertices, simplices)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = cof / det[:, None, None]
    grads = np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1)
    return np.abs(det) / math.factorial(vertices.shape[1]), grads


def matrix_unblocked(mesh, coeffs, lam):
    """Assembled K of fem.assemble, from all element matrices at once."""
    dim = mesh.dim
    simp = mesh.simplices
    vols, grads = mesh.p1_geometry()
    bary, wq = cell_quadrature(dim)
    ns, nq, nloc = len(simp), len(wq), dim + 1

    def at_points(spec, shape):
        if callable(spec):
            x = _cell_points(mesh, simp)
            return _eval_field(spec, x, dim, shape).reshape((ns, nq) + shape)
        return np.broadcast_to(np.asarray(spec), (ns, nq) + shape)

    A = coeffs.matrix
    if callable(A):
        A = np.einsum("q,fqnm->fnm", wq, at_points(A, (dim, dim)))
    Ag = grads if A is None else grads @ np.swapaxes(np.asarray(A), -1, -2)
    K_loc = sum(grads[:, :, None, k] * Ag[:, None, :, k] for k in range(dim))
    if coeffs.drift is not None:
        Gd = np.einsum("fjn,fqn->fqj", grads, at_points(coeffs.drift, (dim,)))
        K_loc = K_loc + np.einsum("q,qi,fqj->fij", wq, bary, Gd)
    reaction = coeffs.reaction
    if callable(reaction):
        rq = wq * at_points(reaction, ())
        K_loc = K_loc + np.einsum("fq,qi,qj->fij", rq, bary, bary)
        reaction = 0.0
    K_loc *= vols[:, None, None]
    M_loc = vols[:, None, None] * np.einsum("q,qi,qj->ij", wq, bary, bary)
    K_loc = K_loc + (reaction - lam) * M_loc
    idx = simp.astype(np.int32)
    rows = np.repeat(idx, nloc, axis=1).ravel()
    cols = np.tile(idx, (1, nloc)).ravel()
    nv = mesh.n_vertices
    return sp.coo_matrix((K_loc.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def load_vector_unblocked(mesh, f):
    """Nodal load (f, phi_i) of fem.load_vector, all simplices at once."""
    bary, wq = cell_quadrature(mesh.dim)
    x = _cell_points(mesh, mesh.simplices)
    fq = np.asarray(f(x) if callable(f) else np.broadcast_to(f, (len(x),)))
    contrib = (fq.reshape(-1, len(wq)) @ (wq[:, None] * bary)) \
        * mesh.simplex_volumes()[:, None]
    return _scatter(mesh.simplices.ravel(), contrib.ravel(), mesh.n_vertices)


def l2_of_function_unblocked(mesh, f):
    """fem.l2_of_function, all simplices at once."""
    vols = mesh.simplex_volumes()
    simp = mesh.simplices
    _, wq = cell_quadrature(mesh.dim)
    fq = np.asarray(f(_cell_points(mesh, simp))).reshape(len(simp), len(wq))
    return math.sqrt(float(vols @ (np.abs(fq) ** 2 @ wq)))


def sup_boundary_dense(corr, samples=4096):
    """Corrector.sup_boundary by a dense sum over every mode at every sample
    point: samples points of a 1D cell, or an m x m grid of a 2D cell with
    m = isqrt(samples)."""
    axes = [np.linspace(0.0, c, samples if len(corr.cell) == 1
                        else math.isqrt(samples), endpoint=False)
            for c in corr.cell]
    t = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    return float(np.abs(corr.evaluate(t, 0.0)).max())
