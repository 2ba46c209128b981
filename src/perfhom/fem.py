"""P1 finite element core: assembly of the sesquilinear form, boundary
nonlinearities, linear solves (one cached setup per assembled system), and
mesh norms.

Conventions.  For the assembled matrix K and discrete vectors u, v,

    v^H K u = sum_ij (A_ij d_j u, d_i v) + sum_j (A_j d_j u, v)
              + (A_0 u, v) - lam (u, v),

with complex L2 products conjugating the test slot.  Cell quadrature is
degree 2, facet quadrature degree 3; both are exact for every P1 Gram
quantity used here.

assemble forms the operator K in one sparse pass of the local blocks
|T| (G A G^T + D + (A_0 - lam) M_ref) of the simplices T, with G the
barycentric gradients, D the drift term and M_ref the mass matrix of T over
|T| (a callable A_0 goes through the cell rule).  With A = I, A_0 = 1 and
lam = 0, K is the H1 Gram matrix (h1_gram).  A system with a boundary term
a(x, u) holds K + J_b(0), J_b(0) the term's Jacobian at u = 0, so that a
linear term is all in its matrix and one factorization serves the chord
sweeps of a nonlinear one (AssembledSystem).  A load is a separate vector
(load_vector) that each solve takes.  The local blocks, and the cell
quadrature of loads and L2 norms, are computed meshing.SIMPLEX_BLOCK
simplices at a time (meshing.blockwise), so their temporaries do not grow
with the mesh.  A system lives in its free dofs: it keeps K restricted to
the nodes off the Dirichlet set, and boundary_residual, boundary_nonlinear
and solve_linear take and return free-dof vectors.  solve_linear solves
with the system's matrix and nothing else: a 2D system by its LU, a 3D one
by its preconditioned Krylov method.  boundary_nonlinear, the term's
tangent past J_b(0), is no solve's operator; it is checked against finite
differences of boundary_residual.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import (
    MissingFacetTagsError,
    NoConvergenceError,
    NonEllipticCoefficientsError,
    PerfhomError,
)
from .meshing import _facet_measures, blockwise

log = logging.getLogger(__name__)


def cell_quadrature(dim):
    """Degree-2 rule in barycentric coordinates: (points, weights)."""
    if dim == 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        w = np.full(3, 1.0 / 3.0)
    elif dim == 3:
        a, b = 0.5854101966249685, 0.1381966011250105
        pts = np.where(np.eye(4, dtype=bool), a, b)
        w = np.full(4, 0.25)
    else:
        raise ValueError("dim must be 2 or 3")
    return pts, w


def facet_quadrature(dim):
    """Degree-3 rule on a facet (segment for dim=2, triangle for dim=3)."""
    if dim == 2:
        c = 0.5 / math.sqrt(3.0)
        pts = np.array([[0.5 + c, 0.5 - c], [0.5 - c, 0.5 + c]])
        w = np.array([0.5, 0.5])
    elif dim == 3:
        pts = np.array([[1 / 3] * 3, [0.6, 0.2, 0.2], [0.2, 0.6, 0.2], [0.2, 0.2, 0.6]])
        w = np.array([-27.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0, 25.0 / 48.0])
    else:
        raise ValueError("dim must be 2 or 3")
    return pts, w


def _eval_field(spec, x, shape):
    """Evaluate a coefficient given as None, scalar, array, or callable."""
    m = len(x)
    if spec is None:
        return None
    if callable(spec):
        out = np.asarray(spec(x))
        want = (m,) + shape
        if out.shape != want:
            out = np.broadcast_to(out, want)
        return out
    arr = np.asarray(spec)
    return np.broadcast_to(arr, (m,) + shape)


def _sup(spec, name):
    """sup |spec| of a constant coefficient; a callable declares none."""
    if callable(spec):
        raise ValueError(f"a callable {name} has no sup bound")
    return float(np.max(np.abs(spec)))


@dataclass
class CoefficientSet:
    """Coefficients of the second-order operator.

    matrix : None (identity), constant (n, n) array, or callable x -> (m, n, n);
        must be real symmetric with lowest eigenvalue >= c0.
    drift : None, constant (n,) vector, or callable x -> (m, n); complex ok.
    reaction : scalar, or callable x -> (m,); complex ok.
    c0 : declared ellipticity constant.
    estimate_lambda0 needs sup |drift| and sup |reaction|, so a callable
    drift or reaction has no threshold estimate.
    """

    dim: int = 2
    matrix: object = None
    drift: object = None
    reaction: object = 0.0
    c0: float = 1.0

    def drift_bound(self):
        return 0.0 if self.drift is None else _sup(self.drift, "drift")

    def reaction_bound(self):
        return _sup(self.reaction, "reaction")

    def validate_ellipticity(self, sample_points):
        """Check min eigenvalue of the matrix >= c0 on sample points."""
        x = np.atleast_2d(sample_points)
        A = _eval_field(self.matrix, x, (self.dim, self.dim))
        if A is None:
            lam_min = 1.0
        else:
            if not np.allclose(A, np.swapaxes(A, 1, 2), atol=1e-12):
                raise NonEllipticCoefficientsError("principal part not symmetric")
            if np.iscomplexobj(A):
                raise NonEllipticCoefficientsError("principal part must be real")
            lam_min = float(np.linalg.eigvalsh(A)[:, 0].min())
        if lam_min < self.c0 - 1e-12:
            raise NonEllipticCoefficientsError(
                f"sampled ellipticity {lam_min:.6g} below declared c0={self.c0}"
            )
        return lam_min


@dataclass
class NonlinearBC:
    """Boundary nonlinearity a(x, u) on cavity or interface facets.

    kind : "zero", "linear" (sigma(x)*u), or "saturating"
        (sigma(x)*u/(1+|u|)).  sigma may be a scalar or a callable of x.
    """

    kind: str = "zero"
    sigma: object = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "saturating"):
            raise ValueError(f"unknown nonlinearity kind {self.kind!r}")

    @property
    def is_zero(self):
        return self.kind == "zero"

    @property
    def is_linear(self):
        """Whether a is linear in u, so that its slope at zero is all of it."""
        return self.kind != "saturating"

    @property
    def is_monotone(self):
        """Whether Re (a(u)-a(v)) conj(u-v) >= 0 holds pointwise.

        True for scalar real sigma >= 0 (both kinds: the Wirtinger pair
        satisfies A - |B| = sigma/(1+|u|)^2 >= 0); a callable sigma counts
        as not monotone.
        """
        if self.is_zero:
            return True
        if callable(self.sigma):
            return False
        s = np.asarray(self.sigma)
        return bool(np.isrealobj(s) and np.all(s >= 0))

    def sigma_at(self, x):
        if callable(self.sigma):
            return np.asarray(self.sigma(x))
        return np.broadcast_to(np.asarray(self.sigma), (len(x),))

    def lip_bound(self):
        """Upper bound for |da/dRe u| + |da/dIm u| (the paper-style a0)."""
        return 0.0 if self.is_zero else 2.0 * _sup(self.sigma, "sigma")

    def value(self, x, u):
        if self.is_zero:
            return np.zeros_like(u)
        s = self.sigma_at(x)
        if self.kind == "linear":
            return s * u
        return s * u / (1.0 + np.abs(u))

    def wirtinger(self, x, u):
        """Partial derivatives (A, B) with da = A*du + B*conj(du)."""
        if self.is_zero:
            z = np.zeros_like(u)
            return z, z
        s = self.sigma_at(x)
        if self.kind == "linear":
            return s * np.ones_like(u), np.zeros_like(u)
        rho = np.abs(u)
        g = 1.0 / (1.0 + rho)
        g2 = g * g
        A = s * (g - 0.5 * rho * g2)
        with np.errstate(invalid="ignore", divide="ignore"):
            B = np.where(rho > 0, -0.5 * s * g2 * u * u / np.where(rho > 0, rho, 1.0), 0.0)
        return A, B


@dataclass
class DiscreteField:
    """Nodal P1 field on a mesh, with the info of the solve that made it;
    the system it was solved on, and that system's setup, are not kept."""

    mesh: object
    values: np.ndarray
    info: dict = field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values)

    def to_csv(self, path):
        v = self.values
        with open(path, "w") as fh:
            cols = [f"x{i+1}" for i in range(self.mesh.dim)]
            fh.write(",".join(cols) + ",Re(u),Im(u)\n")
            for x, u in zip(self.mesh.vertices, v):
                coords = ",".join(repr(float(c)) for c in x)
                fh.write(f"{coords},{float(np.real(u))!r},{float(np.imag(u))!r}\n")


@dataclass
class FacetCache:
    """Quadrature data for a facet set, reused across nonlinear iterations."""

    nodes: np.ndarray          # (F, d) vertex (or free dof) indices
    qp: np.ndarray             # (F, q, n) global quadrature points
    w: np.ndarray              # (F, q) weights including measure and weight field
    basis: np.ndarray          # (q, d) P1 values at the quadrature points

    @property
    def total_measure(self):
        return float(self.w.sum())

    def mass(self, shape, values=1.0, columns=None):
        """Sparse facet mass of the weights times values (F, q): entry (i, j)
        sums w * values * phi_a phi_b over the facet nodes a, b, with i the
        index of a and j that of b in columns (F, d), by default its index
        too.  An index of -1 drops the entry."""
        d = self.nodes.shape[1]
        pairs = np.einsum("qi,qj->qij", self.basis, self.basis)
        vals = np.einsum("fq,qij->fij", self.w * values, pairs).ravel()
        r = np.repeat(self.nodes, d, axis=1).ravel()
        c = np.tile(self.nodes if columns is None else columns, (1, d)).ravel()
        keep = (r >= 0) & (c >= 0)
        return sp.coo_matrix((vals[keep], (r[keep], c[keep])), shape=shape).tocsr()


def build_facet_cache(mesh, selector, weight=None):
    mask = mesh.facet_mask(selector)
    if not mask.any():
        raise MissingFacetTagsError(f"no facets match {selector!r}")
    nodes = mesh.facets[mask]
    return facet_cache(nodes, mesh.vertices[nodes], weight)


def facet_cache(nodes, verts, weight=None):
    """FacetCache of the facets with vertex indices nodes (F, d) and vertex
    coordinates verts (F, d, n)."""
    bary, wq = facet_quadrature(verts.shape[2])
    qp = np.einsum("qk,fkn->fqn", bary, verts)
    w = _facet_measures(verts)[:, None] * wq[None, :]
    if weight is not None:
        flat = qp.reshape(-1, verts.shape[2])
        wvals = weight(flat) if callable(weight) else np.broadcast_to(weight, (len(flat),))
        w = w * np.asarray(wvals).reshape(qp.shape[:2])
    return FacetCache(nodes, qp, w, bary)


@dataclass
class BoundaryJacobian:
    """R-linear boundary Jacobian on the free dofs of its system, past
    J_b(0) (boundary_nonlinear): J(du) = A du + B conj(du).  The saturating nonlinearity is not
    holomorphic, so B is nonzero at a complex state.  At a real state of a
    real system B is None and A is the tangent A + B, which is J on real
    increments; it is a real facet mass, so symmetric by construction."""

    A: sp.spmatrix
    B: sp.spmatrix | None = None

    def apply(self, du):
        if self.B is None:
            return self.A @ du
        return self.A @ du + self.B @ np.conj(du)


@dataclass
class AssembledSystem:
    """Sparse discrete operator on the free dofs, with its boundary term:
    nbc on the facets of selector, weighted by weight.  free lists the
    nodes off the Dirichlet set in increasing order, and free_index maps a
    node to its free dof, -1 on a Dirichlet node.  It holds no load: every
    solve takes its right-hand side.

    matrix is K + J_b(0): the form's K plus the boundary term's Jacobian at
    u = 0, the facet mass of the weighted slope a_u(x, 0) (slope, at the
    facet quadrature points).  boundary_residual and boundary_nonlinear
    return the remainder of the term past J_b(0), so matrix @ u +
    boundary_residual(u) is K u + r_b(u) whatever the split.  A linear term
    is all in matrix; without a boundary term matrix is K and slope None.

    The system also owns the linear-solve setup of its matrix, built on the
    first solve and reused by every later one.
    2D meshes use a sparse LU ("splu"), whose fill stays small.  In 3D the
    fill of an LU costs far more than the solves it serves, so 3D iterates:
    "cg" with a Jacobi preconditioner for Hermitian matrices, "bicgstab"
    with an incomplete LU otherwise.  krylov_iters counts the Krylov
    iterations of every solve on the system.
    """

    mesh: object
    matrix: sp.csr_matrix
    free: np.ndarray
    free_index: np.ndarray
    selector: object = None
    nbc: NonlinearBC = field(default_factory=NonlinearBC)
    weight: object = None
    slope: np.ndarray | None = field(default=None, repr=False)
    krylov_iters: int = field(default=0, init=False)
    _facets: FacetCache | None = field(default=None, repr=False)
    _setup: tuple | None = field(default=None, repr=False)
    _hermitian: bool | None = field(default=None, repr=False)

    def nodal(self, x):
        """The nodal vector of the free-dof values x, 0 on Dirichlet nodes."""
        out = np.zeros(self.mesh.n_vertices, dtype=x.dtype)
        out[self.free] = x
        return out

    @property
    def facets(self):
        """Facet quadrature of the boundary term, built on first use; its
        nodes are free dofs, -1 on a Dirichlet node."""
        if self._facets is None:
            cache = build_facet_cache(self.mesh, self.selector, self.weight)
            cache.nodes = self.free_index[cache.nodes]
            self._facets = cache
        return self._facets

    def is_hermitian(self):
        if self._hermitian is None:
            self._hermitian = _is_hermitian(self.matrix)
        return self._hermitian

    def _solver_setup(self):
        """(backend, apply), apply mapping z to K^{-1} z (the LU) or to the
        preconditioner's approximation of it."""
        if self._setup is None:
            K = self.matrix
            if self.mesh.dim == 2:
                # an unblocked LU factors every 2D system measured faster
                # (0.49 against 0.63 s at 249,001 dofs); a 3D slab's is
                # slower (0.34 against 0.29 s at 16,810 dofs)
                lu = sparse_lu(K, self.is_hermitian(), blocked=False)
                self._setup = ("splu", lu.solve)
            elif self.is_hermitian():
                # CG needs an SPD preconditioner; an incomplete LU of an SPD
                # matrix is not SPD in general and stalls CG on fine meshes
                d = K.diagonal().copy()
                d[d == 0] = 1.0
                inv = 1.0 / d
                self._setup = ("cg", lambda x: inv * x)
            else:
                ilu = spla.spilu(K.tocsc(), drop_tol=1e-5, fill_factor=12)
                self._setup = ("bicgstab", ilu.solve)
        return self._setup

    @property
    def backend(self):
        """The setup's name, "splu", "cg" or "bicgstab"; builds the setup."""
        return self._solver_setup()[0]

    def precondition(self, z):
        """apply(z) on free-dof vectors, split into real and imaginary parts
        when K is real."""
        apply = self._solver_setup()[1]
        if np.iscomplexobj(z) and not np.iscomplexobj(self.matrix.data):
            return apply(z.real) + 1j * apply(z.imag)
        return apply(z)


def _is_hermitian(K):
    d = K - K.getH()
    scale = max(1.0, abs(K.data).max() if K.nnz else 1.0)
    return d.nnz == 0 or abs(d.data).max() <= 1e-12 * scale


def sparse_lu(K, hermitian, blocked=True):
    """SuperLU factorization of the square sparse K; the one LU recipe.

    Minimum degree on A^T + A halves the fill of COLAMD; without
    SymmetricMode it is slow (89 s against 0.2 s for a 38k-dof drift system
    on one core, SciPy 1.17).  Hermitian matrices are coercive here and need
    no pivoting; others pivot off the diagonal below a tenth of the column
    max.  blocked=False factors column by column: no relaxed supernodes,
    which store explicit zeros in the factor, and no column panels, whose
    dense block updates pay on the wide separators of a 3D mesh.
    """
    relax, panel_size = (None, None) if blocked else (1, 1)
    return spla.splu(K.tocsc(), permc_spec="MMD_AT_PLUS_A",
                     options=dict(SymmetricMode=True),
                     diag_pivot_thresh=0.0 if hermitian else 0.1,
                     relax=relax, panel_size=panel_size)


def _scatter(index, values, n):
    """Sums of values per index into n slots, in the order np.add.at adds."""
    if np.iscomplexobj(values):
        return _scatter(index, values.real, n) + 1j * _scatter(index, values.imag, n)
    return np.bincount(index, weights=values, minlength=n)


def _cell_points(mesh, simplices):
    """Degree-2 quadrature points (ns * q, n) of the given simplices."""
    bary, _ = cell_quadrature(mesh.dim)
    V = mesh.vertices
    return np.stack([V[:, d][simplices] @ bary.T for d in range(mesh.dim)],
                    axis=-1).reshape(-1, mesh.dim)


def assemble(mesh, coeffs, dirichlet="outer", lam=0.0, boundary=None,
             weight=None):
    """Assemble the discrete operator; see the module docstring for the
    identity.  Loads are built apart, by load_vector.

    dirichlet : "outer" constrains every outer-boundary node, None keeps all
        nodes free, a callable(midpoints) keeps only the outer facets for
        which it returns True.
    boundary : None, or (selector, nbc): nbc on the facets of selector,
        weighted by weight, a constant or a callable of the facet points.

    The system keeps K restricted to the free dofs, K itself when no node is
    constrained, plus the boundary term's J_b(0) (see AssembledSystem).  A
    Dirichlet set that covers every node is a PerfhomError.
    """
    K = _assemble_matrix(mesh, coeffs, lam)
    nv = mesh.n_vertices
    fixed = np.zeros(nv, dtype=bool)
    if dirichlet is not None:
        outer = mesh.facet_mask("outer")
        if callable(dirichlet):
            mids = mesh.vertices[mesh.facets[outer]].mean(axis=1)
            sel = np.asarray(dirichlet(mids), dtype=bool)
            chosen = np.where(outer)[0][sel]
        elif dirichlet == "outer":
            chosen = np.where(outer)[0]
        else:
            raise ValueError(f"unsupported dirichlet spec {dirichlet!r}")
        fixed[np.unique(mesh.facets[chosen])] = True
    if fixed.all():
        raise PerfhomError(f"the Dirichlet set covers all {nv} nodes: no free dof")
    free = np.flatnonzero(~fixed)
    free_index = np.full(nv, -1)
    free_index[free] = np.arange(len(free))
    selector, nbc = boundary or (None, NonlinearBC())
    system = AssembledSystem(mesh=mesh, matrix=K[free][:, free] if fixed.any() else K,
                             free=free, free_index=free_index, selector=selector,
                             nbc=nbc, weight=weight)
    if not nbc.is_zero:
        # a_u(x, 0) is sigma(x) for either kind, the largest slope of a
        # saturating term
        cache = system.facets
        x = cache.qp.reshape(-1, mesh.dim)
        system.slope = nbc.sigma_at(x).reshape(cache.w.shape)
        system.matrix = system.matrix + cache.mass(system.matrix.shape, system.slope)
    return system


def _assemble_matrix(mesh, coeffs, lam):
    """CSR matrix K of the form, from element matrices computed block by
    block (meshing.blockwise) and summed in one COO -> CSR pass.  The
    element arrays are freed on return."""
    dim = mesh.dim
    simp = mesh.simplices
    vols, grads = mesh.p1_geometry()                     # (ns,), (ns, d+1, n)
    bary, wq = cell_quadrature(dim)
    nq, nloc = len(wq), dim + 1
    M_ref = np.einsum("q,qi,qj->ij", wq, bary, bary)

    def element(blk):
        """Element matrices (nb, d+1, d+1) of the simplices of blk."""
        G, vol = grads[blk], vols[blk, None, None]
        nb = len(G)

        def at_points(spec, shape):
            """Coefficient values (nb, nq, *shape) at the quadrature points."""
            if callable(spec):
                x = _cell_points(mesh, simp[blk])
                return _eval_field(spec, x, shape).reshape((nb, nq) + shape)
            return np.broadcast_to(np.asarray(spec), (nb, nq) + shape)

        # gradients are constant on a simplex, so A enters through its mean
        A = coeffs.matrix
        if callable(A):
            A = np.einsum("q,fqnm->fnm", wq, at_points(A, (dim, dim)))
        Ag = G if A is None else G @ np.swapaxes(np.asarray(A), -1, -2)
        # G A G^T per unit volume, summed over the axes (in 2D twice as fast
        # as einsum, adding in the same order)
        K_loc = sum(G[:, :, None, k] * Ag[:, None, :, k] for k in range(dim))
        if coeffs.drift is not None:
            Gd = np.einsum("fjn,fqn->fqj", G, at_points(coeffs.drift, (dim,)))
            K_loc = K_loc + np.einsum("q,qi,fqj->fij", wq, bary, Gd)
        reaction = coeffs.reaction
        if callable(reaction):
            rq = wq * at_points(reaction, ())
            K_loc = K_loc + np.einsum("fq,qi,qj->fij", rq, bary, bary)
            reaction = 0.0
        K_loc *= vol
        return K_loc + (reaction - lam) * (vol * M_ref)

    K_loc = blockwise(len(simp), element)
    idx = simp.astype(np.int32)
    rows = np.repeat(idx, nloc, axis=1).ravel()
    cols = np.tile(idx, (1, nloc)).ravel()
    nv = mesh.n_vertices
    return sp.coo_matrix((K_loc.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


def load_vector(mesh, f):
    """Nodal load with entries (f, phi_i), degree-2 cell quadrature."""
    bary, wq = cell_quadrature(mesh.dim)
    simp, vols = mesh.simplices, mesh.simplex_volumes()

    def contrib(blk):
        x = _cell_points(mesh, simp[blk])
        fq = np.asarray(f(x) if callable(f) else np.broadcast_to(f, (len(x),)))
        return (fq.reshape(-1, len(wq)) @ (wq[:, None] * bary)) * vols[blk, None]

    return _scatter(simp.ravel(), blockwise(len(simp), contrib).ravel(),
                    mesh.n_vertices)


def l2_of_function(mesh, f):
    """L2 norm of a coefficient function over the mesh, degree-2 quadrature."""
    vols = mesh.simplex_volumes()
    simp = mesh.simplices
    _, wq = cell_quadrature(mesh.dim)

    def squares(blk):
        """Quadrature of |f|^2 per unit volume on the simplices of blk."""
        fq = np.asarray(f(_cell_points(mesh, simp[blk]))).reshape(-1, len(wq))
        return np.abs(fq) ** 2 @ wq

    return math.sqrt(float(vols @ blockwise(len(simp), squares)))


def _free_vector(system, v, name):
    """v as an array of one value per free dof of the system."""
    v = np.asarray(v)
    if v.shape != system.free.shape:
        raise ValueError(f"{name} has shape {v.shape}, not the system's "
                         f"{len(system.free)} free dofs")
    return v


def _facet_state(system, u):
    """Facet cache, flat quadrature points and the free-dof vector u at
    those points (F, q); a Dirichlet node (index -1) reads 0."""
    cache = system.facets
    u = np.append(_free_vector(system, u, "u"), 0.0)
    uq = np.einsum("qk,fk->fq", cache.basis, u[cache.nodes])
    return cache, cache.qp.reshape(-1, system.mesh.dim), uq


def boundary_residual(system, u):
    """Residual of the system's boundary term past J_b(0) at the free-dof
    state u, on the free dofs: r_b(u) - J_b(0) u.

    Satisfies v^H r = (w * (a(., u_h) - a_u(., 0) u_h), v)_{L2(facets)} for
    discrete v, with a the system's nbc and w its weight on the facets; it
    is 0 for a linear term, whose J_b(0) u is all of r_b(u).
    """
    cache, x, uq = _facet_state(system, u)
    a = system.nbc.value(x, uq.ravel()).reshape(uq.shape)
    if system.slope is not None:
        a = a - system.slope * uq
    contrib = np.einsum("fq,qk->fk", cache.w * a, cache.basis)
    keep = cache.nodes >= 0
    return _scatter(cache.nodes[keep], contrib[keep], len(system.free))


def boundary_nonlinear(system, u):
    """Jacobian J_b(u) - J_b(0) of boundary_residual at the free-dof state
    u, as a BoundaryJacobian; the chord sweeps of solvers do not use it."""
    cache, x, uq = _facet_state(system, u)
    Aq, Bq = (np.asarray(z).reshape(uq.shape)
              for z in system.nbc.wirtinger(x, uq.ravel()))
    if system.slope is not None:
        Aq = Aq - system.slope
    A, B = (cache.mass((len(system.free),) * 2, z) for z in (Aq, Bq))
    if any(np.iscomplexobj(z) for z in (Aq, Bq, system.matrix.data)):
        return BoundaryJacobian(A, B)
    return BoundaryJacobian(A + B)


def solve_linear(system, rhs, tol=1e-10, maxiter=None):
    """Solve K x = rhs to relative residual tol, where K is the system's
    matrix (K + J_b(0) with a boundary term) and rhs and x are free-dof
    vectors.

    There is one setup per system, built on its matrix: a 2D system, every
    chord sweep included, is solved by its cached LU, and a 3D one by CG
    (Hermitian K) or BiCGStab, preconditioned by the cached setup, whose
    iterations are added to system.krylov_iters.  Raises NoConvergenceError
    when the Krylov method hits maxiter or the residual exceeds tol (usually
    a sign that lam is too close to the solvability threshold or the mesh
    is bad).
    """
    b = _free_vector(system, rhs, "rhs")
    backend = system.backend  # the first solve builds the setup, zero rhs too
    K = system.matrix
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(len(b), dtype=np.result_type(b, K.dtype))
    if backend == "splu":
        x = system.precondition(b)
    else:
        if maxiter is None:
            maxiter = max(500, 20 * int(math.sqrt(K.shape[0])))
        x, steps, info = _krylov(K, system.precondition, b, backend == "cg",
                                 tol, maxiter)
        system.krylov_iters += steps
        if info != 0:
            raise NoConvergenceError(
                f"{backend} returned info={info} after {steps} iterations")
    res = np.linalg.norm(K @ x - b)
    if res > 10.0 * tol * bnorm:
        raise NoConvergenceError(f"linear residual {res:.3e} above {tol:.1e}*|rhs|")
    return x


def _krylov(A, precondition, b, hermitian, tol, maxiter):
    """CG (hermitian) or BiCGStab on the sparse A, preconditioned by the
    function precondition: (x, iterations, SciPy's info).

    The iterations are counted from the applications of A, one per CG step
    and two per BiCGStab step: SciPy's bicgstab returns at its half-step
    convergence test after one application, without calling a callback, and
    that half step counts as an iteration.
    """
    method, per_step = (spla.cg, 1) if hermitian else (spla.bicgstab, 2)
    dtype = np.result_type(A.dtype, b)
    applied = 0

    def matvec(x):
        nonlocal applied
        applied += 1
        return A @ x

    x, info = method(spla.LinearOperator(A.shape, matvec=matvec, dtype=dtype), b,
                     rtol=tol, atol=0.1 * tol * np.linalg.norm(b), maxiter=maxiter,
                     M=spla.LinearOperator(A.shape, matvec=precondition, dtype=dtype))
    return x, -(-applied // per_step), info


def estimate_lambda0(coeffs, nbc=None):
    """Solvability threshold estimate lam0_hat = -C1 - C2 - c0/4.

    C1 = n*sup|A_j|^2/c0 + sup|A_0| absorbs the lower-order interior terms;
    C2 = a0 + a0^2/c0 absorbs the boundary term, with the trace constant
    taken as 1.  Any lam below the returned value yields a coercive form.
    """
    c0 = float(coeffs.c0)
    n = int(coeffs.dim)
    C1 = n * coeffs.drift_bound() ** 2 / c0 + coeffs.reaction_bound()
    a0 = 0.0 if nbc is None else nbc.lip_bound()
    # monotone boundary terms are dissipative and need no spectral margin
    if nbc is not None and nbc.is_monotone:
        a0 = 0.0
    C2 = a0 + a0 ** 2 / c0
    return -C1 - C2 - c0 / 4.0


def norms(mesh, u):
    """(L2, H1 seminorm, H1) of a P1 field over the mesh, exactly integrated."""
    u = np.asarray(u)
    vols, grads = mesh.p1_geometry()
    simp = mesh.simplices
    d = mesh.dim
    ul = u[simp]
    ssum = np.abs(ul.sum(axis=1)) ** 2
    ssq = (np.abs(ul) ** 2).sum(axis=1)
    l2sq = float((vols * (ssum + ssq)).sum() / ((d + 1) * (d + 2)))
    gu = np.einsum("fkn,fk->fn", grads, ul)
    h1sq = float((vols * (np.abs(gu) ** 2).sum(axis=1)).sum())
    return math.sqrt(l2sq), math.sqrt(h1sq), math.sqrt(l2sq + h1sq)


def h1_gram(mesh):
    """Sparse H1 Gram matrix (unit stiffness + mass), for spectral checks."""
    unit = CoefficientSet(dim=mesh.dim, reaction=1.0)
    return assemble(mesh, unit, dirichlet=None).matrix


def coercivity_margin(system, n_samples=100, seed=0):
    """Sampled Rayleigh bound: min over random v of Re(v^H K v)/||v||_H1^2,
    K the system's matrix, so K + J_b(0) for a system with a boundary
    term."""
    K, f = system.matrix, system.free
    G = h1_gram(system.mesh)[f][:, f]
    rng = np.random.default_rng(seed)
    best = math.inf
    for _ in range(n_samples):
        v = rng.standard_normal(len(f))
        if np.iscomplexobj(K.data):
            v = v + 1j * rng.standard_normal(len(f))
        num = np.real(np.vdot(v, K @ v))
        den = np.real(np.vdot(v, G @ v))
        best = min(best, num / den)
    return best
