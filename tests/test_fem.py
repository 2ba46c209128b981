import dataclasses
import gc
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from perfhom import fem, geometry, meshing
from perfhom.errors import (
    NoConvergenceError,
    NonEllipticCoefficientsError,
    PerfhomError,
)

from _oracles import (
    assembly_dense,
    l2_of_function_unblocked,
    load_vector_unblocked,
    matrix_unblocked,
)


def _box(h):
    return meshing.mesh_box((0.0, 0.0), (1.0, 1.0), h)


def _exact(x):
    return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])


def _nodal_solve(sysm, load, **kw):
    """fem.solve_linear of the nodal load on the free dofs, embedded."""
    return sysm.nodal(fem.solve_linear(sysm, load[sysm.free], **kw))


def test_stiffness_kills_constants():
    m = _box(0.25)
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2), dirichlet=None)
    r = sysm.matrix @ np.ones(m.n_vertices)
    assert np.abs(r).max() < 1e-12


def test_unit_reaction_total_is_volume():
    # the stiffness part annihilates constants, so 1^T K 1 is the reaction
    # (mass) total, the volume of the mesh
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.08)
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2, reaction=1.0), lam=0.0,
                        dirichlet=None)
    ones = np.ones(m.n_vertices)
    assert ones @ (sysm.matrix @ ones) == pytest.approx(
        m.simplex_volumes().sum(), rel=1e-12)


def _matrix(x):
    # symmetric, with eigenvalues in [0.7, 2.3] on the unit box
    n = x.shape[1]
    A = np.eye(n) * (1.5 + 0.5 * np.sin(3 * x[:, 0]))[:, None, None]
    A[:, 0, 1] = A[:, 1, 0] = 0.3 * np.cos(2 * x[:, -1])
    return A


_ORACLE_CASES = {
    "callable-matrix-constant-drift-complex-reaction": dict(
        matrix=_matrix, drift=0.7,
        reaction=lambda x: 1.0 + x[:, 0] ** 2 + 0.5j * np.sin(4 * x[:, -1])),
    "callable-drift-constant-reaction": dict(
        drift=lambda x: np.exp(-x[:, ::-1]) + 0.2j, reaction=0.25),
}


@pytest.mark.parametrize("dim, h", [(2, 0.25), (3, 0.5)])
@pytest.mark.parametrize("case", sorted(_ORACLE_CASES))
@pytest.mark.parametrize("lam, dirichlet", [(-0.75, "outer"), (0.0, None), (0.3, None)])
def test_assembled_matrix_matches_dense_oracle(dim, h, case, lam, dirichlet):
    m = meshing.mesh_box(np.zeros(dim), np.ones(dim), h)
    coeffs = fem.CoefficientSet(dim=dim, **_ORACLE_CASES[case])
    sysm = fem.assemble(m, coeffs, dirichlet=dirichlet, lam=lam)
    f = sysm.free
    want = assembly_dense(m, coeffs, lam, fem.cell_quadrature(dim))[np.ix_(f, f)]
    got = sysm.matrix.toarray()
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    outer = np.unique(m.facets[m.facet_mask("outer")])
    fixed = np.setdiff1d(np.arange(m.n_vertices), f)
    assert fixed.tolist() == (sorted(outer) if dirichlet else [])


def _assert_same_csr(got, want):
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


@pytest.mark.parametrize("dim, h", [(2, 1 / 8), (3, 1 / 3)])
def test_blocked_kernels_match_unblocked_bit_for_bit(monkeypatch, dim, h):
    # 7-simplex blocks: every mesh here spans many blocks and a short last one
    monkeypatch.setattr(meshing, "SIMPLEX_BLOCK", 7)
    m = meshing.mesh_box(np.zeros(dim), np.ones(dim), h)
    cases = _ORACLE_CASES.values()
    drift, reaction = (next(c[key] for c in cases if callable(c[key]))
                       for key in ("drift", "reaction"))
    coeffs = fem.CoefficientSet(dim=dim, matrix=_matrix, drift=drift,
                                reaction=reaction)

    def f(x):
        return np.exp(x[:, 0]) * (1.0 - 0.4j) + x[:, -1] ** 2

    sysm = fem.assemble(m, coeffs, lam=-0.75, dirichlet=None)
    _assert_same_csr(sysm.matrix, matrix_unblocked(m, coeffs, -0.75))
    for load in (f, 2.5):
        np.testing.assert_array_equal(fem.load_vector(m, load),
                                      load_vector_unblocked(m, load))
    assert fem.l2_of_function(m, f) == l2_of_function_unblocked(m, f)


def _strip_ends(mids):
    return np.abs(mids[:, 0] - 0.5) > 0.5 - 1e-12


@pytest.mark.parametrize("dirichlet", ["outer", _strip_ends, None])
def test_system_matrix_is_the_free_restriction(monkeypatch, dirichlet):
    # the system keeps K on the free dofs only, bit for bit the restriction
    # of the full assembly, and K itself (no copy) when no node is fixed
    m = _box(1 / 8)
    coeffs = fem.CoefficientSet(dim=2, **_ORACLE_CASES[
        "callable-matrix-constant-drift-complex-reaction"])
    built, real = [], fem._assemble_matrix
    monkeypatch.setattr(fem, "_assemble_matrix",
                        lambda *a: built.append(real(*a)) or built[-1])
    sysm = fem.assemble(m, coeffs, dirichlet=dirichlet, lam=-0.75)
    f = sysm.free
    full = matrix_unblocked(m, coeffs, -0.75)
    _assert_same_csr(sysm.matrix, full[f][:, f])
    assert (sysm.matrix is built[0]) == (dirichlet is None)
    assert (len(f) < m.n_vertices) == (dirichlet is not None)
    np.testing.assert_array_equal(sysm.free_index[f], np.arange(len(f)))
    assert np.all(np.delete(sysm.free_index, f) == -1)


def test_a_system_without_free_dofs_is_refused():
    # a 2 x 2 grid has no interior node
    m = meshing.mesh_box((0.0, 0.0), (1.0, 1.0), 1.0)
    with pytest.raises(PerfhomError, match="no free dof"):
        fem.assemble(m, fem.CoefficientSet(dim=2))
    assert len(fem.assemble(m, fem.CoefficientSet(dim=2), dirichlet=None).free) == 4


def test_free_dof_entry_points_refuse_nodal_vectors():
    m = _box(0.25)
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2),
                        boundary=("outer", fem.NonlinearBC("linear", sigma=1.0)))
    nodal, n = np.ones(m.n_vertices), len(sysm.free)
    assert n < m.n_vertices
    for fn in (fem.solve_linear, fem.boundary_residual, fem.boundary_nonlinear):
        with pytest.raises(ValueError, match=rf"\({m.n_vertices},\).* {n} free dofs"):
            fn(sysm, nodal)


def test_assembly_peak_memory_per_simplex():
    # the tracemalloc peak of a 2D assembly followed by its load vector, whose
    # grid mesh built its P1 geometry already.  One COO -> CSR pass of the 9
    # entries per triangle holds about 300 bytes per triangle: the element
    # matrices (72), their int32 rows and columns (72), the CSR indices and
    # data before (108) and after (42) summing duplicates.  Measured 309 bytes
    # per triangle with blocked element kernels, 395 with whole-mesh element
    # arrays.
    m = meshing.mesh_interface((0.0, -0.5), (1.0, 0.5), 0.0, 1 / 128)
    gc.collect()
    tracemalloc.start()
    try:
        sysm = fem.assemble(m, fem.CoefficientSet(dim=2))
        fem.load_vector(sysm.mesh, _exact)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / m.n_simplices < 340


def test_load_vector_of_one_sums_to_volume():
    m = _box(0.2)
    F = fem.load_vector(m, lambda x: np.ones(len(x)))
    assert F.sum() == pytest.approx(1.0, abs=1e-13)


def test_norms_exact_on_constants_and_linears():
    m = _box(0.2)
    c = np.full(m.n_vertices, 3.0)
    l2, sem, h1 = fem.norms(m, c)
    assert l2 == pytest.approx(3.0, abs=1e-13)
    assert sem == pytest.approx(0.0, abs=1e-13)
    u = 2.0 * m.vertices[:, 0] + 3.0 * m.vertices[:, 1]
    _, sem, _ = fem.norms(m, u)
    assert sem == pytest.approx(math.sqrt(13.0), rel=1e-13)


def test_norms_match_gram_matrix():
    m = _box(0.25)
    G = fem.h1_gram(m)
    rng = np.random.default_rng(4)
    for _ in range(5):
        v = rng.standard_normal(m.n_vertices) + 1j * rng.standard_normal(m.n_vertices)
        _, _, h1 = fem.norms(m, v)
        quad = np.real(np.vdot(v, G @ v))
        assert h1**2 == pytest.approx(quad, rel=1e-12)


def test_l2_of_function_constant():
    m = _box(0.25)
    val = fem.l2_of_function(m, lambda x: np.full(len(x), 2.0))
    assert val == pytest.approx(2.0, rel=1e-13)


def test_dirichlet_poisson_rates():
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        m = _box(h)
        sysm = fem.assemble(m, fem.CoefficientSet(dim=2))
        u = _nodal_solve(
            sysm, fem.load_vector(m, lambda x: 2 * np.pi**2 * _exact(x)))
        l2, sem, _ = fem.norms(m, u - _exact(m.vertices))
        errs.append((l2, sem))
    errs = np.asarray(errs)
    l2_slopes = np.log2(errs[:-1, 0] / errs[1:, 0])
    h1_slopes = np.log2(errs[:-1, 1] / errs[1:, 1])
    assert np.all(np.abs(l2_slopes - 2.0) < 0.2)
    assert np.all(np.abs(h1_slopes - 1.0) < 0.15)


def test_drift_reaction_rates_and_nonhermitian():
    d = np.array([1.0, 0.5])

    def f(x):
        u = _exact(x)
        ux = np.pi * np.cos(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        uy = np.pi * np.sin(np.pi * x[:, 0]) * np.cos(np.pi * x[:, 1])
        return 2 * np.pi**2 * u + d[0] * ux + d[1] * uy + 2.0 * u

    coeffs = fem.CoefficientSet(dim=2, drift=d, reaction=2.0)
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        m = _box(h)
        sysm = fem.assemble(m, coeffs)
        u = _nodal_solve(sysm, fem.load_vector(m, f))
        errs.append(fem.norms(m, u - _exact(m.vertices))[0])
    assert not fem.assemble(_box(0.25), coeffs).is_hermitian()
    slopes = np.log2(np.asarray(errs[:-1]) / np.asarray(errs[1:]))
    assert np.all(np.abs(slopes - 2.0) < 0.2)


def test_complex_reaction_gives_complex_solution():
    m = _box(1 / 16)
    coeffs = fem.CoefficientSet(dim=2, reaction=2.0 + 1.0j)
    sysm = fem.assemble(m, coeffs)
    u = _nodal_solve(sysm, fem.load_vector(m, lambda x: 2 * np.pi**2 * _exact(x)))
    assert np.iscomplexobj(u)
    assert np.abs(u.imag).max() > 1e-4
    # separable data: exact solution is a complex multiple of the eigenmode
    scale = 2 * np.pi**2 / (2 * np.pi**2 + 2.0 + 1.0j)
    err = fem.norms(m, u - scale * _exact(m.vertices))[0]
    assert err < 5e-3


def test_nodal_solution_on_membrane_strip():
    def onlyx(mids):
        return (np.abs(mids[:, 0]) < 1e-12) | (np.abs(mids[:, 0] - 1.0) < 1e-12)

    worst = []
    for h in (1 / 16, 1 / 32):
        m = meshing.mesh_box((0.0, 0.0), (1.0, 0.25), h)
        sysm = fem.assemble(m, fem.CoefficientSet(dim=2), dirichlet=onlyx)
        u = _nodal_solve(sysm, fem.load_vector(m, 1.0))
        exact = m.vertices[:, 0] * (1.0 - m.vertices[:, 0]) / 2.0
        worst.append(np.abs(u - exact).max())
        assert worst[-1] < h * h
    assert worst[1] < worst[0] / 3.0


def test_solve_linear_zero_rhs_is_zero():
    m = _box(0.25)
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2))
    u = fem.solve_linear(sysm, np.zeros(len(sysm.free)))
    assert np.all(u == 0.0)


def test_2d_systems_factor_unblocked(monkeypatch):
    lay = geometry.make_layout("periodic", {}, 1 / 32)
    sysm = fem.assemble(meshing.mesh_perforated(lay, 0.02),
                        fem.CoefficientSet(dim=2))
    K, b = sysm.matrix, np.ones(len(sysm.free))
    blocked = fem.sparse_lu(K, True)
    seen, real = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: seen.append(
        (kw["relax"], kw["panel_size"])) or real(*a, **kw))
    assert sysm.backend == "splu"
    # no relaxed supernodes (relax=1) and no column panels (panel_size=1)
    assert seen == [(1, 1)]
    # a relaxed supernode stores explicit zeros in the factor
    assert fem.sparse_lu(K, True, blocked=False).nnz < blocked.nnz
    want = blocked.solve(b)
    assert np.abs(sysm.precondition(b) - want).max() <= 1e-12 * np.abs(want).max()


def test_solve_linear_iteration_cap():
    # the cap binds the Krylov backends, which serve 3D meshes
    m = meshing.mesh_box((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1 / 6)
    for drift, backend in ((None, "cg"), ([1.0, 0.5, 0.0], "bicgstab")):
        sysm = fem.assemble(m, fem.CoefficientSet(dim=3, drift=drift))
        assert sysm.backend == backend
        with pytest.raises(NoConvergenceError):
            _nodal_solve(sysm, fem.load_vector(m, 1.0), tol=1e-14, maxiter=1)


def _lifted(x):
    """_exact plus 1: 1 on the box's sides, where _exact vanishes."""
    return 1.0 + _exact(x)


def _facet_jacobian(sigma, u):
    """A 2D box system, Dirichlet on x = 0 only, and the boundary Jacobian
    of a saturating nonlinearity on its outer facets at the state u(x), past
    its slope at zero."""
    m = _box(1 / 16)
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2),
                        dirichlet=lambda mids: mids[:, 0] < 1e-12,
                        boundary=("outer", fem.NonlinearBC("saturating", sigma=sigma)))
    return sysm, fem.boundary_nonlinear(sysm, u(m.vertices[sysm.free]))


def test_real_state_tangent_is_the_restricted_symmetric_sum():
    # a real state folds B into A: the free-dof block of the full-size facet
    # masses' sum, A past the slope at zero, bit for bit, and symmetric
    sysm, jac = _facet_jacobian(2.0, _lifted)
    assert jac.B is None
    f = sysm.free
    _, x, uq = fem._facet_state(sysm, _lifted(sysm.mesh.vertices[f]))
    Aq, Bq = (z.reshape(uq.shape) for z in sysm.nbc.wirtinger(x, uq.ravel()))
    assert np.abs(Bq).max() > 0.1 and np.all(sysm.slope == 2.0)
    full = (sysm.mesh.n_vertices,) * 2
    nodal = fem.build_facet_cache(sysm.mesh, "outer")
    want = (nodal.mass(full, Aq - sysm.slope) + nodal.mass(full, Bq))[f][:, f]
    for got, ref in ((jac.A, want), (jac.A, jac.A.T.tocsr())):
        np.testing.assert_array_equal(got.indptr, ref.indptr)
        np.testing.assert_array_equal(got.indices, ref.indices)
        np.testing.assert_array_equal(got.data, ref.data)


@pytest.mark.parametrize("hermitian", [True, False])
def test_krylov_counts_a_half_step_return(hermitian):
    # on the identity, with the identity as preconditioner, CG converges in
    # one step and BiCGStab at its half-step test, where SciPy calls no
    # callback: both report one iteration
    b = np.linspace(1.0, 2.0, 8)
    x, steps, info = fem._krylov(sp.identity(8, format="csr"), lambda z: z, b,
                                 hermitian, 1e-10, 10)
    assert info == 0 and steps == 1
    np.testing.assert_allclose(x, b, rtol=1e-14)


def test_ellipticity_validation():
    pts = np.random.default_rng(0).uniform(0, 1, size=(20, 2))
    good = fem.CoefficientSet(dim=2, matrix=np.array([[2.0, 0.5], [0.5, 1.0]]), c0=0.5)
    assert good.validate_ellipticity(pts) >= 0.5
    weak = fem.CoefficientSet(dim=2, matrix=np.diag([0.4, 1.0]), c0=1.0)
    with pytest.raises(NonEllipticCoefficientsError):
        weak.validate_ellipticity(pts)
    skew = fem.CoefficientSet(dim=2, matrix=np.array([[1.0, 0.3], [0.0, 1.0]]))
    with pytest.raises(NonEllipticCoefficientsError):
        skew.validate_ellipticity(pts)


def test_lambda0_examples():
    ident = fem.CoefficientSet(dim=2)
    assert fem.estimate_lambda0(ident) == pytest.approx(-0.25)
    reac = fem.CoefficientSet(dim=2, reaction=2.0)
    assert fem.estimate_lambda0(reac) == pytest.approx(-2.25)
    drift = fem.CoefficientSet(dim=2, drift=(1.0, 0.0))
    assert fem.estimate_lambda0(drift) == pytest.approx(-2.25)
    # monotone boundary terms cost nothing
    sat = fem.NonlinearBC("saturating", sigma=3.0)
    assert fem.estimate_lambda0(ident, nbc=sat) == pytest.approx(-0.25)
    # complex sigma is not monotone: a0 = 2|sigma| enters through the trace
    cplx = fem.NonlinearBC("linear", sigma=1.0j)
    assert fem.estimate_lambda0(ident, nbc=cplx) == pytest.approx(-6.25)


def test_lambda0_callable_needs_declared_sup():
    coeffs = fem.CoefficientSet(dim=2, drift=lambda x: np.ones((len(x), 2)))
    with pytest.raises(ValueError):
        fem.estimate_lambda0(coeffs)


def test_coercivity_margin_below_threshold():
    m = _box(0.2)
    coeffs = fem.CoefficientSet(dim=2)
    lam = fem.estimate_lambda0(coeffs) - 1.0
    sysm = fem.assemble(m, coeffs, lam=lam)
    margin = fem.coercivity_margin(sysm, n_samples=50, seed=1)
    # K = S + 1.25 M against the H1 Gram S + M: Rayleigh in [1, 1.25]
    assert 1.0 - 1e-12 <= margin <= 1.25 + 1e-12


def test_boundary_nonlinearity_values_and_monotonicity():
    rng = np.random.default_rng(11)
    u = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    v = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    x = rng.uniform(0, 1, size=(64, 2))
    for kind, sigma in (("linear", 1.5), ("saturating", 2.0)):
        nbc = fem.NonlinearBC(kind, sigma=sigma)
        du = nbc.value(x, u) - nbc.value(x, v)
        # Lipschitz with the declared bound and monotone in the complex sense
        assert np.abs(du).max() <= nbc.lip_bound() * np.abs(u - v).max() + 1e-12
        pair = np.real(du * np.conj(u - v))
        assert pair.min() >= -1e-12
        assert nbc.is_monotone
    assert not fem.NonlinearBC("linear", sigma=-1.0).is_monotone
    assert not fem.NonlinearBC("linear", sigma=lambda x: x[:, 0]).is_monotone


def test_boundary_residual_zero_and_linear():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.08)

    def system(nbc):
        return fem.assemble(m, fem.CoefficientSet(dim=2), boundary=("cavity", nbc))

    sys0 = system(fem.NonlinearBC("zero"))
    u = np.ones(len(sys0.free))
    r0, j0 = fem.boundary_residual(sys0, u), fem.boundary_nonlinear(sys0, u)
    assert np.all(r0 == 0.0)
    assert j0.A.nnz == 0 or np.abs(j0.A.data).max() == 0.0

    s = 2.5
    sysm = system(fem.NonlinearBC("linear", sigma=s))
    r, jac = fem.boundary_residual(sysm, u), fem.boundary_nonlinear(sysm, u)
    total = m.facet_measures(m.facet_mask("cavity")).sum()
    # a linear term is all in the matrix, K + J_b(0): v^H J_b(0) u = s (u, v)
    # on the cavity walls; test with v = 1
    J0 = sysm.matrix - sys0.matrix
    assert (J0 @ u).sum() == pytest.approx(s * total, rel=1e-12)
    # what is left past J_b(0), residual and Jacobian, is zero; both live on
    # the free dofs
    assert r.shape == u.shape
    assert np.all(r == 0.0) and np.all(jac.apply(u) == 0.0)


def test_boundary_jacobian_matches_finite_differences():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.08)
    nbc = fem.NonlinearBC("saturating", sigma=2.0)
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2), boundary=("cavity", nbc))
    rng = np.random.default_rng(3)
    n = len(sysm.free)
    u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    du = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    r0, jac = fem.boundary_residual(sysm, u), fem.boundary_nonlinear(sysm, u)
    t = 1e-6
    r1 = fem.boundary_residual(sysm, u + t * du)
    fd = (r1 - r0) / t
    lin = jac.apply(du)
    denom = np.abs(lin).max()
    assert np.abs(fd - lin).max() <= 1e-5 * max(denom, 1.0)


def test_facet_cache_weight_scales_measure():
    m = meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.0, 0.25)
    plain = fem.build_facet_cache(m, "interface")
    weighted = fem.build_facet_cache(m, "interface", weight=lambda x: 2.0 * np.ones(len(x)))
    assert plain.total_measure == pytest.approx(1.0, abs=1e-12)
    assert weighted.total_measure == pytest.approx(2.0, abs=1e-12)
    # an assembled system builds the cache of its own boundary term once
    sysm = fem.assemble(m, fem.CoefficientSet(dim=2), weight=2.0,
                        boundary=("interface", fem.NonlinearBC("linear", sigma=1.0)))
    assert sysm.facets is sysm.facets
    np.testing.assert_array_equal(sysm.facets.w, weighted.w)


def test_assemble_folds_the_slope_at_zero_into_the_matrix():
    # the matrix holds K + J_b(0), J_b(0) the facet mass of the weighted
    # slope sigma, and the residual the rest: K u + r_b(u) is unchanged
    m = meshing.mesh_interface((0.0, -1.0), (1.0, 1.0), 0.0, 0.125)
    coeffs = fem.CoefficientSet(dim=2)
    nbc = fem.NonlinearBC("saturating", sigma=3.0)
    plain = fem.assemble(m, coeffs)
    sysm = fem.assemble(m, coeffs, boundary=("interface", nbc), weight=0.5)
    assert plain.slope is None and np.all(sysm.slope == 3.0)
    f = sysm.free
    J0 = fem.build_facet_cache(m, "interface", 0.5).mass((m.n_vertices,) * 2, 3.0)
    assert abs(sysm.matrix - plain.matrix - J0[f][:, f]).max() < 1e-14
    u = _lifted(m.vertices[f])
    whole = dataclasses.replace(sysm, slope=None)  # r_b(u) unsplit
    np.testing.assert_allclose(
        sysm.matrix @ u + fem.boundary_residual(sysm, u),
        plain.matrix @ u + fem.boundary_residual(whole, u), rtol=0, atol=1e-13)


def test_discrete_field_csv(tmp_path):
    m = _box(0.5)
    f = fem.DiscreteField(m, np.linspace(0, 1, m.n_vertices) * (1 + 1j))
    path = tmp_path / "u.csv"
    f.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "x1,x2,Re(u),Im(u)"
    assert len(lines) == m.n_vertices + 1
    row = [float(t) for t in lines[-1].split(",")]
    assert row[2] == pytest.approx(row[3])
