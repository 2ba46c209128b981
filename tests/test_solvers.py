import math

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from perfhom import fem, geometry, meshing, solvers

from _oracles import plain_profile, transmission_closed_form, transmission_shooting

W = 0.25


def _ends(mids):
    return np.abs(np.abs(mids[:, -1]) - 1.0) < 1e-12


def _strip(h):
    return meshing.mesh_interface((0.0, -1.0), (W, 1.0), 0.0, h)


def _strip3(h):
    return meshing.mesh_interface((0.0, 0.0, -1.0), (W, W, 1.0), 0.0, h)


def _one(x):
    return np.ones(len(x))


IDENT = fem.CoefficientSet(dim=2)


def test_oracles_agree_with_each_other():
    for cs in (1.0, 2.0, 5.0):
        assert transmission_closed_form(cs, 0.0) == pytest.approx(
            transmission_shooting(cs, 0.0), abs=1e-9)
    assert plain_profile(0.0) == pytest.approx(1 - 1 / math.cosh(1.0), rel=1e-14)


def test_plain_solver_matches_strip_profile():
    m = _strip(1 / 64)
    u = solvers.solve_homogenized_plain(
        m, IDENT, _one, opts=solvers.SolveOptions(lam=-1.0), dirichlet=_ends)
    got = meshing.interpolate(m, u.values, [[W / 2, 0.0]])[0]
    assert got == pytest.approx(0.35194572633611454, abs=5e-5)
    exact = plain_profile(m.vertices[:, 1])
    assert np.abs(u.values - exact).max() < 5e-5


def test_delta_solver_matches_transmission_oracle():
    m = _strip(1 / 64)
    got = []
    for sigma, a0 in ((2.0, 0.5), (2.0, 1.0), (5.0, 1.0)):
        u = solvers.solve_homogenized_delta(
            m, IDENT, a0, fem.NonlinearBC("linear", sigma=sigma), _one,
            opts=solvers.SolveOptions(lam=-1.0), dirichlet=_ends)
        val = meshing.interpolate(m, u.values, [[W / 2, 0.0]])[0]
        got.append(val)
        assert val == pytest.approx(
            transmission_closed_form(sigma * a0, 0.0), abs=1e-4)
    # frozen midpoint values, decreasing with absorption strength
    assert got[0] == pytest.approx(0.2548859147728816, abs=1e-4)
    assert got[1] == pytest.approx(0.19978820044686396, abs=1e-4)
    assert got[2] == pytest.approx(0.121194041664761, abs=1e-4)
    assert got[0] > got[1] > got[2]


def test_delta_with_zero_weight_equals_plain():
    m = _strip(1 / 32)
    opts = solvers.SolveOptions(lam=-1.0)
    ud = solvers.solve_homogenized_delta(
        m, IDENT, 0.0, fem.NonlinearBC("linear", sigma=3.0), _one,
        opts=opts, dirichlet=_ends)
    up = solvers.solve_homogenized_plain(m, IDENT, _one, opts=opts, dirichlet=_ends)
    assert np.abs(ud.values - up.values).max() < 1e-9


def test_zero_load_gives_zero_solution():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)
    u = solvers.solve_perforated(
        m, IDENT, fem.NonlinearBC("saturating", sigma=2.0),
        lambda x: np.zeros(len(x)))
    assert np.all(u.values == 0.0)


def test_linear_bc_agrees_with_one_shot_solve():
    sigma, a0 = 2.0, 1.0
    opts = solvers.SolveOptions(lam=-1.0)
    for m, backend in ((_strip(1 / 32), "splu"), (_strip3(1 / 16), "cg")):
        coeffs = fem.CoefficientSet(dim=m.dim)
        u = solvers.solve_homogenized_delta(
            m, coeffs, a0, fem.NonlinearBC("linear", sigma=sigma), _one,
            opts=opts, dirichlet=_ends)
        assert u.info["backend"] == backend
        assert u.info["newton_iters"] > 0
        # for a(u) = sigma u the problem is linear: fold the boundary mass
        # into K
        system = fem.assemble(
            m, coeffs, dirichlet=_ends, lam=-1.0,
            boundary=("interface", fem.NonlinearBC("linear", sigma=sigma)), weight=a0)
        jac = fem.boundary_nonlinear(system, np.zeros(len(system.free)))
        direct = _reduced_spsolve(system, system.matrix + jac.A,
                                  fem.load_vector(m, _one))
        assert np.abs(u.values - direct).max() < 1e-8


def _reduced_spsolve(system, matrix, load):
    """Direct sparse solve of matrix x = load, matrix given on the free dofs
    (an oracle independent of fem.solve_linear)."""
    f = system.free
    out = np.zeros(system.mesh.n_vertices, dtype=np.result_type(matrix, load))
    out[f] = spla.spsolve(matrix.tocsc(), load[f])
    return out


def _spy(monkeypatch, name):
    """Record each call of spla.<name> as its number of Krylov iterations
    (callback calls; 0 for splu)."""
    calls = []
    real = getattr(spla, name)

    def spy(*args, **kwargs):
        steps = []
        if name != "splu":
            outer = kwargs.get("callback") or (lambda xk: None)
            kwargs["callback"] = lambda xk: (steps.append(1), outer(xk))
        out = real(*args, **kwargs)
        calls.append(len(steps))
        return out

    monkeypatch.setattr(spla, name, spy)
    return calls


def test_one_factorization_per_system(monkeypatch):
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)
    splu = _spy(monkeypatch, "splu")
    cg = _spy(monkeypatch, "cg")
    jacobians = []
    original = fem.boundary_nonlinear
    monkeypatch.setattr(fem, "boundary_nonlinear",
                        lambda *a, **kw: jacobians.append(1) or original(*a, **kw))
    u = solvers.solve_perforated(
        m, IDENT, fem.NonlinearBC("saturating", sigma=2.0), _one)
    assert u.info["backend"] == "splu"
    assert u.info["picard_iters"] > 1 and u.info["newton_iters"] > 0
    # Picard sweeps and residual checks need no Jacobian
    assert len(jacobians) == u.info["newton_iters"]
    # K once, for every Picard sweep and as every Newton step's preconditioner
    assert len(splu) == 1
    # one CG solve per Newton step, each a few iterations on the exact LU
    assert len(cg) == u.info["newton_iters"]
    assert 0 < max(cg) <= 10
    assert sum(cg) == u.info["linear_iters"]


def _residual_states(monkeypatch):
    """Record the state of every fem.boundary_residual call."""
    states, original = [], fem.boundary_residual

    def spy(system, u):
        states.append(u.copy())
        return original(system, u)

    monkeypatch.setattr(fem, "boundary_residual", spy)
    return states


def test_newton_reuses_the_accepted_trial_residual(monkeypatch):
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)
    states = _residual_states(monkeypatch)
    u = solvers.solve_perforated(
        m, IDENT, fem.NonlinearBC("saturating", sigma=2.0), _one)
    assert u.info["newton_iters"] > 0
    # the line search's accepted trial is the next state, and its residual
    # is not evaluated a second time
    assert not any(np.array_equal(a, b) for a, b in zip(states, states[1:]))


def test_newton_takes_over_when_picard_stops_contracting(monkeypatch):
    # at sigma = 8 the first Picard step cuts the residual by less than
    # half: Newton goes on from that iterate, line search included
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)
    states = _residual_states(monkeypatch)
    u = solvers.solve_perforated(
        m, IDENT, fem.NonlinearBC("saturating", sigma=8.0), _one)
    assert u.info["method"] == "picard+newton"
    assert u.info["picard_iters"] == 2 and u.info["contraction"] == []
    assert u.info["newton_iters"] > 0 and u.info["residual"] <= 1e-9
    # Newton's first residual is the one Picard handed over
    assert not any(np.array_equal(a, b) for a, b in zip(states, states[1:]))


@pytest.mark.parametrize("nbc", [fem.NonlinearBC("zero"),
                                 fem.NonlinearBC("saturating", sigma=2.0)])
def test_solve_assembled_is_exactly_zero_on_dirichlet_nodes(nbc):
    m = _strip(1 / 16)
    system = fem.assemble(m, IDENT, dirichlet=_ends, lam=-1.0,
                          boundary=("interface", nbc), weight=1.0)
    u, _ = solvers.solve_assembled(system, fem.load_vector(m, _one))
    fixed = np.setdiff1d(np.arange(m.n_vertices), system.free)
    assert len(u) == m.n_vertices and len(fixed) > 0
    assert np.all(u[fixed] == 0.0) and np.all(u[system.free] != 0.0)


def test_nonhermitian_newton_step_runs_bicgstab(monkeypatch):
    m = _strip(1 / 32)
    coeffs = fem.CoefficientSet(dim=2, drift=[1.0, 0.5])
    nbc = fem.NonlinearBC("linear", sigma=2.0)
    splu = _spy(monkeypatch, "splu")
    cg = _spy(monkeypatch, "cg")
    bicgstab = _spy(monkeypatch, "bicgstab")
    u = solvers.solve_homogenized_delta(m, coeffs, 1.0, nbc, _one, dirichlet=_ends)
    assert u.info["backend"] == "splu" and u.info["newton_iters"] > 0
    assert len(splu) == 1 and not cg
    assert len(bicgstab) == u.info["newton_iters"]
    system = fem.assemble(m, coeffs, dirichlet=_ends, lam=u.info["lam"],
                          boundary=("interface", nbc), weight=1.0)
    assert not system.is_hermitian()
    jac = fem.boundary_nonlinear(system, np.zeros(len(system.free)))
    direct = _reduced_spsolve(system, system.matrix + jac.A,
                              fem.load_vector(m, _one))
    assert np.abs(u.values - direct).max() < 1e-8


def test_linear_iters_count_every_krylov_iteration(monkeypatch):
    # a 3D system iterates every linear solve, the plain solve's and the
    # Picard sweeps' included, not only the Newton tangents
    m = _strip3(1 / 8)
    coeffs = fem.CoefficientSet(dim=3)
    cg = _spy(monkeypatch, "cg")
    u = solvers.solve_homogenized_plain(m, coeffs, _one, dirichlet=_ends)
    assert u.info["backend"] == "cg"
    assert len(cg) == 1 and cg[0] > 0
    assert u.info["linear_iters"] == sum(cg)
    cg.clear()
    u = solvers.solve_homogenized_delta(
        m, coeffs, 1.0, fem.NonlinearBC("saturating", sigma=2.0), _one,
        dirichlet=_ends)
    assert u.info["picard_iters"] > 1 and u.info["newton_iters"] > 0
    assert len(cg) > u.info["newton_iters"]
    assert u.info["linear_iters"] == sum(cg)


def test_solution_independent_of_initial_guess():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)
    nbc = fem.NonlinearBC("saturating", sigma=2.0)
    tol = 1e-10
    u1 = solvers.solve_perforated(
        m, IDENT, nbc, _one, opts=solvers.SolveOptions(picard_tol=tol))
    u2 = solvers.solve_perforated(
        m, IDENT, nbc, _one,
        opts=solvers.SolveOptions(picard_tol=tol,
                                  initial=0.3 * np.ones(m.n_vertices)))
    _, _, h1 = fem.norms(m, u1.values - u2.values)
    assert h1 <= 10 * tol * fem.norms(m, u1.values)[2]


def test_picard_contracts_and_tightens_away_from_threshold():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)
    nbc = fem.NonlinearBC("saturating", sigma=2.0)
    rates = {}
    for lam in (-2.0, -6.0):
        u = solvers.solve_perforated(
            m, IDENT, nbc, _one, opts=solvers.SolveOptions(lam=lam))
        assert u.info["residual"] <= 1e-9
        rates[lam] = np.mean(u.info["contraction"])
        assert rates[lam] < 1.0
    assert rates[-6.0] < rates[-2.0]


def test_a_priori_bound_uniform_in_eps():
    f = _one
    for eps in (1 / 8, 1 / 16, 1 / 32):
        lay = geometry.make_layout("periodic", {}, eps)
        m = meshing.mesh_perforated(lay, 0.4 * eps)
        u = solvers.solve_perforated(
            m, IDENT, fem.NonlinearBC("saturating", sigma=2.0), f)
        # coercivity margin 1 at lam = lam0_hat - 1: ||u||_H1 <= ||f||_L2
        h1 = fem.norms(m, u.values)[2]
        assert h1 <= fem.l2_of_function(m, f)


def test_linearity_without_boundary_term():
    m = _strip(1 / 32)
    opts = solvers.SolveOptions(lam=-1.0)

    def f2(x):
        return np.cos(np.pi * x[:, 1])

    ua = solvers.solve_homogenized_plain(m, IDENT, _one, opts=opts, dirichlet=_ends)
    ub = solvers.solve_homogenized_plain(m, IDENT, f2, opts=opts, dirichlet=_ends)
    uc = solvers.solve_homogenized_plain(
        m, IDENT, lambda x: _one(x) + 2.0 * f2(x), opts=opts, dirichlet=_ends)
    assert np.abs(uc.values - ua.values - 2.0 * ub.values).max() < 1e-8


def test_complex_sigma_transmission(monkeypatch):
    m = _strip(1 / 32)
    sigma = 1.0 + 0.5j
    splu = _spy(monkeypatch, "splu")
    u = solvers.solve_homogenized_delta(
        m, IDENT, 1.0, fem.NonlinearBC("linear", sigma=sigma), _one,
        dirichlet=_ends)
    assert len(splu) == 1
    assert np.iscomplexobj(u.values)
    assert np.abs(u.values.imag).max() > 1e-4
    assert u.info["residual"] <= 1e-9
    system = fem.assemble(
        m, IDENT, dirichlet=_ends, lam=u.info["lam"],
        boundary=("interface", fem.NonlinearBC("linear", sigma=sigma)), weight=1.0)
    jac = fem.boundary_nonlinear(system, np.zeros(len(system.free), dtype=complex))
    direct = _reduced_spsolve(system, system.matrix.astype(complex) + jac.A,
                              fem.load_vector(m, _one))
    assert np.abs(u.values - direct).max() < 1e-7


def test_assembled_reuse_matches_fresh_solves():
    m = _strip(1 / 32)
    nbc = fem.NonlinearBC("saturating", sigma=1.5)
    opts = solvers.SolveOptions(lam=-1.0)
    system = fem.assemble(m, IDENT, dirichlet=_ends, lam=-1.0,
                          boundary=("interface", nbc), weight=1.0)
    for f in (_one, lambda x: x[:, 1] ** 2):
        load = fem.load_vector(m, f)
        u_re, _ = solvers.solve_assembled(system, load, opts)
        u_fr = solvers.solve_homogenized_delta(
            m, IDENT, 1.0, nbc, f, opts=opts, dirichlet=_ends)
        assert np.abs(u_re - u_fr.values).max() < 1e-8


def test_successive_weights_get_their_own_facets():
    # six weight callables c * 1 on one mesh, each freed before the next is
    # made, so a new callable may take a freed one's id: every solve must
    # match a solve on a fresh mesh
    m = _strip(1 / 16)
    nbc = fem.NonlinearBC("linear", sigma=1.0)
    opts = solvers.SolveOptions(lam=-1.0)
    load = fem.load_vector(m, _one)

    def solve(c):
        system = fem.assemble(m, IDENT, dirichlet=_ends, lam=-1.0,
                              boundary=("interface", nbc),
                              weight=lambda x: c * np.ones(len(x)))
        return solvers.solve_assembled(system, load, opts)[0]

    for c in range(1, 7):
        fresh = solvers.solve_homogenized_delta(_strip(1 / 16), IDENT, float(c), nbc,
                                                _one, opts=opts, dirichlet=_ends)
        np.testing.assert_allclose(solve(c), fresh.values, rtol=1e-12, atol=0)


def test_threshold_and_option_validation():
    m = _strip(1 / 16)
    with pytest.raises(ValueError):
        solvers.solve_homogenized_plain(
            m, IDENT, _one, opts=solvers.SolveOptions(lam=5.0), dirichlet=_ends)
    with pytest.raises(ValueError):
        solvers.SolveOptions(picard_tol=-1.0)
