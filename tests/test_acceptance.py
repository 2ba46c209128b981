"""Acceptance battery: one criterion per test, one verdict line per criterion.

The checks are exponent- and property-based at desk scale: fitted slopes must
land in pinned bands, cross-module bounds must hold with a single calibrated
constant, and the structural properties (coercivity, contraction, uniqueness,
norm axioms) must hold exactly or to pinned tolerances.  Every test also
enforces its own wall-clock cap on one CPU.
"""

import math
import time

import numpy as np

from perfhom import alpha, corrector, fem, geometry, harness, meshing, snorm, solvers

import conftest
from _oracles import transmission_closed_form, transmission_shooting


def _verdict(num, ok, detail, elapsed, cap):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail}) [{elapsed:.1f}s < {cap:.0f}s]"
    conftest.record_verdict(line)
    assert elapsed < cap, f"criterion {num} exceeded {cap}s: {elapsed:.1f}s"
    assert ok, line


def _ends(mids):
    return np.abs(np.abs(mids[:, 1]) - 1.0) < 1e-12


def _one(x):
    return np.ones(len(x))


def test_criterion_1_transmission_oracle():
    # -u'' - lam u = 1, lam = -1, linear a = sigma u, constant weight alpha0:
    # the strip solve must reproduce the shooting oracle at orders 2 (L2)
    # and 1 (H1)
    t0 = time.time()
    sigma, a0 = 2.0, 1.0
    for y in (0.0, 0.3, -0.7):
        assert abs(transmission_closed_form(sigma * a0, y)
                   - transmission_shooting(sigma * a0, y)) < 1e-9
    errs = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        m = meshing.mesh_interface((0.0, -1.0), (0.25, 1.0), 0.0, h)
        u = solvers.solve_homogenized_delta(
            m, fem.CoefficientSet(dim=2), a0,
            fem.NonlinearBC("linear", sigma=sigma), _one,
            opts=solvers.SolveOptions(lam=-1.0), dirichlet=_ends)
        exact = np.array([transmission_closed_form(sigma * a0, y)
                          for y in m.vertices[:, 1]])
        l2, _, h1 = fem.norms(m, u.values - exact)
        errs.append((l2, h1))
    l2_orders = [math.log2(errs[i][0] / errs[i + 1][0]) for i in range(2)]
    h1_orders = [math.log2(errs[i][1] / errs[i + 1][1]) for i in range(2)]
    ok = all(abs(o - 2.0) <= 0.3 for o in l2_orders) and \
        all(abs(o - 1.0) <= 0.2 for o in h1_orders)
    _verdict(1, ok,
             f"L2 orders {l2_orders[0]:.2f}/{l2_orders[1]:.2f}, "
             f"H1 orders {h1_orders[0]:.2f}/{h1_orders[1]:.2f}",
             time.time() - t0, 10)


def test_criterion_2_slab_norm_constant():
    t0 = time.time()
    slab = snorm.build_slab((0.0,), (1.0,), 0.01)
    c = 2.5
    val = snorm.s_norm(slab, lambda x: np.full(len(x), c))
    want = c / math.tanh(0.5)
    rel = abs(val - want) / want
    zero = snorm.s_norm(slab, lambda x: np.zeros(len(x)))
    ok = rel <= 0.02 and zero == 0.0
    _verdict(2, ok, f"const rel err {rel:.2e}, zero weight -> {zero}",
             time.time() - t0, 30)


def test_criterion_3_t2_rate_with_kappa_bound():
    # periodic disks, eta = 1, saturating nonlinearity, default sweep
    t0 = time.time()
    cfg = harness.StudyConfig(theorem="T2", nbc_kind="saturating",
                              nbc_sigma=2.0, eta_rule=1.0, h_factor=0.75)
    rep = harness.run_study(cfg)
    slope = rep.slopes["h1"]["slope"]
    ok = (0.35 <= slope <= 0.75
          and rep.dominance_ok
          and rep.uniformity["ok"]
          and len(rep.kappa_rows) == len(cfg.eps_list)
          and not any(r["stalled"] for r in rep.kappa_rows))
    _verdict(3, ok,
             f"H1 slope {slope:.3f} in [0.35, 0.75], "
             f"dominance {'ok' if rep.dominance_ok else 'VIOLATED'} "
             f"(C_fit {rep.c_fit:.3g})",
             time.time() - t0, 900)


def test_criterion_4_t1a_rate_decaying_eta():
    # a == 0 and eta = sqrt(eps): both bound terms decay like eps
    t0 = time.time()
    cfg = harness.StudyConfig(theorem="T1a", eta_rule=("power", 0.5),
                              eps_list=(1 / 8, 1 / 12, 1 / 16, 1 / 24,
                                        1 / 32, 1 / 48),
                              h_factor=0.4)
    rep = harness.run_study(cfg)
    slope = rep.slopes["h1"]["slope"]
    ok = 0.8 <= slope <= 1.2 and rep.dominance_ok and rep.uniformity["ok"]
    _verdict(4, ok, f"H1 slope {slope:.3f} in [0.8, 1.2]",
             time.time() - t0, 900)


def test_criterion_5_t3a_l2_improvement():
    # with f vanishing near the interface the L2 rate gains over H1
    t0 = time.time()
    cfg = harness.StudyConfig(theorem="T3a", eta_rule=1.0, vanish_near_s=True,
                              eps_list=(1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32),
                              h_factor=0.3)
    rep = harness.run_study(cfg)
    s_l2 = rep.slopes["l2"]["slope"]
    s_h1 = rep.slopes["h1"]["slope"]
    gain = s_l2 - s_h1
    ok = gain >= 0.3
    _verdict(5, ok, f"L2 slope {s_l2:.3f} - H1 slope {s_h1:.3f} = {gain:.3f} >= 0.3",
             time.time() - t0, 900)


def test_criterion_6_corrector_budget_calibrates_kappa():
    t0 = time.time()
    eps_list = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    lay_fn = lambda e: geometry.make_layout("periodic", {}, e)
    krows = snorm.kappa_table(eps_list, lay_fn)
    kappas = [r["kappa"] for r in krows]
    beta = corrector.cell_beta_from_layout(lay_fn(eps_list[0]), n=256)
    rows, cal = corrector.mu_table(eps_list, beta, modes=64, kappas=kappas)
    mu_slope, _, _ = harness.fit_rate([(r["eps"], r["mu"]) for r in rows])
    certified = all(r["certified"] for r in rows)
    ok = abs(mu_slope - 1.0) <= 0.15 and certified and cal > 0
    _verdict(6, ok,
             f"mu slope {mu_slope:.3f} = 1.0 +- 0.15, "
             f"kappa <= {cal:.3g}*sqrt(mu) at every eps: {certified}",
             time.time() - t0, 300)


def test_criterion_7_kappa_decay_and_clustered_bound():
    t0 = time.time()
    eps_list = (1 / 8, 1 / 16, 1 / 32, 1 / 64)
    krows = snorm.kappa_table(
        eps_list, lambda e: geometry.make_layout("periodic", {}, e))
    slope, _, _ = harness.fit_rate([(r["eps"], r["kappa"]) for r in krows])

    # sparse clustered family: kappa <= C * eps * eta^(n-1) * N_eps with the
    # constant calibrated at the coarsest eps (25% slack, same rule as the
    # study dominance check)
    crows = snorm.kappa_table(
        eps_list, lambda e: geometry.make_layout("clustered", {"beta": 0.25}, e))
    ratios = []
    for r, e in zip(crows, eps_list):
        lay = geometry.make_layout("clustered", {"beta": 0.25}, e)
        n_eps = alpha.density_count(lay)
        ratios.append(r["kappa"] / (e * lay.eta ** (lay.dim - 1) * n_eps))
    single_c = all(rt <= 1.25 * ratios[0] for rt in ratios)
    ok = abs(slope - 0.5) <= 0.15 and single_c
    _verdict(7, ok,
             f"periodic kappa slope {slope:.3f} = 0.5 +- 0.15, "
             f"clustered ratio spread {max(ratios) / ratios[0]:.3f} <= 1.25",
             time.time() - t0, 600)


def test_criterion_8_property_battery(monkeypatch):
    t0 = time.time()
    failures = []

    def check(name, cond):
        if not cond:
            failures.append(name)

    one = _one
    coeffs = fem.CoefficientSet(dim=2)
    nbc = fem.NonlinearBC("saturating", sigma=2.0)
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    m = meshing.mesh_perforated(lay, 0.06)

    # coercivity Rayleigh margin >= 1 one unit below the threshold
    lam0 = fem.estimate_lambda0(coeffs, nbc)
    sysm = fem.assemble(m, coeffs, lam=lam0 - 1.0)
    check("coercivity", fem.coercivity_margin(sysm, seed=0) >= 1.0 - 1e-12)

    # Picard contraction < 1 and double-start uniqueness within 10*tol
    tol = 1e-10
    monkeypatch.setattr(solvers, "PICARD_TOL", tol)
    u1 = solvers.solve_perforated(m, coeffs, nbc, one)
    check("contraction", max(u1.info["contraction"]) < 1.0)
    u2 = solvers.solve_perforated(
        m, coeffs, nbc, one,
        opts=solvers.SolveOptions(initial=0.3 * np.ones(m.n_vertices)))
    diff = fem.norms(m, u1.values - u2.values)[2]
    check("double-start", diff <= 10 * tol * fem.norms(m, u1.values)[2])

    # zero data, zero solution
    u0 = solvers.solve_perforated(m, coeffs, nbc, lambda x: np.zeros(len(x)))
    check("f=0", np.all(u0.values == 0.0))

    # boundary nonlinearity structure on random complex samples
    rng = np.random.default_rng(3)
    for kind, sig in (("linear", 1.5), ("saturating", 2.0)):
        bc = fem.NonlinearBC(kind, sigma=sig)
        u = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        v = rng.standard_normal(100) + 1j * rng.standard_normal(100)
        x = rng.uniform(0, 1, size=(100, 2))
        du = bc.value(x, u) - bc.value(x, v)
        check(f"{kind}-zero", np.abs(bc.value(x, np.zeros(100))).max() == 0.0)
        check(f"{kind}-lipschitz",
              np.abs(du).max() <= bc.lip_bound() * np.abs(u - v).max() + 1e-12)
        check(f"{kind}-monotone", np.real(du * np.conj(u - v)).min() >= -1e-12)

    # density stability under a mu-small perturbation, uniformly in eps
    mu = 0.05
    zeta = alpha.make_mollifier(2)
    r = np.linspace(0, 1, 20_001)
    sup_dz = np.abs(np.gradient(zeta(r), r)).max()
    c_pert = sup_dz * (2 * math.pi * 0.15 * 1.1) / 0.2 ** 2 + zeta.zero_value / 0.2
    for eps in (1 / 8, 1 / 16, 1 / 32):
        base = geometry.make_layout("periodic", {}, eps)
        pert = geometry.make_layout(
            "perturbed-periodic", {"mu": mu, "perimeter_jitter": mu, "seed": 5},
            eps)
        xs = np.linspace(0, 1, 8001)[:, None]
        d = np.abs(alpha.surface_density(base).tangential(xs)
                   - alpha.surface_density(pert).tangential(xs)).max()
        check(f"stability-{eps}", 0.0 < d <= c_pert * mu * base.eta)
        check(f"disjoint-{eps}",
              alpha.surface_density(base).multiplicity() == 1
              and geometry.validate_layout(base).checks["disjointness"].passed)

    # discrete energy identity for the slab lift
    slab = snorm.build_slab((0.0,), (1.0,), 0.05)
    w = lambda x: 1.0 + np.sin(2 * np.pi * x[:, 0])
    phi = np.cos(np.pi * slab.mesh.vertices[slab.bottom, 0])
    lift = slab.lift(w, phi)
    direct = np.vdot(lift, fem.h1_gram(slab.mesh) @ lift).real
    check("energy-identity",
          abs(direct - slab.lift_energy(w, phi)) <= 1e-8 * direct)

    # s-norm axioms: absolute homogeneity and the triangle inequality
    w1 = lambda x: np.cos(2 * np.pi * x[:, 0])
    w2 = lambda x: np.exp(-x[:, 0])
    s1, s2 = snorm.s_norm(slab, w1), snorm.s_norm(slab, w2)
    check("homogeneity",
          abs(snorm.s_norm(slab, lambda x: 2.5 * w1(x)) - 2.5 * s1) <= 1e-6 * s1)
    check("triangle",
          snorm.s_norm(slab, lambda x: w1(x) + w2(x)) <= s1 + s2 + 1e-9)

    _verdict(8, not failures,
             f"properties: {'all pass' if not failures else 'FAIL ' + ','.join(failures)}",
             time.time() - t0, 120)
