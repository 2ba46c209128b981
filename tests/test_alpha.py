import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import exp1

from perfhom import alpha, corrector, geometry
from perfhom.errors import PointOffManifoldError

from _oracles import density_loop


def test_mollifier_normalized_and_frozen_peak():
    z2 = alpha.make_mollifier(2)
    r = np.linspace(-1, 1, 200_001)
    assert np.trapezoid(z2(r), r) == pytest.approx(1.0, abs=1e-8)
    assert z2.zero_value == pytest.approx(0.8285688398691066, rel=1e-12)

    z3 = alpha.make_mollifier(3)
    r = np.linspace(0, 1, 200_001)
    assert np.trapezoid(2 * math.pi * r * z3(r), r) == pytest.approx(1.0, abs=1e-8)
    assert z3.zero_value == pytest.approx(0.7885737797126814, rel=1e-12)

    # the tabulated unit masses are the doubles adaptive quadrature returns
    mass2 = quad(lambda t: float(alpha.bump(t)), -1.0, 1.0)[0]
    mass3 = quad(lambda r: 2.0 * math.pi * r * float(alpha.bump(r)), 0.0, 1.0)[0]
    assert alpha.BUMP_MASS == {2: mass2, 3: mass3}
    assert (z2.amp, z3.amp) == (1.0 / mass2, 1.0 / mass3)
    # 2 pi int_0^1 r exp(-1/(1-r^2)) dr = pi int_0^1 exp(-1/s) ds
    assert abs(mass3 - math.pi * (math.exp(-1.0) - exp1(1.0))) < 1e-14


def test_bump_support_and_smooth_vanishing():
    r = np.array([-1.5, -1.0, 1.0, 2.0])
    assert np.all(alpha.bump(r) == 0.0)
    assert alpha.bump(np.array([0.0]))[0] == pytest.approx(math.exp(-1.0))
    # approaches zero faster than any power at the support edge
    assert alpha.bump(np.array([0.999]))[0] < 1e-200


def test_density_peak_and_off_support_values():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    dens = alpha.surface_density(lay)
    assert dens.multiplicity() == 1
    # with disjoint supports the sup bound is attained at the centers
    peak = dens.tangential(lay.centers[:1, :1])[0]
    assert peak == pytest.approx(dens.sup_bound(), rel=1e-12)
    assert peak == pytest.approx(3.904538670489304, rel=1e-12)
    # midpoint between bumps lies outside every support (eps R2 = 1/40)
    mid = np.array([[lay.centers[0, 0] + 1 / 16]])
    assert dens.tangential(mid)[0] == 0.0


def test_density_mass_and_mean_lattice():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    dens = alpha.surface_density(lay)
    # 8 bumps, each of mass (eps*eta)^(n-1) * 2*pi*rho, over |S| = 1
    assert dens.mass() == pytest.approx(2 * math.pi * 0.15, rel=1e-12)
    assert dens.mean() == pytest.approx(alpha.alpha0_mean(lay), rel=1e-12)
    # the lattice fills the box, so the box average is the cell mean
    assert dens.mean() == pytest.approx(
        corrector.cell_beta_from_layout(lay).alpha0, rel=1e-12)


def test_density_mean_is_eps_independent():
    means = [alpha.alpha0_mean(geometry.make_layout("periodic", {}, e))
             for e in (1 / 8, 1 / 16, 1 / 32)]
    assert np.ptp(means) < 1e-14


def test_alpha0_lattice_closed_forms():
    wide = geometry.make_layout("periodic", {"periods": [1.2]}, 1 / 8)
    assert corrector.cell_beta_from_layout(wide).alpha0 == pytest.approx(
        2 * math.pi * 0.15 / 1.2, rel=1e-12)
    # in 3d with eta = 1/2 the factor eta^2 turns 4 pi rho^2 into pi rho^2
    lay3 = geometry.make_layout("periodic", {"dim": 3}, 1 / 4, eta_rule=0.5)
    assert corrector.cell_beta_from_layout(lay3, n=128).alpha0 == pytest.approx(
        math.pi * 0.15**2, rel=1e-5)


def test_scaling_in_eta():
    base = geometry.make_layout("periodic", {}, 1 / 8)
    small = geometry.make_layout("periodic", {}, 1 / 8, eta_rule=0.5)
    xs = np.linspace(0, 1, 2001)[:, None]
    vb = alpha.surface_density(base).tangential(xs)
    vs = alpha.surface_density(small).tangential(xs)
    # n = 2: the density scales linearly in eta at fixed eps
    assert np.allclose(vs, 0.5 * vb, atol=1e-14)


def test_full_point_evaluation_and_off_manifold():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    dens = alpha.surface_density(lay)
    pts = np.column_stack([np.linspace(0, 1, 11), np.zeros(11)])
    assert np.allclose(dens(pts), dens.tangential(pts[:, :1]))
    pts[3, 1] = 1e-6
    with pytest.raises(PointOffManifoldError):
        dens(pts)


def test_density_count_periodic_and_clustered():
    for eps, want in ((1 / 8, 4), (1 / 16, 8), (1 / 32, 16)):
        lay = geometry.make_layout("periodic", {}, eps)
        assert alpha.density_count(lay) == want
    # clustered layouts: N_eps * eps^(3/4) stays within a fixed band
    vals = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        lay = geometry.make_layout("clustered", {"beta": 0.25}, eps)
        vals.append(alpha.density_count(lay) * eps ** 0.75)
    assert max(vals) / min(vals) < 1.5


def test_density_count_empty_layout():
    lay = geometry.make_layout("explicit", {"centers": [], "shapes": []}, 1 / 8)
    assert alpha.density_count(lay) == 0


def test_perturbation_stability_uniform_in_eps():
    mu = 0.05
    zeta = alpha.make_mollifier(2)
    r = np.linspace(0, 1, 20_001)
    sup_dzeta = np.abs(np.gradient(zeta(r), r)).max()
    R2, rho = 0.2, 0.15
    # one bump: |coef| |zeta(r) - zeta(r')| + |dcoef| zeta(0), with
    # |r - r'| <= mu/R2 and |dcoef| <= mu/R2; perimeters stay below 1.1x
    C = sup_dzeta * (2 * math.pi * rho * 1.1) / R2**2 + zeta.zero_value / R2
    for eps in (1 / 8, 1 / 16, 1 / 32):
        base = geometry.make_layout("periodic", {}, eps)
        pert = geometry.make_layout(
            "perturbed-periodic",
            {"mu": mu, "perimeter_jitter": mu, "seed": 5}, eps)
        assert pert.n_cavities == base.n_cavities
        db, dp = alpha.surface_density(base), alpha.surface_density(pert)
        xs = np.linspace(0, 1, 8001)[:, None]
        diff = np.abs(db.tangential(xs) - dp.tangential(xs)).max()
        assert 0.0 < diff <= C * mu * base.eta


def _overlapping_layout(dim):
    # two bumps 0.3 support radii apart in x, one more far off: points between
    # the first two lie under both supports (supports have radius eps*R2)
    eps, R2 = 1 / 8, geometry.DEFAULT_CONSTANTS["R2"]
    centers = np.array([[0.5, 0.3], [0.5 + 0.3 * eps * R2, 0.3], [0.2, 0.7]])
    centers = centers[:, :dim - 1]
    centers = np.column_stack([centers, np.zeros(3)])
    n = dim - 1
    return geometry.PerforationLayout(
        dim, (0.0,) * n + (-1.0,), (1.0,) * n + (1.0,), 0.0, eps, 1.0, centers,
        [geometry.Shape("ball", {"radius": 0.15})])


@pytest.mark.parametrize("dim", [2, 3])
def test_tangential_matches_loop_oracle(dim):
    dens = alpha.surface_density(_overlapping_layout(dim))
    assert dens.multiplicity() == 2
    rng = np.random.default_rng(3)
    cent = dens.layout.centers_tangential()
    # clouds around every center, centers themselves, and far points
    near = cent[rng.integers(0, 3, 600)] + rng.uniform(
        -1.2, 1.2, (600, dim - 1)) * dens.support
    far = np.full((3, dim - 1), 0.9)
    xp = np.vstack([near, cent, far])
    got, want = dens.tangential(xp), density_loop(dens, xp)
    both = np.linalg.norm(xp[:, None, :] - cent[None, :2, :], axis=2).max(axis=1) \
        < dens.support
    assert both.sum() > 10 and np.all(got[both] > 0)
    assert np.all(got[-3:] == 0.0) and np.all((got == 0.0) == (want == 0.0))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * want.max())
    assert dens.tangential(np.zeros((0, dim - 1))).shape == (0,)


def test_density_csv(tmp_path):
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    dens = alpha.surface_density(lay)
    path = tmp_path / "alpha.csv"
    dens.to_csv(path, samples=64)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "s,alpha"
    assert len(lines) == 65
    s, val = (float(t) for t in lines[1].split(","))
    assert s == 0.0 and val == dens.tangential([[0.0]])[0]
