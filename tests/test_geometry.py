import math

import numpy as np
import pytest
from scipy.special import ellipe

from perfhom import geometry
from perfhom.errors import ConfigError, InfeasibleSpacingError, ManifoldOutsideDomainError


def test_ball_boundary_measure_closed_form():
    shape = geometry.Shape("ball", {"radius": 0.15})
    assert shape.boundary_measure(2) == pytest.approx(2 * math.pi * 0.15, rel=1e-10)
    # the 3d measure comes from angular quadrature, not a formula
    assert shape.boundary_measure(3) == pytest.approx(4 * math.pi * 0.15**2, rel=1e-5)


def test_ellipse_boundary_measure_vs_elliptic_integral():
    a, b = 0.18, 0.12
    shape = geometry.Shape("ellipse", {"semi_axes": (a, b)})
    exact = 4 * a * ellipe(1 - (b / a) ** 2)
    assert shape.boundary_measure(2) == pytest.approx(exact, rel=1e-8)


def test_star_shape_radii_within_band():
    shape = geometry.Shape("star", {"r0": 0.15, "r1": 0.04, "wings": 5})
    t = np.linspace(0, 2 * math.pi, 721)
    r = shape.radius(t)
    assert r.min() == pytest.approx(0.11, abs=1e-12)
    assert r.max() == pytest.approx(0.19, abs=1e-12)



def test_shape_params_are_checked_and_named():
    star = geometry.Shape("star", {"r0": 0.15, "r1": "0.02", "wings": 4.0})
    assert star.params == {"r0": 0.15, "r1": 0.02, "wings": 4}
    assert geometry.Shape("ellipse", {"semi_axes": [0.1, 0.2]}).params == {
        "semi_axes": (0.1, 0.2)}
    for family, params, key in (("ball", {"radius": "x"}, "radius"),
                                ("ellipse", {"semi_axes": 0.1}, "semi_axes"),
                                ("star", {"r0": 0.15, "r1": 0.02, "wings": 2.5}, "wings"),
                                ("ball", {}, "radius"),
                                ("ellipse", {"radius": 0.1}, "semi_axes"),
                                ("star", {"r0": 0.15}, "r1"),
                                ("blob", {}, "blob")):
        with pytest.raises(ConfigError, match=repr(key)):
            geometry.Shape(family, params)
    with pytest.raises(ConfigError, match="'R2'"):
        geometry.make_layout("periodic", {"constants": {"R2": "x"}}, 1 / 8)


@pytest.mark.parametrize("kind, params, key", [
    ("periodic", {"preiods": [2.0]}, "preiods"),
    # each kind reads only its own params
    ("periodic", {"mu": 0.3}, "mu"),
    ("clustered", {"centers": [[0.5, 0.0]]}, "centers"),
    ("explicit", {"centers": [[0.5, 0.0]], "periods": [2.0]}, "periods"),
    ("periodic", {"constants": {"R3": 5}}, "R3"),
])
def test_make_layout_refuses_a_param_it_does_not_read(kind, params, key):
    with pytest.raises(ConfigError, match=repr(key)):
        geometry.make_layout(kind, params, 1 / 8)


def test_periodic_lattice_count_and_positions():
    # unit period, eps = 1/8, interface length 1: 8 centers at eps*(k+1/2)
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    assert lay.n_cavities == 8
    x1 = np.sort(lay.centers[:, 0])
    assert np.allclose(x1, (np.arange(8) + 0.5) / 8, atol=1e-14)
    assert np.all(lay.centers[:, 1] == 0.0)


def test_perturbed_zero_shift_is_periodic():
    base = geometry.make_layout("periodic", {}, 1 / 8)
    pert = geometry.make_layout("perturbed-periodic", {"mu": 0.0}, 1 / 8)
    assert np.array_equal(base.centers, pert.centers)


def test_perturbed_shift_bounded_by_mu_eps():
    eps, mu = 1 / 16, 0.4
    base = geometry.make_layout("periodic", {}, eps)
    pert = geometry.make_layout(
        "perturbed-periodic", {"mu": mu, "seed": 3}, eps)
    # a big shift can push an edge cavity into the boundary margin and
    # drop it, so match survivors to their nearest unperturbed center
    assert 0 < pert.n_cavities <= base.n_cavities
    d = np.linalg.norm(
        pert.centers[:, None, :] - base.centers[None, :, :], axis=2)
    shift = d.min(axis=1)
    assert shift.max() <= mu * eps + 1e-12
    assert shift.max() > 0.0


def test_clustered_layout_counts_grow():
    counts = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        lay = geometry.make_layout("clustered", {"beta": 0.25}, eps)
        counts.append(lay.n_cavities)
    assert counts[0] < counts[1] < counts[2]


def test_validate_layout_periodic_margins():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    rep = geometry.validate_layout(lay)
    assert rep.passed
    c = lay.constants
    # disjointness margin is gap/required; required = 2*b*R2*eps
    gap = lay.min_center_gap()
    assert gap >= 2 * c["b"] * c["R2"] * lay.eps
    assert rep.checks["disjointness"].margin == pytest.approx(
        gap / (2 * c["b"] * c["R2"] * lay.eps))


def test_validate_layout_flags_disjointness_violation():
    eps = 1 / 8
    c = geometry.DEFAULT_CONSTANTS
    d = 1.5 * c["b"] * c["R2"] * eps  # below the required 2*b*R2*eps
    shp = geometry.Shape("ball", {"radius": 0.15})
    lay = geometry.PerforationLayout(
        dim=2, domain_lo=(0.0, -0.5), domain_hi=(1.0, 0.5), s0=0.0,
        eps=eps, eta=1.0,
        centers=np.array([[0.45, 0.0], [0.45 + d, 0.0]]),
        shapes=[shp, shp], constants=dict(c))
    rep = geometry.validate_layout(lay)
    assert not rep.passed
    assert not rep.checks["disjointness"].passed
    assert rep.checks["disjointness"].margin < 1.0


def test_make_layout_rejects_tight_period():
    with pytest.raises(InfeasibleSpacingError):
        geometry.make_layout("periodic", {"periods": (0.4,)}, 1 / 8)


def test_make_layout_rejects_interface_outside_box():
    with pytest.raises(ManifoldOutsideDomainError):
        geometry.make_layout("periodic", {"s0": 0.7}, 1 / 8)


def test_unit_boundary_measures_uniformly_bounded():
    sups = []
    for eps in (1 / 8, 1 / 16, 1 / 32):
        lay = geometry.make_layout("periodic", {}, eps)
        sups.append(lay.boundary_measures().max())
    assert np.ptp(sups) == 0.0
    assert sups[0] == pytest.approx(2 * math.pi * 0.15, rel=1e-10)


def test_eta_rules():
    assert geometry.eval_eta(1.0, 1 / 8) == 1.0
    assert geometry.eval_eta(("power", 0.5), 1 / 16) == pytest.approx(0.25)
    assert geometry.eval_eta(lambda e: 2 * e, 1 / 8) == pytest.approx(0.25)


def test_layout_json_roundtrip(tmp_path):
    lay = geometry.make_layout("periodic", {}, 1 / 12, eta_rule=("power", 0.5))
    path = tmp_path / "layout.json"
    lay.to_json(path)
    back = geometry.PerforationLayout.from_json(path)
    assert back.dim == lay.dim
    assert back.eps == lay.eps
    assert back.eta == pytest.approx(lay.eta)
    assert np.allclose(back.centers, lay.centers)
    assert [s.family for s in back.shapes] == [s.family for s in lay.shapes]


def test_boundary_cavities_are_dropped():
    # shrink the box so end lattice sites violate the outer clearance
    lay = geometry.make_layout(
        "periodic", {"domain": ((0.0, -0.5), (0.95, 0.5))}, 1 / 8)
    full = geometry.make_layout("periodic", {}, 1 / 8)
    assert lay.n_cavities < full.n_cavities
    assert geometry.validate_layout(lay).passed


def test_3d_periodic_layout():
    lay = geometry.make_layout("periodic", {"dim": 3}, 1 / 4)
    assert lay.dim == 3
    assert lay.n_cavities == 16
    assert geometry.validate_layout(lay).passed
    assert lay.boundary_measures()[0] == pytest.approx(
        4 * math.pi * 0.15**2, rel=1e-5)
