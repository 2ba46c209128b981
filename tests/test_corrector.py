import json
import math
import tracemalloc

import numpy as np
import pytest

from perfhom import alpha, cli, corrector, geometry
from perfhom.errors import NonzeroMeanError

from _oracles import fit_slope, sup_boundary_dense


def _single_mode(n=256):
    xs = np.arange(n) / n
    return corrector.BetaField(np.cos(2 * np.pi * xs), (1.0,), 0.0, 0.0)


def test_single_mode_closed_form():
    corr = corrector.fourier_corrector(_single_mode(), modes=8)
    t = np.array([[0.13], [0.48], [0.9]])
    h = np.array([0.0, 0.21, 0.5])
    # beta = cos(2 pi xi) lifts to (1/2pi) cos(2 pi xi) e^(-2 pi xi_n)
    want = np.cos(2 * np.pi * t[:, 0]) * np.exp(-2 * np.pi * h) / (2 * np.pi)
    assert np.abs(corr.evaluate(t, h) - want).max() < 1e-14
    assert np.abs(corr.normal_flux(t, 0.0) - np.cos(2 * np.pi * t[:, 0])).max() < 1e-14
    assert corr.sup_boundary() == pytest.approx(1 / (2 * np.pi), rel=1e-12)
    # one mode leaves nothing but rounding to discard
    assert corr.tail < 1e-15


def test_corrector_is_harmonic():
    corr = corrector.fourier_corrector(_single_mode(), modes=8)
    h = 1e-3
    for xi, hn in ((0.3, 0.3), (0.7, 0.15)):
        p = np.array([[xi]])
        lap = (
            corr.evaluate(p + h, hn) + corr.evaluate(p - h, hn)
            - 2 * corr.evaluate(p, hn)
        ) / h**2 + (
            corr.evaluate(p, hn + h) + corr.evaluate(p, hn - h)
            - 2 * corr.evaluate(p, hn)
        ) / h**2
        assert abs(lap[0]) < 1e-4


def test_height_decay_bounded_by_slowest_mode():
    corr = corrector.fourier_corrector(_single_mode(), modes=8)
    g1 = np.abs(corr.gamma).sum()
    t = np.linspace(0, 1, 33)[:, None]
    for hn in (0.1, 0.5, 1.0):
        bound = g1 * math.exp(-2 * np.pi * hn)
        assert np.abs(corr.evaluate(t, hn)).max() <= bound * (1 + 1e-12)
    assert corr.flux_at_height(0.5) < corr.flux_at_height(0.1)


def test_zero_beta_gives_zero_budget():
    beta = corrector.BetaField(np.zeros(128), (1.0,), 0.3, 0.0)
    corr = corrector.fourier_corrector(beta, modes=16)
    rows, _ = corrector.mu_table([1 / 8, 1 / 16], beta, modes=16)
    assert np.all(corr.gamma == 0.0)
    assert all(r["mu"] == 0.0 for r in rows)


def test_cell_beta_center_peak_and_exact_mean():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    b = corrector.cell_beta_from_layout(lay, n=256)
    assert b.cell == (1.0,)
    assert abs(b.values.mean()) < 1e-15
    assert b.alpha0 == pytest.approx(0.9424777960769379, rel=1e-12)
    assert abs(b.raw_mean) < 1e-8
    # grid point 128 sits on the bump center
    assert b.values[128] + b.alpha0 == pytest.approx(3.904538670489304, rel=1e-8)


def test_cell_beta_coarse_grid_rejected():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    with pytest.raises(NonzeroMeanError):
        corrector.cell_beta_from_layout(lay, n=64)


def _lattice_3d(eta):
    return geometry.make_layout("periodic", {"dim": 3}, 1 / 4, eta_rule=eta)


def test_cell_mean_check_is_relative_to_alpha0():
    # the 3D cell's sampled mean is off by -5.04e-8 of alpha0 at n = 128
    # whatever eta scales the bump by, so the grid gets one verdict
    layouts = [_lattice_3d(eta) for eta in (1.0, 0.5, 0.1)]
    betas = [corrector.cell_beta_from_layout(lay, n=128) for lay in layouts]
    rel = [b.raw_mean / b.alpha0 for b in betas]
    assert max(rel) == pytest.approx(min(rel), rel=1e-6)
    assert max(rel) == pytest.approx(-5.04e-8, rel=1e-2)
    for lay in layouts:
        with pytest.raises(NonzeroMeanError):
            corrector.cell_beta_from_layout(lay, n=64)


def test_cell_of_a_wider_lattice_is_its_own_cavity_over_its_area():
    # periods 1.2 drops a cavity at the wall, so the box average of the
    # density reads low; the cell mean does not
    lay = geometry.make_layout("periodic", {"periods": [1.2]}, 1 / 8)
    b = corrector.cell_beta_from_layout(lay, n=256)
    assert b.cell == pytest.approx((1.2,), rel=1e-14)
    assert b.alpha0 == pytest.approx(2 * math.pi * 0.15 / 1.2, rel=1e-12)
    assert abs(b.values.mean()) < 1e-15
    assert abs(b.raw_mean) < 1e-8 * b.alpha0
    assert alpha.alpha0_mean(lay) < 0.95 * b.alpha0


def test_modes_above_nyquist_rejected():
    with pytest.raises(ValueError):
        corrector.fourier_corrector(_single_mode(64), modes=40)


def test_spectral_tail_of_smooth_density_collapses():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    b = corrector.cell_beta_from_layout(lay, n=256)
    t16, t32, t64 = (corrector.fourier_corrector(b, m).tail for m in (16, 32, 64))
    assert t32 < t16 / 10
    assert t64 < t32 / 10


def test_mu_budget_linear_in_eps():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    b = corrector.cell_beta_from_layout(lay, n=256)
    eps = [1 / 8, 1 / 16, 1 / 32, 1 / 64]
    rows, _ = corrector.mu_table(eps, b, modes=64)
    mus = [r["mu"] for r in rows]
    assert abs(fit_slope(eps, mus) - 1.0) < 0.15
    # interior defect vanishes and the far-field flux is negligible
    assert all(r["lap_sup"] == 0.0 for r in rows)
    assert all(r["outer_flux"] < 1e-8 * r["mu"] for r in rows)


def test_gamma_stable_under_grid_refinement():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    c1 = corrector.fourier_corrector(corrector.cell_beta_from_layout(lay, n=256), modes=64)
    c2 = corrector.fourier_corrector(corrector.cell_beta_from_layout(lay, n=512), modes=64)
    assert c1.sup_boundary() == pytest.approx(c2.sup_boundary(), rel=1e-9)


def test_kappa_bound_scaling_and_calibration():
    C = corrector.calibrate(kappa_measured=0.3, mu=0.04)
    assert C == pytest.approx(3.0)
    assert corrector.kappa_bound(0.04, C) == pytest.approx(0.6)
    assert corrector.kappa_bound(4 * 0.04, C) == pytest.approx(1.2)


def test_mu_table_certifies_and_writes_csv(tmp_path, capsys):
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    b = corrector.cell_beta_from_layout(lay, n=256)
    eps = [1 / 8, 1 / 16, 1 / 32]
    base, _ = corrector.mu_table(eps, b, modes=64)
    kappas = [math.sqrt(r["mu"]) for r in base]
    rows, cal = corrector.mu_table(eps, b, modes=64, kappas=kappas)
    assert cal == pytest.approx(2.0)
    assert all(r["certified"] for r in rows)
    # the corrector subcommand writes the same table, calibrated on kappa(eps)
    cfg = tmp_path / "cal.json"
    cfg.write_text(json.dumps({"eps_list": eps, "calibrate": True}))
    assert cli.main(["corrector", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "mu.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,psi_sup,lap_sup,outer_flux,s_mismatch,mu,kappa"
    assert len(lines) == 4
    vals = [float(t) for t in lines[1].split(",")]
    assert vals[:6] == [base[0][c] for c in ("eps", "psi_sup", "lap_sup",
                                            "outer_flux", "s_mismatch", "mu")]


def test_mu_table_computes_the_eps_independent_terms_once(monkeypatch):
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    b = corrector.cell_beta_from_layout(lay, n=256)
    eps = [1 / 8, 1 / 16, 1 / 32]
    corr = corrector.fourier_corrector(b, modes=64)
    sup = corr.sup_boundary()
    want = [{"eps": e, "psi_sup": e * sup, "lap_sup": 0.0,
             "outer_flux": corr.flux_at_height(1 / (2 * e)),
             "s_mismatch": corr.tail,
             "mu": e * sup + corr.flux_at_height(1 / (2 * e)) + corr.tail}
            for e in eps]
    calls = []

    def spy(name, fn):
        def counted(*args, **kw):
            calls.append(name)
            return fn(*args, **kw)
        return counted

    monkeypatch.setattr(corrector.Corrector, "sup_boundary",
                        spy("sup", corrector.Corrector.sup_boundary))
    monkeypatch.setattr(np.fft, "fftn", spy("fftn", np.fft.fftn))
    rows, _ = corrector.mu_table(eps, b, modes=64)
    # one FFT gives gamma and the tail, one sup serves every eps
    assert sorted(calls) == ["fftn", "sup"]
    assert rows == want


def test_two_tangential_dimensions():
    b = corrector.cell_beta_from_layout(_lattice_3d(0.5), n=128)
    assert b.tdim == 2 and b.cell == (1.0, 1.0)
    corr = corrector.fourier_corrector(b, modes=16)
    g = np.meshgrid(np.arange(128) / 128, np.arange(128) / 128, indexing="ij")
    pts = np.column_stack([g[0].ravel(), g[1].ravel()])
    flux = corr.normal_flux(pts, 0.0).reshape(128, 128)
    scale = np.abs(b.values).max()
    assert np.abs(flux - b.values).max() < 0.05 * scale


def _cell_corrector(dim, modes):
    lay = geometry.make_layout("periodic", {"dim": dim}, 1 / 8)
    return corrector.fourier_corrector(
        corrector.cell_beta_from_layout(lay, n=256), modes=modes)


@pytest.mark.parametrize("dim, modes", [(2, 8), (2, 64), (3, 16)])
def test_sup_boundary_matches_the_dense_sum(dim, modes):
    corr = _cell_corrector(dim, modes)
    assert corr.sup_boundary() == pytest.approx(sup_boundary_dense(corr),
                                                rel=1e-13)


@pytest.mark.parametrize("samples", [64, 16])
def test_sup_boundary_aliases_modes_past_the_sample_grid(samples):
    # 64 sample points of a 1D cell (4 x 4 of a 2D cell) carry no mode past
    # 32 (2); the kept modes above that fold onto the grid
    dim, modes = (2, 64) if samples == 64 else (3, 16)
    corr = _cell_corrector(dim, modes)
    assert corr.sup_boundary(samples) == pytest.approx(
        sup_boundary_dense(corr, samples), rel=1e-13)


@pytest.mark.parametrize("modes", [16, 32])
def test_sup_boundary_on_a_2d_cell_holds_no_dense_mode_array(modes):
    # one 64 x 64 complex spectrum and its inverse FFT (64 kB each); a dense
    # sum over the 4096 points and 1088 (modes 16) or 4224 (modes 32) modes
    # peaked at 179 and 692 MB
    corr = _cell_corrector(3, modes)
    tracemalloc.start()
    try:
        corr.sup_boundary()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
