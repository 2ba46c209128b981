import json
import logging
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from perfhom import alpha, cli, fem, geometry, meshing, snorm
from perfhom.errors import MeshingError

from _oracles import (AssembledSlab, band_matrix, csr_band, extension_energy,
                      snorm_dense)


@pytest.fixture(scope="module")
def slab():
    return snorm.build_slab((0.0,), (1.0,), 0.05)


def _const(c):
    return lambda x: np.full(len(x), c)


def test_constant_weight_matches_half_strip_formula():
    fine = snorm.build_slab((0.0,), (1.0,), 0.01)
    val = snorm.s_norm(fine, _const(1.0))
    assert val == pytest.approx(1.0 / math.tanh(0.5), rel=2e-3)


def test_zero_weight_is_exactly_zero(slab):
    val, info = snorm.s_norm(slab, _const(0.0), return_info=True)
    assert val == 0.0
    assert not info["stalled"]


def test_power_iteration_matches_dense_pencil(slab):
    w = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0])
    val = snorm.s_norm(slab, w)
    assert val == pytest.approx(snorm_dense(slab, w), rel=1e-9)


@pytest.mark.parametrize("k", [1, 2, 4])
def test_sign_changing_weights_match_dense_pencil(slab, k):
    # M_w has eigenvalues of both signs; the s-norm is the larger |mu|
    w = lambda x: np.cos(2 * np.pi * k * x[:, 0])
    assert snorm.s_norm(slab, w) == pytest.approx(snorm_dense(slab, w), rel=1e-9)


@pytest.fixture(scope="module", params=[((0.0,), (1.0,), 0.05),
                                        ((0.0,), (1.0,), 0.02),
                                        ((0.0, 0.0), (1.0, 1.0), 0.2)],
                ids=["2d-h0.05", "2d-h0.02", "3d-h0.2"])
def any_slab(request):
    return snorm.build_slab(*request.param)


@pytest.mark.parametrize("w", [
    lambda x: np.cos(2 * np.pi * x[:, 0]),
    lambda x: np.sin(6 * np.pi * x[:, 0]) * (1 + 0.3 * x[:, 0]),
], ids=["cos2pix", "sin6pix"])
def test_small_lanczos_basis_matches_dense_pencil(any_slab, w):
    val, info = snorm.s_norm(any_slab, w, return_info=True)
    assert not info["stalled"] and info["iterations"][0] <= 21
    assert val == pytest.approx(snorm_dense(any_slab, w), rel=1e-9)


def test_trace_matrix_shape_and_total(any_slab):
    B = any_slab.trace_matrix(_const(1.0))
    assert B.shape == (any_slab.n_vertices, any_slab.n_trace)
    # 1^T B_1 1 = int_S 1: the unit interface measure
    assert B.sum() == pytest.approx(1.0, rel=1e-12)


def test_trace_matrix_matches_the_mesh_interface(any_slab):
    # the slab's bottom grid layer is its mesh's interface facet set
    w = lambda x: 1.0 + np.cos(2 * np.pi * x[:, 0]) * x[:, -2]
    mesh = any_slab.mesh
    cache = fem.build_facet_cache(mesh, "interface", w)
    assert np.array_equal(any_slab.bottom, np.unique(cache.nodes))
    want = cache.mass((mesh.n_vertices, any_slab.n_trace),
                      columns=np.searchsorted(any_slab.bottom, cache.nodes))
    assert (any_slab.trace_matrix(w) != want).nnz == 0


def test_complex_weight_is_rejected(slab):
    with pytest.raises(ValueError, match="real weight"):
        snorm.s_norm(slab, lambda x: np.full(len(x), 1.0 + 0.5j))


def test_oscillatory_weights_decay(slab):
    vals = [snorm.s_norm(slab, lambda x, k=k: np.cos(2 * np.pi * k * x[:, 0]))
            for k in (1, 2, 4)]
    assert vals[0] > vals[1] > vals[2] > 0


def test_homogeneity_and_triangle(slab):
    w1 = lambda x: np.cos(2 * np.pi * x[:, 0])
    w2 = lambda x: np.exp(-x[:, 0])
    s1 = snorm.s_norm(slab, w1)
    s2 = snorm.s_norm(slab, w2)
    s_scaled = snorm.s_norm(slab, lambda x: 2.5 * w1(x))
    assert s_scaled == pytest.approx(2.5 * s1, rel=1e-6)
    s_sum = snorm.s_norm(slab, lambda x: w1(x) + w2(x))
    assert s_sum <= s1 + s2 + 1e-9


def test_extension_energy_is_minimal(slab):
    rng = np.random.default_rng(9)
    K = fem.h1_gram(slab.mesh)
    for _ in range(20):
        phi = rng.standard_normal(slab.n_trace)
        e_min = extension_energy(slab, phi)
        v = rng.standard_normal(slab.n_vertices)
        v[slab.bottom] = phi
        assert e_min <= np.vdot(v, K @ v).real + 1e-12


def test_constant_extension_and_lift_energies(slab):
    ones = np.ones(slab.n_trace)
    assert extension_energy(slab, ones) == pytest.approx(math.tanh(0.5), rel=5e-3)
    assert slab.lift_energy(_const(1.0), ones) == pytest.approx(
        1.0 / math.tanh(0.5), rel=5e-3)


def test_slab_lu_matches_dense_solve(slab):
    rng = np.random.default_rng(5)
    K = fem.h1_gram(slab.mesh)
    b = rng.standard_normal(slab.n_vertices)
    want = np.linalg.solve(K.toarray(), b)
    assert np.linalg.norm(slab.solve(b) - want) <= 1e-12 * np.linalg.norm(want)
    # the shared sparse LU recipe fills less than SuperLU's COLAMD default
    shared = fem.sparse_lu(K, True)
    default = spla.splu(sp.csc_matrix(K))
    assert shared.L.nnz + shared.U.nnz < default.L.nnz + default.U.nnz
    # the 2D slab is a band of half-width the row count + 1, and its banded
    # Cholesky stores fewer entries than that LU's L + U
    band = slab.factor
    assert isinstance(band, snorm.BandCholesky)
    assert band.factor.shape[0] - 1 == len(slab.mesh.grid["axes"][-1]) + 1
    assert band.factor.size < shared.L.nnz + shared.U.nnz


def test_band_is_factored_in_place():
    # the eps = 1/64 slab of the periodic layout: a (23, 26901) band
    layout = geometry.make_layout("periodic", {}, 1 / 64)
    tracemalloc.start()
    try:
        slab = snorm.slab_for_layout(layout)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    factor = slab.factor.factor
    n = factor.shape[1]
    assert factor.shape == (23, 26901) and factor.flags.f_contiguous
    # the same band read back off the CSR arrays of its matrix and built
    # row-major, which pbtrf copies to column-major first
    K = band_matrix(snorm._gram_2d(*slab.axes))
    band = np.ascontiguousarray(csr_band(K))
    assert np.array_equal(factor, la.cholesky_banded(band, check_finite=False))
    # the band and a few node-sized temporaries: under 31 node vectors; a
    # copy of the band would add 23
    assert peak < factor.nbytes + 8 * 8 * n


@pytest.mark.parametrize("lo, hi, h", [((0.0,), (1.0,), 0.05),
                                        ((0.0, 0.0), (1.0, 1.0), 0.2)],
                         ids=["2d", "3d"])
def test_a_built_slab_keeps_its_factor_and_no_matrix(lo, hi, h):
    slab = snorm.build_slab(lo, hi, h)
    assert not any(sp.issparse(v) for v in vars(slab).values())
    assert set(vars(slab)) == {"axes", "h", "factor", "bottom_facets", "bottom"}


# even and odd column counts put both parities of the cell diagonals at the
# slab's right edge; h 1/16 makes the rows uniform (the cap tau0/16)
_ORACLE_SLABS = [((0.0,), (1.0,), 1 / 16), ((0.0,), (17 / 16,), 1 / 16),
                 ((0.0,), (1.0,), 0.02), ((0.25,), (1.27,), 0.02)]
_ORACLE_IDS = ["uniform-even", "uniform-odd", "graded-even", "graded-odd"]


@pytest.mark.parametrize("lo, hi, h", _ORACLE_SLABS, ids=_ORACLE_IDS)
def test_stencil_gram_matches_the_assembled_gram(lo, hi, h):
    slab, ref = snorm.build_slab(lo, hi, h), AssembledSlab(lo, hi, h)
    assert len(slab.axes[0]) - 1 == round((hi[0] - lo[0]) / h)
    band, G = snorm._gram_2d(*slab.axes), csr_band(ref.matrix)
    assert band.shape == G.shape and band.flags.f_contiguous
    assert np.abs(band - G).max() <= 1e-14 * np.abs(G).max()
    assert np.array_equal(slab.bottom, ref.bottom) and slab.n_trace == ref.n_trace
    w = lambda x: np.cos(2 * np.pi * x[:, 0]) + x[:, 0]
    assert (slab.trace_matrix(w) != ref.trace_matrix(w)).nnz == 0


@pytest.mark.parametrize("w", [_const(1.0), lambda x: np.cos(3 * np.pi * x[:, 0])],
                         ids=["constant", "sign-changing"])
@pytest.mark.parametrize("lo, hi, h", _ORACLE_SLABS[::3], ids=_ORACLE_IDS[::3])
def test_stencil_slab_s_norm_matches_the_assembled_slab(lo, hi, h, w):
    got = snorm.s_norm(snorm.build_slab(lo, hi, h), w)
    assert got == pytest.approx(snorm.s_norm(AssembledSlab(lo, hi, h), w), rel=1e-10)


def test_2d_kappa_needs_no_mesh_or_assembly(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the 2D certificate path built a mesh or assembled")

    monkeypatch.setattr(fem, "assemble", refuse)
    monkeypatch.setattr(meshing, "_grid_mesh", refuse)
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    slab_l = snorm.slab_for_layout(lay)
    val, info = snorm.kappa(slab_l, alpha.surface_density(lay), return_info=True)
    assert val > 0 and not info["stalled"]


@pytest.mark.parametrize("args, name", [
    (((0.0,), (1.0,), 0.0), "h_bottom"),
    (((0.0,), (1.0,), -0.05), "h_bottom"),
    (((0.0,), (1.0,), math.nan), "h_bottom"),
    (((0.0,), (1.0,), 0.05, -1.0), "tau0"),
    (((0.0,), (1.0,), 0.05, 0.0), "tau0"),
    (((0.0,), (1.0,), 0.05, math.inf), "tau0"),
    (((0.5,), (0.5,), 0.05), "tangential"),
    (((1.0,), (0.0,), 0.05), "tangential"),
    (((0.0, 0.0), (1.0, math.inf), 0.2), "tangential"),
    (((math.nan,), (1.0,), 0.05), "tangential"),
    (((0.0,), (1.0, 1.0), 0.05), "tangential"),
], ids=["h-zero", "h-negative", "h-nan", "tau0-negative", "tau0-zero",
        "tau0-inf", "extent-empty", "extent-reversed", "extent-infinite",
        "extent-nan", "extent-mismatched"])
def test_build_slab_rejects_sizes_outside_their_domain(args, name):
    with pytest.raises(ValueError, match=name):
        snorm.build_slab(*args)


def test_slab_axes_must_increase_strictly():
    # a one-ulp extent cut into 22 cells repeats its grid values
    with pytest.raises(MeshingError, match="strictly increasing"):
        snorm.build_slab((1.0,), (np.nextafter(1.0, 2.0),), 1e-17)


def test_3d_slab_keeps_the_sparse_lu(monkeypatch):
    seen, real = [], spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **kw: seen.append(
        (kw["relax"], kw["panel_size"])) or real(*a, **kw))
    slab3 = snorm.build_slab((0.0, 0.0), (1.0, 1.0), 0.2)
    assert slab3.n_vertices == 324
    assert not isinstance(slab3.factor, snorm.BandCholesky)
    w = lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
    assert snorm.s_norm(slab3, w) == pytest.approx(snorm_dense(slab3, w), rel=1e-9)
    # one LU, built with the slab, blocked as SuperLU's defaults have it: a
    # 3D slab's separators are wide
    assert seen == [(None, None)]


@pytest.mark.parametrize("lo, hi, h", [((0.25,), (1.25,), 0.05),
                                        ((0.25, -0.5), (1.25, 0.5), 0.2)])
def test_slab_built_in_place_matches_the_unshifted_slab(lo, hi, h):
    def weight(x):
        return 1.0 + 0.5 * np.cos(2 * np.pi * x[:, 0]) * np.cos(np.pi * x[:, -2])

    shift = np.r_[lo, 0.0]
    moved = snorm.build_slab(lo, hi, h)
    base = snorm.build_slab(np.zeros(len(lo)), np.subtract(hi, lo), h)
    np.testing.assert_allclose(moved.mesh.vertices, base.mesh.vertices + shift,
                               rtol=0, atol=1e-15)
    assert snorm.s_norm(moved, lambda x: weight(x - shift)) == pytest.approx(
        snorm.s_norm(base, weight), rel=1e-12)


def test_lift_energy_identity(slab):
    w = lambda x: 1.0 + np.sin(2 * np.pi * x[:, 0])
    phi = np.cos(np.pi * slab.mesh.vertices[slab.bottom, 0])
    U = slab.lift(w, phi)
    direct = np.vdot(U, fem.h1_gram(slab.mesh) @ U).real
    assert abs(direct - slab.lift_energy(w, phi)) <= 1e-8 * direct


def test_weighted_pairing_bounded_by_snorm(slab):
    w = lambda x: np.cos(2 * np.pi * x[:, 0])
    s = snorm.s_norm(slab, w)
    B = slab.trace_matrix(w)
    K = fem.h1_gram(slab.mesh)
    rng = np.random.default_rng(12)
    for _ in range(20):
        phi = rng.standard_normal(slab.n_trace)
        v = rng.standard_normal(slab.n_vertices)
        lhs = abs(np.vdot(v, B @ phi))
        rhs = s * math.sqrt(extension_energy(slab, phi)) * math.sqrt(
            np.vdot(v, K @ v).real)
        assert lhs <= rhs * (1 + 1e-9)


def test_kappa_zero_for_exactly_homogenized_density(slab):
    class Flat:
        def tangential(self, xp):
            return np.full(len(xp), 0.7)

        def mean(self):
            return 0.7

    assert snorm.kappa(slab, Flat()) == 0.0
    assert snorm.kappa(slab, Flat(), alpha0=0.7) == 0.0


def test_kappa_decreases_with_eps():
    vals = []
    for eps in (1 / 8, 1 / 16):
        lay = geometry.make_layout("periodic", {}, eps)
        slab_l = snorm.slab_for_layout(lay)
        vals.append(snorm.kappa(slab_l, alpha.surface_density(lay)))
    assert vals[1] < vals[0]


def test_stall_flag_and_warning(slab, caplog, monkeypatch):
    w = lambda x: 1.0 + np.cos(2 * np.pi * x[:, 0])
    monkeypatch.setattr(snorm, "LANCZOS_MAX_ITER", 1)
    with caplog.at_level(logging.WARNING, logger="perfhom.snorm"):
        val, info = snorm.s_norm(slab, w, seed=0, return_info=True)
    assert info["stalled"]
    assert any("stalled" in r.message for r in caplog.records)
    # one solve lifts the trace start vector q0 to y = K^-1 E_b q0; the bound
    # is the pencil's Rayleigh quotient of y, below the converged s-norm
    assert info["iterations"] == [1]
    q0 = np.random.default_rng(0).standard_normal(slab.n_trace)
    rhs = np.zeros(slab.n_vertices)
    rhs[slab.bottom] = q0
    y = slab.solve(rhs)
    B = slab.trace_matrix(w)
    K = band_matrix(snorm._gram_2d(*slab.axes))
    rayleigh = abs(y @ (B @ y[slab.bottom])) / (y @ (K @ y))
    assert val == pytest.approx(rayleigh, rel=1e-12)
    monkeypatch.undo()
    assert 0 < val < snorm.s_norm(slab, w)


def test_kappa_table_csv(tmp_path, capsys):
    rows = snorm.kappa_table(
        (1 / 8, 1 / 16),
        lambda eps: geometry.make_layout("periodic", {}, eps))
    assert len(rows) == 2
    assert {"eps", "kappa", "n_cavities", "trace_dofs", "stalled",
            "solves"} <= rows[0].keys()
    # the snorm subcommand writes the table as kappa.csv
    cfg = tmp_path / "snorm.json"
    cfg.write_text(json.dumps({"eps_list": [1 / 8, 1 / 16]}))
    assert cli.main(["snorm", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    lines = (tmp_path / "kappa.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,kappa"
    got = [tuple(float(t) for t in ln.split(",")) for ln in lines[1:]]
    assert got == [(r["eps"], r["kappa"]) for r in rows]


@pytest.fixture(scope="module")
def periodic_eighth():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    dens = alpha.surface_density(lay)
    weight = lambda x: dens.tangential(x[:, :-1]) - dens.mean()
    return snorm.slab_for_layout(lay), dens, weight


def test_kappa_matches_dense_pencil(periodic_eighth):
    slab_l, dens, weight = periodic_eighth
    assert snorm.kappa(slab_l, dens) == pytest.approx(
        snorm_dense(slab_l, weight), rel=1e-9)


def test_stalled_value_is_a_lower_bound(periodic_eighth, monkeypatch):
    slab_l, dens, weight = periodic_eighth
    monkeypatch.setattr(snorm, "LANCZOS_MAX_ITER", 1)
    val, info = snorm.kappa(slab_l, dens, return_info=True)
    assert info["stalled"] and info["iterations"] == [1]
    assert 0 < val <= snorm_dense(slab_l, weight)


def _capped_kappas(monkeypatch, slab, density, caps):
    """kappa of density on slab at each Lanczos solve cap of caps."""
    vals = []
    for cap in caps:
        monkeypatch.setattr(snorm, "LANCZOS_MAX_ITER", cap)
        vals.append(snorm.kappa(slab, density))
    return vals


def test_stalled_value_grows_with_the_vectors_seen(periodic_eighth, monkeypatch):
    slab_l, dens, weight = periodic_eighth
    vals = _capped_kappas(monkeypatch, slab_l, dens, (1, 5))
    assert 0 < vals[0] < vals[1] <= snorm_dense(slab_l, weight)


def _solves_and_steps(lay):
    """The slab solves that a kappa of the layout makes, and its step count."""
    slab_l = snorm.slab_for_layout(lay)
    solve, calls = slab_l.solve, []

    def spy(rhs):
        calls.append(1)
        return solve(rhs)

    slab_l.solve = spy
    _, info = snorm.kappa(slab_l, alpha.surface_density(lay), return_info=True)
    assert not info["stalled"]
    return len(calls), info["iterations"][0]


def test_one_slab_solve_per_step_and_no_interior_lu(monkeypatch):
    # the 2D slab is factored as a band, never by the sparse LU
    monkeypatch.setattr(fem, "sparse_lu", None)
    calls, steps = _solves_and_steps(geometry.make_layout("periodic", {}, 1 / 8))
    assert 0 < calls == steps


def test_one_slab_solve_per_step_in_3d():
    lay = geometry.make_layout("periodic", {"dim": 3}, 1 / 4)
    calls, steps = _solves_and_steps(lay)
    assert 0 < calls == steps


def test_lanczos_step_count(periodic_eighth):
    # power iteration with restarts took 155 applications of A here
    slab_l, dens, _ = periodic_eighth
    _, info = snorm.kappa(slab_l, dens, return_info=True)
    assert not info["stalled"]
    assert sum(info["iterations"]) <= 40


def test_capped_kappa_is_a_tight_lower_bound(periodic_eighth, monkeypatch):
    # kappa is 0.276926 after 15 solves; 5 solves hold its Ritz value to 1%
    slab_l, dens, weight = periodic_eighth
    exact = snorm_dense(slab_l, weight)
    assert exact == pytest.approx(0.276926, abs=1e-6)
    monkeypatch.setattr(snorm, "LANCZOS_MAX_ITER", 5)
    val, info = snorm.kappa(slab_l, dens, return_info=True)
    assert info["stalled"] and info["iterations"] == [5]
    assert 0.99 * exact < val <= exact


def test_capped_kappa_never_decreases_with_the_cap(periodic_eighth, monkeypatch):
    # Ritz values interlace: the largest |theta| of a longer run is no smaller
    slab_l, dens, weight = periodic_eighth
    vals = _capped_kappas(monkeypatch, slab_l, dens, range(1, 9))
    assert all(a <= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= snorm_dense(slab_l, weight) * (1 + 1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_s_norm_rejects_a_weight_that_is_not_finite(slab, bad):
    w = lambda x: np.where(x[:, 0] < 0.5, 1.0, bad)
    with pytest.raises(ValueError, match="weight"):
        snorm.s_norm(slab, w)


def test_kappa_rows_record_their_solve_count():
    lay = geometry.make_layout("periodic", {}, 1 / 8)
    (row,) = snorm.kappa_table((1 / 8,), lambda eps: lay)
    _, info = snorm.kappa(snorm.slab_for_layout(lay), alpha.surface_density(lay),
                          return_info=True)
    assert row["solves"] == info["iterations"][0] > 0
