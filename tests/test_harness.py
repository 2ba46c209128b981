import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from perfhom import harness


def test_predicted_bound_examples():
    # T1a at eps = 1/16, eta = 1, n = 2: eps*eta + sqrt(eps)*eta = 0.3125
    assert harness.predicted_bound("T1a", 1 / 16, 1.0, 2) == pytest.approx(0.3125)
    # T2 with kappa = sqrt(eps) collapses to 2 sqrt(eps)
    assert harness.predicted_bound("T2", 1 / 4, 1.0, 2, kappa=0.5) == pytest.approx(1.0)
    # with f vanishing near S the cavity-band term of T4 drops out
    b = harness.predicted_bound("T4", 1 / 8, 1.0, 2, kappa=0.1, f_norms=(1.0, 0.0))
    assert b == pytest.approx(1 / 8 + 0.1)
    b2 = harness.predicted_bound("T3a", 1 / 8, 1.0, 2, f_norms=(1.0, 1.0))
    assert b2 == pytest.approx((1 / 64 + 1 / 8) + (1 / 8 + math.sqrt(1 / 8)))


def test_predicted_bound_rejects_missing_pieces():
    with pytest.raises(ValueError):
        harness.predicted_bound("T2", 1 / 8, 1.0, 2)
    with pytest.raises(ValueError):
        harness.predicted_bound("T3a", 1 / 8, 1.0, 2)
    with pytest.raises(ValueError):
        harness.predicted_bound("T9", 1 / 8, 1.0, 2)


def test_fit_rate_recovers_slopes():
    eps = [1 / 4, 1 / 8, 1 / 16, 1 / 32]
    slope, intercept, stderr = harness.fit_rate([(e, 3.0 * e) for e in eps])
    assert slope == pytest.approx(1.0, abs=1e-12)
    assert math.exp(intercept) == pytest.approx(3.0, rel=1e-12)
    assert stderr == pytest.approx(0.0, abs=1e-12)
    slope2, _, _ = harness.fit_rate([(e, e * e) for e in eps])
    assert slope2 == pytest.approx(2.0, abs=1e-12)

    rng = np.random.default_rng(6)
    noisy = [(e, math.sqrt(e) * math.exp(rng.normal(0, 0.05))) for e in eps]
    slope_n, _, stderr_n = harness.fit_rate(noisy)
    assert abs(slope_n - 0.5) < 0.1
    assert stderr_n > 0


def test_fit_rate_input_validation():
    with pytest.raises(ValueError):
        harness.fit_rate([(1 / 4, 1.0), (1 / 8, 0.5)])
    with pytest.raises(ValueError):
        harness.fit_rate([(1 / 4, 1.0), (1 / 8, 0.5), (1 / 16, 0.0)])


def test_config_validation_rules():
    with pytest.raises(ValueError):
        harness.StudyConfig(theorem="T1a", nbc_kind="linear", nbc_sigma=1.0)
    with pytest.raises(ValueError):
        harness.StudyConfig(theorem="T3b", eta_rule=1.0)
    harness.StudyConfig(theorem="T3b", eta_rule=("power", 0.5))
    with pytest.raises(ValueError):
        harness.StudyConfig(theorem="T2", eps_list=(1 / 16, 1 / 8))
    with pytest.raises(ValueError):
        harness.StudyConfig(theorem="T2", rhs_names=("trig", "gauss"))
    with pytest.raises(ValueError):
        harness.StudyConfig(theorem="nope")


def test_config_dict_roundtrip():
    cfg = harness.StudyConfig(
        theorem="T1a", eta_rule=("power", 0.5), eps_list=(1 / 8, 1 / 12, 1 / 16),
        drift=np.array([0.1, 0.0]), h_factor=0.5)
    doc = cfg.to_dict()
    assert doc["eta_rule"] == ["power", 0.5]
    assert doc["drift"] == [0.1, 0.0]
    back = harness.StudyConfig.from_dict(doc)
    assert back.to_dict() == doc


@pytest.mark.parametrize("key, value", [
    ("eps_lst", [0.125]), ("eps_list", 0.125), ("eps_list", ["a"]),
    ("eta_rule", ["power"]), ("eta_rule", ["linear", 0.5]), ("eta_rule", "x"),
    ("dim", "two"),
    ("rhs_names", ["trig", "gauss", "nope"]),
    ("matrix", "bogus"), ("matrix", [1.0, 0.0]), ("matrix", 1.0),
    ("drift", "x"), ("drift", [0.1, 0.0, 0.0]),
    ("reaction", "r"), ("reaction", [1.0, 2.0]), ("reaction", None),
    ("nbc_sigma", "s"), ("nbc_sigma", [1.0]), ("nbc_kind", "cubic"),
    ("lam", "x"), ("lam", 0.0),
    ("layout_params", {"dim": 3}), ("layout_params", "s0"),
    ("u0_refine_cap", -1), ("u0_refine_cap", "2"),
    ("c0", 0.0), ("c0", -1.0), ("c0", "x"),
    ("eta_rule", 1.5), ("eta_rule", ["power", -0.5]), ("layout_kind", "bogus"),
    ("h_factor", 0.0), ("refine_floor", -1.0), ("guard_tol", "x"),
    ("seed", "3"), ("vanish_near_s", 1),
    # a repeat would solve one right-hand side twice and keep one entry
    ("rhs_names", ["trig", "trig", "trig"]),
    # a lam at the threshold lam0_hat = -0.25 of the identity config
    ("lam", -0.25),
    # the guard's tolerance and the near-cavity refinement are the protocol's
    ("guard_tol", 0.1), ("refine_floor", 4.0),
])
def test_config_errors_name_the_key(key, value):
    with pytest.raises(harness.ConfigError, match=key):
        harness.StudyConfig.from_dict({"theorem": "T1a", key: value})


@pytest.mark.parametrize("theorem", ["T1a", "T2"])
def test_misspelled_layout_param_is_refused_before_any_mesh(theorem, monkeypatch):
    from perfhom import meshing, snorm
    built = []
    monkeypatch.setattr(meshing, "mesh_perforated", lambda *a, **k: built.append(a))
    monkeypatch.setattr(snorm, "build_slab", lambda *a, **k: built.append(a))
    config = harness.StudyConfig(theorem=theorem, eps_list=(0.25, 0.125),
                                 layout_params={"preiods": [1.0]})
    with pytest.raises(harness.ConfigError, match="'preiods'"):
        harness.run_study(config)
    assert not built


_THIN = {"domain": [[0.0, -0.1], [1.0, 0.1]]}


@pytest.mark.parametrize("theorem, h_factor, layout_params, ok", [
    ("T1a", 20.0, {}, False),
    ("T2", 20.0, {}, False),
    # h0 = 0.625 leaves one interior grid line on each unit axis, h0 = 0.75
    # none
    ("T1a", 5.0, {}, True),
    ("T1a", 6.0, {}, False),
    # the thin box's normal axis has no interior line at h0 = 0.625, but a
    # delta limit's u0 grid splits it at s0
    ("T1a", 5.0, _THIN, False),
    ("T2", 5.0, _THIN, True),
])
def test_first_u0_grid_needs_an_interior_node(theorem, h_factor, layout_params, ok):
    doc = {"theorem": theorem, "eps_list": [0.25, 0.125], "h_factor": h_factor,
           "layout_params": layout_params}
    if ok:
        assert harness.StudyConfig.from_dict(doc).h_factor == h_factor
    else:
        with pytest.raises(harness.ConfigError, match="h_factor"):
            harness.StudyConfig.from_dict(doc)


@pytest.mark.parametrize("kind, sigma", [("saturating", 8.0),
                                         ("saturating", 100.0),
                                         ("linear", 100.0),
                                         ("saturating", 1e3),
                                         ("saturating", 1e4),
                                         ("saturating", 1e5),
                                         ("saturating", 1e6),
                                         ("linear", 1e6)])
def test_stiff_monotone_studies_complete(kind, sigma):
    # the chord sweeps on K + J_b(0) converge at any sigma; a linear term is
    # one solve
    rep = harness.run_study(harness.StudyConfig(
        theorem="T2", nbc_kind=kind, nbc_sigma=sigma, eps_list=(1 / 4, 1 / 8)))
    assert [r["eps"] for r in rep.rows] == [1 / 4, 1 / 8]
    for r in rep.rows:
        assert r["solver"]["method"] == ("picard" if kind == "saturating" else "linear")
        assert r["solver"]["residual"] <= 1e-9


def test_criterion_3_rows_take_a_few_chord_sweeps_per_solve(monkeypatch):
    # criterion 3's config: every solve is a handful of chord sweeps on the
    # system's one LU
    from perfhom import solvers

    infos, original = [], solvers.solve_assembled

    def spy(*args, **kwargs):
        u, info = original(*args, **kwargs)
        infos.append(info)
        return u, info

    monkeypatch.setattr(solvers, "solve_assembled", spy)
    rep = harness.run_study(harness.StudyConfig(
        theorem="T2", nbc_kind="saturating", nbc_sigma=2.0, eta_rule=1.0,
        h_factor=0.75, eps_list=(1 / 8, 1 / 16)))
    assert all(r["solver"]["method"] == "picard" for r in rep.rows)
    assert infos and all(1 <= i["picard_iters"] <= 8 for i in infos)


@pytest.mark.parametrize("shapes", [
    5, [{"family": "ball"}], [{"family": "ball", "params": {"radius": 0.1}}] * 2,
])
def test_explicit_layout_shapes_errors_name_the_key(shapes):
    cfg = harness.StudyConfig(theorem="T1a", layout_kind="explicit",
                              layout_params={"centers": [[0.5, 0.0]],
                                             "shapes": shapes})
    with pytest.raises(harness.ConfigError, match="'shapes'"):
        cfg.layout(1 / 8)


def test_readme_study_table_lists_every_config_field():
    # the rows of the README's "Study config" table, up to the next heading
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Study config", 1)[1].split("\n#", 1)[0]
    keys = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    assert keys == [f.name for f in fields(harness.StudyConfig)]


def test_mesh_and_guard_numbers_become_floats():
    # the study's arithmetic on h_factor, which sizes the guard's two
    # meshes, and on c0 needs numbers
    cfg = harness.StudyConfig(theorem="T1a", h_factor="0.5", c0=1)
    assert cfg.h_factor == 0.5 and type(cfg.c0) is float


def test_coefficient_configs_keep_plain_data():
    cfg = harness.StudyConfig(theorem="T1a", matrix=[[2.0, 0.0], [0.0, 1.0]],
                              drift=[0.1, 0.0], reaction=1, lam=-3.0)
    assert cfg.matrix.shape == (2, 2) and cfg.drift.shape == (2,)
    assert cfg.reaction == 1 and cfg.lam == -3.0
    back = harness.StudyConfig.from_dict(cfg.to_dict())
    assert back.to_dict() == cfg.to_dict()


_CALLABLES = {
    "matrix": lambda x: np.broadcast_to(np.eye(2), (len(x), 2, 2)),
    "drift": lambda x: np.ones((len(x), 2)),
    "reaction": lambda x: np.ones(len(x)),
    "nbc_sigma": lambda x: np.ones(len(x)),
    "eta_rule": lambda eps: 0.5,
}


@pytest.mark.parametrize("key, extra", [
    ("drift", {}), ("reaction", {}),
    ("nbc_sigma", {"nbc_kind": "linear"}), ("nbc_sigma", {"nbc_kind": "saturating"}),
    ("matrix", {}), ("eta_rule", {}),
    ("drift", {"drift": [0.1j, 0.0]}), ("reaction", {"reaction": 1.0 + 0.5j}),
    ("nbc_sigma", {"nbc_kind": "linear", "nbc_sigma": 2.0j}),
])
def test_callable_coefficients_needing_a_sup_bound_are_rejected(key, extra):
    # a config holds only what its report can: the key's callable, or the
    # complex value that extra puts in its place, is rejected up front
    with pytest.raises(harness.ConfigError, match=key):
        harness.StudyConfig(theorem="T2", **{key: _CALLABLES[key], **extra})


@pytest.mark.parametrize("kwargs", [
    {"theorem": "T1a"},
    {"theorem": "T1b", "eta_rule": ("power", 0.5), "matrix": np.diag([2.0, 1.5]),
     "drift": 0.25, "reaction": np.float64(-0.5), "lam": -5},
    {"theorem": "T2", "nbc_kind": "saturating", "nbc_sigma": 2, "eta_rule": 0.5,
     "drift": np.array([0.1, -0.2]), "eps_list": [np.float64(1 / 8), 1 / 16],
     "rhs_names": ["poly", "trig", "zero"], "seed": np.int64(3)},
    {"theorem": "T3a", "dim": 3, "matrix": [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
     "layout_params": {"s0": 0.1}, "vanish_near_s": True, "u0_refine_cap": 0},
])
def test_accepted_configs_round_trip_through_the_report(kwargs, tmp_path):
    cfg = harness.StudyConfig(**kwargs)
    doc = cfg.to_dict()
    assert json.loads(json.dumps(doc)) == doc
    assert harness.StudyConfig.from_dict(doc).to_dict() == doc
    report = harness.RateReport(doc, [], {}, None, None, {})
    _, json_path, _ = harness.emit_report(report, tmp_path)
    assert json.load(open(json_path))["config"] == doc


def test_eps_list_may_be_an_array():
    cfg = harness.StudyConfig(theorem="T1a", eps_list=np.array([0.25, 0.125, 0.0625]))
    assert cfg.eps_list == (0.25, 0.125, 0.0625)
    assert all(type(e) is float for e in cfg.eps_list)
    with pytest.raises(harness.ConfigError, match="eps_list"):
        harness.StudyConfig(theorem="T1a", eps_list=np.array([0.25, -0.125]))


def test_layout_params_become_json_data(tmp_path):
    cfg = harness.StudyConfig(theorem="T1a", layout_kind="explicit",
                              layout_params={"centers": np.array([[0.5, 0.0]]),
                                             "R2": np.float64(0.4)})
    assert cfg.layout_params == {"centers": [[0.5, 0.0]], "R2": 0.4}
    doc = cfg.to_dict()
    report = harness.RateReport(doc, [], {}, None, None, {})
    _, json_path, _ = harness.emit_report(report, tmp_path)
    assert json.load(open(json_path))["config"]["layout_params"] == cfg.layout_params


@pytest.mark.parametrize("value", [{"centers": np.array([[0.5j, 0.0]])},
                                   {"mollifier": lambda r: 1.0 - r},
                                   {"shapes": {object()}}],
                         ids=["complex", "callable", "set"])
def test_layout_params_that_are_not_json_data_are_rejected(value):
    with pytest.raises(harness.ConfigError, match="layout_params"):
        harness.StudyConfig(theorem="T1a", layout_params=value)


def test_study_config_owns_dim():
    assert harness.StudyConfig(theorem="T1a", dim=3).layout(0.25).dim == 3
    params = {"dim": 3}
    cfg = harness.StudyConfig(theorem="T1a", dim=3, layout_params=params)
    assert cfg.layout(0.25).dim == 3
    assert cfg.layout_params == {"dim": 3} and params == {"dim": 3}
    assert harness.StudyConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()
    with pytest.raises(harness.ConfigError, match="layout_params"):
        harness.StudyConfig(theorem="T1a", layout_params={"dim": 3})


def test_t2_row_meshes_its_interface_at_the_layout_s0(monkeypatch):
    from perfhom import meshing

    cfg = harness.StudyConfig(theorem="T2", nbc_kind="saturating",
                              nbc_sigma=2.0, layout_params={"s0": 0.2})
    seen = []
    original = meshing.mesh_interface

    def spy(lo, hi, s0, h):
        seen.append(s0)
        return original(lo, hi, s0, h)

    monkeypatch.setattr(meshing, "mesh_interface", spy)
    row = harness._study_row(cfg, 1 / 8, kappa_val=0.3)
    assert seen and all(s0 == 0.2 for s0 in seen)
    assert math.isfinite(row["err_h1"]) and row["err_h1"] > 0


def test_row_on_a_wider_box_has_finite_errors():
    cfg = harness.StudyConfig(theorem="T1a",
                              layout_params={"domain": [[0, -1], [2, 1]]})
    row = harness._study_row(cfg, 1 / 4)
    for key in ("err_l2", "err_h1", "guard_l2", "guard_h1"):
        assert math.isfinite(row[key])
    assert row["err_h1"] > 0


def test_t2_row_assembles_each_mesh_once(monkeypatch):
    from perfhom import fem, meshing

    cfg = harness.StudyConfig(theorem="T2", nbc_kind="saturating",
                              nbc_sigma=2.0)
    sizes, geometries = [], []
    original = fem.assemble
    original_geometry = meshing._p1_geometry

    def spy(mesh, *args, **kwargs):
        sizes.append(mesh.n_vertices)
        return original(mesh, *args, **kwargs)

    def spy_geometry(vertices, simplices):
        geometries.append(len(vertices))
        return original_geometry(vertices, simplices)

    monkeypatch.setattr(fem, "assemble", spy)
    monkeypatch.setattr(meshing, "_p1_geometry", spy_geometry)
    row = harness._study_row(cfg, 1 / 8, kappa_val=0.3)
    assert len(set(sizes)) == len(sizes)
    # two perforated meshes plus one per u0 ladder level
    assert len(sizes) == 2 + row["u0_solves"]
    # one P1 geometry pass per mesh, shared by check, assembly, loads, norms
    assert sorted(geometries) == sorted(sizes)
    solver = row["solver"]
    assert solver["backend"] == "splu" and solver["method"] == "picard"
    # chord sweeps on the LU alone: no Krylov iteration
    assert solver["picard_iters"] > 0
    assert solver["linear_iters"] == 0
    assert 0.0 < solver["residual"] <= 1e-9


def test_converged_u0_ladder_interpolates_its_last_level_once(monkeypatch):
    from perfhom import meshing

    calls = []
    original = meshing.interpolation_matrix

    def spy(mesh, points):
        calls.append((mesh, points))
        return original(mesh, points)

    monkeypatch.setattr(meshing, "interpolation_matrix", spy)
    row = harness._study_row(harness.StudyConfig(theorem="T1a"), 1 / 8)
    assert row["u0_converged"]
    # one transfer per (u0 mesh, point set): each ladder level onto the h
    # mesh, and the final level onto the h/2 mesh; calls keeps every mesh
    # alive, so ids are not reused
    assert len(calls) == row["u0_solves"] + 1
    assert len({(id(m), id(p)) for m, p in calls}) == len(calls)
    h_points = calls[0][1]
    (final,) = [m for m, p in calls if p is not h_points]
    assert sum(m is final and p is h_points for m, p in calls) == 1


def test_u0_ladder_records_its_cap(caplog):
    cfg = harness.StudyConfig(theorem="T1a", u0_refine_cap=0)
    with caplog.at_level("WARNING", logger="perfhom.harness"):
        row = harness._study_row(cfg, 1 / 8)
    assert row["u0_solves"] == 2 and row["u0_converged"] is False
    assert "u0_refine_cap" in caplog.text


def test_standard_rhs_cutoff_vanishes_near_interface():
    fs = dict(harness.standard_rhs(("trig", "poly"), vanish_near_s=True))
    inner = np.array([[0.3, 0.05], [0.7, -0.1]])
    outer = np.array([[0.3, 0.45], [0.7, -0.5]])
    for f in fs.values():
        assert np.all(f(inner) == 0.0)
        assert np.all(f(outer) != 0.0)
    raw = dict(harness.standard_rhs(("trig",)))["trig"]
    assert np.allclose(fs["trig"](outer), raw(outer))


def test_f_norm_cavities_constant():
    from perfhom import geometry

    lay = geometry.make_layout("periodic", {}, 1 / 8)
    hole = lay.n_cavities * math.pi * (0.15 * lay.cavity_scale) ** 2
    val = harness.f_norm_cavities(lay, lambda x: 2.0 * np.ones(len(x)))
    assert val == pytest.approx(2.0 * math.sqrt(hole), rel=1e-6)


@pytest.fixture(scope="module")
def tiny_report():
    cfg = harness.StudyConfig(theorem="T1a", eps_list=(1 / 8, 1 / 12, 1 / 16),
                              h_factor=0.75)
    return harness.run_study(cfg)


def test_run_study_tiny_sweep(tiny_report):
    rep = tiny_report
    assert len(rep.rows) == 3
    assert rep.primary_norm == "h1"
    assert not rep.degenerate
    # constant eta keeps the sqrt(eps) term in charge
    assert abs(rep.slopes["h1"]["slope"] - 0.5) < 0.15
    assert rep.c_fit is not None and rep.dominance_ok
    assert rep.uniformity["ok"]
    assert rep.uniformity["max_spread"] < 3.0
    for r in rep.rows:
        assert r["guard_h1"] < 0.1
        assert r["err_l2"] <= r["err_h1"]
        assert 1 <= r["u0_solves"] <= 4 and isinstance(r["u0_converged"], bool)
        # linear data: every solve is one LU solve, with no iterations
        solver = dict(r["solver"])
        assert 0.0 <= solver.pop("residual") <= 1e-10
        assert solver == {"backend": "splu", "method": "linear",
                          "picard_iters": 0, "linear_iters": 0}
        json.dumps(r["solver"])


def test_parallel_rows_match_serial(tiny_report):
    cfg = harness.StudyConfig(theorem="T1a", eps_list=(1 / 8, 1 / 12, 1 / 16),
                              h_factor=0.75)
    rep2 = harness.run_study(cfg, jobs=2)
    # the serial rows share a u0 level, the workers share nothing
    assert sum(r["u0_shared"] for r in tiny_report.rows) > 0
    assert all(r["u0_shared"] == 0 for r in rep2.rows)
    for a, b in zip(tiny_report.rows, rep2.rows):
        assert a["err_h1"] == b["err_h1"] and a["err_l2"] == b["err_l2"]
        assert _without_sharing(a) == _without_sharing(b)


@pytest.fixture
def pool_sizes(monkeypatch):
    """The max_workers of every pool run_study opens; the pool runs its map
    in this process and each row is a stub, so no process is started."""
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    def row(config, eps, kappa_val=None, u0_cache=None):
        return {"eps": eps, "err_l2": 0.0, "err_h1": 0.0, "accepted_l2": False,
                "accepted_h1": False,
                "per_f": {"trig": {"l2": 0.0, "h1": 0.0, "f_norm": 1.0}}}

    monkeypatch.setattr(harness, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(harness, "_study_row", row)
    return sizes


@pytest.mark.parametrize("jobs, n_eps, workers", [
    (2, 3, [2]), (10 ** 6, 3, [3]), (10 ** 6, 1, []), (1, 3, [])])
def test_jobs_start_at_most_one_worker_per_row(pool_sizes, jobs, n_eps,
                                               workers):
    eps_list = (1 / 8, 1 / 12, 1 / 16)[:n_eps]
    cfg = harness.StudyConfig(theorem="T1a", eps_list=eps_list)
    report = harness.run_study(cfg, jobs=jobs)
    assert [r["eps"] for r in report.rows] == list(eps_list)
    assert pool_sizes == workers


@pytest.mark.parametrize("jobs", [0, -2, 1.5, True, "2"])
def test_jobs_below_one_or_not_an_integer_is_a_config_error(pool_sizes, jobs):
    cfg = harness.StudyConfig(theorem="T1a", eps_list=(1 / 8, 1 / 12))
    with pytest.raises(harness.ConfigError, match="'jobs'"):
        harness.run_study(cfg, jobs=jobs)
    assert pool_sizes == []


def test_zero_data_study_is_degenerate():
    # the errors are those of the first right-hand side
    cfg = harness.StudyConfig(theorem="T1a", rhs_names=("zero", "trig", "gauss"),
                              eps_list=(1 / 8, 1 / 12, 1 / 16), h_factor=0.75)
    rep = harness.run_study(cfg)
    assert rep.degenerate
    assert rep.slopes == {}
    assert rep.uniformity["max_spread"] is None
    assert all(r["err_l2"] == 0.0 and r["err_h1"] == 0.0 for r in rep.rows)
    # a zero increment on a zero error stops the u0 ladder at its second level
    assert all(r["u0_converged"] is True and r["u0_solves"] == 2 for r in rep.rows)


def test_zero_rhs_is_left_out_of_the_spread():
    # a zero right-hand side has no error-to-norm ratio: the spread is that
    # of the other two
    cfg = harness.StudyConfig(theorem="T1a", rhs_names=("trig", "gauss", "zero"),
                              eps_list=(1 / 4, 1 / 8))
    rep = harness.run_study(cfg)
    assert not rep.degenerate
    for r in rep.rows:
        assert r["per_f"]["zero"] == {"l2": 0.0, "h1": 0.0, "f_norm": 0.0}
        ratios = [r["per_f"][n]["h1"] / r["per_f"][n]["f_norm"]
                  for n in ("trig", "gauss")]
        assert rep.uniformity["per_eps"][r["eps"]] == max(ratios) / min(ratios)
    assert rep.uniformity["max_spread"] < 3.0 and rep.uniformity["ok"]


def test_emit_report_csv_rows_match_accepted(tiny_report, tmp_path):
    csv_path, json_path, gp_path = harness.emit_report(tiny_report, tmp_path)
    lines = open(csv_path).read().strip().splitlines()
    assert lines[0] == "eps,eta,err_l2,err_h1,bound,guard_l2,guard_h1"
    assert len(lines) - 1 == len(tiny_report.accepted("h1"))
    loaded = json.load(open(json_path))
    back = harness.RateReport.from_dict(loaded)
    assert back.to_dict() == loaded
    assert back.slopes["h1"]["slope"] == pytest.approx(
        tiny_report.slopes["h1"]["slope"])
    assert "rates.csv" in open(gp_path).read()


def test_emit_report_empty_is_header_only(tmp_path):
    rep = harness.RateReport(
        config={"theorem": "T2"}, rows=[], slopes={}, c_fit=None,
        dominance_ok=None, uniformity={}, degenerate=False)
    csv_path, _, _ = harness.emit_report(rep, tmp_path / "empty")
    lines = open(csv_path).read().strip().splitlines()
    assert len(lines) == 1


_ROW_TRACE = ("n_vertices_h", "n_vertices", "n_vertices_u0", "u0_solves",
              "u0_shared")


def _t2_config(eps_list):
    return harness.StudyConfig(theorem="T2", nbc_kind="saturating",
                               nbc_sigma=2.0, eps_list=eps_list)


def _without_sharing(row):
    return {k: v for k, v in row.items() if k != "u0_shared"}


def _spy_u0_assemblies(monkeypatch, record):
    """Make fem.assemble call record(mesh) for each u0 ladder level it
    assembles, i.e. each system with an interface boundary."""
    from perfhom import fem

    assemble = fem.assemble

    def spy(mesh, *args, boundary=None, **kwargs):
        if boundary is not None and boundary[0] == "interface":
            record(mesh)
        return assemble(mesh, *args, boundary=boundary, **kwargs)

    monkeypatch.setattr(fem, "assemble", spy)


@pytest.fixture(scope="module")
def shared_t2():
    """One T2 sweep run twice through run_study, then row by row without a
    cache, counting the u0 assemblies of each and keeping every ladder
    level's mesh with its node counts."""
    cfg = _t2_config((1 / 8, 1 / 12, 1 / 16))
    assemblies, levels = [], []
    level = harness._u0_level

    def spy_level(*args):
        levels.append(level(*args))
        return levels[-1]

    counts = []
    with pytest.MonkeyPatch.context() as mp:
        _spy_u0_assemblies(mp, lambda mesh: assemblies.append(mesh.n_vertices))
        mp.setattr(harness, "_u0_level", spy_level)
        first = harness.run_study(cfg)
        counts.append(len(assemblies))
        first_levels = list(levels)
        second = harness.run_study(cfg)
        counts.append(len(assemblies) - sum(counts))
        kappa = {r["eps"]: r["kappa"] for r in first.kappa_rows}
        alone = [harness._study_row(cfg, e, kappa[e]) for e in cfg.eps_list]
        counts.append(len(assemblies) - sum(counts))
    return first, second, alone, counts, first_levels


def test_study_rows_equal_their_cache_free_rows(shared_t2):
    first, second, alone, (n_first, n_second, n_alone), _ = shared_t2
    for shared, own in zip(first.rows, alone):
        assert _without_sharing(shared) == _without_sharing(own)
        assert own["u0_shared"] == 0
    # the eps = 1/16 row's first level, h/2 = 3/128, is the 1/8 row's second
    assert (n_first, n_alone) == (5, 6)
    assert sum(r["u0_shared"] for r in first.rows) == n_alone - n_first
    # the cache lives for one call: the second sweep solves as much again
    assert n_second == 5 and second.rows == first.rows


def test_row_trace_records_mesh_sizes_and_shared_levels(shared_t2, tmp_path):
    report = shared_t2[0]
    for row in report.rows:
        assert all(type(row[k]) is int for k in _ROW_TRACE)
        assert row["n_vertices_h"] < row["n_vertices"]
        assert 0 <= row["u0_shared"] <= row["u0_solves"]
    _, json_path, _ = harness.emit_report(report, tmp_path)
    loaded = json.load(open(json_path))
    back = harness.RateReport.from_dict(loaded)
    assert back.to_dict() == loaded
    assert [{k: r[k] for k in _ROW_TRACE} for r in back.rows] == \
        [{k: r[k] for k in _ROW_TRACE} for r in report.rows]


def test_summary_kappa_rows_record_their_solve_count(shared_t2, tmp_path):
    report = shared_t2[0]
    _, json_path, _ = harness.emit_report(report, tmp_path)
    rows = json.load(open(json_path))["kappa_rows"]
    assert [r["eps"] for r in rows] == list(report.config["eps_list"])
    assert all(type(r["solves"]) is int and r["solves"] > 0 for r in rows)


def test_shared_levels_rebuild_the_producing_mesh(shared_t2):
    by_counts = {}
    for mesh, counts in shared_t2[4]:
        by_counts.setdefault(counts, []).append(mesh)
    shared = [meshes for meshes in by_counts.values() if len(meshes) > 1]
    assert shared
    for first, *rest in shared:
        for mesh in rest:
            assert np.array_equal(mesh.vertices, first.vertices)
            assert np.array_equal(mesh.simplices, first.simplices)


def test_u0_key_separates_exactly_the_distinct_grids():
    from perfhom import geometry

    # node counts fall with h0, so two sizes share a key only on one grid
    layout = geometry.make_layout("periodic", {"s0": 0.2}, 1 / 8)
    for kind in ("plain", "delta"):
        keys, grids = set(), set()
        for h0 in np.linspace(0.03, 0.2, 60):
            mesh, counts = harness._u0_level(layout, kind, h0)
            keys.add(counts)
            grids.add((mesh.vertices.tobytes(), mesh.simplices.tobytes(),
                       mesh.facets.tobytes(), mesh.facet_tags.tobytes()))
        assert len(keys) == len(grids) < 60


def test_perforated_systems_are_freed_before_the_u0_ladder(monkeypatch):
    import weakref

    from perfhom import fem

    refs, alive_at_ladder = [], []
    assemble = fem.assemble

    def spy_assemble(*args, **kwargs):
        system = assemble(*args, **kwargs)
        refs.append(weakref.ref(system))
        return system

    def at_u0_assembly(mesh):
        if not alive_at_ladder:
            alive_at_ladder.append([r() is not None for r in refs])

    monkeypatch.setattr(fem, "assemble", spy_assemble)
    _spy_u0_assemblies(monkeypatch, at_u0_assembly)
    harness._study_row(_t2_config((1 / 8,)), 1 / 8, kappa_val=0.3)
    # the h and h/2 systems, both gone when the first u0 level is assembled
    assert alive_at_ladder == [[False, False]]


def test_final_level_from_the_cache_is_read_not_solved_again(monkeypatch):
    from perfhom import solvers

    cfg = _t2_config((1 / 8, 1 / 32))
    assembled_u0, solved_u0 = [], []
    assembled = solvers.solve_assembled

    def spy_assembled(system, load, opts=None):
        if system.selector == "interface":
            solved_u0.append(system.mesh.n_vertices)
        return assembled(system, load, opts)

    _spy_u0_assemblies(monkeypatch,
                       lambda mesh: assembled_u0.append(mesh.n_vertices))
    monkeypatch.setattr(solvers, "solve_assembled", spy_assembled)
    # the 1/8 row runs all 4 levels, h/2 .. h/16; the 1/32 row stops at its
    # second level, h/4 = 3/512, which is the 1/8 row's last
    script = iter([False, False, True])
    monkeypatch.setattr(harness, "_increment_subdominant",
                        lambda *_: next(script))
    report = harness.run_study(cfg)
    first, last = report.rows
    assert (first["u0_solves"], last["u0_solves"]) == (4, 2)
    assert last["n_vertices_u0"] == first["n_vertices_u0"]
    # both of the last row's levels were hits: only the first row's four
    # levels were assembled, each once, and each solved every rhs
    assert last["u0_shared"] == 2
    assert len(assembled_u0) == len(set(assembled_u0)) == 4
    assert solved_u0 == [n for n in assembled_u0 for _ in cfg.rhs_names]
    assert set(last["per_f"]) == set(cfg.rhs_names)
    # the same row without a cache assembles and solves its two levels
    script = iter([True])
    alone = harness._study_row(cfg, 1 / 32, report.kappa_rows[1]["kappa"])
    assert assembled_u0[4:] == assembled_u0[2:4]
    assert alone["u0_shared"] == 0
    assert _without_sharing(alone) == _without_sharing(last)
