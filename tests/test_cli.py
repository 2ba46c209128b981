import json
import logging
import os
import subprocess
import sys

import pytest

import perfhom
from perfhom import cli, meshing


def _write(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name in ("study", "snorm", "corrector", "mesh", "validate"):
        assert name in out


def test_import_loads_no_quadrature_or_optimizer():
    # scipy.integrate pulls in scipy.optimize: about 12 MB of resident memory
    # in every perfhom process
    src = os.path.dirname(os.path.dirname(perfhom.__file__))
    probe = ("import sys, perfhom.cli; print(sorted(m for m in sys.modules "
             "if m.startswith(('scipy.integrate', 'scipy.optimize'))))")
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def test_missing_config_exits(tmp_path):
    with pytest.raises(SystemExit):
        cli.main(["validate", "--out", str(tmp_path)])


def test_validate_good_and_bad_config(tmp_path, capsys):
    good = _write(tmp_path, {
        "theorem": "T1a", "eps_list": [1 / 8, 1 / 12, 1 / 16]})
    assert cli.main(["validate", "--config", good]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "lam0_hat = -0.25", "eps=0.125  cavities=8", "eps=0.0833333  cavities=12",
        "eps=0.0625  cavities=16", "validation passed"]

    bad = _write(tmp_path, {
        "theorem": "T1a", "eps_list": [1 / 8, 1 / 12, 1 / 16],
        "layout_params": {"periods": [0.4]}}, name="bad.json")
    assert cli.main(["validate", "--config", bad]) == 1
    out, err = capsys.readouterr()
    assert not out and err == "error: period 0.4 <= 2*b*R2 = 0.48\n"


def test_validate_layout_only_config(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "layout_kind": "clustered", "layout_params": {"beta": 0.25},
        "eps_list": [1 / 8, 1 / 16]})
    assert cli.main(["validate", "--config", cfg]) == 0
    assert "cavities" in capsys.readouterr().out


def test_mesh_subcommand_writes_loadable_mesh(tmp_path, capsys):
    cfg = _write(tmp_path, {"mesh_kind": "perforated", "eps": 1 / 8, "h": 0.08})
    out = tmp_path / "m"
    assert cli.main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    assert "vertices" in capsys.readouterr().out
    mesh = meshing.Mesh.from_text(out / "mesh.txt")
    assert mesh.n_vertices > 0
    assert (out / "layout.json").exists()


def test_mesh_interface_kind(tmp_path):
    cfg = _write(tmp_path, {
        "mesh_kind": "interface", "h": 0.25,
        "domain": [[0.0, -1.0], [1.0, 1.0]], "s0": 0.0})
    out = tmp_path / "mi"
    assert cli.main(["mesh", "--config", cfg, "--out", str(out)]) == 0
    mesh = meshing.Mesh.from_text(out / "mesh.txt")
    assert mesh.facet_mask("interface").sum() == 4


def test_snorm_subcommand(tmp_path, capsys):
    cfg = _write(tmp_path, {"eps_list": [1 / 8, 1 / 16]})
    out = tmp_path / "s"
    assert cli.main(["snorm", "--config", cfg, "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 2 and all("kappa=" in ln for ln in printed)
    # each row names its slab solves, the Lanczos steps of its kappa
    assert all(int(ln.split("solves=")[1]) > 0 for ln in printed)
    lines = (out / "kappa.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,kappa"
    assert len(lines) == 3


def test_corrector_subcommand_with_calibration(tmp_path, capsys):
    cfg = _write(tmp_path, {"eps_list": [1 / 8, 1 / 16], "calibrate": True,
                            "modes": 32})
    out = tmp_path / "c"
    assert cli.main(["corrector", "--config", cfg, "--out", str(out)]) == 0
    txt = capsys.readouterr().out
    assert "calibration C" in txt
    assert "certified=yes" in txt
    lines = (out / "mu.csv").read_text().strip().splitlines()
    assert lines[0].startswith("eps,psi_sup")
    assert len(lines) == 3


def test_corrector_on_a_3d_layout(tmp_path, capsys):
    doc = {"eps_list": [1 / 8, 1 / 16], "layout_params": {"dim": 3},
           "modes": 16}
    out = tmp_path / "c"
    assert cli.main(["corrector", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = (out / "mu.csv").read_text().strip().splitlines()
    assert lines[0] == "eps,psi_sup,lap_sup,outer_flux,s_mismatch,mu"
    rows = [[float(t) for t in line.split(",")] for line in lines[1:]]
    assert [r[0] for r in rows] == [0.125, 0.0625]
    # psi_sup = eps sup|Psi| halves with eps; the spectral tail does not move
    assert rows[1][1] == pytest.approx(rows[0][1] / 2, rel=1e-14)
    assert rows[0][4] == rows[1][4] > 0
    assert printed == [f"eps={r[0]:.6g}  mu={r[5]:.6e}" for r in rows]
    # a 64-point grid cannot resolve the 2D cell's bump to the mean check
    doc["grid"] = 64
    assert cli.main(["corrector", "--config", _write(tmp_path, doc),
                     "--out", str(out)]) == 1
    assert "grid too coarse" in capsys.readouterr().err


def test_corrector_requires_constant_eta(tmp_path, capsys):
    cfg = _write(tmp_path, {"eps_list": [1 / 8], "eta_rule": ["power", 0.5]})
    assert cli.main(["corrector", "--config", cfg,
                     "--out", str(tmp_path / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'eta_rule'" in err
    assert not (tmp_path / "x").exists()


def test_study_subcommand_end_to_end(tmp_path, capsys):
    cfg = _write(tmp_path, {
        "theorem": "T1a", "eps_list": [1 / 8, 1 / 12, 1 / 16],
        "h_factor": 0.75})
    out = tmp_path / "study"
    rc = cli.main(["study", "--config", cfg, "--out", str(out)])
    assert rc == 0
    txt = capsys.readouterr().out
    assert "h1: slope" in txt
    assert "bound dominance: ok" in txt
    assert (out / "rates.csv").exists()
    assert (out / "summary.json").exists()
    assert (out / "plot.gp").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["theorem"] == "T1a"
    assert len(summary["rows"]) == 3


def test_study_without_a_primary_slope_exits_1(tmp_path, capsys):
    # two eps cannot give the 3 accepted rows that a slope needs
    cfg = _write(tmp_path, {"theorem": "T1a", "eps_list": [1 / 8, 1 / 16]})
    assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    out = capsys.readouterr().out
    assert "h1: no slope, 2 of 2 rows accepted at guard_tol 0.1" in out


def test_degenerate_study_exits_0(tmp_path, capsys):
    # zero data gives zero errors: nothing to fit and no rhs spread to check
    cfg = _write(tmp_path, {"theorem": "T1a", "rhs_names": ["zero", "trig", "gauss"],
                            "eps_list": [1 / 8, 1 / 12, 1 / 16]})
    assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert "degenerate input" in out
    assert "uniformity" not in out and "no slope" not in out


_STUDY_MISTAKES = [
    ({"theorem": "T1a", "eps_lst": [0.125]}, "eps_lst"),
    ([1, 2], "JSON object"),
    ({"theorem": "T1a", "matrix": "bogus",
      "eps_list": [0.25, 0.125, 0.0625]}, "matrix"),
    ({"theorem": "T1a", "c0": 0.0, "eps_list": [0.25, 0.125, 0.0625]}, "c0"),
    ({"theorem": "T1a", "eta_rule": 1.5, "eps_list": [0.25, 0.125, 0.0625]},
     "eta_rule"),
    ({"theorem": "T1a", "layout_kind": "bogus"}, "layout_kind"),
    # a negative h_factor steps the graded mesh rows away from the box forever
    ({"theorem": "T1a", "h_factor": -0.5}, "h_factor"),
    ({"theorem": "T1a", "h_factor": "x"}, "h_factor"),
    ({"theorem": "T1a", "guard_tol": "x"}, "guard_tol"),
    ({"theorem": "T1a", "refine_floor": "x"}, "refine_floor"),
    ({"theorem": "T1a", "seed": -1}, "seed"),
    ({"theorem": "T1a", "seed": 1.5}, "seed"),
    ({"theorem": "T1a", "vanish_near_s": "no"}, "vanish_near_s"),
    # every eps must be > 0, as for snorm and corrector
    ({"theorem": "T1a", "eps_list": [0.25, 0.125, -0.125]}, "eps_list"),
    ({"theorem": "T1a", "eps_list": [0.25, 0.125, 0]}, "eps_list"),
    # the guard's tolerance and the near-cavity refinement are the protocol's
    ({"theorem": "T1a", "guard_tol": 0.1}, "'guard_tol'"),
    ({"theorem": "T1a", "refine_floor": 4.0}, "'refine_floor'"),
]


@pytest.mark.parametrize("command", ["validate", "study"])
@pytest.mark.parametrize("doc, named", _STUDY_MISTAKES)
def test_config_mistake_is_a_clean_error(tmp_path, capsys, command, doc, named):
    cfg = _write(tmp_path, doc)
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


# criterion 4's config on a perturbed lattice whose centers at eps = 1/64 are
# closer than the layout's disjointness allows
_CLOSE_AT_1_64 = {"layout_kind": "perturbed-periodic",
                  "layout_params": {"mu": 0.5, "seed": 0}, "eps_list": [1 / 8, 1 / 64]}


@pytest.mark.parametrize("doc, named", _STUDY_MISTAKES + [
    ({"theorem": "T1a", "matrix": [[0.5, 0], [0, 0.5]]}, "c0=1.0"),
    ({"theorem": "T1a", "eps_list": [0.25, 0.125], "h_factor": 20.0}, "h_factor"),
    ({"theorem": "T1a", "eta_rule": ["power", 0.5], "h_factor": 0.4,
      **_CLOSE_AT_1_64}, "eps=0.015625 invalid: disjointness"),
    # the center leaves the R0*eps band around S at eps = 1/48
    ({"theorem": "T1a", "layout_kind": "explicit",
      "layout_params": {"centers": [[0.5, 0.012]]}},
     "eps=0.0208333 invalid: near-interface"),
])
def test_validate_and_study_print_one_refusal(tmp_path, capsys, built, doc, named):
    cfg, out = _write(tmp_path, doc), tmp_path / "o"
    assert cli.main(["validate", "--config", cfg]) == 1
    printed, refused = capsys.readouterr()
    assert not printed and refused.startswith("error: ") and named in refused
    assert cli.main(["study", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", refused)
    assert not built and not out.exists()


@pytest.mark.parametrize("command", ["snorm", "corrector", "mesh"])
def test_a_layout_that_cannot_be_built_writes_nothing(tmp_path, capsys, built,
                                                      command):
    doc = dict(_CLOSE_AT_1_64)
    if command == "mesh":
        doc["eps"] = doc.pop("eps_list")[-1]
    out = tmp_path / "o"
    cfg = _write(tmp_path, doc)
    assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: layout at eps=0.015625 invalid: disjointness")
    assert not built and not out.exists()


def test_seed_flag_is_applied_once_for_every_command(tmp_path, capsys):
    # validate checks the seed that study, snorm and corrector would use
    study = _write(tmp_path, {"theorem": "T1a", "eps_list": [0.25, 0.125]})
    table = _write(tmp_path, {"eps_list": [0.125]}, name="table.json")
    for cfg, command in ((study, "study"), (table, "snorm"), (table, "corrector")):
        runs = [cli.main([cmd, "--config", cfg, "--seed", "-1",
                          "--out", str(tmp_path / "o")])
                for cmd in ("validate", command)]
        first, second = capsys.readouterr().err.splitlines()
        assert runs == [1, 1] and first == second
        assert first == "error: bad value for 'seed': -1"
    assert cli.main(["validate", "--config", study, "--seed", "3"]) == 0
    capsys.readouterr()
    # a mesh config reads no seed, so the flag is refused, not ignored
    mesh = _write(tmp_path, {"mesh_kind": "box", "h": 0.25}, name="mesh.json")
    assert cli.main(["mesh", "--config", mesh, "--seed", "5",
                     "--out", str(tmp_path / "m")]) == 1
    assert capsys.readouterr().err == "error: unknown mesh config key(s): 'seed'\n"
    assert not (tmp_path / "m").exists()


def test_study_rejects_what_validate_rejects_on_ellipticity(tmp_path, capsys,
                                                            monkeypatch):
    cfg = _write(tmp_path, {"theorem": "T1a", "matrix": [[0.5, 0], [0, 0.5]],
                            "eps_list": [0.25, 0.125, 0.0625]})
    refused = "error: sampled ellipticity 0.5 below declared c0=1.0\n"
    assert cli.main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err == refused
    meshed = []
    monkeypatch.setattr(meshing, "mesh_perforated",
                        lambda *args, **kwargs: meshed.append(args))
    assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == refused
    assert not meshed


def test_study_and_validate_refuse_a_u0_grid_without_free_dofs(tmp_path, capsys,
                                                               monkeypatch):
    # at h_factor 20 the first u0 grid of eps = 1/4 is the box's 4 corners
    cfg = _write(tmp_path, {"theorem": "T1a", "eps_list": [0.25, 0.125],
                            "h_factor": 20.0, "u0_refine_cap": 0})
    assert cli.main(["validate", "--config", cfg]) == 1
    refused = capsys.readouterr().err
    assert refused.startswith("error: h_factor=20 ")
    meshed = []
    monkeypatch.setattr(meshing, "mesh_perforated",
                        lambda *args, **kwargs: meshed.append(args))
    assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == refused
    assert not meshed


@pytest.mark.parametrize("command", ["snorm", "corrector", "mesh", "validate"])
def test_jobs_is_a_study_option(tmp_path, capsys, command):
    cfg = _write(tmp_path, {"eps_list": [1 / 8]})
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", cfg, "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        cli.main(["study", "--help"])
    assert exc.value.code == 0 and "--jobs" in capsys.readouterr().out


def test_study_jobs_below_one_is_a_clean_error(tmp_path, capsys):
    cfg = _write(tmp_path, {"theorem": "T1a", "eps_list": [1 / 8, 1 / 12]})
    out = tmp_path / "o"
    assert cli.main(["study", "--config", cfg, "--out", str(out),
                     "--jobs", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'jobs'" in err
    assert not out.exists()


@pytest.mark.parametrize("shapes", [5, [{"family": "ball"}]])
def test_explicit_shapes_mistake_is_named(tmp_path, capsys, shapes):
    cfg = _write(tmp_path, {"theorem": "T1a", "layout_kind": "explicit",
                            "layout_params": {"centers": [[0.5, 0.0]],
                                              "shapes": shapes}})
    assert cli.main(["validate", "--config", cfg]) == 1
    refused = capsys.readouterr().err
    assert refused.startswith("error: ") and "'shapes'" in refused
    assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == refused


_STAR = {"family": "star", "params": {"r0": 0.12, "r1": 0.02}}
_ELLIPSE = {"family": "ellipse", "params": {"semi_axes": [0.15, 0.1]}}


@pytest.mark.parametrize("layout_kind, layout_params, named", [
    ("clustered", {}, "layout_kind"),
    ("perturbed-periodic", {"perimeter_jitter": 0.1, "shape": _ELLIPSE},
     "perimeter_jitter"),
    ("periodic", {"shape": _STAR}, "shape"),
    ("explicit", {"centers": [[0.5, 0.5, 0.0]], "shapes": [_STAR]}, "shapes"),
])
def test_layout_family_rules_are_clean_errors(tmp_path, capsys, layout_kind,
                                              layout_params, named):
    # each is a 3D study config but perimeter_jitter's, which any dim refuses
    dim = 2 if named == "perimeter_jitter" else 3
    cfg = _write(tmp_path, {"theorem": "T1a", "dim": dim, "eps_list": [0.25],
                            "layout_kind": layout_kind,
                            "layout_params": layout_params})
    assert cli.main(["study", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(named) in err
    assert "Traceback" not in err
    assert cli.main(["validate", "--config", cfg]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("command", ["snorm", "corrector"])
def test_bad_eta_rule_is_a_clean_error(tmp_path, capsys, command):
    cfg = _write(tmp_path, {"eps_list": [1 / 8, 1 / 16], "eta_rule": "x"})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "eta_rule" in err


_CONFIG_MISTAKES = [
    ("snorm", {"points_per_bump": 0}, "points_per_bump"),
    ("snorm", {"alpha0": "x"}, "alpha0"),
    ("snorm", {"layout_kind": "bogus"}, "layout_kind"),
    ("corrector", {"modes": 200}, "modes"),
    ("corrector", {"grid": 0}, "grid"),
    ("corrector", {"layout_params": {"constants": {"tau0": -1}}}, "tau0"),
    ("corrector", {"calibrate": True, "points_per_bump": 0}, "points_per_bump"),
    ("corrector", {"calibrate": True, "alpha0": "x"}, "alpha0"),
    ("mesh", {"mesh_kind": "slab", "h": 0.0}, "h"),
    ("mesh", {"mesh_kind": "slab", "h": 0.1, "height": -1.0}, "height"),
    ("mesh", {"mesh_kind": "box"}, "h"),
    ("snorm", {"eps_list": ["a"]}, "eps_list"),
    ("snorm", {"eps_list": [0.125], "layout_params": "s0"}, "layout_params"),
    ("mesh", {"mesh_kind": "perforated", "eps": "x"}, "eps"),
    ("mesh", {"mesh_kind": "box", "dim": "two", "h": 0.1}, "dim"),
    ("mesh", {"mesh_kind": "perforated", "eps": 0.125, "refine": "x"}, "refine"),
    ("mesh", {"mesh_kind": "box", "h": 0.1, "domain": [[0, 0], [1]]}, "domain"),
    ("mesh", {"mesh_kind": "interface", "h": 0.1, "s0": 2.0}, "s0"),
    ("mesh", {"mesh_kind": "slab", "h": 0.1, "lengths": ["x"]}, "lengths"),
    ("snorm", {"layout_kind": "perturbed-periodic", "layout_params": {"mu": "x"}},
     "mu"),
    ("snorm", {"layout_params": {"domain": [[0, -0.5], [1]]}}, "domain"),
    ("snorm", {"layout_params": {"periods": "ab"}}, "periods"),
    ("snorm", {"layout_params": {"shape": {"family": "ball", "params": {"radius": "x"}}}},
     "radius"),
    ("snorm", {"layout_params": {"shape": {"family": "ball", "params": {}}}}, "radius"),
    ("snorm", {"layout_params": {"constants": {"R2": "x"}}}, "R2"),
    ("snorm", {"layout_kind": "explicit",
               "layout_params": {"centers": [[0.5, 0.0]], "shapes": 5}}, "shapes"),
    ("snorm", {"layout_kind": "explicit",
               "layout_params": {"centers": [[0.5, 0.0]],
                                 "shapes": [{"family": "ball"}]}}, "shapes"),
    # the slab of every kappa and mu table is tau0/2 high
    ("snorm", {"layout_params": {"constants": {"tau0": -1}}}, "tau0"),
    ("snorm", {"layout_params": {"constants": {"tau0": 0}}}, "tau0"),
    ("corrector", {"layout_params": {"constants": {"tau0": 0}}}, "tau0"),
    ("snorm", {"layout_params": {"constants": {"tau0": float("inf")}}}, "tau0"),
    # corrector reads its cell off a lattice
    ("corrector", {"layout_kind": "clustered"}, "layout_kind"),
    ("corrector", {"layout_kind": "perturbed-periodic",
                   "layout_params": {"mu": 0.05}}, "layout_kind"),
    # one key set, shared by the three commands that read a layout config
    ("snorm", {"points_per_bmp": 2}, "points_per_bmp"),
    ("corrector", {"points_per_bmp": 2}, "points_per_bmp"),
    ("validate", {"points_per_bmp": 2}, "points_per_bmp"),
    # the error lists every unknown key; corrector takes tau0 from the layout
    ("corrector", {"tau0": 1.0, "grd": 64}, "grd"),
    ("corrector", {"tau0": 1.0, "grd": 64}, "tau0"),
    ("corrector", {"calibrate": "no"}, "calibrate"),
    ("corrector", {"calibrate": 1}, "calibrate"),
    # a mesh config takes only the keys its mesh_kind reads
    ("mesh", {"mesh_kind": "box", "h": 0.25, "hh": 1, "lengths": [2]}, "hh"),
    ("mesh", {"mesh_kind": "box", "h": 0.25, "hh": 1, "lengths": [2]}, "lengths"),
    ("mesh", {"mesh_kind": "box", "h": 0.25, "s0": 0.0}, "s0"),
    ("mesh", {"mesh_kind": "slab", "h": 0.1, "domain": [[0, 0], [1, 1]]}, "domain"),
    ("mesh", {"mesh_kind": "interface", "h": 0.25, "eps": 0.125}, "eps"),
    ("mesh", {"eps": 0.125, "eps_list": [0.125]}, "eps_list"),
    ("mesh", {"mesh_kind": "disk", "h": 0.1}, "mesh_kind"),
    # layout family rules
    ("snorm", {"layout_kind": "clustered", "layout_params": {"dim": 3}},
     "layout_kind"),
    ("snorm", {"layout_kind": "perturbed-periodic",
               "layout_params": {"perimeter_jitter": 0.1, "shape": _ELLIPSE}},
     "perimeter_jitter"),
    ("snorm", {"layout_params": {"dim": 3, "shape": _STAR}}, "shape"),
    ("snorm", {"layout_kind": "explicit",
               "layout_params": {"dim": 3, "centers": [[0.5, 0.5, 0.0]],
                                 "shapes": [_STAR]}}, "shapes"),
    # the corrector builds its cell and freezes its calibration at eps_list[0]
    ("snorm", {"eps_list": []}, "eps_list"),
    ("corrector", {"eps_list": [1 / 16, 1 / 8]}, "eps_list"),
    ("snorm", {"eps_list": [1 / 8, 1 / 8]}, "eps_list"),
    ("corrector", {"eps_list": [float("inf")]}, "eps_list"),
    # a shape takes only its family's params
    ("snorm", {"layout_params": {"shape": {"family": "ball", "params": {
        "radius": 0.15, "radus": 0.3}}}}, "radus"),
    ("snorm", {"layout_params": {"shape": {"family": "ball", "params": {
        "radius": 0.15, "semi_axes": [0.1, 0.2]}}}}, "semi_axes"),
    ("snorm", {"layout_params": {"shape": {"family": "ellipse", "params": {
        "semi_axes": [0.1]}}}}, "semi_axes"),
]


@pytest.mark.parametrize("command, extra, named", _CONFIG_MISTAKES)
def test_subcommand_config_mistakes_are_clean_errors(tmp_path, capsys, command,
                                                     extra, named):
    # a mesh config reads no eps_list, so there it would be an unknown key
    base = {} if command == "mesh" else {"eps_list": [1 / 8]}
    cfg = _write(tmp_path, {**base, **extra})
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(named) in err
    assert "Traceback" not in err
    assert not (tmp_path / "o" / "mesh.txt").exists()


@pytest.mark.parametrize("extra, named", [
    (extra, named) for command, extra, named in _CONFIG_MISTAKES
    # the corrector alone reads its cell off a lattice
    if command in ("snorm", "corrector") and not (
        command == "corrector" and named == "layout_kind")])
def test_validate_refuses_what_snorm_and_corrector_refuse(tmp_path, capsys,
                                                          extra, named):
    cfg = _write(tmp_path, {"eps_list": [1 / 8], **extra})
    assert cli.main(["validate", "--config", cfg]) == 1
    out, err = capsys.readouterr()
    assert not out and err.startswith("error: ") and repr(named) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["snorm", "corrector", "validate"])
def test_table_config_needs_an_eps_list(tmp_path, capsys, command):
    out = tmp_path / "o"
    assert cli.main([command, "--config", _write(tmp_path, {}),
                     "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'eps_list'" in err
    assert not out.exists()


@pytest.mark.parametrize("layout_kind, layout_params, named", [
    ("periodic", {"preiods": [2.0]}, "preiods"),
    ("periodic", {"mu": 0.3}, "mu"),
    ("clustered", {"centers": [[0.5, 0.0]]}, "centers"),
    ("periodic", {"constants": {"R3": 5}}, "R3"),
])
def test_every_command_refuses_an_unread_layout_param(tmp_path, capsys,
                                                      layout_kind, layout_params,
                                                      named):
    layout = {"layout_kind": layout_kind, "layout_params": layout_params}
    out = tmp_path / "o"
    for command, doc in (("snorm", {"eps_list": [1 / 8]}),
                         ("mesh", {"mesh_kind": "perforated", "eps": 1 / 8}),
                         ("validate", {"eps_list": [1 / 8]}),
                         ("validate", {"theorem": "T1a", "eps_list": [1 / 8]})):
        cfg = _write(tmp_path, {**doc, **layout})
        assert cli.main([command, "--config", cfg, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(named) in err
    assert not (out / "mesh.txt").exists()
    assert not (out / "kappa.csv").exists()


def test_corrector_reads_tau0_from_the_layout(tmp_path, capsys):
    # the outer-flux term decays with the slab height tau0/2
    outer = {}
    for tau0 in (1.0, 2.0):
        cfg = _write(tmp_path, {"eps_list": [1 / 8], "modes": 16,
                                "layout_params": {"constants": {"tau0": tau0}}})
        assert cli.main(["corrector", "--config", cfg,
                         "--out", str(tmp_path / "c")]) == 0
        capsys.readouterr()
        cols = (tmp_path / "c" / "mu.csv").read_text().splitlines()
        outer[tau0] = float(cols[1].split(",")[3])
    assert 0.0 < outer[2.0] < outer[1.0]


def test_corrector_calibrates_on_the_snorm_kappas(tmp_path, capsys):
    cfg = _write(tmp_path, {"eps_list": [1 / 8, 1 / 16], "calibrate": True,
                            "modes": 32, "points_per_bump": 6, "seed": 3})
    kappas = {}
    for command in ("snorm", "corrector"):
        assert cli.main([command, "--config", cfg, "--out", str(tmp_path)]) == 0
        kappas[command] = [tok for tok in capsys.readouterr().out.split()
                           if tok.startswith("kappa=")]
    assert len(kappas["snorm"]) == 2
    assert kappas["corrector"] == kappas["snorm"]


@pytest.fixture
def perfhom_logger():
    logger = logging.getLogger("perfhom")
    level, handlers = logger.level, list(logger.handlers)
    yield logger
    logger.setLevel(level)
    logger.handlers[:] = handlers


def test_log_level_switch(tmp_path, capsys, perfhom_logger):
    cfg = _write(tmp_path, {"eps_list": [1 / 8]})
    out = str(tmp_path / "s")
    assert cli.main(["snorm", "--config", cfg, "--out", out,
                     "--log-level", "INFO"]) == 0
    assert logging.getLogger("perfhom.snorm").getEffectiveLevel() == logging.INFO
    assert "INFO perfhom.snorm: kappa(eps=0.125)" in capsys.readouterr().err
    assert cli.main(["validate", "--config", cfg, "--log-level", "ERROR"]) == 0
    assert logging.getLogger("perfhom.harness").getEffectiveLevel() == logging.ERROR
    assert len(perfhom_logger.handlers) == 1
    with pytest.raises(SystemExit) as exc:
        cli.main(["validate", "--config", cfg, "--log-level", "LOUD"])
    assert exc.value.code != 0
