"""Command line front end.

Subcommands
-----------
study     : run a convergence study from a JSON config, emit rates.csv,
            summary.json and plot.gp into --out.
snorm     : tabulate the multiplier-norm distance kappa(eps) for a layout
            family, emit kappa.csv.
corrector : tabulate the boundary-layer residual mu(eps) for the unit cell
            of a layout family, emit mu.csv; optionally calibrate the
            kappa <= C*sqrt(mu) certificate against the empirical kappa.
mesh      : build one mesh (perforated, box, interface or slab) and write
            it in the plain-text mesh format.
validate  : check a study or layout config without solving anything.

All subcommands accept --config FILE (JSON), --out DIR, --seed N and
--log-level LEVEL, which sets the level of the perfhom loggers and prints
their records to stderr; study also takes --jobs K, the number of worker
processes for its eps sweep.  The JSON schemas are documented in the README.
Each subcommand reads all its keys before it computes anything; an unread key
or a bad value is an ``error: ...`` naming it, with exit code 1.
"""

import argparse
import json
import logging
import math
import os
import sys
from types import SimpleNamespace

import numpy as np

from . import corrector as corrector_mod
from . import snorm as snorm_mod
from . import fem, geometry, harness, meshing
from .errors import ConfigError, ConfigReader, PerfhomError, _config_value


def _load_config(path):
    if not path:
        raise SystemExit("a --config file is required for this subcommand")
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise PerfhomError(f"{path}: a config must be a JSON object")
    return doc


def _layout_keys(read):
    """layout_kind, layout_params and eta_rule; make_layout reads the params."""
    return (read("layout_kind", "periodic", harness._layout_kind),
            read("layout_params", {}, dict),
            read("eta_rule", 1.0, harness._eta_rule))


def _sweep(v):
    """Config converter to a non-empty, strictly decreasing list of eps > 0."""
    eps = [geometry._positive(e) for e in v or ()]
    if not eps or any(b >= a for a, b in zip(eps, eps[1:])):
        raise ValueError("must be a non-empty, strictly decreasing list")
    return eps


def _inside(lo, hi):
    """Config converter to a number strictly between lo and hi."""
    def convert(x):
        if isinstance(x, bool) or not lo < float(x) < hi:
            raise ValueError(f"must lie in ({lo:g}, {hi:g})")
        return float(x)
    return convert


def _lengths(v):
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape not in ((1,), (2,)) or not np.all(np.isfinite(arr) & (arr > 0)):
        raise ValueError("must be 1 or 2 finite numbers > 0")
    return arr


def _finite_or_none(x):
    return None if x is None else _inside(-math.inf, math.inf)(x)


def _table_config(doc, seed):
    """Every key of a snorm, corrector or layout-only validate config, read
    before any table is computed; a seed that is not None overrides doc's."""
    read = ConfigReader(doc if seed is None else dict(doc, seed=seed), "config")
    t = SimpleNamespace(eps_list=read("eps_list", None, _sweep))
    t.kind, params, t.eta_rule = _layout_keys(read)
    t.layout = lambda eps: geometry.make_layout(t.kind, params, eps, t.eta_rule)
    kappa = dict(alpha0=read("alpha0", None, _finite_or_none),
                 points_per_bump=read("points_per_bump", 8,
                                      harness._int_in(1, math.inf)),
                 seed=read("seed", 0, geometry._count))
    t.kappa_rows = lambda: snorm_mod.kappa_table(t.eps_list, t.layout, **kappa)
    t.grid = read("grid", 256, harness._int_in(1, math.inf))
    # fourier_corrector keeps modes below the grid's Nyquist order
    t.modes = read("modes", 64, harness._int_in(1, t.grid // 2))
    t.calibrate = read("calibrate", False, harness._bool)
    read.done()
    return t


def cmd_study(args):
    doc = _load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    config = harness.StudyConfig.from_dict(doc)
    report = harness.run_study(config, jobs=args.jobs)
    paths = harness.emit_report(report, args.out)
    if report.degenerate:
        print("degenerate input (all errors zero); nothing to fit")
    for norm in sorted(report.slopes):
        fit = report.slopes[norm]
        print(f"{norm}: slope {fit['slope']:.3f} +- {fit['stderr']:.3f} "
              f"({fit['n_rows']} accepted rows)")
    if report.dominance_ok is not None:
        print(f"bound dominance: {'ok' if report.dominance_ok else 'VIOLATED'}"
              f" (C_fit={report.c_fit:.3g})")
    if report.uniformity["max_spread"] is not None:
        print(f"rhs uniformity spread: {report.uniformity['max_spread']:.2f} "
              f"({'ok' if report.uniformity['ok'] else 'VIOLATED'})")
    # a slope needs 3 rows accepted in the theorem's own norm
    norm = report.primary_norm
    no_slope = not report.degenerate and norm not in report.slopes
    if no_slope:
        print(f"{norm}: no slope, {len(report.accepted(norm))} of "
              f"{len(report.rows)} rows accepted at guard_tol "
              f"{report.config['guard_tol']:g} (a fit needs 3)")
    print("wrote " + ", ".join(paths))
    bad = no_slope or report.dominance_ok is False \
        or report.uniformity["ok"] is False
    return 1 if bad else 0


def cmd_snorm(args):
    table = _table_config(_load_config(args.config), args.seed)
    os.makedirs(args.out, exist_ok=True)
    rows = table.kappa_rows()
    harness.write_csv(os.path.join(args.out, "kappa.csv"), rows, ["eps", "kappa"])
    for r in rows:
        note = "  [stalled]" if r.get("stalled") else ""
        print(f"eps={r['eps']:.6g}  kappa={r['kappa']:.6e}  "
              f"cavities={r['n_cavities']}  trace_dofs={r['trace_dofs']}  "
              f"solves={r['solves']}{note}")
    return 0


def cmd_corrector(args):
    table = _table_config(_load_config(args.config), args.seed)
    # the cell is read off the center gaps of a lattice
    _config_value("layout_kind", table.kind, harness._one_of(("periodic",)))
    if not isinstance(table.eta_rule, float):
        raise ConfigError("corrector tables assume a fixed cell: 'eta_rule' "
                          "must be a constant")
    os.makedirs(args.out, exist_ok=True)
    layout = table.layout(table.eps_list[0])
    beta = corrector_mod.cell_beta_from_layout(layout, n=table.grid)
    kappas = [r["kappa"] for r in table.kappa_rows()] if table.calibrate else None
    rows, calibration = corrector_mod.mu_table(
        table.eps_list, beta, modes=table.modes, tau0=layout.constants["tau0"],
        kappas=kappas)
    cols = ["eps", "psi_sup", "lap_sup", "outer_flux", "s_mismatch", "mu"]
    if table.calibrate:
        cols.append("kappa")
    harness.write_csv(os.path.join(args.out, "mu.csv"), rows, cols)
    for r in rows:
        line = f"eps={r['eps']:.6g}  mu={r['mu']:.6e}"
        if "kappa" in r:
            ok = "yes" if r["certified"] else "NO"
            line += f"  kappa={r['kappa']:.6e}  certified={ok}"
        print(line)
    if calibration is not None:
        print(f"calibration C = {calibration:.4f}  (kappa <= C*sqrt(mu))")
    return 0


def cmd_mesh(args):
    read = ConfigReader(_load_config(args.config), "mesh config")
    kind = read("mesh_kind", "perforated",
                harness._one_of(("perforated", "box", "interface", "slab")))

    def positive(key, default=None):
        return read(key, default, geometry._positive)

    if kind == "perforated":
        eps = positive("eps")
        layout_kind, params, rule = _layout_keys(read)
        h, refine = positive("h", 0.75 * eps), positive("refine", 4.0)
    elif kind in ("box", "interface"):
        dim = read("dim", 2, geometry._dimension)
        lo, hi = read("domain", geometry._default_domain(dim), geometry._box(dim))
        h = positive("h")
        if kind == "interface":
            s0 = read("s0", 0.0, _inside(lo[-1], hi[-1]))
    else:
        lengths = read("lengths", [1.0], _lengths)
        height, h = positive("height", 0.5), positive("h")
    read.done()
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "mesh.txt")
    if kind == "perforated":
        layout = geometry.make_layout(layout_kind, params, eps, rule)
        mesh = meshing.mesh_perforated(layout, h, refine)
        layout.to_json(os.path.join(args.out, "layout.json"))
    elif kind == "box":
        mesh = meshing.mesh_box(lo, hi, h)
    elif kind == "interface":
        mesh = meshing.mesh_interface(lo, hi, s0, h)
    else:
        mesh = meshing.mesh_slab(np.zeros_like(lengths), lengths, height, h)
    mesh.check()
    mesh.to_text(path)
    vols = mesh.simplex_volumes()
    print(f"{mesh.n_vertices} vertices, {mesh.n_simplices} simplices, "
          f"volume range [{vols.min():.3e}, {vols.max():.3e}]")
    print(f"wrote {path}")
    return 0


def cmd_validate(args):
    doc = _load_config(args.config)
    failures = 0

    def check(name, fn):
        nonlocal failures
        try:
            extra = fn()
        except (PerfhomError, ValueError, TypeError, KeyError) as exc:
            failures += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"  ok {name}" + (f": {extra}" if extra else ""))

    if "theorem" in doc:
        config = harness.StudyConfig.from_dict(doc)
        check("study config", config.validate)

        check("coefficients", lambda: "c0 ok (min eig %.4g)" %
              config.check_ellipticity())
        check("solvability threshold", lambda: "lam0_hat = %.4g" %
              fem.estimate_lambda0(config.coefficients(),
                                   config.nonlinearity()))
        for eps in config.eps_list:
            check(f"layout at eps={eps:.6g}",
                  lambda e=eps: f"{config.layout(e).n_cavities} cavities")
    else:
        table = _table_config(doc, args.seed)
        for eps in table.eps_list:
            check(f"layout at eps={eps:.6g}",
                  lambda e=eps: f"{table.layout(e).n_cavities} cavities")
    print("validation " + ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def _configure_logging(level):
    logger = logging.getLogger("perfhom")
    logger.setLevel(level)
    if not logger.handlers:
        handler = logging.StreamHandler()
        handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
        logger.addHandler(handler)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="perfhom",
        description="Homogenization toolkit for domains perforated along "
                    "a hyperplane")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=None,
                        help="RNG seed override")
    common.add_argument("--log-level",
                        choices=("DEBUG", "INFO", "WARNING", "ERROR"),
                        help="level of the perfhom loggers (default: "
                             "warnings only)")
    sub = parser.add_subparsers(dest="command", required=True)
    study = sub.add_parser("study", parents=[common],
                           help="run a convergence study")
    study.add_argument("--jobs", type=int, default=1,
                       help="parallel jobs for the eps sweep")
    study.set_defaults(fn=cmd_study)
    sub.add_parser("snorm", parents=[common],
                   help="tabulate kappa(eps)").set_defaults(fn=cmd_snorm)
    sub.add_parser("corrector", parents=[common],
                   help="tabulate mu(eps)").set_defaults(fn=cmd_corrector)
    sub.add_parser("mesh", parents=[common],
                   help="build and export one mesh").set_defaults(fn=cmd_mesh)
    sub.add_parser("validate", parents=[common],
                   help="check a config without solving").set_defaults(
                       fn=cmd_validate)
    args = parser.parse_args(argv)
    if args.log_level:
        _configure_logging(args.log_level)
    try:
        return args.fn(args)
    except PerfhomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
