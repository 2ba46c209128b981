"""The benchmark's workloads, their outputs, and the correctness check.

Each workload has a ``setup(seed)`` that builds and validates its configs
(timed as ``setup_s``) and a ``run(configs)`` that makes every call into
perfhom and returns its outputs as plain data:

    {"ops": [{"id": ..., <field>: <value>, ...}, ...], "shared": {...}}

An op is one study row, one kappa entry or one mu entry.  ``shared`` holds
the study-level results (slopes, C_fit, dominance and uniformity flags)
that every row of the study feeds; when one of them is wrong, every op of
the study counts as failed.  Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from perfhom import corrector, geometry, harness, snorm

# the first five eps of the default sweep; the full seven-eps T2 study takes
# minutes, too long to repeat for every benchmark run
EPS5 = (1 / 8, 1 / 12, 1 / 16, 1 / 24, 1 / 32)

# relative deviation from the reference beyond which an output is wrong
REL_TOL = 1e-6


def eps_id(eps):
    return f"1/{round(1.0 / eps)}"


def _plain(value):
    """JSON-ready copy of an output: None, a bool or a float."""
    if value is None:
        return None
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    return float(value)


@dataclass(frozen=True)
class Workload:
    setup: object  # seed -> configs
    run: object    # configs -> outputs


# --- study workloads ---------------------------------------------------------

def _t2_config(seed):
    # criterion 3: periodic disks, eta = 1, saturating nonlinearity
    return harness.StudyConfig(theorem="T2", nbc_kind="saturating",
                               nbc_sigma=2.0, eta_rule=1.0, h_factor=0.75,
                               eps_list=EPS5, seed=seed)


def _plain_config(seed):
    # criterion 4: a = 0, eta = sqrt(eps)
    return harness.StudyConfig(theorem="T1a", eta_rule=("power", 0.5),
                               h_factor=0.4, eps_list=EPS5, seed=seed)


def _3d_config(seed):
    # layout_params carries dim because StudyConfig does not pass it on
    return harness.StudyConfig(theorem="T3a", dim=3, layout_params={"dim": 3},
                               eta_rule=1.0, eps_list=(1 / 4,),
                               u0_refine_cap=1, seed=seed)


def run_one_study(config):
    rep = harness.run_study(config, jobs=1)
    kappas = {r["eps"]: r for r in rep.kappa_rows}
    ops = []
    for r in rep.rows:
        op = {"id": f"row {eps_id(r['eps'])}"}
        for key in ("err_l2", "err_h1", "guard_l2", "guard_h1", "bound",
                    "accepted_l2", "accepted_h1"):
            op[key] = _plain(r[key])
        if r["eps"] in kappas:
            op["kappa"] = _plain(kappas[r["eps"]]["kappa"])
            op["stalled"] = _plain(kappas[r["eps"]]["stalled"])
        ops.append(op)
    shared = {
        "slope_l2": _plain(rep.slopes.get("l2", {}).get("slope")),
        "slope_h1": _plain(rep.slopes.get("h1", {}).get("slope")),
        "c_fit": _plain(rep.c_fit),
        "dominance_ok": _plain(rep.dominance_ok),
        "uniformity_ok": _plain(rep.uniformity["ok"]),
    }
    return {"ops": ops, "shared": shared}


# --- certificates ------------------------------------------------------------

def _certificate_families(seed):
    # (name, layout kind, layout params) for criteria 6 and 7
    return (
        ("periodic", "periodic", {}),
        ("clustered", "clustered", {"beta": 0.25}),
        ("perturbed", "perturbed-periodic", {"mu": 0.05, "seed": seed}),
    )


def _certificates_setup(seed):
    return {"eps": harness.DEFAULT_SWEEP, "seed": seed,
            "families": _certificate_families(seed)}


def run_certificates(cfg):
    eps_list, seed = cfg["eps"], cfg["seed"]
    ops = []
    periodic = None
    for name, kind, params in cfg["families"]:
        rows = snorm.kappa_table(
            eps_list, lambda e, k=kind, p=params: geometry.make_layout(k, p, e),
            seed=seed)
        if name == "periodic":
            periodic = [r["kappa"] for r in rows]
        ops += [{"id": f"kappa {name} {eps_id(r['eps'])}",
                 "kappa": _plain(r["kappa"]), "stalled": _plain(r["stalled"])}
                for r in rows]
    beta = corrector.cell_beta_from_layout(
        geometry.make_layout("periodic", {}, eps_list[0]))
    rows, _ = corrector.mu_table(eps_list, beta, kappas=periodic)
    ops += [{"id": f"mu {eps_id(r['eps'])}", "mu": _plain(r["mu"]),
             "kappa_bound": _plain(r["kappa_bound"]),
             "certified": _plain(r["certified"])}
            for r in rows]
    return {"ops": ops, "shared": {}}


WORKLOADS = {
    "t2-sweep": Workload(_t2_config, run_one_study),
    "plain-sweep": Workload(_plain_config, run_one_study),
    "3d-plain": Workload(_3d_config, run_one_study),
    "certificates": Workload(_certificates_setup, run_certificates),
}


# --- correctness -------------------------------------------------------------

def _field_ok(value, ref, compare_values):
    """Flags and None must equal the reference; numbers must be finite and,
    when compare_values, within REL_TOL of it."""
    if isinstance(ref, bool) or ref is None or isinstance(value, bool) or value is None:
        return value == ref and type(value) is type(ref)
    if not math.isfinite(value):
        return False
    if not compare_values:
        return True
    return abs(value - ref) <= REL_TOL * max(abs(value), abs(ref))


def _fields_ok(got, ref, compare_values):
    if set(got) != set(ref):
        return False
    return all(_field_ok(got[k], ref[k], compare_values)
               for k in ref if k != "id")


def failed_ops(outputs, reference, compare_values):
    """Indices of failed ops (all of them when ``shared`` is wrong).

    compare_values: check numbers against the reference (on the reference
    seed); otherwise only flags and finiteness are checked.
    """
    ref_ops = reference["ops"]
    ops = outputs["ops"]
    if [o["id"] for o in ops] != [o["id"] for o in ref_ops] or \
            not _fields_ok(outputs["shared"], reference["shared"], compare_values):
        return list(range(len(ref_ops)))
    return [i for i, (o, r) in enumerate(zip(ops, ref_ops))
            if not _fields_ok(o, r, compare_values)]
