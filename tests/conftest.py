"""Shared test hooks: the acceptance battery reports one line per criterion.

Verdict lines are collected while the tests run and replayed in a terminal
section after the suite, outside the capture machinery, so the pass/fail
status of each criterion is visible in plain `pytest -v` output.

BLAS runs on one thread unless the environment says otherwise.  The kappa
slab's banded Cholesky makes one small BLAS call per column, and extra
threads only add synchronisation to it.  The pin must precede the first
numpy import; pytest loads this file before any test module.
"""

import os

import pytest

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

VERDICTS = []


@pytest.fixture
def built(monkeypatch):
    """A list that every mesh_perforated, build_slab and kappa_table call
    appends its arguments to, in place of its work."""
    from perfhom import meshing, snorm
    calls = []
    for module, name in ((meshing, "mesh_perforated"), (snorm, "build_slab"),
                         (snorm, "kappa_table")):
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(a))
    return calls


def record_verdict(line):
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if not VERDICTS:
        return
    terminalreporter.section("acceptance criteria")
    for line in VERDICTS:
        terminalreporter.write_line(line)
