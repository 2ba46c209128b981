"""The benchmark's own correctness check against the current code: at the
reference seed, the outputs of every workload (the T2 and plain sweeps, the
3D plain row and the certificates) match perfbench/reference.json.
perfbench/workloads.py is only imported, never changed."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parents[1] / "perfbench"
_SPEC = importlib.util.spec_from_file_location("perfbench_workloads",
                                               _ROOT / "workloads.py")
workloads = importlib.util.module_from_spec(_SPEC)
# the module defines a dataclass, which looks its module up in sys.modules
sys.modules[_SPEC.name] = workloads
_SPEC.loader.exec_module(workloads)


@pytest.mark.parametrize("name", ["t2-sweep", "certificates", "plain-sweep",
                                  "3d-plain"])
def test_workload_outputs_match_the_reference(name):
    reference = json.loads((_ROOT / "reference.json").read_text())
    assert reference["seed"] == 0
    workload = workloads.WORKLOADS[name]
    outputs = workload.run(workload.setup(0))
    assert workloads.failed_ops(outputs, reference["workloads"][name], True) == []
