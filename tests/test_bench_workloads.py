"""The benchmark's counting-forms workload still runs and passes its gate.

``bench/workloads.py`` calls ``forms`` functions with positional arguments;
a changed signature breaks ``bench/run.py`` without failing any other test.
The workloads module is imported from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import pytest

_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("lproth_bench_workloads", _WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counting_forms_passes_its_gate(workloads, tmp_path):
    work = workloads.WORKLOADS["counting-forms"]
    inputs = work.setup(7, str(tmp_path))
    checks, _ = work.gate(inputs, work.run(inputs))
    assert checks and all(passed for _, passed in checks), checks
