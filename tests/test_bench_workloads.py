"""The benchmark's workloads still run and pass their gates.

``bench/workloads.py`` calls ``forms`` functions with positional arguments
and runs the CLI; a changed signature breaks ``bench/run.py`` without
failing any other test.  The workloads module is imported from its file,
unchanged.
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


def _assert_gate_passes(workloads, name, scratch):
    work = workloads.WORKLOADS[name]
    inputs = work.setup(7, str(scratch))
    checks, _ = work.gate(inputs, work.run(inputs))
    assert checks and all(passed for _, passed in checks), checks


def test_counting_forms_passes_its_gate(workloads, tmp_path):
    _assert_gate_passes(workloads, "counting-forms", tmp_path)


def test_verify_all_passes_its_gate(workloads, tmp_path):
    _assert_gate_passes(workloads, "verify-all", tmp_path)
