"""The benchmark tracer's entry points still resolve in lproth.

``bench/tracing.py`` rebinds the functions it names by module and attribute;
a rename or a changed return type breaks ``bench/run.py --trace 1`` without
failing any other test.  The tracer is imported from its file, unchanged.
"""

import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from lproth import cli
from lproth.gowers import CyclicGridFunction

_TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("lproth_bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_entry_point_resolves(tracing):
    for mod, fn, counts in tracing.ENTRY_POINTS:
        target = getattr(importlib.import_module(f"lproth.{mod}"), fn, None)
        assert inspect.isfunction(target), f"lproth.{mod}.{fn}"
        if counts is not None:
            # a count helper reads the call's bound arguments by parameter name
            read = set(re.findall(r'a\["(\w+)"\]', inspect.getsource(counts)))
            assert read <= set(inspect.signature(target).parameters), f"{mod}.{fn}"


def test_suite_functions_are_plain_functions():
    assert cli._SUITE_FNS and all(inspect.isfunction(f) for f in cli._SUITE_FNS.values())


def test_shift_count_reads_the_grid(tracing):
    F = CyclicGridFunction(np.ones((8, 8)))
    assert tracing._u3_counts({"F": F}, None) == {"shifts": 64}
