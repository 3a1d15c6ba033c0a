"""The benchmark tracer's entry points still resolve in lproth.

``bench/tracing.py`` rebinds the functions it names by module and attribute;
a rename or a changed return type breaks ``bench/run.py --trace 1`` without
failing any other test.  The tracer is imported from its file, unchanged.
"""

import importlib
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lproth import cli
from lproth.gowers import CyclicGridFunction

_ROOT = Path(__file__).resolve().parents[1]
_TRACING = _ROOT / "bench" / "tracing.py"


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



# Loads every lproth module, notes each namespace slot (a module attribute or a
# module-level dict entry) that holds an entry point or a suite function, installs
# the tracer and prints, as JSON, the slots of each and those not rebound to its wrapper.
_INSTALL_CHECK = """
import importlib, json, pkgutil, sys
import lproth
from lproth import cli
mods = [importlib.import_module("lproth." + m.name) for m in pkgutil.iter_modules(lproth.__path__)]
sys.path.insert(0, sys.argv[1])
from tracing import ENTRY_POINTS, Tracer
targets = {f"lproth.{mod}.{fn}": getattr(sys.modules["lproth." + mod], fn)
           for mod, fn, _ in ENTRY_POINTS}
targets.update((f.__module__ + "." + f.__name__, f) for f in cli._SUITE_FNS.values())
slots = []
for space in [lproth, *mods]:
    for attr, val in vars(space).items():
        for name, orig in targets.items():
            if val is orig:
                slots.append((name, space, attr, None))
            elif isinstance(val, dict):
                slots += [(name, space, attr, k) for k, v in val.items() if v is orig]
Tracer().install()
held, unwrapped = {name: [] for name in targets}, []
for name, space, attr, key in slots:
    where = f"{space.__name__}.{attr}" + ("" if key is None else f"[{key}]")
    held[name].append(where)
    now = getattr(space, attr) if key is None else getattr(space, attr)[key]
    if getattr(now, "__wrapped__", None) is not targets[name]:
        unwrapped.append(where)
print(json.dumps({"held": held, "unwrapped": unwrapped}))
"""


def test_install_wraps_every_namespace_that_holds_an_entry_point(tracing):
    src = str(_ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", _INSTALL_CHECK, str(_TRACING.parent)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    out = json.loads(run.stdout.splitlines()[-1])
    assert out["unwrapped"] == []
    held = out["held"]
    for mod, fn, _ in tracing.ENTRY_POINTS:
        assert f"lproth.{mod}.{fn}" in held[f"lproth.{mod}.{fn}"]
    for key, f in cli._SUITE_FNS.items():
        name = f"lproth.claims.{f.__name__}"
        assert {name, f"lproth.cli._SUITE_FNS[{key}]"} <= set(held[name])
