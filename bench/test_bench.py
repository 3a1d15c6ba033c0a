"""Self-checks of the benchmark harness.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from tracing import Span, Tracer, layer_metrics, self_times  # noqa: E402

COUNT_SUFFIXES = (".calls", ".kl_cells", ".shifts", ".node_cells", ".proposals",
                  ".hit_ratio", ".distinct_ratio")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def test_self_time_on_synthetic_nested_call():
    ticks = iter(float(t) for t in range(100))
    tracer = Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("forms.inner", lambda: None)

    def body():
        inner()
        next(ticks)  # one tick of the outer span's own work
        inner()

    outer = tracer.wrap("cli.outer", body)
    tracer.enabled = True
    outer()
    spans = {s.name: s for s in tracer.spans}
    # outer spans 0..6 and its two inner calls 1..2 and 4..5.
    assert [(s.start, s.end) for s in tracer.spans] == [(1, 2), (4, 5), (0, 6)]
    assert all(s.parent == spans["cli.outer"].id for s in tracer.spans[:2])
    own = self_times(tracer.spans)
    assert own[spans["cli.outer"].id] == 4.0
    assert [own[s.id] for s in tracer.spans[:2]] == [1.0, 1.0]
    m = layer_metrics(tracer.spans, wall_s=10.0)
    assert m["cli.self_s"] == 4.0 and m["forms.self_s"] == 2.0
    assert m["untraced_s"] == 4.0


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    f = tracer.wrap("forms.f", lambda x: 2 * x)
    assert f(3) == 6
    assert tracer.spans == []


def test_untraced_share_excludes_nested_spans():
    spans = [Span(0, None, "cli.run_suite", 0.0, 5.0, {}),
             Span(1, 0, "forms.e_lambda", 1.0, 2.0, {}),
             Span(2, None, "sets.progression_search", 6.0, 7.0, {"proposals": 3})]
    m = layer_metrics(spans, wall_s=8.0)
    assert m["untraced_s"] == pytest.approx(2.0)
    assert m["cli.run_suite.self_s"] == pytest.approx(4.0)
    assert m["sets.progression_search.proposals"] == 3


def test_declared_names_match_the_harness():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(WORKLOADS)
    reported = set(layer_metrics([], wall_s=1.0)) | {"trace_overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= reported


def test_install_rebinds_every_namespace():
    code = (
        "import lproth\n"
        "from lproth import cli, lpgeom, sets, oscillatory\n"
        "from tracing import Tracer\n"
        "orig = lpgeom.sphere_quadrature\n"
        "Tracer().install()\n"
        "assert lpgeom.sphere_quadrature is not orig\n"
        "assert sets.sphere_quadrature is lpgeom.sphere_quadrature\n"
        "assert lproth.sphere_quadrature is lpgeom.sphere_quadrature\n"
        "assert lproth.i_of_t is oscillatory.i_of_t\n"
        "assert all(hasattr(f, '__wrapped__') for f in cli._SUITE_FNS.values())\n"
    )
    subprocess.run([sys.executable, "-c", code], cwd=HERE, env=_env(), check=True, timeout=60)


def _traced_counts(seed: int, tmp_path: Path, tag: str) -> dict:
    spans = tmp_path / f"spans-{tag}.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "repeat.py"), "--workload", "verify-all", "--seed", str(seed),
         "--spawned", repr(time.monotonic()), "--mode", "traced", "--scratch", str(tmp_path),
         "--spans", str(spans)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=170, check=True)
    out = json.loads(proc.stdout.splitlines()[-1])
    assert all(ok for _, ok in out["checks"])
    return {k: v for k, v in out["layers"].items() if k.endswith(COUNT_SUFFIXES) or k == "spans"}


def test_work_counts_repeat_exactly_for_one_seed(tmp_path):
    first = _traced_counts(3, tmp_path, "a")
    second = _traced_counts(3, tmp_path, "b")
    assert first == second
    assert first["oscillatory.i_of_t.kl_cells"] > 0
    assert first["gowers.u3_eighth_recursive.shifts"] > 0
    assert first["forms.n_lambda.node_cells"] > 0
    assert first["sets.progression_search.proposals"] > 0
    assert 0.0 < first["sets.gap_spectrum_sample.hit_ratio"] <= 1.0
