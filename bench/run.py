"""lproth benchmark: seeded workloads, end-to-end metrics, traced per-layer metrics.

Run from the root of a source checkout::

    python3 bench/run.py --workload verify-all --seed 7 --seconds 60 --trace 0

Workloads (see ``workloads.py``):

* ``verify-all``: ``lproth run --suite verify-all`` at the default config,
  the only workload that reaches every layer and the CLI itself.
* ``counting-forms``: the sharp form ``n_lambda`` on a 2048^2 grid next to
  the lattice triple sums of ``M_eps - c1 M - E`` and a full-box
  ``m_eps_lambda``, all in ``forms``.

A closed loop, one client: each repeat is a fresh interpreter started only
after the previous one ended, with ``src/`` on ``PYTHONPATH`` and the BLAS
and OpenMP thread counts at most ``nproc``.  ``--seconds`` covers the whole
run.  Untraced runs first sample set-up with ``SETUP_PROBES`` processes that
stop at the start of the timed region; then repeats run while the next one is
expected to end within ``--seconds`` of the start (at least one).  A single
repeat takes 8-25 s and the host's speed drifts over tens of seconds, so the
run is long rather than the repeats many.  ``--trace 1`` alternates untraced
and traced repeats (at least one each) and reports the traced repeats'
per-layer metrics, plus ``trace_overhead_s``, the traced minus the untraced
median wall time.

Each repeat's result passes a correctness gate outside the timed region; a
repeat whose result digest differs from the first repeat's also counts as a
failed check.  The last stdout line is the result object; the line before
it gives quartiles, sample counts, ``failed_frac`` and provenance.  Spans of
traced repeats are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-all", "counting-forms")
SETUP_PROBES = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# A run must end within 180 s; repeats still running at this age are killed.
RUN_LIMIT_S = 175.0


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for ``kind``."""
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def git_commit() -> str:
    """HEAD of the checkout from ``.git`` files, or "unknown" outside a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def summary(values: list[float]) -> dict:
    """Median, quartiles and sample count."""
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3, "samples": len(values)}


class Runner:
    """Starts the repeat processes of one benchmark run, one at a time."""

    def __init__(self, workload: str, seed: int, scratch: str, env: dict):
        self.workload = workload
        self.seed = seed
        self.scratch = scratch
        self.env = env
        self.limit = time.monotonic() + RUN_LIMIT_S

    def repeat(self, mode: str, spans: str | None = None) -> dict:
        cmd = [sys.executable, str(HERE / "repeat.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--mode", mode, "--scratch", self.scratch]
        if spans:
            cmd += ["--spans", spans]
        spawned = time.monotonic()
        proc = subprocess.run(cmd + ["--spawned", repr(spawned)], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=self.limit - spawned)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"bench: {mode} repeat of {self.workload} exited "
                             f"with {proc.returncode}")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        out["elapsed_s"] = time.monotonic() - spawned
        return out


def thread_env(nproc: int) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = str(min(nproc, int(env.get(var) or nproc)))
    return env


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "lproth" / "__init__.py").is_file():
        print(f"bench: no lproth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = thread_env(nproc)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="scratch-", dir=out_dir)
    try:
        runner = Runner(args.workload, args.seed, scratch, env)
        deadline = time.monotonic() + args.seconds
        # set-up is only reported untraced, so traced runs skip the probes
        setups = [runner.repeat("setup")["setup_s"]
                  for _ in range(0 if args.trace else SETUP_PROBES)]
        modes = ("plain", "traced") if args.trace else ("plain",)
        repeats = []
        while (len(repeats) < len(modes) or time.monotonic()
               + max(r["elapsed_s"] for r in repeats) <= deadline):
            mode = modes[len(repeats) % len(modes)]
            spans = str(out_dir / f"spans-{args.workload}-seed{args.seed}-{len(repeats)}.json")
            repeats.append(runner.repeat(mode, spans if mode == "traced" else None))
            repeats[-1]["mode"] = mode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    first = repeats[0]["digest"]
    attempted = failed = 0
    failures = []
    for i, r in enumerate(repeats):
        checks = r["checks"] + [["same-digest-as-first-repeat", r["digest"] == first]]
        attempted += len(checks)
        for name, ok in checks:
            if not ok:
                failed += 1
                failures.append(f"repeat {i}: {name}")

    plain = [r for r in repeats if r["mode"] == "plain"]
    setups += [r["setup_s"] for r in plain]
    samples = {"wall_s": [r["wall_s"] for r in plain], "setup_s": setups,
               "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
    if args.trace:
        traced = [r for r in repeats if r["mode"] == "traced"]
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        layers["trace_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - statistics.median(samples["wall_s"]))
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in declared("per_layer").items()}
    else:
        metrics = {name: {"value": statistics.median(samples[name]), "unit": unit}
                   for name, unit in declared("end_to_end").items()}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "repeats": len(repeats),
        "failed_frac": failed / attempted,
        "failures": failures,
        "timings": {name: summary(vals) for name, vals in samples.items()},
        "provenance": {
            "nproc": nproc,
            **repeats[0]["versions"],
            "commit": git_commit(),
            "threads": {var: env[var] for var in THREAD_VARS},
        },
    }
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
