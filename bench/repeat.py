"""One repeat of one workload, in a fresh interpreter; prints one JSON line.

Usage (normally started by ``run.py``)::

    python3 bench/repeat.py --workload NAME --seed N --spawned T --mode MODE --scratch DIR

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process, so ``setup_s`` runs from a fresh interpreter to the start of
the timed region.  ``--mode setup`` stops there; ``plain`` runs the timed
region untraced; ``traced`` runs it with spans recorded and writes them to
``--spans``.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import time
from dataclasses import asdict


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--scratch", required=True)
    ap.add_argument("--spans")
    args = ap.parse_args()

    import numpy as np
    import scipy
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    work = WORKLOADS[args.workload]
    inputs = work.setup(args.seed, args.scratch)
    tracer = Tracer()
    if args.mode == "traced":
        tracer.install()
    setup_s = time.monotonic() - args.spawned
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return

    tracer.enabled = args.mode == "traced"
    t0 = time.perf_counter()
    result = work.run(inputs)
    wall_s = time.perf_counter() - t0
    tracer.enabled = False

    checks, digest = work.gate(inputs, result)
    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "checks": checks,
        "digest": digest,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
    }
    if args.mode == "traced":
        out["layers"] = layer_metrics(tracer.spans, wall_s)
        with open(args.spans, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "wall_s": wall_s,
                       "spans": [asdict(s) for s in tracer.spans]}, fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
