"""In-memory span tracer around the coarse entry points of each lproth layer.

``Tracer.install`` rebinds every entry point in ``ENTRY_POINTS`` to a timing
wrapper in each loaded ``lproth`` namespace that holds it: the defining
module, modules that imported it by name, the package re-exports and
module-level dicts such as ``cli._SUITE_FNS``.  Per-point evaluators that
``scipy.integrate.quad`` calls thousands of times are deliberately absent.

A span records its name, start, end, the id of the span that was open when
it started, and work counts derived from the call's arguments and return
value only.  Self time is a span's duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, fields, is_dataclass

LAYERS = ("cli", "oscillatory", "gowers", "forms", "lpgeom", "mollifier", "sets")


def _p_of(p) -> float:
    return float(getattr(p, "p", p))


def _arg_key(args: dict) -> str:
    """Stable identity of a call's arguments; opaque objects count by type only."""

    def key(v):
        if v is None or isinstance(v, (bool, int, float, str)):
            return repr(v)
        if isinstance(v, (tuple, list)):
            return "(" + ",".join(key(x) for x in v) + ")"
        if is_dataclass(v) and all(
                isinstance(getattr(v, f.name), (bool, int, float, str)) for f in fields(v)):
            return repr(v)
        return type(v).__name__

    return ";".join(f"{k}={key(v)}" for k, v in args.items())


def _i_of_t_counts(a, out):
    return {"kl_cells": a["n_kl"] ** 2, "p": _p_of(a["p"]), "t": float(a["t"])}


def _u3_counts(a, out):
    return {"shifts": a["F"].M ** a["F"].d}


def _n_lambda_counts(a, out):
    return {"node_cells": len(a["quad"].nodes) * a["f"].n ** a["f"].d}


def _key_counts(a, out):
    return {"key": _arg_key(a)}


def _search_counts(a, out):
    return {"proposals": int(out.proposals_used)}


def _spectrum_counts(a, out):
    return {"proposals": int(out.proposals_used), "hits": len(out.gaps)}


# (module, function, counts from (bound arguments, return value) or None)
ENTRY_POINTS = (
    ("cli", "run_suite", None),
    ("cli", "lint_report", None),
    ("cli", "write_report_atomic", None),
    ("cli", "emit_csv", None),
    ("oscillatory", "i_of_t", _i_of_t_counts),
    ("oscillatory", "build_transform_table", None),
    ("oscillatory", "stationary_lower_bound_check", None),
    ("gowers", "u3_eighth_recursive", _u3_counts),
    ("gowers", "u3_eighth_brute", None),
    ("forms", "n_lambda", _n_lambda_counts),
    ("forms", "m_eps_lambda", None),
    ("forms", "e_lambda", None),
    ("lpgeom", "sphere_quadrature", _key_counts),
    ("mollifier", "kernel_fourier", None),
    ("mollifier", "kernel_total_mass", _key_counts),
    ("sets", "progression_search", _search_counts),
    ("sets", "gap_spectrum_sample", _spectrum_counts),
)

# The per-suite check builders in cli._SUITE_FNS share one span name.
SUITE_CHECKS = "cli.suite_checks"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    counts: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.enabled = False
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, name: str, fn, counts=None):
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            span = Span(sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0, {})
            self._stack.append(sid)
            span.start = self.clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
                self.spans.append(span)
            if counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = counts(bound.arguments, out)
            return out

        return traced

    def install(self) -> None:
        """Rebind every entry point in each loaded lproth namespace that holds it."""
        from lproth import cli

        spaces = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "lproth" or n.startswith("lproth."))]
        plan = [(getattr(sys.modules[f"lproth.{mod}"], fn), f"{mod}.{fn}", counts)
                for mod, fn, counts in ENTRY_POINTS]
        plan += [(fn, SUITE_CHECKS, None) for fn in cli._SUITE_FNS.values()]
        for orig, name, counts in plan:
            wrapper = self.wrap(name, orig, counts)
            for space in spaces:
                for attr, val in list(vars(space).items()):
                    if val is orig:
                        setattr(space, attr, wrapper)
                    elif isinstance(val, dict):
                        for k, v in list(val.items()):
                            if v is orig:
                                val[k] = wrapper


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> its duration minus the durations of its direct children."""
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.duration
    return {s.id: s.duration - covered[s.id] for s in spans}


def _loglog_slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log y against log x; 0.0 with fewer than two distinct x."""
    if len(set(xs)) < 2:
        return 0.0
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    sxx = sum((x - mx) ** 2 for x in lx)
    return sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sxx


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced repeat whose timed region took ``wall_s``."""
    own = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_s(name):
        return sum(own[s.id] for s in by_name[name])

    def total(name, key):
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def distinct_ratio(name):
        calls = len(by_name[name])
        return _ratio(len({s.counts["key"] for s in by_name[name]}), calls)

    out = {f"{layer}.self_s": sum(own[s.id] for s in spans if s.name.split(".")[0] == layer)
           for layer in LAYERS}
    for mod, fn, _ in ENTRY_POINTS:
        out[f"{mod}.{fn}.self_s"] = self_s(f"{mod}.{fn}")
    out[f"{SUITE_CHECKS}.self_s"] = self_s(SUITE_CHECKS)

    name = "oscillatory.i_of_t"
    cells = total(name, "kl_cells")
    # at p = 1, 2 the Simpson grid has a fixed size, elsewhere it grows with t
    growing = [s for s in by_name[name] if s.counts["p"] not in (1.0, 2.0)]
    out.update({
        f"{name}.calls": len(by_name[name]),
        f"{name}.kl_cells": cells,
        f"{name}.us_per_cell": _ratio(1e6 * self_s(name), cells),
        f"{name}.t_cost_slope": _loglog_slope([s.counts["t"] for s in growing],
                                              [own[s.id] for s in growing]),
    })
    name = "gowers.u3_eighth_recursive"
    shifts = total(name, "shifts")
    out.update({
        f"{name}.calls": len(by_name[name]),
        f"{name}.shifts": shifts,
        f"{name}.us_per_shift": _ratio(1e6 * self_s(name), shifts),
    })
    name = "forms.n_lambda"
    node_cells = total(name, "node_cells")
    out.update({
        f"{name}.node_cells": node_cells,
        f"{name}.ns_per_node_cell": _ratio(1e9 * self_s(name), node_cells),
    })
    for name in ("lpgeom.sphere_quadrature", "mollifier.kernel_total_mass"):
        out[f"{name}.calls"] = len(by_name[name])
        out[f"{name}.distinct_ratio"] = distinct_ratio(name)
    out["sets.progression_search.proposals"] = total("sets.progression_search", "proposals")
    name = "sets.gap_spectrum_sample"
    proposals = total(name, "proposals")
    out[f"{name}.proposals"] = proposals
    out[f"{name}.hit_ratio"] = _ratio(total(name, "hits"), proposals)

    top = sum(s.duration for s in spans if s.parent is None)
    out["untraced_s"] = wall_s - top
    out["spans"] = len(spans)
    return out
