"""Seeded experiment driver with JSON reports and CSV curve sidecars.

This module holds the config, the runner and the I/O.  Every record and
curve comes from a suite function in ``lproth.claims``, a pure function of
the config.  ``run_suite`` runs the suites of ``verify-all`` on a fork
process pool, one worker per usable CPU, and merges their records and
curves in ``_SUITE_FNS`` order.  The report has the same bits as when one
process runs the suites in turn, as it does for a single suite, on one
CPU, where ``os.sched_getaffinity`` is missing (the pool forks only on
Linux) and when a suite function is wrapped in this process.  Every report record names the claim it checks through a stable
anchor slug; ``lint_report`` rejects a malformed or anchorless record
(exit 3, nothing written), and the tests check every suite's whole report
against ``REPORT_SCHEMA``, which ``lproth schema`` prints.  All numerics are fully
determined by (config, seed); wall-clock data is isolated in a single
``timing`` subtree so reports can be byte-compared with it masked.

Exit codes: 0 all checks passed, 1 usage/validation error, 2 at least one
check failed, 3 internal failure (budget, quadrature or a malformed record).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import numbers
import os
import sys
import tempfile
import time
import typing
from dataclasses import dataclass

import numpy as np

from . import claims, forms, gowers, lpgeom, util

# each suite is a pure function of the config: (records, curves), reported in this order
_SUITE_FNS = {
    "kernels": claims.kernels_suite,
    "gowers": claims.gowers_suite,
    "forms": claims.forms_suite,
    "oscillatory": claims.oscillatory_suite,
    "counterexamples": claims.counterexamples_suite,
    "search": claims.search_suite,
}
SUITES = (*_SUITE_FNS, "verify-all")
# the suites as the pool takes them, longest first, so that the short ones fill in behind
_POOL_ORDER = ("oscillatory", "search", "gowers", "counterexamples", "forms", "kernels")

REPORT_SCHEMA = {
    "type": "object",
    "required": ["format", "config", "records", "summary", "timing"],
    "properties": {
        "format": {"type": "integer", "const": 1},
        "config": {"type": "object"},
        "timing": {
            "type": "object",
            "required": ["timestamp", "runtimes_s"],
            "properties": {
                "timestamp": {"type": "string"},
                "runtimes_s": {"type": "object"},
            },
        },
        "records": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "anchor", "values", "bound", "passed"],
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "anchor": {"type": "string", "minLength": 1},
                    "values": {"type": "object"},
                    "bound": {"anyOf": [{"type": ["null", "number"]},
                                        {"type": "array", "items": {"type": "number"},
                                         "minItems": 2, "maxItems": 2}]},
                    "passed": {"type": "boolean"},
                },
            },
        },
        "summary": {
            "type": "object",
            "required": ["n_records", "n_pass", "n_fail", "worst_margin", "worst_record"],
            "properties": {"worst_margin": {"type": ["number", "null"]},
                           "worst_record": {"type": ["string", "null"]}},
        },
    },
}


# the forms suite's grid needs ceil(512 p) cells; this limit admits p <= 512
_FORM_MAX_CELLS = 1 << 18


@dataclass
class ExperimentConfig:
    suite: str
    p: float = 1.5
    d: int = 1
    epsilon: float = 0.05
    seed: int = 7
    out_dir: str = "lproth-out"
    fmt: str = "json"
    quad_nodes: int = 2048
    kl_nodes: int = 24
    spectrum_hits: int = 2000
    search_budget: int = 200000
    trials: int = 8
    grid_m: int = 512

    def validate(self) -> None:
        if self.suite not in SUITES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        for name, typ in _FIELD_TYPES.items():
            value = getattr(self, name)
            if typ is int and not isinstance(value, numbers.Integral):
                raise ConfigError(f"{name} must be an integer: {value!r}")
            if typ is int and name not in ("seed", "d") and value < 1:
                raise ConfigError(f"{name} must be at least 1: {value}")
        try:
            lpgeom.valid_exponent(self.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.p in lpgeom.DEGENERATE_P and self.suite in ("search", "verify-all"):
            raise ConfigError(
                f"p={self.p} is degenerate and rejected by suite {self.suite!r}")
        if self.d not in (1, 2):
            raise ConfigError(f"d out of range: {self.d} (the kernels suite runs d in {{1, 2}})")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")
        if self.suite in ("gowers", "verify-all"):
            try:
                M_min = gowers.min_shell_grid(min(claims._U3_ETAS), claims._U3_EPS, self.p)
            except ValueError as exc:
                raise ConfigError(f"p={self.p} is out of range for suite {self.suite!r}: {exc}")
            need = math.ceil(M_min / claims._U3_OVERSAMPLE)
            if self.grid_m < need:
                raise ConfigError(
                    f"grid_m={self.grid_m} under-resolves the eta={min(claims._U3_ETAS)} shell "
                    f"at p={self.p}: the minimum is grid_m={need}")
        if self.suite in ("forms", "verify-all"):
            try:
                cells = forms.resolved_grid(claims._FORM_N, claims._FORM_LAM, claims._FORM_EPS,
                                            self.p)[0]
            except ValueError:  # N / h overflows
                cells = math.inf
            if cells > _FORM_MAX_CELLS:
                raise ConfigError(
                    f"p={self.p} is out of range for suite {self.suite!r}: the forms grid "
                    f"needs more than the limit of {_FORM_MAX_CELLS} cells (p <= 512)")
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigError(f"epsilon out of range: {self.epsilon}")
        if self.epsilon == 1.0 and self.suite in ("oscillatory", "verify-all"):
            raise ConfigError(f"epsilon=1 leaves suite {self.suite!r} nothing to audit: "
                              "omega_eps - c1 omega_1 is identically zero, since c1(1) = 1")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")
        if not self.out_dir or (os.path.exists(self.out_dir) and not os.path.isdir(self.out_dir)):
            raise ConfigError(f"output directory is not usable: {self.out_dir!r}")


class ConfigError(ValueError):
    pass


# field name -> str, int or float, resolved from the dataclass annotations
_FIELD_TYPES = typing.get_type_hints(ExperimentConfig)
# run flags not spelled as their field name; every other flag is --field-name
_FLAG_NAMES = {"out_dir": "--out", "fmt": "--format"}


def read_config_file(path: str) -> dict:
    """Flat key = value lines, # comments, unknown keys rejected."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key = value")
            key, raw = (s.strip() for s in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            try:
                out[key] = _FIELD_TYPES[key](raw)
            except ValueError:
                raise ConfigError(f"{path}:{lineno}: cannot parse value for {key!r}") from None
    return out


def parse_config(argv) -> tuple[str, ExperimentConfig | None]:
    """(command, config); flags override file values override defaults."""
    ap = argparse.ArgumentParser(prog="lproth", add_help=True)
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run")
    run.add_argument("--config")
    # one flag per config field; ExperimentConfig.validate checks the values
    for key, typ in _FIELD_TYPES.items():
        run.add_argument(_FLAG_NAMES.get(key, "--" + key.replace("_", "-")), dest=key, type=typ)
    sub.add_parser("list")
    sub.add_parser("schema")
    ns = ap.parse_args(argv)
    if ns.command != "run":
        return ns.command, None
    values = read_config_file(ns.config) if ns.config else {}
    values.update((key, getattr(ns, key)) for key in _FIELD_TYPES if getattr(ns, key) is not None)
    if not values.get("suite"):
        raise ConfigError("missing required --suite")
    cfg = ExperimentConfig(**values)
    cfg.validate()
    return "run", cfg


def lint_report(report: dict) -> None:
    """Reject a malformed or anchorless record before the report is written.

    A missing required key reads as ``...`` and fails; numpy scalars count as numbers
    and tuples as arrays, as in the JSON written.  Tests check the rest against REPORT_SCHEMA."""
    def is_number(x) -> bool:
        return isinstance(x, numbers.Real) and not isinstance(x, bool)

    for rec in report["records"]:
        name, anchor, bound = (rec.get(key, ...) for key in ("name", "anchor", "bound"))
        if not (isinstance(name, str) and name and isinstance(anchor, str) and anchor.strip()
                and isinstance(rec.get("values"), dict) and isinstance(rec.get("passed"), bool)
                and (bound is None or is_number(bound) or isinstance(bound, (list, tuple))
                     and len(bound) == 2 and all(map(is_number, bound)))):
            raise ValueError(f"record {name!r} is malformed or lacks a claim anchor: {rec!r}")
    margin, worst = (report["summary"].get(key, ...) for key in ("worst_margin", "worst_record"))
    if not (margin is None or is_number(margin)) or not (worst is None or isinstance(worst, str)):
        raise ValueError(f"malformed summary: worst_margin {margin!r}, worst_record {worst!r}")


def _json_default(o):
    if isinstance(o, (np.generic, np.ndarray)):  # numpy scalars, bools included, and arrays
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def _timed_suite(suite: str, cfg: ExperimentConfig) -> tuple[list, list, float]:
    """One suite's (records, curves, runtime in s), timed in the process that runs it."""
    t0 = time.perf_counter()
    records, curves = _SUITE_FNS[suite](cfg)
    return records, curves, round(time.perf_counter() - t0, 3)


def _pooled_suites(cfg: ExperimentConfig, workers: int) -> dict:
    """suite -> _timed_suite's triple for every suite, on a pool of forked workers.

    A failure is raised in ``_SUITE_FNS`` order once every worker has ended."""
    import multiprocessing
    from concurrent.futures.process import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = {suite: pool.submit(_timed_suite, suite, cfg) for suite in _POOL_ORDER}
        return {suite: futures[suite].result() for suite in _SUITE_FNS}


def run_suite(cfg: ExperimentConfig) -> tuple[dict, list, int]:
    """Execute the configured suite; returns (report, curves, exit_code)."""
    names = list(_SUITE_FNS) if cfg.suite == "verify-all" else [cfg.suite]
    workers = min(util.usable_cpus(), len(names))
    # The pool forks, so it runs only where os.sched_getaffinity is (Linux): Windows cannot
    # fork, and macOS forks unsafely once a system library such as LAPACK has run.  A suite
    # function wrapped in this process (a tracer's or a profiler's wrapper) runs in turn as
    # well, since what the wrapper records in a forked worker dies with the worker.
    pooled = workers > 1 and hasattr(os, "sched_getaffinity") and not any(
        hasattr(_SUITE_FNS[suite], "__wrapped__") for suite in names)
    results = (_pooled_suites(cfg, workers) if pooled
               else {suite: _timed_suite(suite, cfg) for suite in names})
    records, curves = [], []
    runtimes = {}
    for suite in names:
        suite_records, suite_curves, runtimes[suite] = results[suite]
        records += suite_records
        curves += suite_curves
    n_fail = sum(1 for c in records if not c.passed)
    worst = min((c for c in records if not math.isnan(c.margin)), key=lambda c: c.margin,
                default=None)
    report = {
        "format": 1,
        "config": dataclasses.asdict(cfg),
        "timing": {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), "runtimes_s": runtimes},
        "records": [
            {"name": c.name, "anchor": c.anchor, "values": c.values,
             "bound": c.bound, "passed": bool(c.passed)}
            for c in records
        ],
        "summary": {
            "n_records": len(records),
            "n_pass": len(records) - n_fail,
            "n_fail": n_fail,
            "worst_margin": worst.margin if worst else None,
            "worst_record": worst.name if worst else None,
        },
    }
    lint_report(report)
    return report, curves, (0 if n_fail == 0 else 2)


def write_report_atomic(report: dict, out_dir: str, fmt: str = "json") -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"report.{fmt}")
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            if fmt == "csv":
                table = csv.writer(fh, lineterminator="\n")
                table.writerow(["name", "anchor", "passed", "bound", "values"])
                table.writerows(
                    [rec["name"], rec["anchor"], rec["passed"],
                     json.dumps(rec["bound"], default=_json_default),
                     json.dumps(rec["values"], default=_json_default, sort_keys=True)]
                    for rec in report["records"])
            else:
                json.dump(report, fh, indent=2, default=_json_default, sort_keys=True)
                fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _csv_cell(v) -> str:
    return v if isinstance(v, str) else format(float(v), ".17e")


def emit_csv(curves: list, out_dir: str) -> list:
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for filename, header, rows in curves:
        path = os.path.join(out_dir, filename)
        with open(path, "w", newline="") as fh:
            table = csv.writer(fh, lineterminator="\n")
            table.writerow(header)
            table.writerows([_csv_cell(v) for v in row] for row in rows)
        written.append(path)
    return written


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        command, cfg = parse_config(argv)
    except ConfigError as exc:
        print(f"lproth: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    if command == "list":
        for s in SUITES:
            print(s)
        return 0
    if command == "schema":
        print(json.dumps(REPORT_SCHEMA, indent=2, sort_keys=True))
        return 0
    try:
        report, curves, code = run_suite(cfg)
        path = write_report_atomic(report, cfg.out_dir, fmt=cfg.fmt)
        written = emit_csv(curves, cfg.out_dir)
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"lproth: internal failure: {exc}", file=sys.stderr)
        return 3
    print(f"report: {path}")
    for w in written:
        print(f"curve: {w}")
    print(f"records: {report['summary']['n_records']} "
          f"pass: {report['summary']['n_pass']} fail: {report['summary']['n_fail']}")
    return code


if __name__ == "__main__":
    sys.exit(main())
