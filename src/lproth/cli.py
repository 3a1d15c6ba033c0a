"""Seeded experiment driver with JSON reports and CSV curve sidecars.

Every report record names the claim it checks through a stable anchor
slug; a report without an anchored record fails the built-in linter and
is never written.  All numerics are fully determined by (config, seed);
wall-clock data is isolated in a single ``timing`` subtree so reports can
be byte-compared with that subtree masked.

Exit codes: 0 all checks passed, 1 usage/validation error, 2 at least one
check failed, 3 internal failure (budget or quadrature).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import operator
import os
import sys
import tempfile
import time
import typing
from dataclasses import dataclass

import numpy as np

from . import forms, gowers, lpgeom, mollifier, oscillatory, sets
from .util import spawn_rng

SUITES = ("kernels", "gowers", "forms", "oscillatory", "counterexamples", "search", "verify-all")

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
            "required": ["n_records", "n_pass", "n_fail", "worst_margin"],
            "properties": {"worst_margin": {"type": ["number", "null"]},
                           "worst_record": {"type": ["string", "null"]}},
        },
    },
}


# shell widths of the gowers suite's U^3 distance probe; the cyclic grid
# has _U3_OVERSAMPLE * grid_m cells per axis
_U3_ETAS = (0.05, 0.025)
_U3_EPS = 0.1
_U3_OVERSAMPLE = 8


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
        if not (math.isfinite(self.p) and self.p >= 1.0):
            raise ConfigError(f"p out of range: {self.p}")
        if self.p in (1.0, 2.0) and self.suite in ("search", "verify-all"):
            raise ConfigError(
                f"p={self.p} is degenerate and rejected by suite {self.suite!r}")
        if self.d not in (1, 2):
            raise ConfigError(f"d out of range: {self.d} (the kernels suite runs d in {{1, 2}})")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative: {self.seed}")
        for name in ("quad_nodes", "kl_nodes", "spectrum_hits", "search_budget", "trials",
                     "grid_m"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1: {getattr(self, name)}")
        if self.suite in ("gowers", "verify-all"):
            try:
                M_min = gowers.min_shell_grid(min(_U3_ETAS), _U3_EPS, self.p)
            except ValueError as exc:
                raise ConfigError(f"p={self.p} is out of range for suite {self.suite!r}: {exc}")
            need = math.ceil(M_min / _U3_OVERSAMPLE)
            if self.grid_m < need:
                raise ConfigError(
                    f"grid_m={self.grid_m} under-resolves the eta={min(_U3_ETAS)} shell "
                    f"at p={self.p}: the minimum is grid_m={need}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ConfigError(f"epsilon out of range: {self.epsilon}")
        if self.fmt not in ("json", "csv"):
            raise ConfigError(f"unknown format {self.fmt!r}")


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


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


@dataclass
class Check:
    name: str
    anchor: str
    values: dict
    bound: object
    passed: bool
    margin: float = float("nan")


_COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge,
            "==": operator.eq}


def _check(name: str, anchor: str, values: dict, x, op: str, bound,
           requires: bool = True) -> Check:
    """The record of the claim ``x op bound``; a failed precondition ``requires`` fails it.

    ``op``: upper bound ``<``/``<=``, lower bound ``>``/``>=``, exact ``==``,
    or closed band ``in`` with ``bound = [lo, hi]``.  The margin is the
    slack relative to the bound: (b - x)/|b|, (x - b)/|b|, or the slack to
    the nearer end over (hi - lo); exact checks, zero bounds (no scale) and
    failed preconditions have none.  Boolean properties are ``Check(..., None, ok)``.
    """
    if op == "in":
        lo, hi = bound
        passed = lo <= x <= hi
        margin = min(x - lo, hi - x) / (hi - lo)
    else:
        passed = _COMPARE[op](x, bound)
        slack = bound - x if op in ("<", "<=") else x - bound
        margin = slack / abs(bound) if op != "==" and bound != 0.0 else math.nan
    return Check(name, anchor, values, bound, bool(requires and passed),
                 margin if requires else math.nan)


class SuiteContext:
    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.m = mollifier.build_mollifier()
        self.curves: list[tuple[str, list[str], list[list]]] = []

    def curve(self, filename, header, rows):
        self.curves.append(
            (filename, header,
             [[v if isinstance(v, str) else float(v) for v in r] for r in rows]))


def _kernels_checks(ctx: SuiteContext) -> list[Check]:
    cfg, m = ctx.cfg, ctx.m
    p, d, eps = cfg.p, cfg.d, cfg.epsilon
    out = []
    psi0 = float(m.psi(np.array([0.0]))[0])
    out.append(_check("window value at zero", "window-normalization",
                      {"psi0": psi0}, abs(psi0 - 1.0), "<", 1e-12))
    edge = float(m.psi_hat(np.array([2.5]))[0])
    out.append(_check("transform support edge", "window-band-support",
                      {"psi_hat_2p5": edge}, edge, "==", 0.0))
    direct = mollifier.omega_eps_direct_oscillatory(np.zeros(1) + 1.0, mollifier.KernelParams(p, 1, 1.0, 1.0), m)
    closed = mollifier.omega_eps_eval(np.array([1.0]), mollifier.KernelParams(p, 1, 1.0, 1.0), m)
    out.append(_check("closed form vs oscillatory form", "kernel-closed-vs-oscillatory",
                      {"direct": direct, "closed": closed}, abs(direct - closed), "<", 1e-4))
    masses = [mollifier.kernel_total_mass(mollifier.KernelParams(p, d, 1.0, e), m)
              for e in (0.04, 0.02, 0.01, 0.005)]
    ratio = max(masses) / min(masses)
    out.append(_check("kernel mass band", "kernel-mass-band",
                      {"masses": masses, "ratio": ratio}, ratio, "<", 1.5))
    c11 = mollifier.c1_eps(1.0, p, d, m)
    out.append(_check("unit mass ratio", "mass-ratio-unit", {"c1_at_1": c11}, c11, "==", 1.0))
    c1e = mollifier.c1_eps(eps, p, d, m)
    out.append(_check("mass ratio band", "mass-ratio-band", {"c1": c1e}, c1e, "in", [0.1, 10.0]))
    kern = mollifier.build_cancelled_kernel(mollifier.KernelParams(p, d, 1.0, eps), m)
    resid = abs(kern.total_integral())
    ref = mollifier.kernel_total_mass(mollifier.KernelParams(p, d, 1.0, eps), m)
    out.append(_check("cancelled kernel integral", "cancellation-integral",
                      {"residual": resid, "reference": ref}, resid, "<=", 1e-6 * ref))
    k0 = mollifier.kernel_fourier(np.zeros(1), mollifier.KernelParams(p, 1, 1.0, eps), m)
    out.append(_check("transform vanishes at origin", "transform-zero-at-origin",
                      {"k_hat_0": abs(k0)}, abs(k0), "<", 1e-8))
    lam_j = 2.0
    etas = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    kv = [abs(mollifier.kernel_fourier(np.array([e]), mollifier.KernelParams(p, 1, lam_j, eps), m))
          for e in etas]
    cslope = max(v / (lam_j * e) for v, e in zip(kv, etas))
    out.append(Check("small frequency slope", "transform-small-frequency-slope",
                     {"C_fit": cslope, "samples": kv}, None, np.isfinite(cslope)))
    rng = spawn_rng(cfg.seed, 23)
    pts = rng.uniform(-1.3, 1.3, size=(32, d))
    v1 = mollifier.omega_eps_eval(pts, mollifier.KernelParams(p, d, 1.0, eps), m)
    flip = pts.copy(); flip[:, 0] *= -1.0
    v2 = mollifier.omega_eps_eval(flip, mollifier.KernelParams(p, d, 1.0, eps), m)
    refl = float(np.max(np.abs(v1 - v2)))
    out.append(_check("reflection invariance", "kernel-reflection-invariance",
                      {"max_dev": refl}, refl, "==", 0.0))
    # weak limit vs sphere rule carries the explicit 2 pi of the line-integral normalization
    rule = lpgeom.sphere_quadrature(p, d, 1.0, n=cfg.quad_nodes)
    target = 2.0 * math.pi * rule.total_mass
    mass_small = mollifier.kernel_total_mass(mollifier.KernelParams(p, d, 1.0, 0.005), m)
    out.append(_check("weak limit of shell kernels", "kernel-weak-limit",
                      {"kernel_mass": mass_small, "sphere_mass_2pi": target},
                      abs(mass_small - target) / target, "<", 0.01))
    inv = lpgeom.sigma_mass_invariance(p, d, [1.0, 2.0, 4.0], n=cfg.quad_nodes)
    out.append(_check("sphere mass invariance", "sphere-mass-invariance",
                      {"masses": inv.masses, "max_rel_dev": inv.max_relative_deviation},
                      inv.max_relative_deviation, "<", 1e-4))
    ctx.curve("window_profile.csv", ["u", "psi_hat"],
              mollifier.window_profile_rows(m).tolist())
    ctx.curve("kernel_profile.csv", ["r", "omega_eps"],
              mollifier.kernel_profile_rows(mollifier.KernelParams(p, d, 1.0, eps), m).tolist())
    return out


def _gowers_checks(ctx: SuiteContext) -> list[Check]:
    cfg, m = ctx.cfg, ctx.m
    rng = spawn_rng(cfg.seed, 29)
    out = []
    worst = 0.0
    for _ in range(10):
        F = gowers.CyclicGridFunction.from_array(
            rng.normal(size=16) + 1j * rng.normal(size=16))
        b = gowers.u3_eighth_brute(F).real
        r = gowers.u3_eighth_recursive(F)
        worst = max(worst, abs(b - r) / abs(r))
    out.append(_check("difference-cube oracle equivalence", "u3-oracle-equivalence",
                      {"worst_rel": worst}, worst, "<", 1e-10))
    worst2 = 0.0
    for _ in range(10):
        F = gowers.CyclicGridFunction.from_array(
            rng.normal(size=64) + 1j * rng.normal(size=64))
        b = gowers.u2_fourth_brute(F).real
        s = gowers.u2_norm(F) ** 4
        worst2 = max(worst2, abs(b - s) / abs(s))
    out.append(_check("spectral fourth-moment identity", "u2-spectral-identity",
                      {"worst_rel": worst2}, worst2, "<", 1e-10))
    F = gowers.CyclicGridFunction.from_array(rng.normal(size=16) + 1j * rng.normal(size=16))
    base = gowers.u3_norm(F)
    xi = 3
    mod = gowers.CyclicGridFunction.from_array(
        F.values * np.exp(2j * np.pi * xi * np.arange(16) / 16))
    dev = abs(gowers.u3_norm(mod) - base) / base
    out.append(_check("modulation invariance", "u3-modulation-invariance",
                      {"rel_dev": dev}, dev, "<", 1e-10))
    tr = gowers.CyclicGridFunction.from_array(np.roll(F.values, 5))
    devt = abs(gowers.u3_norm(tr) - base) / base
    out.append(_check("translation invariance", "u3-translation-invariance",
                      {"rel_dev": devt}, devt, "<", 1e-10))
    for (pp, tt) in ((cfg.p, 2.0), (3.0, 5.0)):
        tc = gowers.u3_tensor_check(pp, tt, M=64)
        out.append(_check(f"tensor factorization p={pp} t={tt}", "u3-tensor-product",
                          {"lhs": tc.lhs, "rhs": tc.rhs, "gap": tc.relative_gap},
                          tc.relative_gap, "<", 1e-2))
    dists = [gowers.u3_kernel_distance(eta, _U3_EPS, cfg.p, cfg.grid_m * _U3_OVERSAMPLE, m).value
             for eta in _U3_ETAS]
    out.append(Check("shell-difference distance growth", "u3-cauchy-monotone",
                     {"distances": dists}, None, bool(dists[1] >= dists[0] > 0)))
    ctx.curve("u3_cauchy.csv", ["eta", "u3_distance"],
              [[e, v] for e, v in zip(_U3_ETAS, dists)])
    ctx.curve("delta_u2_profile.csv", ["h", "u2_of_delta_h"],
              gowers.delta_u2_profile(F))
    return out


def _forms_checks(ctx: SuiteContext) -> list[Check]:
    cfg, m = ctx.cfg, ctx.m
    p = cfg.p
    out = []
    N = 32.0
    lam = 2.0
    eps = 0.25
    h = eps * lam / (8.0 * p)
    n = int(np.ceil(N / h)); h = N / n
    f = forms.full_box(N, h, 1)
    resid = abs(forms.decomposition_residual(f, lam, eps, m, p))
    out.append(_check("form decomposition identity", "form-decomposition-identity",
                      {"residual": resid}, resid, "<", 1e-10))
    a = forms.m_eps_lambda(f, lam, 1.0, m, p).value
    b = forms.m_lambda(f, lam, m, p).value
    out.append(_check("unit width consistency", "form-kernel-consistency",
                      {"m_eps_1": a, "m_base": b}, a - b, "==", 0.0))
    cw = mollifier.kernel_total_mass(mollifier.KernelParams(p, 1, 1.0, 1.0), m)
    dev = abs(b - cw * N) / (cw * N)
    out.append(_check("full box main term", "full-box-main-term",
                      {"value": b, "target": cw * N, "rel_dev": dev}, dev, "<", 3 * lam / N))
    rule = lpgeom.sphere_quadrature(p, 1, lam, n=64)
    nv = forms.n_lambda(f, rule, lam).value
    target = forms.full_box_sharp_oracle(rule, N)
    out.append(_check("sharp form sphere mass", "sharp-form-sphere-mass",
                      {"value": nv, "target": target}, abs(nv - target) / target, "<", 0.05))
    indicators = (forms.random_indicator(16.0, 1.0, 2, 0.25, seed=cfg.seed * 31 + trial)
                  for trial in range(cfg.trials))
    ok = all(forms.box_partition_pigeonhole(g, 2.0).threshold_ok for g in indicators)
    out.append(Check("half-density pigeonhole", "pigeonhole-half-density",
                     {"trials": cfg.trials}, None, ok))
    lams = [N / 16.0, N / 8.0, N / 4.0]
    en = forms.energy_sum(f, lams, eps, m, p)
    out.append(_check("energy certificate ratio", "energy-ratio-bound",
                      {"ratio": en.ratio, "energies": en.energies}, en.ratio, "<", 1.0))
    mt = forms.roth_main_term_experiment(0.5, 1, N, lam, cfg.trials, m, p, seed=cfg.seed)
    out.append(_check("density main term positive", "main-term-positive",
                      {"min_normalized": mt.min_normalized}, mt.min_normalized, ">", 1e-3 * cw))
    f2 = forms.random_indicator(8.0, h, 1, 0.5, seed=cfg.seed)
    v0 = forms.m_lambda(forms.translate_box(f2, 0), lam, m, p).value
    v1 = forms.m_lambda(forms.translate_box(f2, 3), lam, m, p).value
    tdev = abs(v0 - v1) / max(abs(v0), 1e-15)
    out.append(_check("translation invariance of forms", "form-translation-invariance",
                      {"rel_dev": tdev}, tdev, "<", 1e-10))
    rows = [[fv.kind, fv.lam, fv.eps if fv.eps is not None else float("nan"),
             fv.value, fv.quadrature_error]
            for fv in (forms.m_eps_lambda(f, lam, eps, m, p), forms.m_lambda(f, lam, m, p),
                       forms.e_lambda(f, lam, eps, m, p))]
    ctx.curve("form_values.csv", ["kind", "lambda", "epsilon", "value", "error"], rows)
    return out


# slope floor of |I(t)| at the degenerate exponents, which do not decay
_NO_DECAY_SLOPE = -0.02


def _oscillatory_checks(ctx: SuiteContext) -> list[Check]:
    cfg = ctx.cfg
    out = []
    fam = oscillatory.PhaseFamily(p=2.0, k=0.3, l=-0.2)
    vals = [oscillatory.phase_eval(fam, y)[0] for y in np.linspace(0.8, 1.8, 50)]
    spread = max(vals) - min(vals)
    out.append(_check("quadratic phase degeneracy", "phase-quadratic-degeneracy",
                      {"spread": spread, "expected": 2 * fam.k * fam.l}, spread, "<", 1e-12))
    fam3 = oscillatory.PhaseFamily(p=3.0, k=0.5, l=0.5)
    dv, dd = oscillatory.phase_eval(fam3, 1.0)
    rv, rd = oscillatory.phase_eval_remainder(fam3, 1.0)
    out.append(_check("remainder form agreement", "phase-remainder-agreement",
                      {"direct": [dv, dd], "remainder": [rv, rd]},
                      max(abs(dv - rv), abs(dd - rd)), "<", 1e-8))
    ts = list(np.logspace(1, 4, 7))
    fit = oscillatory.decay_fit(cfg.p, ts, n_kl=cfg.kl_nodes)
    # a degenerate exponent sits on the no-decay side of the dichotomy
    rule = (">=", _NO_DECAY_SLOPE) if fit.degenerate else ("<=", -1.0 / fit.r_theory + 0.05)
    out.append(_check(f"decay envelope p={cfg.p}", "decay-envelope",
                      {"slope": fit.slope, "r": fit.r_theory, "values": fit.values},
                      fit.slope, *rule))
    ctx.curve(f"decay_p{cfg.p}.csv", ["t", "abs_I", "envelope"],
              [[t, v, fit.c_fit * t ** (-1.0 / fit.r_theory)]
               for t, v in zip(fit.t_samples, fit.values)])
    for pdeg in (1.0, 2.0):
        fitd = oscillatory.decay_fit(pdeg, ts, n_kl=12)
        out.append(_check(f"no-decay at p={pdeg}", "no-decay-degenerate",
                          {"slope": fitd.slope}, fitd.slope, ">=", _NO_DECAY_SLOPE))
    v1 = oscillatory.inner_integral(oscillatory.PhaseFamily(cfg.p, 0.3, 0.1), 50.0)
    v2 = oscillatory.inner_integral(oscillatory.PhaseFamily(cfg.p, 0.1, 0.3), 50.0)
    sym = abs(v1 - v2)
    out.append(_check("shift symmetry", "aggregate-symmetry",
                      {"dev": sym}, sym, "<", 1e-12))
    sb = oscillatory.stationary_lower_bound_check(cfg.p, 0.1)
    # at the degenerate p = 2 the derivative vanishes identically (a floor of 0.0)
    out.append(_check("stationary derivative floor", "stationary-lower-bound",
                      {"min_abs_dpsi": sb.min_abs_dpsi}, sb.min_abs_dpsi,
                      ">=" if sb.degenerate else ">", 0.0))
    rng = spawn_rng(cfg.seed, 37)
    worst = 0.0
    for _ in range(20):
        v = float(rng.uniform(0.001, 0.5))
        mus = [v]
        for _ in range(11):
            v *= 2.0 * float(rng.uniform(1.0, 1.5))
            mus.append(v)
        s1, s2, cap = oscillatory.lacunary_sum_bound(mus, k=2)
        worst = max(worst, s1, s2)
    out.append(_check("lacunary sum cap", "lacunary-sum-cap", {"trials": 20}, worst, "<=", cap))
    # scales start past the transform decay onset for order-one frequencies,
    # so count extension only adds tail terms
    table = oscillatory.build_transform_table(cfg.p, cfg.epsilon, ctx.m)
    lam6 = [16.0 * 2.0**j for j in range(6)]
    lam12 = [16.0 * 2.0**j for j in range(12)]
    xi = np.array([0.7, -0.4, 0.9])
    a6 = oscillatory.multiplier_check(*xi, lam6, table)
    a12 = oscillatory.multiplier_check(*xi, lam12, table)
    rat = a12.abs_m / max(a6.abs_m, 1e-300)
    out.append(_check("multiplier scale uniformity", "multiplier-scale-uniformity",
                      {"abs_m_6": a6.abs_m, "abs_m_12": a12.abs_m}, rat, "in", [0.5, 2.0]))
    prods = []
    audit_rows = []
    base = np.array([-2.0, -1.0, 1.0]) / np.linalg.norm([-2.0, -1.0, 1.0])
    off = np.array([1.0, 0.0, 0.0])  # moves both defining functionals off zero
    for dist in (0.1, 0.01):
        x = 1.3 * base + dist * off
        aud = oscillatory.multiplier_check(*x, lam12, table)
        prods.append(aud.grad_magnitude * aud.dist)
        audit_rows.append([aud.dist, aud.abs_m, aud.grad_magnitude])
    gratio = max(prods) / max(min(prods), 1e-300)
    out.append(_check("gradient-distance product stability", "multiplier-gradient-distance",
                      {"products": prods}, gratio, "<", 4.0))
    ctx.curve("multiplier_audit.csv", ["dist", "abs_m", "grad_magnitude"], audit_rows)
    return out


def _counterexample_checks(ctx: SuiteContext) -> list[Check]:
    cfg = ctx.cfg
    out = []
    A = sets.bourgain_set(2)
    dens = A.estimate_density(10.0, n=10**5, seed=cfg.seed)
    out.append(_check("square-shell density", "square-shell-density",
                      {"density": dens}, dens, "in", [0.15, 0.35]))
    rng = spawn_rng(cfg.seed, 41)
    gap2 = max(abs(sets.parallelogram_check(rng.normal(size=2), rng.normal(size=2), 2.0)[2])
               for _ in range(50))
    out.append(_check("quadratic parallelogram identity", "parallelogram-identity",
                      {"max_gap": gap2}, gap2, "<", 1e-10))
    _, _, gp = sets.parallelogram_check(np.array([1.0, 1.0]), np.array([1.0, 0.0]), cfg.p)
    out.append(_check("non-quadratic parallelogram failure", "parallelogram-failure",
                      {"gap": gp}, abs(gp), ">", 1e-3))
    spec2 = sets.gap_spectrum_sample(A, 2.0, 10.0, cfg.spectrum_hits,
                                     max_proposals=10**7, seed=cfg.seed)
    out.append(_check("half-integer gap restriction", "half-integer-gap-restriction",
                      {"hits": int(spec2.gaps.size),
                       "max_dev": spec2.max_half_integer_deviation},
                      spec2.max_half_integer_deviation, "<=", sets.HALF_INTEGER_CAP + 1e-9,
                      requires=spec2.gaps.size > 0))
    specp = sets.gap_spectrum_sample(A, cfg.p, 10.0, cfg.spectrum_hits,
                                     max_proposals=10**7, seed=cfg.seed + 1)
    out.append(_check("gap escape at non-quadratic exponent", "gap-escape-nonquadratic",
                      {"hits": int(specp.gaps.size),
                       "max_dev": specp.max_half_integer_deviation},
                      specp.max_half_integer_deviation, ">", 0.45))
    counts, edges = specp.histogram(bins=32)
    ctx.curve("gap_spectrum.csv", ["gap", "count"],
              [[0.5 * (edges[i] + edges[i + 1]), float(c)] for i, c in enumerate(counts)])
    lat = sets.lattice_cube_set(2, 0.1)
    rngl = spawn_rng(cfg.seed, 43)
    base = rngl.integers(-5, 5, size=(2000, 2)) + rngl.uniform(-0.1, 0.1, size=(2000, 2))
    other = rngl.integers(-5, 5, size=(2000, 2)) + rngl.uniform(-0.1, 0.1, size=(2000, 2))
    members_ok = bool(np.all(lat.contains_batch(base)) and np.all(lat.contains_batch(other)))
    gap_inf = np.max(np.abs(other - base), axis=1)
    dev_inf = float(np.max(np.abs(gap_inf - np.round(gap_inf))))
    out.append(_check("lattice gap restriction", "lattice-gap-restriction",
                      {"max_dev_inf": dev_inf}, dev_inf, "<=", 0.2, requires=members_ok))
    return out


def _search_checks(ctx: SuiteContext) -> list[Check]:
    cfg = ctx.cfg
    out = []
    Afull = sets.full_box_set(2, 16.0)
    res = sets.progression_search(Afull, cfg.p, 2.0, tol=1e-6, budget=10**5,
                                  box_hi=16.0, seed=cfg.seed)
    out.append(Check("full box witness", "full-box-witness",
                     {"found": res.witness is not None,
                      "proposals": res.proposals_used}, None, res.witness is not None))
    sound = res.witness is not None and res.witness.verify(Afull, 2.0, 1e-6)
    out.append(Check("witness soundness", "witness-soundness", {}, None, bool(sound)))
    B = sets.bourgain_set(2)
    forb = sets.progression_search(B, 2.0, math.sqrt(0.75), tol=1e-3,
                                   budget=min(cfg.search_budget, 10**6),
                                   box_hi=10.0, seed=cfg.seed)
    out.append(Check("forbidden gap exhaustion", "forbidden-gap-exhaustion",
                     {"proposals": forb.proposals_used}, None,
                     forb.witness is None and forb.exhausted))
    seq = sets.lacunary_generate(4.0, 2.0, 3)
    rep = sets.theorem_experiment(0.4, cfg.p, 2, 64.0, seq,
                                  seeds=range(cfg.seed, cfg.seed + 5),
                                  budget_per_scale=cfg.search_budget)
    out.append(Check("positive progression control", "positive-control",
                     {"realized": rep.realized}, None, rep.all_seeds_realized))
    r1, r2 = (sets.progression_search(Afull, cfg.p, 2.0, tol=1e-6, budget=10**4,
                                      box_hi=16.0, seed=123) for _ in range(2))
    same = (r1.witness is not None and r2.witness is not None
            and np.array_equal(r1.witness.x, r2.witness.x)
            and np.array_equal(r1.witness.y, r2.witness.y))
    out.append(Check("seeded determinism", "search-determinism", {}, None, bool(same)))
    if rep.witnesses:
        rows = [[float(s), float(j), *w.x, *w.y, w.gap] for s, j, w in rep.witnesses[:64]]
        ctx.curve("witnesses.csv", ["seed", "scale_index", "x1", "x2", "y1", "y2", "gap"], rows)
    return out


_SUITE_FNS = {
    "kernels": _kernels_checks,
    "gowers": _gowers_checks,
    "forms": _forms_checks,
    "oscillatory": _oscillatory_checks,
    "counterexamples": _counterexample_checks,
    "search": _search_checks,
}


def lint_report(report: dict) -> None:
    """Reject reports with anchorless or malformed records before writing."""
    import jsonschema

    jsonschema.validate(report, REPORT_SCHEMA)
    for rec in report["records"]:
        if not rec["anchor"].strip():
            raise ValueError(f"record {rec['name']!r} lacks a claim anchor")


def _json_default(o):
    if isinstance(o, (np.floating, np.integer)):
        return o.item()
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"not serializable: {type(o)}")


def run_suite(cfg: ExperimentConfig) -> tuple[dict, list, int]:
    """Execute the configured suite; returns (report, curves, exit_code)."""
    names = list(_SUITE_FNS) if cfg.suite == "verify-all" else [cfg.suite]
    ctx = SuiteContext(cfg)
    records = []
    runtimes = {}
    for suite in names:
        t0 = time.perf_counter()
        records.extend(_SUITE_FNS[suite](ctx))
        runtimes[suite] = round(time.perf_counter() - t0, 3)
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
    lint_report(json.loads(json.dumps(report, default=_json_default)))
    return report, ctx.curves, (0 if n_fail == 0 else 2)


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
