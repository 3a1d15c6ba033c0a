"""The claims that the CLI report and the acceptance gate both check.

Each function draws its inputs, measures one claim and returns the
``Check`` record with that claim's one bound.  ``lproth run`` reports every
one, at other sizes and seeds than ``tests/test_acceptance.py``.  A claim that
samples draws from the caller's generator in a fixed order, rejected ones included.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import forms, gowers, lpgeom, mollifier, oscillatory, sets
from .mollifier import KernelParams, MollifierPair


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


def check(name: str, anchor: str, values: dict, x, op: str, bound, requires: bool = True) -> Check:
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


def _random_grid(rng: np.random.Generator, size) -> gowers.CyclicGridFunction:
    return gowers.CyclicGridFunction(rng.normal(size=size) + 1j * rng.normal(size=size))


def u3_oracle_equivalence(rng: np.random.Generator, grids) -> Check:
    """Definitional vs recursive U^3 on ``count`` random M^d grids per ``(M, d, count)``."""
    worst = 0.0
    for M, d, count in grids:
        for _ in range(count):
            F = _random_grid(rng, (M,) * d)
            b = gowers.u3_eighth_brute(F)
            r = gowers.u3_eighth_recursive(F)
            worst = max(worst, abs(b.real - r) / abs(r), abs(b.imag) / abs(r))
    return check("difference-cube oracle equivalence", "u3-oracle-equivalence",
                 {"worst_rel": worst}, worst, "<", 1e-10)


def u2_spectral_identity(rng: np.random.Generator, count: int) -> Check:
    """Definitional U^2 fourth power vs the DFT fourth moment on ``count`` grids of 64."""
    worst = 0.0
    for _ in range(count):
        F = _random_grid(rng, 64)
        b = gowers.u2_fourth_brute(F)
        s = gowers.u2_norm(F) ** 4
        worst = max(worst, abs(b.real - s) / s, abs(b.imag) / s)
    return check("spectral fourth-moment identity", "u2-spectral-identity",
                 {"worst_rel": worst}, worst, "<", 1e-10)


def u3_tensor_product(p, t: float) -> Check:
    tc = gowers.u3_tensor_check(p, t, M=64)
    return check(f"tensor factorization p={p} t={t}", "u3-tensor-product",
                 {"lhs": tc.lhs, "rhs": tc.rhs, "gap": tc.relative_gap}, tc.relative_gap, "<", 1e-2)


# slope floor of |I(t)| at the degenerate exponents, which do not decay
_NO_DECAY_SLOPE = -0.02


def decay_envelope(p, n_kl: int):
    """The decay dichotomy of I(t) at p, or no decay if p is degenerate; returns (Check, fit)."""
    fit = oscillatory.decay_fit(p, n_kl=n_kl)
    rule = (">=", _NO_DECAY_SLOPE) if fit.degenerate else ("<=", -1.0 / fit.r_theory + 0.05)
    return check(f"decay envelope p={p}", "decay-envelope",
                 {"slope": fit.slope, "r": fit.r_theory, "values": fit.values},
                 fit.slope, *rule), fit


def no_decay_degenerate(p, n_kl: int) -> Check:
    fit = oscillatory.decay_fit(p, n_kl=n_kl)
    return check(f"no-decay at p={p}", "no-decay-degenerate",
                 {"slope": fit.slope}, fit.slope, ">=", _NO_DECAY_SLOPE)


def phase_quadratic_degeneracy(rng: np.random.Generator, points: int) -> Check:
    """psi = 2kl at p = 2 at ``points`` shifts from U[-1/2, 1/2)^2, y uniform on their window."""
    worst = 0.0
    for _ in range(points):
        lo = hi = 0.0
        while hi <= lo:  # a shift pair without an admissible window is redrawn
            k, l = rng.uniform(-0.5, 0.5, size=2)
            fam = oscillatory.PhaseFamily(2.0, k, l)
            lo, hi = fam.admissible_interval()
        v, _ = oscillatory.phase_eval(fam, float(rng.uniform(lo, hi)))
        worst = max(worst, abs(v - 2.0 * k * l))
    return check("quadratic phase degeneracy", "phase-quadratic-degeneracy",
                 {"points": points, "max_dev": worst}, worst, "<", 1e-12)


def phase_remainder_agreement() -> Check:
    fam = oscillatory.PhaseFamily(p=3.0, k=0.5, l=0.5)
    dv, dd = oscillatory.phase_eval(fam, 1.0)
    rv, rd = oscillatory.phase_eval_remainder(fam, 1.0)
    return check("remainder form agreement", "phase-remainder-agreement",
                 {"direct": [dv, dd], "remainder": [rv, rd]},
                 max(abs(dv - rv), abs(dd - rd)), "<", 1e-8)


def lacunary_sum_cap(rng: np.random.Generator, trials: int, terms: int, first_hi: float,
                     step_hi: float, k: int) -> Check:
    """Both lacunary sums on random sequences from U[0.001, first_hi), ratios 2 U[1, step_hi)."""
    worst = 0.0
    for _ in range(trials):
        v = float(rng.uniform(0.001, first_hi))
        mus = [v]
        for _ in range(terms - 1):
            v *= 2.0 * float(rng.uniform(1.0, step_hi))
            mus.append(v)
        s1, s2, cap = oscillatory.lacunary_sum_bound(mus, k=k)
        worst = max(worst, s1, s2)
    return check("lacunary sum cap", "lacunary-sum-cap", {"trials": trials}, worst, "<=", cap)


# past the transform decay onset (~24 / shell width) for order-one frequencies
MULTIPLIER_SCALES = [16.0 * 2.0**j for j in range(12)]


def multiplier_scale_uniformity(rng: np.random.Generator, table: oscillatory.TransformTable,
                                frequencies: int) -> Check:
    """|m| over 12 scales against 6 at ``frequencies`` draws from U[-2, 2)^3: max(r, 1/r) <= 2."""
    worst = 1.0
    for _ in range(frequencies):
        eta = zeta = dist = 0.0
        while min(abs(eta), abs(zeta)) < 0.3 or dist < 1e-3:  # redraw where eta or zeta nears zero
            xi = rng.uniform(-2.0, 2.0, size=3)
            eta, zeta = -xi[0] + xi[1] - xi[2], xi[0] + 2.0 * xi[2]
            dist = oscillatory.dist_to_degenerate_subspace(xi)
        m6 = abs(oscillatory.multiplier_value(xi, MULTIPLIER_SCALES[:6], table))
        m12 = abs(oscillatory.multiplier_value(xi, MULTIPLIER_SCALES, table))
        ratio = m12 / m6 if m6 > 0 else math.inf
        worst = max(worst, ratio, 1.0 / ratio)
    return check("multiplier scale uniformity", "multiplier-scale-uniformity",
                 {"frequencies": frequencies, "worst_ratio": worst}, worst, "<=", 2.0)


def half_integer_gap_restriction(hits: int, max_proposals: int, seed: int) -> Check:
    """At p = 2 every sampled gap of the square-shell set has 2 gap^2 within 0.4 of Z."""
    spec = sets.gap_spectrum_sample(sets.bourgain_set(2), 2.0, 10.0, hits,
                                    max_proposals=max_proposals, seed=seed)
    return check("half-integer gap restriction", "half-integer-gap-restriction",
                 {"hits": int(spec.gaps.size), "max_dev": spec.max_half_integer_deviation},
                 spec.max_half_integer_deviation, "<=", sets.HALF_INTEGER_CAP + 1e-9,
                 requires=spec.gaps.size > 0)


def gap_escape_nonquadratic(p, hits: int, max_proposals: int, seed: int):
    """At p != 2 some sampled gap has 2 gap^2 near a half-integer; returns (Check, spectrum)."""
    spec = sets.gap_spectrum_sample(sets.bourgain_set(2), p, 10.0, hits,
                                    max_proposals=max_proposals, seed=seed)
    return check("gap escape at non-quadratic exponent", "gap-escape-nonquadratic",
                 {"hits": int(spec.gaps.size), "max_dev": spec.max_half_integer_deviation},
                 spec.max_half_integer_deviation, ">", 0.45), spec


def forbidden_gap_exhaustion(budget: int, seed: int) -> Check:
    out = sets.progression_search(sets.bourgain_set(2), 2.0, math.sqrt(0.75), tol=1e-3,
                                  budget=budget, box_hi=10.0, seed=seed)
    return Check("forbidden gap exhaustion", "forbidden-gap-exhaustion",
                 {"proposals": out.proposals_used}, None, out.witness is None and out.exhausted)


def positive_control(p, seeds, budget_per_scale: int):
    """Each seed's density-0.4 set on [0, 64]^2 realizes a lacunary gap; returns (Check, report)."""
    rep = sets.theorem_experiment(0.4, p, 2, 64.0, sets.lacunary_generate(4.0, 2.0, 3),
                                  seeds=seeds, budget_per_scale=budget_per_scale)
    return Check("positive progression control", "positive-control",
                 {"realized": rep.realized}, None, rep.all_seeds_realized), rep


def cancellation_integral(params: KernelParams, m: MollifierPair) -> Check:
    resid = abs(mollifier.build_cancelled_kernel(params, m).total_integral())
    ref = mollifier.kernel_total_mass(params, m)
    return check("cancelled kernel integral", "cancellation-integral",
                 {"residual": resid, "reference": ref}, resid, "<=", 1e-6 * ref)


def transform_zero_at_origin(params: KernelParams, m: MollifierPair) -> Check:
    k0 = abs(mollifier.kernel_fourier(np.zeros(params.d), params, m))
    return check("transform vanishes at origin", "transform-zero-at-origin",
                 {"k_hat_0": k0}, k0, "<", 1e-8)


def kernel_mass_band(p, d: int, m: MollifierPair) -> Check:
    masses = [mollifier.kernel_total_mass(KernelParams(p, d, 1.0, e), m)
              for e in (0.04, 0.02, 0.01, 0.005)]
    ratio = max(masses) / min(masses)
    return check("kernel mass band", "kernel-mass-band",
                 {"masses": masses, "ratio": ratio}, ratio, "<", 1.5)


def mass_ratio_unit(p, d: int, m: MollifierPair) -> Check:
    c11 = mollifier.c1_eps(1.0, p, d, m)
    return check("unit mass ratio", "mass-ratio-unit", {"c1_at_1": c11}, c11, "==", 1.0)


def sphere_mass_invariance(p, d: int, n: int) -> Check:
    inv = lpgeom.sigma_mass_invariance(p, d, [1.0, 2.0, 4.0], n=n)
    return check("sphere mass invariance", "sphere-mass-invariance",
                 {"masses": inv.masses, "max_rel_dev": inv.max_relative_deviation},
                 inv.max_relative_deviation, "<", 1e-4)


def form_decomposition_identity(f: forms.BoxFunction, lam: float, eps: float,
                                m: MollifierPair, p):
    """M_eps = c1 M + E on f, whose step resolves the shell; returns (Check, (M_eps, M, E, c1))."""
    m_eps, base, e, c1 = values = forms.decomposition_forms(f, lam, eps, m, p)
    resid = abs(m_eps.value - c1 * base.value - e.value)
    return check("form decomposition identity", "form-decomposition-identity",
                 {"residual": resid}, resid, "<", 1e-10), values


def pigeonhole_half_density(d: int, density: float, seeds) -> Check:
    ok = all(forms.box_partition_pigeonhole(
        forms.random_indicator(16.0, 1.0, d, density, seed=s), 2.0).threshold_ok for s in seeds)
    return Check("half-density pigeonhole", "pigeonhole-half-density",
                 {"trials": len(seeds)}, None, ok)
