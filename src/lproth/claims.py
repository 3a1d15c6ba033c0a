"""Every record of the ``lproth run`` report, and the claims the acceptance gate shares.

Each claim function draws its inputs, measures one claim and returns the
``Check`` record with that claim's one bound.  ``tests/test_acceptance.py``
calls the shared ones at its own sizes and seeds.  A claim that samples draws
from the caller's generator in a fixed order, rejected ones included.  A
claim takes each quantity from the one module that computes it, private
helpers included: ``u3_form_control`` sums the trilinear form over the
triple sums of ``forms._gap_sums`` and takes the U^3 norm from ``gowers``.

Each ``*_suite(cfg)`` is one suite of the report at the sizes of an
``ExperimentConfig``: a pure function that builds its own window pair, draws
only from its own ``spawn_rng(cfg.seed, k)`` streams and seeds, and returns
``(records, curves)``, a curve being ``(csv filename, header, rows)``.  So the
suites share no state, and their outputs concatenate in any grouping.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import forms, gowers, lpgeom, mollifier, oscillatory, sets
from .mollifier import KernelParams, MollifierPair
from .util import spawn_rng, valid_scale


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
    tc = gowers.u3_tensor_check(p, t)
    return check(f"tensor factorization p={p} t={t}", "u3-tensor-product",
                 {"lhs": tc.lhs, "rhs": tc.rhs, "gap": tc.relative_gap}, tc.relative_gap, "<", 1e-2)


def u3_form_control(f: forms.BoxFunction, g, lam: float) -> Check:
    """The trilinear form T against its U^3 majorant N lam^(1/2) ||g||_{U^3}, one dimension.

    T = h^2 sum over j of g(j) S(j), with S(j) = sum_x f(x) f(x+j) f(x+2j) on
    f's step-h grid over [0, N] (zero extension) and g sampled on the same
    step over [0, lam].  The norm is the continuum U^3 norm of g on a cyclic
    grid of the smallest power of two of at least five support lengths.
    """
    g = np.asarray(g, dtype=float)
    if f.d != 1 or g.ndim != 1:
        raise ValueError("one-dimensional check only")
    if f.n > 4096 or g.size > 4096:
        raise ValueError("grid sizes exceed the audit budget")
    lam = valid_scale("lam", lam)
    T = f.h * f.h * math.fsum(g * forms._gap_sums(f, np.arange(g.size)[:, None]))
    padded = np.zeros(1 << (5 * g.size - 1).bit_length())
    padded[:g.size] = g
    bound = f.N * math.sqrt(lam) * gowers.u3_norm_continuum(
        gowers.CyclicGridFunction(padded, cell=f.h))
    ratio = abs(T) / bound if bound > 0 else (0.0 if T == 0.0 else math.inf)
    return check("trilinear form U^3 control", "u3-form-control",
                 {"T": T, "bound": bound, "ratio": ratio}, ratio, "<=", 4.0)


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
            eta, zeta = oscillatory._multiplier_arguments(xi)
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
        forms.random_indicator(16.0, 1.0, d, density, seed=s), 2.0) for s in seeds)
    return Check("half-density pigeonhole", "pigeonhole-half-density",
                 {"trials": len(seeds)}, None, ok)


# ---------------------------------------------------------------------------
# the suites of ``lproth run``
# ---------------------------------------------------------------------------

# shell widths of the gowers suite's U^3 distance probe; the cyclic grid
# has _U3_OVERSAMPLE * grid_m cells per axis
_U3_ETAS = (0.05, 0.025)
_U3_EPS = 0.1
_U3_OVERSAMPLE = 8
# box, gap scale and shell width of the forms suite's grid, which needs ceil(512 p) cells
_FORM_N, _FORM_LAM, _FORM_EPS = 32.0, 2.0, 0.25


def kernels_suite(cfg):
    m = mollifier.build_mollifier()
    p, d, eps = cfg.p, cfg.d, cfg.epsilon
    shell = KernelParams(p, d, 1.0, eps)
    psi0 = float(m.psi(np.array([0.0]))[0])
    out = [check("window value at zero", "window-normalization",
                 {"psi0": psi0}, abs(psi0 - 1.0), "<", 1e-12)]
    edge = float(m.psi_hat(np.array([2.5]))[0])
    out.append(check("transform support edge", "window-band-support",
                     {"psi_hat_2p5": edge}, edge, "==", 0.0))
    direct = mollifier.omega_eps_direct_oscillatory(np.zeros(1) + 1.0, KernelParams(p, 1, 1.0, 1.0), m)
    closed = mollifier.omega_eps_eval(np.array([1.0]), KernelParams(p, 1, 1.0, 1.0), m)
    out.append(check("closed form vs oscillatory form", "kernel-closed-vs-oscillatory",
                     {"direct": direct, "closed": closed}, abs(direct - closed), "<", 1e-4))
    out.append(kernel_mass_band(p, d, m))
    out.append(mass_ratio_unit(p, d, m))
    c1e = mollifier.c1_eps(eps, p, d, m)
    out.append(check("mass ratio band", "mass-ratio-band", {"c1": c1e}, c1e, "in", [0.1, 10.0]))
    out.append(cancellation_integral(shell, m))
    out.append(transform_zero_at_origin(KernelParams(p, 1, 1.0, eps), m))
    lam_j = 2.0
    etas = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
    kv = [abs(mollifier.kernel_fourier(np.array([e]), KernelParams(p, 1, lam_j, eps), m))
          for e in etas]
    cslope = max(v / (lam_j * e) for v, e in zip(kv, etas))
    out.append(Check("small frequency slope", "transform-small-frequency-slope",
                     {"C_fit": cslope, "samples": kv}, None, np.isfinite(cslope)))
    rng = spawn_rng(cfg.seed, 23)
    pts = rng.uniform(-1.3, 1.3, size=(32, d))
    v1 = mollifier.omega_eps_eval(pts, shell, m)
    flip = pts.copy(); flip[:, 0] *= -1.0
    v2 = mollifier.omega_eps_eval(flip, shell, m)
    refl = float(np.max(np.abs(v1 - v2)))
    out.append(check("reflection invariance", "kernel-reflection-invariance",
                     {"max_dev": refl}, refl, "==", 0.0))
    # weak limit vs sphere rule carries the explicit 2 pi of the line-integral normalization
    rule = lpgeom.sphere_quadrature(p, d, 1.0, n=cfg.quad_nodes)
    target = 2.0 * math.pi * rule.total_mass
    mass_small = mollifier.kernel_total_mass(KernelParams(p, d, 1.0, 0.005), m)
    out.append(check("weak limit of shell kernels", "kernel-weak-limit",
                     {"kernel_mass": mass_small, "sphere_mass_2pi": target},
                     abs(mass_small - target) / target, "<", 0.01))
    out.append(sphere_mass_invariance(p, d, cfg.quad_nodes))
    curves = [("window_profile.csv", ["u", "psi_hat"], mollifier.window_profile_rows(m).tolist()),
              ("kernel_profile.csv", ["r", "omega_eps"],
               mollifier.kernel_profile_rows(shell, m).tolist())]
    return out, curves


def gowers_suite(cfg):
    rng = spawn_rng(cfg.seed, 29)
    out = [u3_oracle_equivalence(rng, [(16, 1, 10)])]
    out.append(u2_spectral_identity(rng, 10))
    F = _random_grid(rng, 16)
    base = gowers.u3_norm(F)
    xi = 3
    mod = gowers.CyclicGridFunction(F.values * np.exp(2j * np.pi * xi * np.arange(16) / 16))
    dev = abs(gowers.u3_norm(mod) - base) / base
    out.append(check("modulation invariance", "u3-modulation-invariance",
                     {"rel_dev": dev}, dev, "<", 1e-10))
    tr = gowers.CyclicGridFunction(np.roll(F.values, 5))
    devt = abs(gowers.u3_norm(tr) - base) / base
    out.append(check("translation invariance", "u3-translation-invariance",
                     {"rel_dev": devt}, devt, "<", 1e-10))
    out.extend(u3_tensor_product(pp, tt) for pp, tt in ((cfg.p, 2.0), (3.0, 5.0)))
    m = mollifier.build_mollifier()
    dists = [gowers.u3_kernel_distance(eta, _U3_EPS, cfg.p, cfg.grid_m * _U3_OVERSAMPLE, m)
             for eta in _U3_ETAS]
    out.append(Check("shell-difference distance growth", "u3-cauchy-monotone",
                     {"distances": dists}, None, bool(dists[1] >= dists[0] > 0)))
    lam, h = 3.0 ** (1.0 / cfg.p), 0.05
    ys = (np.arange(int(lam / h)) + 0.5)[:, None] * h
    g = (mollifier.omega_eps_eval(ys, KernelParams(cfg.p, 1, 1.0, 1.0), m)
         - mollifier.omega_eps_eval(ys, KernelParams(cfg.p, 1, 1.0, 0.1), m))
    out.append(u3_form_control(forms.random_indicator(16.0, h, 1, 0.5, seed=cfg.seed), g, lam))
    curves = [("u3_cauchy.csv", ["eta", "u3_distance"], [[e, v] for e, v in zip(_U3_ETAS, dists)]),
              ("delta_u2_profile.csv", ["h", "u2_of_delta_h"], gowers.delta_u2_profile(F))]
    return out, curves


def forms_suite(cfg):
    m = mollifier.build_mollifier()
    p, N, lam, eps = cfg.p, _FORM_N, _FORM_LAM, _FORM_EPS
    _, h = forms.resolved_grid(N, lam, eps, p)
    f = forms.full_box(N, h, 1)
    identity, (m_eps_form, base, e_form, _) = form_decomposition_identity(f, lam, eps, m, p)
    out = [identity]
    b = base.value
    # the base form's own error bar against the continuum value on the full box
    oracle = forms.full_box_mollified_oracle(lam, 1.0, m, p, 1, N)
    out.append(check("unit width consistency", "form-kernel-consistency",
                     {"m_base": b, "oracle": oracle, "error": base.quadrature_error},
                     abs(b - oracle), "<", base.quadrature_error))
    cw = mollifier.kernel_total_mass(KernelParams(p, 1, 1.0, 1.0), m)
    dev = abs(b - cw * N) / (cw * N)
    out.append(check("full box main term", "full-box-main-term",
                     {"value": b, "target": cw * N, "rel_dev": dev}, dev, "<", 3 * lam / N))
    rule = lpgeom.sphere_quadrature(p, 1, lam, n=64)
    nv = forms.n_lambda(f, rule, lam).value
    target = forms.full_box_sharp_oracle(rule, N)
    out.append(check("sharp form sphere mass", "sharp-form-sphere-mass",
                     {"value": nv, "target": target}, abs(nv - target) / target, "<", 0.05))
    out.append(pigeonhole_half_density(2, 0.25, range(cfg.seed * 31, cfg.seed * 31 + cfg.trials)))
    lams = [N / 16.0, N / 8.0, N / 4.0]
    en = forms.energy_sum(f, lams, eps, m, p)
    out.append(check("energy certificate ratio", "energy-ratio-bound",
                     {"ratio": en.ratio, "energies": en.energies}, en.ratio, "<", 1.0))
    mt = forms.roth_main_term_experiment(0.5, N, lam, cfg.trials, m, p, seed=cfg.seed)
    out.append(check("density main term positive", "main-term-positive",
                     {"min_normalized": mt}, mt, ">", 1e-3 * cw))
    # a box of about 8 on whole cells of the step h
    f2 = forms.random_indicator(round(8.0 / h) * h, h, 1, 0.5, seed=cfg.seed)
    v0 = forms.m_eps_lambda(forms.translate_box(f2, 0), lam, 1.0, m, p).value
    v1 = forms.m_eps_lambda(forms.translate_box(f2, 3), lam, 1.0, m, p).value
    tdev = abs(v0 - v1) / max(abs(v0), 1e-15)
    out.append(check("translation invariance of forms", "form-translation-invariance",
                     {"rel_dev": tdev}, tdev, "<", 1e-10))
    rows = [[fv.kind, fv.lam, fv.eps, fv.value, fv.quadrature_error]
            for fv in (m_eps_form, base, e_form)]
    return out, [("form_values.csv", ["kind", "lambda", "epsilon", "value", "error"], rows)]


def oscillatory_suite(cfg):
    out = [phase_quadratic_degeneracy(spawn_rng(cfg.seed, 47), 50)]
    out.append(phase_remainder_agreement())
    envelope, fit = decay_envelope(cfg.p, cfg.kl_nodes)
    out.append(envelope)
    curves = [(f"decay_p{cfg.p}.csv", ["t", "abs_I", "envelope"], fit.envelope_rows())]
    out.extend(no_decay_degenerate(pdeg, 12) for pdeg in lpgeom.DEGENERATE_P)
    v1 = oscillatory.inner_integral(oscillatory.PhaseFamily(cfg.p, 0.3, 0.1), 50.0)
    v2 = oscillatory.inner_integral(oscillatory.PhaseFamily(cfg.p, 0.1, 0.3), 50.0)
    sym = abs(v1 - v2)
    out.append(check("shift symmetry", "aggregate-symmetry",
                     {"dev": sym}, sym, "<", 1e-12))
    sb = oscillatory.stationary_lower_bound_check(cfg.p, 0.1)
    # at a degenerate p the derivative vanishes identically (a floor of 0.0)
    out.append(check("stationary derivative floor", "stationary-lower-bound",
                     {"min_abs_dpsi": sb.min_abs_dpsi}, sb.min_abs_dpsi,
                     ">=" if sb.degenerate else ">", 0.0))
    out.append(lacunary_sum_cap(spawn_rng(cfg.seed, 37), trials=20, terms=12,
                                first_hi=0.5, step_hi=1.5, k=2))
    table = oscillatory.build_transform_table(cfg.p, cfg.epsilon, mollifier.build_mollifier())
    out.append(multiplier_scale_uniformity(spawn_rng(cfg.seed, 53), table, 100))
    prods = []
    audit_rows = []
    base = np.array([-2.0, -1.0, 1.0]) / np.linalg.norm([-2.0, -1.0, 1.0])
    off = np.array([1.0, 0.0, 0.0])  # moves both defining functionals off zero
    for dist in (0.1, 0.01):
        x = 1.3 * base + dist * off
        aud = oscillatory.multiplier_check(*x, MULTIPLIER_SCALES, table)
        prods.append(aud.grad_magnitude * aud.dist)
        audit_rows.append([aud.dist, aud.abs_m, aud.grad_magnitude])
    gratio = max(prods) / max(min(prods), 1e-300)
    out.append(check("gradient-distance product stability", "multiplier-gradient-distance",
                     {"products": prods}, gratio, "<", 4.0))
    curves.append(("multiplier_audit.csv", ["dist", "abs_m", "grad_magnitude"], audit_rows))
    return out, curves


def counterexamples_suite(cfg):
    dens = sets.bourgain_set(2).estimate_density(10.0, n=10**5, seed=cfg.seed)
    out = [check("square-shell density", "square-shell-density",
                 {"density": dens}, dens, "in", [0.15, 0.35])]
    rng = spawn_rng(cfg.seed, 41)
    gap2 = max(abs(sets.parallelogram_check(rng.normal(size=2), rng.normal(size=2), 2.0)[2])
               for _ in range(50))
    out.append(check("quadratic parallelogram identity", "parallelogram-identity",
                     {"max_gap": gap2}, gap2, "<", 1e-10))
    _, _, gp = sets.parallelogram_check(np.array([1.0, 1.0]), np.array([1.0, 0.0]), cfg.p)
    out.append(check("non-quadratic parallelogram failure", "parallelogram-failure",
                     {"gap": gp}, abs(gp), ">", 1e-3))
    out.append(half_integer_gap_restriction(cfg.spectrum_hits, 10**7, cfg.seed))
    escape, specp = gap_escape_nonquadratic(cfg.p, cfg.spectrum_hits, 10**7, cfg.seed + 1)
    out.append(escape)
    lat = sets.lattice_cube_set(2, 0.1)
    rngl = spawn_rng(cfg.seed, 43)
    base = rngl.integers(-5, 5, size=(2000, 2)) + rngl.uniform(-0.1, 0.1, size=(2000, 2))
    other = rngl.integers(-5, 5, size=(2000, 2)) + rngl.uniform(-0.1, 0.1, size=(2000, 2))
    members_ok = bool(np.all(lat.contains_batch(base)) and np.all(lat.contains_batch(other)))
    gap_inf = np.max(np.abs(other - base), axis=1)
    dev_inf = float(np.max(np.abs(gap_inf - np.round(gap_inf))))
    out.append(check("lattice gap restriction", "lattice-gap-restriction",
                     {"max_dev_inf": dev_inf}, dev_inf, "<=", 0.2, requires=members_ok))
    return out, [("gap_spectrum.csv", ["gap", "count"], specp.histogram_rows(bins=32))]


def search_suite(cfg):
    Afull = sets.full_box_set(2, 16.0)
    res = sets.progression_search(Afull, cfg.p, 2.0, tol=1e-6, budget=10**5,
                                  box_hi=16.0, seed=cfg.seed)
    out = [Check("full box witness", "full-box-witness",
                 {"found": res.witness is not None,
                  "proposals": res.proposals_used}, None, res.witness is not None)]
    sound = res.witness is not None and res.witness.verify(Afull, 2.0, 1e-6)
    out.append(Check("witness soundness", "witness-soundness", {}, None, bool(sound)))
    out.append(forbidden_gap_exhaustion(min(cfg.search_budget, 10**6), cfg.seed))
    control, rep = positive_control(cfg.p, range(cfg.seed, cfg.seed + 5), cfg.search_budget)
    out.append(control)
    r1, r2 = (sets.progression_search(Afull, cfg.p, 2.0, tol=1e-6, budget=10**4,
                                      box_hi=16.0, seed=123) for _ in range(2))
    same = (r1.witness is not None and r2.witness is not None
            and np.array_equal(r1.witness.x, r2.witness.x)
            and np.array_equal(r1.witness.y, r2.witness.y))
    out.append(Check("seeded determinism", "search-determinism", {}, None, bool(same)))
    if not rep.witnesses:
        return out, []
    rows = [[float(s), float(j), *w.x, *w.y, w.gap] for s, j, w in rep.witnesses[:64]]
    return out, [("witnesses.csv", ["seed", "scale_index", "x1", "x2", "y1", "y2", "gap"], rows)]
