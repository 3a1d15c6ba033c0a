import math

import numpy as np
import pytest
from scipy import integrate

from lproth import lpgeom
from lproth.mollifier import (
    KernelParams,
    build_cancelled_kernel,
    c1_eps,
    kernel_fourier,
    kernel_mass_mc,
    kernel_profile_rows,
    kernel_total_mass,
    omega_eps_direct_oscillatory,
    omega_eps_eval,
    window_profile_rows,
)


class TestWindowPair:
    def test_normalization_at_zero(self, moll):
        assert float(moll.psi(np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-14)

    def test_psi_range(self, moll):
        xs = np.linspace(-40, 40, 4001)
        v = moll.psi(xs)
        assert np.all(v >= 0.0) and np.all(v <= 1.0 + 1e-14)

    def test_transform_support(self, moll):
        assert float(moll.psi_hat(np.array([2.5]))[0]) == 0.0
        assert float(moll.psi_hat(np.array([-2.5]))[0]) == 0.0
        assert np.all(moll.psi_hat(np.linspace(-1.99, 1.99, 801)) >= 0.0)

    def test_transform_zero_by_two_quadratures(self, moll):
        # direct Fourier quadrature of psi at frequency zero, tail beyond 60
        # bounded by the x^-6 envelope (below 1e-7)
        direct, err = integrate.quad(lambda x: float(moll.psi(np.array([x]))[0]),
                                     -60.0, 60.0, limit=2000)
        conv = float(moll.psi_hat(np.array([0.0]))[0])
        assert abs(direct - conv) < 1e-6
        assert err < 1e-8

    def test_lower_bound_window(self, moll):
        # psi_hat is even and unimodal, so on |u| <= 1 its minimum sits at u = 1
        c_low = float(moll.psi_hat(np.array([1.0]))[0])
        assert c_low > 0.0
        grid = np.linspace(-1.0, 1.0, 501)
        assert np.all(moll.psi_hat(grid) >= c_low - 1e-15)

    def test_peak_constant(self, moll):
        peak = float(moll.psi_hat(np.array([0.0]))[0])
        assert peak == pytest.approx(10.0 * math.pi / 7.0, rel=1e-14)
        assert peak > 1.0  # no bound may assume a unit cap


class TestKernelEval:
    def test_peak_value(self, moll):
        params = KernelParams(1.5, 2, 1.0, 0.1)
        y = np.array([1.0, 0.0])  # ||y||^p = 1
        v = omega_eps_eval(y, params, moll)
        assert v == pytest.approx(10.0 * math.pi / 7.0 / 0.1, rel=1e-14)

    def test_outside_support(self, moll):
        eps = 0.1
        params = KernelParams(2.0, 1, 1.0, eps)
        y = np.array([math.sqrt(1 + 3 * eps)])
        assert omega_eps_eval(y, params, moll) == 0.0

    def test_scaling_identity_exact(self, moll, rng):
        params2 = KernelParams(1.5, 2, 2.0, 0.2)
        params1 = KernelParams(1.5, 2, 1.0, 0.2)
        for _ in range(20):
            y = rng.normal(size=2) * 2.0
            assert omega_eps_eval(y, params2, moll) == 2.0 ** (-2) * omega_eps_eval(y / 2.0, params1, moll)

    def test_closed_vs_oscillatory(self, moll, rng):
        for d in (1, 2):
            params = KernelParams(1.5, d, 1.0, 0.3)
            for _ in range(8):
                y = rng.uniform(0.3, 1.2, size=d)
                direct = omega_eps_direct_oscillatory(y, params, moll)
                closed = omega_eps_eval(y, params, moll)
                assert abs(direct - closed) < 1e-4

    def test_direct_oracle_matches_quad(self, moll, rng):
        # the Gauss-Legendre oracle against adaptive quad on panels of width 10 at tight
        # tolerances, at the points of test_closed_vs_oscillatory and of the
        # kernel-closed-vs-oscillatory record (y = 1, eps = 1: zero frequency)
        psi_s = lambda s: float(moll.psi(np.array([s]))[0])
        edges = np.linspace(0.0, 200.0, 21)
        cases = [(np.ones(1), KernelParams(p, 1, 1.0, 1.0)) for p in (1.2, 1.5, 3.0)]
        for d in (1, 2):
            params = KernelParams(1.5, d, 1.0, 0.3)
            cases += [(rng.uniform(0.3, 1.2, size=d), params) for _ in range(8)]
        for y, params in cases:
            v = (np.sum(np.abs(y) ** params.p) - 1.0) / params.eps
            ref = 2.0 / params.eps * _panel_quad(psi_s, edges, v)
            assert abs(omega_eps_direct_oscillatory(y, params, moll) - ref) < 1e-12

    def test_reflection_invariance(self, moll, rng):
        params = KernelParams(3.0, 2, 1.0, 0.2)
        pts = rng.uniform(-1.4, 1.4, size=(64, 2))
        v = omega_eps_eval(pts, params, moll)
        for axis in range(2):
            flip = pts.copy()
            flip[:, axis] *= -1.0
            assert np.array_equal(omega_eps_eval(flip, params, moll), v)

    def test_positive_orthant_carries_quarter_mass(self, moll, rng):
        params = KernelParams(1.5, 2, 1.0, 0.2)
        R = params.support_radius
        n = 4 * 10**5
        pts = rng.uniform(-R, R, size=(n, 2))
        vals = omega_eps_eval(pts, params, moll)
        pos = np.all(pts > 0.0, axis=1)
        total = np.mean(vals)
        quarter = np.mean(vals * pos)
        se = np.std(vals * pos) / np.sqrt(n)
        assert abs(quarter - total / 4.0) < 4.0 * se


class TestKernelMass:
    def test_band_across_widths(self, moll):
        masses = [kernel_total_mass(KernelParams(1.5, 2, 1.0, e), moll)
                  for e in (0.04, 0.02, 0.01, 0.005)]
        assert max(masses) / min(masses) < 1.5

    def test_unit_width_positive(self, moll):
        assert kernel_total_mass(KernelParams(1.5, 2, 1.0, 1.0), moll) > 0.0

    def test_weak_limit_matches_sphere_mass(self, moll):
        # the shell kernels integrate to 2 pi times the normalized sphere mass
        # in the narrow-width limit (line-integral normalization of the window)
        mass = kernel_total_mass(KernelParams(2.0, 2, 1.0, 0.005), moll)
        target = 2.0 * math.pi * lpgeom.sigma_total_mass(2.0, 2)
        assert abs(mass - target) / target < 0.01

    def test_mc_oracle_agreement(self, moll):
        params = KernelParams(1.5, 2, 1.0, 0.2)
        est, se = kernel_mass_mc(params, moll, n=4 * 10**5, seed=2)
        assert abs(est - kernel_total_mass(params, moll)) < 4.0 * se

    def test_radius_invariance(self, moll):
        # kernel_total_mass integrates the unit-radius profile, so the lam = 3
        # kernel is sampled directly: its mass must equal the unit-radius value
        est, se = kernel_mass_mc(KernelParams(1.5, 2, 3.0, 0.05), moll, seed=1)
        assert abs(est - kernel_total_mass(KernelParams(1.5, 2, 1.0, 0.05), moll)) < 4.0 * se


class TestMassRatio:
    def test_unit_value_exact(self, moll):
        assert c1_eps(1.0, 1.5, 2, moll) == 1.0

    def test_small_width_band(self, moll):
        c = c1_eps(0.01, 1.5, 2, moll)
        assert 0.1 < c < 10.0

    def test_stability_across_widths(self, moll):
        cs = [c1_eps(e, 1.5, 2, moll) for e in (0.04, 0.02, 0.01)]
        assert max(cs) / min(cs) < 1.2


class TestCancelledKernel:
    def test_unit_width_vanishes_pointwise(self, moll, rng):
        params = KernelParams(1.5, 1, 1.0, 1.0)
        pts = rng.uniform(-1.5, 1.5, size=(32, 1))
        vals = build_cancelled_kernel(params, moll)(pts)
        assert np.array_equal(vals, np.zeros(32))

    def test_integral_cancellation(self, moll):
        kern = build_cancelled_kernel(KernelParams(1.5, 2, 1.0, 0.05), moll)
        ref = kernel_total_mass(KernelParams(1.5, 2, 1.0, 0.05), moll)
        assert abs(kern.total_integral()) < 1e-6 * ref

    def test_support(self, moll, rng):
        kern = build_cancelled_kernel(KernelParams(1.5, 2, 2.0, 0.1), moll)
        for _ in range(16):
            y = rng.normal(size=2)
            y = y / np.sum(np.abs(y / 2.0) ** 1.5) ** (1 / 1.5) * 2.0 * 3.2 ** (1 / 1.5)
            assert kern(y) == 0.0


class TestKernelTransform:
    def test_zero_frequency_cancellation_1d(self, moll):
        v = kernel_fourier(np.zeros(1), KernelParams(1.5, 1, 1.0, 0.05), moll)
        assert abs(v) < 1e-8

    def test_zero_frequency_cancellation_2d(self, moll):
        v = kernel_fourier(np.zeros(2), KernelParams(1.5, 2, 1.0, 0.1), moll)
        assert abs(v) < 1e-6

    def test_small_frequency_slope(self, moll):
        lam = 2.0
        params = KernelParams(1.5, 1, lam, 0.1)
        etas = np.array([1e-3, 3e-3, 1e-2, 3e-2, 1e-1])
        vals = np.array([abs(kernel_fourier(np.array([e]), params, moll)) for e in etas])
        C = float(np.max(vals / (lam * etas)))
        assert np.all(vals <= C * lam * etas + 1e-15)
        # near the origin the transform is in fact quadratic, so the linear
        # coefficient is driven by the largest sampled frequency
        assert vals[0] / (lam * etas[0]) < C

    def test_even_real_symmetry(self, moll):
        params = KernelParams(1.5, 1, 1.0, 0.1)
        a = kernel_fourier(np.array([0.7]), params, moll)
        b = kernel_fourier(np.array([-0.7]), params, moll)
        assert a == pytest.approx(np.conj(b), abs=1e-12)
        assert abs(a.imag) < 1e-12

    def test_dimension_cap(self, moll):
        with pytest.raises(ValueError):
            kernel_fourier(np.zeros(3), KernelParams(1.5, 3, 1.0, 0.1), moll)

    def test_frequency_beyond_node_budget_rejected(self, moll):
        # the radial rule's node count grows with the frequency; past its
        # budget the transform fails before allocating the nodes
        with pytest.raises(RuntimeError, match="budget exceeded"):
            kernel_fourier(np.array([1e9]), KernelParams(1.5, 1, 1.0, 0.1), moll)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_frequency_rejected(self, moll, d, bad):
        eta = np.full(d, bad)
        with pytest.raises(ValueError, match="finite"):
            kernel_fourier(eta, KernelParams(1.5, d, 1.0, 0.1), moll)

    def test_decay_in_frequency(self, moll):
        # decay sets in beyond the reciprocal shell width (~25 here)
        lam = 1.0
        params = KernelParams(1.5, 1, lam, 0.1)
        us = np.array([30.0, 120.0, 240.0])
        vals = np.array([abs(kernel_fourier(np.array([u]), params, moll)) for u in us])
        C = float(np.max(vals * (1.0 + lam * us) ** 2))
        assert np.all(vals <= C * (1.0 + lam * us) ** -2.0 + 1e-15)
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 1e-3 * vals[0]


def _panel_quad(f, edges, w=0.0):
    """Adaptive reference integral of f over [edges[0], edges[-1]], one quad call per panel,
    cos(w r)-weighted when w != 0."""
    kw = {"weight": "cos", "wvar": w} if w else {}
    return math.fsum(integrate.quad(f, a, b, limit=400, epsabs=1e-13, epsrel=1e-12, **kw)[0]
                     for a, b in zip(edges[:-1], edges[1:]))


def _unit_edges(p, eps, cancelled=False):
    us = {max(0.0, 1.0 - 2.0 * eps), 1.0, 1.0 + 2.0 * eps} | ({0.0, 3.0} if cancelled else set())
    return [u ** (1.0 / p) for u in sorted(us)]


class TestShellRuleAgainstQuad:
    # the shell-aligned Gauss-Legendre rule against adaptive quad on the same panels
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_mass_and_ratio(self, moll, p, d):
        nu = lpgeom.unit_ball_volume(p, d)
        ref = {}
        for eps in (1.0, 0.5, 0.1, 0.02, 0.005):
            f = lambda s: float(moll.psi_hat(np.array([(s**p - 1.0) / eps]))[0]) / eps * s ** (d - 1)
            ref[eps] = d * nu * _panel_quad(f, _unit_edges(p, eps))
            mass = kernel_total_mass(KernelParams(p, d, 1.0, eps), moll)
            assert mass == pytest.approx(ref[eps], rel=1e-11, abs=0.0)
            assert c1_eps(eps, p, d, moll) == pytest.approx(ref[eps] / ref[1.0], rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("p, eps, lam", [(1.2, 0.1, 1.0), (1.5, 0.05, 2.0), (3.0, 0.3, 1.0),
                                             (1.5, 1.0, 1.0)])
    def test_transform_1d(self, moll, p, eps, lam):
        params = KernelParams(p, 1, lam, eps)
        kern = build_cancelled_kernel(params, moll)
        f = lambda r: float(kern(np.array([[r]]))[0])
        edges = [lam * s for s in _unit_edges(p, eps, cancelled=True)]
        for w in (0.0, 0.7, 10.0, 50.0, 120.0, 240.0):
            ref = 2.0 * _panel_quad(f, edges, w)
            assert abs(kernel_fourier(np.array([w]), params, moll).real - ref) < 1e-10


class TestWeakConvergence:
    def test_smooth_test_function_rate(self, moll):
        # 1-d: integral of g against the kernel vs 2 pi times the sphere rule,
        # error contracting roughly linearly in the width
        g = lambda r: math.exp(-(r - 1.0) ** 2)
        rule = lpgeom.sphere_quadrature(1.5, 1, 1.0, n=2)
        target = 2.0 * math.pi * float(np.sum(rule.weights * np.array(
            [g(abs(x[0])) for x in rule.nodes])))
        errs = []
        for eps in (0.2, 0.1, 0.05):
            params = KernelParams(1.5, 1, 1.0, eps)
            lo = (1 - 2 * eps) ** (1 / 1.5)
            hi = (1 + 2 * eps) ** (1 / 1.5)
            val, _ = integrate.quad(
                lambda r: 2.0 * g(r) * omega_eps_eval(np.array([r]), params, moll),
                lo, hi, limit=400)
            errs.append(abs(val - target))
        assert errs[2] < errs[1] < errs[0]
        assert errs[2] < 0.6 * errs[1]


class TestProfiles:
    def test_window_profile_rows(self, moll):
        rows = window_profile_rows(moll)
        assert rows.shape[1] == 2
        assert np.all(rows[:, 1] >= 0.0)

    def test_kernel_profile_rows(self, moll):
        rows = kernel_profile_rows(KernelParams(1.5, 2, 1.0, 0.1), moll)
        assert rows.shape[1] == 2
        assert rows[-1, 1] == 0.0  # beyond the support


class TestParams:
    def test_width_range(self):
        with pytest.raises(ValueError):
            KernelParams(1.5, 1, 1.0, 0.0)
        with pytest.raises(ValueError):
            KernelParams(1.5, 1, 1.0, 1.5)
        with pytest.raises(ValueError):
            KernelParams(1.5, 1, -2.0, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="^lam must be finite and positive"):
            KernelParams(1.5, 1, bad, 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_exponent_rejected(self, bad):
        with pytest.raises(ValueError, match="exponent must be finite"):
            KernelParams(bad, 1, 1.0, 0.5)
