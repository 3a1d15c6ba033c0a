import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import lpgeom
from lproth.lpgeom import (
    LpExponent,
    grad_q_magnitude,
    lp_norm,
    sigma_mass_invariance,
    sigma_total_mass,
    sphere_quadrature,
    unit_ball_volume,
)

# scalar oracle (30-digit arithmetic): (1 + 2^1.5)^(2/3)
LP_NORM_1_M2_P15 = 2.4472608147714755
# 1.5 * sqrt(1.5)
GRADQ_1_05_P15 = 1.8371173070873836


class TestLpExponent:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            LpExponent(0.5)
        with pytest.raises(ValueError):
            LpExponent(float("inf"))

    def test_degenerate_flags(self):
        assert LpExponent(2.0).degenerate
        assert LpExponent(1.0).degenerate
        assert not LpExponent(1.5).degenerate

    def test_decay_indices(self):
        assert LpExponent(1.5).r == pytest.approx(2.5)
        assert LpExponent(3.0).r == pytest.approx(5.0)
        assert LpExponent(3.0).gamma == pytest.approx(1.0 / 40.0)


class TestLpNorm:
    def test_pythagorean(self):
        assert lp_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, abs=1e-14)

    def test_cube_exact(self):
        assert lp_norm(np.ones(8), 3.0) == pytest.approx(2.0, abs=1e-14)

    def test_fractional_exponent_oracle(self):
        v = lp_norm([1.0, -2.0], 1.5)
        assert v == pytest.approx(LP_NORM_1_M2_P15, abs=1e-13)
        assert v == pytest.approx((1 + 2**1.5) ** (2.0 / 3.0), abs=1e-13)

    def test_sign_and_permutation_symmetry(self, rng):
        y = rng.normal(size=5)
        p = 2.7
        assert lp_norm(y, p) == pytest.approx(lp_norm(-y, p), rel=1e-14)
        assert lp_norm(y, p) == pytest.approx(lp_norm(y[::-1].copy(), p), rel=1e-14)

    @settings(max_examples=60, deadline=None)
    @given(scale=st.floats(min_value=1e-3, max_value=1e3),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_homogeneity(self, scale, seed):
        y = np.random.default_rng(seed).normal(size=4)
        for p in (1.25, 1.5, 3.0, 4.0):
            assert lp_norm(scale * y, p) == pytest.approx(scale * lp_norm(y, p), rel=1e-12)

    def test_triangle_inequality_bulk(self, rng):
        for p in (1.25, 1.5, 3.0, 4.0):
            x = rng.normal(size=(10**4, 3))
            y = rng.normal(size=(10**4, 3))
            lx = lpgeom.lp_norm_batch(x, p)
            ly = lpgeom.lp_norm_batch(y, p)
            lxy = lpgeom.lp_norm_batch(x + y, p)
            assert np.all(lxy <= lx + ly + 1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            lp_norm([1.0, float("nan")], 2.0)


class TestGradQ:
    def test_euclidean_case(self):
        assert grad_q_magnitude([3.0, 4.0], 2.0) == pytest.approx(10.0, abs=1e-13)

    def test_quartic_diagonal(self):
        assert grad_q_magnitude([1.0, 1.0], 4.0) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-14)

    def test_fractional_oracle(self):
        assert grad_q_magnitude([1.0, 0.5], 1.5) == pytest.approx(GRADQ_1_05_P15, abs=1e-13)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            grad_q_magnitude([0.0, 0.0], 1.5)


class TestBallVolume:
    def test_unit_disk(self):
        assert unit_ball_volume(2.0, 2) == pytest.approx(math.pi, rel=1e-12)

    def test_cross_polytope(self):
        assert unit_ball_volume(1.0, 2) == pytest.approx(2.0, rel=1e-12)

    def test_mc_cross_check(self):
        exact = unit_ball_volume(1.5, 2)
        mc = unit_ball_volume(1.5, 2, mode="mc", n_samples=10**7, seed=3)
        assert abs(mc - exact) / exact < 1.5e-3

    def test_mc_dimension_cap(self):
        with pytest.raises(ValueError):
            unit_ball_volume(1.5, 7, mode="mc")


class TestSphereQuadrature:
    def test_euclidean_circle_mass(self):
        rule = sphere_quadrature(2.0, 2, 1.0, n=512)
        assert rule.total_mass == pytest.approx(math.pi, abs=1e-6)

    def test_mass_radius_independent(self):
        m1 = sphere_quadrature(2.0, 2, 1.0, n=512).total_mass
        m3 = sphere_quadrature(2.0, 2, 3.0, n=512).total_mass
        assert abs(m1 - m3) < 1e-6

    def test_nodes_on_sphere(self):
        for lam in (1.0, 2.5):
            rule = sphere_quadrature(1.5, 3, lam, n=2048)
            assert rule.max_radius_deviation() <= rule.node_tolerance()

    def test_graph_vs_shell_mc(self):
        det = sphere_quadrature(1.5, 2, 1.0, n=1024).total_mass
        mc_rule = sphere_quadrature(1.5, 2, 1.0, n=3 * 10**4, mode="shell-monte-carlo", seed=11)
        stderr = mc_rule.total_mass / math.sqrt(mc_rule.nodes.shape[0])
        assert abs(det - mc_rule.total_mass) < 3.0 * stderr

    def test_mc_nodes_in_shell(self):
        rule = sphere_quadrature(1.5, 2, 2.0, n=2000, mode="shell-monte-carlo", seed=1)
        assert rule.max_radius_deviation() <= rule.node_tolerance()

    def test_orthant_symmetry(self):
        rule = sphere_quadrature(3.0, 2, 1.0, n=1024)
        om = rule.orthant_masses()
        assert np.max(np.abs(om - rule.total_mass / 4.0)) < 1e-12

    def test_unsupported_pairs(self):
        with pytest.raises(ValueError):
            sphere_quadrature(1.5, 4, 1.0, mode="deterministic-graph")
        with pytest.raises(ValueError):
            sphere_quadrature(1.5, 9, 1.0, mode="shell-monte-carlo")
        with pytest.raises(ValueError):
            sphere_quadrature(1.5, 2, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            sphere_quadrature(1.5, 2, bad)

    def test_determinism_given_seed(self):
        a = sphere_quadrature(1.5, 2, 1.0, n=4000, mode="shell-monte-carlo", seed=9)
        b = sphere_quadrature(1.5, 2, 1.0, n=4000, mode="shell-monte-carlo", seed=9)
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)

    def test_mass_reduction_order_independent(self, rng):
        rule = sphere_quadrature(1.5, 2, 1.0, n=1024)
        base = rule.total_mass
        for _ in range(5):
            perm = rng.permutation(rule.weights.size)
            assert abs(math.fsum(rule.weights[perm]) - base) < 1e-12


class TestMassInvariance:
    def test_euclidean_exact(self):
        rep = sigma_mass_invariance(2.0, 2, [1.0, 2.0, 4.0], n=512)
        assert all(m == pytest.approx(math.pi, abs=1e-6) for m in rep.masses)
        assert rep.max_relative_deviation < 1e-6

    def test_cubic_deterministic(self):
        rep = sigma_mass_invariance(3.0, 2, [1.0, 2.0], n=2048)
        assert rep.max_relative_deviation < 1e-4

    def test_shell_mc_d3(self):
        rep = sigma_mass_invariance(1.5, 3, [1.0, 2.0], n=2 * 10**4,
                                    mode="shell-monte-carlo", seed=4)
        stderr = rep.masses[0] / math.sqrt(2 * 10**4)
        assert abs(rep.masses[0] - rep.masses[1]) < 3.0 * stderr
        assert rep.masses[0] == pytest.approx(sigma_total_mass(1.5, 3), rel=5e-2)


class TestShellVolumeIdentity:
    def test_thin_shell_volume_matches_scaling(self, rng):
        p, d, tau_eps = 1.5, 2, 0.05
        nu = unit_ball_volume(p, d)
        target = nu * ((1 + tau_eps) ** (d / p) - (1 - tau_eps) ** (d / p))
        n = 2 * 10**6
        half = (1 + tau_eps) ** (1 / p)
        pts = rng.uniform(-half, half, size=(n, d))
        u = np.sum(np.abs(pts) ** p, axis=1)
        q = np.mean((u >= 1 - tau_eps) & (u <= 1 + tau_eps))
        est = (2 * half) ** d * q
        stderr = (2 * half) ** d * math.sqrt(q * (1 - q) / n)
        assert abs(est - target) < 4.0 * stderr
