import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth.bumps import phi_plus
from lproth.lpgeom import LpExponent
from lproth.oscillatory import (
    KL_HALF,
    PhaseFamily,
    _admissible_interval,
    _panel_count,
    _phase_values,
    _shift_cell,
    _simpson_weights,
    _window_product,
    build_transform_table,
    decay_fit,
    dist_to_degenerate_subspace,
    fit_stationary_exponent,
    i_of_t,
    i_of_t_lattice,
    inner_integral,
    lacunary_sum_bound,
    multiplier_check,
    multiplier_value,
    phase_eval,
    phase_eval_remainder,
    stationary_lower_bound_check,
)


class TestPhase:
    def test_quadratic_case_constant(self, rng):
        fam = PhaseFamily(p=2.0, k=0.4, l=-0.3)
        lo, hi = fam.admissible_interval()
        for y in rng.uniform(lo, hi, size=200):
            v, _ = phase_eval(fam, y)
            assert abs(v - 2.0 * fam.k * fam.l) < 1e-12

    def test_linear_case_vanishes(self, rng):
        fam = PhaseFamily(p=1.0, k=0.2, l=0.1)
        lo, hi = fam.admissible_interval()
        for y in rng.uniform(lo, hi, size=50):
            v, d = phase_eval(fam, y)
            assert abs(v) < 1e-14 and abs(d) < 1e-13

    def test_remainder_form_cubic(self):
        fam = PhaseFamily(p=3.0, k=0.5, l=0.5)
        dv, dd = phase_eval(fam, 1.0)
        rv, rd = phase_eval_remainder(fam, 1.0)
        assert abs(dv - rv) < 1e-8 and abs(dd - rd) < 1e-8
        assert dd == pytest.approx(6.0 * 0.25, abs=1e-12)

    def test_remainder_form_fractional(self, rng):
        fam = PhaseFamily(p=1.5, k=0.3, l=-0.2)
        lo, hi = fam.admissible_interval()
        for y in rng.uniform(lo + 0.01, hi - 0.01, size=10):
            dv, dd = phase_eval(fam, y)
            rv, rd = phase_eval_remainder(fam, y)
            assert abs(dv - rv) < 1e-8 and abs(dd - rd) < 1e-8

    def test_inadmissible_rejected(self):
        fam = PhaseFamily(p=1.5, k=0.5, l=0.5)
        with pytest.raises(ValueError):
            phase_eval(fam, 2.3)  # y + k + l leaves the window


class TestInnerIntegral:
    def test_static_value_positive(self):
        fam = PhaseFamily(p=1.5, k=0.05, l=-0.05)
        v = inner_integral(fam, 0.0)
        assert abs(v.imag) < 1e-14
        assert v.real > 0.0

    def test_quadratic_modulus_invariance(self):
        fam = PhaseFamily(p=2.0, k=0.3, l=0.2)
        assert abs(inner_integral(fam, 100.0)) == pytest.approx(
            abs(inner_integral(fam, 0.0)), rel=1e-10)

    def test_refinement_self_consistency(self):
        fam = PhaseFamily(p=3.0, k=0.5, l=0.5)
        a = inner_integral(fam, 100.0, nodes_per_period=16)
        b = inner_integral(fam, 100.0, nodes_per_period=32)
        assert abs(a - b) < 1e-4 * max(abs(a), 1e-12)

    def test_modulus_bounded_by_static_mass(self):
        fam = PhaseFamily(p=3.0, k=0.2, l=-0.4)
        mass = inner_integral(fam, 0.0).real
        for t in (10.0, 1000.0):
            assert abs(inner_integral(fam, t)) <= mass + 1e-12

    def test_shift_symmetry(self):
        # algebraically identical; float summation order differs
        a = inner_integral(PhaseFamily(1.5, 0.3, 0.1), 50.0)
        b = inner_integral(PhaseFamily(1.5, 0.1, 0.3), 50.0)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_modulation_cap(self):
        with pytest.raises(ValueError):
            inner_integral(PhaseFamily(1.5, 0.1, 0.1), 2e6)


class TestAggregate:
    def test_nonnegative_and_even(self):
        for p in (1.5, 3.0):
            v = i_of_t(p, 100.0, n_kl=16)
            w = i_of_t(p, -100.0, n_kl=16)
            assert v >= 0.0
            assert v == pytest.approx(w, rel=1e-12)

    def test_degenerate_exponents_flat(self):
        for p in (1.0, 2.0):
            v0 = i_of_t(p, 0.0, n_kl=12)
            for t in (10.0, 1000.0):
                assert i_of_t(p, t, n_kl=12) == pytest.approx(v0, rel=1e-12)

    def test_cubic_strictly_decreasing(self):
        vals = [i_of_t(3.0, t, n_kl=24) for t in (10.0, 100.0, 1000.0)]
        assert vals[0] > vals[1] > vals[2] > 0.0

    def test_static_value_matches_lattice_oracle(self):
        for p in (1.5, 3.0):
            a = i_of_t(p, 0.0, n_kl=32)
            b = i_of_t_lattice(p, 0.0, n_kl=64, n_y=4096)
            assert abs(a - b) / a < 2e-3

    def test_moderate_modulation_matches_lattice_oracle(self):
        a = i_of_t(1.5, 30.0, n_kl=32)
        b = i_of_t_lattice(1.5, 30.0, n_kl=96, n_y=8192)
        assert abs(a - b) / a < 2e-2


def i_of_t_full_grid(p, t, n_kl, nodes_per_period=16):
    """Reference I(t): the Simpson cell value at every one of the n_kl^2 Gauss nodes."""
    x, w = np.polynomial.legendre.leggauss(n_kl)
    total = 0.0
    for a, wa in zip(KL_HALF * x, KL_HALF * w):
        row = 0.0
        for b, wb in zip(KL_HALF * x, KL_HALF * w):
            lo, hi = _admissible_interval(a, b)
            if hi <= lo:
                continue
            n = _panel_count(p, t, a, b, lo, hi, nodes_per_period)
            y = np.linspace(lo, hi, n + 1)
            f = _window_product(y, a, b) * np.exp(1j * t * _phase_values(y, p, a, b))
            val = (hi - lo) / n * np.dot(_simpson_weights(n) / 3.0, f)
            row += wb * abs(val) ** 2
        total += wa * row
    return total


class TestFundamentalDomain:
    """i_of_t evaluates a quarter of the shift grid and weights each cell by its orbit."""

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("n_kl", [7, 8])
    @pytest.mark.parametrize("t", [0.0, 10.0, 1e3])
    def test_matches_full_grid(self, p, n_kl, t):
        ref = i_of_t_full_grid(p, t, n_kl)
        assert i_of_t(p, t, n_kl=n_kl) == pytest.approx(ref, rel=1e-11)

    def test_gauss_nodes_exactly_symmetric(self):
        for n in range(1, 65):
            x, w = np.polynomial.legendre.leggauss(n)
            assert np.array_equal(x[::-1], -x)
            assert np.array_equal(w[::-1], w)

    @settings(max_examples=40, deadline=None)
    @given(n_kl=st.integers(min_value=2, max_value=48), data=st.data(),
           p=st.floats(min_value=1.1, max_value=4.0),
           t=st.floats(min_value=-1e3, max_value=1e3))
    def test_cell_symmetries_at_gauss_nodes(self, n_kl, data, p, t):
        i = data.draw(st.integers(min_value=0, max_value=n_kl - 1))
        j = data.draw(st.integers(min_value=0, max_value=n_kl - 1))
        ks = KL_HALF * np.polynomial.legendre.leggauss(n_kl)[0]
        cell = _shift_cell(p, t, ks[i], ks[j])
        swapped = _shift_cell(p, t, ks[j], ks[i])
        negated = _shift_cell(p, t, ks[n_kl - 1 - i], ks[n_kl - 1 - j])
        for other in (swapped, negated):
            assert abs(other - cell) <= 1e-9 * cell + 1e-14


class TestDecayFit:
    def test_theory_indices(self):
        assert LpExponent(1.5).r == pytest.approx(2.5)
        assert LpExponent(3.0).r == pytest.approx(5.0)
        assert LpExponent(2.0).r == pytest.approx(3.0)

    def test_envelope_definition_covers_samples(self):
        fit = decay_fit(3.0, list(np.logspace(1, 3.2, 6)), n_kl=16)
        for t, v in zip(fit.t_samples, fit.values):
            assert v <= fit.c_fit * t ** (-1.0 / fit.r_theory) * (1 + 1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            decay_fit(1.5, [10.0, 20.0, 40.0, 80.0, 100.0, 200.0])
        with pytest.raises(ValueError):
            decay_fit(1.5, [10.0, 100.0, 1000.0])


class TestStationaryBound:
    def test_quadratic_degenerate(self):
        out = stationary_lower_bound_check(2.0, 0.1)
        assert out.degenerate and out.min_abs_dpsi == 0.0

    def test_cubic_positive_floor(self):
        out = stationary_lower_bound_check(3.0, 0.1)
        assert out.min_abs_dpsi > 0.0
        # the derivative is exactly 6kl, so the floor is 6 eta^2
        assert out.min_abs_dpsi == pytest.approx(6.0 * 0.01, rel=1e-6)

    def test_fractional_floor_decreases(self):
        a = stationary_lower_bound_check(1.5, 0.2).min_abs_dpsi
        b = stationary_lower_bound_check(1.5, 0.1).min_abs_dpsi
        assert 0.0 < b < a

    def test_cubic_exponent_matches_shift_product(self):
        expo, _ = fit_stationary_exponent(3.0, (0.2, 0.1, 0.05))
        assert abs(expo - 2.0) < 0.3  # p - 1 = 2 exactly at the cubic exponent

    def test_eta_range_guard(self):
        with pytest.raises(ValueError):
            stationary_lower_bound_check(1.5, 0.7)


class TestLacunarySums:
    def test_pure_doubling_tail(self):
        mus = [2.0**j for j in range(1, 21)]
        s1, s2, cap = lacunary_sum_bound(mus)
        assert s1 < 1.0 and s2 <= s1 and cap == 4.0

    def test_straddling_one(self):
        mus = [2.0 ** (j - 10) for j in range(1, 21)]
        s1, s2, cap = lacunary_sum_bound(mus)
        assert s1 < 4.0 and s2 < 4.0

    def test_weighted_variant(self):
        mus = [0.01 * 3.0**j for j in range(1, 16)]
        s1, s2, _ = lacunary_sum_bound(mus, k=2)
        assert s2 < 4.0

    def test_non_lacunary_rejected(self):
        with pytest.raises(ValueError):
            lacunary_sum_bound([1.0, 1.5])

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6),
           start=st.floats(min_value=1e-4, max_value=10.0))
    def test_random_lacunary_cap(self, seed, start):
        r = np.random.default_rng(seed)
        v = start
        mus = [v]
        for _ in range(14):
            v *= 2.0 * (1.0 + float(r.uniform(0.0, 0.8)))
            mus.append(v)
        s1, s2, cap = lacunary_sum_bound(mus, k=1)
        assert s1 <= cap and s2 <= cap


@pytest.fixture(scope="module")
def table(moll):
    return build_transform_table(1.5, 0.1, moll)


class TestMultiplier:
    def test_vanishes_on_first_functional(self, table):
        # xi1 - xi2 + xi3 = 0 forces the first transform argument to zero
        xi = np.array([0.4, 1.0, 0.6])
        lams = [1.5 * 2.0**j for j in range(6)]
        assert abs(multiplier_value(xi, lams, table)) < 1e-4

    def test_scale_count_uniformity(self, table):
        lam6 = [1.5 * 2.0**j for j in range(6)]
        lam12 = [1.5 * 2.0**j for j in range(12)]
        xi = np.array([0.7, -0.4, 0.9])
        a = multiplier_check(*xi, lam6, table)
        b = multiplier_check(*xi, lam12, table)
        assert 0.5 <= b.abs_m / a.abs_m <= 2.0

    def test_gradient_distance_product_stable(self, table):
        lam12 = [1.5 * 2.0**j for j in range(12)]
        base = np.array([-2.0, -1.0, 1.0]) / math.sqrt(6.0)
        prods = []
        for dist in (0.1, 0.01):
            xi = 1.3 * base + dist * np.array([1.0, 0.0, 0.0])
            aud = multiplier_check(*xi, lam12, table)
            prods.append(aud.grad_magnitude * aud.dist)
        assert max(prods) / min(prods) < 4.0

    def test_degenerate_plane_rejected(self, table):
        lams = [1.5 * 2.0**j for j in range(4)]
        with pytest.raises(ValueError):
            multiplier_check(-2.0, -1.0, 1.0, lams, table)

    def test_distance_formula(self):
        # the plane is spanned by (-2, -1, 1); points on it have distance 0
        assert dist_to_degenerate_subspace(np.array([-2.0, -1.0, 1.0])) < 1e-12
        v = dist_to_degenerate_subspace(np.array([1.0, 0.0, 0.0]))
        assert v > 0.1

    def test_table_matches_direct_transform(self, moll, table):
        from lproth.mollifier import KernelParams, kernel_fourier

        params = KernelParams(1.5, 1, 1.0, 0.1)
        for u in (0.5, 2.0, 7.0):
            direct = kernel_fourier(np.array([u]), params, moll).real
            tab = float(table.khat(np.array([u]))[0])
            assert abs(direct - tab) < 2e-4

    @pytest.mark.parametrize("p, eps", [(1.5, 0.1), (3.0, 0.05)])
    def test_table_scale_against_direct_transform(self, moll, p, eps):
        # the DCT table and the shell-aligned quadrature are independent routes
        # to the same transform; a misjudged grid step scales every entry
        from lproth.mollifier import KernelParams, kernel_fourier

        table = build_transform_table(p, eps, moll)
        params = KernelParams(p, 1, 1.0, eps)
        for u in (0.3, 0.7, 2.0, 10.0, 50.0, 200.0):
            direct = kernel_fourier(np.array([u]), params, moll).real
            assert abs(float(table.khat(np.array([u]))[0]) - direct) < 1e-8

    def test_window_support_convention(self):
        assert phi_plus(np.array([0.2]))[0] == 0.0
        assert phi_plus(np.array([1.0]))[0] == 1.0
        assert phi_plus(np.array([2.6]))[0] == 0.0
