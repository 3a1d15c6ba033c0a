import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import claims, forms
from lproth.gowers import (
    CyclicGridFunction,
    _overlap_shifts,
    delta_h,
    embed_kernel_difference,
    min_shell_grid,
    u2_fourth_brute,
    u2_norm,
    u3_eighth_brute,
    u3_eighth_recursive,
    u3_kernel_distance,
    u3_norm,
    u3_tensor_check,
)
from lproth.mollifier import KernelParams, omega_eps_eval


def random_grid(rng, M, d, complex_values=True):
    shape = (M,) * d
    v = rng.normal(size=shape)
    if complex_values:
        v = v + 1j * rng.normal(size=shape)
    return CyclicGridFunction(v)


class TestDeltaH:
    def test_constant(self):
        F = CyclicGridFunction(np.ones(8))
        assert np.array_equal(delta_h(F, [3]).values, np.ones(8))

    def test_character_becomes_constant(self):
        M, xi, h = 16, 3, 5
        F = CyclicGridFunction(np.exp(2j * np.pi * xi * np.arange(M) / M))
        out = delta_h(F, [h]).values
        expected = np.exp(2j * np.pi * h * xi / M)
        assert np.allclose(out, expected, atol=1e-14)

    def test_commutativity(self, rng):
        F = random_grid(rng, 8, 1)
        a = delta_h(delta_h(F, [3]), [5]).values
        b = delta_h(delta_h(F, [5]), [3]).values
        # same four factors, different multiplication order
        assert np.allclose(a, b, rtol=1e-14, atol=0.0)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            delta_h(random_grid(rng, 4, 2), [1])


class TestU2:
    def test_constant_counting_value(self):
        M = 12
        F = CyclicGridFunction(np.ones(M))
        assert u2_norm(F) ** 4 == pytest.approx(M**3, rel=1e-12)

    def test_point_mass(self):
        v = np.zeros(16)
        v[0] = 1.0
        F = CyclicGridFunction(v)
        assert u2_norm(F) ** 4 == pytest.approx(1.0, rel=1e-12)

    def test_spectral_equals_brute(self, rng):
        for _ in range(5):
            F = random_grid(rng, 16, 1)
            b = u2_fourth_brute(F)
            s = u2_norm(F) ** 4
            assert abs(b.real - s) / s < 1e-10
            assert abs(b.imag) < 1e-10 * s


class TestU3:
    def test_constant_value(self):
        F = CyclicGridFunction(np.ones(4))
        assert u3_eighth_brute(F).real == pytest.approx(256.0, rel=1e-13)
        assert u3_norm(F) == pytest.approx(2.0, rel=1e-13)

    def test_point_mass(self):
        v = np.zeros(8)
        v[0] = 1.0
        F = CyclicGridFunction(v)
        assert u3_eighth_brute(F).real == pytest.approx(1.0, rel=1e-13)

    def test_recursive_equals_brute_1d(self, rng):
        for _ in range(5):
            F = random_grid(rng, 8, 1)
            b = u3_eighth_brute(F)
            r = u3_eighth_recursive(F)
            assert abs(b.real - r) / abs(r) < 1e-10

    def test_recursive_equals_brute_2d(self, rng):
        F = random_grid(rng, 4, 2)
        b = u3_eighth_brute(F)
        r = u3_eighth_recursive(F)
        assert abs(b.real - r) / abs(r) < 1e-10

    def test_budget_guard(self):
        with pytest.raises(ValueError):
            u3_eighth_brute(CyclicGridFunction(np.ones(256)))

    def test_positivity(self, rng):
        for _ in range(5):
            F = random_grid(rng, 6, 1)
            v = u3_eighth_brute(F)
            assert v.real >= 0.0
            assert abs(v.imag) <= 1e-10 * max(v.real, 1e-30)

    def test_modulation_invariance(self, rng):
        M = 16
        F = random_grid(rng, M, 1)
        base = u3_norm(F)
        for xi in (1, 5, 11):
            mod = CyclicGridFunction(
                F.values * np.exp(2j * np.pi * xi * np.arange(M) / M))
            assert abs(u3_norm(mod) - base) / base < 1e-10

    def test_translation_invariance(self, rng):
        F = random_grid(rng, 16, 1)
        base = u3_norm(F)
        for a in (1, 7):
            tr = CyclicGridFunction(np.roll(F.values, a))
            assert abs(u3_norm(tr) - base) / base < 1e-10

    def test_nesting_inequality(self, rng):
        # counting measure: ||F||_{U^2} <= M^(d/4) ||F||_{U^3}
        M, d = 8, 1
        for _ in range(100):
            F = random_grid(rng, M, d)
            assert u2_norm(F) <= M ** (d / 4.0) * u3_norm(F) * (1 + 1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_norm_scales_linearly(self, seed):
        r = np.random.default_rng(seed)
        F = CyclicGridFunction(r.normal(size=8) + 1j * r.normal(size=8))
        G = CyclicGridFunction(3.0 * F.values)
        assert u3_norm(G) == pytest.approx(3.0 * u3_norm(F), rel=1e-12)


def u3_all_shifts(F):
    """Reference recursive U^3^8: the spectral U^2 term of every one of the M^d shifts."""
    axes = tuple(range(F.d))
    total = 0.0
    for h in itertools.product(range(F.M), repeat=F.d):
        shifted = np.roll(F.values, shift=tuple(-c for c in h), axis=axes)
        Fh = np.fft.fftn(shifted * np.conj(F.values))
        total += float(np.sum(np.abs(Fh) ** 4) / F.values.size)
    return total


def sparse_grid(rng, M, d, cells):
    """Complex random values on the given cells, zero elsewhere."""
    v = np.zeros((M,) * d, dtype=complex)
    for c in cells:
        v[tuple(c)] = rng.normal() + 1j * rng.normal()
    return CyclicGridFunction(v)


class TestSkippedShifts:
    """The recursive U^3 visits only the shifts where supp F and supp F - h meet."""

    def test_bit_identical_to_all_shifts_1d(self, rng):
        grids = [
            sparse_grid(rng, 32, 1, [[3], [7], [20]]),
            sparse_grid(rng, 32, 1, [[0], [1], [30], [31]]),  # wraps around index 0
            sparse_grid(rng, 16, 1, [[5]]),
            CyclicGridFunction(np.zeros(16)),
            random_grid(rng, 16, 1),
        ]
        for F in grids:
            assert u3_eighth_recursive(F) == u3_all_shifts(F)

    def test_bit_identical_to_all_shifts_2d(self, rng):
        grids = [
            sparse_grid(rng, 8, 2, [[1, 2], [3, 3], [5, 1]]),
            sparse_grid(rng, 8, 2, [[0, 0], [7, 0], [0, 7], [7, 7]]),  # wraps on both axes
            CyclicGridFunction(np.zeros((8, 8))),
            random_grid(rng, 6, 2),
        ]
        for F in grids:
            assert u3_eighth_recursive(F) == u3_all_shifts(F)

    def test_sparse_matches_brute(self, rng):
        for F in (sparse_grid(rng, 16, 1, [[2], [3], [9], [15]]),
                  sparse_grid(rng, 4, 2, [[0, 1], [3, 3], [2, 0]])):
            b = u3_eighth_brute(F)
            r = u3_eighth_recursive(F)
            assert abs(b.real - r) / abs(r) < 1e-10

    def test_shifts_are_the_cyclic_difference_set(self, rng):
        M = 12
        cells = [(0, 11), (4, 4), (4, 5), (10, 0)]
        F = sparse_grid(rng, M, 2, cells)
        diffs = {((b0 - a0) % M, (b1 - a1) % M) for a0, a1 in cells for b0, b1 in cells}
        assert [tuple(h) for h in _overlap_shifts(F.values)] == sorted(diffs)

    def test_kernel_embedding_is_sparse(self, moll):
        F = embed_kernel_difference(0.025, 0.1, 1.5, 1, 4096, moll)
        assert np.count_nonzero(F.values) == 194
        assert len(_overlap_shifts(F.values)) == 387


class TestKernelDistance:
    def test_identical_widths_zero(self, moll):
        assert u3_kernel_distance(0.1, 0.1, 1.5, 512, moll) == 0.0

    def test_divergence_rate_under_envelope(self, moll):
        # at d = 1 the distance grows as eta shrinks (no Cauchy tail at
        # desk-scale dimension); the transition-regime exponent sits near
        # the envelope exponent d/(8r) - 1 = -0.95 and flattens toward the
        # -1/2 rate of the narrow-shell mass at finer widths
        eps = 0.1
        etas1 = (0.05, 0.025, 0.0125)
        vals1 = [u3_kernel_distance(eta, eps, 1.5, 4096, moll) for eta in etas1]
        assert vals1[0] > 0.0
        assert vals1[0] < vals1[1] < vals1[2]
        slope1 = np.polyfit(np.log(etas1), np.log(vals1), 1)[0]
        assert -0.96 < slope1 < -0.5
        etas2 = (0.025, 0.0125, 0.00625)
        vals2 = [u3_kernel_distance(eta, eps, 1.5, 8192, moll) for eta in etas2]
        assert vals2[0] < vals2[1] < vals2[2]
        slope2 = np.polyfit(np.log(etas2), np.log(vals2), 1)[0]
        assert slope2 > slope1 + 0.1

    def test_under_resolved_grid_rejected(self, moll):
        with pytest.raises(ValueError):
            u3_kernel_distance(0.01, 0.1, 1.5, 256, moll)

    def test_min_shell_grid_is_the_threshold(self, moll):
        for eta, eps, p in ((0.025, 0.1, 1.5), (0.05, 0.1, 3.0), (0.025, 0.1, 5.0)):
            M = min_shell_grid(eta, eps, p)
            embed_kernel_difference(eta, eps, p, 1, M, moll)
            with pytest.raises(ValueError, match=f"< {M}"):
                embed_kernel_difference(eta, eps, p, 1, M - 1, moll)
        assert min_shell_grid(0.025, 0.1, 1.5) == 1356

    def test_min_shell_grid_bounded_for_huge_p(self):
        # p = 1e13 needs 8e15 cells per axis, still below 2**53 (9.0e15); past
        # that, and where the quotient overflows, the helper refuses
        assert min_shell_grid(0.025, 0.1, 1e13) == 8000000000000145
        for p in (2e13, 1e30, 1e306):
            with pytest.raises(ValueError, match="2\\*\\*53"):
                min_shell_grid(0.025, 0.1, p)

    def test_embedding_masks_negative_axis(self, moll):
        F = embed_kernel_difference(0.05, 0.1, 1.5, 1, 2048, moll)
        ax = (np.arange(2048) - 1024) * F.cell
        assert np.all(F.values[ax <= 0.0] == 0.0)


class TestTensorization:
    def test_no_oscillation_matches(self):
        tc = u3_tensor_check(1.5, 0.0, M=64)
        assert tc.relative_gap < 1e-10

    def test_grid_identity_at_stated_points(self):
        for p, t in ((1.5, 2.0), (3.0, 5.0)):
            tc = u3_tensor_check(p, t, M=64)
            assert tc.relative_gap < 1e-2

    def test_empty_grid_rejected(self):
        for M in (0, -4):
            with pytest.raises(ValueError, match="M must be at least 1"):
                u3_tensor_check(1.5, 1.0, M=M)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_modulation_named(self, t):
        with pytest.raises(ValueError, match="^t must be finite"):
            u3_tensor_check(1.5, t)


def reference_form(f, g, h):
    """h^2 sum over j of g(j) sum_x f(x) f(x+j) f(x+2j), by a loop over f padded with zeros."""
    nf, ng = f.size, g.size
    fpad = np.zeros(nf + 2 * ng)
    fpad[:nf] = f
    T = 0.0
    for j in range(ng):
        T += g[j] * float(np.dot(f, fpad[j:j + nf] * fpad[2 * j:2 * j + nf]))
    return T * h * h


class TestFormControl:
    def test_zero_kernel(self):
        out = claims.u3_form_control(forms.full_box(6.4, 0.1, 1), np.zeros(32), 3.2)
        assert out.values == {"T": 0.0, "bound": 0.0, "ratio": 0.0}
        assert out.passed

    def test_shell_difference_ratio(self, moll):
        p = 1.5
        lam = 3.0 ** (1.0 / p)
        N, h = 16.0, 0.05
        ng = int(lam / h)
        ys = (np.arange(ng) + 0.5) * h
        pts = ys[:, None]
        g = (omega_eps_eval(pts, KernelParams(p, 1, 1.0, 1.0), moll)
             - omega_eps_eval(pts, KernelParams(p, 1, 1.0, 0.1), moll))
        f = forms.full_box(N, h, 1)
        out = claims.u3_form_control(f, g, lam)
        T = reference_form(f.values, g, h)
        assert abs(out.values["T"] - T) <= 1e-12 * abs(T)
        assert out.values["bound"] > 0.0
        assert out.values["ratio"] <= 4.0 and out.passed

    def test_random_audit(self, rng):
        worst = 0.0
        for _ in range(20):
            nf, ng = 128, 48
            h = 0.1
            f = rng.uniform(-1.0, 1.0, size=nf)
            g = rng.uniform(-1.0, 1.0, size=ng)
            out = claims.u3_form_control(forms.BoxFunction(f, nf * h, h), g, ng * h)
            T = reference_form(f, g, h)
            assert abs(out.values["T"] - T) <= 1e-12 * abs(T)
            worst = max(worst, out.values["ratio"])
        assert worst < 10.0

    def test_size_guard(self):
        for f, g in ((forms.full_box(819.2, 0.1, 1), np.ones(8)),
                     (forms.full_box(10.0, 0.1, 1), np.ones(8192))):
            with pytest.raises(ValueError, match="audit budget"):
                claims.u3_form_control(f, g, 1.0)
        with pytest.raises(ValueError, match="one-dimensional"):
            claims.u3_form_control(forms.full_box(10.0, 0.1, 2), np.ones(8), 1.0)

    def test_scale_guard(self):
        # a NaN scale would give a NaN bound and a record that fails without saying why
        for lam in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^lam must be finite"):
                claims.u3_form_control(forms.full_box(10.0, 0.1, 1), np.ones(8), lam)
