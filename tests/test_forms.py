import math

import numpy as np
import pytest
from scipy import integrate

from lproth import forms, lpgeom
from lproth.forms import (
    BoxFunction,
    box_partition_pigeonhole,
    decomposition_forms,
    decomposition_residual,
    e_lambda,
    energy_sum,
    full_box,
    full_box_mollified_oracle,
    full_box_sharp_oracle,
    m_eps_lambda,
    n_lambda,
    random_indicator,
    resolved_grid,
    roth_main_term_experiment,
    translate_box,
)
from lproth.gowers import CyclicGridFunction, u3_norm_continuum
from lproth.mollifier import KernelParams, build_cancelled_kernel, kernel_total_mass, omega_eps_eval
from lproth.util import spawn_rng

P = 1.5


def _resolved_box(N, lam, eps, d):
    h = eps * lam / (8.0 * P)
    n = int(np.ceil(N / h))
    return N / n


class TestBoxFunction:
    def test_range_enforced(self):
        with pytest.raises(ValueError):
            BoxFunction(values=2.0 * np.ones(8), N=8.0, h=1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            BoxFunction(values=[bad, 0.5], N=2.0, h=1.0)

    @pytest.mark.parametrize("name,N,h", [
        ("N", np.nan, 0.25), ("N", np.inf, 0.25), ("N", -1.0, 0.25), ("N", 0.0, 0.25),
        ("h", 1.0, 0.0), ("h", 1.0, np.nan), ("h", 1.0, np.inf), ("h", 1.0, -0.25),
    ])
    def test_bad_size_or_step_rejected(self, name, N, h):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            BoxFunction(values=np.ones(4), N=N, h=h)

    @pytest.mark.parametrize("name,build", [
        ("N", lambda: full_box(np.nan, 0.25, 2)),
        ("N", lambda: random_indicator(np.nan, 0.25, 2, 0.5, 1)),
        ("h", lambda: full_box(4.0, 0.0, 2)),
        ("N", lambda: resolved_grid(np.inf, 2.0, 0.25, 1.5)),
        ("N / h", lambda: full_box(1e308, 1e-10, 1)),
    ])
    def test_builders_reject_bad_size_or_step(self, name, build):
        with pytest.raises(ValueError, match=f"^{name} "):
            build()

    def test_scalar_values_rejected(self):
        with pytest.raises(ValueError, match="^values must have at least one axis"):
            BoxFunction(values=1.0, N=1.0, h=1.0)

    def test_cell_count_enforced(self):
        with pytest.raises(ValueError):
            BoxFunction(values=np.ones(7), N=8.0, h=1.1)

    def test_random_indicator_density(self):
        f = random_indicator(16.0, 0.5, 2, 0.3, seed=1)
        assert np.mean(f.values) >= 0.3
        assert set(np.unique(f.values)) <= {0.0, 1.0}

    def test_structured_indicator_density(self):
        f = random_indicator(16.0, 1.0, 2, 0.25, seed=2, structured=True)
        assert np.mean(f.values) >= 0.25

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("density", [1.5, np.nan, -0.5, 0.0, np.inf, -np.inf])
    def test_bad_density_rejected(self, density, structured):
        with pytest.raises(ValueError, match="^density must be finite and in"):
            random_indicator(8.0, 0.5, 2, density, seed=1, structured=structured)

    @pytest.mark.parametrize("structured", [False, True])
    def test_unit_density_fills_the_box(self, structured):
        f = random_indicator(8.0, 0.5, 2, 1.0, seed=1, structured=structured)
        assert np.all(f.values == 1.0)

    @pytest.mark.parametrize("density", [1e-19, 1.08e-19, 2.0**-63, 5e-324])
    def test_structured_period_beyond_int64_rejected(self, density):
        # the stripe period round(1 / density) must fit in int64
        with pytest.raises(ValueError, match="^density must be above 2\\*\\*-63"):
            random_indicator(8.0, 0.5, 2, density, seed=1, structured=True)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_structured_stripes_as_the_outer_product_loop(self, monkeypatch, d):
        # the stripes of the d - 1 outer products this build replaced, and the same draws after
        drawn = []

        def record(*args):
            drawn.append(spawn_rng(*args))
            return drawn[-1]

        monkeypatch.setattr(forms, "spawn_rng", record)
        n = 12
        for seed in range(6):
            for density in (0.26, 0.3, 0.5):
                rng = spawn_rng(seed, 3)
                period = max(2, int(round(1.0 / density)))
                axis = np.zeros(n)
                axis[(np.arange(n) + int(rng.integers(period))) % period == 0] = 1.0
                grid = axis
                for _ in range(d - 1):
                    grid = np.multiply.outer(np.ones(n), grid)
                old = grid.ravel()
                short = int(np.ceil(density * n**d)) - int(old.sum())
                if short > 0:
                    old[rng.choice(np.flatnonzero(old == 0.0), size=short, replace=False)] = 1.0
                f = random_indicator(float(n), 1.0, d, density, seed=seed, structured=True)
                assert f.values.tobytes() == old.tobytes() and f.values.flags.writeable
                assert drawn[-1].bit_generator.state == rng.bit_generator.state

    @pytest.mark.parametrize("density, structured, cell", [
        (1.1e-19, True, 142), (np.nextafter(2.0**-63, 1.0), True, 142), (1e-19, False, 109)])
    def test_tiny_density_draws_as_before(self, density, structured, cell):
        f = random_indicator(8.0, 0.5, 2, density, seed=1, structured=structured)
        assert np.flatnonzero(f.values).tolist() == [cell]


class TestMollifiedForm:
    def test_zero_function(self, moll):
        h = _resolved_box(32.0, 2.0, 1.0, 1)
        f = BoxFunction(values=np.zeros(int(32.0 / h)), N=32.0, h=h)
        assert m_eps_lambda(f, 2.0, 1.0, moll, P).value == 0.0

    def test_full_box_against_crude_target(self, moll):
        N, lam = 32.0, 2.0
        h = _resolved_box(N, lam, 1.0, 1)
        f = full_box(N, h, 1)
        cw = kernel_total_mass(KernelParams(P, 1, 1.0, 1.0), moll)
        v = m_eps_lambda(f, lam, 1.0, moll, P).value
        assert abs(v - cw * N) / (cw * N) < 3.0 * lam / N

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("form", ["m_eps_lambda", "e_lambda"])
    def test_non_finite_radius_rejected(self, moll, form, bad):
        f = full_box(8.0, 0.25, 1)
        fn = m_eps_lambda if form == "m_eps_lambda" else e_lambda
        with pytest.raises(ValueError, match="^lam must be finite and positive"):
            fn(f, bad, 0.5, moll, P)

    def test_full_box_against_corrected_oracle(self, moll):
        N, lam = 32.0, 2.0
        h = _resolved_box(N, lam, 1.0, 1)
        f = full_box(N, h, 1)
        v = m_eps_lambda(f, lam, 1.0, moll, P).value
        oracle = full_box_mollified_oracle(lam, 1.0, moll, P, 1, N)
        assert v == pytest.approx(oracle, rel=2e-3)

    @pytest.mark.parametrize("lam, eps, N", [(2.0, 1.0, 32.0), (2.0, 0.1, 32.0), (1.0, 0.05, 10.0),
                                             (2.0, 0.5, 3.0)])
    def test_one_dimensional_oracle_against_quad(self, moll, lam, eps, N):
        # the radial rule against adaptive quad; at N = 3 the span's kink
        # N/2 lies inside the kernel support
        params = KernelParams(P, 1, lam, eps)
        kinks = [lam * max(0.0, 1.0 - 2.0 * eps) ** (1.0 / P), lam, N / 2.0]
        R = params.support_radius
        ref, _ = integrate.quad(
            lambda r: omega_eps_eval(np.array([r]), params, moll) * 2.0 * max(0.0, N - 2.0 * r),
            0.0, R, points=[k for k in kinks if 0.0 < k < R], limit=400, epsabs=1e-13, epsrel=1e-12)
        assert full_box_mollified_oracle(lam, eps, moll, P, 1, N) == pytest.approx(ref, rel=1e-11)

    def test_nonnegative_for_indicators(self, moll):
        h = _resolved_box(16.0, 2.0, 1.0, 1)
        f = random_indicator(16.0, h, 1, 0.4, seed=5)
        out = m_eps_lambda(f, 2.0, 1.0, moll, P)
        assert out.value >= -out.quadrature_error

    def test_scale_guard(self, moll):
        f = full_box(8.0, 0.125, 1)
        with pytest.raises(ValueError):
            m_eps_lambda(f, 4.0, 1.0, moll, P)

    def test_resolution_guard(self, moll):
        f = full_box(8.0, 0.5, 1)
        with pytest.raises(ValueError):
            m_eps_lambda(f, 2.0, 0.05, moll, P)

    def test_two_dimensional_value(self, moll):
        N, lam = 8.0, 1.0
        h = N / round(N / (1.0 / 12.0))
        f = full_box(N, h, 2)
        v = m_eps_lambda(f, lam, 1.0, moll, P)
        cw = kernel_total_mass(KernelParams(P, 2, 1.0, 1.0), moll)
        assert v.value > 0.0
        assert abs(v.value - cw * N**2) / (cw * N**2) < 6.0 * lam / N


class TestWidthConsistency:
    def test_unit_width_same_code_path(self, moll):
        # eps = 1 is the base form M_lambda, the same form as the decomposition's M
        N, lam, eps = 32.0, 2.0, 0.25
        h = _resolved_box(N, lam, eps, 1)
        f = full_box(N, h, 1)
        out = m_eps_lambda(f, lam, 1.0, moll, P)
        assert (out.kind, out.eps) == ("M_lambda", 1.0)
        assert out.value == decomposition_forms(f, lam, eps, moll, P)[1].value

    def test_cancelled_form_is_boundary_small(self, moll):
        N, lam, eps = 32.0, 2.0, 0.25
        h = _resolved_box(N, lam, eps, 1)
        f = full_box(N, h, 1)
        e = e_lambda(f, lam, eps, moll, P).value
        mv = m_eps_lambda(f, lam, 1.0, moll, P).value
        assert abs(e) <= 10.0 * lam / N * abs(mv)

    def test_unit_width_cancelled_form_vanishes(self, moll):
        N, lam = 32.0, 2.0
        h = _resolved_box(N, lam, 1.0, 1)
        f = full_box(N, h, 1)
        assert e_lambda(f, lam, 1.0, moll, P).value == 0.0

    def test_decomposition_identity(self, moll, rng):
        N, lam, eps = 32.0, 2.0, 0.25
        h = _resolved_box(N, lam, eps, 1)
        n = int(round(N / h))
        for trial in range(3):
            vals = rng.uniform(-1.0, 1.0, size=n) if trial else np.ones(n)
            f = BoxFunction(values=vals, N=N, h=h)
            assert abs(decomposition_residual(f, lam, eps, moll, P)) < 1e-10


class TestSharpForm:
    def test_zero_function(self, moll):
        f = BoxFunction(values=np.zeros(128), N=16.0, h=0.125)
        rule = lpgeom.sphere_quadrature(P, 1, 2.0, n=32)
        assert n_lambda(f, rule, 2.0).value == 0.0

    def test_full_box_matches_corrected_oracle_1d(self, moll):
        N = 32.0
        lam = N / 8.0
        f = full_box(N, 0.125, 1)
        rule = lpgeom.sphere_quadrature(P, 1, lam, n=64)
        v = n_lambda(f, rule, lam).value
        assert abs(v - full_box_sharp_oracle(rule, N)) / full_box_sharp_oracle(rule, N) < 0.05

    def test_full_box_matches_corrected_oracle_2d(self, moll):
        N = 16.0
        lam = N / 8.0
        f = full_box(N, 0.25, 2)
        rule = lpgeom.sphere_quadrature(2.0, 2, lam, n=256)
        v = n_lambda(f, rule, lam).value
        oracle = full_box_sharp_oracle(rule, N)
        assert abs(v - oracle) / oracle < 0.05

    def test_forbidden_gap_on_shell_indicator(self, moll):
        # squared-shell set sampled on a grid; the mid-band gap leaves only
        # interpolation bleed.  The cell size must keep the membership fuzz
        # 3 * 2 sqrt(2) r_max h below the 0.1 margin of the forbidden band,
        # else pixelation re-admits progressions.
        N, n = 4.0, 2048
        h = N / n
        ax = (np.arange(n) + 0.5) * h
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        r2 = X**2 + Y**2
        vals = (np.abs(r2 - np.round(r2)) <= 0.1).astype(float)
        f = BoxFunction(values=vals, N=N, h=h)
        lam = float(np.sqrt(0.75))
        rule = lpgeom.sphere_quadrature(2.0, 2, lam, n=64)
        v = n_lambda(f, rule, lam).value
        assert v < 1e-3 * N**2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_scale_rejected(self, bad):
        f = full_box(4.0, 0.25, 2)
        rule = lpgeom.sphere_quadrature(1.5, 2, 1.0, n=8)
        with pytest.raises(ValueError, match="^lam must be finite"):
            n_lambda(f, rule, bad)

    def test_radius_mismatch_guard(self, moll):
        f = full_box(16.0, 0.25, 1)
        rule = lpgeom.sphere_quadrature(P, 1, 2.0, n=16)
        with pytest.raises(ValueError):
            n_lambda(f, rule, 3.0)


class TestEnergySum:
    def test_zero_function(self, moll):
        h = _resolved_box(32.0, 2.0, 0.25, 1)
        f = BoxFunction(values=np.zeros(int(round(32.0 / h))), N=32.0, h=h)
        rep = energy_sum(f, [2.0, 4.0, 8.0], 0.25, moll, P)
        assert rep.energies == [0.0, 0.0, 0.0]

    def test_full_box_ratio_below_one(self, moll):
        N = 32.0
        lams = [N / 16.0, N / 8.0, N / 4.0]
        eps = 0.25
        h = _resolved_box(N, min(lams), eps, 1)
        f = full_box(N, h, 1)
        rep = energy_sum(f, lams, eps, moll, P)
        assert rep.ratio < 1.0

    def test_ensemble_stability_in_length(self, moll):
        N, eps = 64.0, 0.25
        lams5 = [2.0 * 2.0**j for j in range(4)]
        h = _resolved_box(N, 2.0, eps, 1)
        worst3, worst4 = 0.0, 0.0
        for seed in range(6):
            f = random_indicator(N, h, 1, 0.3, seed=seed)
            r3 = energy_sum(f, lams5[:3], eps, moll, P).ratio
            r4 = energy_sum(f, lams5, eps, moll, P).ratio
            worst3, worst4 = max(worst3, r3), max(worst4, r4)
        assert worst4 <= 2.0 * worst3

    def test_non_lacunary_rejected(self, moll):
        f = full_box(32.0, 0.125, 1)
        with pytest.raises(ValueError):
            energy_sum(f, [2.0, 3.0], 0.25, moll, P)

    def test_empty_scale_list_rejected(self, moll):
        # with no scales the total and the ratio would be 0.0, a vacuous certificate
        f = full_box(32.0, 0.125, 1)
        with pytest.raises(ValueError, match="^lambdas must not be empty"):
            energy_sum(f, [], 0.25, moll, P)

    def test_cross_module_majorant(self, moll, rng):
        # cancelled form against the difference-cube majorant of its kernel
        N, lam, eps = 32.0, 2.0, 0.25
        h = _resolved_box(N, lam, eps, 1)
        n = int(round(N / h))
        f = BoxFunction(values=rng.choice([-1.0, 1.0], size=n), N=N, h=h)
        ev = e_lambda(f, lam, eps, moll, P).value
        R = lam * 3.0 ** (1.0 / P)
        ng = int(np.ceil(R / h)) + 1
        ys = np.arange(-ng, ng + 1)[:, None] * h
        kv = build_cancelled_kernel(KernelParams(P, 1, lam, eps), moll)(ys)
        Mg = 1
        while Mg < 5 * (2 * ng + 1):
            Mg *= 2
        gg = np.zeros(Mg, dtype=complex)
        gg[:2 * ng + 1] = kv
        bound = N * np.sqrt(2.0 * R) * u3_norm_continuum(
            CyclicGridFunction(gg, cell=h))
        assert abs(ev) <= bound


class TestPigeonhole:
    def test_constant_half_density(self):
        # a 0/1 checkerboard: every 4 x 4 box holds 8 of its 16 cells, so all L boxes qualify
        vals = (np.add.outer(np.arange(16), np.arange(16)) % 2).astype(float)
        f = BoxFunction(values=vals, N=16.0, h=1.0)
        assert np.all(forms._box_counts(f, 4) == 8)
        assert box_partition_pigeonhole(f, 4.0)

    def test_half_filled_boxes(self):
        vals = np.zeros((16, 16))
        vals[:8, :] = 1.0
        assert box_partition_pigeonhole(BoxFunction(values=vals, N=16.0, h=1.0), 4.0)
        # one full box of 18 cells and seven boxes of 2: 2 L S = 2 * 8 * 2 = 32 = S_total,
        # so the seven sit exactly on the line and qualify in exact integers.  One cell
        # less in the last box drops it below the line; one cell more in the second box
        # lifts S_total to 33 and drops the other six.  The bound holds in all three.
        line = np.zeros(8 * 18)
        line[:18] = line[18::18] = line[19::18] = 1.0
        less, more = line.copy(), line.copy()
        less[7 * 18 + 1] = 0.0
        more[18 + 2] = 1.0
        for v in (line, less, more):
            assert box_partition_pigeonhole(BoxFunction(values=v, N=144.0, h=1.0), 18.0)

    def test_random_ensemble_exact(self):
        for d in (1, 2):
            for seed in range(30):
                f = random_indicator(16.0, 1.0, d, 0.25, seed=seed)
                assert box_partition_pigeonhole(f, 2.0)

    def test_box_counts_as_the_per_dimension_sums(self):
        # the one reshape against the d = 1 and d = 2 sums it replaced, cell count for cell count
        for d in (1, 2):
            for seed in range(30):
                f = random_indicator(16.0, 1.0, d, 0.25, seed=seed)
                v = f.values.astype(np.int64)
                old = (v.reshape(8, 2).sum(axis=1) if d == 1
                       else v.reshape(8, 2, 8, 2).sum(axis=(1, 3)))
                new = forms._box_counts(f, 2)
                assert new.dtype == old.dtype and new.tobytes() == old.tobytes()

    def test_non_dividing_side_rejected(self):
        f = full_box(16.0, 1.0, 1)
        with pytest.raises(ValueError):
            box_partition_pigeonhole(f, 3.0)

    def test_negative_values_rejected(self):
        f = BoxFunction(values=-0.5 * np.ones(16), N=16.0, h=1.0)
        with pytest.raises(ValueError, match="^f must be a 0/1 indicator box"):
            box_partition_pigeonhole(f, 4.0)

    def test_non_indicator_rejected(self):
        one_cell = np.zeros((16, 16))
        one_cell[3, 5] = 0.3
        for vals in (0.5 * np.ones((16, 16)), one_cell):
            f = BoxFunction(values=vals, N=16.0, h=1.0)
            with pytest.raises(ValueError, match="^f must be a 0/1 indicator box"):
                box_partition_pigeonhole(f, 4.0)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("ell", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_bad_side_rejected(self, d, ell):
        f = full_box(16.0, 1.0, d)
        with pytest.raises(ValueError, match="^ell must be finite and positive"):
            box_partition_pigeonhole(f, ell)


class TestMainTerm:
    def test_full_density(self, moll):
        N, lam = 32.0, 2.0
        low = roth_main_term_experiment(1.0, N, lam, 2, moll, P, seed=3)
        cw = kernel_total_mass(KernelParams(P, 1, 1.0, 1.0), moll)
        assert low == pytest.approx(cw, rel=4.0 * lam / N)

    @pytest.mark.parametrize("trials", [0, -1])
    def test_no_trials_rejected(self, moll, trials):
        with pytest.raises(ValueError, match="^trials must be at least 1"):
            roth_main_term_experiment(0.5, 32.0, 2.0, trials, moll, P, seed=3)

    def test_nan_density_named(self, moll):
        with pytest.raises(ValueError, match="^delta must be finite"):
            roth_main_term_experiment(np.nan, 32.0, 2.0, 2, moll, P, seed=3)

    def test_random_ensemble_positive(self, moll):
        low = roth_main_term_experiment(0.5, 32.0, 2.0, 12, moll, P, seed=9)
        cw = kernel_total_mass(KernelParams(P, 1, 1.0, 1.0), moll)
        assert low > 1e-3 * cw

    def test_interval_set_lower_bound(self, moll):
        # the leftmost-interval configuration keeps its progressions inside
        delta, N = 0.5, 32.0
        lam = delta * N / 8.0
        h = _resolved_box(N, lam, 1.0, 1)
        n = int(round(N / h))
        vals = np.zeros(n)
        vals[: int(delta * n)] = 1.0
        f = BoxFunction(values=vals, N=N, h=h)
        cw = kernel_total_mass(KernelParams(P, 1, 1.0, 1.0), moll)
        assert m_eps_lambda(f, lam, 1.0, moll, P).value / N >= delta * cw / 20.0


class TestSharpMollifiedErrorShape:
    # the narrow-width forms approach 2 pi times the sharp form (the window
    # transform carries total mass 2 pi); the gap shrinks monotonically in
    # the width

    def test_error_decreasing_d1_grid_forms(self, moll):
        N, lam = 32.0, 2.0
        rule = lpgeom.sphere_quadrature(P, 1, lam, n=2)
        errs = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            h = _resolved_box(N, lam, eps, 1)
            f = full_box(N, h, 1)
            nv = n_lambda(f, rule, lam).value
            mv = m_eps_lambda(f, lam, eps, moll, P).value
            errs.append(abs(2.0 * np.pi * nv - mv) / N)
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_error_decreasing_d2_continuum_reduction(self, moll):
        N, lam = 8.0, 2.0
        rule = lpgeom.sphere_quadrature(P, 2, lam, n=2048)
        sharp = full_box_sharp_oracle(rule, N)
        errs = []
        for eps in (0.2, 0.1, 0.05, 0.025):
            mv = full_box_mollified_oracle(lam, eps, moll, P, 2, N)
            errs.append(abs(2.0 * np.pi * sharp - mv) / N**2)
        assert errs[0] > errs[1] > errs[2] > errs[3]

    def test_continuum_reduction_matches_grid_form_d2(self, moll):
        N, lam, eps = 8.0, 2.0, 0.2
        h = _resolved_box(N, lam, eps, 2)
        n = int(round(N / h))
        f = full_box(N, N / n, 2)
        grid_val = m_eps_lambda(f, lam, eps, moll, P).value
        oracle = full_box_mollified_oracle(lam, eps, moll, P, 2, N)
        assert abs(grid_val - oracle) / oracle < 2e-2


class TestTranslationInvariance:
    def test_integer_cell_shifts(self, moll, rng):
        lam, eps = 2.0, 0.25
        h = _resolved_box(8.0, lam, eps, 1)
        n = int(round(8.0 / h))
        f = BoxFunction(values=rng.uniform(-1, 1, size=n), N=8.0, h=h)
        base = m_eps_lambda(translate_box(f, 0), lam, eps, moll, P).value
        for shift in (2, 5):
            v = m_eps_lambda(translate_box(f, shift), lam, eps, moll, P).value
            assert abs(v - base) <= 1e-10 * max(1.0, abs(base))
