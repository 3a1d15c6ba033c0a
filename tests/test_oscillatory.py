import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import fft as sfft
from scipy.interpolate import CubicSpline

from lproth import oscillatory
from lproth.bumps import FALL_HI, RISE_LO, phi_plus
from lproth.lpgeom import DEGENERATE_P
from lproth.oscillatory import (
    KL_HALF,
    PhaseFamily,
    _admissible_interval,
    _dct1,
    _dpsi_values,
    _panel_count,
    _phase_values,
    _shift_cells,
    _simpson_weights,
    _window_product,
    build_transform_table,
    decay_fit,
    decay_index,
    dist_to_degenerate_subspace,
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

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_same_formula_as_the_array_pass(self, rng, p):
        # the remainder oracle checks the phase that i_of_t and the psi' floor run
        fam = PhaseFamily(p=p, k=0.3, l=-0.2)
        ys = rng.uniform(*fam.admissible_interval(), size=200)
        pairs = np.array([phase_eval(fam, y) for y in ys])
        assert np.array_equal(pairs[:, 0], _phase_values(ys, p, fam.k, fam.l))
        assert np.array_equal(pairs[:, 1], _dpsi_values(ys, p, fam.k, fam.l))

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
        a = inner_integral(fam, 100.0)
        b = simpson_one_cell(3.0, 100.0, 0.5, 0.5, nodes_per_period=32)
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_rejected_before_work(self, monkeypatch, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("panel count sized for a non-finite t")
        monkeypatch.setattr(oscillatory, "_panel_count", no_work)
        with pytest.raises(ValueError, match="^t must be finite"):
            inner_integral(PhaseFamily(1.5, 0.1, 0.2), bad)


class TestAggregate:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_t_rejected_before_work(self, monkeypatch, bad):
        def no_work(*args, **kwargs):
            raise AssertionError("shift cells evaluated at a non-finite t")
        monkeypatch.setattr(oscillatory, "_shift_cells", no_work)
        with pytest.raises(ValueError, match="^t must be finite"):
            i_of_t(1.5, bad, n_kl=4)

    @pytest.mark.parametrize("n_kl", [0, -3, math.nan])
    def test_empty_node_grid_named(self, n_kl):
        with pytest.raises(ValueError, match="^n_kl must be at least 1"):
            i_of_t(1.5, 10.0, n_kl=n_kl)

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


def record_dpsi_rows(monkeypatch):
    """Patch _dpsi_values to log (k, l, nodes) for every row it evaluates."""
    rows = []
    real = oscillatory._dpsi_values

    def record(y, p, k, l):
        y = np.atleast_2d(y)
        rows.extend(zip(np.broadcast_to(k, y.shape)[:, 0], np.broadcast_to(l, y.shape)[:, 0], y))
        return real(y, p, k, l)

    monkeypatch.setattr(oscillatory, "_dpsi_values", record)
    return rows


def interval_one_pair(k, l, rise=RISE_LO):
    """Reference admissible interval of one shift pair, by Python min and max."""
    return rise - min(0.0, k, l, k + l), FALL_HI - max(0.0, k, l, k + l)


def panel_count_one_cell(p, t, k, l, lo, hi, nodes_per_period):
    """Reference panel count: one cell's own 33-point np.linspace probe of |psi'|."""
    if p in DEGENERATE_P:
        n = 512
    else:
        dmax = float(np.max(np.abs(_dpsi_values(np.linspace(lo, hi, 33), p, k, l))))
        n = int(max(512, nodes_per_period * (abs(t) * dmax * (hi - lo)) / (2.0 * math.pi)))
    return n + n % 2


def simpson_one_cell(p, t, k, l, nodes_per_period=16):
    """Reference I_{k,l}(t): one composite Simpson pass at the reference panel count."""
    lo, hi = interval_one_pair(k, l)
    n = panel_count_one_cell(p, t, k, l, lo, hi, nodes_per_period)
    y = np.linspace(lo, hi, n + 1)
    f = _window_product(y, k, l) * np.exp(1j * t * _phase_values(y, p, k, l))
    return (hi - lo) / n * np.dot(_simpson_weights(n) / 3.0, f)


def i_of_t_full_grid(p, t, n_kl):
    """Reference I(t): the Simpson cell value at every one of the n_kl^2 Gauss nodes."""
    x, w = np.polynomial.legendre.leggauss(n_kl)
    total = 0.0
    for a, wa in zip(KL_HALF * x, KL_HALF * w):
        row = 0.0
        for b, wb in zip(KL_HALF * x, KL_HALF * w):
            lo, hi = interval_one_pair(a, b)
            if hi <= lo:
                continue
            row += wb * abs(simpson_one_cell(p, t, a, b)) ** 2
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
        # each cell's value does not depend on the cells evaluated with it
        cell, swapped, negated = _shift_cells(p, t, [ks[i], ks[j], ks[n_kl - 1 - i]],
                                              [ks[j], ks[i], ks[n_kl - 1 - j]])
        for other in (swapped, negated):
            assert abs(other - cell) <= 1e-9 * cell + 1e-14


def i_of_t_cell_loop(p, t, n_kl):
    """Reference I(t): the fundamental-domain sum with every cell on its own np.linspace grid."""
    x, w = np.polynomial.legendre.leggauss(n_kl)
    ks, wk = KL_HALF * x, KL_HALF * w
    total = 0.0
    for i, wa in enumerate(wk):
        row = 0.0
        for j in range(min(i, n_kl - 1 - i) + 1):
            k, l = ks[i], ks[j]
            lo, hi = interval_one_pair(k, l)
            n = panel_count_one_cell(p, t, k, l, lo, hi, 16)
            y = np.linspace(lo, hi, n + 1)
            f = _window_product(y, k, l) * np.exp(1j * t * _phase_values(y, p, k, l))
            val = (hi - lo) / n * np.dot(_simpson_weights(n) / 3.0, f)
            mult = (1.0 if j == i else 2.0) * (1.0 if i + j == n_kl - 1 else 2.0)
            row += mult * wk[j] * (val.real**2 + val.imag**2)
        total += wa * row
    return float(total)


class TestArrayPass:
    """i_of_t evaluates many shift cells in one array and must equal the per-cell loop bit for bit."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("t", [0.0, 10.0, -100.0, 1e3])
    @pytest.mark.parametrize("n_kl", [7, 8, 24])
    def test_equals_cell_loop(self, p, t, n_kl):
        assert i_of_t(p, t, n_kl=n_kl) == i_of_t_cell_loop(p, t, n_kl)

    @pytest.mark.parametrize("chunk", [100, 1300, 5000])
    def test_chunk_boundaries(self, monkeypatch, chunk):
        # 100: every cell fills a chunk on its own; 1300, 5000: chunks end mid-grid
        monkeypatch.setattr(oscillatory, "_CHUNK_POINTS", chunk)
        for p, t in ((1.5, 10.0), (3.0, 300.0), (2.0, 10.0)):
            assert i_of_t(p, t, n_kl=8) == i_of_t_cell_loop(p, t, 8)

    def test_budget_checked_before_evaluation(self, monkeypatch):
        def no_evaluation(*args):
            raise AssertionError("a cell was evaluated before the budget check")

        monkeypatch.setattr(oscillatory, "_window_product", no_evaluation)
        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="budget exceeded"):
            i_of_t(3.0, 1e6, n_kl=4)
        assert time.perf_counter() - start < 1.0


class TestPanelCount:
    """_panel_count probes every cell in one array and must equal the per-cell probe."""

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("t", [0.0, 10.0, -100.0, 1e3, 1e5])
    def test_equals_per_cell_probe(self, p, t):
        for n_kl in (7, 24):
            ks = KL_HALF * np.polynomial.legendre.leggauss(n_kl)[0]
            k, l = (v.ravel() for v in np.meshgrid(ks, ks, indexing="ij"))
            lo, hi = _admissible_interval(k, l)
            got = _panel_count(p, t, k, l, lo, hi)
            ref = [panel_count_one_cell(p, t, *args, 16) for args in zip(k, l, lo, hi)]
            assert got.dtype.kind == "i" and got.tolist() == ref
            assert [interval_one_pair(a, b) for a, b in zip(k, l)] == list(zip(lo, hi))

    def test_probes_every_cell_on_its_linspace_grid(self, monkeypatch):
        rows = record_dpsi_rows(monkeypatch)
        ks = KL_HALF * np.polynomial.legendre.leggauss(8)[0]
        k, l = (v.ravel() for v in np.meshgrid(ks, ks, indexing="ij"))
        lo, hi = _admissible_interval(k, l)
        _panel_count(1.5, 100.0, k, l, lo, hi)
        assert len(rows) == k.size
        for (a, b, y), args in zip(rows, zip(k, l, lo, hi)):
            assert (a, b) == args[:2] and np.array_equal(y, np.linspace(args[2], args[3], 33))

    def test_one_cell(self):
        lo, hi = _admissible_interval(0.3, -0.2)
        assert (lo, hi) == interval_one_pair(0.3, -0.2)
        for p, t in ((1.5, 1e3), (3.0, -40.0), (2.0, 1e4)):
            n = _panel_count(p, t, 0.3, -0.2, lo, hi)
            assert n.shape == () and int(n) == panel_count_one_cell(p, t, 0.3, -0.2, lo, hi, 16)

    def test_huge_modulation_exceeds_the_budget(self):
        with pytest.raises(RuntimeError, match="budget exceeded"):
            i_of_t(3.0, 1e30, n_kl=4)


class TestDecayFit:
    def test_theory_indices(self):
        # r = max(p + 1, 2p - 1), the two branches meeting at p = 2
        assert decay_index(1.0) == 2.0
        assert decay_index(1.5) == 2.5
        assert decay_index(2.0) == 3.0
        assert decay_index(3.0) == 5.0
        with pytest.raises(ValueError, match="exponent must be finite"):
            decay_index(0.5)

    def test_envelope_definition_covers_samples(self):
        fit = decay_fit(3.0, n_kl=16)
        for t, v in zip(fit.t_samples, fit.values):
            assert v <= fit.c_fit * t ** (-1.0 / fit.r_theory) * (1 + 1e-12)

    def test_range_validation(self):
        with pytest.raises(ValueError, match="^n_kl must be at least 1"):
            decay_fit(1.5, n_kl=0)

    def test_budget_failure_comes_from_the_first_call(self, monkeypatch):
        # p = 6 exceeds the I(t) budget at the largest t, which is evaluated first
        calls = []

        def counted(p, t, n_kl):
            calls.append(t)
            return i_of_t(p, t, n_kl=n_kl)

        monkeypatch.setattr(oscillatory, "i_of_t", counted)
        with pytest.raises(RuntimeError, match="budget exceeded"):
            decay_fit(6.0)
        assert calls == [max(oscillatory._DECAY_T)]

    def test_samples_keep_ascending_t(self, monkeypatch):
        monkeypatch.setattr(oscillatory, "i_of_t", lambda p, t, n_kl: 1.0 / t)
        fit = decay_fit(3.0)
        assert fit.t_samples == sorted(fit.t_samples) == list(oscillatory._DECAY_T)
        assert fit.values == [1.0 / t for t in fit.t_samples]
        assert fit.slope == pytest.approx(-1.0)


def stationary_pair_loop(p, eta):
    """Reference psi' floor: one np.linspace grid per shift pair, minima taken pair by pair."""
    mags = np.linspace(eta, KL_HALF, 40)
    kl_vals = np.concatenate([-mags, mags])
    best = np.inf
    for k in kl_vals:
        for l in kl_vals:
            lo, hi = interval_one_pair(k, l, rise=max(RISE_LO, eta))
            if hi <= lo:
                continue
            mn = float(np.min(np.abs(_dpsi_values(np.linspace(lo, hi, 640), p, k, l))))
            best = min(best, mn)
    return best


class TestStationaryBound:
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("eta", [0.05, 0.3])
    def test_equals_pair_loop(self, p, eta):
        out = stationary_lower_bound_check(p, eta)
        assert out.min_abs_dpsi == stationary_pair_loop(p, eta)

    @pytest.mark.parametrize("chunk", [1, 640 * 3 + 1, 640 * 7, 1 << 15])
    def test_every_pair_on_its_linspace_grid(self, monkeypatch, chunk):
        # at most one, three, seven and 51 shift pairs per array pass
        monkeypatch.setattr(oscillatory, "_CHUNK_POINTS", chunk)
        rows = record_dpsi_rows(monkeypatch)
        eta = 0.1
        stationary_lower_bound_check(1.5, eta)
        mags = np.linspace(eta, KL_HALF, 40)
        kl_vals = np.concatenate([-mags, mags])
        expected = [(k, l, *interval_one_pair(k, l, rise=max(RISE_LO, eta)))
                    for k in kl_vals for l in kl_vals]
        expected = [e for e in expected if e[3] > e[2]]
        assert len(rows) == len(expected)
        for (a, b, y), (k, l, lo, hi) in zip(rows, expected):
            assert (a, b) == (k, l) and np.array_equal(y, np.linspace(lo, hi, 640))

    @pytest.mark.parametrize("chunk", [1, 640 * 7])
    def test_blocks_equal_pair_loop(self, monkeypatch, chunk):
        # at most one and seven shift pairs per array pass
        monkeypatch.setattr(oscillatory, "_CHUNK_POINTS", chunk)
        out = stationary_lower_bound_check(1.5, 0.1)
        assert out.min_abs_dpsi == stationary_pair_loop(1.5, 0.1)

    def test_quadratic_degenerate(self):
        # psi' vanishes identically at p = 2 and at p = 1 (1 + 1 - 1 - 1)
        for p in (2.0, 1.0):
            out = stationary_lower_bound_check(p, 0.1)
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

    def test_non_finite_terms_rejected(self):
        # [1, nan] passes the positivity and doubling rules and would give NaN sums
        for mu in ([1.0, math.nan], [1.0, math.inf], [math.nan]):
            with pytest.raises(ValueError, match="mu must be finite"):
                lacunary_sum_bound(mu)

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

    def test_non_finite_frequency_named(self, table):
        # a NaN distance would slip past the degenerate-plane guard
        lams = [1.5 * 2.0**j for j in range(4)]
        for i, bad in ((0, math.nan), (1, math.inf), (2, -math.inf)):
            xi = [0.7, -0.4, 0.9]
            xi[i] = bad
            with pytest.raises(ValueError, match=f"^xi{i + 1} must be finite"):
                multiplier_check(*xi, lams, table)

    @pytest.mark.parametrize("lams", [[math.nan], [16.0, math.inf], [-16.0], [1.5, 0.0]])
    def test_bad_scales_named(self, table, lams):
        # NaN passes the doubling check and khat masks it to 0: a zero audit
        with pytest.raises(ValueError, match="^lambdas must be finite and positive"):
            multiplier_check(0.7, -0.4, 0.9, lams, table)

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
        for u in (0.01, 0.3, 0.7, 2.0, 10.0, 50.0, 200.0):
            direct = kernel_fourier(np.array([u]), params, moll).real
            assert abs(float(table.khat(np.array([u]))[0]) - direct) < 1e-8

    def test_dct_matches_scipy(self, rng):
        # two input forms: a dense x of length n, and a prefix of k < n values zero-padded to n
        dense = [(n, n) for n in (2, 3, 17, 1001, 628_001)]
        for k, n in dense + [(1, 2), (2, 3), (5, 17), (999, 1001), (8_341, 628_001)]:
            x = rng.normal(size=k)
            ref = sfft.dct(np.pad(x, (0, n - k)), type=1)
            assert np.max(np.abs(_dct1(x, n) - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])  # p = 1 has the widest support, radius 3
    @pytest.mark.parametrize("eps", [0.05, 0.999])
    def test_table_from_the_support_equals_the_dense_build(self, monkeypatch, moll, p, eps):
        from lproth import mollifier

        # the dense build: the profile on every radius, then the DCT-I of its even extension
        L = math.pi / 0.02
        r = np.linspace(0.0, L, oscillatory._TABLE_INTERVALS + 1)
        kernel = mollifier.build_cancelled_kernel(mollifier.KernelParams(p, 1, 1.0, eps), moll)
        prof = kernel(r[:, None])
        spec = (r[1] - r[0]) * np.fft.rfft(np.concatenate([prof, prof[-2:0:-1]])).real
        keep = math.pi / L * np.arange(r.size) <= oscillatory._TABLE_U_MAX
        coef = np.convolve(np.pad(spec[keep], oscillatory._SPLINE_TAPS, mode="reflect"),
                           oscillatory._SPLINE_FILTER, mode="valid")
        seen = []
        call = mollifier.CancelledKernel.__call__
        monkeypatch.setattr(mollifier.CancelledKernel, "__call__",
                            lambda self, y: seen.append(len(y)) or call(self, y))
        table = build_transform_table(p, eps, moll)
        assert table._coef.tobytes() == np.pad(coef, 1, mode="reflect").tobytes()
        assert sum(seen) <= math.ceil(3.0 ** (1.0 / p) / (r[1] - r[0])) + 1

    def test_table_at_large_p_computes_no_overflowing_power(self, moll):
        # a dense build raised r^p past the float range on radii far outside the support
        table = build_transform_table(256.0, 0.05, moll)
        assert np.all(np.isfinite(table._coef))

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0])
    def test_table_matches_cubic_spline(self, moll, p):
        # the table as scipy built it: DCT-I, then a not-a-knot CubicSpline on the same knots
        from lproth.mollifier import KernelParams, build_cancelled_kernel

        eps = 0.1
        L = math.pi / 0.02
        n_r = sfft.next_fast_len(math.ceil(L / 2.5e-4), real=True) + 1
        assert n_r == oscillatory._TABLE_INTERVALS + 1
        r = np.linspace(0.0, L, n_r)
        prof = build_cancelled_kernel(KernelParams(p, 1, 1.0, eps), moll)(r[:, None])
        spec = (r[1] - r[0]) * sfft.dct(prof, type=1)
        us = math.pi / L * np.arange(n_r)
        keep = us <= min(oscillatory._TABLE_U_MAX, us[-1])
        spline = CubicSpline(us[keep], spec[keep])
        table = build_transform_table(p, eps, moll)
        assert table.u_max == us[keep][-1]
        u = np.random.default_rng(3).uniform(0.0, table.u_max, 4000)
        diff = np.abs(table.khat(u) - spline(u))
        # the splines differ only in their boundary condition at u = 0: the mirror (exact,
        # the transform is even) against not-a-knot, an effect that shrinks by
        # |sqrt(3) - 2| per knot (test_table_scale_against_direct_transform checks u = 0.01)
        far = u >= 0.1
        assert np.max(diff[far]) <= 1e-12 * np.max(np.abs(spec))
        assert np.max(diff[~far], initial=0.0) <= 1e-7

    def test_window_support_convention(self):
        assert phi_plus(np.array([0.2]))[0] == 0.0
        assert phi_plus(np.array([1.0]))[0] == 1.0
        assert phi_plus(np.array([2.6]))[0] == 0.0
