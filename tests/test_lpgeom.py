import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from lproth import lpgeom, oscillatory, sets
from lproth.lpgeom import (
    DEGENERATE_P,
    lp_norm,
    lp_norm_batch,
    shell_mc_quadrature,
    sigma_mass_invariance,
    sigma_total_mass,
    sphere_quadrature,
    unit_ball_volume,
    unit_ball_volume_mc,
    valid_exponent,
)
from lproth.mollifier import KernelParams

# scalar oracle (30-digit arithmetic): (1 + 2^1.5)^(2/3)
LP_NORM_1_M2_P15 = 2.4472608147714755


BAD_EXPONENTS = [math.nan, math.inf, -math.inf, 0.5, -1.0]

# entry points that take p, each called with a bad p and valid other arguments
ENTRY_POINTS = {
    "lp_norm": lambda p: lp_norm([1.0, 2.0], p),
    "sphere_quadrature": lambda p: sphere_quadrature(p, 2, 1.0, n=64),
    "shell_mc_quadrature": lambda p: shell_mc_quadrature(p, 2, 1.0, 64, 0),
    "sigma_total_mass": lambda p: sigma_total_mass(p, 2),
    "unit_ball_volume_mc": lambda p: unit_ball_volume_mc(p, 2, 10, 0),
    "i_of_t": lambda p: oscillatory.i_of_t(p, 10.0, n_kl=4),
    "stationary_lower_bound_check": lambda p: oscillatory.stationary_lower_bound_check(p, 0.1),
    "parallelogram_check": lambda p: sets.parallelogram_check([1.0, 1.0], [1.0, 0.0], p),
    "progression_search": lambda p: sets.progression_search(
        sets.full_box_set(2, 16.0), p, 2.0, tol=1e-6, budget=10, box_hi=16.0),
    "KernelParams": lambda p: KernelParams(p, 1, 1.0, 0.5),
    "PhaseFamily": lambda p: oscillatory.PhaseFamily(p, 0.3, 0.1),
}


class TestValidExponent:
    def test_rejects_bad_values(self):
        for p in BAD_EXPONENTS:
            with pytest.raises(ValueError, match="exponent must be finite and >= 1"):
                valid_exponent(p)

    def test_returns_the_float(self):
        assert valid_exponent(1) == 1.0 and type(valid_exponent(1)) is float
        assert valid_exponent(np.float64(1.5)) == 1.5
        assert valid_exponent(1e306) == 1e306

    def test_degenerate_set(self):
        assert DEGENERATE_P == (1.0, 2.0)

    @pytest.mark.parametrize("p", BAD_EXPONENTS)
    @pytest.mark.parametrize("name", list(ENTRY_POINTS))
    def test_entry_points_reject(self, name, p):
        with pytest.raises(ValueError, match="exponent must be finite"):
            ENTRY_POINTS[name](p)


class TestLpExponent:
    def test_decay_indices(self):
        # r = max(p + 1, 2p - 1) on either side of p = 2
        assert oscillatory.decay_index(1.5) == pytest.approx(2.5)
        assert oscillatory.decay_index(3.0) == pytest.approx(5.0)


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

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_one_formula_for_a_vector_and_a_row(self, rng, d, p):
        # one formula: a vector rounds exactly as the same row of a batch, at every p
        for y in rng.normal(size=(2000, d)) * rng.choice([1e-3, 1.0, 1e3], size=(2000, 1)):
            assert lp_norm(y, p) == lp_norm_batch(y[None], p)[0]


class TestBallVolume:
    def test_unit_disk(self):
        assert unit_ball_volume(2.0, 2) == pytest.approx(math.pi, rel=1e-12)

    def test_cross_polytope(self):
        assert unit_ball_volume(1.0, 2) == pytest.approx(2.0, rel=1e-12)

    def test_mc_cross_check(self):
        exact = unit_ball_volume(1.5, 2)
        mc = unit_ball_volume_mc(1.5, 2, 10**7, 3)
        assert abs(mc - exact) / exact < 1.5e-3

    def test_mc_dimension_cap(self):
        with pytest.raises(ValueError):
            unit_ball_volume_mc(1.5, 7, 10**6, 0)


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
            deviation = np.max(np.abs(lp_norm_batch(rule.nodes, 1.5) - lam))
            assert deviation <= 1e-10 * max(1.0, lam)

    def test_graph_vs_shell_mc(self):
        det = sphere_quadrature(1.5, 2, 1.0, n=1024).total_mass
        mc_rule = shell_mc_quadrature(1.5, 2, 1.0, 3 * 10**4, 11)
        stderr = mc_rule.total_mass / math.sqrt(mc_rule.nodes.shape[0])
        assert abs(det - mc_rule.total_mass) < 3.0 * stderr

    def test_mc_nodes_in_shell(self):
        p, lam, h = 1.5, 2.0, lpgeom.SHELL_HALF_WIDTH
        rule = shell_mc_quadrature(p, 2, lam, 2000, 1)
        deviation = np.max(np.abs(lp_norm_batch(rule.nodes, p) - lam))
        assert deviation <= lam * ((1.0 + h) ** (1.0 / p) - (1.0 - h) ** (1.0 / p))

    def test_orthant_symmetry(self):
        rule = sphere_quadrature(3.0, 2, 1.0, n=1024)
        codes = (rule.nodes < 0.0) @ np.array([1, 2])  # a zero coordinate counts as positive
        om = np.bincount(codes, weights=rule.weights, minlength=4)
        assert np.max(np.abs(om - rule.total_mass / 4.0)) < 1e-12

    def test_unsupported_pairs(self):
        with pytest.raises(ValueError):
            sphere_quadrature(1.5, 4, 1.0)
        with pytest.raises(ValueError):
            shell_mc_quadrature(1.5, 9, 1.0, 4096, 0)
        with pytest.raises(ValueError):
            sphere_quadrature(1.5, 2, -1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, bad):
        with pytest.raises(ValueError, match="^lam must be finite and positive"):
            sphere_quadrature(1.5, 2, bad)

    @pytest.mark.parametrize("rule", [
        lambda n: sphere_quadrature(1.5, 2, 1.0, n=n),
        lambda n: shell_mc_quadrature(1.5, 2, 1.0, n, 0)],
        ids=["deterministic-graph", "shell-monte-carlo"])
    @pytest.mark.parametrize("n", [0, -5, math.nan])
    def test_empty_node_budget_rejected(self, n, rule):
        # the graph rule would round any budget below 8 up to 8 nodes
        with pytest.raises(ValueError, match="^n must be at least 1"):
            rule(n)

    def test_determinism_given_seed(self):
        a = shell_mc_quadrature(1.5, 2, 1.0, 4000, 9)
        b = shell_mc_quadrature(1.5, 2, 1.0, 4000, 9)
        assert np.array_equal(a.nodes, b.nodes) and np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("d", [2, 3])
    def test_graph_rule_repeats_and_owns_its_arrays(self, d):
        first = sphere_quadrature(1.5, d, 2.0, n=512)
        nodes, weights = first.nodes.copy(), first.weights.copy()
        first.nodes[:] = 0.0
        first.weights[:] = 0.0
        again = sphere_quadrature(1.5, d, 2.0, n=512)
        assert np.array_equal(again.nodes, nodes) and np.array_equal(again.weights, weights)

    def test_jacobi_axes_cached_read_only(self, monkeypatch):
        calls = []
        recurrence = lpgeom._jacobi_recurrence
        monkeypatch.setattr(lpgeom, "_jacobi_recurrence",
                            lambda *a: calls.append(a) or recurrence(*a))
        lpgeom._jacobi_axis.cache_clear()
        for _ in range(3):
            sphere_quadrature(1.5, 3, 1.0, n=512)
        assert len(calls) == 2  # one per slice axis, on the first call only
        x, w = lpgeom._jacobi_axis(*calls[0])
        assert not x.flags.writeable and not w.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0

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

    def test_empty_radius_list_rejected(self, monkeypatch):
        # with no masses the spread was min() of an empty list
        def refuse(*args, **kwargs):
            raise AssertionError("a rule was built")
        monkeypatch.setattr(lpgeom, "sphere_quadrature", refuse)
        with pytest.raises(ValueError, match="^lambdas must not be empty"):
            sigma_mass_invariance(1.5, 2, [])

    def test_shell_mc_d3(self):
        masses = [shell_mc_quadrature(1.5, 3, lam, 2 * 10**4, 4 + i).total_mass
                  for i, lam in enumerate([1.0, 2.0])]
        stderr = masses[0] / math.sqrt(2 * 10**4)
        assert abs(masses[0] - masses[1]) < 3.0 * stderr
        assert masses[0] == pytest.approx(sigma_total_mass(1.5, 3), rel=5e-2)


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


def _graph_rule_pairs(p):
    """The (alpha, beta) of every Gauss-Jacobi axis _graph_rule builds at exponent p, d <= 3."""
    return sorted({((d - j) / p - 1.0, 1.0 / p - 1.0) for d in (2, 3) for j in range(1, d)})


def _reference_rule(n, alpha, beta, x0):
    """Gauss-Jacobi nodes and weights in 40-digit arithmetic, weights divided by their sum.

    Newton on the orthonormal recurrence from the nodes x0, then the
    derivative formula 1 / (q_{n-1} q_n'): at this precision it loses nothing.
    """
    with localcontext() as ctx:
        ctx.prec = 40
        a, b = Decimal(alpha), Decimal(beta)
        diag = [(b - a) / (a + b + 2)] + [(b * b - a * a) / ((2 * k + a + b) * (2 * k + a + b + 2))
                                          for k in range(1, n)]
        off = [Decimal(0)]
        for k in range(1, n + 1):
            s = 2 * k + a + b
            c = (k + a) * (k + b) / (s + 1) * (1 if k == 1 else k * (k + a + b) / (s - 1))
            off.append(2 / s * c.sqrt())
        xs, ws = [], []
        for v in x0:
            x = Decimal(float(v))
            for _ in range(3):
                q_prev, q, dq_prev, dq = Decimal(0), Decimal(1), Decimal(0), Decimal(0)
                for k in range(n):
                    q_next = ((x - diag[k]) * q - off[k] * q_prev) / off[k + 1]
                    dq_next = ((x - diag[k]) * dq + q - off[k] * dq_prev) / off[k + 1]
                    q_prev, q, dq_prev, dq = q, q_next, dq, dq_next
                x -= q / dq
            xs.append(x)
            ws.append(1 / (q_prev * dq))
        total = sum(ws)
        return np.array([float(x) for x in xs]), np.array([float(w / total) for w in ws])


class TestJacobiAxis:
    # the Newton axis against scipy.special.roots_jacobi and a 40-digit reference

    @pytest.mark.parametrize("p", [1.0, 1.2, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("n", [1, 2, 8, 64, 512, 1024])
    def test_matches_scipy(self, p, n):
        for alpha, beta in _graph_rule_pairs(p):
            x, w = lpgeom._jacobi_axis(n, alpha, beta)
            xs, ws = special.roots_jacobi(n, alpha, beta)
            assert np.max(np.abs(x - xs)) <= 1e-14
            # scipy's weights come from the derivative formula, which loses about 1e-13 n^2
            # at the nodes next to a singular endpoint (1.5e-7 at n = 1024 against a 50-digit
            # rule) and about 4e-15 n^2 at the median node; test_matches_40_digit_rule holds
            # this rule to 1e-12
            assert np.max(np.abs(w / ws - 1.0)) <= max(1e-12, 2e-13 * n * n)
            assert np.median(np.abs(w / ws - 1.0)) <= max(1e-12, 4e-15 * n * n)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("n", [64, 128])
    def test_matches_40_digit_rule(self, p, n):
        for alpha, beta in _graph_rule_pairs(p):
            x, w = lpgeom._jacobi_axis(n, alpha, beta)
            xr, wr = _reference_rule(n, alpha, beta, x)
            mu0 = 2.0 ** (alpha + beta + 1.0) * special.beta(alpha + 1.0, beta + 1.0)
            assert np.max(np.abs(x - xr)) <= 1e-15
            assert np.max(np.abs(w / (mu0 * wr) - 1.0)) <= 1e-12

    def test_built_without_lapack(self, monkeypatch):
        # the nodes come from Newton on the recurrence, so no BLAS thread pool is involved
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh was called")
        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        lpgeom._jacobi_axis.cache_clear()
        for p in (1.2, 1.5, 3.0):
            for alpha, beta in _graph_rule_pairs(p):
                for n in (2, 64, 512):
                    x, w = lpgeom._jacobi_axis(n, alpha, beta)
                    assert np.all(np.diff(x) > 0.0) and -1.0 < x[0] and x[-1] < 1.0
                    assert np.all(w > 0.0)
        lpgeom._jacobi_axis.cache_clear()

    def test_unconverged_nodes_raise(self, monkeypatch):
        monkeypatch.setattr(lpgeom, "_NEWTON_PASSES", 1)
        lpgeom._jacobi_axis.cache_clear()
        named = r"did not converge .*\(n=64, alpha=-0\.25, beta=-0\.5\)"
        with pytest.raises(RuntimeError, match=named):
            lpgeom._jacobi_axis(64, -0.25, -0.5)
        with pytest.raises(RuntimeError, match="did not converge"):
            sphere_quadrature(1.5, 2, 1.0, n=512)
        lpgeom._jacobi_axis.cache_clear()
