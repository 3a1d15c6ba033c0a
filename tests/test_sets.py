import math

import numpy as np
import pytest

from lproth import sets
from lproth.forms import random_indicator
from lproth.lpgeom import lp_norm, sphere_quadrature, valid_exponent
from lproth.sets import (
    BOURGAIN_SHELL,
    GapSpectrum,
    ProgressionWitness,
    SearchOutcome,
    bourgain_set,
    full_box_set,
    gap_spectrum_sample,
    grid_indicator_set,
    half_integer_deviation,
    lacunary_generate,
    lattice_cube_set,
    parallelogram_check,
    progression_search,
    theorem_experiment,
)


def _member(A, x):
    """Membership of one point, as a one-row batch."""
    return bool(A.contains_batch(np.asarray(x, dtype=float)[None, :])[0])


class TestBourgainMembership:
    def test_origin(self):
        assert _member(bourgain_set(3), np.zeros(3))

    def test_mid_band_excluded(self):
        assert not _member(bourgain_set(2), np.array([math.sqrt(0.5), 0.0]))

    def test_density_in_probe_box(self):
        A = bourgain_set(2)
        dens = A.estimate_density(10.0, n=10**6, seed=0)
        assert 0.15 <= dens <= 0.35


class TestLatticeMembership:
    def test_integer_points(self):
        for eps0 in (0.05, 0.2, 0.49):
            assert _member(lattice_cube_set(2, eps0), np.array([3.0, -7.0]))

    def test_half_point_excluded(self):
        assert not _member(lattice_cube_set(2, 0.1), np.array([0.5, 0.0]))

    def test_eps0_range(self):
        with pytest.raises(ValueError):
            lattice_cube_set(2, 0.6)

    def test_member_pair_gap_restriction(self, rng):
        eps0, d, n = 0.1, 2, 10**4
        a = rng.integers(-20, 20, size=(n, d)) + rng.uniform(-eps0, eps0, size=(n, d))
        b = rng.integers(-20, 20, size=(n, d)) + rng.uniform(-eps0, eps0, size=(n, d))
        y = b - a
        sup = np.max(np.abs(y), axis=1)
        one = np.sum(np.abs(y), axis=1)
        assert np.all(np.abs(sup - np.round(sup)) <= 2 * eps0 + 1e-12)
        assert np.all(np.abs(one - np.round(one)) <= 2 * d * eps0 + 1e-12)


def axis_reduction_membership(A, X):
    """Reference membership: the row reductions over whole (n, d) arrays."""
    if A.kind == "bourgain":
        r2 = np.sum(X * X, axis=1)
        with np.errstate(invalid="ignore"):
            return np.abs(r2 - np.maximum(np.round(r2), 0.0)) <= BOURGAIN_SHELL
    if A.kind == "lattice-cube":
        with np.errstate(invalid="ignore"):
            return np.all(np.abs(X - np.round(X)) <= A.eps0, axis=1)
    if A.kind == "full-box":
        return np.all((X >= 0.0) & (X <= A.N), axis=1)
    f = A.box
    inside = np.all((X >= 0.0) & (X < f.N), axis=1)
    out = np.zeros(X.shape[0], dtype=bool)
    if np.any(inside):
        idx = np.floor(X[inside] / f.h).astype(int)
        out[inside] = f.values[tuple(idx.T)] > 0.5
    return out


def boundary_points(d, N, eps0, rng):
    """Rows on every membership boundary, rows holding a NaN or an infinity, and random rows."""
    r2 = np.array([0.1] + [k + s for k in range(1, 6) for s in (-0.1, 0.1)])
    shell = np.repeat(np.sqrt(r2 / d)[:, None], d, axis=1)  # r^2 = k +- 0.1
    ints = np.arange(-2.0, 10.0)
    lattice = np.concatenate([ints - eps0, ints + eps0, ints])
    box = np.array([0.0, -0.0, N, np.nextafter(N, 0.0), np.nextafter(N, 2 * N),
                    np.nextafter(0.0, -1.0), N / 2])
    coords = np.concatenate([lattice, box, np.arange(0.0, N + 0.25, 0.25)])
    picks = rng.choice(coords, size=(4000, d))
    bad = rng.choice(coords, size=(30, d))
    bad[np.arange(30), rng.integers(0, d, 30)] = rng.choice([np.nan, np.inf, -np.inf], 30)
    return np.concatenate([shell, picks, bad, np.full((1, d), np.nan), np.full((1, d), np.inf),
                           np.full((1, d), -np.inf), rng.uniform(-1.0, N + 1.0, size=(20000, d))])


class TestColumnWiseMembership:
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_matches_axis_reductions(self, d, rng):
        N, eps0 = 8.0, 0.1
        sets = [bourgain_set(d), lattice_cube_set(d, eps0), full_box_set(d, N),
                grid_indicator_set(random_indicator(N, 0.5, d, 0.4, seed=3))]
        X = boundary_points(d, N, eps0, rng)
        for A in sets:
            got = A.contains_batch(X)
            assert got.shape == (X.shape[0],)
            assert np.array_equal(got, axis_reduction_membership(A, X)), A.kind
            assert not np.any(got[~np.isfinite(X).all(axis=1)])

    @pytest.mark.parametrize("shape", [(5,), (5, 2, 1), (5, 3), (2, 2, 2)])
    def test_rejects_malformed_batches(self, shape):
        with pytest.raises(ValueError, match=r"expected points of shape \(n, 2\)"):
            bourgain_set(2).contains_batch(np.zeros(shape))

    @pytest.mark.parametrize("A", [bourgain_set(2), lattice_cube_set(2, 0.1)], ids=lambda A: A.kind)
    def test_infinite_rows_are_quiet_non_members(self, A):
        # a RuntimeWarning is an error under the test configuration
        X = np.array([[np.inf, 1.0], [-np.inf, 1.0], [1.0, np.inf], [np.inf, -np.inf]])
        assert not np.any(A.contains_batch(X))

    def test_grid_point_just_below_the_edge(self):
        f = random_indicator(7.0, 0.7, 2, 0.5, seed=1)
        A = grid_indicator_set(f)
        below = np.nextafter(7.0, 0.0)
        assert below / 0.7 == 10.0  # rounds up to the cell count
        assert _member(A, [below, 1.0]) == bool(f.values[9, 1] > 0.5)
        assert _member(A, [1.0, below]) == bool(f.values[1, 9] > 0.5)
        assert not _member(A, [7.0, 1.0])


class TestParallelogram:
    def test_euclidean_identity(self, rng):
        for _ in range(100):
            x = rng.normal(size=3)
            y = rng.normal(size=3)
            _, _, gap = parallelogram_check(x, y, 2.0)
            assert abs(gap) < 1e-10

    def test_fractional_failure(self):
        _, _, gap = parallelogram_check(np.array([1.0, 1.0]), np.array([1.0, 0.0]), 1.5)
        assert abs(gap) > 1e-3

    def test_zero_gap_vector(self):
        for p in (1.5, 2.0, 3.0):
            _, _, gap = parallelogram_check(np.array([0.3, -0.7]), np.zeros(2), p)
            assert abs(gap) < 1e-12


class TestHalfIntegerDeviation:
    def test_allowed_values(self):
        assert half_integer_deviation(1.0) == pytest.approx(0.0, abs=1e-12)
        assert half_integer_deviation(math.sqrt(0.5)) == pytest.approx(0.0, abs=1e-12)

    def test_mid_band(self):
        assert half_integer_deviation(math.sqrt(0.75)) == pytest.approx(0.5, abs=1e-12)


class TestGapSpectrum:
    def test_full_box_dense_spectrum(self):
        A = full_box_set(2, 10.0)
        spectrum = gap_spectrum_sample(A, 1.5, 10.0, 20000, seed=3)
        gaps = np.sort(spectrum.gaps)
        inside = gaps[gaps <= 5.0]
        assert inside.size > 1000
        assert np.max(np.diff(inside)) < 0.1

    def test_euclidean_gaps_restricted(self):
        A = bourgain_set(2)
        spectrum = gap_spectrum_sample(A, 2.0, 10.0, 5000, seed=4)
        assert spectrum.gaps.size == 5000
        assert spectrum.max_half_integer_deviation <= 0.4 + 1e-9

    def test_fractional_gaps_escape(self):
        A = bourgain_set(2)
        spectrum = gap_spectrum_sample(A, 1.5, 10.0, 5000, seed=5)
        assert spectrum.max_half_integer_deviation > 0.45

    def test_zero_hits_is_reported_not_raised(self):
        empty = grid_indicator_set(random_indicator(8.0, 1.0, 2, 0.02, seed=1))
        # nearly-empty set, tiny budget: simply returns what it found
        spectrum = gap_spectrum_sample(empty, 2.0, 8.0, 10, max_proposals=2000, seed=6)
        assert isinstance(spectrum, GapSpectrum)


class TestProgressionSearch:
    def test_full_box_witness(self):
        A = full_box_set(2, 16.0)
        out = progression_search(A, 1.5, 2.0, tol=1e-6, budget=10**5, box_hi=16.0, seed=1)
        assert out.witness is not None
        w = out.witness
        assert w.verify(A, 2.0, 1e-6)
        assert abs(w.gap - 2.0) <= 1e-6

    def test_witness_reverifies_independently(self):
        A = bourgain_set(2)
        out = progression_search(A, 2.0, 1.0, tol=1e-6, budget=10**6, box_hi=10.0, seed=2)
        assert out.witness is not None
        w = out.witness
        pts = [w.x, w.x + w.y, w.x + 2 * w.y]
        assert all(_member(bourgain_set(2), q) for q in pts)
        tampered = type(w)(x=w.x + 5.0, y=w.y, p=w.p, gap=w.gap)
        assert not tampered.verify(A, 1.0, 1e-6)

    def test_forbidden_gap_exhausts(self):
        A = bourgain_set(2)
        out = progression_search(A, 2.0, math.sqrt(0.75), tol=1e-3, budget=2 * 10**5,
                                 box_hi=10.0, seed=3)
        assert out.witness is None
        assert out.exhausted
        assert out.proposals_used >= 2 * 10**5

    def test_tolerance_guard(self):
        # a NaN tolerance would make every proposal NaN and the search look exhausted
        for tol in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="tol"):
                progression_search(full_box_set(1, 8.0), 1.5, 1.0, tol=tol, budget=10,
                                   box_hi=8.0)

    def test_budget_guard(self):
        # with no proposals the search would report a vacuous exhaustion
        for budget in (0, -1, math.nan):
            with pytest.raises(ValueError, match="budget"):
                progression_search(full_box_set(1, 8.0), 1.5, 1.0, tol=0.1, budget=budget,
                                   box_hi=8.0)

    def test_determinism(self):
        A = full_box_set(2, 16.0)
        a = progression_search(A, 1.5, 2.0, tol=1e-6, budget=10**4, box_hi=16.0, seed=7)
        b = progression_search(A, 1.5, 2.0, tol=1e-6, budget=10**4, box_hi=16.0, seed=7)
        assert np.array_equal(a.witness.x, b.witness.x)
        assert np.array_equal(a.witness.y, b.witness.y)
        assert a.proposals_used == b.proposals_used


def full_batch_pool(A, box_hi, count, rng, max_draws=10**8):
    """Reference pool: every draw of every block tested, then the first ``count`` members."""
    out, got, draws = [], 0, 0
    while got < count and draws < max_draws:
        n = max(4 * (count - got), 4096)
        pts = rng.uniform(0.0, box_hi, size=(n, A.dim))
        keep = pts[A.contains_batch(pts)]
        out.append(keep)
        got += keep.shape[0]
        draws += n
    return np.concatenate(out, axis=0)[:count]


def full_batch_search(A, p, lam, tol, budget, box_hi, seed=0):
    """Reference search: every proposal of a batch tested, then the first hit kept."""
    pv = valid_exponent(p)
    rng = sets.spawn_rng(seed, 17)
    nodes = sphere_quadrature(pv, A.dim, lam, n=2048).nodes
    used = 0
    while used < budget:
        n = min(100_000, budget - used)
        xs = full_batch_pool(A, box_hi, n, rng)
        pick = rng.integers(0, nodes.shape[0], size=n)
        scale = 1.0 + rng.uniform(-0.9, 0.9, size=n) * (tol / lam)
        ys = nodes[pick] * scale[:, None]
        ok = A.contains_batch(xs + ys) & A.contains_batch(xs + 2.0 * ys)
        used += n
        if np.any(ok):
            i = int(np.argmax(ok))
            w = ProgressionWitness(x=xs[i], y=ys[i], p=pv, gap=lp_norm(ys[i], pv))
            return SearchOutcome(witness=w, proposals_used=used, exhausted=False)
    return SearchOutcome(witness=None, proposals_used=used, exhausted=True)


def same_outcome(a, b):
    if (a.witness is None) != (b.witness is None):
        return False
    if a.witness is not None and not (np.array_equal(a.witness.x, b.witness.x)
                                      and np.array_equal(a.witness.y, b.witness.y)
                                      and a.witness.gap == b.witness.gap):
        return False
    return a.proposals_used == b.proposals_used and a.exhausted == b.exhausted


SHELL = bourgain_set(2)  # density about 0.2: a pool of n needs a second block of draws
GRID = grid_indicator_set(random_indicator(32.0, 1.0, 2, 0.4, seed=5))


class TestEarlyStop:
    """The pool stops testing at ``count`` members and the search at its first hit,
    with the same draws, witnesses and counts as testing everything."""

    @pytest.mark.parametrize("A", [SHELL, GRID, full_box_set(2, 8.0)], ids=lambda A: A.kind)
    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("chunk", [None, 1000])
    def test_pool_equals_full_batch(self, monkeypatch, A, seed, chunk):
        if chunk is not None:
            monkeypatch.setattr(sets, "_CHUNK_ROWS", chunk)
        for count in (1, 4096, 30_000):
            got_rng, ref_rng = sets.spawn_rng(seed, 13), sets.spawn_rng(seed, 13)
            got = sets._member_pool(A, 10.0, count, got_rng)
            ref = full_batch_pool(A, 10.0, count, ref_rng)
            assert got.shape == (count, 2)
            assert np.array_equal(got, ref)
            assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    def test_pool_needs_a_second_block(self):
        rng = sets.spawn_rng(3, 13)
        first = rng.uniform(0.0, 10.0, size=(4 * 20_000, 2))
        assert np.count_nonzero(SHELL.contains_batch(first)) < 20_000
        got_rng, ref_rng = sets.spawn_rng(3, 13), sets.spawn_rng(3, 13)
        assert np.array_equal(sets._member_pool(SHELL, 10.0, 20_000, got_rng),
                              full_batch_pool(SHELL, 10.0, 20_000, ref_rng))
        assert got_rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize("A", [SHELL, GRID], ids=lambda A: A.kind)
    def test_pool_count_ends_on_a_chunk_boundary(self, monkeypatch, A):
        pts = sets.spawn_rng(4, 13).uniform(0.0, 10.0, size=(4096, 2))
        member = A.contains_batch(pts)
        # a chunk size whose third chunk ends on a member row; that row's member
        # completes the pool, and a pool this size draws only the first block
        chunk = next(c for c in range(400, 1000) if member[3 * c - 1])
        monkeypatch.setattr(sets, "_CHUNK_ROWS", chunk)
        count = int(np.count_nonzero(member[:3 * chunk]))
        assert count <= 4096 // 4
        got = sets._member_pool(A, 10.0, count, sets.spawn_rng(4, 13))
        ref = full_batch_pool(A, 10.0, count, sets.spawn_rng(4, 13))
        assert np.array_equal(got, ref)
        assert np.array_equal(got, pts[A.contains_batch(pts)][:count])

    def test_pool_of_full_box_ends_on_a_chunk_boundary(self, monkeypatch):
        monkeypatch.setattr(sets, "_CHUNK_ROWS", 1024)
        A = full_box_set(2, 10.0)
        for count in (1024, 3072):
            got = sets._member_pool(A, 10.0, count, sets.spawn_rng(2, 13))
            assert np.array_equal(got, full_batch_pool(A, 10.0, count, sets.spawn_rng(2, 13)))

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_search_equals_full_batch(self, p, seed):
        cases = [(GRID, 4.0, 1.0, 150_000), (GRID, 8.0, 1.0, 150_000),
                 (full_box_set(2, 16.0), 2.0, 1e-6, 10_000), (SHELL, 1.3, 1e-3, 20_000)]
        for A, lam, tol, budget in cases:
            box_hi = A.N or 10.0
            got = progression_search(A, p, lam, tol=tol, budget=budget, box_hi=box_hi, seed=seed)
            ref = full_batch_search(A, p, lam, tol, budget, box_hi, seed=seed)
            assert same_outcome(got, ref), (A.kind, lam)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("lam", [0.834, 0.836, 0.84])
    def test_search_late_hits_equal_full_batch(self, seed, lam):
        # near the edge of the allowed Euclidean gaps (2 lam^2 ~ 1.4) hits are rare:
        # at 0.834 and 0.836 they land past row 3,000 of a batch, at 0.836 for
        # seeds 1 and 2 in the third batch, and 0.84 exhausts the budget
        got = progression_search(SHELL, 2.0, lam, tol=1e-3, budget=250_000, box_hi=10.0, seed=seed)
        ref = full_batch_search(SHELL, 2.0, lam, 1e-3, 250_000, 10.0, seed=seed)
        assert same_outcome(got, ref)

    @pytest.mark.parametrize("chunk", [10, 211, 4096])
    def test_search_first_hit_across_chunks(self, monkeypatch, chunk):
        # the first hits of these seeds sit in rows 8 to 26 of the first batch
        monkeypatch.setattr(sets, "_CHUNK_ROWS", chunk)
        for seed in (1, 2, 3, 4):
            got = progression_search(GRID, 1.5, 6.0, tol=1.0, budget=30_000, box_hi=32.0, seed=seed)
            ref = full_batch_search(GRID, 1.5, 6.0, 1.0, 30_000, 32.0, seed=seed)
            assert got.witness is not None and same_outcome(got, ref)

    def test_budget_counts_whole_batches(self):
        got = progression_search(full_box_set(2, 16.0), 1.5, 2.0, tol=1e-6, budget=250_000,
                                 box_hi=16.0, seed=1)
        assert got.witness is not None and got.proposals_used == 100_000
        out = progression_search(SHELL, 2.0, math.sqrt(0.75), tol=1e-3, budget=250_000,
                                 box_hi=10.0, seed=3)
        assert out.exhausted and out.proposals_used == 250_000

    @pytest.mark.parametrize("seed", [4, 5])
    def test_spectrum_equals_full_batch_pool(self, monkeypatch, seed):
        got = gap_spectrum_sample(SHELL, 1.5, 10.0, 3000, seed=seed)
        monkeypatch.setattr(sets, "_member_pool", full_batch_pool)
        ref = gap_spectrum_sample(SHELL, 1.5, 10.0, 3000, seed=seed)
        assert np.array_equal(got.gaps, ref.gaps)
        assert got.proposals_used == ref.proposals_used


class TestProbeBox:
    @pytest.mark.parametrize("box_hi", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_box_rejected(self, box_hi):
        A = full_box_set(2, 8.0)
        with pytest.raises(ValueError, match="box_hi"):
            A.estimate_density(box_hi)
        with pytest.raises(ValueError, match="box_hi"):
            gap_spectrum_sample(A, 1.5, box_hi, 10)
        with pytest.raises(ValueError, match="box_hi"):
            progression_search(A, 1.5, 1.0, tol=0.1, budget=10, box_hi=box_hi)

    def test_empty_density_sample_rejected(self):
        with pytest.raises(ValueError, match="^n must be"):
            bourgain_set(2).estimate_density(1.0, n=0)

    def test_nan_density_sample_rejected(self):
        with pytest.raises(ValueError, match="^n must be"):
            bourgain_set(2).estimate_density(1.0, n=math.nan)


class TestLacunaryGenerate:
    def test_doubling(self):
        seq = lacunary_generate(1.5, 2.0, 5)
        assert seq == [1.5, 3.0, 6.0, 12.0, 24.0]
        assert min(b / a for a, b in zip(seq, seq[1:])) >= 2.0

    def test_triple(self):
        assert lacunary_generate(2.0, 3.0, 3) == [2.0, 6.0, 18.0]

    def test_sub_doubling_rejected(self):
        with pytest.raises(ValueError):
            lacunary_generate(1.5, 1.9, 4)

    def test_small_start_rejected(self):
        with pytest.raises(ValueError):
            lacunary_generate(0.9, 2.0, 4)

    def test_non_finite_ratio_rejected(self):
        # nan < 2.0 is False, so the doubling rule alone does not catch a NaN ratio
        for ratio in (math.nan, math.inf):
            with pytest.raises(ValueError, match="ratio must be finite"):
                lacunary_generate(2.0, ratio, 3)

    def test_non_finite_start_rejected(self):
        for lambda1 in (math.nan, math.inf):
            with pytest.raises(ValueError, match="lambda1 must be finite"):
                lacunary_generate(lambda1, 2.0, 3)

    def test_scale_count_must_be_a_whole_count(self):
        for J in (0, -1, 2.5, math.nan, True):
            with pytest.raises(ValueError, match="^J must be (at least 1|an integer)"):
                lacunary_generate(4.0, 2.0, J)


class TestTheoremExperiment:
    def test_full_density_realizes_everything(self):
        seq = lacunary_generate(4.0, 2.0, 3)
        rep = theorem_experiment(1.0, 1.5, 2, 64.0, seq, seeds=[1, 2, 3],
                                 budget_per_scale=10**5)
        assert rep.all_seeds_realized
        assert all(got == [0, 1, 2] for got in rep.realized)

    def test_degenerate_exponent_rejected(self):
        seq = lacunary_generate(4.0, 2.0, 3)
        with pytest.raises(ValueError):
            theorem_experiment(0.4, 2.0, 2, 64.0, seq, seeds=[1])

    def test_empty_seed_list_rejected(self):
        # with no seeds, all_seeds_realized would hold vacuously
        with pytest.raises(ValueError, match="seeds"):
            theorem_experiment(0.4, 1.5, 2, 64.0, lacunary_generate(4.0, 2.0, 3), seeds=[])

    @pytest.mark.parametrize("seed", [1.5, -1, math.nan])
    def test_bad_seed_named_before_any_draw(self, monkeypatch, seed):
        def no_draw(*args, **kwargs):
            raise AssertionError("indicator drawn before the seeds were checked")
        monkeypatch.setattr(sets, "random_indicator", no_draw)
        with pytest.raises(ValueError, match="^seeds must hold non-negative integers"):
            theorem_experiment(0.4, 1.5, 2, 64.0, lacunary_generate(4.0, 2.0, 3), seeds=[1, seed])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="sequence"):
            theorem_experiment(0.4, 1.5, 2, 64.0, [], seeds=[1])

    @pytest.mark.parametrize("budget", [0, math.nan])
    def test_bad_budget_named_before_any_draw(self, monkeypatch, budget):
        def no_draw(*args, **kwargs):
            raise AssertionError("indicator drawn before the budget was checked")
        monkeypatch.setattr(sets, "random_indicator", no_draw)
        with pytest.raises(ValueError, match="^budget_per_scale must be at least 1"):
            theorem_experiment(0.4, 1.5, 2, 64.0, lacunary_generate(4.0, 2.0, 3), seeds=[1],
                               budget_per_scale=budget)

    @pytest.mark.parametrize("bad", [math.nan, -4.0, 0.0])
    def test_bad_scale_named_before_any_draw(self, monkeypatch, bad):
        def no_draw(*args, **kwargs):
            raise AssertionError("indicator drawn before the scales were checked")
        monkeypatch.setattr(sets, "random_indicator", no_draw)
        with pytest.raises(ValueError, match="^sequence must be finite and positive"):
            theorem_experiment(0.4, 1.5, 2, 64.0, [4.0, bad], seeds=[1])

    def test_nan_density_named(self):
        with pytest.raises(ValueError, match="^delta must be finite"):
            theorem_experiment(np.nan, 1.5, 2, 64.0, lacunary_generate(4.0, 2.0, 3), seeds=[1])

    def test_oversized_scale_rejected(self):
        seq = lacunary_generate(4.0, 2.0, 5)
        with pytest.raises(ValueError):
            theorem_experiment(0.4, 1.5, 2, 64.0, seq, seeds=[1])

    def test_small_positive_control(self):
        seq = lacunary_generate(4.0, 2.0, 3)
        rep = theorem_experiment(0.4, 1.5, 2, 64.0, seq, seeds=range(1, 6),
                                 budget_per_scale=2 * 10**5)
        assert rep.all_seeds_realized

    def test_reports_are_deterministic(self):
        seq = lacunary_generate(4.0, 2.0, 2)
        a = theorem_experiment(0.4, 1.5, 2, 32.0, seq, seeds=[1, 2],
                               budget_per_scale=5 * 10**4)
        b = theorem_experiment(0.4, 1.5, 2, 32.0, seq, seeds=[1, 2],
                               budget_per_scale=5 * 10**4)
        assert a.realized == b.realized
        for (sa, ja, wa), (sb, jb, wb) in zip(a.witnesses, b.witnesses):
            assert sa == sb and ja == jb
            assert np.array_equal(wa.x, wb.x) and np.array_equal(wa.y, wb.y)
