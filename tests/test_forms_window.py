"""The windowed counting forms against a literal zero-padded reference.

The references below embed f in a zero box wide enough for every shift and
sum over all n^d cells, and the lattice references visit every gap j and -j.
Cells outside the forms' overlap window add exact zeros and S(-j) = S(j), so
the two differ only in summation order; on 0/1 indicators not even that.
The gap sums of 0/1 boxes, which are counted on packed 64-bit words, and
those of real-valued boxes, which are the sharp form's node sums at
whole-cell nodes, are compared with == against _float_gap_sums, a copy of
the float loop they replaced.
The sharp form sums corner-pair triple sums on every box; _float_n, a copy
of the float interpolation loop it replaced, is its reference within REL,
and _serial_n, the same corner pairs one node after another (counted on
the bool view of a 0/1 box), its reference with ==.
"""

import math
import os
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import forms, lpgeom, util
from lproth.forms import (BoxFunction, _gap_sums, _kernel_lattice, decomposition_forms,
                          e_lambda, full_box, m_eps_lambda, m_lambda, n_lambda,
                          random_indicator)
from lproth.lpgeom import SphereQuadrature
from lproth.mollifier import CancelledKernel, KernelParams, c1_eps, omega_eps_eval

P = 1.5
REL = 1e-12


def _padded_triple_sum(f, J, kvals):
    n, d = f.n, f.d
    pad = 2 * int(np.max(np.abs(J)))
    F = np.zeros((n + 2 * pad,) * d)
    F[tuple(slice(pad, pad + n) for _ in range(d))] = f.values
    parts = []
    for row, kv in zip(J, kvals):
        if kv == 0.0:
            continue
        s1 = tuple(slice(pad + int(c), pad + int(c) + n) for c in row)
        s2 = tuple(slice(pad + 2 * int(c), pad + 2 * int(c) + n) for c in row)
        parts.append(kv * float(np.sum(f.values * F[s1] * F[s2])))
    return f.h ** (2 * d) * math.fsum(parts)


def _float_gap_sums(f, J):
    """S(j) from float64 products summed by np.sum: the gap-sum loop before 0/1 boxes were counted."""
    n = f.n
    v = f.values
    lo = np.maximum(0, -2 * J)
    hi = np.minimum(n, n - 2 * J)
    S = np.zeros(len(J))
    buf = np.empty(v.size)
    for i in np.flatnonzero(np.all(hi > lo, axis=1)).tolist():
        a, b, row = lo[i].tolist(), hi[i].tolist(), J[i].tolist()
        s0 = tuple(slice(x0, x1) for x0, x1 in zip(a, b))
        s1 = tuple(slice(x0 + c, x1 + c) for x0, x1, c in zip(a, b, row))
        s2 = tuple(slice(x0 + 2 * c, x1 + 2 * c) for x0, x1, c in zip(a, b, row))
        shape = tuple(x1 - x0 for x0, x1 in zip(a, b))
        prod = buf[:math.prod(shape)].reshape(shape)
        np.multiply(v[s0], v[s1], out=prod)
        prod *= v[s2]
        S[i] = np.sum(prod)
    return S


def _full_lattice(d, lam, eps, h):
    """Every lattice gap j, and its vector j h, out to the width-eps kernel support."""
    jmax = int(np.floor(KernelParams(P, d, lam, eps).support_radius / h)) + 1
    ax = np.arange(-jmax, jmax + 1)
    J = np.stack([g.ravel() for g in np.meshgrid(*([ax] * d), indexing="ij")], axis=-1)
    return J, J * h


def _padded_m_eps(f, lam, eps, m):
    J, Y = _full_lattice(f.d, lam, eps, f.h)
    return _padded_triple_sum(f, J, omega_eps_eval(Y, KernelParams(P, f.d, lam, eps), m))


def _padded_e(f, lam, eps, m):
    kern = CancelledKernel(KernelParams(P, f.d, lam, eps), c1_eps(eps, P, f.d, m), m)
    J, Y = _full_lattice(f.d, lam, 1.0, f.h)
    return _padded_triple_sum(f, J, kern(Y))


def _padded_interp(f, P_vals, pad, y):
    n, d = f.n, f.d
    out = np.zeros((n,) * d)
    base = np.floor(y / f.h)
    frac = y / f.h - base
    for corner in range(1 << d):
        w = 1.0
        sl = []
        for axis in range(d):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            off = pad + int(base[axis]) + bit
            sl.append(slice(off, off + n))
        out = out + w * P_vals[tuple(sl)]
    return out


def _padded_n(f, quad):
    n, d = f.n, f.d
    pad = int(np.max(np.floor(np.abs(2.0 * quad.nodes) / f.h))) + 2
    P_vals = np.zeros((n + 2 * pad,) * d)
    P_vals[tuple(slice(pad, pad + n) for _ in range(d))] = f.values
    parts = []
    for node, w in zip(quad.nodes, quad.weights):
        f1 = _padded_interp(f, P_vals, pad, node)
        f2 = _padded_interp(f, P_vals, pad, 2.0 * node)
        parts.append(w * float(np.sum(f.values * f1 * f2)))
    return f.h**d * math.fsum(parts)


def _serial_n(f, quad):
    """The sharp form with its node sums one after another in one set of buffers."""
    v = f.values
    if np.all((v == 0.0) | (v == 1.0)):
        v, total = v != 0.0, np.count_nonzero
    else:
        total = np.sum
    rim = np.pad(v, 1)
    block = forms._BLOCK_BYTES // rim.itemsize
    first, both = (np.empty(max(block, f.n ** (f.d - 1)), dtype=rim.dtype) for _ in range(2))
    parts = []
    for node, w in zip(quad.nodes, quad.weights):
        shift = node / f.h
        c1 = forms._corners(*forms._cell_offset(shift))
        c2 = forms._corners(*forms._cell_offset(2.0 * shift))
        blocks = forms._overlap_blocks(f.n, c1, c2, block)
        if blocks is None:
            continue
        S = np.zeros((len(c1), len(c2)))
        for window in blocks:
            shape = tuple(sl.stop - sl.start for sl in window)
            g = first[:math.prod(shape)].reshape(shape)
            t = both[:math.prod(shape)].reshape(shape)
            here = rim[forms._shifted(window, (1,) * f.d)]
            for i, (_, off1) in enumerate(c1):
                np.multiply(here, rim[forms._shifted(window, off1)], out=g)
                for j, (_, off2) in enumerate(c2):
                    np.multiply(g, rim[forms._shifted(window, off2)], out=t)
                    S[i, j] += total(t)
        parts.append(w * math.fsum(w1 * w2 * S[i, j] for i, (w1, _) in enumerate(c1)
                                   for j, (w2, _) in enumerate(c2)))
    return f.h**f.d * math.fsum(parts)


def _interp(rim, corners, window):
    """f(x + y) on the window, multilinear from the (weight, offset) corners of y."""
    (w, off), *rest = corners
    out = rim[forms._shifted(window, off)] * w
    for w, off in rest:
        out += rim[forms._shifted(window, off)] * w
    return out


def _float_n(f, quad):
    """The sharp form by the float loop that the corner-pair sums replaced.

    f(x + y) and f(x + 2y) are interpolated into float64 blocks of 2^16
    cells and multiplied with f(x); the block sums are added by fsum.
    """
    rim = np.pad(f.values, 1)
    parts = []
    for node, w in zip(quad.nodes, quad.weights):
        shift = node / f.h
        c1 = forms._corners(*forms._cell_offset(shift))
        c2 = forms._corners(*forms._cell_offset(2.0 * shift))
        blocks = forms._overlap_blocks(f.n, c1, c2, 1 << 16)
        if blocks is None:
            continue
        sums = [float(np.sum(f.values[window] * _interp(rim, c1, window)
                             * _interp(rim, c2, window))) for window in blocks]
        parts.append(w * math.fsum(sums))
    return f.h**f.d * math.fsum(parts)


def _signed_box(N, n, d, seed):
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n,) * d)
    return BoxFunction(values=vals, N=N, h=N / n)


def _rule(nodes, lam=1.0):
    nodes = np.asarray(nodes, dtype=float)
    weights = np.full(len(nodes), 1.0 / len(nodes))
    return SphereQuadrature(nodes=nodes, weights=weights, lam=lam, d=nodes.shape[1])


class TestSharpWindow:
    @pytest.mark.parametrize("d,n,N,lam,p,nodes", [
        (1, 256, 16.0, 2.0, 1.5, 16),
        (1, 150_000, 16.0, 3.0, 3.0, 4),   # one axis split into several blocks
        (2, 48, 6.0, 1.0, 2.0, 16),
        (2, 400, 8.0, 1.0, 1.5, 8),        # rows split into several blocks
        (3, 20, 5.0, 1.0, 1.5, 8),
    ])
    def test_matches_padded_reference(self, d, n, N, lam, p, nodes):
        f = _signed_box(N, n, d, seed=n + d)
        rule = lpgeom.sphere_quadrature(p, d, lam, n=nodes)
        assert np.any(rule.nodes < 0.0)
        assert n_lambda(f, rule, lam).value == pytest.approx(_padded_n(f, rule), rel=REL)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_negative_nodes(self, d):
        f = _signed_box(4.0, 16, d, seed=d)
        nodes = -np.array([[0.37, 0.81, 0.05][:d], [1.3, 0.2, 0.6][:d]])
        rule = _rule(nodes)
        assert n_lambda(f, rule, 1.0).value == pytest.approx(_padded_n(f, rule), rel=REL)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gap_leaving_box_is_exact_zero(self, sign):
        # 2y overshoots the box on the first axis, so no x has all three points inside
        f = BoxFunction(values=np.ones((16, 16)), N=4.0, h=0.25)
        rule = _rule(sign * np.array([[2.1, 0.3], [2.6, -1.0]]))
        assert n_lambda(f, rule, 1.0).value == 0.0
        assert _padded_n(f, rule) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=1, max_value=2),
           n=st.integers(min_value=2, max_value=40),
           N=st.floats(min_value=0.5, max_value=8.0),
           frac_nodes=st.lists(st.lists(st.floats(min_value=-1.2, max_value=1.2),
                                        min_size=2, max_size=2),
                               min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_property_random_nodes_and_grids(self, d, n, N, frac_nodes, seed):
        vals = np.random.default_rng(seed).uniform(0.0, 1.0, size=(n,) * d)
        f = BoxFunction(values=vals, N=N, h=N / n)
        rule = _rule(N * np.array(frac_nodes)[:, :d])
        got = n_lambda(f, rule, 1.0).value
        ref = _padded_n(f, rule)
        if ref == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(ref, rel=REL)


class TestLatticeWindow:
    @pytest.mark.parametrize("d,N,n,lam,eps", [
        (1, 32.0, 768, 2.0, 0.25),
        (1, 8.0, 96, 2.0, 0.5),            # the widest gaps leave the box
        (2, 8.0, 96, 2.0, 0.5),
    ])
    def test_matches_padded_reference(self, moll, d, N, n, lam, eps):
        f = _signed_box(N, n, d, seed=n)
        got_m = m_eps_lambda(f, lam, eps, moll, P).value
        got_e = e_lambda(f, lam, eps, moll, P).value
        assert got_m == pytest.approx(_padded_m_eps(f, lam, eps, moll), rel=REL)
        assert got_e == pytest.approx(_padded_e(f, lam, eps, moll), rel=REL)

    @pytest.mark.parametrize("d,N,n,lam,eps", [
        (1, 32.0, 768, 2.0, 0.25),
        (2, 8.0, 96, 2.0, 0.5),
    ])
    def test_indicator_is_exact(self, moll, d, N, n, lam, eps):
        # every product is an exact integer, and 2 k S(j) is exactly k S(j) + k S(-j)
        f = random_indicator(N, N / n, d, 0.5, seed=n)
        assert m_eps_lambda(f, lam, eps, moll, P).value == _padded_m_eps(f, lam, eps, moll)
        assert e_lambda(f, lam, eps, moll, P).value == _padded_e(f, lam, eps, moll)


class TestHalfLattice:
    @pytest.mark.parametrize("d", [1, 2])
    def test_halves_the_full_lattice(self, d):
        J, weight = _kernel_lattice(P, d, 2.0, 0.5, 0.25)
        full, _ = _full_lattice(d, 2.0, 0.5, 0.25)
        both = np.concatenate([J, -J[weight == 2.0]])
        assert sorted(map(tuple, both.tolist())) == sorted(map(tuple, full.tolist()))
        assert np.all(J[weight == 1.0] == 0)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=1, max_value=2),
           n=st.integers(min_value=1, max_value=24),
           density=st.floats(min_value=0.05, max_value=1.0),
           gaps=st.lists(st.lists(st.integers(min_value=-14, max_value=14),
                                  min_size=2, max_size=2),
                         min_size=1, max_size=6),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_gap_sum_is_even_on_indicators(self, d, n, density, gaps, seed):
        f = random_indicator(float(n), 1.0, d, density, seed=seed)
        J = np.array(gaps)[:, :d]
        assert np.array_equal(_gap_sums(f, J), _gap_sums(f, -J))


class TestSharedSums:
    def test_matches_separate_forms_on_signed_box(self, moll):
        lam, eps = 2.0, 0.5
        f = _signed_box(8.0, 96, 2, seed=5)
        shared = decomposition_forms(f, lam, eps, moll, P)[:3]
        separate = (m_eps_lambda(f, lam, eps, moll, P), m_lambda(f, lam, moll, P),
                    e_lambda(f, lam, eps, moll, P))
        for got, ref in zip(shared, separate):
            assert (got.kind, got.eps) == (ref.kind, ref.eps)
            assert got.value == pytest.approx(ref.value, rel=REL)
            assert got.quadrature_error == pytest.approx(ref.quadrature_error, rel=REL)


@pytest.fixture()
def counts(monkeypatch):
    """The dtypes of the arrays np.count_nonzero sees, one entry per call."""
    seen = []
    count = np.count_nonzero

    def spy(a, *args, **kwargs):
        seen.append(np.asarray(a).dtype)
        return count(a, *args, **kwargs)
    monkeypatch.setattr(np, "count_nonzero", spy)
    return seen


@pytest.fixture()
def popcounts(monkeypatch):
    """(dtype, last axis, bytes) of each array _popcount counts: the dtype of the words, the
    length of their last axis, which runs over a block's gaps in the packed gap sums and
    over words in the sharp form's corner pairs, and their size."""
    seen = []
    popcount = forms._popcount

    def spy(w, t):
        seen.append((w.dtype, w.shape[-1], w.nbytes))
        return popcount(w, t)
    monkeypatch.setattr(forms, "_popcount", spy)
    return seen


# np.count_nonzero's calls in a 0/1 box's gap sums: the 0/1 test alone (forms._packed_ones), on
# the box's ones and its values; no product is counted by it
_ONE_TEST = [np.dtype(bool), np.dtype(float)]


def _counted_on_words(popcounts, live):
    """Whether the blocks counted on uint64 words cover live gaps, 32 at most per block."""
    widths = [gaps for _, gaps, _ in popcounts]
    return ({dtype for dtype, _, _ in popcounts} <= {np.dtype(np.uint64)}
            and len(widths) <= live <= sum(widths) and max(widths, default=0) <= 32)


def _window_cells(n, J):
    """Cells of each gap's window, prod max(0, n - 2|j_i|): S(j) of the full box."""
    return np.prod(np.clip(n - 2 * np.abs(J), 0, None), axis=1).astype(float)


def _live_windows(f, J):
    return int(np.sum(_window_cells(f.n, J) > 0.0))


# n = 7: the gap 3 leaves a one-cell window on its axis, and the gaps 4 and -5 none
_EDGE_GAPS = {1: [[0], [1], [3], [-3], [4], [-5]],
              2: [[0, 0], [3, 3], [3, -3], [-3, 0], [4, 0], [1, -5], [2, 1]]}


class TestCountedGapSums:
    """0/1 boxes are counted on packed words; the counts equal the float loop with ==."""

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("d,N,n,lam,eps", [
        (1, 32.0, 768, 2.0, 0.25),
        (2, 8.0, 96, 2.0, 0.5),
    ])
    def test_random_indicator_equals_float_loop(self, counts, popcounts, d, N, n, lam, eps,
                                                structured):
        f = random_indicator(N, N / n, d, 0.3, seed=n, structured=structured)
        J, _ = _kernel_lattice(P, d, lam, eps, f.h)
        counts.clear()
        got = _gap_sums(f, J)
        assert np.array_equal(got, _float_gap_sums(f, J))
        assert got[0] == np.sum(f.values)
        assert counts == _ONE_TEST and popcounts
        assert _counted_on_words(popcounts, _live_windows(f, J))

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_box_equals_float_loop(self, counts, popcounts, d, fill):
        f = BoxFunction(values=np.full((40,) * d, fill), N=10.0, h=0.25)
        J, _ = _kernel_lattice(P, d, 2.0, 0.5, f.h)
        got = _gap_sums(f, J)
        assert np.array_equal(got, _float_gap_sums(f, J))
        assert np.array_equal(got, fill * _window_cells(f.n, J))
        assert counts == _ONE_TEST and popcounts
        assert _counted_on_words(popcounts, _live_windows(f, J))

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 129])
    @pytest.mark.parametrize("d", [1, 2])
    def test_word_edges_equal_float_loop(self, popcounts, d, n):
        # every gap out to 2|j_i| >= n on each axis, both signs: windows that end
        # on, before and after a word boundary, and windows that are empty
        ax = np.arange(-(n // 2) - 1, n // 2 + 2)
        J = np.stack([g.ravel() for g in np.meshgrid(*([ax] * d), indexing="ij")], axis=-1)
        assert np.any(2 * np.abs(J) >= n)
        for seed, density in ((n, 0.5), (n + 1, 0.9)):
            f = random_indicator(float(n), 1.0, d, density, seed=seed)
            popcounts.clear()
            got = _gap_sums(f, J)
            assert np.array_equal(got, _float_gap_sums(f, J))
            assert np.all(got[_window_cells(n, J) == 0.0] == 0.0)
            assert _counted_on_words(popcounts, _live_windows(f, J))
        full = full_box(float(n), 1.0, d)
        assert np.array_equal(_gap_sums(full, J), _window_cells(n, J))

    @pytest.mark.parametrize("d", [1, 2])
    def test_wide_and_negative_gaps_equal_float_loop(self, d):
        n = 130
        f = random_indicator(float(n), 1.0, d, 0.7, seed=d)
        rows = {1: [[65], [-65], [64], [-64], [66], [-130], [-1], [-63], [-33], [31], [32]],
                2: [[-3, 64], [-64, 1], [-65, 0], [-1, -64], [-40, 33], [-2, -63], [65, -65],
                    [-7, 131], [0, -32], [-50, -31]]}
        J = np.array(rows[d])
        assert np.any(J[:, 0] < 0) and np.any(2 * np.abs(J) >= n)
        got = _gap_sums(f, J)
        assert np.array_equal(got, _float_gap_sums(f, J))
        empty = _window_cells(n, J) == 0.0
        assert np.any(empty) and np.all(got[empty] == 0.0) and np.any(got > 0.0)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_gaps(self, popcounts, d):
        f = random_indicator(16.0, 1.0, d, 0.5, seed=d)
        J = np.zeros((0, d), dtype=int)
        got = _gap_sums(f, J)
        assert got.shape == (0,) and np.array_equal(got, _float_gap_sums(f, J))
        assert popcounts == []

    @pytest.mark.parametrize("seed", [7, 11])
    def test_bench_box_equals_float_loop(self, seed):
        # the counting-forms workload's random 192^2 box and the width-1 half
        # lattice of its decomposition forms
        f = random_indicator(8.0, 8.0 / 192, 2, 0.5, seed)
        J, _ = _kernel_lattice(P, 2, 2.0, 1.0, f.h)
        assert np.array_equal(_gap_sums(f, J), _float_gap_sums(f, J))

    @pytest.mark.parametrize("d,n,lam", [(2, 192, 2.0), (1, 1 << 18, 0.05)])
    def test_work_memory_is_bounded(self, d, n, lam):
        # the bench's 192^2 box (20,201 gaps), and a row of 2^18 cells (3,410 gaps)
        f = random_indicator(8.0, 8.0 / n, d, 0.5, seed=3)
        J, _ = _kernel_lattice(P, d, lam, 1.0, f.h)
        tracemalloc.start()
        try:
            _gap_sums(f, J)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 << 20


    @pytest.mark.parametrize("d", [1, 2])
    def test_one_cell_and_empty_windows(self, counts, d):
        J = np.array(_EDGE_GAPS[d])
        cells = _window_cells(7, J)
        assert set(cells.tolist()) >= {0.0, 1.0}
        full = full_box(7.0, 1.0, d)
        assert np.array_equal(_gap_sums(full, J), cells)
        for f in (full, random_indicator(7.0, 1.0, d, 0.6, seed=d)):
            got = _gap_sums(f, J)
            assert np.array_equal(got, _float_gap_sums(f, J))
            assert np.all(got[cells == 0.0] == 0.0)

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=1, max_value=2),
           n=st.integers(min_value=1, max_value=24),
           density=st.floats(min_value=0.05, max_value=1.0),
           gaps=st.lists(st.lists(st.integers(min_value=-14, max_value=14),
                                  min_size=2, max_size=2),
                         min_size=1, max_size=6),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_property_indicators_equal_float_loop(self, d, n, density, gaps, seed):
        f = random_indicator(float(n), 1.0, d, density, seed=seed, structured=seed % 2 == 1)
        J = np.array(gaps)[:, :d]
        assert np.array_equal(_gap_sums(f, J), _float_gap_sums(f, J))

    def test_indicator_forms_equal_float_forms(self, moll, monkeypatch):
        lam, eps = 2.0, 0.5
        f = random_indicator(8.0, 8.0 / 96, 2, 0.5, seed=4)
        got = decomposition_forms(f, lam, eps, moll, P)[:3]
        monkeypatch.setattr(forms, "_gap_sums", _float_gap_sums)
        ref = decomposition_forms(f, lam, eps, moll, P)[:3]
        assert [g.value for g in got] == [r.value for r in ref]


class TestPopcount:
    """The SWAR popcount against Python's count of the ones of each word."""

    @staticmethod
    def _check(words):
        w = np.array(words, dtype=np.uint64)
        got = forms._popcount(w.copy(), np.empty_like(w))
        assert got.dtype == np.uint64
        assert got.tolist() == [bin(x).count("1") for x in words]

    def test_extremes_and_single_bits(self):
        self._check([0, (1 << 64) - 1] + [1 << b for b in range(64)]
                    + [((1 << 64) - 1) ^ (1 << b) for b in range(64)])

    def test_random_words(self):
        rng = np.random.default_rng(5)
        self._check(rng.integers(0, 1 << 64, size=2000, dtype=np.uint64).tolist())

    def test_multidimensional_words(self):
        rng = np.random.default_rng(6)
        w = rng.integers(0, 1 << 64, size=(3, 5, 7), dtype=np.uint64)
        got = forms._popcount(w.copy(), np.empty_like(w))
        assert got.tolist() == [[[bin(x).count("1") for x in r] for r in m] for m in w.tolist()]


def _near_indicator(N, n, d, seed):
    """A random indicator with one cell raised to 1 + 1e-13, which BoxFunction admits."""
    vals = random_indicator(N, N / n, d, 0.5, seed=seed).values
    vals.flat[np.argmax(vals)] = 1.0 + 1e-13
    return BoxFunction(values=vals, N=N, h=N / n)


def _halves_box(N, n, d, seed):
    vals = np.random.default_rng(seed).choice([0.0, 0.5, 1.0], size=(n,) * d)
    return BoxFunction(values=vals, N=N, h=N / n)


class TestFloatGapSums:
    """Boxes with any value other than 0.0 and 1.0 take float products, in the node sums."""

    @pytest.mark.parametrize("build", [_halves_box, _signed_box, _near_indicator])
    @pytest.mark.parametrize("d,N,n,lam,eps", [
        (1, 8.0, 96, 2.0, 0.5),
        (2, 8.0, 96, 2.0, 0.5),
    ])
    def test_matches_padded_reference(self, moll, popcounts, build, d, N, n, lam, eps):
        f = build(N, n, d, seed=n + d)
        got_m = m_eps_lambda(f, lam, eps, moll, P).value
        got_e = e_lambda(f, lam, eps, moll, P).value
        assert popcounts == []
        assert got_m == pytest.approx(_padded_m_eps(f, lam, eps, moll), rel=REL)
        assert got_e == pytest.approx(_padded_e(f, lam, eps, moll), rel=REL)

    @pytest.mark.parametrize("d", [1, 2])
    def test_near_one_is_never_counted_as_one(self, popcounts, d):
        f = _near_indicator(8.0, 32, d, seed=d)
        J, _ = _kernel_lattice(P, d, 2.0, 0.5, f.h)
        got = _gap_sums(f, J)
        assert popcounts == []
        assert np.array_equal(got, _float_gap_sums(f, J))
        # S(0) = sum f^3 picks up (1 + 1e-13)^3, a few ulp above the count
        rounded = BoxFunction(values=np.round(f.values), N=f.N, h=f.h)
        assert got[0] > _gap_sums(rounded, J)[0]

    @pytest.mark.parametrize("build", [_halves_box, _signed_box])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_whole_cell_node_sums_equal_float_loop(self, monkeypatch, popcounts, build, d):
        # the sharp form's node sums at every gap out to 2|j_i| >= n on each axis,
        # both signs: one corner per shift, so the float loop's products and window
        n = 9
        f = build(float(n), n, d, seed=d)
        ax = np.arange(-(n // 2) - 1, n // 2 + 2)
        J = np.stack([g.ravel() for g in np.meshgrid(*([ax] * d), indexing="ij")], axis=-1)
        dtypes = []
        node_sum = forms._node_sum

        def spy(box, n, t, bufs):
            dtypes.append(box.data.dtype)
            return node_sum(box, n, t, bufs)
        monkeypatch.setattr(forms, "_node_sum", spy)
        got = _gap_sums(f, J)
        assert np.array_equal(got, _float_gap_sums(f, J))
        assert np.all(got[_window_cells(n, J) == 0.0] == 0.0)
        assert popcounts == [] and set(dtypes) == {np.dtype(float)}
        assert len(dtypes) == _live_windows(f, J) < len(J)


def _shell_indicator(N=4.0, n=2048):
    h = N / n
    ax = (np.arange(n) + 0.5) * h
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    r2 = X**2 + Y**2
    return BoxFunction(values=(np.abs(r2 - np.round(r2)) <= 0.1).astype(float), N=N, h=h)


@pytest.fixture()
def pool_workers(monkeypatch):
    """Run the sharp form's pool with a given worker count; record each pool's size."""
    sizes = []

    def use(workers):
        def make(max_workers):
            sizes.append(max_workers)
            return ThreadPoolExecutor(max_workers=workers)
        monkeypatch.setattr(forms, "ThreadPoolExecutor", make)
        return sizes
    return use


class TestSharpPool:
    """The pooled node sums against the serial loop, compared with ==."""

    @pytest.mark.parametrize("d,n,p,nodes", [
        (1, 150_000, 3.0, 8),    # one axis split into several blocks
        (1, 256, 1.5, 16),
        (2, 400, 1.5, 16),       # rows split into several blocks
        (2, 48, 3.0, 16),
        (3, 24, 1.5, 8),
        (3, 20, 3.0, 8),
    ])
    def test_signed_box_equals_serial(self, d, n, p, nodes):
        f = _signed_box(8.0, n, d, seed=n + d)
        rule = lpgeom.sphere_quadrature(p, d, 1.0, n=nodes)
        assert n_lambda(f, rule, 1.0).value == _serial_n(f, rule)

    def test_shell_indicator_equals_serial(self):
        f = _shell_indicator()
        rule = lpgeom.sphere_quadrature(2.0, 2, 1.0, n=64)  # an allowed gap: 2 lam^2 = 2
        got = n_lambda(f, rule, 1.0).value
        assert got == float.fromhex("0x1.c50dd803d2baep-2")
        assert got == _serial_n(f, rule)

    # the counted sharp form on a 512^2 shell with 64 nodes, pinned to the bit so
    # that any change to the counted arithmetic fails here.  At this resolution
    # the forbidden gap keeps some interpolation bleed; at 2048^2 it is 0.0.
    @pytest.mark.parametrize("lam,pinned", [
        (math.sqrt(0.75), "0x1.353cfb67b72cdp-13"),
        (1.0, "0x1.ba4d26599cb78p-2"),
        (1.3, "0x1.dd9c8081cb912p-8"),
    ])
    def test_shell_indicator_is_pinned(self, lam, pinned):
        rule = lpgeom.sphere_quadrature(2.0, 2, lam, n=64)
        assert n_lambda(_shell_indicator(n=512), rule, lam).value == float.fromhex(pinned)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_windows_among_live_nodes(self, d):
        # the first and third gaps take 2y out of the box on the first axis
        f = _signed_box(4.0, 16, d, seed=d)
        nodes = np.array([[2.1, 0.3, 0.2], [0.37, -0.81, 0.05], [-2.6, -1.0, 0.4],
                          [-0.4, 0.2, -0.6]])[:, :d]
        rule = _rule(nodes)
        got = n_lambda(f, rule, 1.0).value
        assert got != 0.0
        assert got == _serial_n(f, rule)

    @pytest.mark.parametrize("workers", [1, 2, 3, 11])
    def test_any_worker_count_is_bit_identical(self, pool_workers, workers):
        f = _signed_box(8.0, 96, 2, seed=3)
        rule = lpgeom.sphere_quadrature(1.5, 2, 1.0, n=8)
        sizes = pool_workers(workers)
        assert n_lambda(f, rule, 1.0).value == _serial_n(f, rule)
        assert len(sizes) == 1

    @pytest.mark.parametrize("cpus,nodes,want", [(1, 8, 1), (2, 8, 2), (64, 8, 8)])
    def test_one_worker_per_usable_cpu_up_to_the_nodes(self, monkeypatch, pool_workers,
                                                       cpus, nodes, want):
        monkeypatch.setattr(forms, "usable_cpus", lambda: cpus)
        sizes = pool_workers(want)
        f = _signed_box(4.0, 16, 2, seed=1)
        n_lambda(f, lpgeom.sphere_quadrature(1.5, 2, 1.0, n=nodes), 1.0)
        assert sizes == [want]

    def test_usable_cpus_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert util.usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert util.usable_cpus() == 1

    @pytest.mark.parametrize("workers", [1, 4])
    def test_node_sum_error_reaches_caller(self, monkeypatch, pool_workers, workers):
        node_sum = forms._node_sum
        pool_workers(workers)
        for f in (_signed_box(4.0, 32, 2, seed=2), _indicator_box(4.0, 32, 2, seed=2)):
            calls = []
            lock = threading.Lock()

            def failing(*args):
                with lock:
                    calls.append(None)
                    if len(calls) == 7:
                        raise FloatingPointError("node sum failed")
                return node_sum(*args)
            monkeypatch.setattr(forms, "_node_sum", failing)
            with pytest.raises(FloatingPointError, match="node sum failed"):
                n_lambda(f, lpgeom.sphere_quadrature(1.5, 2, 1.0, n=8), 1.0)
            assert len(calls) >= 7


def _corner_pair_counts(f, c1, c2):
    """S(c1, c2) = sum_x f(x) f(x + c1) f(x + c2) of the 0/1 box f for each pair of corners
    (rim offsets, as forms._corners gives them), on a zero-padded copy of the box."""
    pad = 1 + max(abs(o - 1) for _, off in c1 + c2 for o in off)
    P = np.pad(f.values != 0.0, pad)
    box = (slice(pad, pad + f.n),) * f.d
    S = np.zeros((len(c1), len(c2)), dtype=int)
    for i, (_, o1) in enumerate(c1):
        for j, (_, o2) in enumerate(c2):
            S[i, j] = np.count_nonzero(P[box] & P[forms._shifted(box, np.array(o1) - 1)]
                                       & P[forms._shifted(box, np.array(o2) - 1)])
    return S


def _indicator_box(N, n, d, seed, structured=False):
    return random_indicator(N, N / n, d, 0.4, seed=seed, structured=structured)


@pytest.fixture()
def phase_builds(monkeypatch):
    """One entry per call of forms._word_phases, the build of a 0/1 box's 65 word phases."""
    seen = []
    word_phases = forms._word_phases

    def spy(words):
        seen.append(words.shape)
        return word_phases(words)
    monkeypatch.setattr(forms, "_word_phases", spy)
    return seen


def _on_words(popcounts):
    """Whether some corner pairs were counted, all on uint64 words."""
    return bool(popcounts) and {dtype for dtype, _, _ in popcounts} == {np.dtype(np.uint64)}


class TestCountedSharpForm:
    """0/1 boxes take node sums counted on packed words; they equal the serial bool
    counts with == and match the deleted float loop within REL."""

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("d,n,N,p,nodes", [
        (1, 256, 16.0, 1.5, 16),
        (2, 48, 6.0, 2.0, 16),
        (2, 96, 8.0, 3.0, 8),
        (3, 20, 5.0, 1.5, 8),
    ])
    def test_indicator_matches_float_loop(self, popcounts, d, n, N, p, nodes, structured):
        f = _indicator_box(N, n, d, seed=n + d, structured=structured)
        rule = lpgeom.sphere_quadrature(p, d, 1.0, n=nodes)
        got = n_lambda(f, rule, 1.0).value
        assert _on_words(popcounts)
        assert got == _serial_n(f, rule)
        ref = _float_n(f, rule)
        assert ref > 0.0
        assert got == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_box_matches_float_loop(self, popcounts, d, fill):
        f = BoxFunction(values=np.full((16,) * d, fill), N=4.0, h=0.25)
        rule = lpgeom.sphere_quadrature(1.5, d, 1.0, n=8)
        got = n_lambda(f, rule, 1.0).value
        assert forms._product_view(f.values)[0].dtype == np.uint64
        if fill == 0.0:
            # the empty box's covers are empty, so no block reaches _popcount
            assert popcounts == []
            assert got == 0.0 == _float_n(f, rule)
        else:
            assert _on_words(popcounts)
            assert got == _serial_n(f, rule)
            assert got == pytest.approx(_float_n(f, rule), rel=REL)
            assert got == pytest.approx(_padded_n(f, rule), rel=REL)

    @pytest.mark.parametrize("d,n,N", [(1, 4000, 16.0), (2, 96, 8.0), (3, 24, 6.0)])
    def test_blocks_split_the_window_bit_for_bit(self, monkeypatch, d, n, N):
        # the word counts take the whole window and are exact integers, so they equal
        # the serial bool counts in 56-cell blocks; float block sums of a signed box
        # round differently, so it compares at REL
        f, signed = _indicator_box(N, n, d, seed=d), _signed_box(N, n, d, seed=d)
        rule = lpgeom.sphere_quadrature(1.5, d, 1.0, n=8)
        whole_signed = n_lambda(signed, rule, 1.0).value
        monkeypatch.setattr(forms, "_BLOCK_BYTES", 56)  # 56 bool or 7 float64 cells
        got = n_lambda(f, rule, 1.0).value
        assert got == _serial_n(f, rule)
        assert got == pytest.approx(_float_n(f, rule), rel=REL)
        assert n_lambda(signed, rule, 1.0).value == pytest.approx(whole_signed, rel=REL)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_windows_among_live_nodes(self, d):
        # the first and third gaps take 2y out of the box on the first axis
        f = _indicator_box(4.0, 16, d, seed=d)
        nodes = np.array([[2.1, 0.3, 0.2], [0.37, -0.81, 0.05], [-2.6, -1.0, 0.4],
                          [-0.4, 0.2, -0.6]])[:, :d]
        rule = _rule(nodes)
        got = n_lambda(f, rule, 1.0).value
        assert got > 0.0
        assert got == pytest.approx(_float_n(f, rule), rel=REL)
        assert n_lambda(f, _rule(nodes[[0, 2]]), 1.0).value == 0.0

    @settings(max_examples=60, deadline=None)
    @given(d=st.integers(min_value=1, max_value=3),
           n=st.integers(min_value=2, max_value=20),
           N=st.floats(min_value=0.5, max_value=8.0),
           density=st.floats(min_value=0.05, max_value=1.0),
           frac_nodes=st.lists(st.lists(st.floats(min_value=-1.2, max_value=1.2),
                                        min_size=3, max_size=3),
                               min_size=1, max_size=4),
           seed=st.integers(min_value=0, max_value=10**6))
    def test_property_indicators_match_float_loop(self, d, n, N, density, frac_nodes, seed):
        f = random_indicator(N, N / n, d, density, seed=seed, structured=seed % 2 == 1)
        rule = _rule(N * np.array(frac_nodes)[:, :d])
        got = n_lambda(f, rule, 1.0).value
        ref = _float_n(f, rule)
        if ref == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("build", [_halves_box, _signed_box, _near_indicator])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_other_boxes_take_the_float_loop(self, popcounts, build, d):
        f = build(4.0, 16, d, seed=d)
        rule = lpgeom.sphere_quadrature(1.5, d, 1.0, n=8)
        got = n_lambda(f, rule, 1.0).value
        assert popcounts == []
        assert got == _serial_n(f, rule)
        assert got == pytest.approx(_float_n(f, rule), rel=REL)

    @pytest.mark.parametrize("n", [63, 64, 65, 130])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_word_edge_corners_equal_serial(self, popcounts, d, n):
        # last-axis shifts, in cells, whose two corners are phases 63 and 64 (phase 0 of
        # the next word): 63.3 and 31.7 (x + 2y), -0.5 and -64.5 below the row; other
        # negative shifts; and shifts whose x + 2y has one corner on the box's last cell
        # and one off it, alone or beside a leading shift that leaves the box
        last = [63.3, 31.7, -0.5, -64.5, -31.6, -1.2, n / 2 - 0.25, 0.25 - n / 2, 0.4]
        lead = [0.3, -1.6, 2.5, n / 2 - 0.25]
        nodes = np.array([[lead[(i + a) % 4] for a in range(d - 1)] + [t]
                          for i, t in enumerate(last)])
        f = random_indicator(float(n), 1.0, d, 0.6, seed=n + d)
        rule = _rule(nodes)
        got = n_lambda(f, rule, 1.0).value
        assert got > 0.0 and _on_words(popcounts)
        assert got == _serial_n(f, rule)
        assert got == pytest.approx(_float_n(f, rule), rel=REL)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_empty_cover_reaches_no_popcount(self, popcounts, d):
        # along the last axis f is 1 at 0, 10, 30 and 50, on leading rows 2 and 3; at
        # the shift (0.5, ..., 10.25) f(x) f(x + y) is nonzero at x = 0 and f(x + 2y)
        # at x = 9, 10, 29 and 30, but f(x) f(x + y) f(x + 2y) nowhere, so the cover
        # is empty
        vals = np.zeros((56,) * d)
        vals[(slice(2, 4),) * (d - 1) + ([0, 10, 30, 50],)] = 1.0
        f = BoxFunction(values=vals, N=56.0, h=1.0)
        rule = _rule([[0.5] * (d - 1) + [10.25]])
        assert n_lambda(f, rule, 1.0).value == 0.0 == _serial_n(f, rule)
        assert popcounts == []
        # beside a node that counts (10, 30, 50), the value equals the serial counts
        both = _rule([[0.5] * (d - 1) + [10.25], [0.5] * (d - 1) + [20.0]])
        got = n_lambda(f, both, 1.0).value
        assert got > 0.0 and _on_words(popcounts)
        assert got == _serial_n(f, both)

    def test_forbidden_gap_builds_no_phase(self, phase_builds, popcounts):
        # the square-shell set at a forbidden gap, 2 lam^2 = 1.5 midway between integers:
        # on this grid every node's screen is empty, so no phase is built and nothing counted
        f = _shell_indicator(N=2.0, n=256)
        lam = math.sqrt(0.75)
        rule = lpgeom.sphere_quadrature(2.0, 2, lam, n=64)
        assert n_lambda(f, rule, lam).value == 0.0 == _serial_n(f, rule)
        assert phase_builds == [] and popcounts == []

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_phases_are_built_once_where_some_screens_pass(self, pool_workers, phase_builds, d):
        # along the last axis f is 1 at 0, 10, 30 and 50, on leading rows 2 and 3: the
        # shifts ending in 10.25 have an empty screen (f(x) f(x + y) is nonzero at x = 0
        # and f(x + 2y) at 9, 10, 29 and 30), and those ending in 20.0 and 20.25 count
        # (10, 30, 50).  Eight workers share the phases; a short switch interval makes
        # them ask for the phases at the same time
        vals = np.zeros((56,) * d)
        vals[(slice(2, 4),) * (d - 1) + ([0, 10, 30, 50],)] = 1.0
        f = BoxFunction(values=vals, N=56.0, h=1.0)
        lasts = [10.25, 20.0, 10.25, 20.25] * 4
        rule = _rule([[0.5] * (d - 1) + [t] for t in lasts])
        sizes = pool_workers(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = n_lambda(f, rule, 1.0).value
        finally:
            sys.setswitchinterval(interval)
        assert len(sizes) == 1
        assert got > 0.0 and got == _serial_n(f, rule)
        assert len(phase_builds) == 1
        phase_builds.clear()
        assert n_lambda(f, _rule([[0.5] * (d - 1) + [10.25]] * 3), 1.0).value == 0.0
        assert phase_builds == []

    def test_forbidden_gap_memory_holds_no_phases(self, monkeypatch):
        # the forbidden gap on a 1024^2 shell, two workers: the traced peak stays below a
        # quarter of the 65 phases' bytes, so no phase table is built
        f = _shell_indicator(N=2.0, n=1024)
        lam = math.sqrt(0.75)
        rule = lpgeom.sphere_quadrature(2.0, 2, lam, n=64)
        monkeypatch.setattr(forms, "usable_cpus", lambda: 2)
        phase_bytes = 65 * (f.n + 2) * (-(-f.n // 64) + 1) * 8
        tracemalloc.start()
        try:
            got = n_lambda(f, rule, lam).value
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == 0.0
        assert peak < phase_bytes / 4

    @pytest.mark.parametrize("d,last", [(1, 63.3), (1, 31.7), (1, -32.3), (2, 63.3),
                                        (2, 31.7), (2, -32.3), (2, -0.3), (3, -32.3),
                                        (3, -0.3)])
    def test_each_corner_pair_alone_equals_serial(self, popcounts, d, last):
        # one box per pair of corners (c1, c2) of the shift y = (2.3, ..., last): f is 1
        # at x0, x0 + c1 and x0 + c2, so that pair alone counts (checked below), and a
        # screen that drops any one corner skips it.  The last-axis corners sit at
        # phases 63 and 64: c1 at 63.3, c2 (x + 2y) at 31.7, both at -32.3 and -0.3
        y = np.array([2.3] * (d - 1) + [last])
        c1 = forms._corners(*forms._cell_offset(y))
        c2 = forms._corners(*forms._cell_offset(2.0 * y))
        assert len(c1) == len(c2) == 2**d
        shifts = [np.array(off) - 1 for _, off in c1 + c2]
        x0 = 1 + np.maximum(0, -np.min(shifts, axis=0))
        n = int(np.max(x0 + np.maximum(0, np.max(shifts, axis=0)))) + 2
        rule = _rule([y])
        for i, (_, o1) in enumerate(c1):
            for j, (_, o2) in enumerate(c2):
                vals = np.zeros((n,) * d)
                for cell in (x0, x0 + np.array(o1) - 1, x0 + np.array(o2) - 1):
                    vals[tuple(cell)] = 1.0
                f = BoxFunction(values=vals, N=float(n), h=1.0)
                S = _corner_pair_counts(f, c1, c2)
                assert S[i, j] > 0 and np.count_nonzero(S) == 1
                popcounts.clear()
                got = n_lambda(f, rule, 1.0).value
                assert got > 0.0 and _on_words(popcounts)
                assert got == _serial_n(f, rule)

    def test_any_worker_count_is_bit_identical(self, pool_workers):
        f = _indicator_box(8.0, 96, 2, seed=3)
        rule = lpgeom.sphere_quadrature(1.5, 2, 1.0, n=8)
        values = []
        for workers in (1, 2, 3, 11):
            sizes = pool_workers(workers)
            values.append(n_lambda(f, rule, 1.0).value)
        assert len(sizes) == 4
        assert values[0] > 0.0 and values == [values[0]] * 4

    @pytest.mark.parametrize("workers", [1, 4])
    def test_node_count_error_reaches_caller(self, monkeypatch, pool_workers, workers):
        popcount = forms._popcount
        calls = []
        lock = threading.Lock()

        def failing(w, t):
            with lock:
                calls.append(None)
                if len(calls) == 7:
                    raise FloatingPointError("node count failed")
            return popcount(w, t)
        monkeypatch.setattr(forms, "_popcount", failing)
        pool_workers(workers)
        f = _indicator_box(4.0, 32, 2, seed=2)
        with pytest.raises(FloatingPointError, match="node count failed"):
            n_lambda(f, lpgeom.sphere_quadrature(1.5, 2, 1.0, n=8), 1.0)
        assert len(calls) >= 7
