"""The windowed counting forms against a literal zero-padded reference.

The references below embed f in a zero box wide enough for every shift and
sum over all n^d cells, and the lattice references visit every gap j and -j.
Cells outside the forms' overlap window add exact zeros and S(-j) = S(j), so
the two differ only in summation order; on 0/1 indicators not even that.
The gap sums of 0/1 boxes, which are counted on a bool view, are compared
with == against _float_gap_sums, a copy of the float loop they replace.
The sharp form sums corner-pair triple sums on every box; _float_n, a copy
of the float interpolation loop it replaced, is its reference within REL.
"""

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import forms, lpgeom
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
        b1, fr1 = forms._cell_offset(node, f.h)
        b2, fr2 = forms._cell_offset(2.0 * node, f.h)
        blocks = forms._overlap_blocks(f.n, b1, b2, block)
        if blocks is None:
            continue
        c1, c2 = forms._corners(b1, fr1), forms._corners(b2, fr2)
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
        b1, fr1 = forms._cell_offset(node, f.h)
        b2, fr2 = forms._cell_offset(2.0 * node, f.h)
        blocks = forms._overlap_blocks(f.n, b1, b2, 1 << 16)
        if blocks is None:
            continue
        c1, c2 = forms._corners(b1, fr1), forms._corners(b2, fr2)
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


def _window_cells(n, J):
    """Cells of each gap's window, prod max(0, n - 2|j_i|): S(j) of the full box."""
    return np.prod(np.clip(n - 2 * np.abs(J), 0, None), axis=1).astype(float)


def _live_windows(f, J):
    return int(np.sum(_window_cells(f.n, J) > 0.0))


# n = 7: the gap 3 leaves a one-cell window on its axis, and the gaps 4 and -5 none
_EDGE_GAPS = {1: [[0], [1], [3], [-3], [4], [-5]],
              2: [[0, 0], [3, 3], [3, -3], [-3, 0], [4, 0], [1, -5], [2, 1]]}


class TestCountedGapSums:
    """0/1 boxes are counted on their bool view; the counts equal the float loop with ==."""

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("d,N,n,lam,eps", [
        (1, 32.0, 768, 2.0, 0.25),
        (2, 8.0, 96, 2.0, 0.5),
    ])
    def test_random_indicator_equals_float_loop(self, counts, d, N, n, lam, eps, structured):
        f = random_indicator(N, N / n, d, 0.3, seed=n, structured=structured)
        J, _ = _kernel_lattice(P, d, lam, eps, f.h)
        counts.clear()
        got = _gap_sums(f, J)
        assert np.array_equal(got, _float_gap_sums(f, J))
        assert got[0] == np.sum(f.values)
        assert counts == [np.dtype(bool)] * _live_windows(f, J)

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1, 2])
    def test_constant_box_equals_float_loop(self, counts, d, fill):
        f = BoxFunction(values=np.full((40,) * d, fill), N=10.0, h=0.25)
        J, _ = _kernel_lattice(P, d, 2.0, 0.5, f.h)
        got = _gap_sums(f, J)
        assert np.array_equal(got, _float_gap_sums(f, J))
        assert np.array_equal(got, fill * _window_cells(f.n, J))
        assert counts == [np.dtype(bool)] * _live_windows(f, J)

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


def _near_indicator(N, n, d, seed):
    """A random indicator with one cell raised to 1 + 1e-13, which BoxFunction admits."""
    vals = random_indicator(N, N / n, d, 0.5, seed=seed).values
    vals.flat[np.argmax(vals)] = 1.0 + 1e-13
    return BoxFunction(values=vals, N=N, h=N / n)


def _halves_box(N, n, d, seed):
    vals = np.random.default_rng(seed).choice([0.0, 0.5, 1.0], size=(n,) * d)
    return BoxFunction(values=vals, N=N, h=N / n)


class TestFloatGapSums:
    """Boxes with any value other than 0.0 and 1.0 take float products."""

    @pytest.mark.parametrize("build", [_halves_box, _signed_box, _near_indicator])
    @pytest.mark.parametrize("d,N,n,lam,eps", [
        (1, 8.0, 96, 2.0, 0.5),
        (2, 8.0, 96, 2.0, 0.5),
    ])
    def test_matches_padded_reference(self, moll, counts, build, d, N, n, lam, eps):
        f = build(N, n, d, seed=n + d)
        counts.clear()
        got_m = m_eps_lambda(f, lam, eps, moll, P).value
        got_e = e_lambda(f, lam, eps, moll, P).value
        assert counts == []
        assert got_m == pytest.approx(_padded_m_eps(f, lam, eps, moll), rel=REL)
        assert got_e == pytest.approx(_padded_e(f, lam, eps, moll), rel=REL)

    @pytest.mark.parametrize("d", [1, 2])
    def test_near_one_is_never_counted_as_one(self, counts, d):
        f = _near_indicator(8.0, 32, d, seed=d)
        J, _ = _kernel_lattice(P, d, 2.0, 0.5, f.h)
        counts.clear()
        got = _gap_sums(f, J)
        assert counts == []
        assert np.array_equal(got, _float_gap_sums(f, J))
        # S(0) = sum f^3 picks up (1 + 1e-13)^3, a few ulp above the count
        rounded = BoxFunction(values=np.round(f.values), N=f.N, h=f.h)
        assert got[0] > _gap_sums(rounded, J)[0]


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
        monkeypatch.setattr(forms, "_usable_cpus", lambda: cpus)
        sizes = pool_workers(want)
        f = _signed_box(4.0, 16, 2, seed=1)
        n_lambda(f, lpgeom.sphere_quadrature(1.5, 2, 1.0, n=nodes), 1.0)
        assert sizes == [want]

    def test_usable_cpus_fallback(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert forms._usable_cpus() == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert forms._usable_cpus() == 1

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


def _indicator_box(N, n, d, seed, structured=False):
    return random_indicator(N, N / n, d, 0.4, seed=seed, structured=structured)


class TestCountedSharpForm:
    """0/1 boxes take counted node sums; they match the deleted float loop within REL."""

    @pytest.mark.parametrize("structured", [False, True])
    @pytest.mark.parametrize("d,n,N,p,nodes", [
        (1, 256, 16.0, 1.5, 16),
        (2, 48, 6.0, 2.0, 16),
        (2, 96, 8.0, 3.0, 8),
        (3, 20, 5.0, 1.5, 8),
    ])
    def test_indicator_matches_float_loop(self, counts, d, n, N, p, nodes, structured):
        f = _indicator_box(N, n, d, seed=n + d, structured=structured)
        rule = lpgeom.sphere_quadrature(p, d, 1.0, n=nodes)
        counts.clear()
        got = n_lambda(f, rule, 1.0).value
        assert counts and set(counts) == {np.dtype(bool)}
        assert got == _serial_n(f, rule)
        ref = _float_n(f, rule)
        assert ref > 0.0
        assert got == pytest.approx(ref, rel=REL)

    @pytest.mark.parametrize("fill", [0.0, 1.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_constant_box_matches_float_loop(self, counts, d, fill):
        f = BoxFunction(values=np.full((16,) * d, fill), N=4.0, h=0.25)
        rule = lpgeom.sphere_quadrature(1.5, d, 1.0, n=8)
        got = n_lambda(f, rule, 1.0).value
        assert counts and set(counts) == {np.dtype(bool)}
        if fill == 0.0:
            assert got == 0.0 == _float_n(f, rule)
        else:
            assert got == pytest.approx(_float_n(f, rule), rel=REL)
            assert got == pytest.approx(_padded_n(f, rule), rel=REL)

    @pytest.mark.parametrize("d,n,N", [(1, 4000, 16.0), (2, 96, 8.0), (3, 24, 6.0)])
    def test_blocks_split_the_window_bit_for_bit(self, monkeypatch, d, n, N):
        # the counts are exact integers, so the block size cannot move a bit;
        # float block sums of a signed box round differently, so it compares at REL
        f, signed = _indicator_box(N, n, d, seed=d), _signed_box(N, n, d, seed=d)
        rule = lpgeom.sphere_quadrature(1.5, d, 1.0, n=8)
        whole, whole_signed = n_lambda(f, rule, 1.0).value, n_lambda(signed, rule, 1.0).value
        monkeypatch.setattr(forms, "_BLOCK_BYTES", 56)  # 56 bool or 7 float64 cells
        assert n_lambda(f, rule, 1.0).value == whole
        assert whole == pytest.approx(_float_n(f, rule), rel=REL)
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
    def test_other_boxes_take_the_float_loop(self, counts, build, d):
        f = build(4.0, 16, d, seed=d)
        rule = lpgeom.sphere_quadrature(1.5, d, 1.0, n=8)
        counts.clear()
        got = n_lambda(f, rule, 1.0).value
        assert counts == []
        assert got == _serial_n(f, rule)
        assert got == pytest.approx(_float_n(f, rule), rel=REL)

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
        count = np.count_nonzero
        calls = []
        lock = threading.Lock()

        def failing(*args, **kwargs):
            with lock:
                calls.append(None)
                if len(calls) == 7:
                    raise FloatingPointError("node count failed")
            return count(*args, **kwargs)
        monkeypatch.setattr(np, "count_nonzero", failing)
        pool_workers(workers)
        f = _indicator_box(4.0, 32, 2, seed=2)
        with pytest.raises(FloatingPointError, match="node count failed"):
            n_lambda(f, lpgeom.sphere_quadrature(1.5, 2, 1.0, n=8), 1.0)
        assert len(calls) >= 7
