"""The windowed counting forms against a literal zero-padded reference.

The references below embed f in a zero box wide enough for every shift and
sum over all n^d cells.  Cells outside the forms' overlap window add exact
zeros, so the two differ only in summation order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lproth import lpgeom
from lproth.forms import BoxFunction, _kernel_lattice, e_lambda, m_eps_lambda, n_lambda
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


def _padded_m_eps(f, lam, eps, m):
    J, Y = _kernel_lattice(P, f.d, lam, eps, f.h)
    return _padded_triple_sum(f, J, omega_eps_eval(Y, KernelParams(P, f.d, lam, eps), m))


def _padded_e(f, lam, eps, m):
    kern = CancelledKernel(KernelParams(P, f.d, lam, eps), c1_eps(eps, P, f.d, m), m)
    J, Y = _kernel_lattice(P, f.d, lam, 1.0, f.h)
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


def _signed_box(N, n, d, seed):
    vals = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(n,) * d)
    return BoxFunction(values=vals, N=N, h=N / n)


def _rule(nodes, lam=1.0):
    nodes = np.asarray(nodes, dtype=float)
    weights = np.full(len(nodes), 1.0 / len(nodes))
    return SphereQuadrature(nodes=nodes, weights=weights, lam=lam, p=2.0,
                            d=nodes.shape[1], mode=lpgeom.MODE_GRAPH)


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
