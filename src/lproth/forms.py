"""Trilinear progression-counting forms on gridded box functions.

All forms share one Riemann discretization: f lives at cell centers of a
step-h grid over [0, N]^d and is zero outside; gap variables run over
lattice multiples of the same step so that x, x+y, x+2y are grid-aligned
and no interpolation enters the mollified forms.  The sharp-gap form
samples the lp-sphere quadrature nodes instead and evaluates f by
multilinear interpolation, which preserves the [-1, 1] range.

Every form sums, gap by gap, only over the overlap window: the cells x for
which f(x), f(x+y) and f(x+2y) can all be nonzero.  Zero extension stays
exact, because each skipped cell would add an exact zero; only the order
of summation differs from a sum over the whole grid.

The mollified form with width 1 *is* the base form (same code path), and
the cancelled form is accumulated in a single pass with the fused kernel
so the decomposition identity survives floating cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lpgeom import SphereQuadrature, _as_p
from .mollifier import (CancelledKernel, KernelParams, MollifierPair, _quadrant_integral,
                        _radial_rule, _shell_edges, c1_eps, omega_eps_eval)
from .util import spawn_rng


@dataclass
class BoxFunction:
    """Real values in [-1, 1] at the cell centers of a step-h grid over [0, N]^d."""

    values: np.ndarray
    N: float
    h: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        n = int(round(self.N / self.h))
        if abs(n * self.h - self.N) > 1e-9 * self.N:
            raise ValueError("box size must be an integer number of cells")
        if self.values.shape != (n,) * self.values.ndim:
            raise ValueError(f"value grid must be cubical with side {n}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("values must be finite")
        if np.max(np.abs(self.values)) > 1.0 + 1e-12:
            raise ValueError("values must lie in [-1, 1]")

    @property
    def d(self) -> int:
        return self.values.ndim

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def mean(self) -> float:
        return float(np.mean(self.values))


def full_box(N: float, h: float, d: int) -> BoxFunction:
    n = int(round(N / h))
    return BoxFunction(values=np.ones((n,) * d), N=N, h=h)


def random_indicator(N: float, h: float, d: int, density: float, seed: int,
                     structured: bool = False) -> BoxFunction:
    """Indicator of a random cell set with grid mean >= density.

    Plain draws pick ceil(density n^d) cells uniformly; structured draws
    lay axis stripes of the requested density (an adversarial ensemble).
    """
    n = int(round(N / h))
    total = n**d
    want = int(np.ceil(density * total))
    vals = np.zeros(total)
    if structured:
        period = max(2, int(round(1.0 / density)))
        rng = spawn_rng(seed, 3)
        offset = int(rng.integers(period))
        axis = np.zeros(n)
        axis[(np.arange(n) + offset) % period == 0] = 1.0
        grid = axis
        for _ in range(d - 1):
            grid = np.multiply.outer(np.ones(n), grid)
        vals = grid.ravel()
        short = want - int(vals.sum())
        if short > 0:
            empty = np.flatnonzero(vals == 0.0)
            extra = rng.choice(empty, size=short, replace=False)
            vals[extra] = 1.0
    else:
        rng = spawn_rng(seed, 2)
        pick = rng.choice(total, size=want, replace=False)
        vals[pick] = 1.0
    return BoxFunction(values=vals.reshape((n,) * d), N=N, h=h)


@dataclass
class FormValue:
    kind: str
    lam: float
    eps: Optional[float]
    value: float
    quadrature_error: float


def _check_scale(f: BoxFunction, lam: float, eps: float, p: float) -> None:
    if lam > f.N / 4.0 + 1e-12:
        raise ValueError(f"gap scale {lam} too large for box {f.N} (needs lam <= N/4)")
    if f.h > eps * lam / (8.0 * p) + 1e-12:
        raise ValueError(
            f"grid step {f.h} under-resolves the width-{eps} shell at scale {lam}; "
            f"needs h <= {eps * lam / (8.0 * p):.4g}")


def resolved_grid(N: float, lam: float, eps: float, p: float) -> tuple[int, float]:
    """(n, h): the fewest equal cells filling [0, N] that resolve the width-eps shell at lam."""
    n = int(np.ceil(N / (eps * lam / (8.0 * p))))
    return n, N / n


def _kernel_lattice(p: float, d: int, lam: float, eps: float, h: float):
    """Lattice gap vectors inside the kernel support and their flat multi-indices."""
    R = lam * (1.0 + 2.0 * eps) ** (1.0 / p)
    jmax = int(np.floor(R / h)) + 1
    ax = np.arange(-jmax, jmax + 1)
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    J = np.stack([g.ravel() for g in grids], axis=-1)
    return J, J * h


def _triple_sum(f: BoxFunction, J: np.ndarray, kvals: np.ndarray) -> float:
    """sum over lattice gaps j of k(y_j) * sum_x f(x) f(x+j) f(x+2j), zero extension.

    Per axis x runs over [max(0, -2j), min(n, n - 2j)), the cells where x, x+j
    and x+2j all lie in the box; every cell outside adds an exact zero.
    """
    n = f.n
    v = f.values
    lo = np.maximum(0, -2 * J)
    hi = np.minimum(n, n - 2 * J)
    keep = (kvals != 0.0) & np.all(hi > lo, axis=1)
    buf = np.empty(v.size)
    parts = []
    for row, a, b, kv in zip(J[keep].tolist(), lo[keep].tolist(), hi[keep].tolist(),
                             kvals[keep]):
        s0 = tuple(slice(x0, x1) for x0, x1 in zip(a, b))
        s1 = tuple(slice(x0 + c, x1 + c) for x0, x1, c in zip(a, b, row))
        s2 = tuple(slice(x0 + 2 * c, x1 + 2 * c) for x0, x1, c in zip(a, b, row))
        shape = tuple(x1 - x0 for x0, x1 in zip(a, b))
        prod = buf[:math.prod(shape)].reshape(shape)
        np.multiply(v[s0], v[s1], out=prod)
        prod *= v[s2]
        parts.append(kv * float(np.sum(prod)))
    return math.fsum(parts)


def _grid_form(kind: str, f: BoxFunction, lam: float, eps: float, p, support_eps: float,
               kernel: Callable[[KernelParams, np.ndarray], np.ndarray]) -> FormValue:
    """Lattice triple sum of f against kernel(params, y) over the width-support_eps support."""
    pv = _as_p(p)
    if f.d not in (1, 2):
        raise ValueError("grid forms support d in {1, 2}")
    params = KernelParams(pv, f.d, lam, eps)  # rejects a non-finite radius up front
    _check_scale(f, lam, eps, pv)
    J, Y = _kernel_lattice(pv, f.d, lam, support_eps, f.h)
    kvals = kernel(params, Y)
    val = f.h ** (2 * f.d) * _triple_sum(f, J, kvals)
    rel = min(1.0, (f.h * pv / (eps * lam * 4.0)) ** 2)  # crude second-order heuristic
    return FormValue(kind=kind, lam=lam, eps=eps, value=val,
                     quadrature_error=abs(val) * rel + 1e-14)


def m_eps_lambda(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p) -> FormValue:
    """Mollified counting form with shell kernel of width eps at scale lam."""
    return _grid_form("M_eps_lambda" if eps != 1.0 else "M_lambda", f, lam, eps, p, eps,
                      lambda params, Y: omega_eps_eval(Y, params, m))


def m_lambda(f: BoxFunction, lam: float, m: MollifierPair, p) -> FormValue:
    """Base mollified form: exactly the eps = 1 code path."""
    return m_eps_lambda(f, lam, 1.0, m, p)


def e_lambda(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p,
             c1: Optional[float] = None) -> FormValue:
    """Cancelled form, accumulated in one pass with the fused kernel."""
    def kernel(params: KernelParams, Y: np.ndarray) -> np.ndarray:
        c = c1 if c1 is not None else c1_eps(eps, params.p, f.d, m)
        return CancelledKernel(params, c, m)(Y)

    # union support of the two kernels (eps <= 1)
    return _grid_form("E_lambda", f, lam, eps, p, 1.0, kernel)


# Cells per block of the sharp form's window: the four block-sized operands
# (f, the two interpolated copies and a work buffer, 512 KiB each) then
# stay in a 2 MiB cache instead of streaming the whole grid per corner.
_BLOCK_CELLS = 1 << 16


def _cell_offset(y: np.ndarray, h: float):
    """Whole-cell part (as ints) and fractional part of the shift y, per axis."""
    t = y / h
    base = np.floor(t)
    return base.astype(int), t - base


def _interp_shifted(rim: np.ndarray, base: np.ndarray, frac: np.ndarray, window: tuple,
                    out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """f(x + y) on the window of cell centers x, multilinear, zero outside the box.

    rim is f with a one-cell zero rim on every side; the corners of x + y sit
    at x + base + {0, 1}.  The result is accumulated in out, using tmp.
    """
    first = True
    for corner in range(1 << len(base)):
        w = 1.0
        sl = []
        for axis, ax_win in enumerate(window):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            off = 1 + int(base[axis]) + bit
            sl.append(slice(ax_win.start + off, ax_win.stop + off))
        if w == 0.0:
            continue
        if first:
            np.multiply(rim[tuple(sl)], w, out=out)
            first = False
        else:
            np.multiply(rim[tuple(sl)], w, out=tmp)
            out += tmp
    return out


def n_lambda(f: BoxFunction, quad: SphereQuadrature, lam: float) -> FormValue:
    """Sharp-gap counting form: x on the grid, gaps on sphere-quadrature nodes.

    A strictly positive value certifies, up to interpolation tolerance, a
    3-progression in supp f whose gap length is lam in the lp metric.
    """
    if abs(quad.lam - lam) > 1e-9 * max(1.0, lam):
        raise ValueError("quadrature radius does not match the requested gap scale")
    if f.d != quad.d:
        raise ValueError("dimension mismatch between grid and quadrature")
    if f.d > 3:
        raise ValueError("sharp form supports d <= 3")
    n, d = f.n, f.d
    rim = np.pad(f.values, 1)
    row_cells = n ** (d - 1)
    buf1, buf2, tmp = (np.empty(max(_BLOCK_CELLS, row_cells)) for _ in range(3))
    parts = []
    for node, w in zip(quad.nodes, quad.weights):
        b1, fr1 = _cell_offset(node, f.h)
        b2, fr2 = _cell_offset(2.0 * node, f.h)
        # x, x + y and x + 2y can all meet the box only here; cells outside add exact zeros
        lo = np.maximum(0, np.maximum(-b1, -b2) - 1).tolist()
        hi = np.minimum(n, np.minimum(n - b1, n - b2)).tolist()
        if any(b <= a for a, b in zip(lo, hi)):
            continue
        inner = tuple(slice(a, b) for a, b in zip(lo[1:], hi[1:]))
        inner_cells = math.prod(b - a for a, b in zip(lo[1:], hi[1:]))
        rows = max(1, _BLOCK_CELLS // inner_cells)
        sums = []
        for r0 in range(lo[0], hi[0], rows):
            window = (slice(r0, min(r0 + rows, hi[0])),) + inner
            shape = tuple(sl.stop - sl.start for sl in window)
            size = math.prod(shape)
            t = tmp[:size].reshape(shape)
            prod = _interp_shifted(rim, b1, fr1, window, buf1[:size].reshape(shape), t)
            f2 = _interp_shifted(rim, b2, fr2, window, buf2[:size].reshape(shape), t)
            np.multiply(f.values[window], prod, out=prod)
            prod *= f2
            sums.append(float(np.sum(prod)))
        parts.append(w * math.fsum(sums))
    val = f.h**d * math.fsum(parts)
    err = abs(val) * min(1.0, f.h * d / lam) + 1e-14
    return FormValue(kind="N_lambda", lam=lam, eps=None, value=val, quadrature_error=err)


def full_box_sharp_oracle(quad: SphereQuadrature, N: float) -> float:
    """Boundary-corrected continuum value of the sharp form on the full box.

    For f = 1 on [0, N]^d the x-section at gap y is a rectangle of measure
    prod max(0, N - 2|y_i|), so the form integrates node by node.
    """
    spans = np.clip(N - 2.0 * np.abs(quad.nodes), 0.0, None)
    return float(np.sum(quad.weights * np.prod(spans, axis=1)))


def full_box_mollified_oracle(lam: float, eps: float, m: MollifierPair, p, d: int,
                              N: float) -> float:
    """Boundary-corrected continuum value of the mollified form on the full box.

    The x integration is exact for f = 1 (a product of clipped spans), so
    only the gap integral over the kernel support remains: the radial rule
    (the span's kink at N/2 is one more edge) in one dimension, the
    positive-quadrant rule in two.
    """
    pv = _as_p(p)
    params = KernelParams(pv, d, lam, eps)
    R = params.support_radius
    spans = lambda y: np.clip(N - 2.0 * y, 0.0, None)
    kern = lambda y: omega_eps_eval(y, params, m)
    if d == 1:
        r, w = _radial_rule(np.union1d(_shell_edges(pv, eps, lam), np.clip(0.5 * N, 0.0, R)))
        return float(np.sum(w * kern(r[:, None]) * 2.0 * spans(r)))
    if d != 2:
        raise ValueError("closed oracle supports d in {1, 2}")
    width = 2.0 * eps * lam / pv
    return _quadrant_integral(kern, lambda Y1, Y2: spans(Y1) * spans(Y2), R, 24.0 * R / width)


def decomposition_residual(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p) -> float:
    """M_eps - c1 M - E, which is zero by construction up to float association."""
    pv = _as_p(p)
    c1 = c1_eps(eps, pv, f.d, m)
    a = m_eps_lambda(f, lam, eps, m, pv).value
    b = m_lambda(f, lam, m, pv).value
    e = e_lambda(f, lam, eps, m, pv, c1=c1).value
    return a - c1 * b - e


@dataclass
class EnergyReport:
    energies: list
    total: float
    ratio: float


def energy_sum(f: BoxFunction, lambdas: Sequence[float], eps: float, m: MollifierPair, p) -> EnergyReport:
    """Squared cancelled-form energies along a lacunary scale sequence.

    The certificate ratio divides the total by N^d ||f||_4^4; stability of
    that ratio as the sequence grows is the J-independence being probed.
    """
    lams = [float(v) for v in lambdas]
    for a, b in zip(lams, lams[1:]):
        if b < 2.0 * a:
            raise ValueError("scale sequence must at least double at each step")
    pv = _as_p(p)
    c1 = c1_eps(eps, pv, f.d, m)
    energies = [abs(e_lambda(f, lam, eps, m, pv, c1=c1).value) ** 2 for lam in lams]
    total = math.fsum(energies)
    f4 = f.h**f.d * float(np.sum(f.values**4))
    denom = f.N**f.d * f4
    return EnergyReport(energies=energies, total=total, ratio=total / denom if denom > 0 else np.inf)


@dataclass
class PigeonholeReport:
    qualifying: int
    L: int
    threshold_ok: bool
    delta: float


def box_partition_pigeonhole(f: BoxFunction, ell: float) -> PigeonholeReport:
    """Partition into side-ell boxes; count those holding at least half the mean density.

    For indicator grids the comparison 2 L S_i >= S_total runs in exact
    integers, so the claimed lower bound I >= delta L / 2 is checked with
    no floating tolerance at all.
    """
    if f.values.min() < 0.0:
        raise ValueError("pigeonhole requires nonnegative values")
    mcells = ell / f.h
    if abs(mcells - round(mcells)) > 1e-9:
        raise ValueError("box side must be a whole number of cells")
    mcells = int(round(mcells))
    if f.n % mcells != 0:
        raise ValueError("box side must divide the grid")
    per_side = f.n // mcells
    L = per_side**f.d
    vals = f.values
    integral_exact = np.array_equal(vals, vals.astype(np.int64).astype(float))
    if integral_exact:
        v = vals.astype(np.int64)
    else:
        v = vals
    if f.d == 1:
        sums = v.reshape(per_side, mcells).sum(axis=1)
    else:
        sums = v.reshape(per_side, mcells, per_side, mcells).sum(axis=(1, 3))
    total = sums.sum()
    qualifying = int(np.count_nonzero(2 * L * sums >= total))
    # claimed bound: qualifying >= delta L / 2 with delta the grid mean
    md = mcells**f.d
    ok = bool(2 * qualifying * md >= total)
    return PigeonholeReport(qualifying=qualifying, L=int(L), threshold_ok=ok,
                            delta=float(total) / (L * md))


@dataclass
class MainTermReport:
    min_normalized: float


def roth_main_term_experiment(delta: float, d: int, N: float, lam: float, trials: int,
                              m: MollifierPair, p, h: Optional[float] = None,
                              seed: int = 0) -> MainTermReport:
    """Minimum normalized mollified count over random density-delta sets.

    Ensembles alternate i.i.d. cell draws with structured stripes; the
    observed minimum of M_lam / N^d is the empirical density constant.
    """
    pv = _as_p(p)
    if lam > N / 8.0:
        raise ValueError("scale must satisfy lam <= N/8 for the boundary-sensitive run")
    if h is None:
        _, h = resolved_grid(N, lam, 1.0, pv)
    outs = []
    for trial in range(trials):
        f = random_indicator(N, h, d, delta, seed=seed * 1000 + trial,
                             structured=(trial % 2 == 1))
        outs.append(m_lambda(f, lam, m, pv).value / N**d)
    return MainTermReport(min_normalized=min(outs))


def translate_box(f: BoxFunction, cells: int) -> BoxFunction:
    """Embed f in a larger zero box, shifted by whole cells (for invariance checks)."""
    n = f.n
    big = 2 * n + 2 * abs(cells)
    vals = np.zeros((big,) * f.d)
    sl = tuple(slice(abs(cells) + cells, abs(cells) + cells + n) for _ in range(f.d))
    base = tuple(slice(abs(cells), abs(cells) + n) for _ in range(f.d))
    vals[sl if cells else base] = f.values
    return BoxFunction(values=vals, N=big * f.h, h=f.h)
