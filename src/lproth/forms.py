"""Trilinear progression-counting forms on gridded box functions.

All forms share one Riemann discretization: f lives at cell centers of a
step-h grid over [0, N]^d and is zero outside; gap variables run over
lattice multiples of the same step so that x, x+y, x+2y are grid-aligned
and no interpolation enters the mollified forms.  The sharp-gap form
samples the lp-sphere quadrature nodes instead and evaluates f by
multilinear interpolation, which preserves the [-1, 1] range.
Its node sums run on a thread pool, one thread per usable CPU, and are
combined in node order; each node sum takes the same operations in the
same order on any thread, so the value does not depend on the core count.

Every form sums, gap by gap, only over the overlap window: the cells x for
which f(x), f(x+y) and f(x+2y) can all be nonzero.  Zero extension stays
exact, because each skipped cell would add an exact zero; only the order
of summation differs from a sum over the whole grid.

The mollified form with width 1 *is* the base form (same code path), and
the cancelled form is accumulated in a single pass with the fused kernel
so the decomposition identity survives floating cancellation.

The lattice forms visit half of the gap lattice: j = 0, and the gaps whose
first nonzero coordinate is positive with weight 2.  The inner sum
S(j) = sum_x f(x) f(x+j) f(x+2j) equals S(-j) after the substitution
x -> x + 2j, and both kernels depend on y only through |y_i|, so
k(-j) = k(j) bit for bit.  On 0/1 indicators every product is an exact
integer and doubling is exact, so the correctly rounded fsum is the same as
over the full lattice, bit for bit; on real values the two differ only by
the rounding of the reordered products.  The three forms of
M_eps = c1 M + E share one set of S(j) on the width-1 (union) support.

The forms are evaluated at f = 1_A, so their boxes are 0/1 indicators.
One helper, _product_view, picks how every form multiplies and sums a box:
a box whose values are all exactly 0.0 or 1.0 is counted on its bool view,
where each product is a logical and and each sum the number of cells it
keeps, the same integer, bit for bit, that float products give; a box with
any other value (BoxFunction admits reals in [-1, 1]) takes float64
products.  The sharp form has one node loop for both: interpolation is
linear in f, so each node sum is a sum over pairs of interpolation corners
of the corner weights times a triple sum of f on the grid.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .lpgeom import SphereQuadrature, valid_exponent
from .mollifier import (CancelledKernel, KernelParams, MollifierPair, _quadrant_integral,
                        _radial_rule, _shell_edges, c1_eps, omega_eps_eval)
from .util import spawn_rng, valid_count, valid_finite, valid_lacunary, valid_scale


@dataclass
class BoxFunction:
    """Real values in [-1, 1] at the cell centers of a step-h grid over [0, N]^d."""

    values: np.ndarray
    N: float
    h: float

    def __post_init__(self):
        n = _cell_count(self.N, self.h)
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim == 0:
            raise ValueError("values must have at least one axis, got a scalar")
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


def _cell_count(N: float, h: float, whole=round) -> int:
    """The number whole(N / h) of step-h cells across [0, N], for finite positive N and h."""
    N, h = valid_scale("N", N), valid_scale("h", h)
    if not math.isfinite(N / h):
        raise ValueError(f"N / h overflows: N = {N}, h = {h}")
    return int(whole(N / h))


def full_box(N: float, h: float, d: int) -> BoxFunction:
    n = _cell_count(N, h)
    return BoxFunction(values=np.ones((n,) * valid_count("d", d)), N=N, h=h)


def random_indicator(N: float, h: float, d: int, density: float, seed: int,
                     structured: bool = False) -> BoxFunction:
    """Indicator of a random cell set with grid mean >= density.

    Plain draws pick ceil(density n^d) cells uniformly; structured draws
    lay axis stripes of the requested density (an adversarial ensemble).
    """
    n = _cell_count(N, h)
    d = valid_count("d", d)
    if not (math.isfinite(density) and 0.0 < density <= 1.0):
        raise ValueError(f"density must be finite and in (0, 1], got {density}")
    if structured and 1.0 / density >= 2.0**63:  # the stripe period must fit in int64
        raise ValueError(f"density must be above 2**-63 for a structured draw, got {density}")
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


def _max_step(lam: float, eps: float, p: float) -> float:
    """Largest grid step that resolves the width-eps shell at scale lam."""
    return eps * lam / (8.0 * p)


def _check_scale(f: BoxFunction, lam: float, eps: float, p: float) -> None:
    if lam > f.N / 4.0 + 1e-12:
        raise ValueError(f"gap scale {lam} too large for box {f.N} (needs lam <= N/4)")
    if f.h > _max_step(lam, eps, p) + 1e-12:
        raise ValueError(
            f"grid step {f.h} under-resolves the width-{eps} shell at scale {lam}; "
            f"needs h <= {_max_step(lam, eps, p):.4g}")


def resolved_grid(N: float, lam: float, eps: float, p) -> tuple[int, float]:
    """(n, h): the fewest equal cells filling [0, N] that resolve the width-eps shell at lam."""
    n = _cell_count(N, _max_step(lam, eps, valid_exponent(p)), math.ceil)
    return n, N / n


def _kernel_lattice(p: float, d: int, lam: float, eps: float, h: float):
    """Half of the lattice gaps inside the kernel support, and the weight of each.

    j = 0 has weight 1; every other kept gap has its first nonzero coordinate
    positive and weight 2, since it stands for both j and -j.
    """
    R = KernelParams(p, d, lam, eps).support_radius
    jmax = int(np.floor(R / h)) + 1
    ax = np.arange(-jmax, jmax + 1)
    grids = np.meshgrid(*([ax] * d), indexing="ij")
    J = np.stack([g.ravel() for g in grids], axis=-1)
    lead = J[np.arange(len(J)), np.argmax(J != 0, axis=1)]  # 0 only at j = 0
    half = lead >= 0
    return J[half], np.where(lead[half] > 0, 2.0, 1.0)


def _product_view(v: np.ndarray):
    """(view, total) for the products of the box values v: the bool view and
    np.count_nonzero if every value is exactly 0.0 or 1.0, else v and np.sum.

    On bools np.multiply is a logical and; a value such as 1 + 1e-13 is not 1.
    """
    if np.all((v == 0.0) | (v == 1.0)):
        return v != 0.0, np.count_nonzero
    return v, np.sum


def _gap_sums(f: BoxFunction, J: np.ndarray) -> np.ndarray:
    """S(j) = sum_x f(x) f(x+j) f(x+2j) for each row j of J, with f zero outside the box.

    Per axis x runs over [max(0, -2j), min(n, n - 2j)), the cells where x, x+j
    and x+2j all lie in the box; every cell outside adds an exact zero.

    S(-j) = S(j): substituting x -> x + 2j maps the terms of S(-j) onto those
    of S(j), with the window in the same order and only the three factors of
    each product multiplied in the opposite order.  For 0/1 indicators every
    product and every partial sum is an exact integer, so the two agree bit
    for bit; for real values they differ by rounding in that order.

    The products run on the view of f from _product_view.  A 0/1 box gives
    the S(j) of float products bit for bit: each partial sum is an integer
    of at most n^d < 2^53.
    """
    n = f.n
    v, total = _product_view(f.values)
    lo = np.maximum(0, -2 * J)
    hi = np.minimum(n, n - 2 * J)
    S = np.zeros(len(J))
    buf = np.empty(v.size, dtype=v.dtype)
    for i in np.flatnonzero(np.all(hi > lo, axis=1)).tolist():
        a, b, row = lo[i].tolist(), hi[i].tolist(), J[i].tolist()
        s0 = tuple(slice(x0, x1) for x0, x1 in zip(a, b))
        s1 = tuple(slice(x0 + c, x1 + c) for x0, x1, c in zip(a, b, row))
        s2 = tuple(slice(x0 + 2 * c, x1 + 2 * c) for x0, x1, c in zip(a, b, row))
        shape = tuple(x1 - x0 for x0, x1 in zip(a, b))
        prod = buf[:math.prod(shape)].reshape(shape)
        np.multiply(v[s0], v[s1], out=prod)
        prod *= v[s2]
        S[i] = total(prod)
    return S


def _grid_params(f: BoxFunction, lam: float, eps: float, p) -> KernelParams:
    """Width-eps kernel parameters at lam, once f's dimension and grid step are checked."""
    if f.d not in (1, 2):
        raise ValueError("grid forms support d in {1, 2}")
    params = KernelParams(p, f.d, lam, eps)  # rejects a bad exponent or radius up front
    _check_scale(f, lam, eps, params.p)
    return params


def _grid_forms(f: BoxFunction, params: KernelParams, support_eps: float,
                specs: Sequence[tuple[str, float, Callable[[np.ndarray], np.ndarray]]]
                ) -> list[FormValue]:
    """h^(2d) sum_j k(y_j) S(j) for each (kind, eps, kernel k) of specs, from one set of S(j).

    The gaps run over the half lattice of the width-support_eps support.  Each
    kernel depends on y only through |y_i|, so k(-j) = k(j) bit for bit and
    the weight 2 counts both.  S(j) is computed once, for the gaps where some
    kernel is nonzero.  For 0/1 indicators each weighted term 2 k S(j) is
    exactly the sum of the two terms of j and -j, so the correctly rounded
    fsum equals the full-lattice sum bit for bit.
    """
    h, d = f.h, f.d
    J, weight = _kernel_lattice(params.p, d, params.lam, support_eps, h)
    K = np.stack([kernel(J * h) for _, _, kernel in specs]) * weight
    live = np.any(K != 0.0, axis=0)
    S = _gap_sums(f, J[live])
    out = []
    for (kind, eps, _), kw in zip(specs, K[:, live]):
        val = h ** (2 * d) * math.fsum(kw * S)
        # crude second-order heuristic
        rel = min(1.0, (h * params.p / (eps * params.lam * 4.0)) ** 2)
        out.append(FormValue(kind=kind, lam=params.lam, eps=eps, value=val,
                             quadrature_error=abs(val) * rel + 1e-14))
    return out


def _shell_form(params: KernelParams, m: MollifierPair):
    """(kind, eps, kernel) of the mollified form with the shell kernel of params."""
    kind = "M_eps_lambda" if params.eps != 1.0 else "M_lambda"
    return kind, params.eps, lambda Y: omega_eps_eval(Y, params, m)


def m_eps_lambda(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p) -> FormValue:
    """Mollified counting form with shell kernel of width eps at scale lam."""
    params = _grid_params(f, lam, eps, p)
    return _grid_forms(f, params, eps, [_shell_form(params, m)])[0]


def m_lambda(f: BoxFunction, lam: float, m: MollifierPair, p) -> FormValue:
    """Base mollified form: exactly the eps = 1 code path."""
    return m_eps_lambda(f, lam, 1.0, m, p)


def e_lambda(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p,
             c1: Optional[float] = None) -> FormValue:
    """Cancelled form, accumulated in one pass with the fused kernel."""
    params = _grid_params(f, lam, eps, p)
    c = c1 if c1 is not None else c1_eps(eps, params.p, f.d, m)
    # union support of the two kernels (eps <= 1)
    return _grid_forms(f, params, 1.0, [("E_lambda", eps, CancelledKernel(params, c, m))])[0]


# Bytes per block of the sharp form's window in each work buffer: 2^22
# cells on a bool view, 2^19 on float64 values, so a worker's two buffers
# take 8 MiB.  A block costs a fixed count of numpy calls per corner pair,
# which dominates small blocks; on a 2048^2 shell (2 cores, 64 nodes) the
# counted node sums took 1.6 s in blocks of 2^16 cells, 0.7-0.8 s at 2^20
# and 0.55 s at 2^22, the whole window.
_BLOCK_BYTES = 1 << 22


def _cell_offset(y: np.ndarray, h: float):
    """Whole-cell part (as ints) and fractional part of the shift y, per axis."""
    t = y / h
    base = np.floor(t)
    return base.astype(int), t - base


def _corners(base: np.ndarray, frac: np.ndarray) -> list:
    """(weight, rim offset per axis) of each cell corner of x + y with nonzero weight.

    The corners of x + y sit at x + base + {0, 1} per axis; in an array with
    a one-cell rim on every side that is one more cell along each axis.
    """
    out = []
    for corner in range(1 << len(base)):
        w = 1.0
        off = []
        for axis in range(len(base)):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            off.append(1 + int(base[axis]) + bit)
        if w != 0.0:
            out.append((w, off))
    return out


def _shifted(window: tuple, off) -> tuple:
    """The window of slices moved by off cells along each axis."""
    return tuple(slice(sl.start + o, sl.stop + o) for sl, o in zip(window, off))


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _overlap_blocks(n: int, b1: np.ndarray, b2: np.ndarray, block_cells: int):
    """The overlap window of the shifts with cell parts b1 and b2, in blocks of rows.

    x, x + y and x + 2y can all meet the box only on this window; cells
    outside add exact zeros.  Each block holds whole rows of the inner axes
    and about block_cells cells.  None if the window is empty.
    """
    lo = np.maximum(0, np.maximum(-b1, -b2) - 1).tolist()
    hi = np.minimum(n, np.minimum(n - b1, n - b2)).tolist()
    if any(b <= a for a, b in zip(lo, hi)):
        return None
    inner = tuple(slice(a, b) for a, b in zip(lo[1:], hi[1:]))
    rows = max(1, block_cells // math.prod(b - a for a, b in zip(lo[1:], hi[1:])))
    return [(slice(r0, min(r0 + rows, hi[0])),) + inner for r0 in range(lo[0], hi[0], rows)]


def _node_sum(f: BoxFunction, rim: np.ndarray, node: np.ndarray, bufs: tuple,
              total: Callable[[np.ndarray], float]) -> Optional[float]:
    """sum_x f(x) f(x + y) f(x + 2y) at the gap y = node, or None if no x can count.

    rim is the view of f from _product_view with a one-cell zero rim, and
    total its sum.  Interpolation is linear in f, so the node sum is
    sum_{c1, c2} w1(c1) w2(c2) S(c1, c2) over the corners c1 of x + y and c2
    of x + 2y with nonzero weight, where S(c1, c2) sums f(x) f(c1) f(c2) over
    the overlap window.  S accumulates total of the products block by block,
    in the work buffers bufs, with each c1 product reused across c2.  On a
    bool view each S is an exact integer count whatever the blocks (held
    exactly in float64, being below 2^53).  The weighted terms are added by
    fsum.
    """
    first, both = bufs
    b1, fr1 = _cell_offset(node, f.h)
    b2, fr2 = _cell_offset(2.0 * node, f.h)
    blocks = _overlap_blocks(f.n, b1, b2, _BLOCK_BYTES // rim.itemsize)
    if blocks is None:
        return None
    c1, c2 = _corners(b1, fr1), _corners(b2, fr2)
    S = np.zeros((len(c1), len(c2)))
    for window in blocks:
        shape = tuple(sl.stop - sl.start for sl in window)
        size = math.prod(shape)
        g, t = first[:size].reshape(shape), both[:size].reshape(shape)
        here = rim[_shifted(window, (1,) * f.d)]
        for i, (_, off1) in enumerate(c1):
            np.multiply(here, rim[_shifted(window, off1)], out=g)
            for j, (_, off2) in enumerate(c2):
                S[i, j] += total(np.multiply(g, rim[_shifted(window, off2)], out=t))
    return math.fsum(w1 * w2 * S[i, j] for i, (w1, _) in enumerate(c1)
                     for j, (w2, _) in enumerate(c2))


def n_lambda(f: BoxFunction, quad: SphereQuadrature, lam: float) -> FormValue:
    """Sharp-gap counting form: x on the grid, gaps on sphere-quadrature nodes.

    A strictly positive value certifies, up to interpolation tolerance, a
    3-progression in supp f whose gap length is lam in the lp metric.

    Each node sum is a weighted sum of corner-pair triple sums (_node_sum)
    on the view of f that _product_view picks, as _gap_sums does: counts of
    bool ands for a 0/1 box, float64 products for any other.

    The node sums run on a thread pool with one thread per usable CPU (at
    most one per node); numpy releases the interpreter lock on the window
    blocks.  Each worker has two work buffers of the view's dtype, of
    max(_BLOCK_BYTES / itemsize, n^(d-1)) cells.  Every node sum is computed
    by the same operations in the same order whichever thread runs it, and
    the results are combined in node order by one fsum, so the value does
    not depend on the core count, bit for bit.
    """
    lam = valid_finite("lam", lam)
    if abs(quad.lam - lam) > 1e-9 * max(1.0, lam):
        raise ValueError("quadrature radius does not match the requested gap scale")
    if f.d != quad.d:
        raise ValueError("dimension mismatch between grid and quadrature")
    if f.d > 3:
        raise ValueError("sharp form supports d <= 3")
    d = f.d
    rim, total = _product_view(f.values)
    rim = np.pad(rim, 1)  # drops a 0/1 box's unpadded bool copy
    cells = max(_BLOCK_BYTES // rim.itemsize, f.n ** (d - 1))
    local = threading.local()

    def run(node: np.ndarray) -> Optional[float]:
        if not hasattr(local, "bufs"):
            local.bufs = tuple(np.empty(cells, dtype=rim.dtype) for _ in range(2))
        return _node_sum(f, rim, node, local.bufs, total)

    workers = max(1, min(_usable_cpus(), len(quad.nodes)))
    with ThreadPoolExecutor(max_workers=workers) as ex:
        sums = list(ex.map(run, quad.nodes))
    val = f.h**d * math.fsum(w * s for w, s in zip(quad.weights, sums) if s is not None)
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
    params = KernelParams(p, d, lam, eps)
    pv, R = params.p, params.support_radius
    spans = lambda y: np.clip(N - 2.0 * y, 0.0, None)
    kern = lambda y: omega_eps_eval(y, params, m)
    if d == 1:
        edges = np.array(sorted({*_shell_edges(pv, eps, lam), float(np.clip(0.5 * N, 0.0, R))}))
        r, w = _radial_rule(edges)
        return float(np.sum(w * kern(r[:, None]) * 2.0 * spans(r)))
    if d != 2:
        raise ValueError("closed oracle supports d in {1, 2}")
    width = 2.0 * eps * lam / pv
    return _quadrant_integral(kern, lambda Y1, Y2: spans(Y1) * spans(Y2), R, 24.0 * R / width)


def decomposition_forms(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p
                        ) -> tuple[FormValue, FormValue, FormValue, float]:
    """(M_eps, M, E, c1): the three forms from one set of gap sums, and the c1 that E uses.

    The width-1 support is the union support (eps <= 1), so one half
    lattice and one S(j) per gap serve all three kernels.
    """
    params = _grid_params(f, lam, eps, p)
    unit = KernelParams(params.p, f.d, lam, 1.0)
    c1 = c1_eps(eps, params.p, f.d, m)
    m_eps, m_unit, e = _grid_forms(f, params, 1.0, [
        _shell_form(params, m), _shell_form(unit, m),
        ("E_lambda", eps, CancelledKernel(params, c1, m))])
    return m_eps, m_unit, e, c1


def decomposition_residual(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p) -> float:
    """M_eps - c1 M - E, which is zero by construction up to float association."""
    a, b, e, c1 = decomposition_forms(f, lam, eps, m, p)
    return a.value - c1 * b.value - e.value


@dataclass
class EnergyReport:
    energies: list
    ratio: float


def energy_sum(f: BoxFunction, lambdas: Sequence[float], eps: float, m: MollifierPair, p) -> EnergyReport:
    """Squared cancelled-form energies along a lacunary scale sequence.

    The certificate ratio divides the total by N^d ||f||_4^4; stability of
    that ratio as the sequence grows is the J-independence being probed.
    """
    lams = valid_lacunary("lambdas", lambdas)
    pv = valid_exponent(p)
    c1 = c1_eps(eps, pv, f.d, m)
    energies = [abs(e_lambda(f, lam, eps, m, pv, c1=c1).value) ** 2 for lam in lams]
    total = math.fsum(energies)
    f4 = f.h**f.d * float(np.sum(f.values**4))
    denom = f.N**f.d * f4
    return EnergyReport(energies=energies, ratio=total / denom if denom > 0 else np.inf)


def box_partition_pigeonhole(f: BoxFunction, ell: float) -> bool:
    """Whether at least delta L / 2 of the L side-ell boxes hold half the mean density or more.

    For indicator grids the comparison 2 L S_i >= S_total runs in exact
    integers, so the claimed lower bound I >= delta L / 2 is checked with
    no floating tolerance at all.
    """
    if f.values.min() < 0.0:
        raise ValueError("pigeonhole requires nonnegative values")
    mcells = valid_scale("ell", ell) / f.h
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
    return bool(2 * qualifying * mcells**f.d >= total)


def roth_main_term_experiment(delta: float, d: int, N: float, lam: float, trials: int,
                              m: MollifierPair, p, seed: int = 0) -> float:
    """The minimum of M_lam / N^d over random density-delta sets.

    Ensembles alternate i.i.d. cell draws with structured stripes; the
    observed minimum is the empirical density constant.
    """
    pv = valid_exponent(p)
    trials = valid_count("trials", trials)
    if lam > N / 8.0:
        raise ValueError("scale must satisfy lam <= N/8 for the boundary-sensitive run")
    _, h = resolved_grid(N, lam, 1.0, pv)
    outs = []
    for trial in range(trials):
        f = random_indicator(N, h, d, delta, seed=seed * 1000 + trial,
                             structured=(trial % 2 == 1))
        outs.append(m_lambda(f, lam, m, pv).value / N**d)
    return min(outs)


def translate_box(f: BoxFunction, cells: int) -> BoxFunction:
    """Embed f in a larger zero box, shifted by whole cells (for invariance checks)."""
    n = f.n
    big = 2 * n + 2 * abs(cells)
    vals = np.zeros((big,) * f.d)
    sl = tuple(slice(abs(cells) + cells, abs(cells) + cells + n) for _ in range(f.d))
    vals[sl] = f.values
    return BoxFunction(values=vals, N=big * f.h, h=f.h)
