"""Trilinear progression-counting forms on gridded box functions.

All forms share one Riemann discretization: f lives at cell centers of a
step-h grid over [0, N]^d and is zero outside; gap variables run over
lattice multiples of the same step so that x, x+y, x+2y are grid-aligned
and no interpolation enters the mollified forms.  The sharp-gap form
samples the lp-sphere quadrature nodes instead and evaluates f by
multilinear interpolation, which preserves the [-1, 1] range.

Every form sums only over the overlap window of each gap: the cells x for
which f(x), f(x+y) and f(x+2y) can all be nonzero (the packed lattice sums
read the whole words that meet it).  Zero extension stays exact, because
each skipped cell would add an exact zero; only the order of summation
differs from a sum over the whole grid.

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
a box whose values are all exactly 0.0 or 1.0 (_packed_ones) is counted, each
product a logical and and each sum the number of cells it keeps, the same
integer, bit for bit, that float products give; a box with any other value
(BoxFunction admits reals in [-1, 1]) takes float64 products.  A 0/1 box
is counted on packed 64-bit word phases (_word_phases): the lattice sums a
block of gaps per array pass (_word_gap_sums), the sharp form 2 x 2 corner
pairs per array pass.  Before that, the sharp form screens each node on
one packed copy of f dilated one cell up every axis,
H(z) = OR over e in {0, 1}^d of f(z + e) (_screen_rows): with b1 and b2 the
lowest corners of x + y and x + 2y, every corner of x + y lies in
b1 + {0, 1}^d and every corner of x + 2y in b2 + {0, 1}^d, so the bits of
every pair product f(x) f(x + c1) f(x + c2) lie in
A = f(x) & H(x + b1) & H(x + b2) (_word_screen).  A node whose A has no
set bit counts nothing and gets 0.0, which its exact zero counts would
give; any other node is counted with A in place of f(x), which changes no
product.  The phases are built once per call, and only if some node's A
has a set bit (_product_view).  On a 2048^2 grid of the square-shell set
at a forbidden gap (2 lam^2 midway between integers) every A is empty, so
the certificate builds no phase.  The sharp form has one node loop and one
corner-pair routine (_pair_sums) for both kinds of box: interpolation is
linear in f, so each node sum is a sum over pairs of interpolation corners
of the corner weights times a triple sum of f on the grid, and the routine
reads either box through the same phases, words of 64 cells or float64
cells.  The lattice sums of any other box are that node loop's sums at
whole-cell nodes, one corner of weight 1 per shift (_node_sums).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .lpgeom import SphereQuadrature, valid_exponent
from .mollifier import (CancelledKernel, KernelParams, MollifierPair, _quadrant_integral,
                        _radial_rule, _shell_edges, c1_eps, omega_eps_eval)
from .util import (spawn_rng, valid_count, valid_finite, valid_fraction, valid_lacunary,
                   valid_scale)


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
    density = valid_fraction("density", density)
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
        vals = np.broadcast_to(axis, (n,) * d).flatten()  # stripes along the last axis
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


class _Box(NamedTuple):
    """How the forms multiply and sum the values of one box (_product_view).

    phases() gives the box's phases: phases[k] is the box with a one-cell
    zero rim on every axis, shifted k cells along its last axis, and its
    last axis runs over items of unit cells each.  data is what the box
    keeps from the start: the phases themselves for a real-valued box, the
    packed rows and their dilation for a 0/1 box (_screen_rows), whose
    phases are built on the first call.  product multiplies items cell by
    cell, count(w, t) turns products into per-item sums (t is scratch of w's
    shape), and the sum of an item's sums is the sum of its cells' products.
    A corner pair's window is taken in blocks of at most block_cells cells
    (_overlap_blocks).  lattice(box, n, J) gives the triple sums S(j) of the
    lattice gaps j, rows of J in cells, each with a nonempty window.
    screen(box, rows, items, lows, a) gives what stands for f(x) in a
    block's products, or None if none of them can be nonzero (_pair_sums).
    """

    data: np.ndarray
    unit: int
    product: Callable
    count: Callable
    block_cells: int
    lattice: Callable
    screen: Callable
    phases: Callable


def _product_view(v: np.ndarray) -> _Box:
    """How to multiply and sum the box values v: counted on packed words if every value
    is exactly 0.0 or 1.0 (_packed_ones), else multiplied in float64.

    A 0/1 box keeps its packed rows and their dilation (_screen_rows), 64
    cells per item: products are logical ands, counted by _popcount, a
    corner pair's window is one block, f(x) is screened on the dilation
    (_word_screen), and the 65 word phases (_word_phases) are built on the
    first call of phases, at most once per box (functools.cache); the
    lattice sums are counted a block of gaps at a time (_word_gap_sums).
    Any other box takes two float64 views of its rimmed values, the second
    one cell on, one cell per item: products are float products, summed as
    they are in blocks of _BLOCK_BYTES, f(x) is its own screen, and the
    lattice sums are the sharp form's node sums at whole-cell nodes
    (_node_sums).
    """
    words = _packed_ones(v)
    if words is not None:
        rows = _screen_rows(words)
        return _Box(rows, 64, np.bitwise_and, _popcount, v.size, _word_gap_sums, _word_screen,
                    functools.cache(lambda: _word_phases(rows[0])))
    return _Box(data := np.moveaxis(sliding_window_view(np.pad(v, 1), 2, axis=-1), -1, 0), 1,
                np.multiply, lambda w, t: w, _BLOCK_BYTES // 8, _node_sums,
                lambda box, rows, items, lows, a: data[0][rows + (items,)], lambda: data)


# the masks and the byte-sum multiplier of the SWAR popcount
_SWAR = tuple(np.uint64(c) for c in (0x5555555555555555, 0x3333333333333333,
                                     0x0F0F0F0F0F0F0F0F, 0x0101010101010101))


def _popcount(w: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The number of set bits of each uint64 word of w, written over w; t is scratch of w's shape.

    The SWAR reduction (Warren, Hacker's Delight, 2nd ed., section 5-1): shifts
    and masks sum the bits of each pair, nibble and byte within the word, and
    one multiply, wrapping modulo 2^64, adds the eight byte counts into the top
    byte.  Only array operations touch the words: numpy warns on a wrapping
    multiply of uint64 scalars, and np.bitwise_count needs numpy >= 2.0.
    """
    m1, m2, m4, h01 = _SWAR
    np.right_shift(w, 1, out=t)
    t &= m1
    w -= t
    np.right_shift(w, 2, out=t)
    t &= m2
    w &= m2
    w += t
    np.right_shift(w, 4, out=t)
    w += t
    w &= m4
    w *= h01
    w >>= 56
    return w


def _packed_ones(v: np.ndarray) -> Optional[np.ndarray]:
    """The cells where v is 1.0, packed along the last axis in uint64 words with zero rims,
    if every value of v is exactly 0.0 or 1.0; else None.

    v holds no NaN (BoxFunction rejects it), so v is 0/1 when it has as many
    ones as nonzero values.  A value such as 1 + 1e-13 is not 1.  Bit b of
    word i is the cell 64 (i - 1) + b of its row, and zero off the box: word
    i = 0 is the word before the row, and word W + 1 the word after it,
    W = ceil(n / 64).  Every leading axis has a one-row zero rim, as in
    np.pad(v, 1).  Shape (m + 2 for m in v.shape[:-1]) + (W + 2,).
    """
    ones = v == 1.0
    return _packed(ones) if np.count_nonzero(ones) == np.count_nonzero(v) else None


def _packed(ones: np.ndarray) -> np.ndarray:
    """The bool box ones packed along its last axis (_packed_ones)."""
    n = ones.shape[-1]
    W = -(-n // 64)
    rim = tuple(m + 2 for m in ones.shape[:-1])
    raw = np.zeros(rim + (8 * (W + 2),), dtype=np.uint8)
    raw[(slice(1, -1),) * len(rim) + (slice(8, 8 + -(-n // 8)),)] = np.packbits(
        ones, axis=-1, bitorder="little")
    return raw.view("<u8")


def _screen_rows(words: np.ndarray) -> np.ndarray:
    """The packed rows words of a 0/1 box f (_packed_ones), and eight copies of its dilation H
    read 0-7 cells on along the last axis: shape (9,) + words.shape, laid out as words.

    H(z) = OR over e in {0, 1}^d of f(z + e) is f dilated one cell up every
    axis: along the last axis bit b + 1 of a word, or bit 0 of the next word,
    is the cell one on, and along a leading axis the next row is.  The rims
    read the zeros off the box, and a rim cell just below the box holds the
    box's first cell.  Copy 1 + r is H's rows shifted r bits down, each word
    a funnel shift of two; so a row of H read any s cells on is a byte slice
    of copy 1 + s mod 8, viewed as words (_word_screen), and no read of H
    takes an array pass.
    """
    rows = np.empty((9,) + words.shape, dtype="<u8")
    rows[0], h = words, rows[1]
    np.right_shift(words, 1, out=h)
    h |= words
    h[..., :-1] |= words[..., 1:] << 63
    for axis in range(words.ndim - 1):
        before = (slice(None),) * axis
        h[before + (slice(None, -1),)] |= h[before + (slice(1, None),)]
    for r in range(1, 8):
        np.right_shift(h, r, out=rows[1 + r])
        rows[1 + r][..., :-1] |= h[..., 1:] << (64 - r)
    return rows


def _word_phases(words: np.ndarray) -> np.ndarray:
    """The 65 bit phases of the packed rows words (_packed_ones), in uint64 words.

    Bit b of word i in phase k is the cell 64 (i - 1) + k + b of its row, and
    zero off the box.  So a shift of a row by c = 64 q + k cells, 0 <= k < 64,
    is the slice of phase k offset by q words, and phase 64 is phase 0 one
    word on: the shift c + 1 is phase k + 1 at the same offset q.  Each phase
    is a funnel shift of the packed row, each word made from two neighbouring
    words.  Phase-major: shape (65,) + words.shape[:-1] + (W + 1,), so that a
    phase's words run along contiguous rows.
    """
    phases = np.empty((65,) + words.shape[:-1] + (words.shape[-1] - 1,), dtype=np.uint64)
    phases[0], phases[64] = words[..., :-1], words[..., 1:]
    for k in range(1, 64):
        np.right_shift(words[..., :-1], k, out=phases[k])
        phases[k] |= words[..., 1:] << (64 - k)
    return phases


def _word_gap_sums(box: _Box, n: int, J: np.ndarray) -> np.ndarray:
    """S(j) for each row j of J on a 0/1 box of side n, counted on its word phases.

    Every gap of J must have a nonempty window.  The gaps read phases 0-63
    shift-minor: a contiguous copy of shape n^(d-1) x (W + 1) x 64, without
    the rim.  They are taken in blocks that share the leading shifts
    j' = j[:-1] and a = floor(c / 32) of the last shift c, so a block holds
    at most 32 gaps.  Then c = 64 floor(a / 2) + k and
    2c = 64 a + 2 (c - 32 a), so x + j and x + 2j each read one strided view
    of the copy, whose last axis runs over the block's c; no block gathers,
    long rows included.  Rows run over the window of j'; words over those
    that meet the window of some c of the block, and each cell outside a
    gap's own window meets a zero bit in one of the three operands.  A block
    ANDs the three views in a work buffer, of at most 32 words per word of
    the copy's rows (half the copy's own size), counts the bits (_popcount)
    and sums the counts per gap: exact integers, as are the S(j).
    """
    inner = (slice(64),) + (slice(1, -1),) * (J.shape[1] - 1)
    phases = np.ascontiguousarray(np.moveaxis(box.phases()[inner], 0, -1))
    lead, c = J[:, :-1], J[:, -1]
    order = np.lexsort(np.column_stack([c, lead[:, ::-1]]).T)
    keys = np.column_stack([lead, c // 32])[order]
    first = np.ones(len(keys), dtype=bool)  # the first gap of each run of equal keys
    first[1:] = np.any(keys[1:] != keys[:-1], axis=1)
    starts = np.flatnonzero(first).tolist()
    buf, scratch = (np.empty(32 * math.prod(phases.shape[:-1]), dtype=np.uint64)
                    for _ in range(2))
    S = np.zeros(len(J), dtype=np.uint64)
    for s, e in zip(starts, starts[1:] + [len(order)]):
        j = lead[order[s]].tolist()
        lo, hi = [max(0, -2 * x) for x in j], [min(n, n - 2 * x) for x in j]
        rows = [tuple(slice(x0 + t * x, x1 + t * x) for x0, x1, x in zip(lo, hi, j))
                for t in range(3)]
        shifts = c[order[s:e]]
        c0, c1 = int(shifts[0]), int(shifts[-1])
        # the words of the phases (index 0 is the word before the row) that x runs over
        w0, w1 = max(0, -2 * c1) // 64 + 1, -(-min(n, n - 2 * c0) // 64) + 1
        q, a = c0 // 64, c0 // 32
        x = phases[rows[0] + (slice(w0, w1), slice(0, 1))]
        y1 = phases[rows[1] + (slice(w0 + q, w1 + q), slice(c0 - 64 * q, c1 - 64 * q + 1))]
        y2 = phases[rows[2] + (slice(w0 + a, w1 + a),
                               slice(2 * c0 - 64 * a, 2 * c1 - 64 * a + 1, 2))]
        out = np.bitwise_and(y1, y2, out=buf[:y1.size].reshape(y1.shape))
        out &= x
        _popcount(out, scratch[:y1.size].reshape(y1.shape))
        S[order[s:e]] = out.reshape(-1, c1 - c0 + 1).sum(axis=0)[shifts - c0]
    return S


def _gap_sums(f: BoxFunction, J: np.ndarray) -> np.ndarray:
    """S(j) = sum_x f(x) f(x+j) f(x+2j) for each row j of J, with f zero outside the box.

    Per axis x runs over [max(0, -2j), min(n, n - 2j)), the cells where x, x+j
    and x+2j all lie in the box; every cell outside adds an exact zero.

    S(-j) = S(j): substituting x -> x + 2j maps the terms of S(-j) onto those
    of S(j), with the window in the same order and only the three factors of
    each product multiplied in the opposite order.  For 0/1 indicators every
    product and every partial sum is an exact integer, so the two agree bit
    for bit; for real values they differ by rounding in that order.

    The gaps with a nonempty window go to the lattice routine of
    _product_view.  A 0/1 box is counted on packed words, many gaps per array
    pass (_word_gap_sums): each S(j) is the exact integer count, of at most
    n^d < 2^53 cells, so it equals the sum of float products bit for bit.  A
    box with any other value takes the sharp form's node sums (_node_sums) at
    the whole-cell nodes j: one corner per shift, of weight 1, so each S(j)
    multiplies float64 values over the window and sums them with np.sum, in
    blocks of _BLOCK_BYTES (_pair_sums).
    """
    n = f.n
    box = _product_view(f.values)
    live = np.flatnonzero(np.all(np.minimum(n, n - 2 * J) > np.maximum(0, -2 * J), axis=1))
    S = np.zeros(len(J))
    S[live] = box.lattice(box, n, J[live])
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


def e_lambda(f: BoxFunction, lam: float, eps: float, m: MollifierPair, p,
             c1: Optional[float] = None) -> FormValue:
    """Cancelled form, accumulated in one pass with the fused kernel."""
    params = _grid_params(f, lam, eps, p)
    c = c1 if c1 is not None else c1_eps(eps, params.p, f.d, m)
    # union support of the two kernels (eps <= 1)
    return _grid_forms(f, params, 1.0, [("E_lambda", eps, CancelledKernel(params, c, m))])[0]


# Bytes of one corner pair's block of float64 products (_pair_sums): 2^16
# cells, so the three work buffers, of at most 2 x 2 blocks each, take at
# most 6 MiB.
# On a real-valued 2048^2 shell (values 0 and 0.5, gap 1.0, 64 nodes, one
# thread of a 2-core Xeon) the products set the time, not the count of
# blocks: 3.3-3.7 s in blocks of 2^16 cells, 3.6-3.9 s at 2^17 and 3.6-4.7 s
# at 2^19.  So the size bounds the work memory.  A 0/1 box counts its whole
# window as one block.
_BLOCK_BYTES = 1 << 19


def _cell_offset(t: np.ndarray):
    """Whole-cell part (as ints) and fractional part of the shift of t cells, per axis."""
    base = np.floor(t)
    return base.astype(int), t - base


def _corners(base: np.ndarray, frac: np.ndarray) -> list:
    """(weight, rim offset per axis) of each cell corner of x + y with nonzero weight.

    The corners of x + y sit at x + base + {0, 1} per axis; in an array with
    a one-cell rim on every side that is one more cell along each axis.
    """
    base, frac = base.tolist(), frac.tolist()
    out = []
    for corner in range(1 << len(base)):
        w = 1.0
        off = []
        for axis in range(len(base)):
            bit = (corner >> axis) & 1
            w = w * (frac[axis] if bit else 1.0 - frac[axis])
            off.append(1 + base[axis] + bit)
        if w != 0.0:
            out.append((w, off))
    return out


def _shifted(window: tuple, off) -> tuple:
    """The window of slices moved by off cells along each axis."""
    return tuple(slice(sl.start + o, sl.stop + o) for sl, o in zip(window, off))


def _overlap_blocks(n: int, c1: list, c2: list, block_cells: int):
    """The overlap window of the corners c1 of x + y and c2 of x + 2y, in blocks of rows.

    A corner at rim offset o reads the box at x + o - 1, which lies in it for
    1 - o <= x < n + 1 - o.  Per axis the window is the cells of the box that
    some corner of c1 and some corner of c2 keep in the box; x, x + y and
    x + 2y can all meet the box only on it, and cells outside add exact
    zeros.  At a whole-cell shift j (one corner per list) it is
    [max(0, -2j), min(n, n - 2j)), the window of _gap_sums.  Each block holds
    whole rows of the inner axes and about block_cells cells.  None if the
    window is empty.
    """
    axes = list(zip(zip(*(off for _, off in c1)), zip(*(off for _, off in c2))))
    lo = [max(0, 1 - min(max(o1), max(o2))) for o1, o2 in axes]
    hi = [min(n, n + 1 - max(min(o1), min(o2))) for o1, o2 in axes]
    if any(b <= a for a, b in zip(lo, hi)):
        return None
    inner = tuple(slice(a, b) for a, b in zip(lo[1:], hi[1:]))
    rows = max(1, block_cells // math.prod(b - a for a, b in zip(lo[1:], hi[1:])))
    return [(slice(r0, min(r0 + rows, hi[0])),) + inner for r0 in range(lo[0], hi[0], rows)]


def _node_sum(box: _Box, n: int, t: np.ndarray, bufs: list) -> Optional[float]:
    """sum_x f(x) f(x + y) f(x + 2y) at the shift y of t cells, or None if no x can count.

    box is f's side-n box from _product_view.  Interpolation is linear in f,
    so the node sum is sum_{c1, c2} w1(c1) w2(c2) S(c1, c2) over the corners
    c1 of x + y and c2 of x + 2y with nonzero weight, where S(c1, c2) sums
    f(x) f(c1) f(c2) over the overlap window, in blocks of box.block_cells
    cells, in the work buffers bufs (_pair_sums).  The weighted terms are
    added by fsum; at a whole-cell shift there is one term, of weight 1.
    """
    c1, c2 = _corners(*_cell_offset(t)), _corners(*_cell_offset(2.0 * t))
    blocks = _overlap_blocks(n, c1, c2, box.block_cells)
    if blocks is None:
        return None
    S = _pair_sums(box, c1, c2, blocks, bufs)
    return math.fsum(w1 * w2 * S[i, j] for i, (w1, _) in enumerate(c1)
                     for j, (w2, _) in enumerate(c2))


def _pair_sums(box: _Box, c1: list, c2: list, blocks: list, bufs: list) -> np.ndarray:
    """S(c1, c2) for each pair of corners, block by block, on the phases of the box.

    A corner at rim offset o reads the box o - 1 cells on.  On the last axis
    the corners of x + y are s and s + 1 cells on, or s alone, with
    s = unit q + k, 0 <= k < unit: phases k and k + 1 at the item offset q.
    The same holds for x + 2y.  x reads the items that meet the block, and
    each corner the same items q on.  The window keeps x + s + 1 >= 0 and
    x + s < n, so those items lie on the phases, and their cells off the box
    are zero: a cell of those items outside the window reads such a zero in
    every pass and adds an exact zero.  So in each block, f(x) f(x + y) is
    one product per leading offsets of c1, over its one or two last-axis
    corners, and each pair of leading offsets is one more: times f(x + 2y),
    into a 2 x 2 x rows x items work buffer that holds the four last-axis
    corner pairs.  count and a sum over the items give their four sums,
    which S accumulates.

    Before any phase is read, box.screen gives what stands for f(x) in the
    products, from the lowest corner per axis of each list, b1 of x + y and
    b2 of x + 2y: f(x) itself for a real-valued box, and for a 0/1 box
    A = f(x) & H(x + b1) & H(x + b2) on f's dilation H (_word_screen), which
    holds the bits of every pair product and so changes none.  A block whose
    screen is None (A has no set bit) reaches no phase and no count: it would
    add only exact integer zeros to every S(c1, c2).  Only a block that
    passes its screen asks for the phases (box.phases), so a 0/1 box whose
    every screen is empty never builds them.  bufs holds three work buffers
    of the box's dtype, each grown to fit the largest block: the products,
    count's scratch, and f(x) f(x + y) beside the screened f(x).  A block
    that fails its screen grows only the last.
    """
    unit = box.unit
    S = np.zeros((len(c1), len(c2)))
    lows, groups = [], []  # per corner list: the lowest rim offset per axis, and per
    # leading offsets the index of each corner with those offsets and its phase above the lowest
    for corners in (c1, c2):
        low = [min(axis) for axis in zip(*(off for _, off in corners))]
        lead_offs = {}
        for i, (_, off) in enumerate(corners):
            lead_offs.setdefault(tuple(off[:-1]), []).append((i, off[-1] - low[-1]))
        lows.append(low)
        groups.append(lead_offs)
    spans = [1 + max(k for idx in lead_offs.values() for _, k in idx) for lead_offs in groups]
    for window in blocks:
        lead, last = window[:-1], window[-1]
        items = slice(last.start // unit + 1, -(-last.stop // unit) + 1)
        shape = (*spans, *(sl.stop - sl.start for sl in lead), items.stop - items.start)
        first = _grown(bufs, 2, (spans[0] + 1) * math.prod(shape[2:])).reshape(
            (-1,) + shape[2:])
        x = box.screen(box, _shifted(lead, (1,) * len(lead)), items, lows, first[-1])
        if x is None:
            continue
        phases = box.phases()
        passes = []  # per corner list and leading offsets: a view of the phases, and the
        # index of each corner with those offsets and of its phase in the view
        for low, lead_offs, span in zip(lows, groups, spans):
            q, k = divmod(low[-1] - 1, unit)
            passes.append([(phases[(slice(k, k + span),) + _shifted(lead, o)
                                   + (slice(items.start + q, items.stop + q),)], idx)
                           for o, idx in lead_offs.items()])
        out, scratch = (_grown(bufs, i, math.prod(shape)).reshape(shape) for i in (0, 1))
        for y1, idx1 in passes[0]:
            x_y1 = box.product(y1, x, out=first[:-1])
            for y2, idx2 in passes[1]:
                box.product(x_y1[:, None], y2[None], out=out)
                sums = box.count(out, scratch).reshape(shape[:2] + (-1,)).sum(axis=-1)
                for i, a in idx1:
                    for j, b in idx2:
                        S[i, j] += sums[a, b]
    return S


def _grown(bufs: list, i: int, size: int) -> np.ndarray:
    """The first size elements of the work buffer bufs[i], which is replaced by a larger
    one of its dtype (its contents lost) if it is shorter."""
    if len(bufs[i]) < size:
        bufs[i] = np.empty(size, dtype=bufs[i].dtype)
    return bufs[i][:size]


def _word_screen(box: _Box, rows: tuple, items: slice, lows: list,
                 a: np.ndarray) -> Optional[np.ndarray]:
    """A = f(x) & H(x + b1) & H(x + b2) in a, over the rows and items of a block of the
    0/1 box, or None if A has no set bit.

    lows holds the lowest rim offset per axis of the corners of x + y and of
    x + 2y, b1 and b2 cells on, and H is f's dilation, read as a byte slice of
    its copies (_screen_rows): two ands and a max, and no phase read.  Every
    corner of x + y lies in b1 + {0, 1}^d, so each corner's bits lie in
    H(x + b1), and likewise for x + 2y: the bits of every pair product
    f(x) f(x + c1) f(x + c2) lie in A, and A in place of f(x) changes none.
    With no set bit in A every pair product is zero, and the block would add
    only exact integer zeros to every S(c1, c2).
    """
    table, n = box.data.view(np.uint8), items.stop - items.start
    h = []
    for low in lows:
        bit = 64 * items.start + low[-1] - 1  # of the rows, where the block's words start
        h.append(table[(1 + bit % 8,) + _shifted(rows, [o - 1 for o in low[:-1]])
                       + (slice(bit // 8, bit // 8 + 8 * n),)].view("<u8"))
    np.bitwise_and(h[0], h[1], out=a)
    a &= box.data[(0,) + rows + (items,)]
    return a if a.max() else None


def _node_sums(box: _Box, n: int, shifts: np.ndarray) -> list:
    """_node_sum at each row of shifts, in cells, on the side-n box of _product_view.

    The node sums run one after another, in row order, and share three work
    buffers, which _pair_sums grows to its largest block: 2 x 2 float64
    blocks of _BLOCK_BYTES (or of one slab of whole inner rows, if larger),
    or 2 x 2 times a 0/1 box's whole window in words.
    """
    bufs = [np.empty(0, dtype=box.data.dtype) for _ in range(3)]
    return [_node_sum(box, n, t, bufs) for t in shifts]


def n_lambda(f: BoxFunction, quad: SphereQuadrature, lam: float) -> FormValue:
    """Sharp-gap counting form: x on the grid, gaps on sphere-quadrature nodes.

    A strictly positive value certifies, up to interpolation tolerance, a
    3-progression in supp f whose gap length is lam in the lp metric.

    Each node sum is a weighted sum of corner-pair triple sums (_node_sum)
    on the data of f that _product_view picks: bit counts on packed words
    for a 0/1 box, float64 products for any other.  On a 0/1 box each node is
    first screened on f's packed dilation (_word_screen); a node whose screen
    has no set bit sums no corner pair and gets 0.0, the fsum of its exact
    zero counts, and the 65 word phases are built once, only if some node's
    screen has a set bit.  The node sums are combined in node order by one
    fsum.
    """
    lam = valid_finite("lam", lam)
    if abs(quad.lam - lam) > 1e-9 * max(1.0, lam):
        raise ValueError("quadrature radius does not match the requested gap scale")
    if f.d != quad.d:
        raise ValueError("dimension mismatch between grid and quadrature")
    if f.d > 3:
        raise ValueError("sharp form supports d <= 3")
    d = f.d
    sums = _node_sums(_product_view(f.values), f.n, quad.nodes / f.h)
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


def _box_counts(f: BoxFunction, mcells: int) -> np.ndarray:
    """The int64 cell counts of the 0/1 box f in its boxes of mcells cells a side."""
    per_side = f.n // mcells
    boxes = f.values.astype(np.int64).reshape((per_side, mcells) * f.d)
    return boxes.sum(axis=tuple(range(1, 2 * f.d, 2)))


def box_partition_pigeonhole(f: BoxFunction, ell: float) -> bool:
    """Whether at least delta L / 2 of the L side-ell boxes hold half the mean density or more.

    f must be a 0/1 indicator, so the comparison 2 L S_i >= S_total runs in
    exact integers and the claimed lower bound I >= delta L / 2 is checked
    with no floating tolerance at all.
    """
    if _packed_ones(f.values) is None:
        raise ValueError("f must be a 0/1 indicator box")
    mcells = valid_scale("ell", ell) / f.h
    if abs(mcells - round(mcells)) > 1e-9:
        raise ValueError("box side must be a whole number of cells")
    mcells = int(round(mcells))
    if f.n % mcells != 0:
        raise ValueError("box side must divide the grid")
    sums = _box_counts(f, mcells)
    L, total = sums.size, sums.sum()
    qualifying = int(np.count_nonzero(2 * L * sums >= total))
    # claimed bound: qualifying >= delta L / 2 with delta the grid mean
    return bool(2 * qualifying * mcells**f.d >= total)


def roth_main_term_experiment(delta: float, N: float, lam: float, trials: int,
                              m: MollifierPair, p, seed: int = 0) -> float:
    """The minimum of M_lam / N over random density-delta sets in [0, N].

    Ensembles alternate i.i.d. cell draws with structured stripes; the
    observed minimum is the empirical density constant.
    """
    delta, lam = valid_fraction("delta", delta), valid_scale("lam", lam)
    pv = valid_exponent(p)
    trials = valid_count("trials", trials)
    if lam > N / 8.0:
        raise ValueError("scale must satisfy lam <= N/8 for the boundary-sensitive run")
    _, h = resolved_grid(N, lam, 1.0, pv)
    outs = []
    for trial in range(trials):
        f = random_indicator(N, h, 1, delta, seed=seed * 1000 + trial,
                             structured=(trial % 2 == 1))
        outs.append(m_eps_lambda(f, lam, 1.0, m, pv).value / N)
    return min(outs)


def translate_box(f: BoxFunction, cells: int) -> BoxFunction:
    """Embed f in a larger zero box, shifted by whole cells (for invariance checks)."""
    n = f.n
    big = 2 * n + 2 * abs(cells)
    vals = np.zeros((big,) * f.d)
    sl = tuple(slice(abs(cells) + cells, abs(cells) + cells + n) for _ in range(f.d))
    vals[sl] = f.values
    return BoxFunction(values=vals, N=big * f.h, h=f.h)
