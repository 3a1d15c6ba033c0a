"""Difference operators and Gowers U^2 / U^3 norms on cyclic grids.

Counting-measure conventions on Z_M^d:

    ||F||_{U^2}^4 = sum over x, h1, h2 of F(x) conj F(x+h1) conj F(x+h2) F(x+h1+h2)
                  = M^{-d} sum over frequencies of |DFT F|^4        (forward DFT, e^{-2 pi i x.xi / M})
    ||F||_{U^3}^8 = sum over x, y1, y2, y3 of the 8-fold cube product, conjugating
                    the factors with an odd number of shifts
                  = sum over h of ||Delta_h F||_{U^2}^4,  Delta_h F(x) = F(x+h) conj F(x)

Two independent evaluation paths are kept deliberately: a definitional
brute force that enumerates every index tuple (vectorized but literal),
and the fast recursive/spectral path.  Their agreement to 1e-10 relative
is a core verification target, so neither may be expressed through the
other.

The recursive path reduces the sum over all M^d shifts three ways, each
exact, so its total agrees with that sum to rounding, not bit for bit.
Compact grid: if the support lies on an axis in a cyclic arc of L cells,
every Delta_h F and its cyclic autocorrelation fit without wrap on any
cycle of at least 2L - 1 cells, so the arc zero-padded to the least power
of two N >= 2L - 1 replaces the axis where N < M (at M = 4096 a shell
difference fills 194 cells: N = 512).  Overlapping shifts: Delta_h F is
zero unless h lies in the difference set S - S of the support S.  Half
the shifts: Delta_{-h} F(x) = conj Delta_h F(x - h), and the U^2 norm is
blind to translation and conjugation, so ||Delta_{-h} F||_{U^2} =
||Delta_h F||_{U^2} (Gowers 2001, GAFA 11; Tao and Vu 2006, Additive
Combinatorics, ch. 11); one h of each pair {h, -h} is visited, weighted
2, or 1 when h = -h.

Continuum embeddings discretize a compactly supported kernel on a cyclic
grid whose period exceeds four support diameters (wraparound then never
joins distinct support components) and attach cell^(d/2) per norm so the
discrete value approximates the continuum integral.

The U^3 control of the trilinear counting form is ``claims.u3_form_control``,
which sums the form over the triple sums of ``forms`` and takes only the norm from here.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bumps import even_bump
from .lpgeom import valid_exponent
from .mollifier import KernelParams, MollifierPair, omega_eps_eval
from .util import valid_count, valid_finite, valid_scale

BRUTE_FORCE_TUPLE_BUDGET = 10**8
# bytes of one stacked block of difference grids in u3_eighth_recursive; 1 MiB
# blocks ran no faster and raised verify-all's peak memory by about 4 MiB
_BLOCK_BYTES = 1 << 16


@dataclass
class CyclicGridFunction:
    """Complex values on Z_M^d, given as a cubical array, with an optional physical cell size."""

    values: np.ndarray
    cell: float = 1.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        shape = self.values.shape
        if not shape or shape != (shape[0],) * len(shape):
            raise ValueError(f"expected a cubical array, got shape {shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid values must be finite")

    @property
    def M(self) -> int:
        return self.values.shape[0]

    @property
    def d(self) -> int:
        return self.values.ndim


def delta_h(F: CyclicGridFunction, h) -> CyclicGridFunction:
    """Delta_h F(x) = F(x+h) conj F(x), cyclic shifts."""
    h = np.atleast_1d(np.asarray(h, dtype=int))
    if h.size != F.d:
        raise ValueError(f"shift has {h.size} components, grid dimension is {F.d}")
    shifted = np.roll(F.values, shift=tuple(-int(c) for c in h), axis=tuple(range(F.d)))
    return CyclicGridFunction(shifted * np.conj(F.values), cell=F.cell)


def _u2_fourth_spectral(values: np.ndarray) -> float:
    Fh = np.fft.fftn(values)
    return float(np.sum(np.abs(Fh) ** 4) / values.size)


def u2_norm(F: CyclicGridFunction) -> float:
    """Counting-measure U^2 norm via the DFT fourth moment."""
    return _u2_fourth_spectral(F.values) ** 0.25


def u2_fourth_brute(F: CyclicGridFunction) -> complex:
    """Definitional U^2^4: literal sum over all M^(3d) index tuples."""
    n = F.M**F.d
    if n**3 > BRUTE_FORCE_TUPLE_BUDGET:
        raise ValueError("brute-force tuple budget exceeded")
    tab = _shift_table(F.M, F.d)
    g = F.values.ravel()
    total = 0.0 + 0.0j
    for h1 in range(n):
        B = g * np.conj(g[tab[h1]])
        CB = np.conj(B)
        total += np.sum(CB[tab] * B[None, :])
    return total


def _shift_table(M: int, d: int) -> np.ndarray:
    """table[h, x] = flat index of x + h on Z_M^d."""
    n = M**d
    idx = np.arange(n).reshape((M,) * d)
    tab = np.empty((n, n), dtype=np.int64)
    for hflat, h in enumerate(itertools.product(range(M), repeat=d)):
        tab[hflat] = np.roll(idx, shift=tuple(-c for c in h), axis=tuple(range(d))).ravel()
    return tab


def u3_eighth_brute(F: CyclicGridFunction) -> complex:
    """Definitional U^3^8: enumerate all (x, y1, y2, y3) tuples.

    The inner two indices are evaluated in a single vectorized gather so
    the enumeration stays literal while running in O(M^{4d}) array work.
    """
    n = F.M**F.d
    if n**4 > BRUTE_FORCE_TUPLE_BUDGET:
        raise ValueError("brute-force tuple budget exceeded")
    tab = _shift_table(F.M, F.d)
    g = F.values.ravel()
    gc = np.conj(g)
    total = 0.0 + 0.0j
    for y1 in range(n):
        t1 = tab[y1]
        g1c = gc[t1]
        for y2 in range(n):
            t2 = tab[y2]
            # product over the (y1, y2) face, unshifted in y3
            P = g * g1c * gc[t2] * g[t1[t2]]
            CP = np.conj(P)
            # remaining factors are conj P translated by y3; sum over y3 and x
            total += np.sum(CP[tab] * P[None, :])
    return total


def _overlap_shifts(vals: np.ndarray) -> np.ndarray:
    """Shifts h, in lexicographic order, where supp F and supp F - h meet cyclically.

    This is the cyclic difference set S - S of the support S, marked into one
    boolean array per support point s as (S - s) mod M, so memory stays O(M^d).
    """
    support = vals != 0
    axes = tuple(range(vals.ndim))
    mask = np.zeros(vals.shape, dtype=bool)
    for s in np.argwhere(support):
        mask |= np.roll(support, shift=tuple(-int(c) for c in s), axis=axes)
    return np.argwhere(mask)


def _support_arc(on_axis: np.ndarray) -> tuple[int, int]:
    """(first cell, length) of the shortest cyclic arc holding the True cells of a 1-d mask."""
    idx = np.flatnonzero(on_axis)
    gaps = np.diff(idx, append=idx[0] + on_axis.size)
    k = int(np.argmax(gaps))
    return int(idx[(k + 1) % idx.size]), on_axis.size - int(gaps[k]) + 1


def _compact(vals: np.ndarray) -> np.ndarray:
    """``vals`` with each axis cut to the N cells from its support's arc, N the least power of
    two of at least 2L - 1, where N is below the axis length; ``vals`` must be nonzero."""
    for axis, M in enumerate(vals.shape):
        others = tuple(a for a in range(vals.ndim) if a != axis)
        first, L = _support_arc(np.any(vals != 0, axis=others))
        N = 1 << (2 * L - 2).bit_length()
        if N < M:  # the arc, then N - L cells outside it, all zero
            vals = np.take(vals, (first + np.arange(N)) % M, axis=axis)
    return vals


def u3_eighth_recursive(F: CyclicGridFunction) -> float:
    """sum over h of ||Delta_h F||_{U^2}^4 with the spectral U^2.

    On the compact grid of supp F, over one shift of each pair {h, -h} in
    S - S (module docstring), in blocks of batched FFTs.
    """
    if not F.values.any():
        return 0.0
    vals = _compact(F.values)
    H = _overlap_shifts(vals)
    flat = np.ravel_multi_index(H.T, vals.shape)
    mirror = np.ravel_multi_index(tuple(-H.T), vals.shape, mode="wrap")
    keep = flat <= mirror
    H, weight = H[keep], np.where(flat == mirror, 1.0, 2.0)[keep]
    # window h is F(x + h): vals shifted by -h, read from its periodic extension
    windows = sliding_window_view(np.pad(vals, [(0, n - 1) for n in vals.shape], mode="wrap"), vals.shape)
    axes = tuple(range(1, vals.ndim + 1))
    rows = max(1, _BLOCK_BYTES // vals.nbytes)
    total = 0.0
    for i in range(0, len(H), rows):  # one FFT per block of at most _BLOCK_BYTES
        Fh = np.fft.fftn(windows[tuple(H[i:i + rows].T)] * np.conj(vals), axes=axes)
        total += float(weight[i:i + rows] @ np.sum(np.abs(Fh) ** 4, axis=axes)) / vals.size
    return total


def u3_norm(F: CyclicGridFunction) -> float:
    """Counting-measure U^3 norm; continuum value is cell^(d/2) times this."""
    return max(u3_eighth_recursive(F), 0.0) ** 0.125


def u3_norm_continuum(F: CyclicGridFunction) -> float:
    return F.cell ** (F.d / 2.0) * u3_norm(F)


def delta_u2_profile(F: CyclicGridFunction):
    """Rows (h components..., ||Delta_h F||_{U^2}) over every cyclic shift."""
    rows = []
    for h in itertools.product(range(F.M), repeat=F.d):
        rows.append([*map(float, h), u2_norm(delta_h(F, h))])
    return rows


# ---------------------------------------------------------------------------
# continuum kernel embeddings
# ---------------------------------------------------------------------------


def _embedding_period(eta: float, eps: float, p: float) -> float:
    """Cyclic period of the kernel embedding: five support diameters of the wider shell."""
    R = KernelParams(p, 1, 1.0, max(eta, eps)).support_radius  # the same in every dimension
    return 5.0 * R  # orthant-restricted support has one-sided diameter R


def min_shell_grid(eta: float, eps: float, p: float) -> int:
    """Smallest cyclic grid size M at which ``embed_kernel_difference`` resolves the shell.

    The period is five support diameters and the narrower shell, of width
    2 min(eta, eps) / p, must span at least 8 cells.
    """
    eta, eps = valid_scale("eta", eta), valid_scale("eps", eps)
    period = _embedding_period(eta, eps, p)
    max_cell = 2.0 * min(eta, eps) / p / 8.0
    q = period / max_cell if max_cell > 0.0 else math.inf
    if not q < 2.0 ** 53:
        raise ValueError(f"the shell at p = {p:g} needs more than 2**53 cells per axis")
    # below 2**53 the rounded quotient is off by less than one, so the
    # minimum lies in ceil(q) - 1 .. ceil(q) + 1
    c = math.ceil(q)
    return next(M for M in range(max(1, c - 1), c + 2) if period / M <= max_cell)


def embed_kernel_difference(eta: float, eps: float, p: float, M: int,
                            m: MollifierPair) -> CyclicGridFunction:
    """chi_+ (omega_eta - omega_eps), the unit-radius d = 1 shells, sampled on a cyclic grid.

    The grid covers a period of five support diameters so that no cyclic
    combination of shifted factors aliases across components; the shell
    must be resolved by >= 8 cells or the embedding is rejected.
    """
    M = valid_count("M", M)
    M_min = min_shell_grid(eta, eps, p)
    if M < M_min:
        raise ValueError(
            f"grid under-resolves the shell: M = {M} < {M_min}, the minimum for "
            f"widths ({eta:g}, {eps:g}) at p = {p:g}")
    cell = _embedding_period(eta, eps, p) / M
    ax = (np.arange(M) - M // 2) * cell
    k_eta = omega_eps_eval(ax[:, None], KernelParams(p, 1, 1.0, eta), m)
    k_eps = omega_eps_eval(ax[:, None], KernelParams(p, 1, 1.0, eps), m)
    return CyclicGridFunction((k_eta - k_eps) * (ax > 0.0), cell=cell)


def u3_kernel_distance(eta: float, eps: float, p, M: int, m: MollifierPair) -> float:
    """Continuum-normalized U^3 distance between two shell mollifications, as a float.

    The kernels are the d = 1 shells, embedded on a cyclic grid of M cells.
    Symmetric in (eta, eps); identical widths give 0 exactly.  As eta
    shrinks at fixed eps the values grow monotonically, following
    eta^(-1/2) (the narrow shell alone carries U^3 mass ~ eta^(-4) before
    the eighth root) and staying below the d = 1 envelope shape
    C eta^(1/(8r) - 1).  A finite limit would require dimensions beyond
    desk scale, so the probe reports a divergence rate rather than a
    Cauchy tail.
    """
    return u3_norm_continuum(embed_kernel_difference(eta, eps, valid_exponent(p), M, m))


# ---------------------------------------------------------------------------
# tensorization check
# ---------------------------------------------------------------------------


_TENSOR_M = 64  # cells per axis of the tensorization check's grids


@dataclass
class TensorCheck:
    lhs: float
    rhs: float
    relative_gap: float


def u3_tensor_check(p, t: float) -> TensorCheck:
    """Product structure of the U^3 norm of phase-modulated tensor cutoffs.

    Compares the d = 2 grid norm of phi(y1) phi(y2) 1_{y>0} e^{it(|y1|^p + |y2|^p)}
    against the square of the matched one-dimensional norm, on _TENSOR_M cells per
    axis.  The factorization is an identity of the sums themselves, so agreement
    holds at any resolution.
    """
    pv = valid_exponent(p)
    t = valid_finite("t", t)
    C = 3.0 ** (1.0 / pv)
    period = 5.0 * (2.0 * C)  # positive restriction occupies (0, 2C]
    cell = period / _TENSOR_M
    ax = (np.arange(_TENSOR_M) - _TENSOR_M // 2) * cell
    f1 = even_bump(ax, C, 2.0 * C) * (ax > 0.0) * np.exp(1j * t * np.abs(ax) ** pv)
    F1 = CyclicGridFunction(f1, cell=cell)
    Y1, Y2 = np.meshgrid(ax, ax, indexing="ij")
    amp = (even_bump(Y1, C, 2.0 * C) * even_bump(Y2, C, 2.0 * C)
           * (Y1 > 0.0) * (Y2 > 0.0))
    f2 = amp * np.exp(1j * t * (np.abs(Y1) ** pv + np.abs(Y2) ** pv))
    F2 = CyclicGridFunction(f2, cell=cell)
    lhs = u3_norm_continuum(F2)
    rhs = u3_norm_continuum(F1) ** 2
    gap = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return TensorCheck(lhs=lhs, rhs=rhs, relative_gap=gap)
