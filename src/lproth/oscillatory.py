"""One-dimensional oscillatory machinery: shifted-phase integrals, their
decay in the modulation parameter, stationary-derivative lower bounds,
lacunary sums, and the bilinear multiplier audit.

The central family, for shifts k and l and exponent p,

    psi_{k,l}(y) = y^p + (y+k+l)^p - (y+k)^p - (y+l)^p

is evaluated only where y, y+k, y+l, y+k+l all lie inside the support of
the one-sided window phi_plus, so every power has a positive base.  For
p = 2 the family degenerates to the constant 2kl and for p = 1 to zero;
these two values are exactly the metrics with no modulus decay, which is
the dichotomy the decay fits express.

The aggregate

    I(t) = integral over (k, l) in [-1/2, 1/2]^2 of |I_{k,l}(t)|^2,
    I_{k,l}(t) = integral of (4-fold shifted window product) e^{i t psi_{k,l}(y)} dy

is computed by tensor Gauss-Legendre in (k, l) with oscillation-aware
composite Simpson inside.  The cell values |I_{k,l}|^2 are invariant under
(k, l) -> (l, k) and (k, l) -> (-k, -l), and the Gauss-Legendre nodes are
symmetric, so only the fundamental domain j <= i, i + j <= n_kl - 1 of the
node grid (about a quarter of it) is evaluated, each cell weighted by the
size of its orbit.  A uniform-lattice second path evaluates the same
truncated aggregate over every shift through shifted-product sums (the
difference-cube structure) and serves as the independent oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bumps import FALL_HI, RISE_LO, phi_plus
from .lpgeom import DEGENERATE_P, valid_exponent
from .mollifier import KernelParams, MollifierPair, build_cancelled_kernel
from .util import valid_count, valid_finite, valid_lacunary

KL_HALF = 0.5  # shifts are truncated to |k|, |l| <= 1/2
_NODES_PER_PERIOD = 16  # Simpson points per period of the running phase
_INNER_REL_TOL = 1e-8  # doubling stops once I_{k,l}(t) moves by less than this
_INNER_N_MAX = 1 << 22  # panel budget of inner_integral's doubling
_CELL_N_MAX = 1 << 21  # panel budget of one i_of_t shift cell
_CHUNK_POINTS = 1 << 15  # nodes per array pass of i_of_t and of the psi' floor; bounds memory
_STATIONARY_GRID = 40  # shift magnitudes per sign in stationary_lower_bound_check
_TABLE_U_MAX = 4000.0  # largest tabulated transform argument
# radial steps of the cosine-transform grid: the least 2^a 3^b 5^c (a fast DCT-I length)
# whose step, (pi / 0.02) / count, is at most 2.5e-4
_TABLE_INTERVALS = 2**5 * 3**9
_SPLINE_POLE = math.sqrt(3.0) - 2.0  # pole of the cubic B-spline prefilter
_SPLINE_TAPS = 40  # prefilter taps per side; |pole|^40 is below 1e-22
_SPLINE_FILTER = math.sqrt(3.0) * _SPLINE_POLE ** np.abs(np.arange(-_SPLINE_TAPS, _SPLINE_TAPS + 1))
_GL24 = np.polynomial.legendre.leggauss(24)
_DECAY_T = tuple(float(t) for t in np.logspace(1.0, 4.0, 7))  # modulations of decay_fit: three decades


def _admissible_interval(k, l, rise: float = RISE_LO):
    """Points y where y, y+k, y+l and y+k+l all lie inside [rise, FALL_HI].

    Shift arrays give one interval per pair (k[i], l[i]).
    """
    kl = k + l
    lo = rise - np.minimum(np.minimum(0.0, k), np.minimum(l, kl))
    hi = FALL_HI - np.maximum(np.maximum(0.0, k), np.maximum(l, kl))
    return lo, hi


def _linspace_rows(lo, hi, num: int) -> np.ndarray:
    """Row i holds np.linspace(lo[i], hi[i], num) bit for bit: i * step + lo, last node hi."""
    y = np.arange(num) * ((hi - lo) / (num - 1))[..., None] + lo[..., None]
    y[..., -1] = hi
    return y


@dataclass(frozen=True)
class PhaseFamily:
    p: float
    k: float
    l: float

    def __post_init__(self):
        object.__setattr__(self, "p", valid_exponent(self.p))

    def admissible_interval(self) -> tuple[float, float]:
        return _admissible_interval(self.k, self.l)

    def admissible_point(self, y) -> float:
        """y as a float; a point outside the admissible window is rejected."""
        lo, hi = self.admissible_interval()
        if not lo <= float(y) <= hi:
            raise ValueError(f"y={y} leaves the admissible window for shifts ({self.k}, {self.l})")
        return float(y)


def phase_eval(fam: PhaseFamily, y) -> tuple[float, float]:
    """(psi_{k,l}(y), psi'_{k,l}(y)) by the formulas i_of_t runs, on a one-point array
    (a scalar power can differ from the array power by an ulp)."""
    ys = np.array([fam.admissible_point(y)])
    return (float(_phase_values(ys, fam.p, fam.k, fam.l)[0]),
            float(_dpsi_values(ys, fam.p, fam.k, fam.l)[0]))


def phase_eval_remainder(fam: PhaseFamily, y) -> tuple[float, float]:
    """Same pair through the double-integral remainder representation.

    psi  = k l p (p-1)       int_{[0,1]^2} (y + u k + s l)^(p-2) du ds
    psi' = k l p (p-1) (p-2) int_{[0,1]^2} (y + u k + s l)^(p-3) du ds

    evaluated with a 24^2 Gauss-Legendre rule; the base stays inside the
    admissible window so the integrand is smooth.
    """
    y = fam.admissible_point(y)
    p, k, l = fam.p, fam.k, fam.l
    x, w = _GL24
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    U, S = np.meshgrid(u, u, indexing="ij")
    W = np.outer(wu, wu)
    base = y + U * k + S * l
    val = k * l * p * (p - 1.0) * float(np.sum(W * base ** (p - 2.0)))
    der = k * l * p * (p - 1.0) * (p - 2.0) * float(np.sum(W * base ** (p - 3.0)))
    return val, der


def _window_product(y, k: float, l: float) -> np.ndarray:
    return phi_plus(y) * phi_plus(y + k) * phi_plus(y + l) * phi_plus(y + k + l)


def _phase_values(y, p: float, k: float, l: float) -> np.ndarray:
    return (y**p + (y + k + l) ** p - (y + k) ** p - (y + l) ** p)


def _dpsi_values(y, p: float, k: float, l: float) -> np.ndarray:
    return p * (y ** (p - 1.0) + (y + k + l) ** (p - 1.0)
                - (y + k) ** (p - 1.0) - (y + l) ** (p - 1.0))


def _panel_count(p: float, t: float, k, l, lo, hi) -> np.ndarray:
    """Even Simpson panel counts with _NODES_PER_PERIOD points per phase period.

    k, l, lo and hi may be arrays with one entry per shift cell; all cells
    are probed for max |psi'| in one array, 33 points per cell.  The
    degenerate exponents have a constant phase and keep the 512 floor.
    """
    k, l, lo, hi = (np.asarray(v, dtype=float) for v in (k, l, lo, hi))
    if p in DEGENERATE_P:
        n = np.full(lo.shape, 512)
    else:
        probe = _linspace_rows(lo, hi, 33)
        dmax = np.max(np.abs(_dpsi_values(probe, p, k[..., None], l[..., None])), axis=-1)
        x = _NODES_PER_PERIOD * (abs(t) * dmax * (hi - lo)) / (2.0 * math.pi)
        # x > 512 is False for NaN; counts past 2^62 exceed every budget anyway
        n = np.where(x > 512, np.minimum(x, 2.0**62), 512).astype(np.int64)
    return n + n % 2


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 on n + 1 points, without the 1/3."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def inner_integral(fam: PhaseFamily, t: float) -> complex:
    """I_{k,l}(t) by composite Simpson sized to the oscillation, with doubling.

    Panels carry at least _NODES_PER_PERIOD points per period of the
    running phase; the grid is doubled until the value is stable or the
    refinement budget is exhausted.
    """
    t = valid_finite("t", t)
    if abs(t) > 1e6:
        raise ValueError("modulation beyond the supported range |t| <= 1e6")
    p, k, l = fam.p, fam.k, fam.l
    lo, hi = fam.admissible_interval()
    if hi <= lo:
        return 0.0 + 0.0j
    n = int(_panel_count(p, t, k, l, lo, hi))
    prev = None
    while True:
        if n > _INNER_N_MAX:
            raise RuntimeError("oscillatory refinement budget exceeded")
        y = np.linspace(lo, hi, n + 1)
        amp = _window_product(y, k, l)
        f = amp * np.exp(1j * t * _phase_values(y, p, k, l))
        w = _simpson_weights(n)
        val = complex((hi - lo) / n / 3.0 * np.dot(w, f))
        # heavily cancelling integrals bottom out near _INNER_REL_TOL times the
        # amplitude mass in absolute terms; demanding relative accuracy of
        # a value that small would never terminate
        scale = max(abs(val), 1e-4 * (hi - lo) / n / 3.0 * float(np.dot(w, amp)), 1e-300)
        if prev is not None and abs(val - prev) <= _INNER_REL_TOL * scale:
            return val
        prev = val
        n *= 2


def _shift_cells(p: float, t: float, ks: Sequence[float], ls: Sequence[float]) -> list:
    """|I_{k,l}(t)|^2 for each shift pair (k, l) by composite Simpson at the
    panel count sized to the oscillation.

    Every panel count is fixed, and checked against the budget, before any
    cell is evaluated.  The Simpson nodes of consecutive cells then share one
    flat array of at most _CHUNK_POINTS nodes (a larger cell fills one on its
    own).  Each cell keeps the nodes np.linspace(lo, hi, n + 1) gives,
    i * (hi - lo) / n + lo with the last node at hi, and its own dot product,
    so its value does not depend on the cells it is evaluated with.
    """
    ks = np.asarray(ks, dtype=float)
    ls = np.asarray(ls, dtype=float)
    lo, hi = _admissible_interval(ks, ls)
    cells = np.flatnonzero(hi > lo)  # positions of the admissible cells
    lo, hi = lo[cells], hi[cells]
    panels = _panel_count(p, t, ks[cells], ls[cells], lo, hi)
    if np.any(panels > _CELL_N_MAX):
        raise RuntimeError("oscillatory budget exceeded at the requested modulation")
    sizes = (panels + 1).tolist()
    out = [0.0] * len(ks)
    weights = {}  # Simpson weights / 3 by panel count
    start = 0
    while start < len(sizes):
        stop, points = start + 1, sizes[start]
        while stop < len(sizes) and points + sizes[stop] <= _CHUNK_POINTS:
            points += sizes[stop]
            stop += 1
        pos, lo_c, hi_c, n = cells[start:stop], lo[start:stop], hi[start:stop], panels[start:stop]
        size = n + 1
        first = np.cumsum(size) - size  # offset of each cell's first node
        y = ((np.arange(points) - np.repeat(first, size)) * np.repeat((hi_c - lo_c) / n, size)
             + np.repeat(lo_c, size))
        y[first + n] = hi_c
        k = np.repeat(ks[pos], size)
        l = np.repeat(ls[pos], size)
        f = _window_product(y, k, l) * np.exp(1j * t * _phase_values(y, p, k, l))
        for c, a, b, n_c, s in zip(pos.tolist(), lo_c, hi_c, n.tolist(), first.tolist()):
            if n_c not in weights:
                weights[n_c] = _simpson_weights(n_c) / 3.0
            val = (b - a) / n_c * np.dot(weights[n_c], f[s:s + n_c + 1])
            out[c] = val.real**2 + val.imag**2
        start = stop
    return out


def i_of_t(p, t: float, n_kl: int = 48) -> float:
    """Truncated shift aggregate I(t) by tensor Gauss-Legendre over the shift square.

    Nonnegative by construction.  At t = 0 it reduces to the windowed
    difference-cube mass with the same shift truncation, which the lattice
    path below reproduces independently.

    Only the fundamental domain j <= i, i + j <= n_kl - 1 of the node grid
    is evaluated.  The cell values obey |I_{k,l}|^2 = |I_{l,k}|^2 and
    |I_{k,l}|^2 = |I_{-k,-l}|^2 (substitute z = y - k - l), and the
    Gauss-Legendre nodes and weights are symmetric about 0, so a cell
    stands for its orbit: 4 cells in general, 2 on the diagonal or the
    anti-diagonal, 1 at the centre when n_kl is odd.
    """
    t = valid_finite("t", t)
    pv = valid_exponent(p)
    n_kl = valid_count("n_kl", n_kl)
    x, w = np.polynomial.legendre.leggauss(n_kl)
    ks = KL_HALF * x
    wk = KL_HALF * w
    domain = [(i, j) for i in range(n_kl) for j in range(min(i, n_kl - 1 - i) + 1)]
    cells = iter(_shift_cells(pv, t, [ks[i] for i, _ in domain], [ks[j] for _, j in domain]))
    total = 0.0
    for i, wa in enumerate(wk):
        row = 0.0
        for j in range(min(i, n_kl - 1 - i) + 1):
            mult = (1.0 if j == i else 2.0) * (1.0 if i + j == n_kl - 1 else 2.0)
            row += mult * wk[j] * next(cells)
        total += wa * row
    return float(total)


def i_of_t_lattice(p, t: float, n_kl: int = 64, n_y: int = 4096) -> float:
    """Lattice oracle for the same truncated aggregate.

    All shifts live on a common uniform grid, so each inner integral is a
    shifted-product Riemann sum of one precomputed modulated window vector;
    no Gauss nodes and no adaptive panels are shared with the primary path.
    """
    pv = valid_exponent(p)
    t = valid_finite("t", t)
    n_kl = valid_count("n_kl", n_kl)
    n_y = valid_count("n_y", n_y)
    h_kl = 2.0 * KL_HALF / n_kl
    span_lo = RISE_LO - 2.0 * KL_HALF
    span_hi = FALL_HI
    hy = h_kl / max(1, int(round(h_kl / ((span_hi - span_lo) / n_y))))
    ny = int(round((span_hi - span_lo) / hy)) + 1
    y = span_lo + hy * np.arange(ny)
    amp = phi_plus(y)
    pos = y > 0.0
    E = np.zeros(ny, dtype=complex)
    E[pos] = amp[pos] * np.exp(1j * t * y[pos] ** pv)
    step = int(round(h_kl / hy))
    offs = (np.arange(n_kl) - n_kl // 2) * step + step // 2  # midpoint shift lattice
    total = 0.0
    for ia in offs:
        for ib in offs:
            lo_off = max(0, -ia, -ib, -(ia + ib))
            hi_off = min(ny, ny - ia, ny - ib, ny - (ia + ib))
            if hi_off <= lo_off:
                continue
            sl = slice(lo_off, hi_off)
            prod = (E[sl] * np.conj(E[lo_off + ia:hi_off + ia])
                    * np.conj(E[lo_off + ib:hi_off + ib])
                    * E[lo_off + ia + ib:hi_off + ia + ib])
            v = hy * prod.sum()
            total += (v.real**2 + v.imag**2)
    return float(total * h_kl * h_kl)


def decay_index(p) -> float:
    """The decay index r = max(p + 1, 2p - 1) of I(t) ~ t^(-1/r)."""
    p = valid_exponent(p)
    return p + 1.0 if p < 2.0 else 2.0 * p - 1.0


@dataclass
class DecayFit:
    t_samples: list
    values: list
    slope: float
    r_theory: float
    c_fit: float
    degenerate: bool

    def envelope_rows(self) -> list:
        """[t, |I(t)|, c_fit t^(-1/r)] at each sampled t."""
        return [[t, v, self.c_fit * t ** (-1.0 / self.r_theory)]
                for t, v in zip(self.t_samples, self.values)]


def decay_fit(p, n_kl: int = 48) -> DecayFit:
    """Log-log decay slope of I(t) at _DECAY_T with the one-sided envelope constant.

    The envelope c t^(-1/r) is calibrated as the smallest constant covering
    every sample; measured decay may be strictly faster than 1/r, so only
    the one-sided comparison is meaningful.
    """
    pv = valid_exponent(p)
    ts = list(_DECAY_T)
    # the largest t first: it costs the most, so a config over the I(t) budget fails at once
    vals = [i_of_t(pv, t, n_kl=n_kl) for t in reversed(ts)][::-1]
    if max(vals) < 1e-12:
        raise RuntimeError("all values below the quadrature noise floor; fit degenerate")
    slope = float(np.polyfit(np.log(ts), np.log(np.maximum(vals, 1e-300)), 1)[0])
    r = decay_index(pv)
    c_fit = float(max(v * t ** (1.0 / r) for v, t in zip(vals, ts)))
    return DecayFit(t_samples=ts, values=vals, slope=slope, r_theory=r, c_fit=c_fit,
                    degenerate=pv in DEGENERATE_P)


@dataclass
class StationaryBound:
    min_abs_dpsi: float
    degenerate: bool


def stationary_lower_bound_check(p, eta: float) -> StationaryBound:
    """Grid minimum of |psi'| over shifts with |k|, |l| in [eta, 1/2].

    Evaluation points keep all four shifted arguments inside the support
    window truncated at eta.  For the degenerate p in {1, 2} the derivative
    vanishes identically and the degenerate flag is set.
    """
    pv = valid_exponent(p)
    if not (0.0 < eta < 0.5):
        raise ValueError("eta must lie in (0, 0.5)")
    if pv in DEGENERATE_P:
        return StationaryBound(min_abs_dpsi=0.0, degenerate=True)
    mags = np.linspace(eta, KL_HALF, _STATIONARY_GRID)
    signs = np.array([-1.0, 1.0])
    kl_vals = (signs[:, None] * mags[None, :]).ravel()
    k, l = (v.ravel() for v in np.meshgrid(kl_vals, kl_vals, indexing="ij"))
    lo, hi = _admissible_interval(k, l, rise=max(RISE_LO, eta))
    keep = hi > lo
    k, l, lo, hi = k[keep], l[keep], lo[keep], hi[keep]
    nodes = 640
    block = max(1, _CHUNK_POINTS // nodes)  # shift pairs per array pass
    mins = np.empty(k.size)
    for s in range(0, k.size, block):
        c = slice(s, s + block)
        y = _linspace_rows(lo[c], hi[c], nodes)
        mins[c] = np.min(np.abs(_dpsi_values(y, pv, k[c, None], l[c, None])), axis=1)
    return StationaryBound(min_abs_dpsi=float(np.min(mins, initial=np.inf)), degenerate=False)


def lacunary_sum_bound(mu: Sequence[float], k: int = 1) -> tuple[float, float, float]:
    """(sum of min(mu, 1/mu), sum of mu^k (1+mu)^-(k+1), certified cap 4).

    Both sums are geometrically dominated on each side of mu = 1 for any
    at-least-doubling positive sequence, hence bounded by 4 uniformly in
    the sequence length.
    """
    mu = valid_lacunary("mu", mu)
    k = valid_count("k", k)
    s1 = math.fsum(min(v, 1.0 / v) for v in mu)
    s2 = math.fsum(v**k * (1.0 + v) ** (-(k + 1)) for v in mu)
    return s1, s2, 4.0


# ---------------------------------------------------------------------------
# bilinear multiplier audit
# ---------------------------------------------------------------------------


@dataclass
class TransformTable:
    """Cubic-spline table of the unit cancelled kernel's cosine transform (d = 1).

    The spline is the uniform cubic B-spline interpolant through the knots
    u_k = k step, with mirror boundaries: the transform is even, so the
    mirror at u = 0 is exact.  Large-argument values beyond the tabulated
    range are treated as zero; the transform decays at least like
    |u|^-(p+1) there.
    """

    u_max: float
    _step: float
    _coef: np.ndarray  # B-spline coefficients of knots -1 .. K+1, mirrored at both ends

    def khat(self, u: np.ndarray) -> np.ndarray:
        """Transform of the unit cancelled kernel at argument u (real, even)."""
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        ok = u <= self.u_max
        x = u[ok] / self._step
        i = np.minimum(x.astype(int), self._coef.size - 4)  # the last interval takes u_max
        t = x - i
        s = 1.0 - t
        c = self._coef
        out[ok] = (s**3 * c[i] + (4.0 - 6.0 * t * t + 3.0 * t**3) * c[i + 1]
                   + (4.0 - 6.0 * s * s + 3.0 * s**3) * c[i + 2] + t**3 * c[i + 3]) / 6.0
        return out


def _dct1(x: np.ndarray, n: int) -> np.ndarray:
    """DCT-I of x zero-padded to length n >= x.size, x_0 + (-1)^k x_{n-1} + 2 sum_{0<j<n-1} x_j
    cos(pi j k / (n-1)), as the real FFT of the even extension of the padded x; the extension is
    built from x alone, so no padded copy of length n exists."""
    ext = np.zeros(2 * (n - 1))
    ext[:x.size] = x
    ext[ext.size + 1 - x.size:] = x[:0:-1]  # x_j at 2(n-1) - j; rewrites x_{n-1} if x.size = n
    return np.fft.rfft(ext).real


def build_transform_table(p, eps: float, m: MollifierPair) -> TransformTable:
    pv = valid_exponent(p)
    L = math.pi / 0.02  # frequency spacing of the cosine table
    n_r = _TABLE_INTERVALS + 1
    dr = L / _TABLE_INTERVALS  # the step of np.linspace(0, L, n_r), which r_j = j dr reproduces
    # the kernel is exactly 0.0 past its union support radius, so only the radii up to the first
    # knot at or beyond it are evaluated; the DCT-I pads the rest with zeros
    n_support = math.ceil(KernelParams(pv, 1, 1.0, 1.0).support_radius / dr) + 1
    r = dr * np.arange(n_support)
    prof = build_cancelled_kernel(KernelParams(pv, 1, 1.0, eps), m)(r[:, None])
    # cosine transform on the padded grid: spectrum at u_k = pi k / L
    spec = dr * _dct1(prof, n_r)
    us = math.pi / L * np.arange(n_r)
    keep = us <= min(_TABLE_U_MAX, us[-1])
    # interpolating B-spline coefficients: the inverse of the filter (1, 4, 1)/6, truncated
    coef = np.convolve(np.pad(spec[keep], _SPLINE_TAPS, mode="reflect"), _SPLINE_FILTER,
                       mode="valid")
    return TransformTable(u_max=float(us[keep][-1]), _step=float(us[1]),
                          _coef=np.pad(coef, 1, mode="reflect"))


_GAMMA_ROWS = np.array([[1.0, -1.0, 1.0],  # xi1 - xi2 + xi3
                        [1.0, 0.0, 2.0]])  # xi1 + 2 xi3


def dist_to_degenerate_subspace(xi: np.ndarray) -> float:
    """Euclidean distance from (xi1, xi2, xi3) to the plane where both functionals vanish."""
    A = _GAMMA_ROWS
    proj = A.T @ np.linalg.solve(A @ A.T, A @ xi)
    return float(np.linalg.norm(proj))


def _multiplier_arguments(xi: np.ndarray) -> tuple[float, float]:
    """The two functionals (eta, zeta) = (-xi1 + xi2 - xi3, xi1 + 2 xi3) that k-hat samples."""
    return -xi[0] + xi[1] - xi[2], xi[0] + 2.0 * xi[2]


def multiplier_value(xi: np.ndarray, lambdas: Sequence[float], table: TransformTable) -> float:
    eta, zeta = _multiplier_arguments(np.asarray(xi, dtype=float))
    lams = np.asarray(lambdas, dtype=float)
    return float(np.sum(table.khat(lams * eta) * table.khat(lams * zeta)))


@dataclass
class MultiplierAudit:
    abs_m: float
    grad_magnitude: float
    dist: float


def multiplier_check(xi1: float, xi2: float, xi3: float, lambdas: Sequence[float],
                     table: TransformTable) -> MultiplierAudit:
    """|m|, a central finite-difference |grad m|, and the distance to the
    degenerate frequency plane, at one scalar frequency triple (d = 1).

    The step is dist/100 so the difference quotient tracks the blowup
    scale; points within 1e-6 of the plane are rejected.
    """
    xi = np.array([valid_finite(f"xi{i}", v) for i, v in enumerate((xi1, xi2, xi3), 1)])
    lams = valid_lacunary("lambdas", lambdas)
    if len(lams) > 12:
        raise ValueError("audit supports at most 12 scales")
    dist = dist_to_degenerate_subspace(xi)
    if dist < 1e-6:
        raise ValueError("frequency too close to the degenerate plane for a gradient step")
    step = dist / 100.0
    val = multiplier_value(xi, lams, table)
    grad = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = step
        grad[i] = (multiplier_value(xi + e, lams, table)
                   - multiplier_value(xi - e, lams, table)) / (2.0 * step)
    return MultiplierAudit(abs_m=abs(val), grad_magnitude=float(np.linalg.norm(grad)),
                           dist=dist)
