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
from scipy import fft as sfft
from scipy.interpolate import CubicSpline

from .bumps import FALL_HI, RISE_LO, phi_plus
from .lpgeom import LpExponent, _as_p
from .mollifier import KernelParams, MollifierPair, build_cancelled_kernel

KL_HALF = 0.5  # shifts are truncated to |k|, |l| <= 1/2
_NODES_PER_PERIOD = 16  # Simpson points per period of the running phase
_INNER_REL_TOL = 1e-8  # doubling stops once I_{k,l}(t) moves by less than this
_INNER_N_MAX = 1 << 22  # panel budget of inner_integral's doubling
_CELL_N_MAX = 1 << 21  # panel budget of one i_of_t shift cell
_STATIONARY_GRID = 40  # shift magnitudes per sign in stationary_lower_bound_check
_TABLE_U_MAX = 4000.0  # largest tabulated transform argument
_TABLE_R_STEP = 2.5e-4  # largest radial step of the cosine-transform grid
_GL24 = np.polynomial.legendre.leggauss(24)


def _admissible_interval(k: float, l: float, rise: float = RISE_LO) -> tuple[float, float]:
    """Points y where y, y+k, y+l and y+k+l all lie inside [rise, FALL_HI]."""
    lo = rise - min(0.0, k, l, k + l)
    hi = FALL_HI - max(0.0, k, l, k + l)
    return lo, hi


@dataclass(frozen=True)
class PhaseFamily:
    p: float
    k: float
    l: float

    def admissible_interval(self) -> tuple[float, float]:
        return _admissible_interval(self.k, self.l)

    def admissible(self, y) -> np.ndarray:
        lo, hi = self.admissible_interval()
        y = np.asarray(y, dtype=float)
        return (y >= lo) & (y <= hi)


def phase_eval(fam: PhaseFamily, y) -> tuple[float, float]:
    """(psi_{k,l}(y), psi'_{k,l}(y)) by the direct formulas."""
    y = float(y)
    if not bool(fam.admissible(y)):
        raise ValueError(f"y={y} leaves the admissible window for shifts ({fam.k}, {fam.l})")
    p, k, l = fam.p, fam.k, fam.l
    pts = np.array([y, y + k + l, y + k, y + l])
    sgn = np.array([1.0, 1.0, -1.0, -1.0])
    val = float(np.dot(sgn, pts**p))
    der = float(p * np.dot(sgn, pts ** (p - 1.0)))
    return val, der


def phase_eval_remainder(fam: PhaseFamily, y) -> tuple[float, float]:
    """Same pair through the double-integral remainder representation.

    psi  = k l p (p-1)       int_{[0,1]^2} (y + u k + s l)^(p-2) du ds
    psi' = k l p (p-1) (p-2) int_{[0,1]^2} (y + u k + s l)^(p-3) du ds

    evaluated with a 24^2 Gauss-Legendre rule; the base stays inside the
    admissible window so the integrand is smooth.
    """
    y = float(y)
    if not bool(fam.admissible(y)):
        raise ValueError("inadmissible evaluation point")
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


def _max_abs_dpsi(p: float, k: float, l: float, lo: float, hi: float) -> float:
    probe = np.linspace(lo, hi, 33)
    return float(np.max(np.abs(_dpsi_values(probe, p, k, l))))


def _panel_count(p: float, t: float, k: float, l: float, lo: float, hi: float,
                 nodes_per_period: int) -> int:
    """Even Simpson panel count with ``nodes_per_period`` points per phase period.

    The degenerate exponents have a constant phase and keep the 512 floor.
    """
    if p in (1.0, 2.0):
        n = 512
    else:
        prange = abs(t) * _max_abs_dpsi(p, k, l, lo, hi) * (hi - lo)
        n = int(max(512, nodes_per_period * prange / (2.0 * math.pi)))
    return n + n % 2


def _simpson_weights(n: int) -> np.ndarray:
    """Composite Simpson weights 1, 4, 2, ..., 4, 1 on n + 1 points, without the 1/3."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def inner_integral(fam: PhaseFamily, t: float, nodes_per_period: int = _NODES_PER_PERIOD) -> complex:
    """I_{k,l}(t) by composite Simpson sized to the oscillation, with doubling.

    Panels carry at least ``nodes_per_period`` points per period of the
    running phase; the grid is doubled until the value is stable or the
    refinement budget is exhausted.
    """
    if abs(t) > 1e6:
        raise ValueError("modulation beyond the supported range |t| <= 1e6")
    p, k, l = fam.p, fam.k, fam.l
    lo, hi = fam.admissible_interval()
    if hi <= lo:
        return 0.0 + 0.0j
    n = _panel_count(p, t, k, l, lo, hi, nodes_per_period)
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


def _shift_cell(p: float, t: float, k: float, l: float) -> float:
    """|I_{k,l}(t)|^2 by composite Simpson at the panel count sized to the oscillation."""
    lo, hi = _admissible_interval(k, l)
    if hi <= lo:
        return 0.0
    n = _panel_count(p, t, k, l, lo, hi, _NODES_PER_PERIOD)
    if n > _CELL_N_MAX:
        raise RuntimeError("oscillatory budget exceeded at the requested modulation")
    y = np.linspace(lo, hi, n + 1)
    f = _window_product(y, k, l) * np.exp(1j * t * _phase_values(y, p, k, l))
    val = (hi - lo) / n * np.dot(_simpson_weights(n) / 3.0, f)
    return val.real**2 + val.imag**2


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
    pv = _as_p(p)
    x, w = np.polynomial.legendre.leggauss(n_kl)
    ks = KL_HALF * x
    wk = KL_HALF * w
    total = 0.0
    for i, (a, wa) in enumerate(zip(ks, wk)):
        row = 0.0
        for j in range(min(i, n_kl - 1 - i) + 1):
            mult = (1.0 if j == i else 2.0) * (1.0 if i + j == n_kl - 1 else 2.0)
            row += mult * wk[j] * _shift_cell(pv, t, a, ks[j])
        total += wa * row
    return float(total)


def i_of_t_lattice(p, t: float, n_kl: int = 64, n_y: int = 4096) -> float:
    """Lattice oracle for the same truncated aggregate.

    All shifts live on a common uniform grid, so each inner integral is a
    shifted-product Riemann sum of one precomputed modulated window vector;
    no Gauss nodes and no adaptive panels are shared with the primary path.
    """
    pv = _as_p(p)
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


@dataclass
class DecayFit:
    t_samples: list
    values: list
    slope: float
    r_theory: float
    c_fit: float
    degenerate: bool


def decay_fit(p, t_samples: Sequence[float] | None = None, n_kl: int = 48) -> DecayFit:
    """Log-log decay slope of I(t) with the one-sided envelope constant.

    The envelope c t^(-1/r) is calibrated as the smallest constant covering
    every sample; measured decay may be strictly faster than 1/r, so only
    the one-sided comparison is meaningful.
    """
    pv = _as_p(p)
    if t_samples is None:
        t_samples = list(np.logspace(1.0, 4.0, 7))
    ts = [float(t) for t in t_samples]
    if len(ts) < 6:
        raise ValueError("need at least 6 modulation samples")
    if min(ts) < 10.0 or max(ts) > 1e5 or max(ts) / min(ts) < 99.0:
        raise ValueError("samples must span >= 2 decades inside [10, 1e5]")
    vals = [i_of_t(pv, t, n_kl=n_kl) for t in ts]
    if max(vals) < 1e-12:
        raise RuntimeError("all values below the quadrature noise floor; fit degenerate")
    slope = float(np.polyfit(np.log(ts), np.log(np.maximum(vals, 1e-300)), 1)[0])
    r = LpExponent(pv).r
    c_fit = float(max(v * t ** (1.0 / r) for v, t in zip(vals, ts)))
    return DecayFit(t_samples=ts, values=vals, slope=slope, r_theory=r, c_fit=c_fit,
                    degenerate=pv in (1.0, 2.0))


@dataclass
class StationaryBound:
    eta: float
    min_abs_dpsi: float
    min_normalized: float  # |psi'| / |k l|
    degenerate: bool


def stationary_lower_bound_check(p, eta: float) -> StationaryBound:
    """Grid minimum of |psi'| over shifts with |k|, |l| in [eta, 1/2].

    Evaluation points keep all four shifted arguments inside the support
    window truncated at eta.  For p = 2 the derivative vanishes identically
    and the degenerate flag is set.
    """
    pv = _as_p(p)
    if not (0.0 < eta < 0.5):
        raise ValueError("eta must lie in (0, 0.5)")
    if pv == 2.0:
        return StationaryBound(eta=eta, min_abs_dpsi=0.0, min_normalized=0.0, degenerate=True)
    mags = np.linspace(eta, KL_HALF, _STATIONARY_GRID)
    signs = np.array([-1.0, 1.0])
    kl_vals = (signs[:, None] * mags[None, :]).ravel()
    lo_supp = max(RISE_LO, eta)
    best = np.inf
    best_norm = np.inf
    for k in kl_vals:
        for l in kl_vals:
            lo, hi = _admissible_interval(k, l, rise=lo_supp)
            if hi <= lo:
                continue
            y = np.linspace(lo, hi, 640)
            der = np.abs(_dpsi_values(y, pv, k, l))
            mn = float(np.min(der))
            best = min(best, mn)
            best_norm = min(best_norm, mn / abs(k * l))
    return StationaryBound(eta=eta, min_abs_dpsi=best, min_normalized=best_norm,
                           degenerate=False)


def fit_stationary_exponent(p, etas: Sequence[float]) -> tuple[float, list]:
    """Least-squares exponent of min |psi'| against eta."""
    mins = [stationary_lower_bound_check(p, e).min_abs_dpsi for e in etas]
    coef = np.polyfit(np.log(etas), np.log(mins), 1)
    return float(coef[0]), mins


def lacunary_sum_bound(mu: Sequence[float], k: int = 1) -> tuple[float, float, float]:
    """(sum of min(mu, 1/mu), sum of mu^k (1+mu)^-(k+1), certified cap 4).

    Both sums are geometrically dominated on each side of mu = 1 for any
    at-least-doubling positive sequence, hence bounded by 4 uniformly in
    the sequence length.
    """
    mu = [float(v) for v in mu]
    if any(v <= 0.0 for v in mu):
        raise ValueError("sequence must be positive")
    if k < 1:
        raise ValueError("weight order must be >= 1")
    for a, b in zip(mu, mu[1:]):
        if b < 2.0 * a:
            raise ValueError("sequence must at least double at each step")
    s1 = math.fsum(min(v, 1.0 / v) for v in mu)
    s2 = math.fsum(v**k * (1.0 + v) ** (-(k + 1)) for v in mu)
    return s1, s2, 4.0


# ---------------------------------------------------------------------------
# bilinear multiplier audit
# ---------------------------------------------------------------------------


@dataclass
class TransformTable:
    """Cubic-spline table of the unit cancelled kernel's cosine transform (d = 1).

    Large-argument values beyond the tabulated range are treated as zero;
    the transform decays at least like |u|^-(p+1) there.
    """

    u_max: float
    _spline: CubicSpline

    def khat(self, u: np.ndarray) -> np.ndarray:
        """Transform of the unit cancelled kernel at argument u (real, even)."""
        u = np.abs(np.asarray(u, dtype=float))
        out = np.zeros_like(u)
        ok = u <= self.u_max
        out[ok] = self._spline(u[ok])
        return out


def build_transform_table(p, eps: float, m: MollifierPair) -> TransformTable:
    pv = _as_p(p)
    L = math.pi / 0.02  # frequency spacing of the cosine table
    # a smooth interval count keeps the DCT-I fast; scale by the real step, not _TABLE_R_STEP
    n_r = sfft.next_fast_len(math.ceil(L / _TABLE_R_STEP), real=True) + 1
    r = np.linspace(0.0, L, n_r)
    prof = build_cancelled_kernel(KernelParams(pv, 1, 1.0, eps), m)(r[:, None])  # 0 past 3^(1/p)
    # cosine transform on the padded grid: spectrum at u_k = pi k / L
    spec = (r[1] - r[0]) * sfft.dct(prof, type=1)
    us = math.pi / L * np.arange(n_r)
    keep = us <= min(_TABLE_U_MAX, us[-1])
    return TransformTable(u_max=float(us[keep][-1]), _spline=CubicSpline(us[keep], spec[keep]))


_GAMMA_ROWS = np.array([[1.0, -1.0, 1.0],  # xi1 - xi2 + xi3
                        [1.0, 0.0, 2.0]])  # xi1 + 2 xi3


def dist_to_degenerate_subspace(xi: np.ndarray) -> float:
    """Euclidean distance from (xi1, xi2, xi3) to the plane where both functionals vanish."""
    A = _GAMMA_ROWS
    proj = A.T @ np.linalg.solve(A @ A.T, A @ xi)
    return float(np.linalg.norm(proj))


def multiplier_value(xi: np.ndarray, lambdas: Sequence[float], table: TransformTable) -> float:
    xi = np.asarray(xi, dtype=float)
    eta = -xi[0] + xi[1] - xi[2]
    zeta = xi[0] + 2.0 * xi[2]
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
    lams = [float(v) for v in lambdas]
    if len(lams) > 12:
        raise ValueError("audit supports at most 12 scales")
    for a, b in zip(lams, lams[1:]):
        if b < 2.0 * a:
            raise ValueError("scales must be lacunary (at least doubling)")
    xi = np.array([xi1, xi2, xi3], dtype=float)
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
