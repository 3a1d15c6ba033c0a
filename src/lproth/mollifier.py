"""The smooth window pair and the shell kernels built from it.

The pair (psi, psi_hat) is generated from b(t) = (1-t^2)^2 on [-1,1]:

    g(x)      = integral of b(t) cos(xt) over [-1,1]
    psi(x)    = (g(x)/g(0))^2
    psi_hat(u)= 2 pi (b conv b)(u) / g(0)^2

Under the convention psi_hat(u) = integral of psi(s) e^{isu} ds these are
exact transforms of each other.  By construction psi(0) = 1, 0 <= psi <= 1
(since b >= 0 forces |g| <= g(0)), psi_hat >= 0, and supp psi_hat = [-2, 2].
The peak value M_psi = psi_hat(0) = 10 pi / 7 exceeds 1; it is tracked
explicitly and scales every bound that would otherwise assume a unit cap.

Shell kernels at radius lam and width eps:

    omega_eps_lam(y) = lam^-d eps^-1 psi_hat((||y/lam||_p^p - 1)/eps)

with omega = the eps = 1 case.  The cancelled kernel subtracts the
mass-matching multiple c1(eps) of omega so that its integral vanishes.
Kernel integrals use one radial Gauss-Legendre rule with panel edges at the
shell edges, or in d = 2 one positive-quadrant tensor rule; only the closed
form's independent oracle, omega_eps_direct_oscillatory, keeps adaptive quad.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .lpgeom import _as_p, unit_ball_volume
from .util import spawn_rng

_G0 = 16.0 / 15.0  # g(0) = integral of (1-t^2)^2
_DIRECT_T_CUT = 200.0  # upper limit of the t integral in omega_eps_direct_oscillatory
_PROFILE_ROWS = 400  # sample rows of the exported kernel and window profiles
_PANEL_NODES = 48  # Gauss-Legendre nodes per panel of the radial rule
_PANEL_PHASE = 4.0 * math.pi  # largest phase of cos(omega r) across one radial panel
_RADIAL_N_MAX = 1 << 20  # node budget of the radial rule


def _g_window(x):
    """g(x) = integral of (1-t^2)^2 cos(xt) dt, series below |x|=0.5, closed form above."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    xs = x[small]
    acc = np.zeros_like(xs)
    term_pow = np.ones_like(xs)
    x2 = xs * xs
    fact = 1.0
    for k in range(12):
        denom = (2 * k + 1) * (2 * k + 3) * (2 * k + 5)
        acc += ((-1.0) ** k) * 16.0 * term_pow / (fact * denom)
        term_pow = term_pow * x2
        fact *= (2 * k + 1) * (2 * k + 2)
    out[small] = acc
    xl = x[~small]
    out[~small] = ((48.0 - 16.0 * xl**2) * np.sin(xl) - 48.0 * xl * np.cos(xl)) / xl**5
    return out


_GL_X, _GL_W = np.polynomial.legendre.leggauss(6)
_PANEL_X, _PANEL_W = np.polynomial.legendre.leggauss(_PANEL_NODES)


def _b_autoconv(u):
    """(b conv b)(u) for b(t) = (1-t^2)^2 1_[-1,1]; 6-point Gauss is exact (degree-8 integrand)."""
    u = np.abs(np.asarray(u, dtype=float))
    out = np.zeros_like(u)
    msk = u < 2.0
    uu = u[msk]
    lo = uu - 1.0
    half = 0.5 * (1.0 - lo)
    mid = 0.5 * (1.0 + lo)
    t = half[:, None] * _GL_X[None, :] + mid[:, None]
    b1 = np.clip(1.0 - t * t, 0.0, None) ** 2
    s = uu[:, None] - t
    b2 = np.clip(1.0 - s * s, 0.0, None) ** 2
    out[msk] = half * np.sum(_GL_W[None, :] * b1 * b2, axis=1)
    return out


@dataclass(frozen=True)
class MollifierPair:
    """Window pair with its tracked constants.

    tau, c_low: psi_hat(u) >= c_low for |u| <= tau.  M_psi: sup of psi_hat.
    """

    psi: Callable[[np.ndarray], np.ndarray]
    psi_hat: Callable[[np.ndarray], np.ndarray]
    tau: float
    c_low: float
    M_psi: float


def build_mollifier() -> MollifierPair:
    psi = lambda x: (_g_window(x) / _G0) ** 2
    psi_hat = lambda u: 2.0 * np.pi * _b_autoconv(u) / _G0**2
    tau = 1.0
    # psi_hat is even and unimodal (b is log-concave), so the minimum over
    # |u| <= tau sits at the endpoint; evaluate on a grid as a guard anyway
    grid = np.linspace(0.0, tau, 2001)
    c_low = float(np.min(psi_hat(grid)))
    m_psi = float(psi_hat(np.array([0.0]))[0])
    return MollifierPair(psi=psi, psi_hat=psi_hat, tau=tau, c_low=c_low, M_psi=m_psi)


@dataclass(frozen=True)
class KernelParams:
    p: float
    d: int
    lam: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"width must lie in (0, 1], got {self.eps}")
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"radius must be positive and finite, got {self.lam}")
        if not math.isfinite(self.p):
            raise ValueError(f"exponent must be finite, got {self.p}")

    @property
    def support_radius(self) -> float:
        """Kernel vanishes for ||y||_p beyond this."""
        return self.lam * (1.0 + 2.0 * self.eps) ** (1.0 / self.p)


def omega_eps_eval(y, params: KernelParams, m: MollifierPair):
    """Pointwise kernel value lam^-d eps^-1 psi_hat((||y/lam||_p^p - 1)/eps).

    Accepts a single coordinate vector or an (n, d) batch.
    """
    y = np.asarray(y, dtype=float)
    batch = y.ndim == 2
    ys = y if batch else y[None, :]
    u = np.sum(np.abs(ys / params.lam) ** params.p, axis=1)
    vals = (params.lam ** (-params.d) / params.eps) * m.psi_hat((u - 1.0) / params.eps)
    return vals if batch else float(vals[0])


def _shell_edges(p: float, eps: float, lam: float = 1.0, cancelled: bool = False) -> np.ndarray:
    """Radii lam u^(1/p) at the kinks u = 1-2eps (clipped at 0), 1, 1+2eps; cancelled adds 0, 3."""
    us = [max(0.0, 1.0 - 2.0 * eps), 1.0, 1.0 + 2.0 * eps] + ([0.0, 3.0] if cancelled else [])
    return lam * np.unique(us) ** (1.0 / p)


def _radial_rule(edges: np.ndarray, omega: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [edges[0], edges[-1]]: each gap is cut
    into equal panels spanning at most _PANEL_PHASE radians of cos(omega r), and a panel
    starting at r = 0 is mapped by r = b s^2, which smooths the r^p kink there."""
    counts = [1 + int(abs(omega) * (b - a) / _PANEL_PHASE) for a, b in zip(edges[:-1], edges[1:])]
    if sum(counts) * _PANEL_NODES > _RADIAL_N_MAX:
        raise RuntimeError(f"radial rule budget exceeded at frequency {omega}")
    cuts = np.concatenate([np.linspace(a, b, k + 1)[:-1]
                           for a, b, k in zip(edges[:-1], edges[1:], counts)] + [edges[-1:]])
    a, b = cuts[:-1, None], cuts[1:, None]
    t = 0.5 * (_PANEL_X + 1.0)
    r = np.where(a == 0.0, b * t * t, a + (b - a) * t)
    w = np.where(a == 0.0, b * t * _PANEL_W, 0.5 * (b - a) * _PANEL_W)
    return r.ravel(), w.ravel()


def _quadrant_integral(kernel: Callable, weight: Callable, R: float, n_min: float) -> float:
    """4 x the tensor Gauss-Legendre integral of kernel * weight over [0, R]^2 for a kernel even
    in each y_i (its |y_i|^p kink then sits on the boundary); n_min in [400, 1400] per axis."""
    n = int(min(1400, max(400, n_min)))
    x, wq = np.polynomial.legendre.leggauss(n)
    pts1 = 0.5 * R * (x + 1.0)
    w1 = 0.5 * R * wq
    Y1, Y2 = np.meshgrid(pts1, pts1, indexing="ij")
    vals = kernel(np.column_stack([Y1.ravel(), Y2.ravel()])).reshape(n, n)
    return float(4.0 * np.sum(vals * weight(Y1, Y2) * np.outer(w1, w1)))


def radial_mass(profile: Callable, p: float, d: int, edges: np.ndarray) -> float:
    """integral over R^d of F(||y||_p^p) via polar reduction d nu_p int F(s^p) s^(d-1) ds."""
    s, w = _radial_rule(edges)
    return d * unit_ball_volume(p, d) * float(np.sum(w * profile(s**p) * s ** (d - 1)))


def kernel_total_mass(params: KernelParams, m: MollifierPair) -> float:
    """integral of omega_eps_lam over R^d; the lam^-d prefactor and the lam^d of
    the substitution y = lam s cancel, so the unit-radius integral is the mass."""
    prof = lambda u: m.psi_hat((u - 1.0) / params.eps) / params.eps
    return radial_mass(prof, params.p, params.d, _shell_edges(params.p, params.eps))


def kernel_mass_mc(params: KernelParams, m: MollifierPair, n: int = 10**6,
                   seed: int = 0) -> tuple[float, float]:
    """Monte Carlo oracle for the kernel mass: (estimate, standard error)."""
    rng = spawn_rng(seed, 7)
    R = params.support_radius
    pts = rng.uniform(-R, R, size=(n, params.d))
    vals = omega_eps_eval(pts, params, m)
    vol = (2.0 * R) ** params.d
    est = vol * float(np.mean(vals))
    se = vol * float(np.std(vals) / np.sqrt(n))
    return est, se


def c1_eps(eps: float, p, d: int, m: MollifierPair) -> float:
    """Mass ratio c1(eps): integral of omega_eps over integral of omega; c1(1) = 1 exactly."""
    pv = _as_p(p)
    num = kernel_total_mass(KernelParams(pv, d, 1.0, eps), m)
    den = kernel_total_mass(KernelParams(pv, d, 1.0, 1.0), m)
    return num / den


@dataclass
class CancelledKernel:
    """omega_eps_lam - c1(eps) omega_lam, with the normalizer frozen at build time."""

    params: KernelParams
    c1: float
    m: MollifierPair

    def __call__(self, y):
        p = self.params
        y = np.asarray(y, dtype=float)
        batch = y.ndim == 2
        ys = y if batch else y[None, :]
        u = np.sum(np.abs(ys / p.lam) ** p.p, axis=1)
        hat = self.m.psi_hat
        vals = p.lam ** (-p.d) * (hat((u - 1.0) / p.eps) / p.eps - self.c1 * hat(u - 1.0))
        return vals if batch else float(vals[0])

    def total_integral(self) -> float:
        """One-pass quadrature of the fused kernel; should vanish to quadrature tolerance."""
        p = self.params
        prof = lambda u: (self.m.psi_hat((u - 1.0) / p.eps) / p.eps
                          - self.c1 * self.m.psi_hat(u - 1.0))
        return radial_mass(prof, p.p, p.d, _shell_edges(p.p, p.eps, cancelled=True))


def build_cancelled_kernel(params: KernelParams, m: MollifierPair) -> CancelledKernel:
    return CancelledKernel(params=params, c1=c1_eps(params.eps, params.p, params.d, m), m=m)


def kernel_fourier(eta, params: KernelParams, m: MollifierPair) -> complex:
    """Fourier transform of the cancelled kernel, convention fhat(eta) = int f(y) e^{-i y.eta} dy.

    Direct quadrature over the compact support, d <= 2 only (radial rule, quadrant rule).
    The kernel is real and even, so the transform is real; a zero imaginary part is
    returned for interface uniformity.
    """
    if params.d > 2:
        raise ValueError("direct transform quadrature supports d <= 2")
    if not np.all(np.isfinite(eta)):
        raise ValueError(f"frequency must be finite: {eta}")
    kern = build_cancelled_kernel(params, m)
    if params.d == 1:
        w = float(np.atleast_1d(eta)[0])
        r, wq = _radial_rule(_shell_edges(params.p, params.eps, params.lam, cancelled=True), w)
        return complex(2.0 * float(np.sum(wq * kern(r[:, None]) * np.cos(w * r))), 0.0)
    eta = np.asarray(eta, dtype=float)
    R = params.lam * 3.0 ** (1.0 / params.p)
    width = 2.0 * params.eps * params.lam / params.p
    n_min = max(24.0 * R / max(width, 1e-3), 4.0 * R * float(np.max(np.abs(eta))) / np.pi)
    osc = lambda Y1, Y2: np.cos(Y1 * eta[0]) * np.cos(Y2 * eta[1])
    return complex(_quadrant_integral(kern, osc, R, n_min), 0.0)


def omega_eps_direct_oscillatory(y, params: KernelParams, m: MollifierPair) -> float:
    """Independent kernel evaluation from the oscillatory definition.

    Computes int e^{it(||y||_p^p - lam^p)} psi(eps lam^p t) dt by real cosine
    quadrature (psi is even), for cross-checking the closed form.
    """
    y = np.asarray(y, dtype=float)
    u = np.sum(np.abs(y / params.lam) ** params.p)
    v = (u - 1.0) / params.eps
    psi_s = lambda s: float(m.psi(np.array([s]))[0])
    if v == 0.0:
        val, _ = integrate.quad(psi_s, 0.0, _DIRECT_T_CUT, limit=2000)
    else:
        val, _ = integrate.quad(psi_s, 0.0, _DIRECT_T_CUT, weight="cos", wvar=v, limit=8000)
    return params.lam ** (-params.d) / params.eps * 2.0 * val


def kernel_profile_rows(params: KernelParams, m: MollifierPair):
    """(r, omega_eps(r e1)) sample rows for CSV export."""
    R = params.support_radius * 1.05
    rs = np.linspace(0.0, R, _PROFILE_ROWS)
    pts = np.zeros((_PROFILE_ROWS, params.d))
    pts[:, 0] = rs
    vals = omega_eps_eval(pts, params, m)
    return np.column_stack([rs, vals])


def window_profile_rows(m: MollifierPair):
    """(u, psi_hat(u)) sample rows for CSV export."""
    us = np.linspace(-2.2, 2.2, _PROFILE_ROWS)
    return np.column_stack([us, m.psi_hat(us)])
