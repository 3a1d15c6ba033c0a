"""The smooth window pair and the shell kernels built from it.

The pair (psi, psi_hat) is generated from b(t) = (1-t^2)^2 on [-1,1]:

    g(x)      = integral of b(t) cos(xt) over [-1,1]
    psi(x)    = (g(x)/g(0))^2
    psi_hat(u)= 2 pi (b conv b)(u) / g(0)^2

Under the convention psi_hat(u) = integral of psi(s) e^{isu} ds these are
exact transforms of each other.  By construction psi(0) = 1, 0 <= psi <= 1
(since b >= 0 forces |g| <= g(0)), psi_hat >= 0, and supp psi_hat = [-2, 2].
The peak value psi_hat(0) = 10 pi / 7 exceeds 1.

Shell kernels at radius lam and width eps:

    omega_eps_lam(y) = lam^-d eps^-1 psi_hat((||y/lam||_p^p - 1)/eps)

with omega = the eps = 1 case.  The cancelled kernel subtracts the
mass-matching multiple c1(eps) of omega so that its integral vanishes.
Kernel integrals, and the transform (d = 1 only), use one radial
Gauss-Legendre rule with panel edges at the shell edges; the d = 2 full-box
oracle of forms uses the positive-quadrant tensor rule.  The closed
form's independent oracle, omega_eps_direct_oscillatory, integrates the
window psi itself against the oscillation, on composite Gauss-Legendre
panels short enough for both; it never evaluates psi_hat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lpgeom import unit_ball_volume, valid_exponent
from .util import spawn_rng, valid_count, valid_scale

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
    """The window psi and its transform psi_hat."""

    psi: Callable[[np.ndarray], np.ndarray]
    psi_hat: Callable[[np.ndarray], np.ndarray]


def build_mollifier() -> MollifierPair:
    return MollifierPair(psi=lambda x: (_g_window(x) / _G0) ** 2,
                         psi_hat=lambda u: 2.0 * np.pi * _b_autoconv(u) / _G0**2)


@dataclass(frozen=True)
class KernelParams:
    p: float
    d: int
    lam: float = 1.0
    eps: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "p", valid_exponent(self.p))
        object.__setattr__(self, "d", valid_count("d", self.d))
        if not (0.0 < self.eps <= 1.0):
            raise ValueError(f"width must lie in (0, 1], got {self.eps}")
        object.__setattr__(self, "lam", valid_scale("lam", self.lam))

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
    return lam * np.array(sorted(set(us))) ** (1.0 / p)


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
    num = kernel_total_mass(KernelParams(p, d, 1.0, eps), m)
    den = kernel_total_mass(KernelParams(p, d, 1.0, 1.0), m)
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


def kernel_fourier(eta, params: KernelParams, m: MollifierPair) -> float:
    """Fourier transform of the cancelled kernel, convention fhat(eta) = int f(y) e^{-i y.eta} dy.

    Direct quadrature over the compact support by the radial rule, d = 1 only.
    The kernel is real and even, so the transform is real.
    """
    if params.d != 1:
        raise ValueError(f"d must be 1 for the transform, got {params.d}")
    if not np.all(np.isfinite(eta)):
        raise ValueError(f"frequency must be finite: {eta}")
    kern = build_cancelled_kernel(params, m)
    w = float(np.atleast_1d(eta)[0])
    r, wq = _radial_rule(_shell_edges(params.p, params.eps, params.lam, cancelled=True), w)
    return 2.0 * float(np.sum(wq * kern(r[:, None]) * np.cos(w * r)))


def omega_eps_direct_oscillatory(y, params: KernelParams, m: MollifierPair) -> float:
    """Independent kernel evaluation from the oscillatory definition.

    Computes int e^{it(||y||_p^p - lam^p)} psi(eps lam^p t) dt by real cosine
    quadrature (psi is even), for cross-checking the closed form.  The
    integrand psi(s) cos(v s) carries frequencies up to |v| + 2 (psi_hat
    vanishes beyond 2), so the radial rule's panels at that frequency resolve
    both factors.  Past _DIRECT_T_CUT, psi(s) <= 240 s^-6, so the cut tail of
    the s integral is below 2e-10.
    """
    y = np.asarray(y, dtype=float)
    u = np.sum(np.abs(y / params.lam) ** params.p)
    v = (u - 1.0) / params.eps
    s, w = _radial_rule(np.array([0.0, _DIRECT_T_CUT]), abs(v) + 2.0)
    val = float(np.sum(w * m.psi(s) * np.cos(v * s)))
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
