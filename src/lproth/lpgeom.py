"""lp norms, balls, and quadrature for the normalized surface measure on lp spheres.

The sphere S_lam = {y : ||y||_p = lam} carries the measure with density
1/|grad Q| relative to surface area, Q(y) = ||y||_p^p, rescaled by
lam^(p-d) so that the total mass is independent of the radius.

The program's rule, ``sphere_quadrature``, parametrizes each orthant as a
graph over the (d-1)-dimensional lp-ball slice.  In stick-breaking
coordinates the singular surface weight factorizes into one-dimensional
Jacobi weights, so tensorized Gauss-Jacobi nodes integrate the measure to
machine precision even where |grad Q| degenerates near coordinate
hyperplanes, and every node lies on the sphere.

``shell_mc_quadrature`` is the tests' independent oracle for it: uniform
rejection sampling from the thin shell {1-h <= ||y/lam||_p^p <= 1+h},
weight (box volume)/(n_draws * 2h).  An unbiased co-area estimator, usable
up to d = 8, whose nodes lie only near the sphere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .util import spawn_rng, valid_count, valid_scale

SHELL_HALF_WIDTH = 1e-3  # half-width h of the MC shell in u = ||y||_p^p
_NEWTON_TOL = 1e-15  # Gauss-Jacobi Newton passes stop once no node moves by more than this
_NEWTON_PASSES = 16  # before an axis fails; p in [1.0001, 512], n <= 1024 take at most 5


# The exponents at which the progression theorem fails (the l1 and l2 metrics):
# the progression experiments reject them, and the decay and stationary checks
# take their no-decay and zero-floor branches.
DEGENERATE_P = (1.0, 2.0)


def valid_exponent(p) -> float:
    """The exponent as a float; a NaN, an infinite or a below-one p is rejected."""
    pv = float(p)
    if not (math.isfinite(pv) and pv >= 1.0):
        raise ValueError(f"exponent must be finite and >= 1, got {p}")
    return pv


def lp_norm_batch(ys: np.ndarray, p) -> np.ndarray:
    """Row-wise lp norm (sum |y_i|^p)^(1/p) of an (n, d) array."""
    pv = valid_exponent(p)
    ys = np.asarray(ys, dtype=float)
    return np.sum(np.abs(ys) ** pv, axis=-1) ** (1.0 / pv)


def lp_norm(y, p) -> float:
    """The lp norm of a flat vector of finite coordinates: the one-row case of lp_norm_batch."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim != 1 or y.size < 1:
        raise ValueError("expected a flat coordinate vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("coordinates must be finite")
    return float(lp_norm_batch(y[None], p)[0])


def unit_ball_volume(p, d: int) -> float:
    """Volume nu_p = 2^d Gamma(1+1/p)^d / Gamma(1+d/p) of the unit lp ball in dimension d."""
    pv = valid_exponent(p)
    d = valid_count("d", d)
    try:
        return float(2.0**d * math.gamma(1.0 + 1.0 / pv) ** d / math.gamma(1.0 + d / pv))
    except OverflowError:
        raise ValueError(f"d must be small enough for a finite ball volume, got {d}") from None


def unit_ball_volume_mc(p, d: int, n: int, seed: int) -> float:
    """Hit-or-miss estimate of nu_p from n uniform draws in the bounding cube (d <= 6)."""
    pv = valid_exponent(p)
    n = valid_count("n", n)
    if d > 6:
        raise ValueError("monte-carlo ball volume limited to d <= 6 at the stated tolerance")
    rng = spawn_rng(seed, 0)
    hits = 0
    total = 0
    batch = min(n, 2 * 10**6)
    while total < n:
        m = min(batch, n - total)
        pts = rng.uniform(-1.0, 1.0, size=(m, d))
        hits += int(np.count_nonzero(np.sum(np.abs(pts) ** pv, axis=1) <= 1.0))
        total += m
    return 2.0**d * hits / total


def sigma_total_mass(p, d: int) -> float:
    """Closed-form total mass of the normalized sphere measure: (d/p) nu_p."""
    pv = valid_exponent(p)
    vol = unit_ball_volume(pv, d)
    return d / pv * vol


@dataclass
class SphereQuadrature:
    """Nodes and weights approximating the normalized lp-sphere measure."""

    nodes: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    lam: float
    d: int

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights)


def _orthant_signs(d: int) -> np.ndarray:
    out = np.empty((1 << d, d))
    for code in range(1 << d):
        out[code] = [(-1.0 if (code >> i) & 1 else 1.0) for i in range(d)]
    return out


def _jacobi_recurrence(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the orthonormal Jacobi recurrence for the weight (1-x)^a (1+x)^b.

    b_{k+1} q_{k+1}(x) = (x - a_k) q_k(x) - b_k q_{k-1}(x); returns a_0..a_{n-1}
    and b_0..b_n with b_0 = 0 (the Jacobi matrix takes b_1..b_{n-1}).
    """
    k = np.arange(1, n + 1, dtype=float)
    s = 2.0 * k + a + b
    diag = np.empty(n)
    diag[0] = (b - a) / (a + b + 2.0)
    diag[1:] = (b * b - a * a) / (s[:-1] * (s[:-1] + 2.0))
    off = np.empty(n + 1)
    off[0] = 0.0
    off[1] = 2.0 / s[0] * math.sqrt((1.0 + a) * (1.0 + b) / (s[0] + 1.0))
    k, s = k[1:], s[1:]
    off[2:] = 2.0 / s * np.sqrt((k + a) * (k + b) / (s + 1.0) * k * (k + a + b) / (s - 1.0))
    return diag, off


def _gauss_jacobi(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights for the weight (1-x)^alpha (1+x)^beta on [-1, 1].

    The nodes are the roots of q_n, found by Newton's method on the
    orthonormal recurrence for every node at once from the asymptotic
    guesses x_k = cos(pi (k + alpha/2 - 1/4) / (n + (alpha+beta+1)/2)); the
    passes stop once no node moves by more than _NEWTON_TOL, and a rule
    that has not converged within _NEWTON_PASSES raises RuntimeError.  Each
    weight is the Christoffel number mu0 / sum_{k<n} q_k(x)^2, with q_k the
    polynomials orthonormal for the weight scaled to unit mass and mu0 its
    total mass; the sum is carried through the last Newton step to first
    order.  That sum of squares stays within 3e-12 relative of a 50-digit
    rule up to n = 1024, where the derivative formula 1 / (q_{n-1} q_n')
    loses up to 1e-8 at the nodes next to a singular endpoint.
    """
    diag, off = _jacobi_recurrence(n, alpha, beta)
    k = np.arange(n, 0, -1, dtype=float)  # k = n .. 1: ascending nodes
    x = np.cos(math.pi * (k + 0.5 * alpha - 0.25) / (n + 0.5 * (alpha + beta + 1.0)))
    for _ in range(_NEWTON_PASSES):
        q_prev, q, dq_prev, dq = np.zeros(n), np.ones(n), np.zeros(n), np.zeros(n)
        norm, slope = np.zeros(n), np.zeros(n)  # sum q_k^2 and sum q_k q_k' over k < n
        for j in range(n):
            norm += q * q
            slope += q * dq
            shifted = x - diag[j]
            q_prev, q, dq_prev, dq = (q, (shifted * q - off[j] * q_prev) / off[j + 1],
                                      dq, (shifted * dq + q - off[j] * dq_prev) / off[j + 1])
        step = q / dq
        x = x - step
        if np.max(np.abs(step)) <= _NEWTON_TOL:
            break
    else:
        raise RuntimeError(f"Gauss-Jacobi nodes did not converge in {_NEWTON_PASSES} Newton passes "
                           f"(n={n}, alpha={alpha}, beta={beta})")
    mu0 = (2.0 ** (alpha + beta + 1.0) * math.gamma(alpha + 1.0) * math.gamma(beta + 1.0)
           / math.gamma(alpha + beta + 2.0))
    w = mu0 / (norm - 2.0 * slope * step)
    if alpha == beta:  # an even weight: make the symmetry exact
        x = 0.5 * (x - x[::-1])
        w = 0.5 * (w + w[::-1])
    return x, w


@functools.lru_cache(maxsize=32)
def _jacobi_axis(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jacobi nodes and weights on [-1, 1], computed once per (n, alpha, beta).

    The Chebyshev weight alpha = beta = -1/2 (the p = 2 slice axis) has the
    closed form x = sin(pi k / 2n) for k = 1-n, 3-n, ..., n-1, w = pi / n,
    exact to rounding; every other weight takes _gauss_jacobi.  The arrays are shared by every later
    call, so they are read-only.
    """
    if alpha == beta == -0.5:
        x = np.array([math.sin(math.pi * (k / (2 * n))) for k in range(1 - n, n, 2)])
        w = np.full(n, math.pi / n)
    else:
        x, w = _gauss_jacobi(n, alpha, beta)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _graph_rule(p: float, d: int, lam: float, nodes_per_axis: int) -> tuple[np.ndarray, np.ndarray]:
    """Positive-orthant rule built natively at radius lam.

    Stick-breaking on the scaled simplex {sum s_i <= lam^p} turns the
    surface weight prod s_i^(1/p-1) (lam^p - sum s)^(1/p-1) into a product
    of Jacobi weights t^(1/p-1) (1-t)^((d-j)/p-1), one Gauss-Jacobi axis
    per slice coordinate.
    """
    if d == 1:
        w = lam ** (p - 1.0) * lam ** (1.0 - p) / p
        return np.array([[lam]]), np.array([w])
    axes_t = []
    axes_w = []
    for j in range(1, d):
        alpha = (d - j) / p - 1.0  # exponent of (1 - t)
        beta = 1.0 / p - 1.0  # exponent of t
        x, w = _jacobi_axis(nodes_per_axis, alpha, beta)
        axes_t.append(0.5 * (x + 1.0))
        axes_w.append(w * 0.5 ** (alpha + beta + 1.0))
    tg = np.meshgrid(*axes_t, indexing="ij")
    wg = np.meshgrid(*axes_w, indexing="ij")
    T = np.stack([a.ravel() for a in tg], axis=-1)  # (n, d-1)
    W = np.prod(np.stack([a.ravel() for a in wg], axis=-1), axis=-1)
    big_lam = lam**p
    n = T.shape[0]
    s = np.empty_like(T)
    stick = np.full(n, big_lam)
    for j in range(d - 1):
        s[:, j] = stick * T[:, j]
        stick = stick * (1.0 - T[:, j])
    y = np.empty((n, d))
    y[:, : d - 1] = s ** (1.0 / p)
    y[:, d - 1] = stick ** (1.0 / p)
    weights = lam ** (p - d) * big_lam ** (d / p - 1.0) * p ** (-d) * W
    return y, weights


def sphere_quadrature(p, d: int, lam: float, n: int = 4096) -> SphereQuadrature:
    """Gauss-Jacobi graph rule for the normalized measure on the lp sphere of radius lam.

    ``n`` is the total node budget; d is 1, 2 or 3.  Every node lies on the
    sphere.
    """
    pv = valid_exponent(p)
    d = valid_count("d", d)
    lam = valid_scale("lam", lam)
    n = valid_count("n", n)
    if d > 3:
        raise ValueError(f"d must be 1, 2 or 3 for the graph rule, got d={d}")
    per_axis = 1 if d == 1 else max(2, int(round((n / (1 << d)) ** (1.0 / (d - 1)))))
    ypos, wpos = _graph_rule(pv, d, lam, per_axis)
    signs = _orthant_signs(d)
    nodes = (signs[:, None, :] * ypos[None, :, :]).reshape(-1, d)
    weights = np.tile(wpos, 1 << d)
    return SphereQuadrature(nodes, weights, lam, d)


def shell_mc_quadrature(p, d: int, lam: float, n: int, seed: int) -> SphereQuadrature:
    """Shell Monte Carlo rule for the same measure (d <= 8), the graph rule's oracle.

    At least ``n`` nodes are accepted from uniform draws in the bounding
    cube; the output is deterministic given (inputs, seed).
    """
    pv = valid_exponent(p)
    d = valid_count("d", d)
    lam = valid_scale("lam", lam)
    n = valid_count("n", n)
    if d > 8:
        raise ValueError(f"d must be at most 8 for the shell rule, got d={d}")
    h = SHELL_HALF_WIDTH
    rng = spawn_rng(seed, 1)
    half = lam * (1.0 + h) ** (1.0 / pv)
    box_vol = (2.0 * half) ** d
    nodes = []
    draws = 0
    lo = lam**pv * (1.0 - h)
    hi = lam**pv * (1.0 + h)
    # acceptance  ~ shell volume / box volume; draw in batches until target met
    batch = max(10**4, 4 * n)
    while sum(len(a) for a in nodes) < n and draws < 5 * 10**8:
        pts = rng.uniform(-half, half, size=(batch, d))
        u = np.sum(np.abs(pts) ** pv, axis=1)
        keep = pts[(u >= lo) & (u <= hi)]
        nodes.append(keep)
        draws += batch
    pts = np.concatenate(nodes, axis=0)
    if pts.shape[0] == 0:
        raise RuntimeError("shell sampler produced no accepted nodes")
    # co-area: shell integral ~ 2h lam^p * (surface integral of g/|grad Q|),
    # and the measure carries lam^(p-d); together the per-node weight is
    weights = np.full(pts.shape[0], box_vol / (draws * 2.0 * h) * lam ** (-d))
    return SphereQuadrature(pts, weights, lam, d)


@dataclass
class MassInvarianceReport:
    masses: list
    max_relative_deviation: float


def sigma_mass_invariance(p, d: int, lambdas, n: int = 4096) -> MassInvarianceReport:
    """Total quadrature masses across radii and their worst pairwise relative spread."""
    if len(lambdas) == 0:
        raise ValueError("lambdas must not be empty")
    masses = [sphere_quadrature(p, d, float(lam), n=n).total_mass for lam in lambdas]
    lo, hi = min(masses), max(masses)
    dev = (hi - lo) / max(abs(lo), 1e-300)
    return MassInvarianceReport(masses, dev)
