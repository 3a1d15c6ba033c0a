"""lp norms, balls, and quadrature for the normalized surface measure on lp spheres.

The sphere S_lam = {y : ||y||_p = lam} carries the measure with density
1/|grad Q| relative to surface area, Q(y) = ||y||_p^p, rescaled by
lam^(p-d) so that the total mass is independent of the radius.  Two rules
approximate it:

* ``deterministic-graph``: each orthant is parametrized as a graph over
  the (d-1)-dimensional lp-ball slice.  In stick-breaking coordinates the
  singular surface weight factorizes into one-dimensional Jacobi weights,
  so tensorized Gauss-Jacobi nodes integrate the measure to machine
  precision even where |grad Q| degenerates near coordinate hyperplanes.

* ``shell-monte-carlo``: uniform rejection sampling from the thin shell
  {1-h <= ||y/lam||_p^p <= 1+h}, weight (box volume)/(n_draws * 2h).  An
  unbiased co-area estimator, independent of the graph construction, and
  usable up to d = 8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from .util import spawn_rng

MODE_GRAPH = "deterministic-graph"
MODE_SHELL_MC = "shell-monte-carlo"

NODE_TOL_GRAPH = 1e-10
SHELL_HALF_WIDTH = 1e-3  # half-width h of the MC shell in u = ||y||_p^p


@dataclass(frozen=True)
class LpExponent:
    """The metric exponent with its derived decay indices.

    ``r`` is the oscillatory decay index max(p+1, 2p-1) and ``gamma`` the
    derived smoothing exponent 1/(8r).  ``degenerate`` flags p in {1, 2},
    where the gap-restriction phenomenon collapses; those values are
    accepted for counterexample demonstrations but rejected by the
    progression-theorem experiments.
    """

    p: float
    degenerate: bool = field(init=False)
    r: float = field(init=False)
    gamma: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.p) or self.p < 1.0:
            raise ValueError(f"exponent must be finite and >= 1, got {self.p}")
        object.__setattr__(self, "degenerate", self.p in (1.0, 2.0))
        r = self.p + 1.0 if self.p < 2.0 else 2.0 * self.p - 1.0
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "gamma", 1.0 / (8.0 * r))


def _as_p(p) -> float:
    return p.p if isinstance(p, LpExponent) else float(p)


def as_vector(y) -> np.ndarray:
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.ndim != 1 or y.size < 1:
        raise ValueError("expected a flat coordinate vector")
    if not np.all(np.isfinite(y)):
        raise ValueError("coordinates must be finite")
    return y


def lp_norm(y, p) -> float:
    """(sum |y_i|^p)^(1/p)."""
    y = as_vector(y)
    pv = _as_p(p)
    if pv == 1.0:
        return float(np.sum(np.abs(y)))
    if pv == 2.0:
        return float(np.linalg.norm(y))
    return float(np.sum(np.abs(y) ** pv) ** (1.0 / pv))


def lp_norm_batch(ys: np.ndarray, p) -> np.ndarray:
    """Row-wise lp norm of an (n, d) array."""
    pv = _as_p(p)
    ys = np.asarray(ys, dtype=float)
    return np.sum(np.abs(ys) ** pv, axis=-1) ** (1.0 / pv)


def grad_q_magnitude(y, p) -> float:
    """Euclidean magnitude of grad Q at y, Q(y) = ||y||_p^p.

    (grad Q)_i = p |y_i|^(p-1) sgn(y_i), so |grad Q| = p (sum |y_i|^(2p-2))^(1/2).
    Undefined at the origin, where the surface density 1/|grad Q| blows up.
    """
    y = as_vector(y)
    pv = _as_p(p)
    if not np.any(y != 0.0):
        raise ValueError("gradient magnitude undefined at the origin")
    return float(pv * np.sqrt(np.sum(np.abs(y) ** (2.0 * (pv - 1.0)))))


def unit_ball_volume(p, d: int, mode: str = "closed-form", n_samples: int = 10**6,
                     seed: int = 0) -> float:
    """Volume nu_p of the unit lp ball in dimension d.

    ``closed-form`` evaluates 2^d Gamma(1+1/p)^d / Gamma(1+d/p); ``mc``
    is a hit-or-miss estimate from the bounding cube (d <= 6).
    """
    pv = _as_p(p)
    if mode == "closed-form":
        return float(2.0**d * special.gamma(1.0 + 1.0 / pv) ** d / special.gamma(1.0 + d / pv))
    if mode == "mc":
        if d > 6:
            raise ValueError("monte-carlo ball volume limited to d <= 6 at the stated tolerance")
        rng = spawn_rng(seed, 0)
        hits = 0
        total = 0
        batch = min(n_samples, 2 * 10**6)
        while total < n_samples:
            m = min(batch, n_samples - total)
            pts = rng.uniform(-1.0, 1.0, size=(m, d))
            hits += int(np.count_nonzero(np.sum(np.abs(pts) ** pv, axis=1) <= 1.0))
            total += m
        return 2.0**d * hits / total
    raise ValueError(f"unknown mode {mode!r}")


def sigma_total_mass(p, d: int) -> float:
    """Closed-form total mass of the normalized sphere measure: (d/p) nu_p."""
    pv = _as_p(p)
    return d / pv * unit_ball_volume(pv, d)


@dataclass
class SphereQuadrature:
    """Nodes and weights approximating the normalized lp-sphere measure."""

    nodes: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)
    lam: float
    p: float
    d: int
    mode: str

    @property
    def total_mass(self) -> float:
        return math.fsum(self.weights)

    def node_tolerance(self) -> float:
        if self.mode == MODE_GRAPH:
            return NODE_TOL_GRAPH * max(1.0, self.lam)
        h = SHELL_HALF_WIDTH
        return self.lam * ((1.0 + h) ** (1.0 / self.p) - (1.0 - h) ** (1.0 / self.p))

    def max_radius_deviation(self) -> float:
        return float(np.max(np.abs(lp_norm_batch(self.nodes, self.p) - self.lam)))

    def orthant_masses(self) -> np.ndarray:
        """Weight totals per orthant; ties at a zero coordinate go to the positive side."""
        signs = (self.nodes < 0.0).astype(int)
        codes = signs @ (1 << np.arange(self.d))
        out = np.zeros(1 << self.d)
        np.add.at(out, codes, self.weights)
        return out


def _orthant_signs(d: int) -> np.ndarray:
    out = np.empty((1 << d, d))
    for code in range(1 << d):
        out[code] = [(-1.0 if (code >> i) & 1 else 1.0) for i in range(d)]
    return out


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
        x, w = special.roots_jacobi(nodes_per_axis, alpha, beta)
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


def _shell_mc_rule(p: float, d: int, lam: float, n_target: int,
                   seed: int) -> tuple[np.ndarray, np.ndarray]:
    h = SHELL_HALF_WIDTH
    rng = spawn_rng(seed, 1)
    half = lam * (1.0 + h) ** (1.0 / p)
    box_vol = (2.0 * half) ** d
    nodes = []
    draws = 0
    lo = lam**p * (1.0 - h)
    hi = lam**p * (1.0 + h)
    # acceptance  ~ shell volume / box volume; draw in batches until target met
    batch = max(10**4, 4 * n_target)
    while sum(len(a) for a in nodes) < n_target and draws < 5 * 10**8:
        pts = rng.uniform(-half, half, size=(batch, d))
        u = np.sum(np.abs(pts) ** p, axis=1)
        keep = pts[(u >= lo) & (u <= hi)]
        nodes.append(keep)
        draws += batch
    pts = np.concatenate(nodes, axis=0)
    if pts.shape[0] == 0:
        raise RuntimeError("shell sampler produced no accepted nodes")
    # co-area: shell integral ~ 2h lam^p * (surface integral of g/|grad Q|),
    # and the measure carries lam^(p-d); together the per-node weight is
    weights = np.full(pts.shape[0], box_vol / (draws * 2.0 * h) * lam ** (-d))
    return pts, weights


def sphere_quadrature(p, d: int, lam: float, n: int = 4096, mode: str = MODE_GRAPH,
                      seed: int = 0) -> SphereQuadrature:
    """Quadrature rule for the normalized measure on the lp sphere of radius lam.

    ``n`` is the total node budget.  Deterministic mode supports d in
    {1,2,3}; shell Monte Carlo supports d <= 8.  Output is deterministic
    given (inputs, seed).
    """
    pv = _as_p(p)
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"radius must be positive and finite, got {lam}")
    if mode == MODE_GRAPH:
        if d not in (1, 2, 3):
            raise ValueError(f"deterministic-graph mode supports d in {{1,2,3}}, got d={d}")
        per_axis = 1 if d == 1 else max(2, int(round((n / (1 << d)) ** (1.0 / (d - 1)))))
        ypos, wpos = _graph_rule(pv, d, lam, per_axis)
        signs = _orthant_signs(d)
        nodes = (signs[:, None, :] * ypos[None, :, :]).reshape(-1, d)
        weights = np.tile(wpos, 1 << d)
        return SphereQuadrature(nodes, weights, lam, pv, d, mode)
    if mode == MODE_SHELL_MC:
        if d > 8:
            raise ValueError(f"shell-monte-carlo mode supports d <= 8, got d={d}")
        nodes, weights = _shell_mc_rule(pv, d, lam, n, seed)
        return SphereQuadrature(nodes, weights, lam, pv, d, mode)
    raise ValueError(f"unsupported mode {mode!r}")


@dataclass
class MassInvarianceReport:
    lambdas: list
    masses: list
    max_relative_deviation: float


def sigma_mass_invariance(p, d: int, lambdas, n: int = 4096, mode: str = MODE_GRAPH,
                          seed: int = 0) -> MassInvarianceReport:
    """Total quadrature masses across radii and their worst pairwise relative spread."""
    masses = []
    for i, lam in enumerate(lambdas):
        rule = sphere_quadrature(p, d, float(lam), n=n, mode=mode, seed=seed + i)
        masses.append(rule.total_mass)
    lo, hi = min(masses), max(masses)
    dev = (hi - lo) / max(abs(lo), 1e-300)
    return MassInvarianceReport(list(map(float, lambdas)), masses, dev)
