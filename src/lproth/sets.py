"""Counterexample sets, gap-spectrum sampling, and randomized progression search.

The square-shell set (membership: squared Euclidean norm within 1/10 of a
nonnegative integer) restricts 3-progression gaps through the parallelogram
identity: for any progression inside it, twice the squared Euclidean gap
lies within 4/10 of an integer.  That functional,

    half_integer_deviation(g) = dist(2 g^2, Z_{>=0}),

is the obstruction measure used throughout: the p = 2 spectrum never
exceeds 0.4, while p != 2 gap lengths escape it.  Integer quantities are
measured on the doubled square because the undoubled intervals of radius
0.4 around half-integers overlap and constrain nothing.

Search never claims nonexistence: exhausting a proposal budget is reported
as exhaustion, with the budget attached.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .forms import BoxFunction, random_indicator
from .lpgeom import DEGENERATE_P, lp_norm, lp_norm_batch, sphere_quadrature, valid_exponent
from .util import spawn_rng, valid_count, valid_finite, valid_scale

BOURGAIN_SHELL = 0.1
HALF_INTEGER_CAP = 0.4
_CHUNK_ROWS = 1 << 13  # rows per membership test in the pool and the search
_MAX_POOL_DRAWS = 10**8  # draws after which the member pool gives up
_THEOREM_CELL = 1.0  # cell side of the positive control's indicator grid


@dataclass
class PointSet:
    """Membership predicate over R^d.

    kinds: ``bourgain`` (square-shell set), ``lattice-cube`` (integer lattice
    thickened by eps0 in sup norm), ``grid-indicator`` (cells of a 0/1 box
    function), ``full-box`` ([0, N]^d).
    """

    kind: str
    dim: int
    eps0: float = 0.0
    box: Optional[BoxFunction] = None
    N: float = 0.0

    def __post_init__(self):
        self.dim = valid_count("dim", self.dim)

    def contains_batch(self, X: np.ndarray) -> np.ndarray:
        """Membership of each row of an (n, dim) array.

        Works one coordinate column at a time; the squared radius adds the
        columns left to right, the order a row sum over so few entries takes.
        A row with a NaN or infinite coordinate is not a member.
        """
        X = np.asarray(X, dtype=float)
        if X.ndim != 2 or X.shape[1] != self.dim:
            raise ValueError(f"expected points of shape (n, {self.dim}), got {X.shape}")
        cols = X.T
        if self.kind == "bourgain":
            r2 = functools.reduce(np.add, (c * c for c in cols))
            with np.errstate(invalid="ignore"):  # inf - inf: a NaN, so not a member
                return np.abs(r2 - np.maximum(np.round(r2), 0.0)) <= BOURGAIN_SHELL
        if self.kind == "lattice-cube":
            with np.errstate(invalid="ignore"):
                return functools.reduce(np.logical_and,
                                        (np.abs(c - np.round(c)) <= self.eps0 for c in cols))
        if self.kind == "full-box":
            return functools.reduce(np.logical_and, ((c >= 0.0) & (c <= self.N) for c in cols))
        if self.kind == "grid-indicator":
            f = self.box
            inside = functools.reduce(np.logical_and, ((c >= 0.0) & (c < f.N) for c in cols))
            # rows outside the box look up cell 0 and are masked out after; x/h can
            # round up to the cell count just below N, which is the last cell
            idx = tuple(np.minimum(np.floor(np.where(inside, c, 0.0) / f.h).astype(int), m - 1)
                        for c, m in zip(cols, f.values.shape))
            return (f.values[idx] > 0.5) & inside
        raise ValueError(f"unknown set kind {self.kind!r}")

    def estimate_density(self, box_hi: float, n: int = 10**5, seed: int = 0) -> float:
        """Fraction of n uniform draws from [0, box_hi]^dim that are members."""
        box_hi = valid_scale("box_hi", box_hi)
        n = valid_count("n", n)
        rng = spawn_rng(seed, 11)
        pts = rng.uniform(0.0, box_hi, size=(n, self.dim))
        return float(np.mean(self.contains_batch(pts)))


def bourgain_set(dim: int) -> PointSet:
    return PointSet(kind="bourgain", dim=dim)


def lattice_cube_set(dim: int, eps0: float) -> PointSet:
    if not (0.0 < eps0 < 0.5):
        raise ValueError("thickening must lie in (0, 0.5)")
    return PointSet(kind="lattice-cube", dim=dim, eps0=eps0)


def grid_indicator_set(box: BoxFunction) -> PointSet:
    return PointSet(kind="grid-indicator", dim=box.d, box=box, N=box.N)


def full_box_set(dim: int, N: float) -> PointSet:
    return PointSet(kind="full-box", dim=dim, N=N)


def parallelogram_check(x, y, p) -> tuple[float, float, float]:
    """(2||y||_p^p, ||x||_p^p + ||x+2y||_p^p - 2||x+y||_p^p, their difference).

    The gap vanishes identically for p = 2 and generically does not
    otherwise; that failure is what unlocks unrestricted gap lengths.
    """
    pv = valid_exponent(p)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lhs = 2.0 * float(np.sum(np.abs(y) ** pv))
    rhs = (float(np.sum(np.abs(x) ** pv)) + float(np.sum(np.abs(x + 2.0 * y) ** pv))
           - 2.0 * float(np.sum(np.abs(x + y) ** pv)))
    return lhs, rhs, lhs - rhs


def half_integer_deviation(gap):
    """dist(2 gap^2, Z_{>=0}); at most 0.4 for every progression in the square-shell set.

    A scalar gap gives a float, an array of gaps an array of the same shape.
    """
    v = 2.0 * np.asarray(gap, dtype=float) ** 2
    dev = np.abs(v - np.maximum(np.round(v), 0.0))
    return float(dev) if dev.ndim == 0 else dev


@dataclass
class ProgressionWitness:
    x: np.ndarray
    y: np.ndarray
    p: float
    gap: float

    def verify(self, A: PointSet, lam: float, tol: float) -> bool:
        """Independent re-check: memberships from scratch plus the gap window."""
        pts = np.stack([self.x, self.x + self.y, self.x + 2.0 * self.y])
        ok = bool(np.all(A.contains_batch(pts)))
        return ok and abs(lp_norm(self.y, self.p) - lam) <= tol


@dataclass
class GapSpectrum:
    p: float
    gaps: np.ndarray
    proposals_used: int
    max_half_integer_deviation: float = field(init=False)

    def __post_init__(self):
        self.gaps = np.asarray(self.gaps, dtype=float)
        if self.gaps.size:
            self.max_half_integer_deviation = float(np.max(half_integer_deviation(self.gaps)))
        else:
            self.max_half_integer_deviation = 0.0

    def histogram_rows(self, bins: int = 64) -> list:
        """[bin midpoint, count] rows of the gap histogram."""
        counts, edges = np.histogram(self.gaps, bins=bins)
        return [[0.5 * (edges[i] + edges[i + 1]), float(c)] for i, c in enumerate(counts)]


def _member_pool(A: PointSet, box_hi: float, count: int, rng) -> np.ndarray:
    """The first ``count`` members among uniform draws from [0, box_hi]^dim.

    Draws come in whole blocks, so the RNG stream depends only on how many
    blocks are drawn; membership is tested _CHUNK_ROWS rows at a time and
    stops as soon as ``count`` members are in hand.
    """
    out = []
    got = 0
    draws = 0
    while got < count and draws < _MAX_POOL_DRAWS:
        n = max(4 * (count - got), 4096)
        pts = rng.uniform(0.0, box_hi, size=(n, A.dim))
        draws += n
        for start in range(0, n, _CHUNK_ROWS):
            rows = pts[start:start + _CHUNK_ROWS]
            keep = rows.compress(A.contains_batch(rows), axis=0)
            out.append(keep)
            got += keep.shape[0]
            if got >= count:
                break
    pool = np.concatenate(out, axis=0)
    if pool.shape[0] == 0:
        raise RuntimeError("no set members found in the probe box")
    return pool[:count]


def gap_spectrum_sample(A: PointSet, p, box_hi: float, n_hits: int,
                        max_proposals: int = 10**7, seed: int = 0) -> GapSpectrum:
    """Rejection-sample verified 3-progressions and record their lp gap lengths.

    Proposals draw a set member x and a uniform gap vector; a proposal is
    recorded only if all three points pass membership.  Zero hits inside
    the budget is an admissible outcome (it is the expected one for
    forbidden-gap probes).
    """
    pv = valid_exponent(p)
    box_hi = valid_scale("box_hi", box_hi)
    n_hits = valid_count("n_hits", n_hits)
    max_proposals = valid_count("max_proposals", max_proposals)
    rng = spawn_rng(seed, 13)
    gaps = []
    hits = 0
    used = 0
    batch = 200_000
    half = box_hi / 2.0
    while hits < n_hits and used < max_proposals:
        n = min(batch, max_proposals - used)
        xs = _member_pool(A, box_hi, n, rng)
        ys = rng.uniform(-half, half, size=(n, A.dim))
        ok = A.contains_batch(xs + ys) & A.contains_batch(xs + 2.0 * ys)
        used += n
        if np.any(ok):
            g = lp_norm_batch(ys[ok], pv)
            nz = g > 1e-12  # discard the degenerate y ~ 0 progressions
            gaps.append(g[nz])
            hits += int(np.count_nonzero(nz))
    allg = np.concatenate(gaps) if gaps else np.zeros(0)
    return GapSpectrum(p=pv, gaps=allg[:n_hits], proposals_used=used)


@dataclass
class SearchOutcome:
    witness: Optional[ProgressionWitness]
    proposals_used: int
    exhausted: bool


def progression_search(A: PointSet, p, lam: float, tol: float, budget: int,
                       box_hi: float, seed: int = 0) -> SearchOutcome:
    """Randomized witness search at one gap scale, for sets of dimension d <= 3.

    Base points come from rejection sampling inside the probe box; gap
    proposals are nodes of the Gauss-Jacobi graph rule, which lie on the
    sphere of radius lam, scaled radially inside the tolerance window.  So
    every proposal's gap is in the window by construction and only the
    three memberships are at stake.  Any returned witness is re-verified
    independently before release.

    Proposals are drawn in whole batches of 100,000 (fewer for the last
    batch of the budget), and ``proposals_used`` counts the proposals drawn.
    Within a batch they are evaluated _CHUNK_ROWS at a time and evaluation
    stops at the first chunk with a hit; the witness is the first hit in
    batch order.
    """
    pv = valid_exponent(p)
    tol = valid_scale("tol", tol)
    budget = valid_count("budget", budget)
    box_hi = valid_scale("box_hi", box_hi)
    nodes = sphere_quadrature(pv, A.dim, lam, n=2048).nodes  # rejects d > 3 before any draw
    rng = spawn_rng(seed, 17)
    used = 0
    batch = 100_000
    while used < budget:
        n = min(batch, budget - used)
        xs = _member_pool(A, box_hi, n, rng)
        pick = rng.integers(0, nodes.shape[0], size=n)
        scale = 1.0 + rng.uniform(-0.9, 0.9, size=n) * (tol / lam)
        used += n
        for start in range(0, n, _CHUNK_ROWS):
            rows = slice(start, start + _CHUNK_ROWS)
            x = xs[rows]
            ys = nodes[pick[rows]] * scale[rows, None]
            ok = A.contains_batch(x + ys) & A.contains_batch(x + 2.0 * ys)
            if np.any(ok):
                i = int(np.argmax(ok))
                w = ProgressionWitness(x=x[i], y=ys[i], p=pv, gap=lp_norm(ys[i], pv))
                if not w.verify(A, lam, tol):
                    raise AssertionError("internal: candidate failed independent re-verification")
                return SearchOutcome(witness=w, proposals_used=used, exhausted=False)
    return SearchOutcome(witness=None, proposals_used=used, exhausted=True)


def lacunary_generate(lambda1: float, ratio: float, J: int) -> list[float]:
    """The J scales lambda1 * ratio^j, which at least double when ratio >= 2."""
    lambda1, ratio = valid_finite("lambda1", lambda1), valid_finite("ratio", ratio)
    if ratio < 2.0:
        raise ValueError("ratio must be at least 2, so that the scales at least double")
    if lambda1 <= 1.0:
        raise ValueError("first scale must exceed 1")
    J = valid_count("J", J)
    return [lambda1 * ratio**j for j in range(J)]


@dataclass
class TheoremExperimentReport:
    realized: list  # per seed, the list of scale indices with a verified witness
    all_seeds_realized: bool
    witnesses: list


def theorem_experiment(delta: float, p, d: int, N: float, sequence: Sequence[float],
                       seeds: Sequence[int], budget_per_scale: int = 200_000
                       ) -> TheoremExperimentReport:
    """Desk-scale positive control for the progression claim.

    Each seed draws a random density-delta indicator of unit cells on
    [0, N]^d and searches every scale of the sequence with tolerance d.
    A seed counts as realized when at least one scale yields a verified
    witness.  Failures are findings, not errors.
    """
    pv = valid_exponent(p)
    if pv in DEGENERATE_P:
        raise ValueError("degenerate exponents are rejected by the progression experiment")
    if d > 3:
        raise ValueError("experiment supports d <= 3")
    budget_per_scale = valid_count("budget_per_scale", budget_per_scale)
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("seeds must not be empty")
    lams = [valid_scale("sequence", lam) for lam in sequence]
    if not lams:
        raise ValueError("sequence must not be empty")
    if max(lams) > N / 4.0:
        raise ValueError("largest scale must satisfy lam <= N/4")
    realized = []
    witnesses = []
    tol = d * _THEOREM_CELL
    for seed in seeds:
        f = random_indicator(N, _THEOREM_CELL, d, delta, seed=seed)
        A = grid_indicator_set(f)
        got = []
        for j, lam in enumerate(lams):
            out = progression_search(A, pv, lam, tol=tol, budget=budget_per_scale,
                                     box_hi=N, seed=seed * 97 + j)
            if out.witness is not None:
                got.append(j)
                witnesses.append((seed, j, out.witness))
        realized.append(got)
    return TheoremExperimentReport(realized=realized,
                                   all_seeds_realized=all(len(g) > 0 for g in realized),
                                   witnesses=witnesses)
