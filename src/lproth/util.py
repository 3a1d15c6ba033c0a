"""Small helpers shared across the package: seeded streams, the usable CPU count, and the
rules for counts, seeds, scales and fractions.

Each ``valid_*`` rule returns the converted argument or raises ``ValueError``
with a message that starts with the argument's name, as ``lpgeom.valid_exponent`` does for p.
"""

from __future__ import annotations

import math
import numbers
import os

import numpy as np


def spawn_rng(master_seed: int, task_index: int) -> np.random.Generator:
    """Derive an independent, reproducible stream from (master seed, task index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(task_index,)))


def usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def valid_count(name: str, n) -> int:
    """A count as an int: NaN and values below 1 fail first, then any non-integer (a bool too)."""
    if isinstance(n, numbers.Real) and not n >= 1:  # NaN too
        raise ValueError(f"{name} must be at least 1, got {n}")
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {n!r}")
    return int(n)


def valid_seed(name: str, s) -> int:
    """A seed as an int: an integer of at least 0 (not a bool, a NaN or a float such as 1.5)."""
    if isinstance(s, bool) or not isinstance(s, numbers.Integral) or s < 0:
        raise ValueError(f"{name} must hold non-negative integers, got {s!r}")
    return int(s)


def valid_finite(name: str, x) -> float:
    """A finite real as a float."""
    v = float(x)
    if not math.isfinite(v):
        raise ValueError(f"{name} must be finite, got {x}")
    return v


def valid_scale(name: str, x) -> float:
    """A finite positive real (a length, a side or a tolerance) as a float."""
    v = float(x)
    if not (math.isfinite(v) and v > 0.0):
        raise ValueError(f"{name} must be finite and positive, got {x}")
    return v


def valid_fraction(name: str, x) -> float:
    """A real in (0, 1] (a density) as a float."""
    v = float(x)
    if not (math.isfinite(v) and 0.0 < v <= 1.0):
        raise ValueError(f"{name} must be finite and in (0, 1], got {x}")
    return v


def valid_lacunary(name: str, xs) -> list[float]:
    """A nonempty sequence of scales, each at least double the one before, as floats."""
    vals = [valid_scale(name, x) for x in xs]
    if not vals:
        raise ValueError(f"{name} must not be empty")
    if any(b < 2.0 * a for a, b in zip(vals, vals[1:])):
        raise ValueError(f"{name} must at least double at each step, got {vals}")
    return vals
