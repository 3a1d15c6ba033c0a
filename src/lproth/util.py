"""Small numeric helpers shared across the package."""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np


def compensated_sum(values: Iterable[float]) -> float:
    """Order-robust sum of floats (exact up to one final rounding).

    Wraps math.fsum so that parallel partitions merged in any order agree
    to well below 1e-12 relative.
    """
    return math.fsum(values)


def spawn_rng(master_seed: int, task_index: int) -> np.random.Generator:
    """Derive an independent, reproducible stream from (master seed, task index).

    Parallel and serial execution orders see identical streams.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(task_index,)))
