"""Small numeric helpers shared across the package."""

from __future__ import annotations

import numpy as np


def spawn_rng(master_seed: int, task_index: int) -> np.random.Generator:
    """Derive an independent, reproducible stream from (master seed, task index)."""
    return np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(task_index,)))
