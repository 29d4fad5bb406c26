"""Seed-stream discipline.

Every source of randomness in the package draws from a named sub-stream of a
single 64-bit user seed.  Streams are derived with ``numpy.random.SeedSequence``
spawn keys, so the generator family is pinned (PCG64) and two call sites can
never collide unless they pass identical keys.  This is what makes experiments
replayable: resampling responses never perturbs the pairing stream and vice
versa.
"""

from __future__ import annotations

import numpy as np

# Stream tags.  Never renumber; seeds are part of the reproducibility contract.
GROUND_TRUTH = 0
EDGES = 1
RESPONSES = 2
SPLIT = 3
TRIAL = 4
SUBSAMPLE = 5


def substream(seed: int, *key: int) -> np.random.Generator:
    """PCG64 generator for the sub-stream ``key`` of ``seed``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


def subseed(seed: int, *key: int) -> int:
    """Deterministic 63-bit integer seed for the sub-stream ``key`` of ``seed``.

    Used where an API wants a plain integer seed (e.g. per-trial seeds in the
    experiment harness) rather than a generator.
    """
    state = np.random.SeedSequence(seed, spawn_key=key).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


def row_subsets(rng: np.random.Generator, n: int, m: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, items)`` of ``n`` rows that each keep ``k`` of ``m`` items,
    drawn uniformly without replacement from ``rng``: the first ``k`` of the
    argsort of one row of i.i.d. keys, in item order.  Both are int64 and
    flat, row by row."""
    chosen = np.argsort(rng.random((n, m)), axis=1)[:, :k]
    chosen = np.sort(chosen, axis=1)
    rows = np.repeat(np.arange(n, dtype=np.int64), k)
    return rows, chosen.ravel()
