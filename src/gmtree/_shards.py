"""Sharded Monte Carlo: one spawned seed per shard, shards on worker threads.

A draw of ``samples`` values is cut into shards of ``shard_size`` (the last
shard takes the rest). Shard k draws from the generator of
``SeedSequence(seed).spawn(n)[k]``, so the streams are fixed by the seed and
the shard size alone. The shards of one call run on a thread pool (numpy
releases the interpreter lock in its random fills and ufuncs) and their
results come back in shard order, so a caller that merges them in that order
gets the same bits at any thread count.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import check_count


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_shards(fn, samples: int, shard_size: int, seed: int) -> list:
    """Results of ``fn(rng, size)`` for each shard, in shard order.

    ``fn`` runs on worker threads when there is more than one shard, on at
    most one thread per CPU this process may use; it must touch no shared
    mutable state. ``samples`` must be an integer >= 1 (``bad-samples``).
    """
    full, rest = divmod(check_count(samples, "samples"), shard_size)
    sizes = [shard_size] * full + ([rest] if rest else [])
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(sizes))]
    workers = min(len(sizes), _cpus())
    if workers == 1:
        return [fn(rng, size) for rng, size in zip(rngs, sizes)]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, rngs, sizes))
