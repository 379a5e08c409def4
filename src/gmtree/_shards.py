"""Sharded Monte Carlo: one spawned seed per shard, shards on worker threads.

A draw of ``samples`` values is cut into shards of ``shard_size`` (the last
shard takes the rest). Shard k draws from the generator of
``SeedSequence(seed).spawn(n)[k]``, so the streams are fixed by the seed and
the shard size alone. The shards of one call run on a thread pool (numpy
releases the interpreter lock in its random fills and ufuncs) and their
results come back in shard order, so a caller that merges them in that order
gets the same bits at any thread count.

A shard may stream its draws through cache-sized blocks of ``BLOCK`` draws;
every streamed estimator reads this one constant. A lattice shard runs its
blocks through ``run_blocks``. When the pool leaves each shard a CPU to
spare, as it does for a single shard on two or more usable CPUs, a helper
thread does each block's arithmetic while the shard's own thread draws the
next block; otherwise the blocks run inline, since a helper with no CPU of
its own only contends with the shard threads (on one CPU it was a few
percent slower than inline). Either way one thread at most runs per usable
CPU, and the blocks' results come back in block order, so the bits do not
depend on which ran.
"""

import os
from concurrent.futures import ThreadPoolExecutor
from functools import partial

import numpy as np

from .errors import check_count

BLOCK = 1 << 16  # draws per block: 2^15-2^17 ran alike on a 2-vCPU Xeon, 2^18 slower


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def map_shards(fn, samples: int, shard_size: int, seed: int, *, streamed: bool = False) -> list:
    """Results of ``fn(rng, size)`` for each shard, in shard order.

    ``fn`` runs on worker threads when there is more than one shard, on at
    most one thread per CPU this process may use; it must touch no shared
    mutable state. ``samples`` must be an integer >= 1 (``bad-samples``).
    A ``streamed`` ``fn`` is called as ``fn(rng, size, overlap=...)`` and
    passes ``overlap`` on to ``run_blocks``: it is true when every shard
    running at once can have a second CPU.
    """
    full, rest = divmod(check_count(samples, "samples"), shard_size)
    sizes = [shard_size] * full + ([rest] if rest else [])
    rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(sizes))]
    cpus = _cpus()
    workers = min(len(sizes), cpus)
    if streamed:
        fn = partial(fn, overlap=2 * workers <= cpus)
    if workers == 1:
        return [fn(rng, size) for rng, size in zip(rngs, sizes)]
    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, rngs, sizes))


def run_blocks(fill, work, size: int, overlap: bool) -> list:
    """Results of ``work(slot, lo, hi)`` for the blocks [lo, hi) of
    ``range(size)``, ``BLOCK`` long but the last, in block order.

    ``fill(slot, lo, hi)`` readies a block in buffer ``slot`` (0 or 1) on the
    calling thread, and ``work`` then reads it. With ``overlap`` the work
    runs on one helper thread while the caller fills the next block into the
    other slot; a slot is filled again only after the work on it returned.
    Otherwise, or for a single block, both run inline. ``work`` may share
    scratch with itself but must touch nothing ``fill`` writes besides its
    own slot.
    """
    bounds = [(lo, min(lo + BLOCK, size)) for lo in range(0, size, BLOCK)]
    if not overlap or len(bounds) == 1:
        out = []
        for k, (lo, hi) in enumerate(bounds):
            fill(k % 2, lo, hi)
            out.append(work(k % 2, lo, hi))
        return out
    with ThreadPoolExecutor(1) as helper:
        futures = []
        for k, (lo, hi) in enumerate(bounds):
            if k >= 2:
                futures[k - 2].result()
            fill(k % 2, lo, hi)
            futures.append(helper.submit(work, k % 2, lo, hi))
        return [f.result() for f in futures]
