"""Fork-pool block scheduling for the batch backend's ``parallelism=N``.

Stage I is embarrassingly parallel: AGP merges groups *within* one block and
RSC's weight learning normalises by the block's own support (the Eq.-4
prior), so no block ever reads another block's state.  The ``agp`` and
``rsc`` stages of :mod:`repro.core.stages` therefore hand their per-block
call to :func:`map_blocks`, which decides only *where* each block runs: in
process, or in a forked worker.

The calling process and ``N - 1`` forked workers claim blocks from one
shared counter until none are left, so the load balances itself and the
caller's share is cleaned in place.  Workers inherit the task, the blocks
and the run's distance engine (cache included) from the caller — the pool
initializer's arguments are not pickled under ``fork`` — and ship back
their mutated blocks, the blocks' outcomes and the engine counters they
added.  Results are returned in block order, which is exactly the order the
serial stage folds them in, so the merged ``StageCounts`` and the downstream
FSCR input are identical to a serial run — caching never changes a
distance, so only wall-clock and the cache-dependent counters differ.
"""

from __future__ import annotations

import multiprocessing
from collections.abc import Callable, Sequence
from typing import Any, Optional

from repro.obs import span
from repro.perf.engine import DistanceEngine

#: ``(task, blocks, engine, counter)`` of the fan-out a worker process serves
#: (set only in workers, so concurrent fan-outs from several threads never mix)
_FORKED: Optional[tuple] = None


def _adopt(*fanout) -> None:
    """Worker initializer: keep the fan-out inherited from the caller."""
    global _FORKED
    _FORKED = fanout


def _drain(task: Callable[[Any], Any], blocks: Sequence, counter) -> list:
    """``(position, task(block))`` for each block claimed until none are left."""
    done = []
    while True:
        with counter.get_lock():
            position = counter.value
            counter.value += 1
        if position >= len(blocks):
            return done
        done.append((position, task(blocks[position])))


def _drain_forked(_) -> tuple:
    """Worker entry point: drain the inherited fan-out, report its counters."""
    task, blocks, engine, counter = _FORKED
    before = engine.stats.copy()
    done = [
        (position, blocks[position], outcome)
        for position, outcome in _drain(task, blocks, counter)
    ]
    return done, engine.stats.diff(before)


def map_blocks(
    task: Callable[[Any], Any],
    blocks: Sequence,
    parallelism: int,
    engine: DistanceEngine,
) -> "list[tuple[Any, Any]]":
    """``(block, task(block))`` for every block, in block order.

    ``task`` mutates its block in place and runs its distances through
    ``engine``.  With one worker, one block, or no ``fork`` start method the
    blocks run in process.  Otherwise ``parallelism - 1`` forked workers
    share the blocks with the caller: a block the caller ran comes back as
    the input object, a block a worker ran as the worker's mutated copy, and
    the workers' counters are folded into ``engine``.
    """
    workers = min(parallelism, len(blocks))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        return [(block, task(block)) for block in blocks]
    fork = multiprocessing.get_context("fork")
    # Forked workers record no spans (their tracer copy dies with them); one
    # caller-side span records the fan-out shape instead.
    with span("blocks.fork", blocks=len(blocks), workers=workers):
        try:
            counter = fork.Value("i", 0)
            pool = fork.Pool(
                workers - 1,
                initializer=_adopt,
                initargs=(task, blocks, engine, counter),
            )
        except OSError:  # pragma: no cover - sandboxes without semaphores
            return [(block, task(block)) for block in blocks]
        with pool:
            forked = pool.map_async(_drain_forked, range(workers - 1))
            results = {
                position: (blocks[position], outcome)
                for position, outcome in _drain(task, blocks, counter)
            }
            for done, stats in forked.get():
                engine.absorb_stats(stats)
                for position, block, outcome in done:
                    results[position] = (block, outcome)
    return [results[position] for position in range(len(blocks))]
