"""Execution pools: run shard tasks inline or across processes.

The determinism story of :mod:`repro.parallel` rests on one invariant:
**results are consumed in task-submission order, never in completion
order**.  Both pools guarantee it — :class:`SerialPool` trivially,
:class:`ProcessPool` by filling a result slot per task index — so a
reduction that folds results in order is byte-identical for any worker
count, including the inline path.

On platforms with ``fork`` (Linux), worker processes inherit the
parent's warmed module cache (the shard social graphs) at
pool-creation time for free; on ``spawn`` platforms workers rebuild
it deterministically on first use.  Either way the *results* are
identical — only the warm-up cost differs.

Two behaviours keep pooled runs cheap:

* **Bounded in-flight submission.**  ``map_ordered`` keeps at most
  ``2 * workers + 2`` tasks pickled-and-pending instead of submitting
  the whole list eagerly — long task lists do not double peak memory, and
  the first worker exception surfaces as soon as its future completes
  instead of after every earlier task has been gathered.
* **Persistent workers.**  :func:`shared_pool` hands out long-lived
  pools keyed by worker count: processes (and their warmed caches)
  survive across ``run_load`` calls, so the per-run cost is task
  dispatch, not pool churn.  ``close()`` on a shared pool is a no-op;
  real shutdown happens at interpreter exit.
"""

from __future__ import annotations

import atexit
import multiprocessing
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from typing import Callable, Dict, List, Optional, Sequence, TypeVar

__all__ = [
    "SerialPool",
    "ProcessPool",
    "shared_pool",
    "shutdown_shared_pools",
]

T = TypeVar("T")
R = TypeVar("R")


def _fork_context() -> Optional[multiprocessing.context.BaseContext]:
    """Prefer fork so workers inherit warmed caches; None if unsupported."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return None


class SerialPool:
    """Inline execution with the pool interface (workers <= 1)."""

    workers = 1

    def map_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        return [fn(task) for task in tasks]

    def close(self) -> None:
        return None

    def __enter__(self) -> "SerialPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class ProcessPool:
    """A ``ProcessPoolExecutor`` that returns results in task order.

    One pool serves a whole run (or, via :func:`shared_pool`, many
    runs), so process start-up and per-process cache warm-up are paid
    once, not per barrier.

    ``window`` bounds in-flight submissions: at most ``2 * workers + 2``
    tasks are pickled and queued at once — enough to keep every worker
    fed while the parent gathers.  Results still fill slots by task
    index, so the window can never reorder — or otherwise change — a
    single output byte.
    """

    def __init__(self, workers: int):
        if workers < 2:
            raise ValueError(f"ProcessPool needs workers >= 2, got {workers}")
        self.workers = workers
        self.window = 2 * workers + 2
        context = _fork_context()
        self._executor = ProcessPoolExecutor(
            max_workers=workers, mp_context=context
        )

    @property
    def broken(self) -> bool:
        """Whether the underlying executor died (worker crash)."""
        return bool(getattr(self._executor, "_broken", False))

    def map_ordered(self, fn: Callable[[T], R], tasks: Sequence[T]) -> List[R]:
        """Run ``fn`` over ``tasks``; results in submission order.

        Submission is windowed (backpressure): tasks are pickled at most
        ``window`` ahead of the slowest outstanding result.  The first
        worker exception is raised as soon as its future completes —
        remaining pending futures are cancelled, not gathered.
        """
        n = len(tasks)
        results: List[R] = [None] * n  # type: ignore[list-item]
        pending: Dict[Future, int] = {}
        next_idx = 0
        try:
            while next_idx < n or pending:
                while next_idx < n and len(pending) < self.window:
                    future = self._executor.submit(fn, tasks[next_idx])
                    pending[future] = next_idx
                    next_idx += 1
                done, _ = wait(pending, return_when=FIRST_COMPLETED)
                # Lowest task index first, so which exception surfaces
                # is deterministic when several complete together.
                for future in sorted(done, key=pending.__getitem__):
                    idx = pending.pop(future)
                    results[idx] = future.result()  # raises fail-fast
        except BaseException:
            for future in pending:
                future.cancel()
            raise
        return results

    def close(self) -> None:
        self._executor.shutdown(wait=True)

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False


class _SharedProcessPool(ProcessPool):
    """A :class:`ProcessPool` that outlives its callers.

    ``close()`` is deliberately a no-op — callers treat shared pools
    exactly like owned ones (``finally: pool.close()``), and the
    processes stay warm for the next run.  :func:`shutdown_shared_pools`
    (registered atexit) does the real shutdown.
    """

    def close(self) -> None:
        return None

    def shutdown(self) -> None:
        super().close()


# Long-lived pools by worker count; created on first use, shut down at
# interpreter exit.
_SHARED_POOLS: Dict[int, _SharedProcessPool] = {}
_SHARED_ATEXIT = False


def shared_pool(workers: Optional[int]):
    """A persistent pool for ``workers`` (inline when <= 1).

    Worker processes — with their warmed per-process caches — persist
    across calls, so back-to-back runs pay dispatch cost only.  A pool
    whose executor broke (a worker crashed) is discarded and rebuilt
    fresh.
    """
    global _SHARED_ATEXIT
    if workers is None or workers <= 1:
        return SerialPool()
    pool = _SHARED_POOLS.get(workers)
    if pool is not None and pool.broken:
        pool.shutdown()
        _SHARED_POOLS.pop(workers, None)
        pool = None
    if pool is None:
        pool = _SharedProcessPool(workers)
        _SHARED_POOLS[workers] = pool
        if not _SHARED_ATEXIT:
            _SHARED_ATEXIT = True
            atexit.register(shutdown_shared_pools)
    return pool


def shutdown_shared_pools() -> None:
    """Shut down every persistent pool (atexit hook; tests call it too)."""
    for pool in list(_SHARED_POOLS.values()):
        pool.shutdown()
    _SHARED_POOLS.clear()
