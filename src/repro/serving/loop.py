"""Virtual-clock event loop for the serving tier.

Latency under load is the first-class metric for metaverse
infrastructure, but wall-clock measurements are hostage to the host:
the same run times differently on different machines, and a seeded run
stops being byte-identical the moment a real clock leaks into a metric.
This loop keeps *all* serving-tier time simulated: arrivals, queue
waits, service completions, and periodic platform work (block
production, proposal windows, moderation review) are heap events on one
virtual clock, so p50/p99 latency and saturation throughput are exact,
reproducible numbers on any host.

Determinism contract
--------------------
Events fire in ``(time, priority, seq)`` order: ties at the same
simulated instant break first by the caller-chosen priority band, then
by schedule order.  Nothing reads the wall clock; callbacks may
schedule further events but never reorder already-scheduled ones.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

__all__ = ["EventLoop", "PRIORITY_ARRIVAL", "PRIORITY_COMPLETION", "PRIORITY_PLATFORM"]

# Priority bands for same-instant ties.  Completions fire before
# platform ticks so a request finishing exactly at a block boundary is
# part of that block's mempool; arrivals fire last so platform state
# (fresh block, fresh proposal) is visible to requests arriving at the
# boundary instant.
PRIORITY_COMPLETION = 0
PRIORITY_PLATFORM = 1
PRIORITY_ARRIVAL = 2

_Event = Tuple[float, int, int, Callable[[], None]]


class EventLoop:
    """A deterministic discrete-event loop with a virtual clock.

    ``now`` is the simulated time of the event currently firing (or the
    last fired).  Scheduling in the past raises — the serving tier never
    rewrites history.
    """

    def __init__(self) -> None:
        self._heap: List[_Event] = []
        self._seq = 0
        self.now = 0.0
        self.fired = 0

    def schedule(
        self,
        time: float,
        callback: Callable[[], None],
        priority: int = PRIORITY_PLATFORM,
    ) -> None:
        """Schedule ``callback`` at simulated ``time``."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        heapq.heappush(self._heap, (float(time), priority, self._seq, callback))
        self._seq += 1

    def __len__(self) -> int:
        return len(self._heap)

    def run(self, horizon: Optional[float] = None) -> int:
        """Fire events in order until the heap drains (or passes
        ``horizon``); returns the number fired.

        Events scheduled beyond the horizon stay in the heap — a
        follow-up ``run`` can continue them, which is how the bench
        drains in-flight requests after the arrival window closes.
        """
        heap = self._heap
        pop = heapq.heappop
        fired = 0
        while heap:
            if horizon is not None and heap[0][0] > horizon:
                break
            time, _priority, _seq, callback = pop(heap)
            self.now = time
            callback()
            fired += 1
        self.fired += fired
        return fired
