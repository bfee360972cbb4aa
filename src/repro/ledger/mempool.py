"""Mempool: pending transactions awaiting inclusion in a block.

Orders candidates by fee (highest first) while respecting per-sender
nonce order, rejects duplicates and obviously-invalid transactions at
admission, and evicts the lowest-fee entries when full.

Two persistent fee-ordered heaps keep the hot paths sub-linear, both
built on the same lazy-deletion idiom (stale heap entries are skipped on
pop instead of being searched out on removal), beside a one-level index
from each sender to a dict of nonce -> bucket of residents:

* a global **min**-heap over ``(fee, tx_id)`` serves eviction — finding
  the cheapest resident is O(log n) amortised instead of a full scan
  per admission; and
* a global **max**-heap over ``(fee, sender)`` serves selection — block
  assembly pulls the best executable transaction in O(log n) per pick
  instead of rescanning every sender per pick (O(senders x picks)).

Every admission pushes one ``(fee, sender)`` entry, and nothing else
touches the selection heap but selection itself, so a sender's largest
entry stays an upper bound on the fee of whatever transaction of theirs
is currently executable for as long as they have residents.  Selection
therefore never has to look at a sender whose bound is below the best
candidate already in hand, which is what makes block assembly sub-linear
in the number of senders; a bound left high by an included or evicted
transaction only draws its sender early.  Either heap is rebuilt once
its stale entries outnumber the residents.

Admissions, rejections, and evictions emit trace events through the
optional ``obs`` instrumentation (eviction events carry fee, age, and
sender — the paper's transparency requirement applied to mempool
pressure).  A transaction admitted without a timestamp has no age, so
its eviction event carries ``age=None`` rather than a misleading 0.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import InvalidTransactionError
from repro.ledger.state import LedgerState
from repro.ledger.transactions import SignedTransaction
from repro.obs.instrument import NULL_OBS, Instrumentation

__all__ = ["Mempool"]


def _fee_key(stx: SignedTransaction) -> Tuple[int, str]:
    """Total order used everywhere a "best" transaction is picked:
    highest fee first, ties broken by tx_id so every node agrees."""
    return (stx.tx.fee, stx.tx_id)


class Mempool:
    """Fee-prioritised, nonce-ordered transaction pool.

    Parameters
    ----------
    capacity:
        Maximum resident transactions; admission beyond this evicts the
        cheapest entry (or rejects the newcomer if it is the cheapest).
    obs:
        Optional observability instrumentation; when omitted the pool
        stays dark (null instrumentation).
    """

    def __init__(self, capacity: int = 10_000, obs: Optional[Instrumentation] = None):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self._capacity = capacity
        self._by_id: Dict[str, SignedTransaction] = {}
        # sender -> nonce -> residents at that nonce (replacements share
        # a bucket; selection takes the best-fee member).
        self._senders: Dict[str, Dict[int, List[SignedTransaction]]] = {}
        # Min-heap of (fee, tx_id) over all residents; entries whose
        # tx_id is no longer resident are stale and skipped on pop
        # (lazy deletion), or dropped by prune_included's rebuild.
        # Serves eviction.
        self._fee_heap: List[Tuple[int, str]] = []
        # Max-heap of (-fee, sender), one entry pushed per admission.
        # While a sender has residents, its largest entry bounds the fee
        # of each of them; entries of senders with no residents are
        # stale and skipped on pop.  Serves selection: the top bounds
        # the best executable fee of any sender not yet considered.
        self._head_heap: List[Tuple[int, str]] = []
        self._admitted_at: Dict[str, float] = {}
        self._obs = obs if obs is not None else NULL_OBS
        self.rejected_count = 0
        self.evicted_count = 0

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._by_id

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def submit(
        self,
        stx: SignedTransaction,
        state: Optional[LedgerState] = None,
        time: Optional[float] = None,
    ) -> bool:
        """Admit ``stx`` if valid and not a duplicate.

        If ``state`` is provided, stale nonces (already consumed on
        chain) are rejected at admission.  ``time`` (simulated) stamps
        the admission for eviction-age accounting and trace events.
        Returns True on admission.
        """
        tx = stx.tx
        tx_id = tx.tx_id
        by_id = self._by_id
        if tx_id in by_id:
            return self._reject(stx, "duplicate", time)
        if not stx.verify():
            return self._reject(stx, "bad-signature", time)
        sender, nonce, fee = tx.sender, tx.nonce, tx.fee
        if state is not None and nonce < state.nonce_of(sender):
            return self._reject(stx, "stale-nonce", time)
        if len(by_id) >= self._capacity and not self._evict_for(stx, time):
            return self._reject(stx, "full-pool-fee-too-low", time)
        by_id[tx_id] = stx
        buckets = self._senders.get(sender)
        if buckets is None:
            self._senders[sender] = {nonce: [stx]}
        else:
            bucket = buckets.get(nonce)
            if bucket is None:
                buckets[nonce] = [stx]
            else:
                bucket.append(stx)
        heapq.heappush(self._fee_heap, (fee, tx_id))
        head_heap = self._head_heap
        heapq.heappush(head_heap, (-fee, sender))
        # Evictions leave their senders' entries behind.
        if len(head_heap) > 2 * len(by_id):
            self._rebuild_head_heap()
        if time is not None:
            self._admitted_at[tx_id] = float(time)
        obs = self._obs
        if obs.enabled:
            obs.counter("ledger.mempool.admitted").inc()
            obs.event(
                "ledger.mempool",
                "tx.admitted",
                time=time,
                tx_id=tx_id,
                sender=sender,
                fee=fee,
            )
        return True

    def _reject(
        self, stx: SignedTransaction, reason: str, time: Optional[float]
    ) -> bool:
        self.rejected_count += 1
        self._obs.counter("ledger.mempool.rejected").inc()
        self._obs.event(
            "ledger.mempool",
            "tx.rejected",
            time=time,
            tx_id=stx.tx_id,
            sender=stx.tx.sender,
            fee=stx.tx.fee,
            reason=reason,
        )
        return False

    def _cheapest_resident(self) -> Optional[SignedTransaction]:
        """Lowest-(fee, tx_id) resident via the heap (lazy deletion)."""
        while self._fee_heap:
            fee, tx_id = self._fee_heap[0]
            resident = self._by_id.get(tx_id)
            if resident is not None and resident.tx.fee == fee:
                return resident
            heapq.heappop(self._fee_heap)  # stale: evicted/pruned earlier
        return None

    def _evict_for(
        self, newcomer: SignedTransaction, time: Optional[float] = None
    ) -> bool:
        """Evict the cheapest resident if the newcomer pays more."""
        cheapest = self._cheapest_resident()
        if cheapest is None or cheapest.tx.fee >= newcomer.tx.fee:
            return False
        admitted_at = self._admitted_at.get(cheapest.tx_id)
        # A resident admitted without a timestamp has no age; emitting 0
        # would claim it was evicted the instant it arrived.
        age = (
            float(time) - admitted_at
            if time is not None and admitted_at is not None
            else None
        )
        self._remove(cheapest.tx_id)
        self.evicted_count += 1
        self._obs.counter("ledger.mempool.evicted").inc()
        self._obs.event(
            "ledger.mempool",
            "tx.evicted",
            time=time,
            tx_id=cheapest.tx_id,
            sender=cheapest.tx.sender,
            fee=cheapest.tx.fee,
            age=age,
            displaced_by=newcomer.tx_id,
        )
        return True

    def _remove(self, tx_id: str) -> None:
        """Drop a resident from the id map and its sender's index.  Its
        selection-heap entries stay: they still bound the sender's other
        residents, or go stale with the sender."""
        stx = self._by_id.pop(tx_id)
        self._admitted_at.pop(tx_id, None)
        tx = stx.tx
        buckets = self._senders[tx.sender]
        bucket = buckets[tx.nonce]
        if len(bucket) > 1:
            bucket.remove(stx)
        elif len(buckets) > 1:
            del buckets[tx.nonce]
        else:
            del self._senders[tx.sender]

    def _rebuild_head_heap(self) -> None:
        """One entry per sender, at its largest resident fee."""
        heap = []
        for sender, buckets in self._senders.items():
            top = max(stx.tx.fee for bucket in buckets.values() for stx in bucket)
            heap.append((-top, sender))
        heapq.heapify(heap)
        self._head_heap = heap

    # ------------------------------------------------------------------
    # Selection
    # ------------------------------------------------------------------
    def select(self, state: LedgerState, max_count: int = 100) -> List[SignedTransaction]:
        """Pick up to ``max_count`` executable transactions.

        Greedy by ``(fee, tx_id)``, but a sender's transactions are only
        eligible in nonce order starting from the sender's current
        on-chain nonce, so the returned list always applies cleanly in
        order.  Replacements (same sender and nonce) are resolved in
        favour of the highest-fee resident.

        Implementation: senders are drawn from the persistent fee-bound
        head heap; a sender is only materialised into the candidate heap
        when its fee upper bound beats the best candidate in hand, so a
        block of K picks costs O((K + drawn) log n) rather than
        O(senders x picks).  The pool is not mutated — drawn senders are
        restored to the head heap before returning.
        """
        if max_count <= 0:
            return []
        heappop, heappush = heapq.heappop, heapq.heappush
        head_heap = self._head_heap
        senders = self._senders
        nonce_of = state.nonce_of
        # Senders drawn out of the persistent heap this call, each with
        # the largest entry it had (restored on exit); their executable
        # candidate lives in ``candidates``.
        drawn: Dict[str, int] = {}
        candidates: List[Tuple[int, str, SignedTransaction]] = []
        selected: List[SignedTransaction] = []
        try:
            while len(selected) < max_count:
                # Materialise senders until every undrawn sender's fee
                # bound is below the best candidate in hand.  A bound
                # equal to the candidate fee must still be drawn: the
                # tx_id tie-break may favour the undrawn sender.
                while head_heap:
                    neg_fee, sender = head_heap[0]
                    if candidates and neg_fee > candidates[0][0]:
                        break
                    heappop(head_heap)
                    buckets = senders.get(sender)
                    if buckets is None or sender in drawn:
                        continue  # no residents left, or drawn already
                    drawn[sender] = neg_fee
                    bucket = buckets.get(nonce_of(sender))
                    if bucket:
                        heappush(candidates, _candidate(bucket))
                if not candidates:
                    break
                _, _, best = heappop(candidates)
                selected.append(best)
                tx = best.tx
                # The sender's next nonce, as this call's own picks leave
                # it (the pool itself is left untouched).
                bucket = senders[tx.sender].get(tx.nonce + 1)
                if bucket:
                    heappush(candidates, _candidate(bucket))
        finally:
            # Restore every drawn sender that still has residents at its
            # largest entry; its other entries, skipped above, went stale.
            for sender, neg_fee in drawn.items():
                if sender in senders:
                    heappush(head_heap, (neg_fee, sender))
        return selected

    def prune_included(self, included_ids: List[str]) -> int:
        """Drop transactions that made it into a block; returns count.

        O(pruned) plus the rebuilds: no selection-heap entry is touched
        (a pruned sender's entries go stale or keep bounding the rest
        of its residents), and each heap is rebuilt once its stale
        entries outnumber the residents.
        """
        by_id = self._by_id
        pruned = 0
        for tx_id in included_ids:
            if tx_id in by_id:
                self._remove(tx_id)
                pruned += 1
        if not pruned:
            return 0
        # Pruned ids stay in the eviction heap as stale entries, and only
        # a full pool pops them.  Rebuild once they outnumber residents;
        # (fee, tx_id) is a total order, so eviction picks are unchanged.
        if len(self._fee_heap) > 2 * len(by_id):
            self._fee_heap = [
                (stx.tx.fee, tx_id) for tx_id, stx in by_id.items()
            ]
            heapq.heapify(self._fee_heap)
        if len(self._head_heap) > 2 * len(by_id):
            self._rebuild_head_heap()
        return pruned

    def pending(self) -> List[SignedTransaction]:
        """All resident transactions (no particular order)."""
        return list(self._by_id.values())


# Hex digit -> its complement (15 - value), lower case; upper-case
# digits map as ``int(ch, 16)`` reads them.
_DESC_TABLE = str.maketrans(
    {ch: "%x" % (15 - int(ch, 16)) for ch in "0123456789abcdefABCDEF"}
)


def _candidate(
    bucket: List[SignedTransaction],
) -> Tuple[int, str, SignedTransaction]:
    """Candidate-heap entry for a nonce bucket's best-fee member
    (replacements resolved by :func:`_fee_key`)."""
    best = bucket[0] if len(bucket) == 1 else max(bucket, key=_fee_key)
    return (-best.tx.fee, _desc_id(best.tx_id), best)


def _desc_id(tx_id: str) -> str:
    """Invert a hex tx_id's sort order.

    Candidate heaps are min-heaps keyed ``(-fee, _desc_id(tx_id))``, so
    popping yields the highest fee with ties broken by *highest* tx_id —
    the same total order the greedy reference uses.
    """
    return tx_id.translate(_DESC_TABLE)
