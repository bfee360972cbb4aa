"""Misinformation propagation over social graphs (paper §IV-B, Trust).

"In the metaverse, testimonies and trust will play an even more critical
role ... Incentive systems to share trust among avatars will be key
functionality to reduce the sharing of misinformation."

The model is an ignorant–spreader–stifler (ISR) cascade, the standard
rumour variant of SIR:

* a member who *hears* a rumour from a neighbour believes-and-spreads it
  with probability ``base_share_prob × tie_trust × source_credibility``;
* ``source_credibility`` is 1 when no reputation system is wired, else
  the sharer's reputation score — the paper's proposed damper;
* spreaders stifle (stop sharing) with probability ``stifle_prob`` each
  round after spreading once.

Two implementations share the exact same PCG64 stream:

* the **loop** path (``vectorized=False``) visits spreaders in sorted
  member order and their ties in sorted neighbour order, one scalar
  Bernoulli draw per ignorant neighbour plus one stifle draw per
  spreader;
* the **vectorized** path (default) compiles the graph to a CSR
  snapshot.  Each round one mask over the snapshot's entries picks the
  (spreader, ignorant neighbour) pairs in the loop's visit order, and a
  single ``rng.random(total)`` call draws every double the round needs:
  a pair's draw sits at its rank plus its spreader's rank, a spreader's
  stifle draw after its pairs' draws.  ``rng.random(k)`` consumes the
  identical PCG64 doubles as ``k`` scalar draws, so the two paths
  produce byte-identical cascades (reached set, timeline, rounds) at
  the same seed.  New believers are marked in the member state array,
  and the reached set is read off it once, after the last round.
  Property tests in ``tests/property/test_cascade_props.py`` pin this
  equivalence.

Benchmark E7 compares reach with credibility off vs on (liars having
earned low reputations through prior fact-check feedback);
``benchmarks/scaling.py`` gates the vectorized path ≥3× over the loop
at the 10k-member tier.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Set

import numpy as np

from repro.errors import ReproError
from repro.social.graph import SocialGraph

__all__ = ["SpreadState", "SpreadResult", "MisinformationModel"]

# Credibility lookup: member id → [0, 1].
CredibilityFn = Callable[[str], float]

_IGNORANT, _SPREADER, _STIFLER = np.int8(0), np.int8(1), np.int8(2)


class SpreadState(str, enum.Enum):
    IGNORANT = "ignorant"
    SPREADER = "spreader"
    STIFLER = "stifler"


@dataclass
class SpreadResult:
    """One cascade's outcome."""

    rounds: int
    reached: Set[str]
    timeline: List[int] = field(default_factory=list)  # new believers per round

    @property
    def reach(self) -> int:
        return len(self.reached)

    def reach_fraction(self, population: int) -> float:
        return self.reach / population if population else 0.0

    @property
    def peak_round(self) -> int:
        if not self.timeline:
            return 0
        return int(np.argmax(self.timeline))


class MisinformationModel:
    """ISR rumour cascade with trust- and credibility-weighted sharing.

    Parameters
    ----------
    graph:
        The social graph rumours travel on.
    base_share_prob:
        Transmissibility before trust/credibility weighting.
    stifle_prob:
        Per-round probability an active spreader goes quiet.
    credibility:
        Optional reputation lookup; None disables credibility gating
        (every source is fully believed — the paper's "bad internet").
    vectorized:
        Use the CSR round-vectorized engine (default).  ``False`` is
        the scalar escape hatch; both consume the identical rng stream.
    """

    def __init__(
        self,
        graph: SocialGraph,
        rng: np.random.Generator,
        base_share_prob: float = 0.6,
        stifle_prob: float = 0.25,
        credibility: Optional[CredibilityFn] = None,
        vectorized: bool = True,
    ):
        if not 0 <= base_share_prob <= 1:
            raise ReproError(
                f"base_share_prob must be in [0, 1], got {base_share_prob}"
            )
        if not 0 < stifle_prob <= 1:
            raise ReproError(f"stifle_prob must be in (0, 1], got {stifle_prob}")
        self._graph = graph
        self._rng = rng
        self._base = base_share_prob
        self._stifle = stifle_prob
        self._credibility = credibility
        self._vectorized = vectorized

    def spread(self, seeds: List[str], max_rounds: int = 200) -> SpreadResult:
        """Run one cascade from ``seeds`` until it dies or round cap."""
        if self._vectorized:
            return self._spread_vectorized(seeds, max_rounds)
        return self._spread_loop(seeds, max_rounds)

    # ------------------------------------------------------------------
    # Vectorized engine: one rng.random(total) per round over the CSR
    # ------------------------------------------------------------------
    def _spread_vectorized(self, seeds: List[str], max_rounds: int) -> SpreadResult:
        snap = self._graph.csr()
        index = snap.index
        unknown = [s for s in seeds if s not in index]
        if unknown:
            raise ReproError(f"seed(s) not in graph: {unknown[:5]}")
        # Index arrays as intp, so no gather converts them per round.
        ids, rows, indices = snap.ids, snap.rows, snap.indices.astype(np.intp)
        # Every CSR entry's share probability before credibility.
        tie_p = self._base * snap.weights
        state = np.zeros(snap.n_members, dtype=np.int8)
        state[np.array([index[s] for s in seeds], dtype=np.int64)] = _SPREADER
        spreaders = np.flatnonzero(state)
        timeline: List[int] = [len(seeds)]

        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            n_spreaders = spreaders.size
            if n_spreaders == 0:
                break

            # The round's (spreader, ignorant neighbour) pairs as CSR
            # entries, in sorted-spreader-then-sorted-neighbour order —
            # exactly the loop path's visit order — and each pair's
            # spreader rank.
            pairs = np.flatnonzero(
                (state[rows] == _SPREADER) & (state[indices] == _IGNORANT)
            )
            owner = np.searchsorted(spreaders, rows[pairs])

            # Draw layout per spreader: its ignorant-neighbour draws, then
            # one stifle draw — the same doubles, in the same order, the
            # scalar loop consumes.  So pair j's draw sits at j plus its
            # spreader's rank, and spreader i's stifle draw at i plus the
            # number of pairs of spreaders up to i.
            draws = self._rng.random(pairs.size + n_spreaders)
            p = tie_p[pairs]
            if self._credibility is not None:
                cred = np.clip(
                    np.array(
                        [float(self._credibility(ids[s])) for s in spreaders],
                        dtype=np.float64,
                    ),
                    0.0,
                    1.0,
                )
                p = p * cred[owner]
            hits = indices[pairs[draws[np.arange(pairs.size) + owner] < p]]
            ranks = np.arange(n_spreaders)
            stifled = (
                draws[np.searchsorted(owner, ranks, side="right") + ranks]
                < self._stifle
            )
            state[spreaders[stifled]] = _STIFLER
            # Hits were ignorant: those still spreading plus the distinct
            # new believers are the next round's spreaders.
            state[hits] = _SPREADER
            still_spreading = n_spreaders - int(np.count_nonzero(stifled))
            spreaders = np.flatnonzero(state == _SPREADER)
            timeline.append(spreaders.size - still_spreading)
            if spreaders.size == 0:
                break
        # Everyone not ignorant is a seed or was reached.
        reached = {ids[i] for i in np.flatnonzero(state).tolist()}
        return SpreadResult(rounds=rounds, reached=reached, timeline=timeline)

    # ------------------------------------------------------------------
    # Scalar engine: the reference loop (escape hatch)
    # ------------------------------------------------------------------
    def _spread_loop(self, seeds: List[str], max_rounds: int) -> SpreadResult:
        members = self._graph.sorted_members()
        member_set = set(members)
        unknown = [s for s in seeds if s not in member_set]
        if unknown:
            raise ReproError(f"seed(s) not in graph: {unknown[:5]}")
        state: Dict[str, SpreadState] = {m: SpreadState.IGNORANT for m in members}
        for seed in seeds:
            state[seed] = SpreadState.SPREADER
        reached: Set[str] = set(seeds)
        timeline: List[int] = [len(seeds)]

        rounds = 0
        while rounds < max_rounds:
            rounds += 1
            # ``members`` is sorted once per cascade; filtering preserves
            # that order, so no per-round re-sort.
            spreaders = [m for m in members if state[m] is SpreadState.SPREADER]
            if not spreaders:
                break
            new_believers: List[str] = []
            for spreader in spreaders:
                credibility = (
                    1.0
                    if self._credibility is None
                    else float(np.clip(self._credibility(spreader), 0.0, 1.0))
                )
                for neighbor in self._graph.sorted_neighbors(spreader):
                    if state[neighbor] is not SpreadState.IGNORANT:
                        continue
                    p = self._base * self._graph.trust(spreader, neighbor) * credibility
                    if self._rng.random() < p:
                        new_believers.append(neighbor)
                # Stifling check after this round of sharing.
                if self._rng.random() < self._stifle:
                    state[spreader] = SpreadState.STIFLER
            for believer in new_believers:
                if state[believer] is SpreadState.IGNORANT:
                    state[believer] = SpreadState.SPREADER
                    reached.add(believer)
            timeline.append(len(set(new_believers)))
            if not new_believers and all(
                state[m] is not SpreadState.SPREADER for m in members
            ):
                break
        return SpreadResult(rounds=rounds, reached=reached, timeline=timeline)

    def reach_samples(
        self, seeds: List[str], repetitions: int, max_rounds: int = 200
    ) -> List[float]:
        """Per-cascade reach fractions over repeated cascades."""
        if repetitions < 1:
            raise ReproError(f"repetitions must be >= 1, got {repetitions}")
        population = len(self._graph)
        return [
            self.spread(seeds, max_rounds).reach_fraction(population)
            for _ in range(repetitions)
        ]

    def mean_reach(
        self, seeds: List[str], repetitions: int, max_rounds: int = 200
    ) -> float:
        """Average reach fraction over repeated cascades."""
        samples = self.reach_samples(seeds, repetitions, max_rounds)
        return sum(samples) / len(samples)
