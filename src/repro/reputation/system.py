"""The reputation system facade — §IV-C's "reputation-based system under
the Blockchain ... inherently attached to users".

Combines two estimators:

* **beta reputation** — fast, local, per-entity evidence counting; and
* **EigenTrust** — global, collusion-resistant trust propagation;

into a single ``score()`` in [0, 1] (a configurable convex blend), with
optional ledger anchoring: every feedback event can be registered as a
RECORD transaction, so reputations are auditable and tamper-evident.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Iterable, List, Optional

from repro.errors import ReputationError
from repro.obs.instrument import NULL_OBS, Instrumentation
from repro.reputation.beta import BetaReputation
from repro.reputation.eigentrust import EigenTrust

__all__ = ["FeedbackEvent", "ReputationSystem"]


# Anchor callback: receives one canonical-encodable feedback payload.
ReputationAnchor = Callable[[Dict[str, object]], None]


@dataclass(frozen=True)
class FeedbackEvent:
    """One rating of ``target`` by ``rater``."""

    time: float
    rater: Hashable
    target: Hashable
    positive: bool
    weight: float
    context: str


class ReputationSystem:
    """Blended local + global reputation with optional ledger anchoring.

    Parameters
    ----------
    pretrusted:
        Identities seeding EigenTrust (e.g. platform-audited operators).
        Identities are any sortable, hashable values: addresses, or a
        society's dense agent indices (see :meth:`register_identities`).
    blend:
        Weight of the beta (local) estimate in the final score; the
        remaining weight goes to normalised EigenTrust.  ``blend=1``
        degrades to pure beta reputation (cheap, Sybil-prone);
        ``blend=0`` to pure EigenTrust.
    decay_factor:
        Per-epoch forgetting applied by :meth:`decay`.
    anchor:
        Optional callback that registers feedback on a ledger.
    obs:
        Optional observability instrumentation; trust recomputes and
        their refinement-sweep counts are exported as counters
        (``reputation.trust.computes`` / ``reputation.trust.sweeps``),
        so the cost of every write is measurable at population scale.

    The feedback history is kept as columns (time and weight read back
    as floats); :attr:`events` builds its :class:`FeedbackEvent` rows on
    demand, so a long run keeps no object per rating.
    """

    def __init__(
        self,
        pretrusted: Optional[Iterable[Hashable]] = None,
        blend: float = 0.5,
        decay_factor: float = 0.95,
        anchor: Optional[ReputationAnchor] = None,
        obs: Optional[Instrumentation] = None,
    ):
        if not 0 <= blend <= 1:
            raise ReputationError(f"blend must be in [0, 1], got {blend}")
        self._beta = BetaReputation(decay_factor=decay_factor)
        self._eigentrust = EigenTrust(pretrusted=pretrusted)
        self._blend = blend
        self._anchor = anchor
        self._obs = obs if obs is not None else NULL_OBS
        self._times = array("d")
        self._raters: List[Hashable] = []
        self._targets: List[Hashable] = []
        self._positives = bytearray()
        self._weights = array("d")
        self._contexts: List[str] = []
        self._global_cache: Optional[Dict[Hashable, float]] = None

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def record(
        self,
        rater: Hashable,
        target: Hashable,
        positive: bool,
        time: float = 0.0,
        weight: float = 1.0,
        context: str = "",
    ) -> FeedbackEvent:
        """Record one rating; updates both estimators and the anchor."""
        if rater == target:
            raise ReputationError(f"{rater} cannot rate themselves")
        event = FeedbackEvent(
            time=time,
            rater=rater,
            target=target,
            positive=positive,
            weight=weight,
            context=context,
        )
        self._times.append(time)
        self._raters.append(rater)
        self._targets.append(target)
        self._positives.append(bool(positive))
        self._weights.append(weight)
        self._contexts.append(context)
        self._beta.record(target, positive, weight)
        self._eigentrust.record_interaction(
            rater, target, weight if positive else -weight
        )
        self._global_cache = None
        if self._anchor is not None:
            self._anchor(
                {
                    "activity": "reputation_feedback",
                    "rater": rater,
                    "target": target,
                    "positive": positive,
                    "weight": weight,
                    "context": context,
                    "time": time,
                }
            )
        return event

    def register_identity(self, identity: Hashable) -> None:
        """Make an identity visible to EigenTrust before any feedback."""
        self._eigentrust.add_identity(identity)

    def register_identities(self, identities: Iterable[Hashable]) -> None:
        """Bulk :meth:`register_identity` — one index invalidation for
        the whole society instead of one per agent.  A society of agent
        indices registers ``range(n)``, which EigenTrust keeps as a
        range: identity ``i`` is trust row ``i``, with no identity set,
        sort or identity→row dict."""
        self._eigentrust.add_identities(identities)

    # ------------------------------------------------------------------
    # Scores
    # ------------------------------------------------------------------
    def local_score(self, entity: Hashable) -> float:
        """Beta-reputation estimate in (0, 1)."""
        return self._beta.score(entity)

    def global_trust(self) -> Dict[Hashable, float]:
        """EigenTrust vector (cached until new feedback arrives)."""
        if self._global_cache is None:
            computes_before = self._eigentrust.compute_count
            self._global_cache = self._eigentrust.compute()
            if self._eigentrust.compute_count != computes_before:
                self._obs.counter("reputation.trust.computes").inc()
                self._obs.counter("reputation.trust.sweeps").inc(
                    self._eigentrust.last_sweep_count
                )
        return self._global_cache

    def global_trust_top(self) -> float:
        """Max of :meth:`global_trust` without materialising the dict.

        Solve-triggering and counter semantics are identical to a
        :meth:`global_trust` cache miss, so metrics derived from either
        read are interchangeable — the columnar load path uses this for
        its per-epoch trust gauge at population scale."""
        if self._global_cache is not None:
            values = self._global_cache.values()
            return max(values) if values else 0.0
        computes_before = self._eigentrust.compute_count
        top = self._eigentrust.max_trust()
        if self._eigentrust.compute_count != computes_before:
            self._obs.counter("reputation.trust.computes").inc()
            self._obs.counter("reputation.trust.sweeps").inc(
                self._eigentrust.last_sweep_count
            )
        return top

    @property
    def trust_compute_count(self) -> int:
        """Full trust recomputes executed so far (cache misses)."""
        return self._eigentrust.compute_count

    @property
    def trust_sweep_count(self) -> int:
        """Total refinement sweeps across all recomputes — warm starts
        keep this growing by a few per write instead of ~dozens."""
        return self._eigentrust.sweep_count

    def score(self, entity: Hashable) -> float:
        """Blended reputation in [0, 1].

        EigenTrust values sum to 1 over identities, so they are rescaled
        by the max before blending to be comparable with beta scores.
        """
        local = self.local_score(entity)
        trust = self.global_trust()
        if not trust:
            return local
        top = max(trust.values())
        normalised = trust.get(entity, 0.0) / top if top > 0 else 0.0
        return self._blend * local + (1 - self._blend) * normalised

    def ranking(self, top_n: Optional[int] = None) -> List[Hashable]:
        """Entities ordered by blended score, best first."""
        entities = set(self._beta.entities()) | set(self.global_trust())
        ordered = sorted(entities, key=lambda e: (-self.score(e), e))
        return ordered[:top_n] if top_n is not None else ordered

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def decay(self) -> None:
        """Age the local evidence one epoch."""
        self._beta.decay_all()

    @property
    def events(self) -> List[FeedbackEvent]:
        return [
            FeedbackEvent(
                time=time,
                rater=rater,
                target=target,
                positive=bool(positive),
                weight=weight,
                context=context,
            )
            for time, rater, target, positive, weight, context in zip(
                self._times,
                self._raters,
                self._targets,
                self._positives,
                self._weights,
                self._contexts,
            )
        ]

    def feedback_count(self, target: Optional[Hashable] = None) -> int:
        if target is None:
            return len(self._targets)
        return self._targets.count(target)
