"""The data-centric privacy pipeline — an executable version of the
paper's Fig. 2 (after De Guzman et al. [5]).

Raw sensor frames flow through four stages before reaching any consumer:

1. **Consent gate** — the subject must have granted the channel
   (:class:`~repro.privacy.consent.ConsentRegistry`); bystander-tainted
   frames are additionally scrubbed.
2. **PET stage** — the per-channel mechanism chain obfuscates the frame
   (:mod:`repro.privacy.pets`); suppression drops it.
3. **Budget meter** — DP epsilon is charged against the subject's cap
   (:class:`~repro.privacy.budget.PrivacyBudget`); an exhausted budget
   blocks release.
4. **Disclosure** — the device LED is lit for the duration of the
   release and the activity is registered with the audit hook
   (:mod:`repro.ledger.audit` in the wired framework).

Consumers subscribe per channel and only ever see sanitised frames.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.errors import ConsentError, PrivacyBudgetExceeded, PrivacyError
from repro.obs.instrument import NULL_OBS, Instrumentation
from repro.privacy.budget import PrivacyBudget
from repro.privacy.consent import ConsentRegistry, DisclosureIndicator
from repro.privacy.pets import PET, Passthrough
from repro.privacy.sensors import FrameBatch, SensorFrame

__all__ = ["PipelineStats", "PrivacyPipeline"]

# Consumers receive sanitised frames.
FrameConsumer = Callable[[SensorFrame], None]
# Audit hook: (frame, pet_name) → None; typically registers on a ledger.
AuditHook = Callable[[SensorFrame, str], None]


@dataclass
class PipelineStats:
    """Release accounting for transparency reports."""

    offered: int = 0
    released: int = 0
    blocked_consent: int = 0
    blocked_budget: int = 0
    suppressed: int = 0
    bystander_scrubbed: int = 0

    @property
    def release_rate(self) -> float:
        return self.released / self.offered if self.offered else 0.0


class PrivacyPipeline:
    """Per-channel sanitisation between sensors and consumers.

    Parameters
    ----------
    consent:
        The opt-in switch registry (a fresh default-deny one if omitted).
    budget:
        DP budget accountant (unlimited-ish default cap if omitted).
    indicator:
        Disclosure LED (a fresh one if omitted).
    audit_hook:
        Called once per *released* frame — wire this to
        :meth:`repro.ledger.audit.DataCollectionAuditor.register_activity`
        for on-chain registration.
    obs:
        Optional observability instrumentation; every ingest becomes a
        span (sensor read → PET transform → release) with the outcome
        as an attribute, and budget charges emit spend events.
    """

    def __init__(
        self,
        consent: Optional[ConsentRegistry] = None,
        budget: Optional[PrivacyBudget] = None,
        indicator: Optional[DisclosureIndicator] = None,
        audit_hook: Optional[AuditHook] = None,
        obs: Optional[Instrumentation] = None,
    ):
        self.consent = consent if consent is not None else ConsentRegistry()
        self.budget = budget if budget is not None else PrivacyBudget(default_cap=1e9)
        self.indicator = indicator if indicator is not None else DisclosureIndicator()
        self._audit_hook = audit_hook
        self._obs = obs if obs is not None else NULL_OBS
        self._pets: Dict[str, PET] = {}
        self._consumers: Dict[str, List[FrameConsumer]] = {}
        self.stats = PipelineStats()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def set_pet(self, channel: str, pet: PET) -> None:
        """Install the mechanism (or chain) protecting ``channel``."""
        self._pets[channel] = pet

    def pet_for(self, channel: str) -> PET:
        """Active mechanism for ``channel`` (Passthrough if unset)."""
        return self._pets.get(channel, _PASSTHROUGH)

    def subscribe(self, channel: str, consumer: FrameConsumer) -> None:
        """Register a downstream consumer of sanitised ``channel`` frames."""
        self._consumers.setdefault(channel, []).append(consumer)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def ingest(self, frame: SensorFrame) -> Optional[SensorFrame]:
        """Run one frame through the pipeline.

        Returns the released (sanitised) frame, or None if the frame was
        blocked by consent, suppressed by the PET, or refused by the
        budget.  Never raises for policy blocks — blocking is the normal
        operation of a privacy layer; programming errors still raise.
        """
        self.stats.offered += 1
        with self._obs.span(
            "privacy.pipeline",
            "frame.ingest",
            time=frame.time,
            channel=frame.channel,
            subject=frame.subject,
        ) as span:
            result, outcome = self._run_stages(frame)
            span.set_attribute("outcome", outcome)
            self._obs.counter(f"privacy.pipeline.{outcome}").inc()
        return result

    def _run_stages(self, frame: SensorFrame) -> tuple:
        """The four pipeline stages; returns ``(released_frame, outcome)``."""
        # Stage 1: consent gate.
        try:
            self.consent.check(frame.subject, frame.channel)
        except ConsentError:
            self.stats.blocked_consent += 1
            return None, "blocked_consent"
        sanitized_input = self._scrub_bystanders(frame)

        # Stage 2: PET.
        pet = self.pet_for(frame.channel)
        protected = pet.apply(sanitized_input)
        if protected is None:
            self.stats.suppressed += 1
            return None, "suppressed"

        # Stage 3: budget.
        if pet.epsilon > 0:
            try:
                self.budget.charge(
                    frame.subject, pet.epsilon, channel=frame.channel, time=frame.time
                )
            except PrivacyBudgetExceeded:
                self.stats.blocked_budget += 1
                self._obs.event(
                    "privacy.pipeline",
                    "budget.exhausted",
                    time=frame.time,
                    subject=frame.subject,
                    channel=frame.channel,
                    epsilon=pet.epsilon,
                )
                return None, "blocked_budget"
            self._obs.histogram("privacy.pipeline.epsilon_spent").observe(pet.epsilon)
            self._obs.event(
                "privacy.pipeline",
                "budget.spend",
                time=frame.time,
                subject=frame.subject,
                channel=frame.channel,
                epsilon=pet.epsilon,
                remaining=self.budget.remaining(frame.subject),
            )

        # Stage 4: disclosure + audit + delivery.
        self.indicator.collection_started(frame.channel, frame.time)
        try:
            if self._audit_hook is not None:
                self._audit_hook(protected, pet.name)
            for consumer in self._consumers.get(frame.channel, []):
                consumer(protected)
        finally:
            self.indicator.collection_stopped(frame.channel, frame.time)
        self.stats.released += 1
        self._obs.event(
            "privacy.pipeline",
            "frame.released",
            time=frame.time,
            subject=frame.subject,
            channel=frame.channel,
            pet=pet.name,
        )
        return protected, "released"

    def ingest_all(
        self, frames: Union[Sequence[SensorFrame], FrameBatch]
    ) -> Union[List[SensorFrame], np.ndarray]:
        """Ingest a batch; each frame meets the fate :meth:`ingest` gives it.

        ``frames`` is a list of :class:`SensorFrame` or a columnar
        :class:`FrameBatch`.  A list returns the released frames in
        offered order.  A batch returns the indices of its released
        rows, ascending, and builds a :class:`SensorFrame` only for an
        audit hook or a consumer.

        Consent and PET run one channel at a time, channels in order of
        first appearance: consent verdicts are cached per subject, and
        every refused frame counts one denial in
        :attr:`ConsentRegistry.denied_count`, as through :meth:`ingest`.
        The PET transforms all of the channel's consented frames as one
        block of values, so DP mechanisms draw one ``(k, d)`` noise
        block — the stream of ``k`` per-frame draws.  Two channels whose
        PETs share one generator therefore draw in channel order, not
        offered order.  The DP survivors of every channel are then
        metered in offered order by one
        :meth:`PrivacyBudget.charge_many` call, each at its own frame's
        ε, channel and time, and disclosure (LED, audit hook, consumer
        delivery) runs per released frame, in offered order.  The whole
        batch emits one span with aggregate counters instead of a span
        per frame.
        """
        batch = frames if isinstance(frames, FrameBatch) else None
        if not len(frames):
            return [] if batch is None else np.empty(0, dtype=np.intp)
        listed: Optional[List[SensorFrame]] = None
        if batch is not None:
            subjects, channels = batch.subjects, batch.channels
            times = batch.times.tolist()
            metadata = batch.metadata

            def blocks(rows: List[int]):
                yield rows, batch.values[rows]

        else:
            listed = list(frames)
            subjects = [frame.subject for frame in listed]
            channels = [frame.channel for frame in listed]
            times = [frame.time for frame in listed]
            metadata = [frame.metadata for frame in listed]

            def blocks(rows: List[int]):
                # A block needs one width: split at every width change.
                for _, run in groupby(rows, key=lambda i: listed[i].values.shape):
                    run = list(run)
                    yield run, np.stack([listed[i].values for i in run])

        n = len(subjects)
        stats = self.stats
        stats.offered += n
        by_channel: Dict[str, List[int]] = {}
        for i, channel in enumerate(channels):
            by_channel.setdefault(channel, []).append(i)

        with self._obs.span(
            "privacy.pipeline",
            "batch.ingest",
            time=times[0],
            frames=n,
            channels=len(by_channel),
        ) as span:
            # Stages 1-2, per channel: consent gate, bystander scrub, PET.
            # ``passed`` holds (channel, pet, rows, block) for every
            # unsuppressed block, channels in first-appearance order.
            passed: List[Tuple[str, PET, List[int], np.ndarray]] = []
            scrubbed: Dict[int, Dict] = {}
            blocked_consent = suppressed = 0
            for channel, rows in by_channel.items():
                verdicts: Dict[str, bool] = {}
                consented = []
                for i in rows:
                    subject = subjects[i]
                    allowed = verdicts.get(subject)
                    if allowed is None:
                        allowed = verdicts[subject] = self.consent.is_granted(
                            subject, channel
                        )
                    if allowed:
                        consented.append(i)
                denied = len(rows) - len(consented)
                self.consent.denied_count += denied
                blocked_consent += denied
                if not consented:
                    continue
                if metadata is not None:
                    for i in consented:
                        clean = _without_bystanders(metadata[i])
                        if clean is not None:
                            scrubbed[i] = clean
                pet = self.pet_for(channel)
                for run, values in blocks(consented):
                    block = pet.apply_block(values)
                    if block is None:
                        suppressed += len(run)
                    else:
                        passed.append((channel, pet, run, block))
            stats.blocked_consent += blocked_consent
            stats.suppressed += suppressed
            stats.bystander_scrubbed += len(scrubbed)

            # Stage 3: meter every DP survivor in offered order.
            metered = sorted(
                (i, pet.epsilon)
                for _, pet, run, _ in passed
                if pet.epsilon > 0
                for i in run
            )
            refused: Set[int] = set()
            if metered:
                accepted = self.budget.charge_many(
                    [subjects[i] for i, _ in metered],
                    [epsilon for _, epsilon in metered],
                    channel=[channels[i] for i, _ in metered],
                    time=[times[i] for i, _ in metered],
                )
                refused = {i for (i, _), ok in zip(metered, accepted) if not ok}
                if self._obs.enabled:
                    self._report_spend(passed, refused, times)
            stats.blocked_budget += len(refused)

            # Stage 4: disclosure + audit + delivery, in offered order.
            indicator = self.indicator
            hook = self._audit_hook
            released = sorted(
                (i, pet, block, r)
                for _, pet, run, block in passed
                for r, i in enumerate(run)
                if i not in refused
            )
            out: List[SensorFrame] = []
            for i, pet, block, r in released:
                channel, time = channels[i], times[i]
                consumers = self._consumers.get(channel)
                indicator.collection_started(channel, time)
                try:
                    if listed is not None or hook is not None or consumers:
                        protected = SensorFrame(
                            channel=channel,
                            subject=subjects[i],
                            time=time,
                            values=np.asarray(block[r], dtype=float),
                            metadata=dict(
                                scrubbed.get(i)
                                or (metadata[i] if metadata is not None else {})
                            ),
                            pet_applied=(
                                listed[i].pet_applied if listed is not None else []
                            )
                            + list(pet.provenance),
                        )
                        if hook is not None:
                            hook(protected, pet.name)
                        for consumer in consumers or ():
                            consumer(protected)
                        out.append(protected)
                finally:
                    indicator.collection_stopped(channel, time)
            stats.released += len(released)

            for outcome, count in (
                ("blocked_consent", blocked_consent),
                ("suppressed", suppressed),
                ("blocked_budget", len(refused)),
                ("released", len(released)),
            ):
                if count:
                    self._obs.counter(f"privacy.pipeline.{outcome}").inc(count)
            span.set_attribute("released", len(released))

        if listed is not None:
            return out
        return np.array([i for i, _, _, _ in released], dtype=np.intp)

    def _report_spend(
        self,
        passed: List[Tuple[str, PET, List[int], np.ndarray]],
        refused: Set[int],
        times: List[float],
    ) -> None:
        """Per DP channel, in first-appearance order: one
        ``budget.exhausted`` event if the meter refused any of its
        frames (at the channel's first survivor's time), then one
        ``epsilon_spent`` observation per accepted frame."""
        survivors: Dict[str, Tuple[PET, List[int]]] = {}
        for channel, pet, run, _ in passed:
            if pet.epsilon > 0:
                survivors.setdefault(channel, (pet, []))[1].extend(run)
        spent = self._obs.histogram("privacy.pipeline.epsilon_spent")
        for channel, (pet, rows) in survivors.items():
            denied = sum(i in refused for i in rows)
            if denied:
                self._obs.event(
                    "privacy.pipeline",
                    "budget.exhausted",
                    time=times[rows[0]],
                    channel=channel,
                    refused=denied,
                    epsilon=pet.epsilon,
                )
            for _ in range(len(rows) - denied):
                spent.observe(pet.epsilon)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _scrub_bystanders(self, frame: SensorFrame) -> SensorFrame:
        """Remove bystander captures from spatial scans before any
        release (bystanders cannot consent, so their data never leaves
        the device)."""
        metadata = _without_bystanders(frame.metadata)
        if metadata is None:
            return frame
        scrubbed = frame.copy_with(frame.values, pet_name=None)
        scrubbed.metadata = metadata
        self.stats.bystander_scrubbed += 1
        return scrubbed


def _without_bystanders(metadata: Dict) -> Optional[Dict]:
    """A frame's metadata with its bystander captures scrubbed, or None
    if it captured no bystanders."""
    if not metadata.get("bystanders_captured", 0):
        return None
    return {**metadata, "bystanders_captured": 0, "bystanders_scrubbed": True}


_PASSTHROUGH = Passthrough()
