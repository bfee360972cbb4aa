"""Workload generators: the synthetic corpora behind the experiments.

Each generator owns the data-shape details of one experiment family so
benchmarks and tests stay declarative:

* :func:`sensor_corpus` — labelled train/eval frame sets per channel
  (experiment E1, privacy/utility curves).
* :func:`linkage_workload` — reference + anonymous session observations
  at a given clone-usage rate (experiment E2).
* :func:`dao_proposal_load` — a stream of proposal descriptors spread
  over topics (experiment E5).
* :func:`synthetic_interaction_batch` — one columnar epoch of
  avatar-to-avatar interactions for batched moderation at population
  scale (the load workload's moderation phase).
* :func:`synthetic_frame_burst` — one columnar burst of sensor frames
  over the load workload's hot subjects, named by agent index (its
  privacy phase).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.privacy.avatars import AvatarIdentityManager, SessionObservation
from repro.privacy.profiles import UserProfile, generate_population
from repro.privacy.sensors import (
    FrameBatch,
    GaitSensor,
    GazeSensor,
    HeartRateSensor,
    Sensor,
    SensorFrame,
)
from repro.world.interactions import InteractionBatch, InteractionKind

__all__ = [
    "SensorCorpus",
    "sensor_corpus",
    "LinkageWorkload",
    "linkage_workload",
    "dao_proposal_load",
    "synthetic_interaction_batch",
    "synthetic_frame_burst",
]


@dataclass
class SensorCorpus:
    """Labelled frames for attacker training and evaluation."""

    channel: str
    profiles: Dict[str, UserProfile]
    train_frames: List[SensorFrame]
    eval_frames: List[SensorFrame]


_SENSOR_FACTORIES = {
    "gaze": GazeSensor,
    "gait": GaitSensor,
    "heart_rate": HeartRateSensor,
}


def sensor_corpus(
    channel: str,
    n_users: int,
    rng: np.random.Generator,
    train_frames_per_user: int = 3,
    eval_frames_per_user: int = 1,
    train_fraction: float = 0.5,
) -> SensorCorpus:
    """Build a train/eval split over a fresh population.

    The attacker trains on frames from one half of the population and is
    evaluated on frames from the *other* half — its background knowledge
    is the population-level signal/attribute correlation, not per-user
    templates, matching the §II-A threat model.
    """
    if channel not in _SENSOR_FACTORIES:
        raise ValueError(
            f"channel must be one of {sorted(_SENSOR_FACTORIES)}, got {channel!r}"
        )
    population = generate_population(n_users, rng)
    profiles = {u.user_id: u for u in population}
    sensor: Sensor = _SENSOR_FACTORIES[channel](rng)
    split = max(1, int(train_fraction * n_users))
    train_users, eval_users = population[:split], population[split:]
    train_frames = [
        sensor.sample(user, t)
        for user in train_users
        for t in range(train_frames_per_user)
    ]
    eval_frames = [
        sensor.sample(user, 100.0 + t)
        for user in eval_users
        for t in range(eval_frames_per_user)
    ]
    return SensorCorpus(
        channel=channel,
        profiles=profiles,
        train_frames=train_frames,
        eval_frames=eval_frames,
    )


@dataclass
class LinkageWorkload:
    """Sessions for the re-identification experiment (E2)."""

    identity: AvatarIdentityManager
    truth: Dict[str, str]  # avatar id → user id
    reference_sessions: List[Tuple[str, np.ndarray]]  # (user, behaviour)
    anonymous_sessions: List[SessionObservation]


def linkage_workload(
    n_users: int,
    sessions_per_user: int,
    clone_rate: float,
    rng: np.random.Generator,
    behaviour_dims: int = 6,
    behaviour_noise: float = 0.3,
    clone_persona_shift: float = 1.5,
) -> LinkageWorkload:
    """Generate observed sessions at a given clone-usage rate.

    Every user has a stable latent behaviour vector; each session's
    observed behaviour is that vector plus noise.  With probability
    ``clone_rate`` a session runs under a *fresh secondary avatar* and
    the user adopts a shifted persona (mean shift of
    ``clone_persona_shift`` per dimension) — Falchuk et al.'s [9] point
    is precisely that the clone "hides their real behaviour", not just
    their name.  Primary-avatar sessions are trivially attributable
    (users link primaries to public profiles), which is what
    :func:`evaluate_linkage` exploits.
    """
    if not 0 <= clone_rate <= 1:
        raise ValueError(f"clone_rate must be in [0, 1], got {clone_rate}")
    identity = AvatarIdentityManager()
    truth: Dict[str, str] = {}
    reference: List[Tuple[str, np.ndarray]] = []
    anonymous: List[SessionObservation] = []
    latent = {
        f"user-{i:05d}": rng.normal(0.0, 1.0, size=behaviour_dims)
        for i in range(n_users)
    }
    for user_id, base in latent.items():
        primary = identity.register_user(user_id)
        truth[primary] = user_id
        # The attacker's background knowledge: one attributed session.
        reference.append(
            (user_id, base + rng.normal(0, behaviour_noise, size=behaviour_dims))
        )
        for s in range(sessions_per_user):
            if rng.random() < clone_rate:
                avatar_id = identity.spawn_clone(user_id)
                persona = base + rng.normal(
                    0, clone_persona_shift, size=behaviour_dims
                )
            else:
                avatar_id = primary
                persona = base
            behaviour = persona + rng.normal(
                0, behaviour_noise, size=behaviour_dims
            )
            truth[avatar_id] = user_id
            anonymous.append(
                SessionObservation(
                    avatar_id=avatar_id, behaviour=behaviour, time=float(s)
                )
            )
    return LinkageWorkload(
        identity=identity,
        truth=truth,
        reference_sessions=reference,
        anonymous_sessions=anonymous,
    )


def evaluate_linkage(workload: LinkageWorkload) -> float:
    """Attack accuracy of the strongest realistic adversary on E2.

    The adversary attributes primary-avatar sessions by identity (those
    mappings are public) and falls back to behavioural nearest-neighbour
    matching for clone sessions.  Returns the fraction of all sessions
    correctly attributed.
    """
    from repro.privacy.avatars import LinkageAttacker

    attacker = LinkageAttacker()
    for user_id, behaviour in workload.reference_sessions:
        attacker.observe_reference(user_id, behaviour)
    primary_avatars = {
        workload.identity.primary_of(user)
        for user, _ in workload.reference_sessions
    }
    hits = 0
    for observation in workload.anonymous_sessions:
        if observation.avatar_id in primary_avatars:
            hits += 1  # ID linkage is exact for primaries
            continue
        guess = attacker.attribute(observation)
        if guess is not None and guess == workload.truth[observation.avatar_id]:
            hits += 1
    if not workload.anonymous_sessions:
        return 0.0
    return hits / len(workload.anonymous_sessions)


def synthetic_interaction_batch(
    n_agents: int,
    n_interactions: int,
    time: float,
    rng: np.random.Generator,
    abusive_rate: float = 0.05,
    undelivered_rate: float = 0.05,
    kind: str = InteractionKind.CHAT.value,
    id_of=None,
) -> InteractionBatch:
    """One columnar epoch of synthetic interactions.

    Initiator/target indices are uniform over the population (self
    targets bumped to the next agent), ``abusive`` is the ground-truth
    misconduct label at ``abusive_rate``, and ``undelivered_rate``
    models upstream gates (bubbles, statuses) dropping a fraction before
    moderation ever sees them.  Deterministic given ``rng``.
    """
    if n_agents < 2:
        raise ValueError(f"n_agents must be >= 2, got {n_agents}")
    if n_interactions < 0:
        raise ValueError(f"n_interactions must be >= 0, got {n_interactions}")
    for name, rate in (("abusive_rate", abusive_rate),
                       ("undelivered_rate", undelivered_rate)):
        if not 0 <= rate <= 1:
            raise ValueError(f"{name} must be in [0, 1], got {rate}")
    initiators = rng.integers(0, n_agents, size=n_interactions, dtype=np.int64)
    targets = rng.integers(0, n_agents, size=n_interactions, dtype=np.int64)
    clash = targets == initiators
    targets[clash] = (targets[clash] + 1) % n_agents
    abusive = rng.random(n_interactions) < abusive_rate
    delivered = rng.random(n_interactions) >= undelivered_rate
    kwargs = {} if id_of is None else {"id_of": id_of}
    return InteractionBatch(
        time=time,
        initiators=initiators,
        targets=targets,
        abusive=abusive,
        delivered=delivered,
        kind=kind,
        **kwargs,
    )


def synthetic_frame_burst(
    subjects: Sequence[int],
    n_frames: int,
    time: float,
    rng: np.random.Generator,
    channel_of,
    value_dims: int = 4,
) -> FrameBatch:
    """One epoch burst of sensor frames over a hot subject set.

    Each frame picks a subject uniformly from ``subjects`` (so caps on a
    small hot set genuinely exhaust), streams on the subject's fixed
    ``channel_of(subject)``, and carries ``value_dims`` standard-normal
    values for the PET stage to obfuscate.  The returned
    :class:`~repro.privacy.sensors.FrameBatch` names each frame's
    subject by the picked entry of ``subjects`` (the load workload's
    agent indices).  Deterministic given ``rng``; exactly
    ``2 * n_frames`` generator draws, a subject pick then that frame's
    values.
    """
    if n_frames < 0:
        raise ValueError(f"n_frames must be >= 0, got {n_frames}")
    if not subjects and n_frames:
        raise ValueError("subjects must be non-empty when n_frames > 0")
    values = np.empty((n_frames, value_dims))
    picks: List[int] = []
    pick, normal, count = rng.integers, rng.normal, len(subjects)
    for row in values:
        picks.append(subjects[int(pick(count))])
        row[:] = normal(0.0, 1.0, size=value_dims)
    return FrameBatch(
        subjects=picks,
        channels=[channel_of(subject) for subject in picks],
        times=np.full(n_frames, float(time)),
        values=values,
    )


def dao_proposal_load(
    count: int,
    topics: Sequence[str],
    rng: np.random.Generator,
) -> List[Dict[str, str]]:
    """A stream of proposal descriptors spread uniformly over topics."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not topics:
        raise ValueError("topics must be non-empty")
    load = []
    for i in range(count):
        topic = topics[int(rng.integers(len(topics)))]
        load.append(
            {
                "title": f"{topic} change #{i}",
                "topic": topic,
            }
        )
    return load
