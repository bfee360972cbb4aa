"""XR sensor models: the raw-signal side of the paper's Fig. 2 pipeline.

Each sensor turns a user's latent attributes into a numeric
:class:`SensorFrame`, with noise, so that (a) attributes are genuinely
inferable from raw frames (the threat the paper describes) and (b) PETs
can measurably reduce that inference while costing utility.

Channels and what they leak:

* ``gaze`` — dwell-time share over content categories; leaks
  **preference** (Renaud et al. [3]: "gaze data can give away users'
  sexual preferences").
* ``gait`` — stride length / cadence / sway; leaks **fitness**.
* ``heart_rate`` — BPM samples; leaks **stress**.
* ``spatial_map`` — room-scan points + bystander hits; leaks the
  **physical surroundings** of users *and bystanders* (De Guzman [6]).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Sequence

import numpy as np

from repro.errors import PrivacyError
from repro.privacy.profiles import PREFERENCE_CATEGORIES, UserProfile

__all__ = [
    "SensorFrame",
    "FrameBatch",
    "Sensor",
    "GazeSensor",
    "GaitSensor",
    "HeartRateSensor",
    "SpatialMapSensor",
    "SensorRig",
]


@dataclass
class SensorFrame:
    """One sensor reading.

    ``values`` is a 1-D float array whose meaning is channel-specific;
    ``metadata`` carries structured extras (e.g. bystander hits in a
    spatial scan).  ``pet_applied`` names the PETs that have processed
    the frame so far — the provenance the audit layer registers.
    """

    channel: str
    subject: Hashable
    time: float
    values: np.ndarray
    metadata: Dict[str, Any] = field(default_factory=dict)
    pet_applied: List[str] = field(default_factory=list)

    def copy_with(self, values: np.ndarray, pet_name: Optional[str] = None) -> "SensorFrame":
        """Derive a transformed frame, appending PET provenance."""
        return SensorFrame(
            channel=self.channel,
            subject=self.subject,
            time=self.time,
            values=np.asarray(values, dtype=float),
            metadata=dict(self.metadata),
            pet_applied=self.pet_applied + ([pet_name] if pet_name else []),
        )


@dataclass
class FrameBatch:
    """Raw sensor frames of one width as columns: row ``i`` is one frame.

    ``subjects``, ``channels`` and ``times`` hold one entry per row and
    ``values`` is an ``(n, d)`` float64 block, so a burst costs a few
    containers instead of a :class:`SensorFrame` (with its dict and
    list) per frame.  ``metadata`` is None when no row carries extras,
    else one dict per row (e.g. a spatial scan's bystander hits).  Rows
    are raw: they carry no PET provenance.
    """

    subjects: List[Hashable] = field(default_factory=list)
    channels: List[str] = field(default_factory=list)
    times: np.ndarray = field(default_factory=lambda: np.empty(0))
    values: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    metadata: Optional[List[Dict[str, Any]]] = None

    def __post_init__(self) -> None:
        n = len(self.subjects)
        if not (
            len(self.channels) == len(self.times) == len(self.values) == n
        ) or (self.metadata is not None and len(self.metadata) != n):
            raise PrivacyError("every FrameBatch column needs one entry per row")

    def __len__(self) -> int:
        return len(self.subjects)

    @classmethod
    def concat(cls, batches: Sequence["FrameBatch"]) -> "FrameBatch":
        """The rows of ``batches`` in order (empty batches are skipped)."""
        parts = [batch for batch in batches if len(batch)]
        if not parts:
            return cls()
        if len(parts) == 1:
            return parts[0]
        metadata = None
        if any(part.metadata is not None for part in parts):
            metadata = [
                meta
                for part in parts
                for meta in (
                    part.metadata
                    if part.metadata is not None
                    else [{} for _ in range(len(part))]
                )
            ]
        return cls(
            subjects=[s for part in parts for s in part.subjects],
            channels=[c for part in parts for c in part.channels],
            times=np.concatenate([part.times for part in parts]),
            values=np.concatenate([part.values for part in parts]),
            metadata=metadata,
        )


class Sensor:
    """Base sensor: subclasses implement :meth:`sample`."""

    channel = "abstract"

    def __init__(self, rng: np.random.Generator):
        self._rng = rng

    def sample(self, user: UserProfile, time: float) -> SensorFrame:
        raise NotImplementedError


class GazeSensor(Sensor):
    """Dwell-time distribution over content categories.

    The user's preferred category receives a Dirichlet-concentrated
    share; ``focus`` controls how sharply preference shows (higher =
    leakier signal).
    """

    channel = "gaze"

    def __init__(self, rng: np.random.Generator, focus: float = 8.0):
        super().__init__(rng)
        if focus <= 0:
            raise PrivacyError(f"focus must be positive, got {focus}")
        self._focus = focus

    def sample(self, user: UserProfile, time: float) -> SensorFrame:
        alpha = np.ones(PREFERENCE_CATEGORIES)
        alpha[user.preference] += self._focus
        dwell = self._rng.dirichlet(alpha)
        return SensorFrame(
            channel=self.channel, subject=user.user_id, time=time, values=dwell
        )


class GaitSensor(Sensor):
    """Stride features: [stride_length_m, cadence_hz, sway_cm].

    Fit users stride longer, faster, and steadier.
    """

    channel = "gait"

    def sample(self, user: UserProfile, time: float) -> SensorFrame:
        stride = 0.5 + 0.5 * user.fitness + self._rng.normal(0, 0.05)
        cadence = 1.4 + 0.6 * user.fitness + self._rng.normal(0, 0.05)
        sway = 3.0 - 2.0 * user.fitness + self._rng.normal(0, 0.2)
        values = np.array([stride, cadence, max(0.1, sway)])
        return SensorFrame(
            channel=self.channel, subject=user.user_id, time=time, values=values
        )


class HeartRateSensor(Sensor):
    """A short BPM window whose mean tracks stress."""

    channel = "heart_rate"

    def __init__(self, rng: np.random.Generator, window: int = 8):
        super().__init__(rng)
        if window < 1:
            raise PrivacyError(f"window must be >= 1, got {window}")
        self._window = window

    def sample(self, user: UserProfile, time: float) -> SensorFrame:
        base = 60.0 + 40.0 * user.stress
        samples = base + self._rng.normal(0, 3.0, size=self._window)
        return SensorFrame(
            channel=self.channel, subject=user.user_id, time=time, values=samples
        )


class SpatialMapSensor(Sensor):
    """Room-scale point scan.

    Emits a flattened set of (x, y) points around the user; each scan
    may capture bystanders (recorded in metadata — the non-consenting
    parties §II-A worries about).
    """

    channel = "spatial_map"

    def __init__(
        self,
        rng: np.random.Generator,
        points: int = 32,
        room_size: float = 5.0,
        bystanders_nearby: int = 0,
    ):
        super().__init__(rng)
        if points < 1:
            raise PrivacyError(f"points must be >= 1, got {points}")
        self._points = points
        self._room_size = room_size
        self._bystanders_nearby = bystanders_nearby

    def sample(self, user: UserProfile, time: float) -> SensorFrame:
        pts = self._rng.uniform(0, self._room_size, size=(self._points, 2))
        captured = int(
            self._rng.binomial(self._bystanders_nearby, 0.5)
        ) if self._bystanders_nearby else 0
        return SensorFrame(
            channel=self.channel,
            subject=user.user_id,
            time=time,
            values=pts.ravel(),
            metadata={"bystanders_captured": captured, "room_size": self._room_size},
        )


class SensorRig:
    """The full sensor package of one headset.

    Samples every mounted sensor for a user at a given time — the raw
    input stream Fig. 2's protection layer must sanitise.
    """

    def __init__(self, sensors: List[Sensor]):
        if not sensors:
            raise PrivacyError("a rig needs at least one sensor")
        channels = [s.channel for s in sensors]
        if len(set(channels)) != len(channels):
            raise PrivacyError(f"duplicate channels in rig: {channels}")
        self._sensors = {s.channel: s for s in sensors}

    @property
    def channels(self) -> List[str]:
        return list(self._sensors)

    def sensor(self, channel: str) -> Sensor:
        if channel not in self._sensors:
            raise PrivacyError(f"rig has no {channel!r} sensor")
        return self._sensors[channel]

    def sample_all(self, user: UserProfile, time: float) -> List[SensorFrame]:
        return [sensor.sample(user, time) for sensor in self._sensors.values()]

    @classmethod
    def default(cls, rng: np.random.Generator, bystanders_nearby: int = 0) -> "SensorRig":
        """The standard HMD rig: gaze + gait + heart rate + spatial map."""
        return cls(
            [
                GazeSensor(rng),
                GaitSensor(rng),
                HeartRateSensor(rng),
                SpatialMapSensor(rng, bystanders_nearby=bystanders_nearby),
            ]
        )
