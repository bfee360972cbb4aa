"""Privacy-enhancing technologies: frame-level obfuscation mechanisms.

§II-A: "fine-control of collected data can be managed by
privacy-enhancing technologies (PETs) that obfuscate any sensible data
from the sensors before being shared with cloud services."

Every PET maps a :class:`~repro.privacy.sensors.SensorFrame` to a new
frame (never mutating the input) and appends its name to the frame's
PET provenance.  Each mechanism is written once, over a block of frame
values with one frame per row (:meth:`PET.apply_block`, which the batch
pipeline calls with a whole channel's frames); :meth:`PET.apply` is the
one-row case.  Differential-privacy mechanisms report an ``epsilon``
consumed per frame so the budget accountant can meter them.

Mechanisms:

* :class:`LaplaceMechanism` — ε-DP additive noise for bounded signals.
* :class:`GaussianMechanism` — (ε, δ)-DP additive noise.
* :class:`TemporalDownsampler` — keeps every k-th sample of a window.
* :class:`SpatialGeneralizer` — snaps coordinates to a grid cell.
* :class:`Aggregator` — replaces a vector by its mean (k-anonymity-style
  generalisation within a frame).
* :class:`Suppressor` — drops the frame entirely (the "switch off").
* :class:`Passthrough` — identity, for baselines.
* :class:`PETChain` — ordered composition.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PrivacyError
from repro.privacy.sensors import SensorFrame

__all__ = [
    "PET",
    "LaplaceMechanism",
    "GaussianMechanism",
    "TemporalDownsampler",
    "SpatialGeneralizer",
    "Aggregator",
    "Suppressor",
    "Passthrough",
    "PETChain",
]


class PET:
    """Base mechanism: subclasses implement :meth:`apply_block`.

    ``epsilon`` is the differential-privacy cost charged per processed
    frame (0 for non-DP mechanisms — they still transform, but consume
    no formal budget).
    """

    name = "abstract"
    epsilon = 0.0

    @property
    def provenance(self) -> Tuple[str, ...]:
        """The names :meth:`apply` appends to a frame's ``pet_applied``."""
        return (self.name,)

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        """Transform a block of frame values, one frame per row (axis 0).

        Row ``i`` of the result is what the mechanism makes of the frame
        whose values are ``values[i]``, and random mechanisms draw in row
        order, so one ``(k, d)`` block consumes their generator exactly
        as ``k`` frames applied one by one.  None suppresses every row.
        """
        raise NotImplementedError

    def apply(self, frame: SensorFrame) -> Optional[SensorFrame]:
        """Transform ``frame``; None means the frame is suppressed."""
        block = self.apply_block(np.asarray(frame.values)[np.newaxis])
        if block is None:
            return None
        return SensorFrame(
            channel=frame.channel,
            subject=frame.subject,
            time=frame.time,
            values=np.asarray(block[0], dtype=float),
            metadata=dict(frame.metadata),
            pet_applied=frame.pet_applied + list(self.provenance),
        )


class Passthrough(PET):
    """Identity transform (the no-protection baseline)."""

    name = "passthrough"

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        return values


class LaplaceMechanism(PET):
    """ε-differentially-private Laplace noise.

    Noise scale is ``sensitivity / epsilon`` per coordinate.  For the
    simulated channels, sensitivity defaults to the signal's natural
    range so epsilon values are comparable across channels.
    """

    name = "laplace"

    def __init__(
        self, epsilon: float, rng: np.random.Generator, sensitivity: float = 1.0
    ):
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if sensitivity <= 0:
            raise PrivacyError(f"sensitivity must be positive, got {sensitivity}")
        self.epsilon = float(epsilon)
        self._sensitivity = float(sensitivity)
        self._rng = rng

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        scale = self._sensitivity / self.epsilon
        return values + self._rng.laplace(0.0, scale, size=values.shape)


class GaussianMechanism(PET):
    """(ε, δ)-differentially-private Gaussian noise (analytic calibration
    σ = sensitivity · sqrt(2 ln(1.25/δ)) / ε)."""

    name = "gaussian"

    def __init__(
        self,
        epsilon: float,
        rng: np.random.Generator,
        delta: float = 1e-5,
        sensitivity: float = 1.0,
    ):
        if epsilon <= 0:
            raise PrivacyError(f"epsilon must be positive, got {epsilon}")
        if not 0 < delta < 1:
            raise PrivacyError(f"delta must be in (0, 1), got {delta}")
        self.epsilon = float(epsilon)
        self._sigma = sensitivity * np.sqrt(2.0 * np.log(1.25 / delta)) / epsilon
        self._rng = rng

    @property
    def sigma(self) -> float:
        return float(self._sigma)

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        return values + self._rng.normal(0.0, self._sigma, size=values.shape)


class TemporalDownsampler(PET):
    """Keep every ``factor``-th element of the frame (coarser sampling =
    less behavioural detail)."""

    name = "downsample"

    def __init__(self, factor: int):
        if factor < 1:
            raise PrivacyError(f"factor must be >= 1, got {factor}")
        self._factor = factor

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        kept = values[:, :: self._factor]
        if kept.size == 0:
            kept = values[:, :1]
        return kept


class SpatialGeneralizer(PET):
    """Snap values to a grid of ``cell_size`` — location generalisation
    for spatial scans (a point is only known to its cell)."""

    name = "spatial-generalize"

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise PrivacyError(f"cell_size must be positive, got {cell_size}")
        self._cell = float(cell_size)

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        return np.floor(values / self._cell) * self._cell + self._cell / 2.0


class Aggregator(PET):
    """Collapse the frame to its mean — maximal within-frame
    generalisation (one number leaves the device)."""

    name = "aggregate"

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        # Row by row: one frame's own mean, summed as it always was.
        return np.array(
            [float(row.mean()) for row in values], dtype=float
        ).reshape(len(values), 1)


class Suppressor(PET):
    """Drop the frame — the per-channel hardware switch §II-D asks for."""

    name = "suppress"

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        return None


class PETChain(PET):
    """Ordered composition of mechanisms.

    The chain's ``epsilon`` is the sum of its members' (sequential
    composition theorem).  Suppression anywhere short-circuits.
    """

    name = "chain"

    def __init__(self, pets: Sequence[PET]):
        if not pets:
            raise PrivacyError("a PET chain needs at least one mechanism")
        self._pets: List[PET] = list(pets)
        self.epsilon = float(sum(p.epsilon for p in self._pets))

    @property
    def members(self) -> List[PET]:
        return list(self._pets)

    @property
    def provenance(self) -> Tuple[str, ...]:
        return tuple(name for pet in self._pets for name in pet.provenance)

    def apply_block(self, values: np.ndarray) -> Optional[np.ndarray]:
        if len(values) > 1 and sum(pet.epsilon > 0 for pet in self._pets) > 1:
            # Two noise-drawing members may share a generator: one frame
            # at a time keeps the per-frame draw order.
            rows = [self.apply_block(values[i : i + 1]) for i in range(len(values))]
            if any(row is None for row in rows):
                return None
            return np.concatenate(rows)
        current = values
        for pet in self._pets:
            current = pet.apply_block(current)
            if current is None:
                return None
        return current
