"""Consent, granular switches, and disclosure cues.

§II-D, nearly verbatim requirements: "XR devices that collect sensible
data should provide granular control (switches) to manage the input
data flows from sensors and provide visual cues (e.g., LED in the
device) when personal data is collected or transmitted."

* :class:`ConsentRegistry` — per-subject, per-channel opt-in switches;
  the pipeline refuses to forward frames from unconsented channels.
* :class:`DisclosureIndicator` — the LED: it is *on* exactly while some
  channel is actively collecting, and keeps an inspectable on/off
  history so experiments can verify disclosure correctness.
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, List, Set, Tuple

from repro.errors import ConsentError

__all__ = ["ConsentRegistry", "DisclosureIndicator"]


class ConsentRegistry:
    """Per-(subject, channel) opt-in switches.

    The default is **deny**: a channel must be explicitly granted
    (privacy-by-default, as GDPR art. 25 demands).  Bystanders can never
    be marked as consenting — they have no relationship with the device.
    A subject is any hashable key: a user id, or an agent index in the
    load workload.
    """

    def __init__(self) -> None:
        self._granted: Set[Tuple[Hashable, str]] = set()
        self._bystanders: Set[Hashable] = set()
        self.denied_count = 0

    def register_bystander(self, subject: Hashable) -> None:
        """Mark ``subject`` as a bystander; grants to them are illegal."""
        self._bystanders.add(subject)
        # Revoke anything previously granted by mistake.
        self._granted = {
            (s, c) for (s, c) in self._granted if s != subject
        }

    def grant(self, subject: Hashable, channel: str) -> None:
        """Record opt-in for one channel.

        Raises
        ------
        ConsentError
            If ``subject`` is a registered bystander.
        """
        if subject in self._bystanders:
            raise ConsentError(
                f"bystander {subject} cannot consent to {channel!r} collection"
            )
        self._granted.add((subject, channel))

    def revoke(self, subject: Hashable, channel: str) -> None:
        self._granted.discard((subject, channel))

    def revoke_all(self, subject: Hashable) -> None:
        self._granted = {(s, c) for (s, c) in self._granted if s != subject}

    def is_granted(self, subject: Hashable, channel: str) -> bool:
        return (subject, channel) in self._granted

    def check(self, subject: Hashable, channel: str) -> None:
        """Enforce; counts denials for the transparency metrics."""
        if not self.is_granted(subject, channel):
            self.denied_count += 1
            raise ConsentError(
                f"no consent from {subject} for channel {channel!r}"
            )

    def channels_granted(self, subject: Hashable) -> Set[str]:
        return {c for (s, c) in self._granted if s == subject}


class DisclosureIndicator:
    """The device LED: on iff any channel is actively collecting.

    :meth:`collection_started` / :meth:`collection_stopped` are called by
    the pipeline around every forwarded frame; the history lets tests
    assert the §II-D property "the LED is on whenever personal data is
    collected or transmitted".  The history is two columns — each
    on/off transition's time (read back as a float) and new state — not
    an object per transition.
    """

    def __init__(self) -> None:
        self._active: Dict[str, int] = {}
        self._collecting = 0  # sum of the per-channel counts
        self._times = array("d")
        self._states = bytearray()

    @property
    def is_on(self) -> bool:
        return self._collecting > 0

    @property
    def active_channels(self) -> Tuple[str, ...]:
        return tuple(sorted(c for c, n in self._active.items() if n > 0))

    def collection_started(self, channel: str, time: float) -> None:
        self._active[channel] = self._active.get(channel, 0) + 1
        self._collecting += 1
        if self._collecting == 1:
            self._times.append(time)
            self._states.append(True)

    def collection_stopped(self, channel: str, time: float) -> None:
        if self._active.get(channel, 0) <= 0:
            raise ConsentError(
                f"collection_stopped({channel!r}) without matching start"
            )
        self._active[channel] -= 1
        self._collecting -= 1
        if not self._collecting:
            self._times.append(time)
            self._states.append(False)

    def was_on_at(self, time: float) -> bool:
        """Replay the history: was the LED on at ``time``?"""
        state = False
        for at, on in zip(self._times, self._states):
            if at > time:
                break
            state = on
        return bool(state)

    @property
    def transitions(self) -> List[Tuple[float, bool]]:
        return [(at, bool(on)) for at, on in zip(self._times, self._states)]
