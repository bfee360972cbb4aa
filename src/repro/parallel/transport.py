"""Zero-copy shard transport: the shared-memory column plane.

Before this module, every epoch re-pickled shard state into each
:class:`~repro.parallel.worker.ShardTask`: the shard's nonce-column
slice, the hot-subject spend snapshot — serialization cost growing with
``agents x epochs x shards`` even though the columns never leave the
parent's address space.  The plane moves those columns into
``multiprocessing.shared_memory`` segments **once** and ships tasks
that carry only :class:`ColumnDescriptor` handles (segment name, dtype,
``(lo, hi)`` window, generation) — a few hundred bytes regardless of
population size.  Workers attach read-only views on demand and cache
the attachment per process.

Generations make stale reads impossible:

* the base publish is **generation 0** — an immutable segment the
  parent never writes again;
* each epoch's changed entries are re-published as a new **delta
  segment** (``int64`` indices followed by values), bumping the
  column's generation; a full re-publish (``kind="full"``) resets the
  chain;
* a descriptor names the exact generation its task must read, plus the
  delta chain needed to reach it; the worker-side cache applies deltas
  it has not seen, in order, onto a private materialized copy;
* a descriptor *older* than what a process already holds raises
  :class:`StaleDescriptorError` — generations only move forward, so a
  scheduling layer can never hand a worker yesterday's state.

Values read through a descriptor are bit-identical to the arrays the
pickle path ships, so the byte-identical-for-any-scheduling contract is
untouched: ``transport`` joins ``workers`` and ``steal`` as a pure
transport/scheduling knob (``tests/integration/test_determinism.py``
pins it).

Lifecycle: a :class:`ColumnPlane` owns its segments and unlinks them on
``close()`` (context-manager exit, ``run_load``'s ``finally``, or the
pid-guarded ``atexit`` hook — forked children inherit the registry but
never unlink the parent's planes).  If the parent is killed before any
of those run, the stdlib resource tracker — which every segment stays
registered with — unlinks the segments at its own shutdown: the crash
net.  :func:`leaked_segments` lists plane segments still visible in
``/dev/shm`` so gates can assert none survived.
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

try:  # pragma: no cover - stdlib on every supported platform
    from multiprocessing import shared_memory as _shm
except ImportError:  # pragma: no cover - minimal builds
    _shm = None  # type: ignore[assignment]

__all__ = [
    "SEGMENT_PREFIX",
    "TransportError",
    "StaleDescriptorError",
    "DeltaDescriptor",
    "ColumnDescriptor",
    "ColumnPlane",
    "shm_available",
    "attach_column",
    "resolve_descriptor",
    "attach_cache_stats",
    "evict_plane",
    "clear_attach_cache",
    "leaked_segments",
    "unlink_all_planes",
]

# Every segment name starts with this prefix, so /dev/shm leak checks
# can scan for plane segments without false positives.
SEGMENT_PREFIX = "rtp"


class TransportError(RuntimeError):
    """A shared-memory transport invariant was violated."""


class StaleDescriptorError(TransportError):
    """A descriptor referenced an older generation than this process
    already holds — generations only move forward."""


def shm_available() -> bool:
    """Whether ``multiprocessing.shared_memory`` is usable here."""
    return _shm is not None


@dataclass(frozen=True)
class DeltaDescriptor:
    """One re-publish step in a column's generation chain.

    ``kind="delta"`` segments hold ``count`` int64 indices followed by
    ``count`` values of the column dtype; ``kind="full"`` segments hold
    the whole column and reset the chain.
    """

    segment: str
    generation: int
    count: int
    kind: str  # "delta" | "full"


@dataclass(frozen=True)
class ColumnDescriptor:
    """A small, picklable handle to one column window at one generation.

    This is what ships inside a :class:`~repro.parallel.worker.ShardTask`
    instead of a materialized array copy: a few hundred bytes whatever
    the population size.  ``deltas`` is the chain needed to advance a
    generation-0 attach to ``generation``.
    """

    plane: str
    column: str
    segment: str  # the generation-0 base segment ("" when length == 0)
    dtype: str
    length: int
    generation: int
    lo: int
    hi: int
    deltas: Tuple[DeltaDescriptor, ...] = ()


# ----------------------------------------------------------------------
# Parent side: the plane publisher
# ----------------------------------------------------------------------


@dataclass
class _ColumnState:
    dtype: np.dtype
    length: int
    generation: int
    base_segment: str
    deltas: List[DeltaDescriptor] = field(default_factory=list)


_PLANE_SEQ = 0
# Live planes by id; forked children inherit entries but the owner-pid
# guard keeps them from ever unlinking the parent's segments.
_LIVE_PLANES: Dict[str, "ColumnPlane"] = {}
_ATEXIT_PID: Optional[int] = None


def unlink_all_planes() -> None:
    """Close (and unlink) every plane this process created."""
    for plane in list(_LIVE_PLANES.values()):
        if plane.owner_pid == os.getpid():
            plane.close()


class ColumnPlane:
    """Publishes columns into shared memory; owns the segments.

    Published segments are **immutable**: updates always create a new
    delta/full segment under the next generation, never write an
    existing one — that is what lets workers hold zero-copy read-only
    views of generation 0 without any locking.
    """

    def __init__(self) -> None:
        if _shm is None:
            raise TransportError(
                "multiprocessing.shared_memory is unavailable on this "
                "platform; use transport='pickle'"
            )
        global _PLANE_SEQ, _ATEXIT_PID
        _PLANE_SEQ += 1
        self.plane_id = f"{SEGMENT_PREFIX}-{os.getpid()}-{_PLANE_SEQ}"
        self.owner_pid = os.getpid()
        self._columns: Dict[str, _ColumnState] = {}
        self._segments: List["_shm.SharedMemory"] = []
        self._closed = False
        _LIVE_PLANES[self.plane_id] = self
        if _ATEXIT_PID != os.getpid():
            _ATEXIT_PID = os.getpid()
            atexit.register(unlink_all_planes)

    # -- publishing ----------------------------------------------------

    def publish(self, column: str, array: np.ndarray) -> int:
        """Publish ``array`` as ``column``'s generation-0 base segment.

        Returns the bytes written to shared memory (0 for an empty
        column, which gets no segment at all).
        """
        self._check_open()
        if column in self._columns:
            raise TransportError(
                f"column {column!r} already published on {self.plane_id}"
            )
        arr = np.ascontiguousarray(array)
        if arr.ndim != 1:
            raise TransportError(
                f"plane columns must be 1-D, got shape {arr.shape}"
            )
        segment = ""
        nbytes = int(arr.nbytes)
        if nbytes:
            segment = f"{self.plane_id}-{column}-g0"
            shm = _shm.SharedMemory(name=segment, create=True, size=nbytes)
            self._segments.append(shm)
            np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[:] = arr
        self._columns[column] = _ColumnState(
            dtype=arr.dtype,
            length=int(arr.shape[0]),
            generation=0,
            base_segment=segment,
        )
        return nbytes

    def republish_delta(
        self, column: str, indices: np.ndarray, values: np.ndarray
    ) -> int:
        """Publish changed entries as the column's next generation.

        ``indices`` are positions into the full column; ``values`` their
        new contents.  An empty delta is a no-op (the generation does
        not move — every generation has exactly one segment behind it).
        Returns the bytes written.
        """
        state = self._state(column)
        idx = np.ascontiguousarray(indices, dtype=np.int64)
        vals = np.ascontiguousarray(values, dtype=state.dtype)
        if idx.shape != vals.shape:
            raise TransportError(
                f"delta shape mismatch: {idx.shape} indices vs "
                f"{vals.shape} values"
            )
        if idx.size == 0:
            return 0
        if idx.min() < 0 or idx.max() >= state.length:
            raise TransportError(
                f"delta indices out of range for column {column!r} "
                f"(length {state.length})"
            )
        generation = state.generation + 1
        segment = f"{self.plane_id}-{column}-g{generation}"
        nbytes = int(idx.nbytes + vals.nbytes)
        shm = _shm.SharedMemory(name=segment, create=True, size=nbytes)
        self._segments.append(shm)
        np.ndarray(idx.shape, dtype=np.int64, buffer=shm.buf)[:] = idx
        np.ndarray(
            vals.shape, dtype=state.dtype, buffer=shm.buf, offset=idx.nbytes
        )[:] = vals
        state.generation = generation
        state.deltas.append(
            DeltaDescriptor(
                segment=segment,
                generation=generation,
                count=int(idx.size),
                kind="delta",
            )
        )
        return nbytes

    def republish_full(self, column: str, array: np.ndarray) -> int:
        """Publish the whole column again as its next generation.

        The ablation baseline for delta shipping (``transport=
        "shm-full"``): correctness-equivalent, cost-heavier.  Resets the
        delta chain — an attacher catching up from any generation applies
        just this segment.  Returns the bytes written.
        """
        state = self._state(column)
        arr = np.ascontiguousarray(array, dtype=state.dtype)
        if arr.shape != (state.length,):
            raise TransportError(
                f"full republish shape {arr.shape} != ({state.length},)"
            )
        generation = state.generation + 1
        nbytes = int(arr.nbytes)
        segment = ""
        if nbytes:
            segment = f"{self.plane_id}-{column}-g{generation}"
            shm = _shm.SharedMemory(name=segment, create=True, size=nbytes)
            self._segments.append(shm)
            np.ndarray(arr.shape, dtype=state.dtype, buffer=shm.buf)[:] = arr
        state.generation = generation
        state.deltas = [
            DeltaDescriptor(
                segment=segment,
                generation=generation,
                count=state.length,
                kind="full",
            )
        ]
        return nbytes

    # -- descriptors ---------------------------------------------------

    def generation_of(self, column: str) -> int:
        return self._state(column).generation

    def descriptor(
        self,
        column: str,
        lo: Optional[int] = None,
        hi: Optional[int] = None,
    ) -> ColumnDescriptor:
        """A handle to ``column[lo:hi]`` at the current generation."""
        state = self._state(column)
        lo = 0 if lo is None else int(lo)
        hi = state.length if hi is None else int(hi)
        if not (0 <= lo <= hi <= state.length):
            raise TransportError(
                f"window [{lo}, {hi}) outside column {column!r} "
                f"(length {state.length})"
            )
        return ColumnDescriptor(
            plane=self.plane_id,
            column=column,
            segment=state.base_segment,
            dtype=str(state.dtype),
            length=state.length,
            generation=state.generation,
            lo=lo,
            hi=hi,
            deltas=tuple(state.deltas),
        )

    # -- lifecycle -----------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Unlink every segment this plane created (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for shm in self._segments:
            try:
                shm.close()
            except Exception:  # pragma: no cover - defensive
                pass
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self._segments.clear()
        _LIVE_PLANES.pop(self.plane_id, None)

    def __enter__(self) -> "ColumnPlane":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.close()
        return False

    def _check_open(self) -> None:
        if self._closed:
            raise TransportError(f"plane {self.plane_id} is closed")

    def _state(self, column: str) -> _ColumnState:
        self._check_open()
        state = self._columns.get(column)
        if state is None:
            raise TransportError(
                f"column {column!r} was never published on {self.plane_id}"
            )
        return state


# ----------------------------------------------------------------------
# Worker side: the per-process attach cache
# ----------------------------------------------------------------------


@dataclass
class _Attached:
    generation: int
    array: np.ndarray  # full column at `generation`, read-only
    base: Optional["_shm.SharedMemory"]  # held open while a view lives
    zero_copy: bool


# Keyed by (plane, column).  Entries from other planes are evicted on
# first attach to a new plane, so persistent workers serving many runs
# hold at most one plane's attachments.
_ATTACH_CACHE: Dict[Tuple[str, str], _Attached] = {}


def attach_column(desc: ColumnDescriptor) -> np.ndarray:
    """The full column at ``desc.generation``, read-only, cached.

    Generation 0 with no deltas is zero-copy — a read-only ndarray view
    straight onto the shared segment.  Any delta catch-up materializes a
    private copy once and applies only the deltas this process has not
    seen.  A descriptor older than the cached generation raises
    :class:`StaleDescriptorError`.
    """
    if _shm is None:
        raise TransportError(
            "multiprocessing.shared_memory is unavailable in this process"
        )
    key = (desc.plane, desc.column)
    entry = _ATTACH_CACHE.get(key)
    if entry is not None:
        if entry.generation > desc.generation:
            raise StaleDescriptorError(
                f"descriptor for {key} names generation {desc.generation} "
                f"but this process already holds {entry.generation}"
            )
        if entry.generation == desc.generation:
            return entry.array
    else:
        _evict_other_planes(desc.plane)

    if desc.length == 0:
        arr = np.empty(0, dtype=np.dtype(desc.dtype))
        arr.flags.writeable = False
        _ATTACH_CACHE[key] = _Attached(desc.generation, arr, None, False)
        return arr

    dtype = np.dtype(desc.dtype)
    pending = [
        d
        for d in desc.deltas
        if entry is None or d.generation > entry.generation
    ]
    # A full republish supersedes everything before it.
    for i in range(len(pending) - 1, -1, -1):
        if pending[i].kind == "full":
            pending = pending[i:]
            break

    if entry is None:
        base = _shm.SharedMemory(name=desc.segment)
        view = np.ndarray((desc.length,), dtype=dtype, buffer=base.buf)
        if desc.generation == 0:
            view.flags.writeable = False
            cached = _Attached(0, view, base, True)
            _ATTACH_CACHE[key] = cached
            return view
        if pending and pending[0].kind == "full":
            # The chain starts with a full segment: skip reading base.
            local = np.empty(desc.length, dtype=dtype)
        else:
            local = np.array(view)
        base.close()
        entry = _Attached(0, local, None, False)
    elif entry.zero_copy:
        # Promote the shared view to a private copy before applying
        # deltas (published segments are immutable, never written).
        local = np.array(entry.array)
        if entry.base is not None:
            entry.base.close()
        entry = _Attached(entry.generation, local, None, False)

    if not pending or pending[-1].generation != desc.generation:
        raise TransportError(
            f"broken delta chain for {key}: cannot advance from "
            f"generation {entry.generation} to {desc.generation}"
        )

    local = entry.array
    local.flags.writeable = True
    for d in pending:
        seg = _shm.SharedMemory(name=d.segment)
        try:
            if d.kind == "full":
                vals = np.ndarray((desc.length,), dtype=dtype, buffer=seg.buf)
                local[:] = vals
            else:
                idx = np.ndarray((d.count,), dtype=np.int64, buffer=seg.buf)
                vals = np.ndarray(
                    (d.count,), dtype=dtype, buffer=seg.buf, offset=idx.nbytes
                )
                local[idx] = vals
        finally:
            seg.close()
    local.flags.writeable = False
    _ATTACH_CACHE[key] = _Attached(desc.generation, local, None, False)
    return local


def resolve_descriptor(desc: ColumnDescriptor) -> np.ndarray:
    """The descriptor's ``[lo, hi)`` window of its column (read-only)."""
    return attach_column(desc)[desc.lo : desc.hi]


def attach_cache_stats() -> Dict[Tuple[str, str], int]:
    """(plane, column) -> cached generation, for tests/diagnostics."""
    return {key: entry.generation for key, entry in _ATTACH_CACHE.items()}


def evict_plane(plane_id: str) -> None:
    """Drop this process's cached attachments for one plane."""
    for key in [k for k in _ATTACH_CACHE if k[0] == plane_id]:
        entry = _ATTACH_CACHE.pop(key)
        if entry.base is not None:
            entry.base.close()


def clear_attach_cache() -> None:
    """Drop every cached attachment (tests and pool recycling)."""
    for key in list(_ATTACH_CACHE):
        evict_plane(key[0])


def _evict_other_planes(plane_id: str) -> None:
    """Keep the cache bounded: one plane's attachments at a time."""
    for key in [k for k in _ATTACH_CACHE if k[0] != plane_id]:
        entry = _ATTACH_CACHE.pop(key)
        if entry.base is not None:
            entry.base.close()


# ----------------------------------------------------------------------
# Leak detection
# ----------------------------------------------------------------------


def leaked_segments() -> List[str]:
    """Plane segments still visible in ``/dev/shm`` (sorted names).

    Empty after every clean run: planes unlink their segments in
    ``run_load``'s ``finally`` (and the atexit hook covers paths that
    never reach it).  The determinism matrix asserts this.
    """
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):  # pragma: no cover - non-Linux
        return []
    prefix = SEGMENT_PREFIX + "-"
    try:
        return sorted(n for n in os.listdir(shm_dir) if n.startswith(prefix))
    except OSError:  # pragma: no cover - defensive
        return []
