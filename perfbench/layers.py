"""Outside-in instrumentation: wrappers installed around layer entry points.

Nothing here changes the program.  A :class:`Patches` set swaps a module
or class attribute for a wrapper and puts the original back afterwards;
every name is replaced where its caller looks it up, so a class method is
patched on the class (instances created later bind the wrapper) and a
module-level function is patched in the module that calls it.

Two kinds of wrapper exist:

* marks (every run): which boundary call was entered, and when.  They
  split a run into segments of a few milliseconds each and cost one
  ``perf_counter`` per boundary -- a few dozen per epoch or per simulated
  second -- so the untraced run that yields the end-to-end metrics
  carries them too.
* spans (traced runs only, :class:`LayerTrace`): busy time inside each
  wrapped call counted as self time (the span's duration minus the time
  its wrapped children cover), call counts, tallies of return values and
  the interpreter's cyclic-GC pauses.
"""

from __future__ import annotations

import functools
import gc
import importlib
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


def resolve(path: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> ``(Class, "attr")``."""
    module, _, dotted = path.partition(":")
    owner: Any = importlib.import_module(module)
    *parents, attr = dotted.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, path: str, make: Callable[[Any], Any]) -> None:
        owner, attr = resolve(path)
        # vars() rather than getattr(): the attribute must be defined on
        # this owner itself, so a name that moved fails loudly instead of
        # leaving a wrapper on a base class that the caller never reaches.
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def mark_entries(
    marks: List[Tuple[int, float]], label: int, fn: Callable
) -> Callable:
    """Wrap ``fn`` so every call appends ``(label, entry time)`` to
    ``marks``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        marks.append((label, perf_counter()))
        return fn(*args, **kwargs)

    return wrapper


class LayerTrace:
    """Self-time spans, call counts and GC pauses for one traced run."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.tallies: Dict[str, float] = defaultdict(float)
        # (start, end) of every span that had no wrapped parent.
        self.top_spans: List[Tuple[float, float]] = []
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._stack: List[float] = []
        self._gc_started = 0.0

    def span(self, metric: str, fn: Callable) -> Callable:
        """Wrap ``fn``; its self time accrues to ``busy[metric]``."""
        stack = self._stack
        busy = self.busy
        calls = self.calls
        top_spans = self.top_spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                busy[metric] += elapsed - stack.pop()
                calls[metric] += 1
                if stack:
                    stack[-1] += elapsed
                else:
                    top_spans.append((start, end))

        return wrapper

    def tally(
        self, metric: str, measure: Callable[[Any], float], fn: Callable
    ) -> Callable:
        """Wrap ``fn``; ``measure(return value)`` accrues to ``tallies``."""
        tallies = self.tallies

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            value = fn(*args, **kwargs)
            tallies[metric] += measure(value)
            return value

        return wrapper

    def covered_after(self, since: float) -> float:
        """Seconds of outermost spans that fall after ``since``."""
        return sum(
            end - max(start, since)
            for start, end in self.top_spans
            if end > since
        )

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_started = perf_counter()
        else:
            self.gc_pause_s += perf_counter() - self._gc_started
            if info["generation"] == 2:
                self.gc_gen2 += 1

    def start_gc(self) -> None:
        gc.callbacks.append(self._on_gc)

    def stop_gc(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
