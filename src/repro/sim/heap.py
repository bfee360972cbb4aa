"""Keeping the cyclic collector off a run's set-up heap.

A run builds long-lived, mostly acyclic tables before its main loop —
the serving arrival table, the society's agent columns and DAO
electorate.  Left in the collector's generations, every full
collection re-traverses all of them during set-up and again during the
loop.  :class:`FrozenSetup` builds them with the collector off and
freezes them (``gc.freeze``) for the loop; :func:`frozen_setup` runs a
whole function inside one.
"""

from __future__ import annotations

import functools
import gc
import inspect
from typing import Any, Callable, TypeVar

__all__ = ["FrozenSetup", "frozen_setup"]

T = TypeVar("T")


class FrozenSetup:
    """Collector off for set-up, set-up heap frozen for the run.

    Entering turns the collector off; :meth:`loaded` freezes everything
    built so far and restores the caller's enabled flag; leaving
    unfreezes and restores the flag again, on a return or an exception.
    A caller's own frozen objects are never unfrozen: if the caller has
    any, nothing is frozen.
    """

    def __enter__(self) -> "FrozenSetup":
        self._enabled = gc.isenabled()
        self._may_freeze = gc.get_freeze_count() == 0
        self._frozen = False
        gc.disable()
        return self

    def loaded(self) -> None:
        if self._may_freeze:
            gc.freeze()
            self._frozen = True
        if self._enabled:
            gc.enable()

    def __exit__(self, *exc_info) -> None:
        if self._frozen:
            gc.unfreeze()
        if self._enabled:
            gc.enable()
        else:
            gc.disable()


def frozen_setup(run: Callable[..., T]) -> Callable[..., T]:
    """Decorator: call ``run(setup, ...)`` inside a fresh
    :class:`FrozenSetup`.

    The decorated function takes ``run``'s parameters after ``setup``
    (its signature says so), and ``run`` calls ``setup.loaded()`` once
    its set-up is built: everything before that is built with the
    collector off, whatever ``run`` does first.
    """
    signature = inspect.signature(run)

    @functools.wraps(run)
    def wrapper(*args: Any, **kwargs: Any) -> T:
        with FrozenSetup() as setup:
            return run(setup, *args, **kwargs)

    wrapper.__signature__ = signature.replace(  # type: ignore[attr-defined]
        parameters=list(signature.parameters.values())[1:]
    )
    return wrapper
