"""run_serving's collector handling: the arrival table is frozen for the
run, and the caller's collector state is restored however the run ends."""

import gc

import pytest

from repro.obs.context import SamplingPolicy
from repro.serving.gateway import ServingGateway
from repro.serving.run import run_serving
from repro.workloads.traffic import TrafficConfig

TINY = TrafficConfig(n_users=20, horizon=2.0, rate_per_user=1.0, seed=31)


@pytest.fixture(autouse=True)
def restore_collector():
    """Whatever a test does to the collector flag, the next test starts
    with the flag it had."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _state():
    return gc.isenabled(), gc.get_freeze_count()


class _Boom(RuntimeError):
    pass


def _raising_submit(self, request, ctx=None):
    raise _Boom("submit failed")


class TestRestored:
    def test_after_return(self):
        before = _state()
        result = run_serving(TINY, sampling=SamplingPolicy(head_rate=0.5))
        assert result.completed == result.offered > 0
        assert _state() == before

    def test_after_raise_inside_the_loop(self, monkeypatch):
        monkeypatch.setattr(ServingGateway, "submit", _raising_submit)
        before = _state()
        with pytest.raises(_Boom):
            run_serving(TINY)
        assert _state() == before

    def test_disabled_caller_stays_disabled(self, monkeypatch):
        gc.disable()
        run_serving(TINY)
        assert _state() == (False, 0)
        monkeypatch.setattr(ServingGateway, "submit", _raising_submit)
        with pytest.raises(_Boom):
            run_serving(TINY)
        assert _state() == (False, 0)

    def test_frozen_caller_stays_frozen(self):
        sentinel = [object()]
        gc.freeze()
        try:
            assert gc.get_freeze_count() > 0
            run_serving(TINY)
            assert gc.isenabled()
            assert gc.get_freeze_count() > 0
            # Frozen objects are in no generation gc.get_objects() lists.
            assert not any(obj is sentinel for obj in gc.get_objects())
        finally:
            gc.unfreeze()


class TestFrozenDuringTheRun:
    def test_table_frozen_and_collector_on_in_the_loop(self, monkeypatch):
        seen = []
        submit = ServingGateway.submit

        def recording_submit(self, request, ctx=None):
            seen.append(_state())
            return submit(self, request, ctx)

        monkeypatch.setattr(ServingGateway, "submit", recording_submit)
        result = run_serving(TINY)
        assert len(seen) == result.offered > 0
        enabled, frozen = seen[0]
        assert enabled
        assert frozen > result.offered  # at least one object per arrival

    def test_disabled_caller_is_not_enabled_for_the_loop(self, monkeypatch):
        seen = []
        submit = ServingGateway.submit

        def recording_submit(self, request, ctx=None):
            seen.append(gc.isenabled())
            return submit(self, request, ctx)

        monkeypatch.setattr(ServingGateway, "submit", recording_submit)
        gc.disable()
        run_serving(TINY)
        assert seen and not any(seen)
