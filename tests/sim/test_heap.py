"""FrozenSetup: collector off for set-up, set-up heap frozen for the run,
the caller's collector state back afterwards."""

import gc

import pytest

from repro.sim.heap import FrozenSetup


@pytest.fixture(autouse=True)
def restore_collector():
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class _Boom(RuntimeError):
    pass


@pytest.mark.parametrize("caller_enabled", [True, False])
class TestFrozenSetup:
    def _enter_as(self, caller_enabled):
        if caller_enabled:
            gc.enable()
        else:
            gc.disable()
        assert gc.get_freeze_count() == 0

    def test_phases(self, caller_enabled):
        self._enter_as(caller_enabled)
        with FrozenSetup() as setup:
            assert not gc.isenabled()
            built = [{} for _ in range(50)]
            setup.loaded()
            assert gc.isenabled() == caller_enabled
            assert gc.get_freeze_count() >= len(built)
            assert not any(obj is built for obj in gc.get_objects())
        assert (gc.isenabled(), gc.get_freeze_count()) == (caller_enabled, 0)

    @pytest.mark.parametrize("raise_after_loaded", [False, True])
    def test_raise_restores(self, caller_enabled, raise_after_loaded):
        self._enter_as(caller_enabled)
        with pytest.raises(_Boom):
            with FrozenSetup() as setup:
                if raise_after_loaded:
                    setup.loaded()
                raise _Boom
        assert (gc.isenabled(), gc.get_freeze_count()) == (caller_enabled, 0)

    def test_caller_frozen_objects_stay_frozen(self, caller_enabled):
        self._enter_as(caller_enabled)
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with FrozenSetup() as setup:
                setup.loaded()
                assert gc.get_freeze_count() == frozen
            assert gc.get_freeze_count() == frozen
            assert gc.isenabled() == caller_enabled
        finally:
            gc.unfreeze()
