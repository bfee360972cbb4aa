"""run_load's collector handling: the set-up heap is built with the
collector off and frozen for the epoch loop, and the caller's collector
state is restored however the run ends."""

import gc

import pytest

import repro.workloads.load as load
from repro.privacy.pipeline import PrivacyPipeline
from repro.reputation.system import ReputationSystem
from repro.workloads.load import run_load

TINY = dict(
    n_agents=400,
    epochs=2,
    seed=41,
    txs_per_epoch=30,
    ratings_per_epoch=20,
    reports_per_epoch=10,
    votes_per_epoch=10,
    electorate_size=100,
    interactions_per_epoch=40,
    frames_per_epoch=40,
    cascade_members=40,
)


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


def _raising_trust_top(self):
    raise _Boom("trust solve failed")


def _raising_registration(self, identities):
    raise _Boom("registration failed")


def _setup_must_not_run(*args, **kwargs):
    raise AssertionError("set-up ran before the config was checked")


# (parameter, value) pairs run_load refuses at entry with a ValueError
# that names the parameter.  Unchecked, some of them run with a silently
# wrong shape (an empty run, a truncated shard count) and the others
# fail only after the whole set-up.
REJECTED = [
    ("n_agents", 0),
    ("epochs", -1),
    ("txs_per_epoch", -1),
    ("ratings_per_epoch", -1),
    ("reports_per_epoch", -1),
    ("votes_per_epoch", -1),
    ("interactions_per_epoch", -1),
    ("frames_per_epoch", -1),
    ("cascade_members", -1),
    ("workers", -1),
    ("block_size", 0),
    ("electorate_size", 0),
    ("n_shards", 0),
    ("n_shards", 2.7),
    ("n_shards", TINY["n_agents"] + 1),
    # A count that is not an integer (a bool is not one either).
    ("epochs", 2.0),
    ("txs_per_epoch", 30.0),
    ("n_agents", 400.0),
    ("cascade_members", 40.0),
    ("electorate_size", 100.5),
    ("block_size", 50.0),
    ("workers", 1.0),
    ("epochs", True),
]


def _assert_refused_at_entry(monkeypatch, parameter, value):
    # The config is refused before set-up builds anything: the shard
    # plan is the first thing set-up builds.
    monkeypatch.setattr(load, "ShardPlan", _setup_must_not_run)
    before = _state()
    with pytest.raises(ValueError, match=f"^{parameter} "):
        run_load(**{**TINY, parameter: value})
    assert _state() == before
    assert gc.isenabled()


class TestRestored:
    def test_after_return(self):
        before = _state()
        result = run_load(**TINY)
        assert result.frames_offered > 0
        assert _state() == before

    def test_after_raise_inside_the_epoch_loop(self, monkeypatch):
        monkeypatch.setattr(
            ReputationSystem, "global_trust_top", _raising_trust_top
        )
        before = _state()
        with pytest.raises(_Boom):
            run_load(**TINY)
        assert _state() == before

    def test_disabled_caller_stays_disabled(self, monkeypatch):
        gc.disable()
        run_load(**TINY)
        assert _state() == (False, 0)
        monkeypatch.setattr(
            ReputationSystem, "global_trust_top", _raising_trust_top
        )
        with pytest.raises(_Boom):
            run_load(**TINY)
        assert _state() == (False, 0)

    def test_frozen_caller_stays_frozen(self):
        sentinel = [object()]
        gc.freeze()
        try:
            assert gc.get_freeze_count() > 0
            run_load(**TINY)
            assert gc.isenabled()
            assert gc.get_freeze_count() > 0
            # Frozen objects are in no generation gc.get_objects() lists.
            assert not any(obj is sentinel for obj in gc.get_objects())
        finally:
            gc.unfreeze()


class TestFrozenDuringTheEpochs:
    def _record_ingests(self, monkeypatch):
        seen = []
        ingest_all = PrivacyPipeline.ingest_all

        def recording_ingest_all(self, frames):
            # The pipeline is built during set-up.
            frozen = not any(obj is self for obj in gc.get_objects())
            seen.append((gc.isenabled(), gc.get_freeze_count(), frozen))
            return ingest_all(self, frames)

        monkeypatch.setattr(PrivacyPipeline, "ingest_all", recording_ingest_all)
        return seen

    def test_setup_heap_frozen_and_collector_on(self, monkeypatch):
        seen = self._record_ingests(monkeypatch)
        before = _state()
        run_load(**TINY)
        assert len(seen) == TINY["epochs"]
        for enabled, frozen_count, pipeline_frozen in seen:
            assert enabled
            assert frozen_count > TINY["electorate_size"]  # a DAO member each
            assert pipeline_frozen
        assert _state() == before

    def test_disabled_caller_is_not_enabled_for_the_loop(self, monkeypatch):
        seen = self._record_ingests(monkeypatch)
        gc.disable()
        run_load(**TINY)
        assert seen and not any(enabled for enabled, _, _ in seen)


class TestCollectorOffDuringSetup:
    def test_setup_is_built_with_the_collector_off(self, monkeypatch):
        seen = []
        register = ReputationSystem.register_identities

        def recording_register(self, identities):
            seen.append(gc.isenabled())
            return register(self, identities)

        monkeypatch.setattr(
            ReputationSystem, "register_identities", recording_register
        )
        before = _state()
        assert before[0]
        run_load(**TINY)
        assert seen == [False]
        assert _state() == before

    @pytest.mark.parametrize("caller_enabled", [True, False])
    def test_raise_inside_setup_restores(self, monkeypatch, caller_enabled):
        if not caller_enabled:
            gc.disable()
        monkeypatch.setattr(
            ReputationSystem, "register_identities", _raising_registration
        )
        before = _state()
        with pytest.raises(_Boom):
            run_load(**TINY)
        assert _state() == before == (caller_enabled, 0)

    def test_rejected_config_restores(self, monkeypatch):
        for parameter, value in REJECTED:
            _assert_refused_at_entry(monkeypatch, parameter, value)
        # The sentinel is on set-up's path: a valid config reaches it.
        with pytest.raises(AssertionError, match="set-up ran"):
            run_load(**TINY)

    # Every transport but "pickle" is rejected at entry.
    @pytest.mark.parametrize("transport", ["shm", "shm-full", "auto"])
    def test_rejected_transport_restores(self, monkeypatch, transport):
        _assert_refused_at_entry(monkeypatch, "transport", transport)
