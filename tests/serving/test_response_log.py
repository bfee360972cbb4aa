"""The gateway's response column log against a list of Response objects.

The reference gateway below also appends every response to a plain list,
as the ``Response`` object the gateway built per response before its
responses became columns.  The log must read back as exactly that list.
"""

from collections import Counter
from typing import List

import numpy as np
import pytest

from repro.serving.gateway import ResponseLog, ServingGateway
from repro.serving.loop import EventLoop
from repro.serving.repository import ServingRepository
from repro.serving.run import SERVICE_TIME_DOMAIN, run_serving, schedule_arrivals
from repro.serving.schemas import Endpoint, Response, Status
from repro.sim.metrics import MetricsRegistry
from repro.workloads.traffic import generate_traffic
from tests.flash_crowd import FLASH_CROWD


class _ReferenceGateway(ServingGateway):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reference: List[Response] = []

    def _respond(self, route, status, arrived, completed, cached, body, ctx):
        self.reference.append(
            Response(
                endpoint=route.endpoint,
                status=status,
                arrived=arrived,
                completed=completed,
                cached=cached,
                body=body if body is not None else {},
            )
        )
        super()._respond(route, status, arrived, completed, cached, body, ctx)


@pytest.fixture(scope="module")
def gateway():
    traffic, serving = FLASH_CROWD["traffic"], FLASH_CROWD["serving"]
    loop = EventLoop()
    gateway = _ReferenceGateway(
        ServingRepository(n_users=traffic.n_users, seed=traffic.seed),
        loop,
        serving,
        MetricsRegistry(),
        np.random.default_rng(
            np.random.SeedSequence(
                entropy=traffic.seed, spawn_key=(SERVICE_TIME_DOMAIN,)
            )
        ),
    )
    schedule_arrivals(loop, gateway.submit, generate_traffic(traffic))
    gateway.start(horizon=traffic.horizon)
    loop.run()
    return gateway


class TestAgainstResponseObjects:
    def test_the_scenario_covers_every_outcome(self, gateway):
        statuses = {response.status for response in gateway.reference}
        assert statuses == {
            Status.OK, Status.INVALID, Status.REFUSED, Status.SHED
        }
        assert any(response.cached for response in gateway.reference)
        assert {r.endpoint for r in gateway.reference} == set(Endpoint)

    def test_len_and_iteration(self, gateway):
        log, reference = gateway.responses, gateway.reference
        assert isinstance(log, ResponseLog)
        assert len(log) == len(reference) > 1000
        assert list(log) == reference

    def test_indexing(self, gateway):
        log, reference = gateway.responses, gateway.reference
        n = len(reference)
        for i in (0, 1, n // 2, n - 1, -1, -2, -n):
            assert log[i] == reference[i]
        for i in (n, -n - 1):
            with pytest.raises(IndexError):
                log[i]

    @pytest.mark.parametrize(
        "window",
        [
            slice(None),
            slice(5, 40),
            slice(-30, None),
            slice(None, None, -7),
            slice(100, 3, -9),
            slice(40, 5),
        ],
    )
    def test_slicing(self, gateway, window):
        assert gateway.responses[window] == gateway.reference[window]

    def test_equality(self, gateway):
        log, reference = gateway.responses, gateway.reference
        assert log == reference
        assert reference == log
        assert log == tuple(reference)
        assert log != reference[:-1]
        assert log != reference[1:2] + reference[:1] + reference[2:]
        changed = list(reference)
        first = changed[0]
        changed[0] = Response(
            first.endpoint, first.status, first.arrived, first.completed,
            not first.cached, first.body,
        )
        assert log != changed
        assert log != "not a sequence of responses"

    def test_status_counts(self, gateway):
        expected = Counter(int(r.status) for r in gateway.reference)
        counts = gateway.responses.status_counts()
        assert counts == dict(expected)
        # First-seen order, as a count over the objects builds it.
        assert list(counts) == list(expected)
        assert all(type(code) is int for code in counts)

    def test_run_serving_returns_the_same_log(self, gateway):
        result = run_serving(**FLASH_CROWD)
        assert result.responses == gateway.responses
        assert result.status_counts == gateway.responses.status_counts()


def test_rows_read_back_as_appended():
    log = ResponseLog()
    body = {"tx_id": "ab", "nonce": 3}
    log.append(Endpoint.SUBMIT_TX, 200, 0.25, 0.5, False, body)
    log.append(Endpoint.GET_TALLY, 429, 1.0, 1.0, True, {})
    first, second = log
    assert first == Response(Endpoint.SUBMIT_TX, Status.OK, 0.25, 0.5, False, body)
    assert first.body is body
    assert second.status is Status.SHED and second.cached is True
    assert log.status_counts() == {200: 1, 429: 1}
    assert ResponseLog() == [] and len(ResponseLog()) == 0
