"""Execution pools: ordered results for any worker count."""

import pytest

from repro.parallel import (
    ProcessPool,
    SerialPool,
    shared_pool,
    shutdown_shared_pools,
)


def square(x):
    return x * x


def tag(x):
    # Non-commutative payload: any reordering changes the result list.
    return (x, x % 3)


def boom_on_seven(x):
    if x == 7:
        raise ValueError("task 7 failed")
    return x * x


@pytest.fixture
def pool():
    yield shared_pool(2)
    shutdown_shared_pools()


class TestMapOrdered:
    def test_serial_preserves_order(self):
        assert SerialPool().map_ordered(square, list(range(10))) == [
            x * x for x in range(10)
        ]

    def test_process_pool_preserves_submission_order(self, pool):
        # 40 tasks against a window of 2 * 2 + 2: results come back in
        # submission order across many refills.
        items = list(range(40))
        assert pool.map_ordered(tag, items) == [tag(x) for x in items]

    def test_serial_equals_pooled(self, pool):
        items = [7, 1, 9, 2, 2, 5]
        serial = SerialPool().map_ordered(square, items)
        assert pool.map_ordered(square, items) == serial

    def test_process_pool_rejects_single_worker(self):
        with pytest.raises(ValueError):
            ProcessPool(1)


class TestBackpressure:
    def test_window_scales_with_workers(self, pool):
        assert pool.window == 2 * 2 + 2

    @pytest.mark.parametrize("n_tasks", [0, 1, 6, 7])
    def test_results_match_across_the_window_edge(self, pool, n_tasks):
        # No task, one, exactly a window of 2 * 2 + 2, and one refill.
        items = list(range(n_tasks))
        assert pool.map_ordered(tag, items) == [tag(x) for x in items]

    def test_worker_exception_propagates(self, pool):
        with pytest.raises(ValueError, match="task 7 failed"):
            pool.map_ordered(boom_on_seven, list(range(40)))
        # A task exception must not poison the pool itself.
        assert pool.map_ordered(square, [3, 4]) == [9, 16]
        assert not pool.broken


class TestSharedPool:
    def teardown_method(self):
        shutdown_shared_pools()

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_low_counts_mean_inline(self, workers):
        assert isinstance(shared_pool(workers), SerialPool)

    def test_same_pool_across_calls(self):
        first = shared_pool(2)
        assert shared_pool(2) is first
        assert isinstance(first, ProcessPool)

    def test_close_is_a_no_op(self):
        pool = shared_pool(2)
        pool.close()
        # Still the registered pool, and still usable.
        assert shared_pool(2) is pool
        assert pool.map_ordered(square, [5]) == [25]

    def test_shutdown_clears_registry(self):
        pool = shared_pool(2)
        shutdown_shared_pools()
        assert shared_pool(2) is not pool

    def test_distinct_worker_counts_get_distinct_pools(self):
        assert shared_pool(2) is not shared_pool(3)
