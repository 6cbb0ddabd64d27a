"""parallel_map tests: order, decomposition and error propagation."""

import sys
import threading

import pytest

from repro.parallel import parallel_map


class TestParallelMap:
    def test_results_in_order(self):
        assert parallel_map(lambda v: v * v, list(range(17)), workers=4) == [
            v * v for v in range(17)
        ]

    def test_single_worker_plain_loop(self):
        assert parallel_map(lambda v: -v, [1, 2, 3], workers=1) == [-1, -2, -3]

    def test_more_workers_than_items(self):
        assert parallel_map(lambda v: v + 1, [5], workers=8) == [6]

    def test_empty_items(self):
        assert parallel_map(lambda v: v, [], workers=3) == []

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            parallel_map(lambda v: v, [1], workers=0)

    def test_threads_actually_used(self):
        # Thread objects, not get_ident(): the OS reuses an ident once a
        # short-lived rank thread exits, while the objects held here stay
        # distinct for as long as the set keeps them alive
        seen = set()

        def fn(v):
            seen.add(threading.current_thread())
            return v

        parallel_map(fn, list(range(32)), workers=4)
        assert len(seen) > 1


class TestParallelMapStress:
    def test_more_workers_than_cores_lose_no_result(self):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            out = parallel_map(lambda v: (v, v * v), list(range(2000)), workers=16)
        finally:
            sys.setswitchinterval(interval)
        assert out == [(v, v * v) for v in range(2000)]


class TestParallelMapErrors:
    def test_item_exception_aborts_all(self):
        def fn(v):
            if v == 1:
                raise ValueError("boom")
            return v

        with pytest.raises(ValueError, match="boom"):
            parallel_map(fn, list(range(3)), workers=3)

    def test_first_failed_item_in_input_order_raised(self):
        # both items fail; whichever thread fails first in time, the
        # caller sees item 0's exception
        release = threading.Event()

        def fn(v):
            if v == 0:
                release.wait(timeout=5.0)
                raise ValueError("item 0")
            release.set()
            raise KeyError("item 1")

        with pytest.raises(ValueError, match="item 0"):
            parallel_map(fn, [0, 1], workers=2)

    def test_failure_stops_further_items(self):
        # worker 0 owns items 0, 2, 4, ...; once item 1 fails (after
        # item 0 returned), worker 0 starts no further item
        started = []
        item1_failed = threading.Event()

        def fn(v):
            started.append(v)
            if v == 1:
                item1_failed.set()
                raise RuntimeError("stop")
            if v == 0:
                item1_failed.wait(timeout=5.0)
            return v

        with pytest.raises(RuntimeError, match="stop"):
            parallel_map(fn, list(range(20)), workers=2)
        assert sorted(started) == [0, 1]
