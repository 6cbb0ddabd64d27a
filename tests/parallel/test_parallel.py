"""SPMD communicator and parallel-map tests."""

import threading

import numpy as np
import pytest

from repro.parallel import Communicator, SpmdError, parallel_map, parallel_samples, run_spmd


class TestRunSpmd:
    def test_per_rank_results_ordered(self):
        results = run_spmd(lambda comm: comm.rank * 10, size=4)
        assert results == [0, 10, 20, 30]

    def test_single_rank(self):
        assert run_spmd(lambda comm: comm.size, size=1) == [1]

    def test_rank_exception_aborts_all(self):
        def work(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.barrier()
            return comm.rank

        with pytest.raises(SpmdError, match="rank 1"):
            run_spmd(work, size=3)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(lambda c: None, size=0)

    def test_mpi4py_spellings(self):
        def work(comm):
            return (comm.Get_rank(), comm.Get_size())

        assert run_spmd(work, size=2) == [(0, 2), (1, 2)]


class TestCollectives:
    def test_bcast(self):
        def work(comm):
            data = {"v": 42} if comm.rank == 0 else None
            return comm.bcast(data, root=0)

        assert run_spmd(work, size=3) == [{"v": 42}] * 3

    def test_scatter_gather_round_trip(self):
        def work(comm):
            chunks = [[i, i + 1] for i in range(comm.size)] if comm.rank == 0 else None
            mine = comm.scatter(chunks, root=0)
            doubled = [2 * v for v in mine]
            return comm.gather(doubled, root=0)

        results = run_spmd(work, size=3)
        assert results[0] == [[0, 2], [2, 4], [4, 6]]
        assert results[1] is None and results[2] is None

    def test_scatter_wrong_count_rejected(self):
        def work(comm):
            return comm.scatter([1], root=0)

        with pytest.raises(SpmdError):
            run_spmd(work, size=2)

    def test_allgather(self):
        results = run_spmd(lambda c: c.allgather(c.rank**2), size=4)
        assert all(r == [0, 1, 4, 9] for r in results)

    def test_allreduce_sum_default(self):
        results = run_spmd(lambda c: c.allreduce(c.rank + 1), size=4)
        assert all(r == 10 for r in results)

    def test_allreduce_custom_op(self):
        results = run_spmd(lambda c: c.allreduce(c.rank + 1, op=max), size=4)
        assert all(r == 4 for r in results)

    def test_allreduce_numpy_arrays(self):
        def work(comm):
            return comm.allreduce(np.full(3, float(comm.rank)))

        results = run_spmd(work, size=3)
        assert all(np.allclose(r, 3.0) for r in results)

    def test_reduce_only_root_receives(self):
        results = run_spmd(lambda c: c.reduce(1, root=1), size=3)
        assert results == [None, 3, None]

    def test_repeated_collectives_stay_consistent(self):
        def work(comm):
            total = 0
            for round_ in range(5):
                total += comm.allreduce(comm.rank + round_)
            return total

        results = run_spmd(work, size=3)
        assert len(set(results)) == 1


class TestPointToPoint:
    def test_ring_exchange(self):
        def work(comm):
            right = (comm.rank + 1) % comm.size
            comm.send(comm.rank, dest=right, tag=1)
            return comm.recv(tag=1)

        results = run_spmd(work, size=4)
        assert sorted(results) == [0, 1, 2, 3]

    def test_send_out_of_range_rejected(self):
        def work(comm):
            comm.send(1, dest=99)

        with pytest.raises(SpmdError):
            run_spmd(work, size=2)


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


class TestParallelSamples:
    def test_matches_serial_generation(self, rng):
        from repro.apps import LaghosApplication
        from repro.extract import SampleGenerator, build_schema

        app = LaghosApplication()
        base = app.example_problem(np.random.default_rng(0))
        acq = app.acquire(n_samples=5, rng=np.random.default_rng(0))
        generator = SampleGenerator(
            app.region_fn, acq.input_schema, acq.output_schema
        )
        serial_x, serial_y = generator.generate(
            base, 12, rng=np.random.default_rng(7),
            perturb_names=app.perturb_names(),
        )
        par_x, par_y = parallel_samples(
            generator, base, 12, rng=np.random.default_rng(7),
            perturb_names=app.perturb_names(), workers=4,
        )
        assert np.allclose(serial_x, par_x)
        assert np.allclose(serial_y, par_y)

    def test_zero_samples_rejected(self, rng):
        from repro.apps import LaghosApplication
        from repro.extract import SampleGenerator

        app = LaghosApplication()
        acq = app.acquire(n_samples=3, rng=np.random.default_rng(0))
        generator = SampleGenerator(app.region_fn, acq.input_schema, acq.output_schema)
        with pytest.raises(ValueError):
            parallel_samples(generator, app.example_problem(rng), 0)
