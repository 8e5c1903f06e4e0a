import multiprocessing
import os
import time

import pytest

from risklab.errors import RisklabError
from risklab.workers import fork_workers, forked_map, worker_count


class TestForkedMap:
    def test_results_in_item_order_with_the_caller_as_worker_zero(self):
        parent = os.getpid()
        results = forked_map(lambda i: (i * i, os.getpid()), range(7), 3)
        assert [square for square, _ in results] == [i * i for i in range(7)]
        # worker k takes items k, k + 3, ...; worker 0 is the caller
        pids = [pid for _, pid in results]
        assert pids[0::3] == [parent] * 3
        assert len({*pids[1::3]}) == len({*pids[2::3]}) == 1
        assert len({*pids}) == 3
        assert multiprocessing.active_children() == []

    def test_one_worker_forks_nothing(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("asked for a start method")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        parent = os.getpid()
        assert forked_map(lambda i: (i, os.getpid()), range(4), 1) == [(i, parent) for i in range(4)]

    def test_dead_worker_raises_instead_of_hanging(self, fail_if_hung):
        parent = os.getpid()

        def task(i):
            if i == 1 and os.getpid() != parent:
                os._exit(3)
            return i

        t0 = time.perf_counter()
        with pytest.raises(RisklabError, match="exited with code 3"):
            forked_map(task, range(2), 2)
        assert time.perf_counter() - t0 < 5
        assert multiprocessing.active_children() == []

    def test_dead_worker_raises_while_another_still_works(self, fail_if_hung):
        parent = os.getpid()

        def task(i):
            if os.getpid() != parent:
                if i == 1:
                    time.sleep(20)
                else:
                    os._exit(3)
            return i

        t0 = time.perf_counter()
        with pytest.raises(RisklabError, match="exited with code 3"):
            forked_map(task, range(3), 3)
        assert time.perf_counter() - t0 < 5
        assert multiprocessing.active_children() == []


class TestWorkerCount:
    def test_counts_the_cpus_this_process_may_use(self, monkeypatch):
        monkeypatch.delenv("RISKLAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert worker_count() == 1
        assert fork_workers(1000) == 1

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delenv("RISKLAB_THREADS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert worker_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert worker_count() == 1
