import multiprocessing
import os
import time

import pytest

from risklab.errors import RisklabError
from risklab.workers import forked_map


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
