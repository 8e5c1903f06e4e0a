"""The process pool: run independent tasks in forked processes, the caller among them.

A sweep's chain lanes and a dataset CSV's row ranges are independent tasks
whose results do not depend on where they run.  ``forked_map`` runs them in
``workers`` processes: the calling process is worker 0 and forks the others.
Tasks reach the forked workers through the fork, so they may be closures;
only the results come back, down one pipe per worker.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
from multiprocessing.connection import wait

from .errors import ConfigError, RisklabError

__all__ = ["worker_count", "fork_workers", "forked_map"]


def worker_count() -> int:
    """Worker-process cap for sweep chains and dataset-CSV writes.

    ``RISKLAB_THREADS`` when set (0 or a negative value means one worker),
    else the number of CPUs this process may run on.  A value that is not an
    integer raises ConfigError.
    """
    env = os.environ.get("RISKLAB_THREADS")
    if not env:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(f"RISKLAB_THREADS must be an integer, got {env!r}") from None


def fork_workers(tasks: int) -> int:
    """How many processes to run ``tasks`` independent tasks in: min(worker_count(), tasks).

    It is 1, meaning the caller runs them all itself, unless there are at
    least two workers, the platform can fork and the caller is not a
    daemonic worker, which may not have children.
    """
    workers = min(worker_count(), tasks)
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return 1
    return workers


def _serve(task_fn, chunk, conn):
    """Worker body: send ``(True, [(index, result), ...])`` or ``(False, exception)``; leave Ctrl-C to the caller."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        reply = True, [(index, task_fn(item)) for index, item in chunk]
    except Exception as exc:
        reply = False, exc
    conn.send(reply)


def _died(proc):
    proc.join()
    return RisklabError(f"worker process {proc.pid} exited with code {proc.exitcode} "
                        "before returning its results")


def _gather(procs, conns, results):
    """Fill ``results`` with every forked worker's results, received in the calling thread.

    Waits on the result pipes and the worker sentinels together.  A worker
    that exits without a reply died without raising (a signal, the OOM
    killer, ``os._exit``); that raises RisklabError instead of waiting for
    results that will never come.
    """
    live = dict(zip(conns, procs))
    while live:
        ready = wait([*live, *(proc.sentinel for proc in live.values())])
        for conn, proc in list(live.items()):
            if conn.poll():  # a reply, or the EOF of a worker that died
                try:
                    ok, value = conn.recv()
                except EOFError:
                    ok, value = False, _died(proc)
            elif proc.sentinel in ready:
                ok, value = False, _died(proc)
            else:
                continue
            if not ok:
                raise value
            for index, result in value:
                results[index] = result
            del live[conn]


def forked_map(task_fn, items, workers: int) -> list:
    """``[task_fn(item) for item in items]``, computed in ``workers`` processes.

    Worker k takes items k, k + workers, ...  The calling process is worker
    0: it forks the other ``workers − 1`` first, computes its own share, then
    gathers the rest.  At one worker it forks nothing.  A forked worker's
    first exception is re-raised here, and a worker that dies before
    returning its results raises RisklabError, both once the caller's own
    share is done.  ``task_fn`` and the items reach the forked workers
    through the fork, so they may be closures; only the results are
    pickled.  Forked workers ignore Ctrl-C; on return, error or Ctrl-C they
    are terminated and joined.
    """
    indexed = list(enumerate(items))
    results = [None] * len(indexed)
    procs, conns = [], []
    try:
        for k in range(1, workers):
            ctx = multiprocessing.get_context("fork")
            recv, send = ctx.Pipe(duplex=False)
            conns.append(recv)
            proc = ctx.Process(target=_serve, args=(task_fn, indexed[k::workers], send), daemon=True)
            proc.start()
            procs.append(proc)
            send.close()  # the worker holds the only write end, so its death reads as EOF
        for index, item in indexed[::workers]:
            results[index] = task_fn(item)
        _gather(procs, conns, results)
        return results
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()
