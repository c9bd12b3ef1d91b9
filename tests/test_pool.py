"""Pool policy: workers yield the CPU to the process they serve, and a
pool that breaks while tasks are still being submitted recovers."""

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.hw.cluster import simulate_cluster
from repro.hw.config import HwConfig
from repro.arch import GTX285
from repro.pool import PoolHealth, map_tasks
from repro.sim.trace import EV_ARITH, EV_GLOBAL_LD, EV_SHARED


def _niceness(_task):
    return os.nice(0)


def _simulate(task):
    queues, resident = task
    return simulate_cluster(GTX285, HwConfig(), False, queues, resident)


@pytest.mark.skipif(not hasattr(os, "nice"), reason="os.nice is POSIX only")
def test_pooled_task_runs_at_higher_niceness():
    parent = os.nice(0)
    if parent >= 19:
        pytest.skip("the test process already runs at the lowest priority")
    assert all(n > parent for n in map_tasks([0, 1], 2, _niceness, _niceness))
    # Only the workers yield: the calling process keeps its priority.
    assert os.nice(0) == parent


def test_pooled_results_equal_serial():
    chain = [(EV_ARITH, 1, t % 4, 0, None) for t in range(40)]
    mixed = [(EV_SHARED, 0, 4, 0, None), (EV_GLOBAL_LD, 1, 3, 256, None)] * 10
    tasks = [
        ([[[chain] * 4] * 2, [[mixed] * 3], [[chain, mixed]]], 2),
        ([[[mixed] * 6], [], [[chain] * 8] * 3], 1),
        ([[[chain, mixed] * 4] * 3], 3),
    ]
    assert map_tasks(tasks, 2, _simulate, _simulate) == [
        _simulate(task) for task in tasks
    ]


def _times_ten(task):
    return task * 10


def test_pool_breaking_during_submission_is_a_crash(monkeypatch):
    # A worker that dies before the last task is submitted breaks the
    # executor under the submitting loop: the unsubmitted tasks are
    # lost like in-flight ones and retried through a rebuilt pool.
    submit = ProcessPoolExecutor.submit
    calls = []

    def breaking_submit(self, *args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise BrokenProcessPool("worker died during submission")
        return submit(self, *args, **kwargs)

    monkeypatch.setattr(ProcessPoolExecutor, "submit", breaking_submit)
    health = PoolHealth()
    tasks = [1, 2, 3]
    results = map_tasks(
        tasks, 2, _times_ten, _times_ten, retry_backoff=0, health=health
    )
    assert results == [10, 20, 30]
    assert health.worker_crashes == 1
    assert health.serial_fallbacks == 0
