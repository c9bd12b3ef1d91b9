"""Parallel, memoizing backend of the hardware timing layer.

:class:`repro.hw.gpu.HardwareGpu` used to replay heterogeneous grids
cluster by cluster, serially, in-process -- the last serial stage of the
pipeline.  This module supplies the mechanisms that removed it:

* :func:`simulate_clusters` groups cluster jobs that share their
  residency and the blocks every SM starts with, simulates each group's
  common prefix once (:meth:`~repro.hw.cluster.ClusterSimulator
  .run_group`), and fans the groups across the same process pool the
  functional-simulation engine uses (:mod:`repro.pool`), preserving job
  order so the parallel reduction is bit-identical to a serial loop of
  independent simulations; :func:`start_clusters` is the same work
  returned as a :class:`~repro.pool.Pending`, so a caller (the
  calibration sweep) can run other work before collecting;
* :class:`MeasuredRunCache` memoizes whole :class:`~repro.hw.gpu
  .MeasuredRun` results on disk, keyed by the package's source digest, the
  launch's class-signature table, the architecture spec, the timing
  configuration and the resident-block count -- so benchmark harnesses
  replay Fig. 3/4/11/12-scale measurements instantly.

Worker processes receive ``(spec, config, use_cache)`` once through the
pool initializer and one group of ``(sm_queues, resident)`` jobs per
task; cluster results are tiny, so the transfer cost is dominated by the
queues' event streams (pickled once per group thanks to pickle
memoization of the shared ``BlockWork`` objects).
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.arch.specs import GpuSpec
from repro.hw.cluster import BlockWork, ClusterResult, ClusterSimulator
from repro.hw.config import HwConfig
from repro.pool import Pending, PoolHealth, start_tasks
from repro.sim.trace import stream_digest
from repro.util import VersionedPickleCache

__all__ = [
    "MeasuredRunCache",
    "simulate_clusters",
    "start_clusters",
    "stream_digest",
]

#: One timing job: per-SM block queues plus the residency limit.
ClusterJob = tuple  # (sm_queues, resident_per_sm)

_WORKER_STATE: tuple[GpuSpec, HwConfig | None, bool] | None = None


def _init_worker(spec, config, use_cache) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (spec, config, use_cache)


def _simulate_group(
    spec: GpuSpec,
    config: HwConfig | None,
    use_cache: bool,
    group: list[ClusterJob],
) -> list[ClusterResult]:
    """Simulate one group of jobs that share a residency, in job order."""
    from repro import obs

    with obs.span("hw.cluster", jobs=len(group)):
        results, copies, simulated = ClusterSimulator(
            spec, config, use_cache
        ).run_group([queues for queues, _ in group], group[0][1])
        if obs.enabled():
            obs.tag(forks=copies, events=simulated)
            obs.metrics.inc(
                "hw.prefix_shared_events",
                sum(result.events for result in results) - simulated,
            )
    return results


def _run_group_task(group: list[ClusterJob]) -> list[ClusterResult]:
    spec, config, use_cache = _WORKER_STATE
    return _simulate_group(spec, config, use_cache, group)


def _prefix_groups(jobs: list[ClusterJob]) -> list[list[int]]:
    """Job indices grouped by residency and the blocks each SM starts
    with, compared by identity; groups in order of first job."""
    groups: dict[tuple, list[int]] = {}
    for index, (queues, resident) in enumerate(jobs):
        key = (
            resident,
            tuple(tuple(map(id, queue[:resident])) for queue in queues),
        )
        groups.setdefault(key, []).append(index)
    return list(groups.values())


def simulate_clusters(
    jobs: list[ClusterJob],
    spec: GpuSpec,
    config: HwConfig | None,
    use_cache: bool,
    workers: int = 0,
    task_timeout: float | None = None,
    health: PoolHealth | None = None,
    _share_prefixes: bool = True,
    **span_attrs,
) -> list[ClusterResult]:
    """Simulate cluster jobs, preserving order; parallel when configured.

    Exactly ``start_clusters(...).collect()``.
    """
    return start_clusters(
        jobs,
        spec,
        config,
        use_cache,
        workers,
        task_timeout=task_timeout,
        health=health,
        _share_prefixes=_share_prefixes,
        **span_attrs,
    ).collect()


def start_clusters(
    jobs: list[ClusterJob],
    spec: GpuSpec,
    config: HwConfig | None,
    use_cache: bool,
    workers: int = 0,
    task_timeout: float | None = None,
    health: PoolHealth | None = None,
    _share_prefixes: bool = True,
    **span_attrs,
) -> Pending:
    """Start simulating cluster jobs; the results are collected in order.

    Every job's result is a pure function of its arguments.  Jobs with
    the same residency whose SMs start with the same blocks form one
    group, whose common prefix is simulated once (see
    :mod:`repro.hw.cluster`); each group is one pool task
    (:func:`repro.pool.start_tasks`), so the results are bit-identical
    to a serial loop of independent simulations and the caller can
    aggregate them deterministically in job order.
    ``_share_prefixes=False`` makes every job its own group (the naive
    reference replay).  Worker deaths and hung tasks (``task_timeout``)
    degrade to in-process re-execution of the affected groups -- still
    bit-identical -- with the counters recorded in ``health`` (see
    :mod:`repro.pool`).  ``span_attrs`` tag the ``hw.simulate_clusters``
    obs span, which covers the start (and all of a serial run).
    """
    from repro import obs

    if _share_prefixes:
        groups = _prefix_groups(jobs)
    else:
        groups = [[index] for index in range(len(jobs))]
    with obs.span(
        "hw.simulate_clusters",
        jobs=len(jobs),
        groups=len(groups),
        workers=workers,
        **span_attrs,
    ):
        grouped = start_tasks(
            [[jobs[index] for index in group] for group in groups],
            workers,
            serial_fn=lambda group: _simulate_group(
                spec, config, use_cache, group
            ),
            worker_fn=_run_group_task,
            initializer=_init_worker,
            initargs=(spec, config, use_cache),
            task_timeout=task_timeout,
            health=health,
        )

    def in_job_order(grouped_results: list) -> list[ClusterResult]:
        results: list[ClusterResult | None] = [None] * len(jobs)
        for group, group_results in zip(groups, grouped_results):
            for index, result in zip(group, group_results):
                results[index] = result
        return results

    return grouped.then(in_job_order)


# stream_digest now lives in repro.sim.trace (next to BlockTrace, which
# memoizes it per trace); it is re-exported here because the timing
# layer's callers and cache keys treat it as this module's API.


class MeasuredRunCache(VersionedPickleCache):
    """Pickled MeasuredRun results keyed by content hashes.

    The timing sibling of the engine's ``TraceCache``; the shared
    fail-open/LRU/atomic-store protocol lives in
    :class:`repro.util.VersionedPickleCache`.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, ".run.pkl")

    def load(self, key: str):
        from repro.hw.gpu import MeasuredRun
        from repro.pool import HealthRecord

        run = self.load_payload(key)
        if not isinstance(run, MeasuredRun):
            return None
        # Health describes the current run, not the one that populated
        # the cache: a hit simulated nothing, so nothing degraded.
        return replace(run, from_cache=True, health=HealthRecord())

    def store(self, key: str, run) -> None:
        self.store_payload(key, run)
