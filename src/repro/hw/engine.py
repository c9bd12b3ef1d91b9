"""Parallel, memoizing backend of the hardware timing layer.

:class:`repro.hw.gpu.HardwareGpu` used to replay heterogeneous grids
cluster by cluster, serially, in-process -- the last serial stage of the
pipeline.  This module supplies the two mechanisms that removed it:

* :func:`simulate_clusters` fans independent cluster simulations across
  the same process pool the functional-simulation engine uses
  (:mod:`repro.pool`), preserving job order so the parallel reduction is
  bit-identical to a serial loop;
* :class:`MeasuredRunCache` memoizes whole :class:`~repro.hw.gpu
  .MeasuredRun` results on disk, keyed by the hardware version, the
  launch's class-signature table, the architecture spec, the timing
  configuration and the resident-block count -- so benchmark harnesses
  replay Fig. 3/4/11/12-scale measurements instantly.

Worker processes receive ``(spec, config, use_cache)`` once through the
pool initializer and per-task ``(sm_queues, resident)`` jobs; cluster
results are tiny, so the transfer cost is dominated by the queues'
event streams (pickled once per job thanks to pickle memoization of the
shared ``BlockWork`` objects).
"""

from __future__ import annotations

import os
from dataclasses import replace

from repro.arch.specs import GpuSpec
from repro.hw.cluster import BlockWork, ClusterResult, simulate_cluster
from repro.hw.config import HwConfig
from repro.pool import PoolHealth, map_tasks
from repro.sim.trace import stream_digest
from repro.util import VersionedPickleCache

__all__ = [
    "HW_CACHE_VERSION",
    "MeasuredRunCache",
    "simulate_clusters",
    "stream_digest",
]

#: Bump when timing semantics or MeasuredRun's schema change: a stale
#: memoized measurement must never masquerade as current silicon.
#: v2: MeasuredRun carries a ``health`` degradation record.
HW_CACHE_VERSION = 2

#: One timing job: per-SM block queues plus the residency limit.
ClusterJob = tuple  # (sm_queues, resident_per_sm)

_WORKER_STATE: tuple[GpuSpec, HwConfig | None, bool] | None = None


def _init_worker(spec, config, use_cache) -> None:
    global _WORKER_STATE
    _WORKER_STATE = (spec, config, use_cache)


def _run_cluster_task(job: ClusterJob) -> ClusterResult:
    spec, config, use_cache = _WORKER_STATE
    queues, resident = job
    return simulate_cluster(spec, config, use_cache, queues, resident)


def simulate_clusters(
    jobs: list[ClusterJob],
    spec: GpuSpec,
    config: HwConfig | None,
    use_cache: bool,
    workers: int = 0,
    task_timeout: float | None = None,
    health: PoolHealth | None = None,
    **span_attrs,
) -> list[ClusterResult]:
    """Simulate cluster jobs, preserving order; parallel when configured.

    Every job is an independent pure function of its arguments, so the
    pooled results are bit-identical to a serial loop and the caller can
    aggregate them deterministically in job order.  Worker deaths and
    hung tasks (``task_timeout``) degrade to in-process re-execution of
    the affected jobs -- still bit-identical -- with the counters
    recorded in ``health`` (see :mod:`repro.pool`).  ``span_attrs`` tag
    the ``hw.simulate_clusters`` obs span.
    """
    from repro import obs

    with obs.span(
        "hw.simulate_clusters", jobs=len(jobs), workers=workers, **span_attrs
    ):
        return map_tasks(
            jobs,
            workers,
            serial_fn=lambda job: simulate_cluster(
                spec, config, use_cache, job[0], job[1]
            ),
            worker_fn=_run_cluster_task,
            initializer=_init_worker,
            initargs=(spec, config, use_cache),
            task_timeout=task_timeout,
            health=health,
        )


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
        super().__init__(directory, HW_CACHE_VERSION, ".run.pkl")

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
