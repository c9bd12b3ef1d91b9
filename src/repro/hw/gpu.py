"""Whole-GPU measurement: schedule a grid of blocks and time it.

This is the reproduction's "run it on the GTX 285" entry point.  Blocks
are dispatched round-robin across the 10 clusters (then across the 3 SMs
inside a cluster), which is what produces the paper's period-10 sawtooth
in global bandwidth (Fig. 3).  For very large homogeneous grids the
steady state is extrapolated from two simulated waves -- block waves are
statistically identical, so per-wave time converges immediately.

Heterogeneous grids are timed through a dedup-aware cluster layer: every
block is assigned a *class* by the content of its warp streams (the
engine's per-block trace table maps equivalent blocks to one shared
representative, so classing is nearly free), each cluster's per-SM
queues reduce to a *signature* of class-ID sequences, and only one
cluster per distinct signature is simulated -- permuted queue
assignments included (exactly-equal queues replay bit-identically;
permuted ones reuse the representative within jitter).  Distinct
signatures whose SMs start with the same blocks -- e.g. a uniform grid's
(18,17,17) and (17,17,17) clusters, or the wave-extrapolation probes --
share the simulation of their common prefix and fork where their queues
first differ (:meth:`repro.hw.cluster.ClusterSimulator.run_group`), with
results byte-identical to simulating each alone.  The groups fan out
across the shared process pool (:mod:`repro.pool`), and whole
measurements are memoized on disk
(:class:`repro.hw.engine.MeasuredRunCache`).

Microbenchmark points (:meth:`HardwareGpu.measure_uniform_sm`) time a
single SM instead: with no global memory traffic the SMs of a cluster
share nothing, so one SM's run is exactly what each of them would do.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from repro.arch.specs import GpuSpec, GTX285
from repro.errors import HardwareModelError
from repro.hw.cluster import BlockWork, ClusterResult
from repro.hw.config import HwConfig, config_fingerprint
from repro.hw.engine import (
    MeasuredRunCache,
    simulate_clusters,
    start_clusters,
)
from repro.pool import HealthRecord, Pending, PoolHealth
from repro.sim.trace import EV_GLOBAL_LD, EV_GLOBAL_ST, BlockTrace
from repro.util import source_digest, spec_fingerprint

#: Serial/pool crossover when the ``min_parallel_events`` kwarg is not
#: given.  Wall-clock only: results are bit-identical either side of it.
DEFAULT_MIN_PARALLEL_EVENTS = 50_000


@dataclass(frozen=True)
class MeasuredRun:
    """A hardware measurement of one kernel launch.

    ``cluster_sims`` counts the cluster simulations actually executed;
    ``signature_hits`` the clusters served from a memoized signature
    (plus, for extrapolated runs, tail patterns shared across clusters).
    ``from_cache`` marks runs replayed from the on-disk measured-run
    cache without simulating anything.
    """

    cycles: float
    seconds: float
    cluster_cycles: tuple[float, ...]
    events: int
    cache_hit_rate: float = 0.0
    extrapolated: bool = False
    cluster_sims: int = 0
    signature_hits: int = 0
    from_cache: bool = False
    #: Degradation record for this measurement (pool retries/timeouts/
    #: serial fallbacks, cache quarantines); all-zero when healthy.
    health: HealthRecord = HealthRecord()

    @property
    def milliseconds(self) -> float:
        return self.seconds * 1e3


class HardwareGpu:
    """The silicon stand-in: times kernel launches from warp traces.

    Parameters
    ----------
    spec, config:
        The modelled architecture and its timing constants.
    workers:
        Process-pool width for fanning distinct cluster simulations out
        (0/1 = in-process).  Parallel runs are bit-identical to serial.
    cache_dir:
        Directory for the on-disk :class:`MeasuredRun` memo cache;
        ``None`` disables memoization.
    min_parallel_events:
        Serial/pool crossover: measurements whose queues replay fewer
        events than this stay serial even with ``workers > 1`` (results
        are bit-identical either way; this is purely wall-clock).
        Clamped to at least 0; ``None`` means
        :data:`DEFAULT_MIN_PARALLEL_EVENTS`.
    task_timeout:
        Per-task watchdog budget (seconds) for pooled cluster jobs; a
        hung worker is killed after this long and its job re-executed
        in-process.  ``None`` defers to ``$REPRO_POOL_TIMEOUT``.
    """

    def __init__(
        self,
        spec: GpuSpec = GTX285,
        config: HwConfig | None = None,
        workers: int = 0,
        cache_dir: str | None = None,
        min_parallel_events: int | None = None,
        task_timeout: float | None = None,
    ) -> None:
        self.spec = spec
        self.config = config or HwConfig()
        self.workers = max(0, int(workers))
        self.task_timeout = task_timeout
        self.min_parallel_events = (
            DEFAULT_MIN_PARALLEL_EVENTS
            if min_parallel_events is None
            else max(0, int(min_parallel_events))
        )
        self.cache = (
            MeasuredRunCache(cache_dir) if cache_dir is not None else None
        )

    # ------------------------------------------------------------------
    # microbenchmark-style measurement: one SM
    # ------------------------------------------------------------------
    def measure_uniform_sm(
        self,
        points: list[list[BlockWork]],
        resident_per_sm: int,
    ) -> list[ClusterResult]:
        """Time one SM per point: ``start_uniform_sm(...).collect()``."""
        return self.start_uniform_sm(points, resident_per_sm).collect()

    def start_uniform_sm(
        self,
        points: list[list[BlockWork]],
        resident_per_sm: int,
    ) -> Pending:
        """Start timing one SM per point, running that point's block queue.

        ``points`` are per-SM block queues, e.g. the points of a
        microbenchmark sweep; the results are collected in the same
        order.  One SM stands for every SM of the GPU, as in the
        paper's Fig. 2 microbenchmarks: the SMs of a cluster share only
        its memory pipeline, so a point without global memory events
        runs on each of them exactly as it runs alone.  Points with
        global loads or stores are refused (:class:`HardwareModelError`).
        Each point is an independent job: they fan out over ``workers``
        like a measurement's clusters, largest first so the pool stays
        balanced, and run while the caller works until collected.
        """
        streams = {
            id(stream): stream
            for queue in points
            for work in queue
            for stream in work
        }
        if any(
            event[0] == EV_GLOBAL_LD or event[0] == EV_GLOBAL_ST
            for stream in streams.values()
            for event in stream
        ):
            raise HardwareModelError(
                "uniform-SM points must not access global memory: the "
                "SMs of a cluster share its memory pipeline, so one SM "
                "cannot stand for them"
            )
        sizes = [
            sum(len(stream) for work in queue for stream in work)
            for queue in points
        ]
        order = sorted(range(len(points)), key=lambda i: -sizes[i])
        jobs = [([list(points[i])], resident_per_sm) for i in order]

        def in_point_order(results: list) -> list[ClusterResult]:
            ordered: list[ClusterResult] = [None] * len(jobs)
            for i, result in zip(order, results):
                ordered[i] = result
            return ordered

        return start_clusters(
            jobs,
            self.spec,
            self.config,
            use_cache=False,  # without global loads it never engages
            workers=self._effective_workers(jobs),
            task_timeout=self.task_timeout,
            points=len(jobs),
        ).then(in_point_order)

    # ------------------------------------------------------------------
    # full launches
    # ------------------------------------------------------------------
    def measure(
        self,
        traces: list[BlockTrace] | BlockTrace,
        num_blocks: int,
        resident_per_sm: int,
        use_cache: bool = False,
        wave_extrapolation: bool = True,
        dedup: bool = True,
    ) -> MeasuredRun:
        """Time a launch of ``num_blocks`` blocks.

        ``traces`` supplies per-block warp streams; a single trace means
        a homogeneous grid, a list is cycled across block indices -- a
        full per-block table (one entry per block, as the engine's exact
        trace tables provide) or a shorter representative sample.  The
        clusters to simulate are chosen here, not by the caller: all of
        them for uniform grids, exact tables and small launches, else
        the first and last.  ``dedup=False`` disables signature
        memoization and prefix sharing and replays every chosen cluster
        alone (the pre-dedup behaviour, kept for differential
        benchmarks).
        """
        from repro import obs

        if num_blocks <= 0:
            raise HardwareModelError("num_blocks must be positive")
        if isinstance(traces, BlockTrace):
            traces = [traces]
        if not traces:
            raise HardwareModelError("at least one block trace is required")
        with obs.span(
            "hw.measure",
            blocks=num_blocks,
            traces=len(traces),
            resident_per_sm=resident_per_sm,
        ):
            run = self._measure(
                traces,
                num_blocks,
                resident_per_sm,
                use_cache,
                wave_extrapolation,
                dedup,
            )
        if obs.enabled():
            obs.metrics.inc("hw.measures")
            obs.metrics.inc("hw.blocks", num_blocks)
            obs.metrics.inc("hw.events", run.events)
            obs.metrics.inc("hw.cluster_sims", run.cluster_sims)
            obs.metrics.inc("hw.signature_hits", run.signature_hits)
            obs.metrics.absorb_health("hw", run.health)
        return run

    def _measure(
        self,
        traces: list[BlockTrace],
        num_blocks: int,
        resident_per_sm: int,
        use_cache: bool,
        wave_extrapolation: bool,
        dedup: bool,
    ) -> MeasuredRun:
        works = [t.warp_streams for t in traces]
        homogeneous = len(works) == 1

        num_clusters = self.spec.memory.num_clusters
        sms_per_cluster = self.spec.sms_per_cluster
        counts = self._block_counts(num_blocks, num_clusters, sms_per_cluster)
        class_ids, class_digests = self._class_table(traces)

        pool_health = PoolHealth()
        cache_quarantines = self.cache.quarantines if self.cache else 0
        cache_write_errors = self.cache.write_errors if self.cache else 0
        key = None
        if self.cache is not None:
            key = self._measure_key(
                class_digests,
                class_ids,
                num_blocks,
                resident_per_sm,
                use_cache,
                wave_extrapolation,
                dedup,
            )
            cached = self.cache.load(key)
            if cached is not None:
                return cached

        run = None
        if homogeneous and wave_extrapolation:
            run = self._measure_homogeneous(
                works[0], counts, resident_per_sm, use_cache, pool_health
            )
        if run is None:
            run = self._measure_clusters(
                works,
                class_ids,
                counts,
                num_blocks,
                resident_per_sm,
                use_cache,
                dedup,
                pool_health,
            )
        if key is not None:
            self.cache.store(key, run)
        # Attached after the store: a failed store must show, and the
        # cached copy's health is replaced on every hit anyway.
        record = pool_health.record(
            cache_quarantines=(
                (self.cache.quarantines - cache_quarantines)
                if self.cache
                else 0
            ),
            cache_write_errors=(
                (self.cache.write_errors - cache_write_errors)
                if self.cache
                else 0
            ),
        )
        if record != HealthRecord():
            run = replace(run, health=record)
        return run

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    @staticmethod
    def _block_counts(
        num_blocks: int, num_clusters: int, sms_per_cluster: int
    ) -> list[list[int]]:
        """counts[cluster][sm] = number of blocks assigned there.

        Block ``b`` goes to cluster ``b % num_clusters`` and, within it,
        to SM ``(b // num_clusters) % sms_per_cluster``.
        """
        counts = [[0] * sms_per_cluster for _ in range(num_clusters)]
        for cluster in range(num_clusters):
            assigned = (num_blocks - cluster + num_clusters - 1) // num_clusters
            for sm in range(sms_per_cluster):
                counts[cluster][sm] = (
                    assigned - sm + sms_per_cluster - 1
                ) // sms_per_cluster
        return counts

    @staticmethod
    def _cluster_index_queues(
        cluster: int,
        counts: list[int],
        num_traces: int,
        num_clusters: int,
    ) -> list[list[int]]:
        """Per-SM queues of trace indices, cycling the trace table."""
        queues: list[list[int]] = []
        sms_per_cluster = len(counts)
        for sm, count in enumerate(counts):
            queues.append(
                [
                    (cluster + num_clusters * (sm + sms_per_cluster * k))
                    % num_traces
                    for k in range(count)
                ]
            )
        return queues

    @staticmethod
    def _class_table(traces: list[BlockTrace]) -> tuple[list[int], list[str]]:
        """Class IDs (dense ints) and content digests for a trace table.

        Digests are memoized on each :class:`BlockTrace`
        (:meth:`~repro.sim.trace.BlockTrace.stream_digest`), so repeat
        measurements over one trace table -- e.g. resident-block sweeps
        against a large data-dependent grid -- stop re-hashing every
        stream on every ``MeasuredRunCache`` lookup.  An identity
        short-circuit additionally skips the memo's own validation for
        the engine's replicated class members (every member shares one
        trace object).  Content-equal traces from *distinct* objects
        still unify, which lets hand-built trace lists dedup too.
        """
        digest_by_id: dict[int, str] = {}
        class_of_digest: dict[str, int] = {}
        class_ids: list[int] = []
        digests: list[str] = []
        for trace in traces:
            digest = digest_by_id.get(id(trace))
            if digest is None:
                digest = trace.stream_digest()
                digest_by_id[id(trace)] = digest
            class_id = class_of_digest.get(digest)
            if class_id is None:
                class_id = len(digests)
                class_of_digest[digest] = class_id
                digests.append(digest)
            class_ids.append(class_id)
        return class_ids, digests

    def _measure_key(
        self,
        class_digests: list[str],
        class_ids: list[int],
        num_blocks: int,
        resident_per_sm: int,
        use_cache: bool,
        wave_extrapolation: bool,
        dedup: bool,
    ) -> str:
        """On-disk cache key for one measurement.

        The pool width is deliberately absent: parallel runs are
        bit-identical to serial ones, so any width may share an entry.
        """
        h = hashlib.sha256()
        h.update(f"hw-{source_digest()};".encode())
        h.update(spec_fingerprint(self.spec).encode())
        h.update(config_fingerprint(self.config).encode())
        h.update(
            f"blocks={num_blocks};resident={resident_per_sm};"
            f"cache={use_cache};wave={wave_extrapolation};"
            f"dedup={dedup};".encode()
        )
        for digest in class_digests:
            h.update(digest.encode())
        h.update(repr(tuple(class_ids)).encode())
        return h.hexdigest()

    def _effective_workers(self, jobs: list) -> int:
        """Serial below the event floor: pool startup would dominate."""
        if self.workers <= 1 or len(jobs) <= 1:
            return 0
        total_events = sum(
            len(stream)
            for queues, _ in jobs
            for queue in queues
            for work in queue
            for stream in work
        )
        return self.workers if total_events >= self.min_parallel_events else 0

    def _measure_clusters(
        self,
        works: list[BlockWork],
        class_ids: list[int],
        counts: list[list[int]],
        num_blocks: int,
        resident_per_sm: int,
        use_cache: bool,
        dedup: bool,
        health: PoolHealth | None = None,
    ) -> MeasuredRun:
        """Signature-deduplicated, optionally parallel cluster timing."""
        num_clusters = self.spec.memory.num_clusters
        uniform = len(set(class_ids)) == 1
        exact_table = len(works) == num_blocks

        if uniform or exact_table or num_blocks <= 30 * num_clusters:
            # Exact per-block tables always time every cluster: with
            # dedup and the pool, the full sweep is affordable.
            chosen = list(range(num_clusters))
        else:
            # Cycled samples make clusters statistically identical;
            # the extremes of the block distribution bound the time.
            chosen = sorted({0, num_clusters - 1})

        jobs: list[tuple] = []
        job_of_signature: dict[tuple, int] = {}
        job_for_cluster: dict[int, int] = {}
        for cluster in chosen:
            index_queues = self._cluster_index_queues(
                cluster, counts[cluster], len(works), num_clusters
            )
            payload = (
                [[works[i] for i in queue] for queue in index_queues],
                resident_per_sm,
            )
            if dedup:
                # Memo key: per-SM class sequences sorted descending, so
                # clusters whose queues are *permutations* of a
                # simulated one are never replayed.  The representative
                # simulates its natural arrangement: clusters whose
                # queues exactly equal the representative's then match
                # naive replay bit for bit (ClusterSimulator is a pure
                # function of its queues); genuinely permuted clusters
                # reuse the representative's result, exact in the
                # jitter-free model and bounded by the jitter amplitude
                # otherwise (completion jitter is keyed by launch-order
                # warp ids, so SMs are symmetric only up to jitter).
                signature = tuple(
                    sorted(
                        (
                            tuple(class_ids[i] for i in queue)
                            for queue in index_queues
                        ),
                        reverse=True,
                    )
                )
                job = job_of_signature.get(signature)
                if job is None:
                    job = len(jobs)
                    job_of_signature[signature] = job
                    jobs.append(payload)
            else:
                job = len(jobs)
                jobs.append(payload)
            job_for_cluster[cluster] = job

        results = simulate_clusters(
            jobs,
            self.spec,
            self.config,
            use_cache,
            self._effective_workers(jobs),
            task_timeout=self.task_timeout,
            health=health,
            _share_prefixes=dedup,
        )

        cluster_cycles: list[float] = []
        events = 0
        hits = misses = 0
        for cluster in chosen:
            result = results[job_for_cluster[cluster]]
            cluster_cycles.append(result.cycles)
            events += result.events
            hits += result.cache_hits
            misses += result.cache_misses

        cycles = max(cluster_cycles)
        return MeasuredRun(
            cycles=cycles,
            seconds=cycles / self.spec.core_clock_hz,
            cluster_cycles=tuple(cluster_cycles),
            events=events,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            cluster_sims=len(jobs),
            signature_hits=len(chosen) - len(jobs),
        )

    def _measure_homogeneous(
        self,
        work: BlockWork,
        counts: list[list[int]],
        resident_per_sm: int,
        use_cache: bool,
        health: PoolHealth | None = None,
    ) -> MeasuredRun | None:
        """Steady-state wave extrapolation for big homogeneous grids.

        Simulates one and two full waves; each further wave adds the
        (two-wave minus one-wave) delta.  Requires every SM to have at
        least three full waves queued, otherwise exact simulation is
        cheap enough and ``None`` is returned.  The wave and tail
        simulations queue the same block, so they form one group that
        simulates their common prefix once; their texture-cache
        statistics are aggregated per cluster exactly like the
        non-extrapolated path's.
        """
        resident = resident_per_sm
        min_count = min(min(c) for c in counts)
        if min_count < 3 * resident:
            return None
        sms = self.spec.sms_per_cluster

        # Per-cluster tail patterns; distinct ones become pool jobs
        # alongside the one-wave and two-wave steady-state probes.
        per_cluster: list[tuple[int, tuple[int, ...]]] = []
        job_of_tail: dict[tuple[int, ...], int] = {}
        jobs: list[tuple] = [
            ([[work] * resident for _ in range(sms)], resident),
            ([[work] * (2 * resident) for _ in range(sms)], resident),
        ]
        for per_sm in counts:
            full_waves = min(count // resident for count in per_sm)
            skip = max(full_waves - 2, 0)
            tail_counts = tuple(count - skip * resident for count in per_sm)
            per_cluster.append((skip, tail_counts))
            if tail_counts not in job_of_tail:
                job_of_tail[tail_counts] = len(jobs)
                jobs.append(
                    ([[work] * count for count in tail_counts], resident)
                )

        results = simulate_clusters(
            jobs,
            self.spec,
            self.config,
            use_cache,
            self._effective_workers(jobs),
            task_timeout=self.task_timeout,
            health=health,
        )
        one, two = results[0], results[1]
        delta = two.cycles - one.cycles

        events = one.events + two.events
        hits = one.cache_hits + two.cache_hits
        misses = one.cache_misses + two.cache_misses
        cluster_cycles = []
        for skip, tail_counts in per_cluster:
            result = results[job_of_tail[tail_counts]]
            cluster_cycles.append(skip * delta + result.cycles)
            events += result.events
            hits += result.cache_hits
            misses += result.cache_misses

        cycles = max(cluster_cycles)
        return MeasuredRun(
            cycles=cycles,
            seconds=cycles / self.spec.core_clock_hz,
            cluster_cycles=tuple(cluster_cycles),
            events=events,
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            extrapolated=True,
            cluster_sims=len(jobs),
            signature_hits=len(counts) - len(job_of_tail),
        )
