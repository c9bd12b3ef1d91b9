"""Event-driven timing simulation of one memory cluster (3 SMs).

On the GTX 285, 30 SMs are grouped into 10 clusters whose 3 SMs share a
single memory pipeline -- the cause of the sawtooth with period 10 in
the paper's Fig. 3.  This module simulates one cluster: per-SM issue
ports, per-type arithmetic pipes and the banked shared-memory pipe, plus
the cluster-wide DRAM service timeline and optional texture cache.

Warps replay the event streams recorded by the functional simulator.
Each event issues in order, no earlier than: its register dependence's
completion, the scoreboard window, the SM issue port, and its pipe.
Completion happens a latency after pipe occupancy, with deterministic
hash jitter (which is what smooths the throughput curves near their
saturation knee, as on real silicon).

Events are scheduled through one heap ordered by ``(time, seq)``, where
``seq`` counts pushes.  A warp that waits on a busy issue port or pipe
is re-checked once per competing issue, so crowded SMs would cost many
pops per issued event.  Warps blocked at the same time therefore share
one heap entry, a *convoy*, processed in order.  This keeps the
one-warp-per-pop order exactly: pushes with equal times and no push
between them are adjacent in ``(time, seq)`` order.  A convoy member
whose resource selector (SM, pipe, shared-operand collector) equals
that of a check that failed at the same time, with no issue since,
reads the same state; it is re-queued with that check's result without
evaluating it again.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.arch.specs import GpuSpec, GTX285
from repro.errors import HardwareModelError
from repro.hw.config import (
    HwConfig,
    cluster_bytes_per_cycle,
    deterministic_jitter,
    issue_intervals,
)
from repro.hw.texcache import TextureCache
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
)

#: A block of work: one event stream per warp.
BlockWork = list  # list[list[Event]]


def simulate_cluster(
    spec: GpuSpec,
    config: HwConfig | None,
    use_cache: bool,
    sm_queues: list[list[BlockWork]],
    resident_per_sm: int,
) -> "ClusterResult":
    """One-shot cluster simulation: a pure, picklable entry point.

    The timing layer's process-pool workers (:mod:`repro.hw.engine`)
    need a module-level function; keeping it here, next to
    :class:`ClusterSimulator`, pins the invariant that a cluster's
    result is a deterministic function of exactly these arguments --
    which is what makes signature memoization and the parallel fan-out
    bit-identical to serial replay.
    """
    return ClusterSimulator(spec, config, use_cache).run(
        sm_queues, resident_per_sm
    )


class _Warp:
    __slots__ = (
        "stream",
        "idx",
        "completions",
        "maxcomp",
        "block",
        "sm",
        "gwid",
        "waiting",
        "last_arith",
        "last_shared",
        "sel",
    )

    def __init__(self, stream, block, sm: int, gwid: int) -> None:
        self.stream = stream
        self.idx = 0
        self.completions: list[float] = []
        self.maxcomp = 0.0
        self.block = block
        self.sm = sm
        self.gwid = gwid
        self.waiting = False
        self.last_arith = 0.0
        self.last_shared = 0.0
        # Selector (SM, pipe, collector) of the resource check the
        # current event last failed; valid while the warp is in a convoy.
        self.sel = -1


class _Block:
    __slots__ = ("warps", "alive", "arrivals", "sm", "done_time")

    def __init__(self, sm: int) -> None:
        self.warps: list[_Warp] = []
        self.alive = 0
        self.arrivals: list[float] = []
        self.sm = sm
        self.done_time = 0.0


class _Sm:
    __slots__ = ("issue_free", "pipe_free", "shared_free", "queue", "resident")

    def __init__(self) -> None:
        self.issue_free = 0.0
        self.pipe_free = [0.0, 0.0, 0.0, 0.0]
        self.shared_free = 0.0
        self.queue: list[BlockWork] = []
        self.resident = 0


@dataclass
class ClusterResult:
    """Outcome of one cluster simulation."""

    cycles: float
    events: int
    cache_hits: int = 0
    cache_misses: int = 0
    dram_busy_cycles: float = 0.0

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class ClusterSimulator:
    """Simulate the SMs of one cluster executing queued blocks."""

    def __init__(
        self,
        spec: GpuSpec = GTX285,
        config: HwConfig | None = None,
        use_cache: bool = False,
    ) -> None:
        self.spec = spec
        self.config = config or HwConfig()
        self.use_cache = use_cache
        self.intervals = issue_intervals(spec)
        self.dram_rate = cluster_bytes_per_cycle(spec)
        self.num_sms = spec.sms_per_cluster

    def run(
        self,
        sm_queues: list[list[BlockWork]],
        resident_per_sm: int,
    ) -> ClusterResult:
        """Execute block queues on each SM; returns total cycles.

        ``sm_queues[i]`` is the ordered list of blocks SM ``i`` must run;
        at most ``resident_per_sm`` are resident concurrently.
        """
        if len(sm_queues) > self.num_sms:
            raise HardwareModelError(
                f"cluster has {self.num_sms} SMs, got {len(sm_queues)} queues"
            )
        if resident_per_sm < 1:
            raise HardwareModelError("resident_per_sm must be at least 1")

        cfg = self.config
        sms = [_Sm() for _ in range(self.num_sms)]
        cache = (
            TextureCache(cfg.texcache_bytes, cfg.texcache_line, cfg.texcache_ways)
            if self.use_cache
            else None
        )
        # Entries are (time, seq, item): item is a warp, or a convoy --
        # a list of warps blocked on resources, processed in order.
        heap: list[tuple] = []
        seq = 0
        gwid = 0
        dram_free = 0.0
        dram_busy = 0.0
        events_processed = 0

        def launch_block(sm_index: int, work: BlockWork, at: float) -> None:
            nonlocal seq, gwid
            block = _Block(sm_index)
            start = at + cfg.block_launch_overhead
            for stream in work:
                warp = _Warp(stream, block, sm_index, gwid)
                gwid += 1
                block.warps.append(warp)
                if stream:
                    block.alive += 1
                    heapq.heappush(heap, (start, seq, warp))
                    seq += 1
            sms[sm_index].resident += 1
            if block.alive == 0:
                finish_block(block, start)

        def finish_block(block: _Block, at: float) -> None:
            nonlocal seq
            block.done_time = at
            sm = sms[block.sm]
            sm.resident -= 1
            if sm.queue:
                launch_block(block.sm, sm.queue.pop(0), at)

        def warp_finished(warp: _Warp) -> None:
            block = warp.block
            block.alive -= 1
            if block.alive == 0 and not block.arrivals:
                done = max(w.maxcomp for w in block.warps)
                finish_block(block, done)
            elif block.arrivals and block.alive == len(block.arrivals):
                _release_barrier(block)

        def _release_barrier(block: _Block) -> None:
            nonlocal seq
            release = max(block.arrivals) + cfg.barrier_latency
            block.arrivals = []
            for warp in block.warps:
                if warp.waiting:
                    warp.waiting = False
                    warp.completions.append(release)
                    if release > warp.maxcomp:
                        warp.maxcomp = release
                    warp.idx += 1
                    if warp.idx < len(warp.stream):
                        heapq.heappush(heap, (release, seq, warp))
                        seq += 1
                    else:
                        warp_finished(warp)

        for sm_index, queue in enumerate(sm_queues):
            sm = sms[sm_index]
            sm.queue = list(queue)
            while sm.queue and sm.resident < resident_per_sm:
                launch_block(sm_index, sm.queue.pop(0), 0.0)

        window = cfg.ilp_window
        slack = cfg.repush_slack
        intervals = self.intervals
        latencies = cfg.arith_latency
        halfwarp_cycles = cfg.shared_halfwarp_cycles
        arith_in_order = cfg.arith_in_order
        shared_in_order = cfg.shared_in_order
        issue_gap = cfg.issue_gap
        replay_stall = cfg.replay_warp_stall
        smem_operand_latency = cfg.smem_operand_latency
        shared_latency = cfg.shared_latency
        global_latency = cfg.global_latency
        texcache_hit_latency = cfg.texcache_hit_latency
        arith_jitter = cfg.arith_jitter
        shared_jitter = cfg.shared_jitter
        global_jitter = cfg.global_jitter
        jitter = deterministic_jitter
        dram_rate = self.dram_rate
        end_time = 0.0
        heappush = heapq.heappush
        heappop = heapq.heappop
        # The newest convoy, which a blocked warp may join while no push
        # has happened since (seq == conv_seq) and its time is equal.
        conv: list[_Warp] = []
        conv_t = 0.0
        conv_seq = -1
        # The convoy being processed, and the last resource check that
        # failed in it: its selector and issue time.  Only an issue
        # changes the SM state such a check reads.
        convoy = None
        fail_sel = -1
        fail_key = 0.0

        while True:
            if convoy is not None:
                warp = next(convoy, None)
                if warp is None:
                    convoy = None
                    continue
                if warp.sel == fail_sel:
                    # Same selector at the same t with no issue since:
                    # the check would fail again with the same key.
                    if fail_key == conv_t and seq == conv_seq:
                        conv.append(warp)
                    else:
                        conv = [warp]
                        heappush(heap, (fail_key, seq, conv))
                        seq += 1
                        conv_t = fail_key
                        conv_seq = seq
                    continue
            elif heap:
                t, _, warp = heappop(heap)
                if warp.__class__ is list:
                    convoy = iter(warp)
                    fail_sel = -1
                    continue
            else:
                break
            idx = warp.idx
            stream = warp.stream
            event = stream[idx]
            kind = event[0]
            dep = event[1]

            ready = t
            completions = warp.completions
            if dep > 0 and dep <= idx:
                dep_time = completions[idx - dep]
                if dep_time > ready:
                    ready = dep_time
            if idx >= window:
                window_time = completions[idx - window]
                if window_time > ready:
                    ready = window_time
            if (
                arith_in_order
                and (kind == EV_ARITH or kind == EV_ARITH_SHARED)
                and warp.last_arith > ready
            ):
                ready = warp.last_arith
            if (
                shared_in_order
                and (kind == EV_SHARED or kind == EV_ARITH_SHARED)
                and warp.last_shared > ready
            ):
                ready = warp.last_shared
            if ready > t + 1e-9:
                heappush(heap, (ready, seq, warp))
                seq += 1
                continue

            if kind == EV_BAR:
                block = warp.block
                arrival = max(t, warp.maxcomp)
                warp.waiting = True
                block.arrivals.append(arrival)
                if len(block.arrivals) == block.alive:
                    _release_barrier(block)
                continue

            sm = sms[warp.sm]
            issue = t if t > sm.issue_free else sm.issue_free
            if kind == EV_ARITH or kind == EV_ARITH_SHARED:
                pipe_free = sm.pipe_free[event[2]]
                if kind == EV_ARITH_SHARED and event[3]:
                    # The operand collector cannot accept the shared
                    # operand while the shared pipe is backlogged.
                    if sm.shared_free > pipe_free:
                        pipe_free = sm.shared_free
            else:
                # Memory instructions generate addresses on the SPs, so
                # they occupy the type II pipe like any other instruction.
                pipe_free = sm.pipe_free[1]
            if pipe_free > issue:
                issue = pipe_free
            if issue > t + slack:
                if kind == EV_ARITH or kind == EV_ARITH_SHARED:
                    sel = warp.sm << 3 | event[2] << 1
                    if kind == EV_ARITH_SHARED and event[3]:
                        sel |= 1
                else:
                    sel = warp.sm << 3 | 2
                warp.sel = fail_sel = sel
                fail_key = issue
                if issue == conv_t and seq == conv_seq:
                    conv.append(warp)
                else:
                    conv = [warp]
                    heappush(heap, (issue, seq, conv))
                    seq += 1
                    conv_t = issue
                    conv_seq = seq
                continue

            events_processed += 1
            fail_sel = -1
            sm.issue_free = issue + issue_gap
            jkey = (warp.gwid << 20) ^ idx
            next_gap = issue_gap

            if kind == EV_ARITH:
                type_index = event[2]
                interval = intervals[type_index]
                sm.pipe_free[type_index] = issue + interval
                comp = (
                    issue
                    + interval
                    + latencies[type_index]
                    + jitter(jkey, arith_jitter)
                )
            elif kind == EV_ARITH_SHARED:
                type_index = event[2]
                ntrans = event[3]
                interval = intervals[type_index]
                sm.pipe_free[type_index] = issue + interval
                comp = (
                    issue
                    + interval
                    + latencies[type_index]
                    + jitter(jkey, arith_jitter)
                )
                if ntrans:
                    # issue already waited for shared_free (see above),
                    # so the shared pipe starts serving at issue time.
                    sm.shared_free = issue + halfwarp_cycles * ntrans
                    comp += smem_operand_latency
                    # Conflicted accesses replay: the issuing warp stalls
                    # in order until the serialization drains.
                    extra = ntrans - min(ntrans, 2)
                    if extra:
                        stall = replay_stall * extra
                        if stall > next_gap:
                            next_gap = stall
            elif kind == EV_SHARED:
                ntrans = event[2]
                sm.pipe_free[1] = issue + intervals[1]
                if ntrans:
                    start = issue if issue > sm.shared_free else sm.shared_free
                    sm.shared_free = start + halfwarp_cycles * ntrans
                    comp = (
                        sm.shared_free
                        + shared_latency
                        + jitter(jkey, shared_jitter)
                    )
                    extra = ntrans - min(ntrans, 2)
                    if extra:
                        stall = replay_stall * extra
                        if stall > next_gap:
                            next_gap = stall
                else:
                    comp = issue + 1.0
            elif kind == EV_GLOBAL_LD or kind == EV_GLOBAL_ST:
                sm.pipe_free[1] = issue + intervals[1]
                # Split (uncoalesced) requests replay like bank conflicts:
                # the issuing warp stalls per extra transaction.
                extra_txn = event[2] - min(event[2], 2)
                if extra_txn:
                    stall = replay_stall * extra_txn
                    if stall > next_gap:
                        next_gap = stall
                nbytes = event[3]
                payload = event[4]
                hit_time = 0.0
                if (
                    cache is not None
                    and payload is not None
                    and payload[0]
                    and payload[1] is not None
                ):
                    miss_bytes = 0
                    hit_any = False
                    for address, size in payload[1]:
                        hits, misses = cache.access(address, size)
                        miss_bytes += min(misses, size)
                        if hits:
                            hit_any = True
                    nbytes = miss_bytes
                    if hit_any:
                        hit_time = issue + texcache_hit_latency
                if nbytes > 0:
                    start = issue if issue > dram_free else dram_free
                    service = nbytes / dram_rate
                    dram_free = start + service
                    dram_busy += service
                    comp = (
                        dram_free
                        + global_latency
                        + jitter(jkey, global_jitter)
                    )
                else:
                    comp = issue + 1.0
                if hit_time > comp:
                    comp = hit_time
                if kind == EV_GLOBAL_ST:
                    # Stores are fire-and-forget: the warp does not wait
                    # for DRAM, only bandwidth is consumed.
                    comp = issue + 1.0
            else:  # pragma: no cover - unknown kinds rejected upstream
                raise HardwareModelError(f"unknown event kind {kind}")

            completions.append(comp)
            if kind == EV_ARITH or kind == EV_ARITH_SHARED:
                warp.last_arith = comp
            if kind == EV_SHARED or kind == EV_ARITH_SHARED:
                warp.last_shared = comp
            if comp > warp.maxcomp:
                warp.maxcomp = comp
            if comp > end_time:
                end_time = comp
            warp.idx = idx + 1
            if warp.idx < len(stream):
                heappush(heap, (issue + next_gap, seq, warp))
                seq += 1
            else:
                warp_finished(warp)

        for sm in sms:
            if sm.queue or sm.resident:
                raise HardwareModelError(
                    "cluster simulation ended with unfinished blocks "
                    "(barrier deadlock in the event streams?)"
                )

        return ClusterResult(
            cycles=end_time,
            events=events_processed,
            cache_hits=cache.hits if cache else 0,
            cache_misses=cache.misses if cache else 0,
            dram_busy_cycles=dram_busy,
        )
