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
``seq`` counts pushes.  The loop reproduces, exactly, a *two-step* loop
that pushed a warp at ``issue + gap`` after each issue and, if its next
event was not ready when popped there, pushed it again at the ready
time.  That ready time is known at the issue, so the warp is pushed
there directly and a pop checks only resources.  Its place among
entries at that time stays the two-step one unless some entry lands on
exactly that time before the warp's re-push moment ``(issue + gap,
seq)``; the loop marks each deferred warp by its ready time and, on
such a push, turns the warp's entry back into the two-step push.

A warp that waits on a busy issue port or pipe is re-checked once per
competing issue, so crowded SMs would cost many pops per issued event.
Warps blocked at the same time therefore share one heap entry, a
*convoy*, processed in order; a blocked warp joins the convoy queued at
its time while no other entry has been pushed at that time since.
That keeps the one-warp-per-pop order exactly.  A convoy member whose
resource selector (SM, pipe, shared-operand collector) equals that of a
check that failed at the same time, with no issue since, reads the
same state; it is re-queued with that check's result without
evaluating it again.

Several jobs with the same ``resident_per_sm`` can run as one *group*
(:meth:`ClusterSimulator.run_group`).  A simulation is a pure function
of its queues (jitter is keyed by launch-order warp ids), so jobs whose
SMs queue the same :data:`BlockWork` objects stay in identical states
up to the first queue pop where they launch different blocks, or one
launches a block and another none.  There the state is copied once per
partition of the jobs by what they pop -- event streams are shared,
never copied -- and each partition continues alone.  Every job gets
exactly the result an independent run returns.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass

from repro.arch.specs import GpuSpec, GTX285
from repro.errors import HardwareModelError
from repro.hw.config import HwConfig, cluster_bytes_per_cycle, issue_intervals
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

#: Events per warp stream: jitter keys hold the event index in 20 bits.
MAX_EVENTS = 1 << 20


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
    which is what makes signature memoization, prefix sharing and the
    parallel fan-out bit-identical to serial replay.
    """
    return ClusterSimulator(spec, config, use_cache).run(
        sm_queues, resident_per_sm
    )


class _Fork(Exception):
    """A queue pop on which the jobs sharing a simulation disagree."""


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
        "jitter",
    )

    def __init__(self, stream, block, sm: int, gwid: int) -> None:
        self.stream = stream
        self.idx = 0
        # Completion time of each issued event, as C doubles: four times
        # smaller than a list of floats, and values round-trip exactly.
        self.completions = array("d")
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
        # deterministic_jitter's first hash step for key (gwid << 20) ^
        # idx is (key * 2654435761 + 0x9E3779B9) mod 2**32.  Below
        # MAX_EVENTS the key is (gwid << 20) + idx, so the step is
        # (jitter + idx * 2654435761) mod 2**32.
        self.jitter = ((gwid << 20) * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF

    def copy(self, block: "_Block") -> "_Warp":
        new = _Warp(self.stream, block, self.sm, self.gwid)
        new.idx = self.idx
        new.completions = self.completions[:]
        new.maxcomp = self.maxcomp
        new.waiting = self.waiting
        new.last_arith = self.last_arith
        new.last_shared = self.last_shared
        new.sel = self.sel
        return new


class _Block:
    __slots__ = ("warps", "alive", "arrivals", "sm")

    def __init__(self, sm: int) -> None:
        self.warps: list[_Warp] = []
        self.alive = 0
        self.arrivals: list[float] = []
        self.sm = sm

    def copy(self, warp_copies: dict[int, _Warp]) -> None:
        """Copy the block with its warps, recording each warp's copy."""
        new = _Block(self.sm)
        new.alive = self.alive
        new.arrivals = self.arrivals.copy()
        for warp in self.warps:
            clone = warp.copy(new)
            warp_copies[id(warp)] = clone
            new.warps.append(clone)


class _Sm:
    __slots__ = (
        "issue_free",
        "pipe_free",
        "shared_free",
        "queue",
        "next",
        "limit",
        "forks",
        "resident",
    )

    def __init__(self) -> None:
        self.issue_free = 0.0
        self.pipe_free = [0.0, 0.0, 0.0, 0.0]
        self.shared_free = 0.0
        # The next block to launch is queue[next].  Below ``limit``
        # every job sharing the simulation queues the same block;
        # ``forks`` says the jobs disagree at ``limit``.
        self.queue: list[BlockWork] = []
        self.next = 0
        self.limit = 0
        self.forks = False
        self.resident = 0

    def copy(self) -> "_Sm":
        """Copy the timing state; the queue is assigned per partition."""
        new = _Sm()
        new.issue_free = self.issue_free
        new.pipe_free = self.pipe_free.copy()
        new.shared_free = self.shared_free
        new.next = self.next
        new.resident = self.resident
        return new


class _State:
    """A cluster simulation between two iterations of the event loop.

    Holds everything the loop carries from one iteration to the next,
    so a group's simulation can stop at a divergent queue pop and
    continue as several copies.
    """

    __slots__ = (
        "sms",
        "cache",
        "heap",
        "marks",
        "seq",
        "gwid",
        "dram_free",
        "dram_busy",
        "end_time",
        "events",
        "t",
        "ts",
        "convoy",
        "convoy_pos",
        "conv",
        "conv_t",
        "conv_seq",
        "fail_sel",
        "fail_key",
        "fail_t",
        "filled",
        "pending",
        "base",
    )

    #: Plain values :meth:`copy` takes over unchanged.
    SCALARS = (
        "seq",
        "gwid",
        "dram_free",
        "dram_busy",
        "end_time",
        "events",
        "t",
        "ts",
        "convoy_pos",
        "conv_t",
        "conv_seq",
        "fail_sel",
        "fail_key",
        "fail_t",
        "filled",
        "pending",
    )

    def __init__(self, sms: list[_Sm], cache: TextureCache | None) -> None:
        self.sms = sms
        self.cache = cache
        # Entries are (time, seq, item): item is a warp, a convoy -- a
        # list of warps blocked on resources, processed in order -- or
        # (warp, ready time), a warp's two-step re-push moment.
        self.heap: list[tuple] = []
        # Marks by heap time: a warp pushed at its ready time, as
        # (re-push moment's time, seq, warp), or a convoy that blocked
        # warps may still join.  Every mark refers to a queued entry.
        self.marks: dict[float, tuple | list[_Warp]] = {}
        self.seq = 0
        self.gwid = 0
        self.dram_free = 0.0
        self.dram_busy = 0.0
        self.end_time = 0.0
        self.events = 0
        # Key of the heap entry being processed.
        self.t = 0.0
        self.ts = -1
        # The convoy being processed and the position of its next member.
        self.convoy: list[_Warp] | None = None
        self.convoy_pos = 0
        # The newest convoy joined or queued, which is still open while
        # no push has happened since (seq == conv_seq).
        self.conv: list[_Warp] = []
        self.conv_t = 0.0
        self.conv_seq = -1
        # The last resource check that failed with no issue since: its
        # selector, issue time and the time it was made at.
        self.fail_sel = -1
        self.fail_key = 0.0
        self.fail_t = 0.0
        # Whether every SM has received its initial blocks.
        self.filled = False
        # (sm, time) of the divergent queue pop the loop stopped at.
        self.pending: tuple[int, float] | None = None
        # Events already processed when this copy was taken.
        self.base = 0

    def copy(self) -> "_State":
        """An independent copy sharing only the event streams.

        Only live warps are reachable: those queued in the heap and the
        rest of the convoy in progress, plus their blocks' other warps.
        Warps are copied block by block and convoys once each, so
        aliasing between the heap, the marks, the convoy in progress
        and the newest convoy is kept.  A newest convoy that is neither
        queued nor in progress is replaced by an empty list: a warp
        joining it is dropped either way.
        """
        warps: dict[int, _Warp] = {}
        convoys: dict[int, list[_Warp]] = {}

        def warp(old: _Warp) -> _Warp:
            if id(old) not in warps:
                old.block.copy(warps)
            return warps[id(old)]

        def convoy(old: list[_Warp], start: int = 0) -> list[_Warp]:
            new = convoys.get(id(old))
            if new is None:
                new = convoys[id(old)] = [warp(w) for w in old[start:]]
            return new

        def item(old):
            if old.__class__ is list:
                return convoy(old)
            if old.__class__ is tuple:
                return (warp(old[0]), old[1])
            return warp(old)

        new = _State(
            [sm.copy() for sm in self.sms],
            self.cache.copy() if self.cache is not None else None,
        )
        for name in self.SCALARS:
            setattr(new, name, getattr(self, name))
        new.heap = [(t, seq, item(old)) for t, seq, old in self.heap]
        new.marks = {
            at: convoy(mark)
            if mark.__class__ is list
            else (mark[0], mark[1], warp(mark[2]))
            for at, mark in self.marks.items()
        }
        if self.convoy is not None:
            new.convoy = convoy(self.convoy, self.convoy_pos)
            new.convoy_pos = 0
        new.conv = convoys.get(id(self.conv), [])
        new.base = self.events
        return new


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
        return self.run_group([sm_queues], resident_per_sm)[0][0]

    def run_group(
        self,
        jobs: list[list[list[BlockWork]]],
        resident_per_sm: int,
    ) -> tuple[list[ClusterResult], int, int]:
        """Run several jobs' queues, simulating their common prefix once.

        ``jobs`` are ``sm_queues`` arguments of :meth:`run`; blocks are
        compared by identity.  Returns each job's result in job order,
        equal to what :meth:`run` returns for it, then the number of
        state copies taken and the number of events simulated.
        """
        for sm_queues in jobs:
            if len(sm_queues) > self.num_sms:
                raise HardwareModelError(
                    f"cluster has {self.num_sms} SMs, "
                    f"got {len(sm_queues)} queues"
                )
        if resident_per_sm < 1:
            raise HardwareModelError("resident_per_sm must be at least 1")

        cfg = self.config
        padded = [
            list(sm_queues) + [[]] * (self.num_sms - len(sm_queues))
            for sm_queues in jobs
        ]
        cache = (
            TextureCache(cfg.texcache_bytes, cfg.texcache_line, cfg.texcache_ways)
            if self.use_cache
            else None
        )
        root = _State([_Sm() for _ in range(self.num_sms)], cache)
        results: list[ClusterResult | None] = [None] * len(jobs)
        copies = 0
        simulated = 0
        todo = [(root, list(range(len(jobs))))]
        while todo:
            state, members = todo.pop()
            self._assign(state, [padded[j] for j in members])
            if not self._advance(state, resident_per_sm):
                sm_index = state.pending[0]
                k = state.sms[sm_index].next
                parts: dict[int | None, list[int]] = {}
                for j in members:
                    queue = padded[j][sm_index]
                    key = id(queue[k]) if k < len(queue) else None
                    parts.setdefault(key, []).append(j)
                first, *rest = parts.values()
                for part in rest:
                    todo.append((state.copy(), part))
                copies += len(rest)
                todo.append((state, first))
                continue

            for sm in state.sms:
                if sm.resident or sm.next < sm.limit or sm.forks:
                    raise HardwareModelError(
                        "cluster simulation ended with unfinished blocks "
                        "(barrier deadlock in the event streams?)"
                    )
            simulated += state.events - state.base
            cache = state.cache
            for j in members:
                results[j] = ClusterResult(
                    cycles=state.end_time,
                    events=state.events,
                    cache_hits=cache.hits if cache else 0,
                    cache_misses=cache.misses if cache else 0,
                    dram_busy_cycles=state.dram_busy,
                )
        return results, copies, simulated

    @staticmethod
    def _assign(state: _State, member_queues: list[list[list]]) -> None:
        """Point every SM at its queue, up to where the jobs disagree."""
        for sm_index, sm in enumerate(state.sms):
            queue = member_queues[0][sm_index]
            limit = len(queue)
            forks = False
            for sm_queues in member_queues[1:]:
                other = sm_queues[sm_index]
                common = 0
                bound = min(limit, len(other))
                while common < bound and other[common] is queue[common]:
                    common += 1
                if common < limit or common < len(other):
                    limit = common
                    forks = True
            sm.queue = queue
            sm.limit = limit
            sm.forks = forks

    def _advance(self, state: _State, resident_per_sm: int) -> bool:
        """Run the event loop from ``state`` and save it back there.

        Returns True once every queue drained, or False at a queue pop
        on which the jobs sharing ``state`` disagree; ``state.pending``
        then names the pop, which the next call performs first.  Every
        caller of that pop returns to the loop without changing state
        again (``launch_block``, ``warp_finished`` and the main loop
        call it last; ``_release_barrier`` finishes its block only at
        the last live warp, so none of the warps after it waits), so
        stopping there and resuming is exact.
        """
        cfg = self.config
        sms = state.sms
        cache = state.cache
        heap = state.heap
        marks = state.marks
        seq = state.seq
        gwid = state.gwid
        # Key of the heap entry being processed: the moment of the
        # pushes made now.
        t = state.t
        ts = state.ts

        def settle(at: float) -> None:
            """Clear the mark at time ``at`` before a push there.

            A convoy open at ``at`` closes: a warp joining it would pass
            the entry pushed now.  A warp deferred to ``at`` whose
            re-push moment has not passed would pass it too: its entry
            becomes its two-step re-push moment.
            """
            mark = marks.pop(at)
            if mark.__class__ is list:
                return
            vt, vs, warp = mark
            if (vt, vs) > (t, ts):
                for i, entry in enumerate(heap):
                    if entry[1] == vs:
                        heap[i] = (vt, vs, (warp, at))
                        break
                heapq.heapify(heap)

        def launch_block(sm_index: int, work: BlockWork, at: float) -> None:
            nonlocal seq, gwid
            block = _Block(sm_index)
            start = at + cfg.block_launch_overhead
            if start in marks:
                settle(start)
            for stream in work:
                if len(stream) > MAX_EVENTS:
                    raise HardwareModelError(
                        f"warp stream of {len(stream)} events; at most "
                        f"{MAX_EVENTS} fit the jitter key"
                    )
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

        def launch_next(sm_index: int, at: float) -> None:
            sm = sms[sm_index]
            k = sm.next
            if k < sm.limit:
                sm.next = k + 1
                launch_block(sm_index, sm.queue[k], at)
            elif sm.forks:
                raise _Fork(sm_index, at)

        def finish_block(block: _Block, at: float) -> None:
            # Break the block <-> warp cycle so the finished warps and
            # their completion lists are freed now, not by the cyclic GC.
            block.warps = None
            sms[block.sm].resident -= 1
            launch_next(block.sm, at)

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
            if release in marks:
                settle(release)
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
        # deterministic_jitter(key, amp) is (16-bit hash) / 65536 * amp,
        # or 0 for amp <= 0; dividing amp by a power of two is exact, so
        # hash * scale rounds to the same double.
        arith_scale = max(cfg.arith_jitter, 0.0) / 65536.0
        shared_scale = max(cfg.shared_jitter, 0.0) / 65536.0
        global_scale = max(cfg.global_jitter, 0.0) / 65536.0
        dram_rate = self.dram_rate
        heappush = heapq.heappush
        heappop = heapq.heappop
        warp_class = _Warp
        dram_free = state.dram_free
        dram_busy = state.dram_busy
        end_time = state.end_time
        events_processed = state.events
        # The convoy being processed, and the last resource check that
        # failed with no issue since.  Only an issue changes the SM
        # state such a check reads, so at the same t it fails again.
        convoy = None
        if state.convoy is not None:
            convoy = iter(state.convoy)
            convoy.__setstate__(state.convoy_pos)
        conv = state.conv
        conv_t = state.conv_t
        conv_seq = state.conv_seq
        fail_sel = state.fail_sel
        fail_key = state.fail_key
        fail_t = state.fail_t

        try:
            if state.pending is not None:
                sm_index, at = state.pending
                state.pending = None
                launch_next(sm_index, at)
            if not state.filled:
                for sm_index, sm in enumerate(sms):
                    while sm.resident < resident_per_sm and (
                        sm.next < sm.limit or sm.forks
                    ):
                        launch_next(sm_index, 0.0)
                state.filled = True

            while True:
                if convoy is not None:
                    warp = next(convoy, None)
                    if warp is None:
                        convoy = None
                        continue
                    if warp.sel == fail_sel:
                        # The member's check would fail again with the
                        # same key: re-queue it unchecked, and the run of
                        # members with its selector behind it.
                        if fail_key != conv_t or seq != conv_seq:
                            conv = marks.get(fail_key)
                            if conv.__class__ is not list:
                                if conv is not None:
                                    settle(fail_key)
                                marks[fail_key] = conv = []
                                heappush(heap, (fail_key, seq, conv))
                                seq += 1
                            conv_t = fail_key
                            conv_seq = seq
                        conv.append(warp)
                        for warp in convoy:
                            if warp.sel != fail_sel:
                                break
                            conv.append(warp)
                        else:
                            convoy = None
                            continue
                elif heap:
                    t, ts, warp = heappop(heap)
                    if t in marks:
                        # Nothing joins or passes an entry at t any more.
                        del marks[t]
                    if warp.__class__ is not warp_class:
                        if warp.__class__ is list:
                            convoy = iter(warp)
                            if fail_t != t:
                                fail_sel = -1
                            continue
                        # A warp's two-step re-push moment.
                        warp, ready = warp
                        if ready in marks:
                            settle(ready)
                        heappush(heap, (ready, seq, warp))
                        seq += 1
                        continue
                else:
                    break
                # Every push is at a time the warp is ready: see the
                # push after an issue below.
                idx = warp.idx
                stream = warp.stream
                event = stream[idx]
                kind = event[0]

                if kind == EV_BAR:
                    block = warp.block
                    arrival = max(t, warp.maxcomp)
                    warp.waiting = True
                    block.arrivals.append(arrival)
                    if len(block.arrivals) == block.alive:
                        _release_barrier(block)
                    continue

                sm = sms[warp.sm]
                issue = sm.issue_free
                if t > issue:
                    issue = t
                # The check's selector: pipe index << 1, plus 1 when the
                # shared-operand collector is involved.
                if kind == EV_ARITH or kind == EV_ARITH_SHARED:
                    type_index = event[2]
                    pipe_free = sm.pipe_free[type_index]
                    sel = type_index << 1
                    if kind == EV_ARITH_SHARED and event[3]:
                        # The operand collector cannot accept the shared
                        # operand while the shared pipe is backlogged.
                        if sm.shared_free > pipe_free:
                            pipe_free = sm.shared_free
                        sel |= 1
                else:
                    # Memory instructions generate addresses on the SPs,
                    # so they occupy the type II pipe like any other
                    # instruction.
                    pipe_free = sm.pipe_free[1]
                    sel = 2
                if pipe_free > issue:
                    issue = pipe_free
                if issue > t + slack:
                    sel |= warp.sm << 3
                    warp.sel = fail_sel = sel
                    fail_key = issue
                    fail_t = t
                    if issue == conv_t and seq == conv_seq:
                        conv.append(warp)
                        continue
                    conv = marks.get(issue)
                    if conv.__class__ is list:
                        conv.append(warp)
                    else:
                        if conv is not None:
                            settle(issue)
                        marks[issue] = conv = [warp]
                        heappush(heap, (issue, seq, conv))
                        seq += 1
                    conv_t = issue
                    conv_seq = seq
                    continue

                events_processed += 1
                fail_sel = -1
                sm.issue_free = issue + issue_gap
                next_gap = issue_gap
                completions = warp.completions

                if kind == EV_ARITH or kind == EV_ARITH_SHARED:
                    interval = intervals[type_index]
                    sm.pipe_free[type_index] = issue + interval
                    h = (warp.jitter + idx * 2654435761) & 0xFFFFFFFF
                    h = ((h ^ (h >> 16)) * 2246822519) & 0xFFFF
                    comp = (
                        issue + interval + latencies[type_index] + h * arith_scale
                    )
                    if kind == EV_ARITH_SHARED and event[3]:
                        ntrans = event[3]
                        # issue already waited for shared_free (see
                        # above), so the shared pipe starts serving at
                        # issue time.
                        sm.shared_free = issue + halfwarp_cycles * ntrans
                        comp += smem_operand_latency
                        # Conflicted accesses replay: the issuing warp
                        # stalls in order until the serialization drains.
                        extra = ntrans - min(ntrans, 2)
                        if extra:
                            stall = replay_stall * extra
                            if stall > next_gap:
                                next_gap = stall
                    warp.last_arith = comp
                    if kind == EV_ARITH_SHARED:
                        warp.last_shared = comp
                elif kind == EV_SHARED:
                    ntrans = event[2]
                    sm.pipe_free[1] = issue + intervals[1]
                    if ntrans:
                        start = (
                            issue if issue > sm.shared_free else sm.shared_free
                        )
                        sm.shared_free = start + halfwarp_cycles * ntrans
                        h = (warp.jitter + idx * 2654435761) & 0xFFFFFFFF
                        h = ((h ^ (h >> 16)) * 2246822519) & 0xFFFF
                        comp = sm.shared_free + shared_latency + h * shared_scale
                        extra = ntrans - min(ntrans, 2)
                        if extra:
                            stall = replay_stall * extra
                            if stall > next_gap:
                                next_gap = stall
                    else:
                        comp = issue + 1.0
                    warp.last_shared = comp
                elif kind == EV_GLOBAL_LD or kind == EV_GLOBAL_ST:
                    sm.pipe_free[1] = issue + intervals[1]
                    # Split (uncoalesced) requests replay like bank
                    # conflicts: the issuing warp stalls per extra
                    # transaction.
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
                        h = (warp.jitter + idx * 2654435761) & 0xFFFFFFFF
                        h = ((h ^ (h >> 16)) * 2246822519) & 0xFFFF
                        comp = dram_free + global_latency + h * global_scale
                    else:
                        comp = issue + 1.0
                    if hit_time > comp:
                        comp = hit_time
                    if kind == EV_GLOBAL_ST:
                        # Stores are fire-and-forget: the warp does not
                        # wait for DRAM, only bandwidth is consumed.
                        comp = issue + 1.0
                else:  # pragma: no cover - unknown kinds rejected upstream
                    raise HardwareModelError(f"unknown event kind {kind}")

                completions.append(comp)
                if comp > warp.maxcomp:
                    warp.maxcomp = comp
                if comp > end_time:
                    end_time = comp
                idx += 1
                warp.idx = idx
                if idx == len(stream):
                    warp_finished(warp)
                    continue

                # The two-step push: the warp is pushed at at = issue +
                # gap and, if its next event is not ready when that
                # entry is popped, again at its ready time.  The ready
                # time is known now: dependence, scoreboard window and
                # in-order bounds change only when the warp issues.
                at = issue + next_gap
                if at in marks:
                    settle(at)
                ready = at
                event = stream[idx]
                kind = event[0]
                dep = event[1]
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
                if ready <= at + 1e-9:
                    heappush(heap, (at, seq, warp))
                elif ready not in marks:
                    # Pushed at ready now, the warp takes its place
                    # among the entries at ready by seq, as if pushed
                    # at its re-push moment (at, seq), unless an entry
                    # lands on ready before that moment: settle() then
                    # restores the two-step push.
                    marks[ready] = (at, seq, warp)
                    heappush(heap, (ready, seq, warp))
                else:
                    # A warp already deferred to ready, or a convoy open
                    # there: keep the two-step push, whose re-push
                    # settles the order.
                    heappush(heap, (at, seq, (warp, ready)))
                seq += 1
            finished = True
        except _Fork as fork:
            state.pending = fork.args
            finished = False

        state.seq = seq
        state.gwid = gwid
        state.dram_free = dram_free
        state.dram_busy = dram_busy
        state.end_time = end_time
        state.events = events_processed
        state.t = t
        state.ts = ts
        state.conv = conv
        state.conv_t = conv_t
        state.conv_seq = conv_seq
        state.fail_sel = fail_sel
        state.fail_key = fail_key
        state.fail_t = fail_t
        state.convoy = None
        if convoy is not None:
            # A list iterator reduces to (iter, (list,), position).
            reduced = convoy.__reduce__()
            state.convoy = reduced[1][0]
            state.convoy_pos = reduced[2] if len(reduced) > 2 else 0
        return finished
