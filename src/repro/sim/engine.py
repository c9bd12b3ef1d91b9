"""Deduplicating, parallel, memoizing simulation engine.

Whole-grid functional simulation in Python is the pipeline's bottleneck:
the analytical model answers in microseconds what a serial
:meth:`FunctionalSimulator.run` over thousands of blocks takes minutes
to produce.  The kernels the paper studies are *homogeneous* -- most
blocks execute the same instruction sequence with the same transaction
pattern -- so the engine exploits that structure instead of brute force:

1. **Deduplication.**  A one-pass taint analysis over the static kernel
   (:func:`analyze_dependence`) determines how block coordinates and
   memory contents can influence control flow and addressing.  Blocks
   are partitioned into equivalence classes accordingly: one class for
   fully block-uniform kernels, boundary-role classes (first/interior/
   last per grid dimension) when ``ctaid`` reaches a guard, and
   singleton classes when traces are data-dependent.  One representative
   per class is simulated and its :class:`BlockTrace` is replicated with
   the exact class multiplicity (:func:`aggregate_weighted` -- no
   representative-sample extrapolation).
2. **Verification: the dedup proof.**  Taint analysis is
   conservative about what it *refuses* to dedup, but it cannot show
   that block-dependent global addresses preserve coalescing.  Every
   class's representative is interpreted once; for a multi-member class
   the interpreter also records the class's affine evidence while it
   runs (:mod:`repro.analysis.affine`), and the soundness proof
   (:mod:`repro.analysis.dedup_proof`) checks that evidence afterwards.
   A proved class replicates its representative's trace.  A class the
   proof refuses is split into one class per member, and its remaining
   members are interpreted in a second batch, so the aggregate stays
   exact.
3. **Parallel fan-out.**  Blocks that do need simulating are distributed
   over a ``multiprocessing`` pool (``workers`` > 1).  Each worker gets
   the pre-launch global-memory arena through the pool initializer
   (fork inherits it, spawn pickles it).  Workers only
   produce statistics; global-memory *writes* stay in the worker, so the
   engine is a statistics pipeline -- numerical validation should use
   :class:`FunctionalSimulator` directly.
4. **Memoization.**  Aggregated :class:`KernelTrace` results can be
   cached on disk keyed by (kernel fingerprint, launch, spec, global
   memory digest), so CLIs and benchmark harnesses replay instantly.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import time
import warnings
from dataclasses import dataclass, replace

from repro.arch.specs import GpuSpec, GTX285
from repro.errors import LaunchError
from repro.isa.instructions import MemRef, Pred, Reg, Special
from repro.isa.opcodes import OpKind
from repro.isa.program import Kernel
from repro.pool import HealthRecord, PoolHealth, map_tasks
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.util import VersionedPickleCache, source_digest, spec_fingerprint
from repro.sim.trace import (
    BlockTrace,
    KernelTrace,
    aggregate_blocks,
    aggregate_weighted,
    intern_stage_strings,
)

#: Taint bits.
TAINT_BLOCK = 1  # value depends on the block coordinates (ctaid)
TAINT_DATA = 2  # value depends on global-memory contents

_BLOCK_SPECIALS = ("ctaid_x", "ctaid_y")


# ----------------------------------------------------------------------
# static dependence (taint) analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelDependence:
    """How block coordinates and data can influence a block's trace."""

    control: int  # taint of any guard / branch predicate
    shared_addr: int  # taint of any shared-memory address
    global_addr: int  # taint of any global-memory address

    @property
    def data_dependent(self) -> bool:
        """Traces can differ with memory contents: no cross-block dedup."""
        return bool(
            (self.control | self.shared_addr | self.global_addr) & TAINT_DATA
        )

    @property
    def block_in_control(self) -> bool:
        return bool((self.control | self.shared_addr) & TAINT_BLOCK)


class _TaintState:
    """Abstract machine state at one program point."""

    __slots__ = ("regs", "preds", "smem")

    def __init__(self, num_regs: int, num_preds: int) -> None:
        self.regs = [0] * max(num_regs, 1)
        self.preds = [0] * max(num_preds, 1)
        self.smem = 0

    def copy(self) -> "_TaintState":
        out = _TaintState.__new__(_TaintState)
        out.regs = list(self.regs)
        out.preds = list(self.preds)
        out.smem = self.smem
        return out

    def join(self, other: "_TaintState") -> bool:
        """Merge ``other`` in; returns True when anything widened."""
        changed = False
        for i, taint in enumerate(other.regs):
            if self.regs[i] | taint != self.regs[i]:
                self.regs[i] |= taint
                changed = True
        for i, taint in enumerate(other.preds):
            if self.preds[i] | taint != self.preds[i]:
                self.preds[i] |= taint
                changed = True
        if self.smem | other.smem != self.smem:
            self.smem |= other.smem
            changed = True
        return changed

    def operand(self, operand) -> int:
        if isinstance(operand, Reg):
            return self.regs[operand.index]
        if isinstance(operand, Pred):
            return self.preds[operand.index]
        if isinstance(operand, Special):
            return TAINT_BLOCK if operand.name in _BLOCK_SPECIALS else 0
        if isinstance(operand, MemRef):
            # Shared-memory operand of an arithmetic instruction: its
            # value is whatever any store put there.
            base = self.regs[operand.base.index] if operand.base else 0
            return self.smem | base
        return 0  # Imm


def analyze_dependence(kernel: Kernel) -> KernelDependence:
    """Flow-sensitive taint analysis over the kernel's CFG.

    A worklist abstract interpretation propagates, per program point,
    which registers/predicates depend on the block coordinates
    (``ctaid_*``) or on global-memory contents.  ``tid``, ``ntid``,
    ``nctaid_*`` and launch parameters are launch-uniform and carry no
    taint.  Flow-sensitivity matters: hand-scheduled kernels reuse dead
    staging registers (e.g. matmul's prologue scratch later holds loaded
    data), and a flow-insensitive analysis would smear that data taint
    onto the address arithmetic computed before the reuse.

    Guarded writes are weak updates (inactive lanes keep the old value);
    branches conservatively fall through as well as jump, which merges a
    superset of the genuinely reachable states.
    """
    instructions = kernel.instructions
    n = len(instructions)
    control = shared_addr = global_addr = 0

    states: list[_TaintState | None] = [None] * n
    states[0] = _TaintState(kernel.num_registers, kernel.num_predicates)
    worklist = [0]
    while worklist:
        index = worklist.pop()
        state = states[index].copy()
        instr = instructions[index]
        kind = instr.opcode.kind

        guard_taint = (
            state.preds[instr.guard[0].index] if instr.guard else 0
        )
        # A guard shapes the active mask, hence the recorded statistics,
        # even on non-branch instructions.
        control |= guard_taint
        src_taint = guard_taint
        for src in instr.srcs:
            src_taint |= state.operand(src)
            if isinstance(src, MemRef) and src.space == "shared" and src.base:
                shared_addr |= state.regs[src.base.index]

        successors = []
        if kind == OpKind.BRANCH:
            control |= src_taint
            successors.append(kernel.labels[instr.target])
            if index + 1 < n:
                successors.append(index + 1)
        elif kind == OpKind.EXIT:
            # Divergent warps continue past a lane-partial exit.
            if index + 1 < n:
                successors.append(index + 1)
        else:
            if kind == OpKind.SETP:
                old = state.preds[instr.dst.index] if instr.guard else 0
                state.preds[instr.dst.index] = old | src_taint
            elif kind == OpKind.LOAD_GLOBAL:
                ref = instr.srcs[0]
                base = state.regs[ref.base.index] if ref.base else 0
                global_addr |= base | guard_taint
                old = state.regs[instr.dst.index] if instr.guard else 0
                state.regs[instr.dst.index] = old | TAINT_DATA | guard_taint
            elif kind == OpKind.STORE_GLOBAL:
                base = (
                    state.regs[instr.dst.base.index] if instr.dst.base else 0
                )
                global_addr |= base | guard_taint
            elif kind == OpKind.LOAD_SHARED:
                ref = instr.srcs[0]
                base = state.regs[ref.base.index] if ref.base else 0
                shared_addr |= base | guard_taint
                old = state.regs[instr.dst.index] if instr.guard else 0
                state.regs[instr.dst.index] = old | state.smem | guard_taint
            elif kind == OpKind.STORE_SHARED:
                base = (
                    state.regs[instr.dst.base.index] if instr.dst.base else 0
                )
                shared_addr |= base | guard_taint
                state.smem |= src_taint
            elif isinstance(instr.dst, Reg):
                old = state.regs[instr.dst.index] if instr.guard else 0
                state.regs[instr.dst.index] = old | src_taint
            if index + 1 < n:
                successors.append(index + 1)

        for successor in successors:
            if states[successor] is None:
                states[successor] = state.copy()
                worklist.append(successor)
            elif states[successor].join(state):
                worklist.append(successor)

    return KernelDependence(
        control=control, shared_addr=shared_addr, global_addr=global_addr
    )


# ----------------------------------------------------------------------
# block partitioning
# ----------------------------------------------------------------------
@dataclass
class BlockClass:
    """A set of blocks believed to produce identical traces."""

    members: list[tuple[int, int]]

    def __post_init__(self) -> None:
        # Canonical member order: the representative must not depend on
        # grid iteration order, and the dedup proof anchors at the
        # minimum ctaid.
        self.members = sorted(self.members)

    @property
    def representative(self) -> tuple[int, int]:
        return self.members[0]


def _role(index: int, extent: int) -> int:
    """Boundary role of a block index: first, interior, or last."""
    if index == 0:
        return 0
    if index == extent - 1:
        return 2
    return 1


def partition_blocks(
    launch: LaunchConfig, dependence: KernelDependence
) -> list[BlockClass]:
    """Partition the grid into candidate equivalence classes."""
    blocks = launch.all_blocks()
    if dependence.data_dependent:
        return [BlockClass([block]) for block in blocks]
    if dependence.block_in_control:
        gx, gy = launch.grid
        by_role: dict[tuple[int, int], list[tuple[int, int]]] = {}
        for bx, by in blocks:
            by_role.setdefault((_role(bx, gx), _role(by, gy)), []).append(
                (bx, by)
            )
        return [BlockClass(members) for members in by_role.values()]
    # Block coordinates reach at most global addresses (uniform base
    # shifts); the whole grid is one candidate class for the proof.
    return [BlockClass(blocks)]


# ----------------------------------------------------------------------
# engine statistics
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineStats:
    """What the engine did for one launch (rendered in reports).

    ``replicated_blocks``/``block_classes`` only mean something in
    ``dedup`` mode (exact replication); in ``sample`` mode the trace is
    a scaled extrapolation and both are zero.
    """

    total_blocks: int
    simulated_blocks: int
    replicated_blocks: int
    block_classes: int
    workers: int
    cache_hit: bool
    wall_seconds: float
    mode: str  # 'dedup' | 'full' | 'sample'
    #: Multi-member classes whose equivalence the static proof
    #: certified, so only their representative was simulated.
    proved_classes: int = 0
    #: Always 0: every dedup class's representative is interpreted.
    #: Kept because benchmark tooling reads ``synthesized_classes``
    #: from the CLI's ``--json`` engine payload.
    synthesized_classes: int = 0
    #: Dedup classes whose representative trace was interpreted (all
    #: of ``block_classes``).
    interpreted_classes: int = 0
    #: Degradation record for this run: pool retries/timeouts/serial
    #: fallbacks, cache quarantines, analysis fallbacks.
    #: All-zero on a healthy run.
    health: HealthRecord = HealthRecord()

    def summary(self) -> str:
        cache = "cache hit" if self.cache_hit else "cache miss"
        if self.mode == "dedup":
            detail = (
                f"{self.replicated_blocks} replicated, "
                f"{self.block_classes} classes"
            )
            if self.proved_classes:
                detail += f" ({self.proved_classes} proved)"
            detail += ", dedup"
        elif self.mode == "sample":
            detail = "representative sample, scaled"
        else:
            detail = "full grid"
        return (
            f"{self.simulated_blocks}/{self.total_blocks} blocks simulated "
            f"({detail}, {cache}, {self.wall_seconds * 1e3:.1f} ms)"
        )


# ----------------------------------------------------------------------
# fingerprints and the on-disk cache
# ----------------------------------------------------------------------
def kernel_fingerprint(kernel: Kernel) -> str:
    """Stable content hash of a kernel's code and static resources."""
    h = hashlib.sha256()
    h.update(kernel.name.encode())
    for instr in kernel.instructions:
        h.update(repr(instr).encode())
    h.update(repr(sorted(kernel.labels.items())).encode())
    h.update(repr(kernel.params).encode())
    h.update(repr(sorted(kernel.param_regs.items())).encode())
    h.update(
        f"{kernel.num_registers}:{kernel.num_predicates}:"
        f"{kernel.shared_memory_words}".encode()
    )
    return h.hexdigest()


def _launch_key(launch: LaunchConfig) -> tuple:
    return (
        launch.grid,
        launch.block_threads,
        tuple(sorted(launch.params.items())),
        launch.granularities,
        launch.record_segments,
    )


class TraceCache(VersionedPickleCache):
    """Pickled :class:`KernelTrace` results keyed by content hashes.

    Shared mechanics (fail-open loads, mtime-refreshing LRU, atomic
    stores under the ``$REPRO_CACHE_MAX_BYTES`` budget) live in
    :class:`repro.util.VersionedPickleCache`.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, ".trace.pkl")

    def load(self, key: str) -> KernelTrace | None:
        trace = self.load_payload(key)
        return trace if isinstance(trace, KernelTrace) else None

    def store(self, key: str, trace: KernelTrace) -> None:
        self.store_payload(key, trace)


# ----------------------------------------------------------------------
# cross-block read-after-write detection
# ----------------------------------------------------------------------
def find_cross_block_raw(
    traces: list[BlockTrace],
) -> list[tuple[tuple, tuple, tuple, tuple]]:
    """Store/load range-overlap check across simulated blocks.

    Returns ``(loading block, load range, storing block, store range)``
    tuples, at most one per block whose global-load footprint overlaps
    another block's global-store footprint.  Blocks of one launch
    cannot synchronize, so such a kernel has no defined result in the
    CUDA model and its recorded statistics are schedule-dependent (see
    DESIGN.md "Parallelism knobs").  Footprints are per-allocation
    hulls: a reported overlap may be a false positive *within* one
    allocation (a block striding past another's slice), but disjoint
    hulls are a sound proof of independence, and separate allocations
    never conflict.
    """
    stores = sorted(
        (lo, hi, trace.block)
        for trace in traces
        for lo, hi in trace.global_store_ranges
    )
    if not stores:
        return []
    store_lows = [lo for lo, _, _ in stores]
    # Prefix "top two store ends from distinct blocks": enough to find,
    # for any load, an overlapping store from a *different* block
    # (second always tracks the best hull owned by another block than
    # best's, even with several hulls per block).
    best: tuple[int, tuple | None] = (-1, None)  # (hi, (lo, hi, block))
    second: tuple[int, tuple | None] = (-1, None)  # best of other blocks
    prefix = []
    for lo, hi, block in stores:
        if best[1] is None or hi > best[0]:
            if best[1] is not None and best[1][2] != block and best[0] > second[0]:
                second = best
            best = (hi, (lo, hi, block))
        elif block != best[1][2] and hi > second[0]:
            second = (hi, (lo, hi, block))
        prefix.append((best, second))

    conflicts = []
    for trace in traces:
        for lo, hi in trace.global_load_ranges:
            index = bisect.bisect_left(store_lows, hi)  # stores with lo < hi
            if not index:
                continue
            top, other = prefix[index - 1]
            overlap = None
            if top[1] is not None and top[1][2] != trace.block and top[0] > lo:
                overlap = top[1]
            elif other[1] is not None and other[0] > lo:
                overlap = other[1]
            if overlap is not None:
                conflicts.append(
                    (
                        trace.block,
                        (lo, hi),
                        overlap[2],
                        (overlap[0], overlap[1]),
                    )
                )
                break  # one report per loading block is enough
    return conflicts


# ----------------------------------------------------------------------
# multiprocessing plumbing
# ----------------------------------------------------------------------
_WORKER_STATE: tuple[FunctionalSimulator, LaunchConfig] | None = None


def _init_worker(
    kernel, gmem, spec, max_warp_instructions, launch, grid_batch_blocks
) -> None:
    global _WORKER_STATE
    simulator = FunctionalSimulator(
        kernel,
        gmem=gmem,
        spec=spec,
        max_warp_instructions=max_warp_instructions,
        grid_batch_blocks=grid_batch_blocks,
    )
    _WORKER_STATE = (simulator, launch)


def _run_chunk_task(task: tuple[list, dict]) -> tuple[list[BlockTrace], dict]:
    """Simulate one chunk; its class evidence returns with its traces."""
    simulator, launch = _WORKER_STATE
    chunk, evidence = task
    return simulator.run_blocks(launch, chunk, evidence), evidence


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class SimulationEngine:
    """Fast functional-simulation frontend for the analysis pipeline.

    Parameters
    ----------
    kernel, gmem, spec, max_warp_instructions:
        Forwarded to the underlying :class:`FunctionalSimulator`.
    workers:
        Process-pool width for fanning out unique blocks.  ``0`` or
        ``1`` simulates in-process (and is the only mode whose global
        memory writes are observable to the caller).
    cache_dir:
        Directory for the on-disk :class:`KernelTrace` memo cache;
        ``None`` disables memoization.
    grid_batch_blocks:
        Blocks per interpreter slab (and per worker chunk), passed to
        the :class:`FunctionalSimulator` kwarg of the same name -- the
        only way to set the width explicitly.  ``None`` defers to
        :func:`repro.tune.resolve` per launch:
        ``$REPRO_TUNE_GRID_BATCH_BLOCKS``, then the machine's persisted
        tuning profile keyed by the launch's warps-per-block, then the
        built-in default.
    task_timeout:
        Per-task watchdog budget (seconds) for pooled simulation tasks;
        a hung worker is killed after this long and its task re-executed
        serially.  ``None`` defers to ``$REPRO_POOL_TIMEOUT`` (unset
        disables the watchdog).
    faults:
        Optional fault-injection plan (:class:`repro.faults.FaultPlan`
        or a ``$REPRO_FAULTS``-style string) activated for the duration
        of each :meth:`run` -- chaos testing without mutating global
        state permanently.
    """

    def __init__(
        self,
        kernel: Kernel,
        gmem: GlobalMemory | None = None,
        spec: GpuSpec = GTX285,
        workers: int = 0,
        cache_dir: str | os.PathLike | None = None,
        max_warp_instructions: int = 50_000_000,
        grid_batch_blocks: int | None = None,
        task_timeout: float | None = None,
        faults=None,
    ) -> None:
        self.kernel = kernel
        self.gmem = gmem if gmem is not None else GlobalMemory()
        self.spec = spec
        self.workers = max(0, int(workers))
        self.max_warp_instructions = max_warp_instructions
        self.simulator = FunctionalSimulator(
            kernel,
            gmem=self.gmem,
            spec=spec,
            max_warp_instructions=max_warp_instructions,
            grid_batch_blocks=grid_batch_blocks,
        )
        self.dependence = analyze_dependence(kernel)
        self.cache = TraceCache(cache_dir) if cache_dir is not None else None
        self.task_timeout = task_timeout
        from repro.faults import parse_plan

        self.faults_plan = parse_plan(faults) if isinstance(faults, str) else faults
        # Per-run degradation accumulators, reset at the top of run().
        self._pool_health = PoolHealth()
        self._proof_fallbacks = 0

    # ------------------------------------------------------------------
    def run(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None = None,
        dedup: bool = True,
    ) -> KernelTrace:
        """Drop-in replacement for :meth:`FunctionalSimulator.run`.

        ``blocks=None`` covers the full grid -- deduplicated and exact
        unless ``dedup=False`` forces one simulation per block.  A
        ``blocks`` sample reproduces the representative methodology
        (per-stage scaling, ``exact=False`` unless the sample is the
        grid).
        """
        from contextlib import nullcontext

        from repro import faults as faults_mod
        from repro import obs

        context = (
            faults_mod.injected(self.faults_plan)
            if self.faults_plan is not None
            else nullcontext()
        )
        with context:
            with obs.span(
                "engine.run",
                kernel=self.kernel.name,
                spec=getattr(self.spec, "name", None),
                workers=self.workers,
                dedup=dedup,
            ):
                trace = self._run(launch, blocks, dedup)
            self._absorb_stats(trace.engine_stats)
            return trace

    def _absorb_stats(self, stats) -> None:
        """Fold this run's EngineStats into the obs metric registry.

        Spans and metrics travel out-of-band: nothing here touches the
        trace payload, so instrumented runs stay byte-identical.
        """
        from repro import obs
        from repro.obs import metrics

        if not obs.enabled() or not isinstance(stats, EngineStats):
            return
        metrics.inc("engine.runs")
        metrics.inc("engine.blocks.total", stats.total_blocks)
        metrics.inc("engine.blocks.simulated", stats.simulated_blocks)
        metrics.inc("engine.blocks.replicated", stats.replicated_blocks)
        metrics.inc("engine.classes.proved", stats.proved_classes)
        metrics.inc(
            "engine.classes.interpreted", stats.interpreted_classes
        )
        metrics.observe("engine.wall_seconds", stats.wall_seconds)
        metrics.absorb_health("engine", stats.health)

    def _run(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None,
        dedup: bool,
    ) -> KernelTrace:
        started = time.perf_counter()
        self._pool_health = PoolHealth()
        self._proof_fallbacks = 0
        cache_quarantines = self.cache.quarantines if self.cache else 0
        cache_write_errors = self.cache.write_errors if self.cache else 0
        if blocks is not None:
            blocks = list(blocks)
            if not blocks:
                raise LaunchError("no blocks selected")
        key = self._cache_key(launch, blocks, dedup) if self.cache else None
        if key is not None:
            cached = self.cache.load(key)
            if cached is not None:
                stats = cached.engine_stats
                if isinstance(stats, EngineStats):
                    # Health describes *this* run, not the run that
                    # populated the cache: a hit simulated nothing, so
                    # nothing can have degraded.
                    stats = replace(
                        stats,
                        cache_hit=True,
                        wall_seconds=time.perf_counter() - started,
                        health=HealthRecord(),
                    )
                cached.engine_stats = stats
                # Cached block traces carry their footprints: warm runs
                # of a schedule-dependent kernel must warn too.
                self._warn_cross_block_raw(cached.block_traces)
                return cached

        if blocks is not None:
            trace, stats = self._run_sample(launch, list(blocks), started)
        elif not dedup:
            trace, stats = self._run_full(launch, started)
        else:
            trace, stats = self._run_dedup(launch, started)
        trace.engine_stats = stats

        if key is not None:
            self.cache.store(key, trace)
        # Attached after the store so a failed store itself shows up;
        # the cached copy's health is replaced on every hit anyway.
        trace.engine_stats = replace(
            stats,
            health=self._pool_health.record(
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
                proof_fallbacks=self._proof_fallbacks,
            ),
        )
        return trace

    # ------------------------------------------------------------------
    def _stats(
        self,
        launch: LaunchConfig,
        simulated: int,
        classes: int,
        mode: str,
        started: float,
        proved: int = 0,
    ) -> EngineStats:
        total = launch.num_blocks
        dedup = mode == "dedup"
        return EngineStats(
            total_blocks=total,
            simulated_blocks=simulated,
            replicated_blocks=(
                max(total - simulated, 0) if dedup else 0
            ),
            block_classes=classes if dedup else 0,
            workers=self.workers,
            cache_hit=False,
            wall_seconds=time.perf_counter() - started,
            mode=mode,
            proved_classes=proved,
            interpreted_classes=classes if dedup else 0,
        )

    def _run_sample(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
        started: float,
    ) -> tuple[KernelTrace, EngineStats]:
        traces = self._simulate(launch, blocks)
        self._warn_cross_block_raw(traces)
        trace = aggregate_blocks(traces, scale_to_blocks=launch.num_blocks)
        stats = self._stats(launch, len(blocks), 0, "sample", started)
        return trace, stats

    def _run_full(
        self, launch: LaunchConfig, started: float
    ) -> tuple[KernelTrace, EngineStats]:
        blocks = launch.all_blocks()
        traces = self._simulate(launch, blocks)
        self._warn_cross_block_raw(traces)
        trace = aggregate_blocks(traces)
        stats = self._stats(launch, len(blocks), 0, "full", started)
        return trace, stats

    def _run_dedup(
        self, launch: LaunchConfig, started: float
    ) -> tuple[KernelTrace, EngineStats]:
        from repro import obs

        # Imported lazily: repro.analysis.checks imports this module for
        # the taint pass and the block partitioner.
        from repro.analysis import dedup_proof
        from repro.analysis.affine import ClassBox, ClassTrace

        # Phase 1: every representative in one (possibly parallel)
        # batch; a multi-member class's representative is its anchor and
        # records the class's evidence while it runs.
        candidates = partition_blocks(launch, self.dependence)
        boxes = {
            cls.representative: ClassBox.from_members(cls.members)
            for cls in candidates
            if len(cls.members) > 1
        }
        evidence = {
            block: ClassTrace(self.kernel.name, box)
            for block, box in boxes.items()
            if box is not None
        }
        representatives = [cls.representative for cls in candidates]
        simulated = dict(
            zip(
                representatives,
                self._simulate(launch, representatives, evidence),
            )
        )

        # Phase 2: the soundness proof over that evidence.  A proved
        # class is exact by translation invariance and keeps its single
        # representative; a refused class becomes one class per member,
        # and its remaining members are simulated.
        classes: list[BlockClass] = []
        proved = 0
        rest: list[tuple[int, int]] = []
        with obs.span("engine.proof", classes=len(candidates)):
            for cls in candidates:
                trace = evidence.get(cls.representative)
                if len(cls.members) < 2:
                    classes.append(cls)
                elif trace is not None and dedup_proof.prove_class_evidence(
                    trace, launch, self.gmem
                ).proved:
                    classes.append(cls)
                    proved += 1
                else:
                    classes.extend(BlockClass([b]) for b in cls.members)
                    rest.extend(cls.members[1:])
                    self._proof_fallbacks += 1
        if rest:
            simulated.update(zip(rest, self._simulate(launch, rest)))
        traces = [simulated[cls.representative] for cls in classes]
        # Data-dependent grids are all singleton classes, so every block
        # has a real trace here: check cross-block RAW.
        self._warn_cross_block_raw(traces)

        # Phase 3: exact aggregation with per-class multiplicities, and
        # a per-block trace table so the timing simulator sees the right
        # stream at every block index.
        with obs.span("engine.aggregate", classes=len(classes)):
            trace = aggregate_weighted(
                traces, [len(cls.members) for cls in classes]
            )
            if len(classes) == 1:
                # Homogeneous grid: a single representative lets the
                # timing simulator use its fast wave-extrapolation path.
                trace.block_traces = traces
            else:
                trace_for = {
                    member: rep_trace
                    for cls, rep_trace in zip(classes, traces)
                    for member in cls.members
                }
                trace.block_traces = [
                    trace_for[b] for b in launch.all_blocks()
                ]
        stats = self._stats(
            launch,
            len(traces),
            len(classes),
            "dedup",
            started,
            proved=proved,
        )
        return trace, stats

    # ------------------------------------------------------------------
    def _simulate(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
        evidence: dict | None = None,
    ) -> list[BlockTrace]:
        from repro import obs

        with obs.span(
            "engine.simulate", blocks=len(blocks), workers=self.workers
        ):
            return self._simulate_blocks(launch, blocks, evidence or {})

    def _simulate_blocks(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
        evidence: dict,
    ) -> list[BlockTrace]:
        """Simulate blocks, preserving order; parallel when configured.

        Blocks are fanned out in grid-batch-sized chunks so every
        worker (and the serial path) rides the multi-block batched
        interpreter for barrier-free kernels.  Pool policy (fork on
        Linux only, serial fallback, deterministic order) lives in
        :mod:`repro.pool`, shared with the hardware timing layer.
        ``evidence`` (block -> empty ``ClassTrace``) is filled in place;
        a pooled chunk's evidence comes back with its traces.
        """
        if self.workers <= 1 or len(blocks) <= 1:
            return self.simulator.run_blocks(launch, blocks, evidence)
        step = max(1, int(self.simulator.grid_batch_blocks_for(launch)))
        tasks = [
            (chunk, {b: evidence[b] for b in chunk if b in evidence})
            for chunk in (
                blocks[i : i + step] for i in range(0, len(blocks), step)
            )
        ]
        # Workers get the pre-launch arena through initargs: fork pools
        # inherit it copy-on-write, spawn pools pickle it once per
        # worker.  Either way each worker writes to a private copy.
        results = map_tasks(
            tasks,
            self.workers,
            serial_fn=lambda task: (
                self.simulator.run_blocks(launch, *task),
                task[1],
            ),
            worker_fn=_run_chunk_task,
            initializer=_init_worker,
            initargs=(
                self.kernel,
                self.gmem,
                self.spec,
                self.max_warp_instructions,
                launch,
                step,
            ),
            task_timeout=self.task_timeout,
            health=self._pool_health,
        )
        # Unpickled worker results carry per-chunk copies of strings the
        # in-process interpreter shares grid-wide; re-interning keeps a
        # pooled (or partially serial-recovered) run's aggregate
        # pickle-byte-identical to the serial reference.
        for _, chunk_evidence in results:
            evidence.update(chunk_evidence)
        return [
            intern_stage_strings(trace)
            for chunk_traces, _ in results
            for trace in chunk_traces
        ]

    def _warn_cross_block_raw(self, traces: list[BlockTrace]) -> None:
        """Warn when simulated blocks read ranges other blocks wrote.

        Only data-dependent kernels are checked: for them the loaded
        values can steer addresses or control flow, so cross-block
        visibility (serial row-major vs per-worker pre-launch copies)
        changes the *statistics*, not just the numerics.  Block-uniform
        kernels replicate one representative and are schedule-
        independent by construction.
        """
        if not self.dependence.data_dependent:
            return
        conflicts = find_cross_block_raw(traces)
        if not conflicts:
            return

        def describe(block, span):
            allocation = self.gmem.allocation_at(span[0])
            name = allocation.name if allocation else "?"
            return f"block {block} [{span[0]:#x}, {span[1]:#x}) in {name!r}"

        shown = "; ".join(
            f"{describe(loader, load_span)} overlaps stores of "
            f"{describe(storer, store_span)}"
            for loader, load_span, storer, store_span in conflicts[:3]
        )
        message = (
            f"kernel {self.kernel.name!r}: cross-block global "
            f"read-after-write detected ({len(conflicts)} overlapping "
            f"block(s)): {shown}. Blocks of one launch cannot "
            "synchronize, so these statistics are schedule-dependent "
            "(see DESIGN.md 'Parallelism knobs')."
        )
        # ``warnings.warn`` keeps owning the user-facing rendering (and
        # its once-per-location dedup); the structured record lands in
        # the event log every time, unfiltered.
        from repro.obs import log as obs_log

        obs_log.warning(
            message,
            render=False,
            kernel=self.kernel.name,
            conflicts=len(conflicts),
        )
        warnings.warn(message, RuntimeWarning, stacklevel=4)

    # ------------------------------------------------------------------
    def _cache_key(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None,
        dedup: bool,
    ) -> str:
        h = hashlib.sha256()
        h.update(f"engine-{source_digest()};".encode())
        h.update(kernel_fingerprint(self.kernel).encode())
        h.update(repr(_launch_key(launch)).encode())
        h.update(spec_fingerprint(self.spec).encode())
        h.update(self.gmem.digest().encode())
        h.update(repr(tuple(blocks) if blocks is not None else "full").encode())
        h.update(f"dedup={dedup}".encode())
        # The runaway-instruction guard must still fire on warm caches.
        h.update(f"limit={self.simulator.max_warp_instructions}".encode())
        # Pooled workers see pickled gmem copies, so cross-block write
        # visibility depends on the pool width (blocks sharing a worker
        # share its copy); never share entries across widths, and fold
        # the serial cases (workers 0 and 1 run identically in-process).
        h.update(f"workers={self.workers if self.workers > 1 else 0}".encode())
        # Slab width likewise shapes cross-block visibility for racy
        # kernels (blocks sharing a slab interleave lockstep).
        h.update(f"gbb={self.simulator.grid_batch_blocks_for(launch)};".encode())
        return h.hexdigest()
