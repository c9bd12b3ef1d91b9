"""SIMT functional simulator (the paper's Barra analogue).

Executes native kernels warp by warp with lockstep lanes, producing both
correct numerical results and the *dynamic* program statistics the
performance model consumes: warp-level instruction counts by type,
shared-memory transactions corrected for bank conflicts, and coalesced
global-memory transactions (paper Fig. 1's "info extractor" inputs).

Execution model:

* lanes of a warp advance under **min-PC reconvergence**: each step, the
  lanes at the smallest program counter execute together.  This supports
  uniform and divergent structured control flow (if/else, loops with
  per-lane trip counts) and reconverges as soon as PCs meet;
* warps of a block run one synchronization stage at a time; a ``bar``
  splits stages exactly as the paper divides programs by barriers;
* every executed warp-instruction appends a compact event (with its
  register-dependence distance) to the warp's stream so the hardware
  timing simulator can replay it.

Two interpreters implement that model:

* the **block-wide batched interpreter** (default): each step, all
  non-exited, non-barrier warps whose min-PC lands on the same
  instruction execute it *once* over the stacked ``(warps, 32)``
  register slab of a batch of blocks, with vectorized coalescing and
  bank analysis (:func:`repro.memory.coalescing.coalesce_warp_multi`,
  :func:`repro.memory.banks.warp_transactions_batch`).  Convergent
  kernels collapse to one NumPy dispatch per dynamic instruction;
  divergent warps simply form smaller PC-groups, so min-PC semantics
  are unchanged.  A single block is simply a one-block slab;
* the original **per-warp interpreter** (``batched=False``), kept as
  the reference oracle: differential tests assert the two produce
  bit-identical :class:`BlockTrace`\\ s.

Per-warp semantics are purely local, so batching is only a schedule
change: it is observable solely to kernels with *unsynchronized*
cross-warp memory traffic inside one stage (racy in the CUDA model;
barrier-synchronized communication behaves identically in both modes).
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from repro.arch.specs import WARP_SIZE, GpuSpec, GTX285
from repro.errors import (
    DivergenceError,
    LaunchError,
    MemoryAccessError,
    SimulationError,
)
from repro.isa.instructions import Imm, MemRef, Pred, Reg, Special
from repro.isa.opcodes import Opcode, OpKind
from repro.isa.program import Kernel
from repro.isa.validate import validate_kernel
from repro.memory.banks import (
    BankConfig,
    warp_transactions,
    warp_transactions_batch,
)
from repro.memory.coalescing import (
    TransactionConfig,
    coalesce_warp,
    coalesce_warp_multi,
)
from repro.sim.memory import GlobalMemory, SharedMemory
from repro.tune import resolve as tune_resolve
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
    BlockTrace,
    KernelTrace,
    StageStats,
    TYPE_INDEX,
    aggregate_blocks,
)

# Instructions that count as "actual computation" for the paper's
# computational-density metric.  Integer MADs are address bookkeeping.
_MAD_OPS = (Opcode.FMAD, Opcode.DFMA)


@dataclass(frozen=True)
class LaunchConfig:
    """One kernel launch: grid shape, block size, scalar parameters."""

    grid: tuple[int, int]
    block_threads: int
    params: dict[str, float] = field(default_factory=dict)
    granularities: tuple[int, ...] = (32,)
    record_segments: bool = False

    def __post_init__(self) -> None:
        gx, gy = self.grid
        if gx <= 0 or gy <= 0:
            raise LaunchError("grid dimensions must be positive")
        if self.block_threads <= 0:
            raise LaunchError("block must have at least one thread")
        if not self.granularities:
            raise LaunchError("at least one coalescing granularity is required")

    @property
    def num_blocks(self) -> int:
        return self.grid[0] * self.grid[1]

    @property
    def warps_per_block(self) -> int:
        return -(-self.block_threads // WARP_SIZE)

    def all_blocks(self) -> list[tuple[int, int]]:
        gx, gy = self.grid
        return [(x, y) for y in range(gy) for x in range(gx)]


class _Decoded:
    """Pre-decoded instruction: everything the hot loop needs."""

    __slots__ = (
        "opcode",
        "kind",
        "type_index",
        "guard",
        "target",
        "dst_reg",
        "dst_pred",
        "dst_mem",
        "srcs",
        "reads",
        "writes",
        "preds_read",
        "cmp",
        "is_mad",
        "mnemonic",
        "type_name",
    )

    def __init__(self, instr, labels: dict[str, int]) -> None:
        self.opcode = instr.opcode
        self.kind = instr.opcode.kind
        self.type_name = instr.opcode.instr_type
        self.type_index = TYPE_INDEX[self.type_name]
        self.mnemonic = instr.opcode.mnemonic
        self.guard = (
            (instr.guard[0].index, instr.guard[1]) if instr.guard else None
        )
        self.target = labels[instr.target] if instr.target else -1
        self.dst_reg = instr.dst.index if isinstance(instr.dst, Reg) else -1
        self.dst_pred = instr.dst.index if isinstance(instr.dst, Pred) else -1
        self.dst_mem = None
        if isinstance(instr.dst, MemRef):
            base = instr.dst.base.index if instr.dst.base else -1
            self.dst_mem = (instr.dst.space, base, instr.dst.offset)
        self.srcs = tuple(_decode_operand(s) for s in instr.srcs)
        self.reads = instr.registers_read()
        self.writes = instr.registers_written()
        self.preds_read = tuple(
            s.index for s in instr.srcs if isinstance(s, Pred)
        ) + ((instr.guard[0].index,) if instr.guard else ())
        self.cmp = instr.cmp
        self.is_mad = instr.opcode in _MAD_OPS


def _decode_operand(operand):
    if isinstance(operand, Reg):
        return ("reg", operand.index)
    if isinstance(operand, Imm):
        return ("imm", float(operand.value))
    if isinstance(operand, Special):
        return ("special", operand.name)
    if isinstance(operand, Pred):
        return ("pred", operand.index)
    if isinstance(operand, MemRef):
        base = operand.base.index if operand.base else -1
        return ("mem", base, operand.offset)
    raise SimulationError(f"cannot decode operand {operand!r}")


class _WarpState:
    """Mutable per-warp execution state."""

    __slots__ = (
        "index",
        "pc",
        "exited",
        "at_barrier",
        "stream",
        "reg_producer",
        "pred_producer",
        "issued",
    )

    def __init__(self, index: int, lanes_alive: np.ndarray, num_regs: int, num_preds: int):
        self.index = index
        self.pc = np.zeros(WARP_SIZE, dtype=np.int64)
        self.exited = ~lanes_alive
        self.at_barrier = False
        self.stream: list[tuple] = []
        self.reg_producer = np.full(max(num_regs, 1), -1, dtype=np.int64)
        self.pred_producer = np.full(max(num_preds, 1), -1, dtype=np.int64)
        self.issued = 0

    @property
    def done(self) -> bool:
        return bool(self.exited.all())


_CMP_FUNCS = {
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
    "eq": np.equal,
    "ne": np.not_equal,
}


class _IntervalList:
    """Bounded list of disjoint, sorted ``[lo, hi)`` byte intervals.

    Tracks a block's global-memory footprint within one allocation.
    Overlapping or *adjacent* intervals merge on insertion, so the list
    holds the canonical union of everything added -- a pure function of
    the *set* of inserted hulls, independent of insertion order (which
    is what keeps the batched interpreter's instruction-major insertion
    bit-identical to the per-warp oracle's warp-major one).  The final
    :meth:`capped` view widens smallest-gap pairs down to ``cap``
    intervals; mid-run memory is bounded by ``watermark``, beyond which
    the same widening runs eagerly (only then can insertion order show
    through -- far past anything the bundled kernels produce).
    Compared to the previous single ``[lo, hi)`` hull, kernels that
    stride within one shared allocation keep their slices distinct,
    removing cross-block RAW false positives.
    """

    __slots__ = ("spans", "cap", "watermark")

    def __init__(self, cap: int = 8, watermark: int = 64) -> None:
        self.spans: list[tuple[int, int]] = []
        self.cap = cap
        self.watermark = watermark

    def add(self, lo: int, hi: int) -> None:
        spans = self.spans
        n = len(spans)
        if n:
            # Dominant cases first: growing/contained in the hull that
            # an earlier access of the same pattern created.
            index = bisect.bisect_right(spans, (lo, hi))
            if index and spans[index - 1][1] >= hi:
                return  # fully contained in the span left of the cut
            # Find the run [first, stop) of spans overlapping/touching.
            first = index
            if index and spans[index - 1][1] >= lo:
                first = index - 1
            stop = index
            while stop < n and spans[stop][0] <= hi:
                stop += 1
            if first == stop:  # disjoint: plain insertion
                spans.insert(index, (lo, hi))
            else:
                merged = (
                    min(lo, spans[first][0]),
                    max(hi, spans[stop - 1][1]),
                )
                spans[first:stop] = [merged]
        else:
            spans.append((lo, hi))
        if len(spans) > self.watermark:
            _widen_to(spans, self.cap)

    def capped(self) -> list[tuple[int, int]]:
        """The final bounded spans (deterministic given the union)."""
        if len(self.spans) <= self.cap:
            return self.spans
        out = list(self.spans)
        _widen_to(out, self.cap)
        return out


def _widen_to(spans: list[tuple[int, int]], cap: int) -> None:
    """Merge smallest-gap neighbours in place until ``cap`` intervals."""
    while len(spans) > cap:
        gaps = [spans[i + 1][0] - spans[i][1] for i in range(len(spans) - 1)]
        i = gaps.index(min(gaps))
        spans[i : i + 2] = [(spans[i][0], spans[i + 1][1])]


class _BlockSlot:
    """One block's statistics and the :class:`BlockTrace` built from them.

    A slot holds the block's stage accumulators, the warps active in
    the current stage and its per-allocation global footprints.  The
    batched interpreter keeps one slot per block of a slab (see
    :class:`_GridRun`); the per-warp oracle's :class:`_BlockRun` is a
    slot too, so both interpreters build traces the same way.
    """

    __slots__ = (
        "block",
        "stages",
        "stage",
        "stage_warps",
        "load_ranges",
        "store_ranges",
    )

    def __init__(self, block: tuple[int, int]) -> None:
        self.block = block
        self.stages = [StageStats()]
        self.stage = self.stages[0]
        self.stage_warps: set[int] = set()
        self.load_ranges: dict[str, _IntervalList] = {}
        self.store_ranges: dict[str, _IntervalList] = {}

    def next_stage(self) -> None:
        self.stage.active_warps = len(self.stage_warps)
        self.stage_warps = set()
        self.stage = StageStats()
        self.stages.append(self.stage)

    def track_global(self, array: str, lo: int, hi: int, is_load: bool) -> None:
        """Grow the block's load/store footprint, per allocation.

        Per-allocation bookkeeping keeps the engine's cross-block RAW
        check free of cross-allocation false positives; a bounded
        interval list per allocation (instead of one ``[lo, hi)`` hull)
        additionally keeps *strided* slices within one allocation
        distinct (see :class:`_IntervalList`).
        """
        ranges = self.load_ranges if is_load else self.store_ranges
        intervals = ranges.get(array)
        if intervals is None:
            intervals = ranges[array] = _IntervalList()
        intervals.add(lo, hi)

    def finish(self, streams: list[list]) -> BlockTrace:
        """The block's trace, given its warps' event streams."""
        self.stage.active_warps = len(self.stage_warps)
        for stage in self.stages:
            stage.canonicalize_order()
        return BlockTrace(
            block=self.block,
            stages=self.stages,
            warp_streams=streams,
            global_load_ranges=tuple(
                span
                for intervals in self.load_ranges.values()
                for span in intervals.capped()
            ),
            global_store_ranges=tuple(
                span
                for intervals in self.store_ranges.values()
                for span in intervals.capped()
            ),
        )


class _BlockRun(_BlockSlot):
    """All mutable state of one block's run on the per-warp oracle.

    Bundling the register file, shared memory, per-warp state and
    launch context with the block's statistics makes the oracle's
    :meth:`FunctionalSimulator.run_block` reentrant: concurrent, nested
    or interleaved block runs on the same simulator instance cannot
    corrupt each other.
    """

    __slots__ = ("R", "P", "smem", "launch", "specials", "warps")

    def __init__(
        self,
        kernel: Kernel,
        launch: LaunchConfig,
        block: tuple[int, int],
    ) -> None:
        super().__init__(block)
        bx, by = block
        gx, gy = launch.grid
        threads = launch.block_threads
        num_warps = launch.warps_per_block
        padded = num_warps * WARP_SIZE

        self.R = np.zeros((padded, max(kernel.num_registers, 1)), dtype=np.float64)
        self.P = np.zeros((padded, max(kernel.num_predicates, 1)), dtype=bool)
        for name in kernel.params:
            if name not in launch.params:
                raise LaunchError(f"missing launch parameter {name!r}")
            self.R[:, kernel.param_regs[name]] = float(launch.params[name])
        self.smem = SharedMemory(kernel.shared_memory_words)
        self.launch = launch
        self.specials = {
            "ntid": float(threads),
            "ctaid_x": float(bx),
            "ctaid_y": float(by),
            "nctaid_x": float(gx),
            "nctaid_y": float(gy),
        }
        lane_ids = np.arange(WARP_SIZE, dtype=np.int64)
        self.warps = []
        for w in range(num_warps):
            alive = (w * WARP_SIZE + lane_ids) < threads
            self.warps.append(
                _WarpState(w, alive, kernel.num_registers, kernel.num_predicates)
            )


class _GridRun:
    """Stacked execution state for a *slab* of independent blocks.

    The batched interpreter runs every block as part of a slab (a
    single block is a one-block slab).  The blocks' register/predicate
    files stack to ``(B * warps_per_block * 32, regs)``, shared memory
    becomes one arena of bank-aligned per-block slices, and
    block-varying specials (``ctaid``) become per-row columns.
    Per-block statistics, warp streams and footprints are routed to
    :class:`_BlockSlot` entries, so the resulting :class:`BlockTrace`
    objects are bit-identical to the per-warp oracle's block by block.

    The arena is a plain word array: the interpreter checks every
    shared access against the block-local footprint, once, before it
    translates the address into the block's slice (see
    :meth:`_BatchedInterpreter._shared_access`).

    Barrier-synchronized kernels (matmul, cyclic reduction -- the
    paper's headline workloads) batch too: ``bar.sync`` parks only the
    arriving warp's rows, and a block advances its own stage the moment
    *its* warps have all arrived (per-block barrier release, see
    :meth:`_BatchedInterpreter._release_arrived`).  Blocks therefore
    move through their synchronization stages asynchronously within one
    slab; cross-block isolation needs nothing new, because shared
    memory was already per-block arena slices.

    Lockstep execution interleaves blocks, so *cross-block* global
    read-after-write visibility differs from the serial block loop --
    exactly the hazard class the engine's RAW check already reports for
    data-dependent kernels (racy kernels have no defined trace order in
    the CUDA model either way).
    """

    __slots__ = (
        "R",
        "P",
        "smem",
        "smem_base",
        "launch",
        "slots",
        "specials",
        "exited",
    )

    def __init__(
        self,
        kernel: Kernel,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
    ) -> None:
        gx, gy = launch.grid
        threads = launch.block_threads
        num_warps = launch.warps_per_block
        num_blocks = len(blocks)
        rows = num_blocks * num_warps
        padded = rows * WARP_SIZE

        self.R = np.zeros((padded, max(kernel.num_registers, 1)), dtype=np.float64)
        self.P = np.zeros((padded, max(kernel.num_predicates, 1)), dtype=bool)
        for name in kernel.params:
            if name not in launch.params:
                raise LaunchError(f"missing launch parameter {name!r}")
            self.R[:, kernel.param_regs[name]] = float(launch.params[name])

        # One bank-aligned shared-memory slice per block: the 64-byte
        # stride keeps every block's bank/word pattern identical to a
        # standalone arena, so conflict counts are unchanged.
        words = kernel.shared_memory_words
        bank_words = 16  # 16 banks x 4-byte words = one 64B bank period
        pad_words = -(-max(words, 1) // bank_words) * bank_words
        self.smem = np.zeros(pad_words * num_blocks)
        block_of_row = np.repeat(np.arange(num_blocks, dtype=np.uint64), num_warps)
        self.smem_base = (block_of_row * np.uint64(pad_words))[:, None]

        self.launch = launch
        self.slots = [_BlockSlot(block) for block in blocks]
        bx = np.asarray([b[0] for b in blocks], dtype=np.float64)
        by = np.asarray([b[1] for b in blocks], dtype=np.float64)
        self.specials = {
            "ntid": float(threads),
            "ctaid_x": np.repeat(bx, num_warps),
            "ctaid_y": np.repeat(by, num_warps),
            "nctaid_x": float(gx),
            "nctaid_y": float(gy),
        }
        lane_ids = np.arange(WARP_SIZE, dtype=np.int64)
        local = (np.arange(rows, dtype=np.int64) % num_warps)[:, None]
        self.exited = (local * WARP_SIZE + lane_ids) >= threads

    def finish(self, streams: list[list]) -> list[BlockTrace]:
        """Per-block traces, bit-identical to the per-warp oracle's."""
        wpb = self.launch.warps_per_block
        return [
            slot.finish(streams[index * wpb : (index + 1) * wpb])
            for index, slot in enumerate(self.slots)
        ]


class FunctionalSimulator:
    """Execute a kernel and collect dynamic statistics.

    Parameters
    ----------
    kernel:
        The native program to run (validated on construction).
    gmem:
        Device global memory; host code allocates inputs/outputs here.
    spec:
        Architecture parameters (bank count, warp size assumptions).
    max_warp_instructions:
        Safety valve against runaway loops.
    batched:
        Use the block-wide batched interpreter (default).  ``False``
        selects the original per-warp loop, kept as the reference
        oracle for differential testing; both produce bit-identical
        :class:`BlockTrace` results for barrier-synchronized kernels.
    grid_batch_blocks:
        Blocks per slab in :meth:`run_blocks` -- the only way to set
        the width explicitly.  ``None`` (default) resolves through
        :func:`repro.tune.resolve` *per launch* (see
        :meth:`grid_batch_blocks_for`): ``$REPRO_TUNE_GRID_BATCH_BLOCKS``,
        then the machine's persisted tuning profile (``repro tune
        run``) keyed by the launch's warps-per-block, then the built-in
        default.
    """

    def __init__(
        self,
        kernel: Kernel,
        gmem: GlobalMemory | None = None,
        spec: GpuSpec = GTX285,
        max_warp_instructions: int = 50_000_000,
        batched: bool = True,
        grid_batch_blocks: int | None = None,
    ) -> None:
        validate_kernel(kernel, spec)
        self.kernel = kernel
        self.gmem = gmem if gmem is not None else GlobalMemory()
        self.spec = spec
        self.max_warp_instructions = max_warp_instructions
        self.batched = batched
        self._grid_batch_kwarg = grid_batch_blocks
        self._decoded = [
            _Decoded(instr, kernel.labels) for instr in kernel.instructions
        ]
        self._has_barrier = any(
            d.kind == OpKind.BARRIER for d in self._decoded
        )
        self._bank_config = BankConfig(
            num_banks=spec.sm.shared_memory_banks,
            bank_width=spec.sm.bank_width_bytes,
        )
        self._lane_ids = np.arange(WARP_SIZE, dtype=np.int64)
        self._txn_configs: dict[int, TransactionConfig] = {}
        for granularity in (4, 8, 16, 32, 64, 128):
            self._txn_config(granularity)

    def grid_batch_blocks_for(self, launch: LaunchConfig) -> int:
        """Slab width for one launch, resolved at ``run_blocks`` time.

        The tuning profile stores the measured best width *per
        warps-per-block* (wide blocks saturate the batch earlier), so
        the width is a property of the launch, not of the simulator:
        one simulator instance serves differently-shaped launches with
        each launch's own tuned width.  An explicit ``grid_batch_blocks``
        kwarg and the environment still override.
        """
        return tune_resolve(
            "grid_batch_blocks",
            kwarg=self._grid_batch_kwarg,
            spec=self.spec,
            warps_per_block=launch.warps_per_block,
        )

    def _txn_config(self, granularity: int) -> TransactionConfig:
        """Memoized coalescing config for one granularity.

        Granularity 4 is the paper's "ideal" case: each distinct word
        is its own transaction (Fig. 11a).  The segment ceiling comes
        from the architecture spec (128 B on the GT200 baseline;
        registered generations may transact cache lines only).
        """
        config = self._txn_configs.get(granularity)
        if config is None:
            config = self._txn_configs[granularity] = TransactionConfig(
                min_segment=granularity,
                max_segment=(
                    4
                    if granularity == 4
                    else self.spec.memory.max_segment_bytes
                ),
            )
        return config

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def run(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]] | None = None,
    ) -> KernelTrace:
        """Run all blocks (or a sample) and aggregate their statistics.

        When ``blocks`` is a sample, aggregate statistics are scaled to
        the full grid (representative-block methodology, DESIGN.md).
        """
        self._check_launch(launch)
        chosen = blocks if blocks is not None else launch.all_blocks()
        if not chosen:
            raise LaunchError("no blocks selected")
        traces = self.run_blocks(launch, chosen)
        return aggregate_blocks(traces, scale_to_blocks=launch.num_blocks)

    def run_blocks(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
        evidence: dict | None = None,
    ) -> list[BlockTrace]:
        """Simulate many blocks, in order.

        With the batched interpreter, blocks are executed in slabs of
        :meth:`grid_batch_blocks_for` blocks (the last slab may be
        narrower, down to one block) -- every block's warps ride the
        same PC-grouped NumPy dispatches (see :class:`_GridRun`) --
        which is what makes full-grid traces of both data-dependent
        kernels (the paper's SpMV) and barrier-synchronized ones
        (matmul, cyclic reduction: blocks release their barriers
        independently) cheap.  The per-warp oracle runs block by block.

        ``evidence`` maps blocks to empty
        :class:`~repro.analysis.affine.ClassTrace` objects: each listed
        block's slab slot carries the trace's class box, and the trace is
        filled in place while the block runs.  The per-warp oracle
        records nothing, so its traces stay ``incomplete``.
        """
        from repro import obs

        self._check_launch(launch)
        if not self.batched:
            return [self.run_block(launch, block) for block in blocks]
        traces: list[BlockTrace] = []
        step = max(1, int(self.grid_batch_blocks_for(launch)))
        with obs.span(
            "functional.run_blocks", blocks=len(blocks), slab=step
        ):
            if obs.enabled():
                obs.metrics.observe("functional.slab_width", step)
                obs.metrics.inc("functional.blocks", len(blocks))
            for start in range(0, len(blocks), step):
                chunk = blocks[start : start + step]
                traces.extend(self._run_slab(launch, chunk, evidence)[0])
        return traces

    def run_block(
        self, launch: LaunchConfig, block: tuple[int, int]
    ) -> BlockTrace:
        """Execute a single block to completion (reentrant)."""
        trace, _ = self.run_block_state(launch, block)
        return trace

    def run_block_state(
        self, launch: LaunchConfig, block: tuple[int, int]
    ) -> tuple[BlockTrace, _GridRun | _BlockRun]:
        """:meth:`run_block` plus the final per-run state (register and
        predicate files ``R``/``P``), for oracles and differential
        tests.  The batched interpreter runs the block as a one-block
        slab.  Nothing is retained on the simulator, so concurrent runs
        stay isolated.
        """
        self._check_launch(launch)
        bx, by = block
        if self.batched:
            traces, run = self._run_slab(launch, [(bx, by)])
            return traces[0], run
        self._check_block(launch, (bx, by))
        run = _BlockRun(self.kernel, launch, (bx, by))
        while True:
            for warp in run.warps:
                if not warp.done and not warp.at_barrier:
                    self._run_warp_until_barrier(run, warp)
            waiting = [w for w in run.warps if w.at_barrier]
            if not waiting:
                break
            for warp in waiting:
                warp.at_barrier = False
            run.next_stage()

        return run.finish([warp.stream for warp in run.warps]), run

    def _run_slab(
        self,
        launch: LaunchConfig,
        blocks: list[tuple[int, int]],
        evidence: dict | None = None,
    ) -> tuple[list[BlockTrace], _GridRun]:
        """Run one slab of blocks on the batched interpreter, recording
        class evidence for the blocks ``evidence`` lists."""
        for block in blocks:
            self._check_block(launch, block)
        run = _GridRun(self.kernel, launch, blocks)
        interpreter = _BatchedInterpreter(self, run)
        if evidence:
            from repro.analysis.affine import ClassRecorder

            interpreter.recorders = tuple(
                ClassRecorder(evidence[block], interpreter, index)
                for index, block in enumerate(blocks)
                if block in evidence
            )
        try:
            interpreter.execute()
        except SimulationError as error:
            for recorder in interpreter.recorders:
                recorder.fail(error)
            raise
        for recorder in interpreter.recorders:
            recorder.finish()
        return run.finish(interpreter.streams), run

    # ------------------------------------------------------------------
    # warp execution
    # ------------------------------------------------------------------
    def _check_launch(self, launch: LaunchConfig) -> None:
        if launch.block_threads > self.spec.sm.max_threads_per_block:
            raise LaunchError(
                f"{launch.block_threads} threads/block exceeds the "
                f"{self.spec.sm.max_threads_per_block} limit"
            )

    @staticmethod
    def _check_block(launch: LaunchConfig, block: tuple[int, int]) -> None:
        bx, by = block
        gx, gy = launch.grid
        if not (0 <= bx < gx and 0 <= by < gy):
            raise LaunchError(f"block {block} outside grid {launch.grid}")

    def _run_warp_until_barrier(self, run: _BlockRun, warp: _WarpState) -> None:
        instructions = self._decoded
        num_instructions = len(instructions)
        while True:
            alive = ~warp.exited
            if not alive.any():
                return
            pcs = warp.pc
            cur = int(pcs[alive].min())
            if cur >= num_instructions:
                raise SimulationError("execution ran past the end of the kernel")
            mask = alive & (pcs == cur)
            decoded = instructions[cur]
            warp.issued += 1
            if warp.issued > self.max_warp_instructions:
                raise SimulationError(
                    "warp exceeded the instruction budget (runaway loop?)"
                )

            kind = decoded.kind
            if kind == OpKind.EXIT:
                # exit occupies an issue slot like any other control
                # instruction, so it belongs in the extracted mix AND
                # the replayed warp stream (branch does the same) --
                # both trace consumers must see the same issue count.
                self._record_issue(run, decoded)
                self._emit_event(
                    warp, decoded, EV_ARITH, decoded.type_index, 0, None
                )
                warp.exited |= mask
                continue
            if kind == OpKind.BARRIER:
                if not np.array_equal(mask, alive):
                    raise DivergenceError(
                        "bar.sync reached by a divergent warp "
                        f"(warp {warp.index}, pc {cur})"
                    )
                self._record_issue(run, decoded)
                warp.stream.append((EV_BAR, 0, 0, 0, None))
                warp.pc[alive] = cur + 1
                warp.at_barrier = True
                return

            active = mask
            if decoded.guard is not None:
                pidx, want = decoded.guard
                warp_slice = self._warp_slice(warp)
                pred_vals = run.P[warp_slice, pidx]
                active = mask & (pred_vals == want)

            if kind == OpKind.BRANCH:
                self._record_issue(run, decoded)
                self._emit_event(warp, decoded, EV_ARITH, decoded.type_index, 0, None)
                warp.pc[mask] = cur + 1
                if active.any():
                    warp.pc[active] = decoded.target
                continue

            self._execute(run, warp, decoded, mask, active)
            warp.pc[mask] = cur + 1

    def _warp_slice(self, warp: _WarpState) -> slice:
        base = warp.index * WARP_SIZE
        return slice(base, base + WARP_SIZE)

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------
    def _execute(self, run, warp, decoded, mask, active) -> None:
        self._record_issue(run, decoded)
        kind = decoded.kind
        # A warp counts as *active* in a stage once it does real work;
        # warps that only evaluate a guard and branch around the body do
        # not raise the stage's warp-level parallelism (this is what
        # makes CR's late steps run at 1-warp shared bandwidth, Fig. 7a).
        if kind not in (OpKind.SETP, OpKind.NOP) and bool(active.any()):
            run.stage_warps.add(warp.index)
        if kind == OpKind.ARITH or kind == OpKind.SELECT:
            self._exec_arith(run, warp, decoded, active)
        elif kind == OpKind.SETP:
            self._exec_setp(run, warp, decoded, active)
        elif kind == OpKind.LOAD_SHARED:
            self._exec_shared(run, warp, decoded, active, is_load=True)
        elif kind == OpKind.STORE_SHARED:
            self._exec_shared(run, warp, decoded, active, is_load=False)
        elif kind == OpKind.LOAD_GLOBAL:
            self._exec_global(run, warp, decoded, active, is_load=True)
        elif kind == OpKind.STORE_GLOBAL:
            self._exec_global(run, warp, decoded, active, is_load=False)
        elif kind == OpKind.NOP:
            self._emit_event(warp, decoded, EV_ARITH, decoded.type_index, 0, None)
        else:  # pragma: no cover - all kinds handled above
            raise SimulationError(f"unhandled opcode kind {kind}")

    def _fetch(self, run, warp, operand, active):
        """Fetch one operand as a 32-lane float64 vector.

        Shared-memory operands also return the bank-transaction counts
        they generated: (values, actual, ideal)."""
        tag = operand[0]
        warp_slice = self._warp_slice(warp)
        if tag == "reg":
            return run.R[warp_slice, operand[1]], None
        if tag == "imm":
            return np.full(WARP_SIZE, operand[1]), None
        if tag == "special":
            name = operand[1]
            if name == "tid":
                base = warp.index * WARP_SIZE
                return (base + self._lane_ids).astype(np.float64), None
            return np.full(WARP_SIZE, run.specials[name]), None
        if tag == "mem":
            base_idx, offset = operand[1], operand[2]
            addresses = np.full(WARP_SIZE, float(offset))
            if base_idx >= 0:
                addresses = addresses + run.R[warp_slice, base_idx]
            addresses = addresses.astype(np.int64)
            values = np.zeros(WARP_SIZE)
            if active.any():
                if base_idx < 0:
                    # Broadcast of one static word: one transaction per
                    # half-warp, never a conflict.
                    values[active] = run.smem.read(addresses[active])
                    halves = self._active_halfwarps(active)
                    txn = (values, halves, halves)
                else:
                    values[active] = run.smem.read(addresses[active])
                    actual, ideal = warp_transactions(
                        addresses, active, self._bank_config
                    )
                    txn = (values, actual, ideal)
            else:
                txn = (values, 0, 0)
            useful = 4 * int(active.sum())
            run.stage.shared_transactions += txn[1]
            run.stage.shared_transactions_ideal += txn[2]
            run.stage.shared_useful_bytes += useful
            return values, (txn[1], txn[2])
        raise SimulationError(f"cannot fetch operand {operand!r}")

    @staticmethod
    def _active_halfwarps(active: np.ndarray) -> int:
        lo = bool(active[:16].any())
        hi = bool(active[16:].any())
        return int(lo) + int(hi)

    def _exec_arith(self, run, warp, decoded, active) -> None:
        warp_slice = self._warp_slice(warp)
        values = []
        shared_txn = None
        if decoded.kind == OpKind.SELECT:
            pidx = decoded.srcs[0][1]
            pred_vals = run.P[warp_slice, pidx]
            a, _ = self._fetch(run, warp, decoded.srcs[1], active)
            b, _ = self._fetch(run, warp, decoded.srcs[2], active)
            result = np.where(pred_vals, a, b)
        else:
            for operand in decoded.srcs:
                value, txn = self._fetch(run, warp, operand, active)
                values.append(value)
                if txn is not None:
                    shared_txn = txn
            result = _evaluate(decoded.opcode, values)
        if decoded.dst_reg >= 0 and active.any():
            run.R[warp_slice, decoded.dst_reg][active] = result[active]
        if shared_txn is None:
            self._emit_event(warp, decoded, EV_ARITH, decoded.type_index, 0, None)
        else:
            self._emit_event(
                warp, decoded, EV_ARITH_SHARED, decoded.type_index, shared_txn[0], None
            )

    def _exec_setp(self, run, warp, decoded, active) -> None:
        warp_slice = self._warp_slice(warp)
        a, _ = self._fetch(run, warp, decoded.srcs[0], active)
        b, _ = self._fetch(run, warp, decoded.srcs[1], active)
        result = _CMP_FUNCS[decoded.cmp](a, b)
        if active.any():
            run.P[warp_slice, decoded.dst_pred][active] = result[active]
        self._emit_event(warp, decoded, EV_ARITH, decoded.type_index, 0, None)

    def _shared_addresses(self, run, warp, base_idx, offset):
        warp_slice = self._warp_slice(warp)
        addresses = np.full(WARP_SIZE, float(offset))
        if base_idx >= 0:
            addresses = addresses + run.R[warp_slice, base_idx]
        return addresses.astype(np.int64)

    def _exec_shared(self, run, warp, decoded, active, is_load: bool) -> None:
        if is_load:
            base_idx, offset = decoded.srcs[0][1], decoded.srcs[0][2]
        else:
            _, base_idx, offset = decoded.dst_mem[0], decoded.dst_mem[1], decoded.dst_mem[2]
        addresses = self._shared_addresses(run, warp, base_idx, offset)
        warp_slice = self._warp_slice(warp)
        actual = ideal = 0
        if active.any():
            if is_load:
                values = np.zeros(WARP_SIZE)
                values[active] = run.smem.read(addresses[active])
                run.R[warp_slice, decoded.dst_reg][active] = values[active]
            else:
                store_vals, _ = self._fetch(run, warp, decoded.srcs[0], active)
                run.smem.write(addresses[active], store_vals[active])
            actual, ideal = warp_transactions(addresses, active, self._bank_config)
        run.stage.shared_transactions += actual
        run.stage.shared_transactions_ideal += ideal
        run.stage.shared_useful_bytes += 4 * int(active.sum())
        self._emit_event(warp, decoded, EV_SHARED, actual, 0, None)

    def _exec_global(self, run, warp, decoded, active, is_load: bool) -> None:
        if is_load:
            base_idx, offset = decoded.srcs[0][1], decoded.srcs[0][2]
        else:
            base_idx, offset = decoded.dst_mem[1], decoded.dst_mem[2]
        warp_slice = self._warp_slice(warp)
        addresses = np.full(WARP_SIZE, float(offset))
        if base_idx >= 0:
            addresses = addresses + run.R[warp_slice, base_idx]
        addresses = addresses.astype(np.int64)

        n_active = int(active.sum())
        stage = run.stage
        stage.global_requests += 1
        stage.global_useful_bytes += 4 * n_active

        primary_txns = 0
        primary_bytes = 0
        segments = None
        cacheable = False
        if n_active:
            if is_load:
                values = np.zeros(WARP_SIZE)
                values[active] = self.gmem.read(addresses[active])
                run.R[warp_slice, decoded.dst_reg][active] = values[active]
            else:
                store_vals, _ = self._fetch(run, warp, decoded.srcs[0], active)
                self.gmem.write(addresses[active], store_vals[active])

            chosen = addresses[active]
            first_address = int(chosen[0])
            allocation = self.gmem.allocation_at(first_address)
            array_name = allocation.name if allocation else "?"
            run.track_global(
                array_name, int(chosen.min()), int(chosen.max()) + 4, is_load
            )
            cacheable = self.gmem.is_cacheable(first_address)
            for position, granularity in enumerate(run.launch.granularities):
                config = self._txn_config(granularity)
                transactions = coalesce_warp(addresses, active, 4, config)
                count = len(transactions)
                nbytes = sum(t.size for t in transactions)
                stage.global_transactions[granularity] = (
                    stage.global_transactions.get(granularity, 0) + count
                )
                stage.global_bytes[granularity] = (
                    stage.global_bytes.get(granularity, 0) + nbytes
                )
                per_array = stage.global_by_array.setdefault(array_name, {})
                old = per_array.get(granularity, (0, 0))
                per_array[granularity] = (old[0] + count, old[1] + nbytes)
                if position == 0:
                    primary_txns = count
                    primary_bytes = nbytes
                    if run.launch.record_segments:
                        segments = tuple((t.address, t.size) for t in transactions)

        payload = (cacheable, segments) if segments is not None else None
        event_kind = EV_GLOBAL_LD if is_load else EV_GLOBAL_ST
        self._emit_event(
            warp, decoded, event_kind, primary_txns, primary_bytes, payload
        )

    # ------------------------------------------------------------------
    # statistics plumbing
    # ------------------------------------------------------------------
    def _record_issue(self, run, decoded) -> None:
        stage = run.stage
        stage.instructions[decoded.mnemonic] += 1
        stage.instr_by_type[decoded.type_name] += 1
        if decoded.is_mad:
            stage.mad_instructions += 1

    def _emit_event(self, warp, decoded, kind, a, b, payload) -> None:
        event_index = len(warp.stream)
        producer = -1
        for reg in decoded.reads:
            candidate = warp.reg_producer[reg]
            if candidate > producer:
                producer = candidate
        for pred in decoded.preds_read:
            candidate = warp.pred_producer[pred]
            if candidate > producer:
                producer = candidate
        # Plain-int dep keeps warp streams byte-identical (pickled
        # digests included) across the per-warp and batched interpreters.
        dep = int(event_index - producer) if producer >= 0 else 0
        warp.stream.append((kind, dep, a, b, payload))
        for reg in decoded.writes:
            warp.reg_producer[reg] = event_index
        if decoded.dst_pred >= 0:
            warp.pred_producer[decoded.dst_pred] = event_index


_INT64_MAX = np.iinfo(np.int64).max

#: Lane index where the second half-warp starts (GT200 half-warp width).
HALF_WARP_SPLIT = 16


class _BatchedInterpreter:
    """Batched execution of one :class:`_GridRun` slab.

    Each step groups all runnable warps (not exited, not parked at a
    barrier) by the instruction their min-PC lands on and executes every
    group's instruction *once* over the slab's full ``(rows, 32)``
    register file, with per-warp group membership folded into the
    active mask.  Working full-width keeps every register access a
    basic-slice *view* (no gather/scatter copies); warps outside the
    group see only masked-out lanes, so they are never observably
    touched.  Per-warp state that the per-warp oracle keeps in
    :class:`_WarpState` lives here in stacked arrays: PCs and exit
    masks as ``(rows, 32)``, dependence producers as ``(rows,
    num_regs)``, issue counters and stream lengths as ``(rows,)``.
    Warp streams are appended per warp (they are Python lists the
    timing simulator replays), but everything else -- arithmetic,
    predicate evaluation, shared/global traffic, coalescing and bank
    analysis, dependence distances -- is one NumPy dispatch per dynamic
    instruction per PC-group.

    Every run is a slab: the blocks' warps stack as rows, and
    statistics route to the blocks' :class:`_BlockSlot` entries (one
    block is a one-block slab, with no separate code path).  Barriers
    are released *per block*: ``bar.sync`` parks the arriving warps,
    and as soon as every live warp of one block is parked that block's
    slot advances its stage and its warps resume -- blocks in one slab
    move through their synchronization stages independently, so
    barrier-heavy kernels batch just like barrier-free ones.

    Warp semantics are purely warp-local, so the produced
    :class:`BlockTrace` is bit-identical to the per-warp oracle's for
    every kernel whose cross-warp communication is barrier-synchronized
    (unsynchronized intra-stage races are schedule-dependent in either
    interpreter).

    This is also the one source of the dedup proof's and the static
    checker's evidence: a slot whose block anchors a class carries a
    :class:`~repro.analysis.affine.ClassRecorder` (``recorders``), and
    every step but ``exit`` hands it the PC-group's lane mask and
    guard-applied active lanes before the instruction executes.  The
    recorder only reads interpreter state, so the trace is the same with
    or without one.
    """

    __slots__ = (
        "sim",
        "launch",
        "slots",
        "num_slots",
        "wpb",
        "smem",
        "smem_base",
        "smem_words",
        "specials",
        "decoded",
        "streams",
        "num_warps",
        "PC",
        "alive",
        "at_bar",
        "has_bar",
        "issued",
        "stream_lens",
        "reg_producer",
        "pred_producer",
        "R3",
        "P3",
        "tid_values",
        "warp_range",
        "all_warps",
        "_unmarked",
        "recorders",
        "_operand_cache",
        "_alloc_cache",
        "_gran_configs",
    )

    def __init__(self, sim: FunctionalSimulator, run: _GridRun) -> None:
        self.sim = sim
        self.launch = run.launch
        self.slots = run.slots
        self.num_slots = len(self.slots)
        self.wpb = run.launch.warps_per_block
        self.smem = run.smem
        self.smem_base = run.smem_base
        self.smem_words = sim.kernel.shared_memory_words
        self.specials = run.specials
        self.decoded = sim._decoded
        num_warps = self.num_slots * self.wpb
        self.num_warps = num_warps
        self.streams = [[] for _ in range(num_warps)]
        exited = run.exited
        self.alive = ~exited
        # Invariant: exited lanes sit at PC = _INT64_MAX, so per-warp
        # min-PCs and "fully exited" fall out of one row minimum and no
        # separate exit mask is consulted on the hot path.
        self.PC = np.where(exited, _INT64_MAX, 0)
        self.at_bar = np.zeros(num_warps, dtype=bool)
        self.has_bar = sim._has_barrier
        self.issued = np.zeros(num_warps, dtype=np.int64)
        self.stream_lens = np.zeros(num_warps, dtype=np.int64)
        self.reg_producer = np.full(
            (num_warps, max(sim.kernel.num_registers, 1)), -1, dtype=np.int64
        )
        self.P3 = run.P.reshape(num_warps, WARP_SIZE, run.P.shape[1])
        self.R3 = run.R.reshape(num_warps, WARP_SIZE, run.R.shape[1])
        self.pred_producer = np.full(
            (num_warps, max(sim.kernel.num_predicates, 1)), -1, dtype=np.int64
        )
        self.warp_range = np.arange(num_warps)
        self.all_warps = list(range(num_warps))
        self.tid_values = (
            (self.warp_range % self.wpb)[:, None] * WARP_SIZE + sim._lane_ids
        ).astype(np.float64)
        # Rows whose warp has not yet done "real work" in the current
        # stage (stage-warp marking amortizes through this).
        self._unmarked = set(self.all_warps)
        #: Evidence recorders of the slab's boxed blocks (see
        #: :class:`repro.analysis.affine.ClassRecorder`), fed every
        #: step but ``exit`` before the instruction executes.
        self.recorders: tuple = ()
        # Immediates and launch-uniform specials never change during a
        # run and are only ever read, so their slabs are shared; global
        # allocation lookups are memoized per static instruction.
        self._operand_cache: dict[tuple, np.ndarray] = {}
        self._alloc_cache: dict[int, object] = {}
        self._gran_configs = [
            sim._txn_config(g) for g in run.launch.granularities
        ]

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self) -> None:
        num_instructions = len(self.decoded)
        budget = self.sim.max_warp_instructions
        steps = 0
        with np.errstate(all="ignore"):
            while True:
                minpc = self.PC.min(axis=1)
                if self.has_bar:
                    minpc = np.where(self.at_bar, _INT64_MAX, minpc)
                top = int(minpc.min())
                if top >= num_instructions:
                    if top < _INT64_MAX:
                        raise SimulationError(
                            "execution ran past the end of the kernel"
                        )
                    if self.at_bar.any():  # pragma: no cover - releases
                        # fire the moment a block's last warp arrives,
                        # so a fully parked grid cannot be reached.
                        raise SimulationError(
                            "warps parked at a barrier with no runnable "
                            "peers (internal error)"
                        )
                    return
                runnable = minpc != _INT64_MAX
                self.issued += runnable
                # A warp's issue count never exceeds the step count, so
                # the exact (per-warp) budget check only needs to run
                # once steps could have pushed some warp past it.
                steps += 1
                if steps > budget and int(self.issued.max()) > budget:
                    raise SimulationError(
                        "warp exceeded the instruction budget (runaway loop?)"
                    )
                # Groups are computed once per step; executing one group
                # never changes another group's PCs or masks, so the
                # partition stays valid for the whole step.
                group = minpc == top
                if bool(group.all()):
                    # Convergent fast path: every warp in one group.
                    self._step(group, self.all_warps, top)
                elif bool((group == runnable).all()):
                    # Single group, but some warps are blocked.
                    self._step(group, np.flatnonzero(group).tolist(), top)
                else:
                    for pc in np.unique(minpc[runnable]):
                        sub = minpc == pc
                        self._step(sub, np.flatnonzero(sub).tolist(), int(pc))

    def _step(self, group: np.ndarray, ws: list, pc: int) -> None:
        """Execute instruction ``pc`` once for the warps in ``group``.

        ``ws`` lists the group's warp indices (``all_warps`` on the
        convergent fast path, so no index extraction is paid there).
        Exited lanes never match ``PC == pc`` (they sit at the sentinel
        PC), so the lane mask needs no separate liveness term.
        """
        decoded = self.decoded[pc]
        mask = self.PC == pc
        if ws is not self.all_warps:
            mask = group[:, None] & mask

        kind = decoded.kind
        if kind == OpKind.EXIT:
            # exit occupies an issue slot like any other control
            # instruction (see the per-warp oracle).
            self._record_issue(decoded, ws)
            self._emit(ws, decoded, EV_ARITH, decoded.type_index, 0, None)
            self.PC = np.where(mask, _INT64_MAX, self.PC)
            self.alive = self.alive & ~mask
            if self.has_bar:
                # A warp exiting in full may leave its block with every
                # remaining live warp parked at a barrier: release it.
                self._release_arrived(ws)
            return
        if kind == OpKind.BARRIER:
            for recorder in self.recorders:
                recorder.record(pc, decoded, mask, mask)
            divergent = group & (mask != self.alive).any(axis=1)
            if divergent.any():
                row = int(np.flatnonzero(divergent)[0])
                slot = self.slots[row // self.wpb]
                raise DivergenceError(
                    "bar.sync reached by a divergent warp "
                    f"(block {slot.block}, warp {row % self.wpb}, pc {pc})"
                )
            self._record_issue(decoded, ws)
            for w in ws:
                self.streams[w].append((EV_BAR, 0, 0, 0, None))
            self.stream_lens += group
            self.PC = np.where(mask, pc + 1, self.PC)
            self.at_bar |= group
            self._release_arrived(ws)
            return

        active = mask
        if decoded.guard is not None:
            pidx, want = decoded.guard
            if want:
                active = mask & self.P3[:, :, pidx]
            else:
                active = mask & ~self.P3[:, :, pidx]
        for recorder in self.recorders:
            recorder.record(pc, decoded, mask, active)

        if kind == OpKind.BRANCH:
            self._record_issue(decoded, ws)
            self._emit(ws, decoded, EV_ARITH, decoded.type_index, 0, None)
            self.PC = np.where(mask, pc + 1, self.PC)
            self.PC = np.where(active, decoded.target, self.PC)
            return

        self._execute(ws, decoded, active)
        self.PC = np.where(mask, pc + 1, self.PC)

    def _release_arrived(self, ws) -> None:
        """Per-block barrier release: advance fully arrived blocks.

        A block is released the moment every one of its warp rows is
        either parked at the barrier or fully exited (CUDA's
        ``bar.sync`` counts only live warps) -- its slot's stage
        advances and its warps resume on the next step, independently
        of every other block in the slab.  Only the blocks touched by
        the current PC-group (``ws``) can newly satisfy that condition,
        so only those are checked.
        """
        at_bar = self.at_bar
        if not at_bar.any():
            return
        wpb = self.wpb
        if ws is self.all_warps:
            candidates = range(self.num_slots)
        else:
            candidates = sorted({w // wpb for w in ws})
        for index in candidates:
            lo = index * wpb
            rows = slice(lo, lo + wpb)
            parked = at_bar[rows]
            if not parked.any():
                continue
            if not (parked | ~self.alive[rows].any(axis=1)).all():
                continue  # some live warp has not arrived yet
            at_bar[rows] = False
            self.slots[index].next_stage()
            self._unmarked.update(range(lo, lo + wpb))

    # ------------------------------------------------------------------
    # instruction execution
    # ------------------------------------------------------------------
    def _execute(self, ws, decoded, active) -> None:
        self._record_issue(decoded, ws)
        kind = decoded.kind
        # A warp counts as *active* in a stage once it does real work
        # (same rule as the per-warp oracle).
        if kind not in (OpKind.SETP, OpKind.NOP) and self._unmarked:
            working = active.any(axis=1)
            if working.all():
                rows = self._unmarked
                self._unmarked = set()
            else:
                rows = [r for r in self._unmarked if working[r]]
                self._unmarked.difference_update(rows)
            wpb = self.wpb
            for r in rows:
                self.slots[r // wpb].stage_warps.add(r % wpb)
        if kind == OpKind.ARITH or kind == OpKind.SELECT:
            self._exec_arith(ws, decoded, active)
        elif kind == OpKind.SETP:
            self._exec_setp(ws, decoded, active)
        elif kind == OpKind.LOAD_SHARED:
            self._exec_shared(ws, decoded, active, is_load=True)
        elif kind == OpKind.STORE_SHARED:
            self._exec_shared(ws, decoded, active, is_load=False)
        elif kind == OpKind.LOAD_GLOBAL:
            self._exec_global(ws, decoded, active, is_load=True)
        elif kind == OpKind.STORE_GLOBAL:
            self._exec_global(ws, decoded, active, is_load=False)
        elif kind == OpKind.NOP:
            self._emit(ws, decoded, EV_ARITH, decoded.type_index, 0, None)
        else:  # pragma: no cover - all kinds handled above
            raise SimulationError(f"unhandled opcode kind {kind}")

    def _fetch(self, operand, active):
        """Fetch one operand as a full ``(num_warps, 32)`` float64 slab.

        Register slabs are views into the block register file; constant
        slabs are cached and shared (callers never mutate operands).
        Shared-memory operands also return their per-warp
        (actual, ideal) bank-transaction counts.
        """
        tag = operand[0]
        if tag == "reg":
            return self.R3[:, :, operand[1]], None
        if tag == "special" and operand[1] == "tid":
            return self.tid_values, None
        if tag == "imm" or tag == "special":
            cached = self._operand_cache.get(operand)
            if cached is None:
                value = operand[1] if tag == "imm" else self.specials[operand[1]]
                if isinstance(value, np.ndarray):
                    # Block-varying special (ctaid in a grid batch):
                    # one value per warp row, broadcast across lanes.
                    cached = np.broadcast_to(
                        value[:, None], (self.num_warps, WARP_SIZE)
                    )
                else:
                    cached = np.full((self.num_warps, WARP_SIZE), float(value))
                self._operand_cache[operand] = cached
            return cached, None
        if tag == "mem":
            base_idx, offset = operand[1], operand[2]
            addresses, words = self._shared_access(base_idx, offset, active)
            if active.all():
                values = self.smem[words]
            else:
                values = np.zeros((self.num_warps, WARP_SIZE))
                if active.any():
                    values[active] = self.smem[words[active]]
            if base_idx < 0:
                # Broadcast of one static word: one transaction per
                # active half-warp, never a conflict.
                halves = active[:, :HALF_WARP_SPLIT].any(axis=1).astype(
                    np.int64
                ) + active[:, HALF_WARP_SPLIT:].any(axis=1).astype(np.int64)
                actual, ideal = halves, halves
            else:
                actual, ideal = warp_transactions_batch(
                    addresses, active, self.sim._bank_config
                )
            self._account_shared(actual, ideal, active)
            return values, (actual, ideal)
        raise SimulationError(f"cannot fetch operand {operand!r}")

    def _shared_access(self, base_idx, offset, active):
        """Block-local byte addresses and arena word indices of one
        shared access, every active lane checked against the footprint.

        This is the one shared-memory bounds check of the batched
        interpreter (the arena is a plain word array).  Rotating an
        address right by two bits yields its word index when it is
        4-byte aligned and non-negative, and at least ``2**61``
        otherwise, so one unsigned compare against the footprint's word
        count rejects negative, unaligned and out-of-footprint lanes
        alike.  The arena's 64-byte-aligned slice bases never change
        bank/word patterns, so bank analysis uses the block-local
        addresses.
        """
        addresses = self._addresses(base_idx, offset)
        bits = addresses.view(np.uint64)
        words = (bits >> 2) | (bits << 62)
        if (active & (words >= self.smem_words)).any():
            chosen = addresses[active]
            if np.any(chosen % 4):
                raise MemoryAccessError("shared access must be 4-byte aligned")
            raise MemoryAccessError(
                "shared access out of bounds "
                f"(footprint = {self.smem_words * 4} B)"
            )
        return addresses, words + self.smem_base

    def _account_shared(self, actual, ideal, active) -> None:
        wpb = self.wpb
        per_actual = actual.reshape(-1, wpb).sum(axis=1).tolist()
        per_ideal = ideal.reshape(-1, wpb).sum(axis=1).tolist()
        per_useful = active.reshape(self.num_slots, -1).sum(axis=1).tolist()
        for slot, got, want, useful in zip(
            self.slots, per_actual, per_ideal, per_useful
        ):
            stage = slot.stage
            stage.shared_transactions += int(got)
            stage.shared_transactions_ideal += int(want)
            stage.shared_useful_bytes += 4 * int(useful)

    def _addresses(self, base_idx: int, offset: int) -> np.ndarray:
        if base_idx < 0:
            return np.full(
                (self.num_warps, WARP_SIZE), int(offset), dtype=np.int64
            )
        addresses = self.R3[:, :, base_idx]
        if offset:
            addresses = addresses + float(offset)
        return addresses.astype(np.int64)

    def _write_slab(self, column: np.ndarray, result, active) -> None:
        """Masked write into a register/predicate column view."""
        if active.all():
            column[:, :] = result
        else:
            column[active] = result[active]

    def _exec_arith(self, ws, decoded, active) -> None:
        shared_actual = None
        if decoded.kind == OpKind.SELECT:
            pred_vals = self.P3[:, :, decoded.srcs[0][1]]
            a, _ = self._fetch(decoded.srcs[1], active)
            b, _ = self._fetch(decoded.srcs[2], active)
            result = np.where(pred_vals, a, b)
        else:
            values = []
            for operand in decoded.srcs:
                value, txn = self._fetch(operand, active)
                values.append(value)
                if txn is not None:
                    shared_actual = txn[0]
            result = _eval_fn(decoded.opcode)(values)
        if decoded.dst_reg >= 0 and active.any():
            self._write_slab(self.R3[:, :, decoded.dst_reg], result, active)
        if shared_actual is None:
            self._emit(ws, decoded, EV_ARITH, decoded.type_index, 0, None)
        else:
            self._emit(
                ws,
                decoded,
                EV_ARITH_SHARED,
                decoded.type_index,
                shared_actual,
                None,
            )

    def _exec_setp(self, ws, decoded, active) -> None:
        a, _ = self._fetch(decoded.srcs[0], active)
        b, _ = self._fetch(decoded.srcs[1], active)
        result = _CMP_FUNCS[decoded.cmp](a, b)
        if active.any():
            self._write_slab(self.P3[:, :, decoded.dst_pred], result, active)
        self._emit(ws, decoded, EV_ARITH, decoded.type_index, 0, None)

    def _exec_shared(self, ws, decoded, active, is_load: bool) -> None:
        if is_load:
            base_idx, offset = decoded.srcs[0][1], decoded.srcs[0][2]
        else:
            base_idx, offset = decoded.dst_mem[1], decoded.dst_mem[2]
        addresses, words = self._shared_access(base_idx, offset, active)
        if active.any():
            full = active.all()
            if is_load:
                if full:
                    self.R3[:, :, decoded.dst_reg][:, :] = self.smem[words]
                else:
                    values = self.smem[words[active]]
                    self.R3[:, :, decoded.dst_reg][active] = values
            else:
                store_vals, _ = self._fetch(decoded.srcs[0], active)
                # Row-major flattening stores in ascending warp order,
                # matching the serial oracle's last-writer-wins.
                if full:
                    self.smem[words.ravel()] = store_vals.ravel()
                else:
                    self.smem[words[active]] = store_vals[active]
            actual, ideal = warp_transactions_batch(
                addresses, active, self.sim._bank_config
            )
        else:
            actual = ideal = np.zeros(self.num_warps, dtype=np.int64)
        self._account_shared(actual, ideal, active)
        self._emit(ws, decoded, EV_SHARED, actual, 0, None)

    def _allocation_for(self, decoded, address: int):
        """Allocation lookup memoized per static instruction.

        Consecutive executions of one load/store overwhelmingly target
        the same allocation; a containment check on the memoized hit
        avoids re-scanning the allocation list, and a miss falls back
        to the full scan (``None`` results are never memoized).
        """
        key = id(decoded)
        allocation = self._alloc_cache.get(key)
        if allocation is not None and allocation.contains(address):
            return allocation
        allocation = self.sim.gmem.allocation_at(address)
        if allocation is not None:
            self._alloc_cache[key] = allocation
        return allocation

    def _exec_global(self, ws, decoded, active, is_load: bool) -> None:
        if is_load:
            base_idx, offset = decoded.srcs[0][1], decoded.srcs[0][2]
        else:
            base_idx, offset = decoded.dst_mem[1], decoded.dst_mem[2]
        addresses = self._addresses(base_idx, offset)

        num_warps = self.num_warps
        wpb = self.wpb
        per_useful = active.reshape(self.num_slots, -1).sum(axis=1).tolist()
        n_active = sum(per_useful)
        for slot, k in self._per_slot_counts(ws):
            slot.stage.global_requests += k
        for slot, useful in zip(self.slots, per_useful):
            slot.stage.global_useful_bytes += 4 * useful

        primary_txns: np.ndarray | int = 0
        primary_bytes: np.ndarray | int = 0
        payloads = None
        if n_active:
            full = n_active == active.size
            gmem = self.sim.gmem
            if is_load:
                if full:
                    self.R3[:, :, decoded.dst_reg][:, :] = gmem.read(
                        addresses.ravel()
                    ).reshape(addresses.shape)
                else:
                    values = gmem.read(addresses[active])
                    self.R3[:, :, decoded.dst_reg][active] = values
            else:
                store_vals, _ = self._fetch(decoded.srcs[0], active)
                if full:
                    gmem.write(addresses.ravel(), store_vals.ravel())
                else:
                    gmem.write(addresses[active], store_vals[active])

            if full:
                lo = addresses.min(axis=1)
                hi = addresses.max(axis=1) + 4
                first_addr = addresses[:, 0]
                active_rows = None
                rows = self.all_warps
            else:
                lo = np.where(active, addresses, _INT64_MAX).min(axis=1)
                hi = np.where(active, addresses, -1).max(axis=1) + 4
                first_lane = active.argmax(axis=1)
                first_addr = addresses[self.warp_range, first_lane]
                active_rows = active.any(axis=1)
                rows = np.flatnonzero(active_rows).tolist()
            names: list[str | None] = [None] * num_warps
            slots = self.slots
            for i in rows:
                allocation = self._allocation_for(decoded, int(first_addr[i]))
                names[i] = allocation.name if allocation else "?"
                slots[i // wpb].track_global(
                    names[i], int(lo[i]), int(hi[i]), is_load
                )
            one_name = len({names[i] for i in rows}) == 1

            record = self.launch.record_segments
            granularities = self.launch.granularities
            # Addresses were validated 4-byte aligned by the read/write
            # above.
            outputs = coalesce_warp_multi(
                addresses,
                None if full else active,
                4,
                self._gran_configs,
                want_segments_at=0 if record else None,
                aligned=True,
            )
            segments = None
            for position, granularity in enumerate(granularities):
                counts, nbytes, _, _, segs = outputs[position]
                self._account_gran(
                    granularity, counts, nbytes, names, rows, one_name
                )
                if position == 0:
                    primary_txns = counts
                    primary_bytes = nbytes
                    segments = segs
            if segments is not None:
                cacheable_names = gmem.cacheable_names
                payloads = [
                    (
                        (names[i] in cacheable_names, segments[i])
                        if active_rows is None or active_rows[i]
                        else None
                    )
                    for i in range(num_warps)
                ]

        event_kind = EV_GLOBAL_LD if is_load else EV_GLOBAL_ST
        self._emit(ws, decoded, event_kind, primary_txns, primary_bytes, payloads)

    def _account_gran(
        self, granularity, counts, nbytes, names, rows, one_name
    ) -> None:
        wpb = self.wpb
        per_txn = counts.reshape(-1, wpb).sum(axis=1).tolist()
        per_bytes = nbytes.reshape(-1, wpb).sum(axis=1).tolist()
        for slot, txn, nb in zip(self.slots, per_txn, per_bytes):
            if not txn:
                # A block with no active lanes for this instruction must
                # not even create the granularity keys (serial parity).
                continue
            stage = slot.stage
            stage.global_transactions[granularity] = (
                stage.global_transactions.get(granularity, 0) + int(txn)
            )
            stage.global_bytes[granularity] = (
                stage.global_bytes.get(granularity, 0) + int(nb)
            )
            if one_name:
                per_array = stage.global_by_array.setdefault(
                    names[rows[0]], {}
                )
                old = per_array.get(granularity, (0, 0))
                per_array[granularity] = (
                    old[0] + int(txn),
                    old[1] + int(nb),
                )
        if not one_name:
            for i in rows:
                stage = self.slots[i // wpb].stage
                per_array = stage.global_by_array.setdefault(names[i], {})
                old = per_array.get(granularity, (0, 0))
                per_array[granularity] = (
                    old[0] + int(counts[i]),
                    old[1] + int(nbytes[i]),
                )

    # ------------------------------------------------------------------
    # statistics plumbing
    # ------------------------------------------------------------------
    def _record_issue(self, decoded, ws) -> None:
        for slot, k in self._per_slot_counts(ws):
            stage = slot.stage
            stage.instructions[decoded.mnemonic] += k
            stage.instr_by_type[decoded.type_name] += k
            if decoded.is_mad:
                stage.mad_instructions += k

    def _per_slot_counts(self, ws):
        """(slot, group-warp-count) pairs for one PC-group."""
        if ws is self.all_warps:
            wpb = self.wpb
            return [(slot, wpb) for slot in self.slots]
        counts: dict[int, int] = {}
        wpb = self.wpb
        for w in ws:
            b = w // wpb
            counts[b] = counts.get(b, 0) + 1
        return [(self.slots[b], k) for b, k in counts.items()]

    def _emit(self, ws, decoded, kind, a, b, payloads) -> None:
        """Append one event per group warp with batched dep tracking.

        ``a``/``b`` are either scalars shared by every warp or per-warp
        arrays; ``payloads`` is ``None`` or one payload per warp.  The
        appended tuples carry plain Python ints, matching the per-warp
        oracle's streams byte for byte.
        """
        producer = None
        owned = False  # single-source producers stay read-only views
        for reg in decoded.reads:
            column = self.reg_producer[:, reg]
            if producer is None:
                producer = column
            elif owned:
                np.maximum(producer, column, out=producer)
            else:
                producer = np.maximum(producer, column)
                owned = True
        for pidx in decoded.preds_read:
            column = self.pred_producer[:, pidx]
            if producer is None:
                producer = column
            elif owned:
                np.maximum(producer, column, out=producer)
            else:
                producer = np.maximum(producer, column)
                owned = True
        event_index = self.stream_lens
        if producer is None:
            dep = None
        else:
            dep = np.where(producer >= 0, event_index - producer, 0)
        a_vec = isinstance(a, np.ndarray)
        b_vec = isinstance(b, np.ndarray)
        for w in ws:
            self.streams[w].append(
                (
                    kind,
                    int(dep[w]) if dep is not None else 0,
                    int(a[w]) if a_vec else a,
                    int(b[w]) if b_vec else b,
                    payloads[w] if payloads is not None else None,
                )
            )
        full = len(ws) == self.num_warps
        for reg in decoded.writes:
            column = self.reg_producer[:, reg]
            if full:
                column[:] = event_index
            else:
                column[ws] = event_index[ws]
        if decoded.dst_pred >= 0:
            column = self.pred_producer[:, decoded.dst_pred]
            if full:
                column[:] = event_index
            else:
                column[ws] = event_index[ws]
        if full:
            self.stream_lens = event_index + 1
        else:
            event_index = event_index.copy()
            event_index[ws] += 1
            self.stream_lens = event_index


def _int_op(fn):
    """Wrap an int64 operation as a float64-in/float64-out evaluator."""

    def apply(values: list[np.ndarray]) -> np.ndarray:
        ints = [np.asarray(v, dtype=np.float64).astype(np.int64) for v in values]
        return fn(*ints).astype(np.float64)

    return apply


#: Arithmetic evaluators (float32 semantics), shared by both
#: interpreters.  Each entry works elementwise, so ``(32,)`` lane
#: vectors and ``(k_warps, 32)`` slabs go through the same function.
#: The batched interpreter calls entries directly under one loop-wide
#: ``np.errstate``; the per-warp oracle goes through :func:`_evaluate`.
_EVAL_TABLE = {
    Opcode.MOV: lambda v: v[0],
    Opcode.FADD: lambda v: _f32(np.float32(v[0]) + np.float32(v[1])),
    Opcode.FMUL: lambda v: _f32(np.float32(v[0]) * np.float32(v[1])),
    Opcode.FMAD: lambda v: _f32(
        np.float32(v[0]) * np.float32(v[1]) + np.float32(v[2])
    ),
    Opcode.FNEG: lambda v: -v[0],
    Opcode.FMIN: lambda v: np.minimum(v[0], v[1]),
    Opcode.FMAX: lambda v: np.maximum(v[0], v[1]),
    Opcode.RCP: lambda v: _f32(np.float32(1.0) / np.float32(v[0])),
    Opcode.SIN: lambda v: _f32(np.sin(np.float32(v[0]))),
    Opcode.COS: lambda v: _f32(np.cos(np.float32(v[0]))),
    Opcode.LG2: lambda v: _f32(np.log2(np.float32(v[0]))),
    Opcode.EX2: lambda v: _f32(np.exp2(np.float32(v[0]))),
    Opcode.RSQRT: lambda v: _f32(np.float32(1.0) / np.sqrt(np.float32(v[0]))),
    Opcode.DADD: lambda v: v[0] + v[1],
    Opcode.DMUL: lambda v: v[0] * v[1],
    Opcode.DFMA: lambda v: v[0] * v[1] + v[2],
    Opcode.IADD: _int_op(lambda a, b: a + b),
    Opcode.ISUB: _int_op(lambda a, b: a - b),
    Opcode.IMUL: _int_op(lambda a, b: a * b),
    Opcode.IMAD: _int_op(lambda a, b, c: a * b + c),
    Opcode.ISHL: _int_op(lambda a, b: a << b),
    Opcode.ISHR: _int_op(lambda a, b: a >> b),
    Opcode.IAND: _int_op(lambda a, b: a & b),
    Opcode.IOR: _int_op(lambda a, b: a | b),
    Opcode.IXOR: _int_op(lambda a, b: a ^ b),
    Opcode.IMIN: _int_op(np.minimum),
    Opcode.IMAX: _int_op(np.maximum),
}


def _eval_fn(opcode: Opcode):
    fn = _EVAL_TABLE.get(opcode)
    if fn is None:
        raise SimulationError(f"no evaluator for opcode {opcode.mnemonic}")
    return fn


def _evaluate(opcode: Opcode, values: list[np.ndarray]) -> np.ndarray:
    """Apply an arithmetic opcode to lane vectors (float32 semantics)."""
    fn = _eval_fn(opcode)
    with np.errstate(all="ignore"):
        return fn(values)


def _f32(values: np.ndarray) -> np.ndarray:
    return np.asarray(values, dtype=np.float32).astype(np.float64)
