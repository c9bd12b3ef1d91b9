"""Dynamic execution traces: what the functional simulator records.

Two views of one execution:

* **Aggregate statistics** (:class:`StageStats`) -- warp-level dynamic
  instruction counts by type, shared-memory transactions with and
  without bank conflicts, and global-memory transactions by coalescing
  granularity and by target array.  This is the "info extractor" input
  of the paper's workflow (Fig. 1).
* **Per-warp event streams** -- a compact timeline the hardware timing
  simulator replays.  Each event carries its register-dependence
  distance so the timing model can honour real instruction-level
  parallelism.
"""

from __future__ import annotations

import hashlib
import pickle
import sys
from collections import Counter
from dataclasses import dataclass, field

#: Event kinds (first tuple slot).
EV_ARITH = 0  # (EV_ARITH, dep, type_index, 0, None)
EV_SHARED = 1  # (EV_SHARED, dep, transactions, 0, None)
EV_ARITH_SHARED = 2  # (EV_ARITH_SHARED, dep, type_index, transactions, None)
EV_GLOBAL_LD = 3  # (EV_GLOBAL_LD, dep, n_txn, bytes, segments|None)
EV_GLOBAL_ST = 4  # (EV_GLOBAL_ST, dep, n_txn, bytes, segments|None)
EV_BAR = 5  # (EV_BAR, 0, 0, 0, None)

#: Instruction type name -> event type index.
TYPE_INDEX = {"I": 0, "II": 1, "III": 2, "IV": 3}
TYPE_NAMES = ("I", "II", "III", "IV")

Event = tuple  # (kind, dep, a, b, payload)


def _new_type_counter() -> dict[str, int]:
    return {name: 0 for name in TYPE_NAMES}


@dataclass
class StageStats:
    """Aggregate dynamic statistics for one synchronization stage."""

    instructions: Counter = field(default_factory=Counter)  # opcode name -> count
    instr_by_type: dict[str, int] = field(default_factory=_new_type_counter)
    mad_instructions: int = 0
    shared_transactions: int = 0
    shared_transactions_ideal: int = 0
    shared_useful_bytes: int = 0
    global_requests: int = 0
    global_transactions: dict[int, int] = field(default_factory=dict)  # gran -> n
    global_bytes: dict[int, int] = field(default_factory=dict)  # gran -> bytes
    global_useful_bytes: int = 0
    global_by_array: dict[str, dict[int, tuple[int, int]]] = field(
        default_factory=dict
    )
    active_warps: int = 0

    @property
    def total_instructions(self) -> int:
        return sum(self.instr_by_type.values())

    @property
    def computational_density(self) -> float:
        """Fraction of instructions doing actual computation (MAD-style)."""
        total = self.total_instructions
        return self.mad_instructions / total if total else 0.0

    @property
    def bank_conflict_factor(self) -> float:
        """Shared transactions per conflict-free transaction (>= 1)."""
        if not self.shared_transactions_ideal:
            return 1.0
        return self.shared_transactions / self.shared_transactions_ideal

    def coalescing_efficiency(self, granularity: int = 32) -> float:
        """Useful global bytes / transferred bytes at a granularity."""
        transferred = self.global_bytes.get(granularity, 0)
        if not transferred:
            return 1.0
        return self.global_useful_bytes / transferred

    def merge(self, other: "StageStats") -> None:
        """Accumulate another block's statistics for the same stage."""
        self.instructions.update(other.instructions)
        for name, count in other.instr_by_type.items():
            self.instr_by_type[name] += count
        self.mad_instructions += other.mad_instructions
        self.shared_transactions += other.shared_transactions
        self.shared_transactions_ideal += other.shared_transactions_ideal
        self.shared_useful_bytes += other.shared_useful_bytes
        self.global_requests += other.global_requests
        for gran, count in other.global_transactions.items():
            self.global_transactions[gran] = (
                self.global_transactions.get(gran, 0) + count
            )
        for gran, nbytes in other.global_bytes.items():
            self.global_bytes[gran] = self.global_bytes.get(gran, 0) + nbytes
        self.global_useful_bytes += other.global_useful_bytes
        for array, per_gran in other.global_by_array.items():
            mine = self.global_by_array.setdefault(array, {})
            for gran, (txn, nbytes) in per_gran.items():
                old_txn, old_bytes = mine.get(gran, (0, 0))
                mine[gran] = (old_txn + txn, old_bytes + nbytes)
        self.active_warps = max(self.active_warps, other.active_warps)

    def canonicalize_order(self) -> None:
        """Rewrite the open-keyed mappings in sorted-key order.

        Which interpreter schedule first touched an opcode or
        granularity decides dict *insertion* order, which pickles
        observably even when the contents are equal.  Finalized traces
        canonicalize so that equal stages are byte-identical wherever
        they were produced (the differential gates' pickled-byte
        comparisons rely on this); ``instr_by_type`` already has a
        fixed key order by construction.
        """
        self.instructions = Counter(dict(sorted(self.instructions.items())))
        self.global_transactions = dict(
            sorted(self.global_transactions.items())
        )
        self.global_bytes = dict(sorted(self.global_bytes.items()))
        self.global_by_array = {
            array: dict(sorted(per_gran.items()))
            for array, per_gran in sorted(self.global_by_array.items())
        }

    def canonical(self) -> tuple:
        """Order-independent tuple form (fingerprinting, equality)."""
        return (
            tuple(sorted(self.instructions.items())),
            tuple(sorted(self.instr_by_type.items())),
            self.mad_instructions,
            self.shared_transactions,
            self.shared_transactions_ideal,
            self.shared_useful_bytes,
            self.global_requests,
            tuple(sorted(self.global_transactions.items())),
            tuple(sorted(self.global_bytes.items())),
            self.global_useful_bytes,
            tuple(
                sorted(
                    (array, tuple(sorted(per_gran.items())))
                    for array, per_gran in self.global_by_array.items()
                )
            ),
            self.active_warps,
        )

    def scaled(self, factor: float) -> "StageStats":
        """A copy with all extensive quantities multiplied by ``factor``."""
        out = StageStats()
        out.instructions = Counter(
            {k: int(round(v * factor)) for k, v in self.instructions.items()}
        )
        out.instr_by_type = {
            k: int(round(v * factor)) for k, v in self.instr_by_type.items()
        }
        out.mad_instructions = int(round(self.mad_instructions * factor))
        out.shared_transactions = int(round(self.shared_transactions * factor))
        out.shared_transactions_ideal = int(
            round(self.shared_transactions_ideal * factor)
        )
        out.shared_useful_bytes = int(round(self.shared_useful_bytes * factor))
        out.global_requests = int(round(self.global_requests * factor))
        out.global_transactions = {
            g: int(round(v * factor)) for g, v in self.global_transactions.items()
        }
        out.global_bytes = {
            g: int(round(v * factor)) for g, v in self.global_bytes.items()
        }
        out.global_useful_bytes = int(round(self.global_useful_bytes * factor))
        out.global_by_array = {
            array: {
                g: (int(round(t * factor)), int(round(b * factor)))
                for g, (t, b) in per_gran.items()
            }
            for array, per_gran in self.global_by_array.items()
        }
        out.active_warps = self.active_warps
        return out


def stream_digest(warp_streams: list[list[Event]]) -> str:
    """Content hash of one block's warp streams.

    This is the timing layer's class identity: two blocks with equal
    digests replay identically, wherever their traces came from.  The
    digest doubles as the class table entry in measured-run cache keys.
    """
    return hashlib.sha256(
        pickle.dumps(warp_streams, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def intern_stage_strings(trace: "BlockTrace") -> "BlockTrace":
    """Re-intern the string keys of a trace's per-stage mappings.

    In-process interpretation shares one string object per opcode name,
    type name and allocation name across every block (they come from
    the kernel's constants); unpickling a pool worker's result instead
    materializes fresh copies per chunk.  The values are equal either
    way, but pickling a *list* of traces observes the sharing topology
    (memo back-references), so a pooled run's aggregate would not be
    byte-identical to the serial reference.  Interning restores one
    shared object per distinct string; idempotent, mutates in place.
    """
    for stage in trace.stages:
        stage.instructions = Counter(
            {sys.intern(op): n for op, n in stage.instructions.items()}
        )
        stage.instr_by_type = {
            sys.intern(name): n for name, n in stage.instr_by_type.items()
        }
        stage.global_by_array = {
            sys.intern(name): per_gran
            for name, per_gran in stage.global_by_array.items()
        }
    return trace


@dataclass
class BlockTrace:
    """Everything recorded while simulating one block.

    ``global_load_ranges`` / ``global_store_ranges`` are byte spans
    ``[lo, hi)`` this block touched through global loads and stores,
    a bounded interval list per accessed allocation.  The engine's
    cross-block read-after-write check compares them across blocks;
    they are deliberately excluded from :meth:`stats_key`, since
    block-shifted bases move the footprint without changing behaviour.

    The stream digest and behavioural fingerprint are memoized on the
    trace (keyed by the per-warp stream lengths, which any legitimate
    stream mutation changes), so very large data-dependent class tables
    are hashed once instead of once per ``MeasuredRunCache`` lookup.
    Mutating events *in place* without changing stream lengths bypasses
    the invalidation -- streams are append-only records everywhere in
    this codebase.
    """

    block: tuple[int, int]
    stages: list[StageStats]
    warp_streams: list[list[Event]]
    global_load_ranges: tuple[tuple[int, int], ...] = ()
    global_store_ranges: tuple[tuple[int, int], ...] = ()
    _digest_memo: tuple | None = field(
        default=None, repr=False, compare=False
    )
    _stats_key_memo: tuple | None = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_warps(self) -> int:
        return len(self.warp_streams)

    @property
    def totals(self) -> StageStats:
        total = StageStats()
        for stage in self.stages:
            total.merge(stage)
        return total

    def __getstate__(self):
        # The memos are cheap to rebuild and would otherwise serialize a
        # second rendering of the streams into every on-disk cache entry
        # and worker IPC message.
        state = self.__dict__.copy()
        state["_digest_memo"] = None
        state["_stats_key_memo"] = None
        return state

    def _stream_lengths(self) -> tuple[int, ...]:
        return tuple(len(stream) for stream in self.warp_streams)

    def stream_digest(self) -> str:
        """Memoized :func:`stream_digest` of this block's streams."""
        lengths = self._stream_lengths()
        memo = self._digest_memo
        if memo is not None and memo[0] == lengths:
            return memo[1]
        digest = stream_digest(self.warp_streams)
        self._digest_memo = (lengths, digest)
        return digest

    def stats_key(self) -> tuple:
        """Behavioural fingerprint of this block's execution.

        Block coordinates are deliberately excluded: two blocks with
        equal keys produced indistinguishable statistics and warp
        streams, so either can stand in for the other (the engine's
        deduplication test).
        """
        lengths = self._stream_lengths()
        memo = self._stats_key_memo
        if memo is not None and memo[0] == lengths:
            return memo[1]
        key = (
            tuple(stage.canonical() for stage in self.stages),
            tuple(tuple(stream) for stream in self.warp_streams),
        )
        self._stats_key_memo = (lengths, key)
        return key


@dataclass
class KernelTrace:
    """Aggregated dynamic statistics for a whole launch.

    ``exact`` records whether the stage statistics are a true sum over
    all ``num_blocks`` blocks (full grid, or engine replication with
    exact multiplicities) or a scaled-up representative sample.
    ``engine_stats`` is attached by the simulation engine when the trace
    was produced through it (see :mod:`repro.sim.engine`).
    """

    stages: list[StageStats]
    num_blocks: int
    block_traces: list[BlockTrace] = field(default_factory=list)
    exact: bool = True
    engine_stats: object | None = None

    @property
    def totals(self) -> StageStats:
        total = StageStats()
        for stage in self.stages:
            total.merge(stage)
        return total

    @property
    def num_stages(self) -> int:
        return len(self.stages)


def aggregate_blocks(
    block_traces: list[BlockTrace], scale_to_blocks: int | None = None
) -> KernelTrace:
    """Combine per-block traces; optionally scale a sample to a full grid.

    Stage ``i`` of every block contributes to stage ``i`` of the result
    (stages are synchronization intervals, which line up across blocks
    for the homogeneous kernels studied here).

    When scaling a sample, each stage is scaled by the number of sampled
    blocks that actually reached it: a stage only some sampled blocks
    executed is extrapolated from those contributors alone, instead of
    being diluted by a uniform ``total / simulated`` factor that treats
    blocks which never reached the stage as zero-cost contributors.
    This deliberately assumes stage raggedness comes from a *fixed* set
    of outliers (e.g. one partial tail block deliberately included in
    the sample), not from a grid-proportional population -- the regime
    of every kernel studied here.  For proportionally ragged grids,
    simulate the full grid through the engine instead of sampling.
    """
    num_stages = max((len(t.stages) for t in block_traces), default=0)
    stages = [StageStats() for _ in range(num_stages)]
    contributors = [0] * num_stages
    for trace in block_traces:
        for i, stage in enumerate(trace.stages):
            stages[i].merge(stage)
            contributors[i] += 1
    simulated = len(block_traces)
    total = scale_to_blocks if scale_to_blocks is not None else simulated
    exact = total == simulated
    if not exact and simulated > 0:
        stages = [
            stage.scaled(total / count)
            for stage, count in zip(stages, contributors)
        ]
    return KernelTrace(
        stages=stages, num_blocks=total, block_traces=block_traces, exact=exact
    )


def aggregate_weighted(
    block_traces: list[BlockTrace], multiplicities: list[int]
) -> KernelTrace:
    """Exactly aggregate representatives with integer multiplicities.

    Each trace stands for ``multiplicity`` behaviourally identical
    blocks; stage statistics are multiplied by the exact integer count,
    so the result is bit-identical to merging every replica -- no
    representative-sample extrapolation involved.
    """
    if len(block_traces) != len(multiplicities):
        raise ValueError("one multiplicity per block trace is required")
    if any(m < 1 for m in multiplicities):
        raise ValueError("multiplicities must be positive")
    num_stages = max((len(t.stages) for t in block_traces), default=0)
    stages = [StageStats() for _ in range(num_stages)]
    for trace, mult in zip(block_traces, multiplicities):
        for i, stage in enumerate(trace.stages):
            stages[i].merge(stage if mult == 1 else stage.scaled(mult))
    return KernelTrace(
        stages=stages,
        num_blocks=sum(multiplicities),
        block_traces=list(block_traces),
        exact=True,
    )
