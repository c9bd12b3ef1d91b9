"""Timing parameters of the hardware simulator (the silicon stand-in).

These constants play the role the GTX 285's microarchitecture played in
the paper: they are *not* inputs to the performance model.  The model
only ever observes the hardware through microbenchmarks, so changing a
number here changes "measured reality" and the calibration tables
together, exactly as moving to a different GPU would.

Defaults are chosen so the simulator reproduces the paper's measured
shapes (see DESIGN.md): a type II issue interval of 4 cycles with ~24
cycles of latency saturates near 6 warps (paper: "the number of
instruction pipeline stages is around 6"); the shared-memory pipeline is
longer, needing more warps (Fig. 2 right); the global-memory path has a
~500-cycle latency and a per-cluster bandwidth slice.

One :class:`HwConfig` is shared by every registered architecture
generation (:mod:`repro.arch.registry`): specs vary the *structural*
axes (units, banks, clocks, segment sizes, occupancy ceilings) while
the pipeline-depth constants stay fixed.  That is the modelling
assumption behind cross-GPU validation
(:mod:`repro.model.crossval`) -- throughput curves keep their shape
across generations and only their ceilings move -- and it is also why
transferring calibration by peak ratios works as well as it does.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.specs import WARP_SIZE, GpuSpec, GTX285
from repro.errors import HardwareModelError
from repro.util import spec_fingerprint

#: Pipeline latency in cycles by instruction type index (I, II, III, IV).
#: A type II latency of 20 with a 4-cycle issue interval saturates at
#: (20 + 4) / 4 = 6 warps -- the paper's "the number of instruction
#: pipeline stages is around 6".
_DEFAULT_LATENCY = (20.0, 20.0, 24.0, 44.0)


@dataclass(frozen=True)
class HwConfig:
    """All knobs of the event-driven timing simulator."""

    #: Cycles between consecutive issues from one warp (front-end limit).
    issue_gap: float = 1.0
    #: Completion latency per instruction type (cycles after pipe).
    arith_latency: tuple[float, float, float, float] = _DEFAULT_LATENCY
    #: Maximum in-flight instructions per warp (scoreboard depth).
    #: Only memory operations pipeline within a warp; see arith_in_order.
    ilp_window: int = 12
    #: Arithmetic executes strictly in order within a warp, one at a
    #: time: "the instruction window inside a warp is very small"
    #: (paper Section 4.1).  Memory operations still overlap.
    arith_in_order: bool = True
    #: Shared-memory accesses of one warp serialize against each other
    #: (single load/store unit per warp on GT200); global loads keep
    #: pipelining through the scoreboard window.
    shared_in_order: bool = False
    #: Deterministic jitter added to arithmetic completion (cycles).
    arith_jitter: float = 4.0

    #: Cycles the shared pipeline is busy per half-warp transaction.
    shared_halfwarp_cycles: float = 2.0
    #: Extra in-order stall of the *issuing warp* per replayed (bank-
    #: conflicted or uncoalesced) transaction.  Other warps can fill the
    #: pipe during the stall, so this is what makes conflicts brutal at
    #: low occupancy (CR's late steps) yet amortized at high occupancy.
    replay_warp_stall: float = 10.0
    #: Shared-memory load-to-use latency (cycles).  Deeper than the
    #: arithmetic pipeline: shared memory "needs more parallel warps to
    #: cover its latency" (paper Fig. 2, right).
    shared_latency: float = 64.0
    shared_jitter: float = 8.0
    #: Extra latency of an arithmetic instruction whose operand comes
    #: straight from shared memory (operand-collector stage, not a full
    #: shared round trip).
    smem_operand_latency: float = 8.0

    #: Global-memory round-trip latency (cycles).
    global_latency: float = 520.0
    global_jitter: float = 40.0

    #: Texture cache (per cluster): capacity, line size, associativity.
    #: Deliberately small: our synthetic QCD matrix has stronger lattice
    #: locality than the original, so a realistic-size cache would
    #: absorb *all* vector traffic and erase the paper's Fig. 12
    #: contrast between formats (see EXPERIMENTS.md).
    texcache_bytes: int = 1024
    texcache_line: int = 32
    texcache_ways: int = 8
    texcache_hit_latency: float = 96.0

    #: Barrier release overhead and block launch overhead (cycles).
    barrier_latency: float = 12.0
    block_launch_overhead: float = 60.0

    #: Re-queue threshold: if a warp must wait longer than this for a
    #: resource, it is pushed back instead of reserving into the future.
    repush_slack: float = 4.0

    def __post_init__(self) -> None:
        if self.issue_gap <= 0:
            raise HardwareModelError("issue_gap must be positive")
        if self.ilp_window < 1:
            raise HardwareModelError("ilp_window must be at least 1")
        if len(self.arith_latency) != 4:
            raise HardwareModelError("arith_latency needs four entries")
        if self.texcache_line <= 0 or self.texcache_line & (self.texcache_line - 1):
            raise HardwareModelError("texcache_line must be a power of two")
        if self.barrier_latency < 0:
            # The cluster loop pushes released warps at the release
            # time, which must not precede their own completions.
            raise HardwareModelError("barrier_latency must be non-negative")


def issue_intervals(spec: GpuSpec) -> tuple[float, float, float, float]:
    """Pipe occupancy per warp-instruction, by type (cycles).

    A warp of 32 lanes on ``u`` functional units occupies its pipe for
    ``32 / u`` cycles -- 3.2 for type I, 4 for type II, 8 for type III,
    32 for type IV on the GTX 285.
    """
    return tuple(
        WARP_SIZE / spec.units_for_type(name) for name in ("I", "II", "III", "IV")
    )


def cluster_bytes_per_cycle(spec: GpuSpec) -> float:
    """DRAM service rate of one cluster in bytes per core cycle.

    The chip-wide peak is divided over the clusters and derated by the
    DRAM efficiency (row conflicts, refresh), which is what bounds the
    *measured* peak of Fig. 3 below the theoretical 160 GB/s.
    """
    per_cluster = spec.global_bytes_per_cycle / spec.memory.num_clusters
    return per_cluster * spec.memory.dram_efficiency


def config_fingerprint(config: HwConfig) -> str:
    """Content hash of a timing configuration.

    Part of every measured-run cache key: editing a latency here changes
    "measured reality", so memoized timings must be invalidated exactly
    like re-flashing the silicon would.
    """
    return spec_fingerprint(config)


DEFAULT_HW = HwConfig()


def deterministic_jitter(key: int, amplitude: float) -> float:
    """Hash-based jitter in [0, amplitude): reproducible randomness.

    The reference definition: the cluster event loop inlines this hash
    (keyed by ``(gwid << 20) ^ idx``) and must match it bit for bit.
    """
    if amplitude <= 0:
        return 0.0
    h = (key * 2654435761 + 0x9E3779B9) & 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 2246822519) & 0xFFFFFFFF
    return (h & 0xFFFF) / 65536.0 * amplitude
