"""Slab-width auto-tuner for the multi-block batched interpreter.

The batched interpreter's slab width (``FunctionalSimulator``'s
``grid_batch_blocks``) trades two costs: wide slabs
amortize per-instruction NumPy dispatch over more warp rows, narrow
slabs keep per-step Python accounting (PC grouping, barrier release,
per-block stat routing) small.  The sweet spot depends on the machine
(BLAS/NumPy build, cache sizes) and on the kernel shape -- chiefly
warps per block, which scales the rows a single block contributes.

The tuner times ``run_blocks`` over representative workloads of both
structural families the interpreter batches:

* a **barrier-free** tail-guarded streaming kernel (the dedup-resistant
  shape: every block must actually be simulated), and
* **barriered** kernels (tree reduction, Jacobi stencil) exercising
  per-block barrier release inside a slab;

for each candidate width, and records the per-machine best width as a
function of warps-per-block plus an overall default (geometric-mean
best across workloads).  Any width is bit-identical to any other --
slab width is a pure schedule choice -- so the tuner can only win or
lose wall-clock.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from repro.arch.specs import GpuSpec, GTX285
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Imm
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory

#: Candidate slab widths (the historical default, 32, sits mid-range).
DEFAULT_CANDIDATES = (4, 8, 16, 32, 64)


@dataclass(frozen=True)
class SlabWorkload:
    """One representative kernel the tuner times."""

    name: str
    kernel: object
    gmem: GlobalMemory
    launch: LaunchConfig
    warps_per_block: int
    barriered: bool


@dataclass(frozen=True)
class SlabTuning:
    """Outcome of one slab-width search.

    ``by_warps`` maps warps-per-block to its best measured width;
    ``default`` is the cross-workload compromise; ``timings`` keeps the
    raw ``{workload: {width: seconds}}`` grid for ``repro tune show``.
    """

    by_warps: dict
    default: int
    timings: dict


def _streaming_workload(
    num_blocks: int = 96, block_threads: int = 64, inner: int = 10
) -> SlabWorkload:
    """Tail-guarded streaming kernel: the barrier-free, dedup-resistant
    family (every block is simulated, as for data-dependent grids)."""
    n = num_blocks * block_threads - 17  # tail block partially active
    gmem = GlobalMemory()
    buf = gmem.alloc(n + block_threads, "buf")
    b = KernelBuilder("tune_stream", params=("buf", "n"))
    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    guard = b.pred()
    b.isetp(guard, "lt", gid, b.param("n"))
    with b.if_then(guard):
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("buf"))
        acc = b.reg()
        b.mov(acc, Imm(0.0))
        v = b.reg()
        with b.counted_loop(inner):
            b.ldg(v, addr)
            b.fmad(acc, v, v, acc)
        b.stg(addr, acc)
    b.exit()
    return SlabWorkload(
        name=f"stream_{block_threads // 32}w",
        kernel=b.build(),
        gmem=gmem,
        launch=LaunchConfig(
            grid=(num_blocks, 1),
            block_threads=block_threads,
            params={"buf": buf, "n": n},
        ),
        warps_per_block=block_threads // 32,
        barriered=False,
    )


def _reduction_workload(
    num_blocks: int = 96, block_threads: int = 128
) -> SlabWorkload:
    """Tree reduction: per-level barriers, shrinking active warps."""
    from repro.apps.reduction import build_reduction_kernel, prepare_problem

    problem = prepare_problem(
        block_threads=block_threads, num_blocks=num_blocks, seed=11
    )
    return SlabWorkload(
        name=f"reduce_{block_threads // 32}w",
        kernel=build_reduction_kernel(block_threads),
        gmem=problem.gmem,
        launch=problem.launch(),
        warps_per_block=block_threads // 32,
        barriered=True,
    )


def _stencil_workload(
    num_blocks: int = 96, block_threads: int = 64
) -> SlabWorkload:
    """Jacobi stencil: one barrier stage, halo shared traffic."""
    from repro.apps.stencil import build_stencil_kernel, prepare_problem

    problem = prepare_problem(
        n=num_blocks * block_threads, block_threads=block_threads, seed=11
    )
    return SlabWorkload(
        name=f"stencil_{block_threads // 32}w",
        kernel=build_stencil_kernel(block_threads),
        gmem=problem.gmem,
        launch=problem.launch(),
        warps_per_block=block_threads // 32,
        barriered=True,
    )


def default_workloads() -> list[SlabWorkload]:
    """The representative mix: barrier-free + barriered, 2 and 4 warps."""
    return [
        _streaming_workload(),
        _stencil_workload(),
        _reduction_workload(),
    ]


def measure_slab_timings(
    workloads: list[SlabWorkload] | None = None,
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
    repeats: int = 2,
    spec: GpuSpec = GTX285,
) -> tuple[dict, dict]:
    """Best-of-``repeats`` seconds per (workload, width).

    Returns ``(timings, warps_of)`` where ``timings`` is
    ``{workload_name: {width: seconds}}`` and ``warps_of`` maps each
    workload name to its warps-per-block.
    """
    workloads = default_workloads() if workloads is None else workloads
    repeats = max(1, int(repeats))
    widths = sorted({max(1, int(c)) for c in candidates})
    timings: dict = {}
    warps_of: dict = {}
    for workload in workloads:
        blocks = workload.launch.all_blocks()
        warps_of[workload.name] = workload.warps_per_block
        row: dict = {}
        for width in widths:
            simulator = FunctionalSimulator(
                workload.kernel,
                gmem=workload.gmem,
                spec=spec,
                grid_batch_blocks=width,
            )
            best = math.inf
            for _ in range(repeats):
                started = time.perf_counter()
                simulator.run_blocks(workload.launch, blocks)
                best = min(best, time.perf_counter() - started)
            row[width] = best
        timings[workload.name] = row
    return timings, warps_of


def pick_widths(timings: dict, warps_of: dict) -> tuple[dict, int]:
    """Deterministic selection from a measured timing grid.

    Per warps-per-block: the width minimizing the *sum* of that group's
    workload times (ties break toward the smaller width).  The overall
    default minimizes the geometric mean of per-workload slowdowns
    (each workload's time divided by its own best), so one fast
    workload cannot drown out a slow one.  Pure function: unit-testable
    without timing anything.
    """
    by_warps: dict = {}
    groups: dict = {}
    for name, row in timings.items():
        groups.setdefault(warps_of.get(name, 0), []).append(row)
    for warps, rows in groups.items():
        widths = sorted(set.intersection(*(set(r) for r in rows)))
        if not widths:
            continue
        total = {w: sum(r[w] for r in rows) for w in widths}
        by_warps[warps] = min((total[w], w) for w in widths)[1]

    rows = list(timings.values())
    widths = sorted(set.intersection(*(set(r) for r in rows))) if rows else []
    if not widths:
        from repro.tune.profile import BUILTIN_DEFAULTS

        return by_warps, BUILTIN_DEFAULTS["grid_batch_blocks"]
    floor = 1e-9  # clock-resolution floor: log() must never see zero
    slowdown = {
        w: math.fsum(
            math.log(
                max(r[w], floor) / max(min(r.values()), floor)
            )
            for r in rows
        )
        for w in widths
    }
    default = min(widths, key=lambda w: (slowdown[w], w))
    return by_warps, default


def tune_grid_batch_blocks(
    workloads: list[SlabWorkload] | None = None,
    candidates: tuple[int, ...] = DEFAULT_CANDIDATES,
    repeats: int = 2,
    spec: GpuSpec = GTX285,
) -> SlabTuning:
    """Measure and select: the slab tuner's one-call entry point."""
    timings, warps_of = measure_slab_timings(
        workloads, candidates=candidates, repeats=repeats, spec=spec
    )
    by_warps, default = pick_widths(timings, warps_of)
    return SlabTuning(by_warps=by_warps, default=default, timings=timings)
