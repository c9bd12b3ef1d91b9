"""1-D 3-point Jacobi stencil with a shared-memory halo.

Each block of ``T`` threads updates ``T`` interior points of a 1-D
grid.  The block cooperatively stages its ``T + 2``-point working set
(interior plus one halo cell per side) into shared memory -- the two
halo loads ride on the boundary threads -- synchronizes once, and then
every thread computes ``w0*u[i-1] + w1*u[i] + w2*u[i+1]`` straight out
of shared memory before storing the result.

Two boundary layouts share that structure:

* **ghost cells** (default): the input array carries one extra cell at
  each end, so halo loads never leave the allocation and every block
  executes the identical instruction sequence (no boundary
  special-casing) -- a block-uniform kernel the engine dedups to a
  single proof-verified class;
* **guarded** (``guarded=True``): no ghost cells -- the edge threads
  *predicate* their halo loads on the block's grid position (``ctaid``
  against 0 and ``nctaid - 1``) and default the missing neighbour to
  the zero Dirichlet boundary.  ``ctaid`` thereby reaches control
  flow, so the engine partitions the grid by boundary role
  (first/interior/last) into three proof-verified classes -- the same
  sweep, exercised through heterogeneous dedup.  With zero-valued
  ghost cells the two layouts produce bit-identical results (the
  compute phase is instruction-for-instruction the same).

Along with the tree reduction this opens the barrier-synchronized
workload family the grid-batched interpreter targets: one barrier
stage whose shared traffic is reused by three reads per loaded word.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import AppRun, execute
from repro.errors import LaunchError
from repro.hw.gpu import HardwareGpu
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Imm
from repro.isa.program import Kernel
from repro.model.performance import PerformanceModel
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory

#: Default block size: 2 warps, matching the paper's small-block style.
BLOCK_THREADS = 64

#: Default Jacobi weights (left, center, right).
WEIGHTS = (0.25, 0.5, 0.25)


def build_stencil_kernel(
    block_threads: int = BLOCK_THREADS, guarded: bool = False
) -> Kernel:
    """Native kernel computing one weighted 3-point sweep.

    Ghost-cell layout (default): ``u`` holds ``n + 2`` values (ghost
    cells at both ends) and every block runs the identical instruction
    sequence.  Guarded layout (``guarded=True``): ``u`` holds exactly
    ``n`` values; the edge threads predicate their halo loads on the
    block's grid position and seed the missing neighbour with the zero
    boundary value.  ``out`` holds the ``n`` updated points either
    way.  Weights are launch parameters, so one kernel serves any
    3-point scheme.
    """
    if block_threads < 2:
        raise LaunchError("stencil blocks need at least two threads")
    t = block_threads
    b = KernelBuilder(
        f"jacobi3{'g' if guarded else ''}_{t}",
        params=("u", "out", "w0", "w1", "w2"),
    )
    smem = b.alloc_shared(t + 2)

    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    gaddr = b.reg()
    # Ghost layout: u[gid] is the point left of this thread's center
    # (the array is shifted by its leading ghost).  Guarded layout:
    # u[gid] IS the center.
    b.imad(gaddr, gid, Imm(4), b.param("u"))
    saddr = b.reg()
    b.ishl(saddr, b.tid, Imm(2))

    center = b.reg()
    b.ldg(center, gaddr, offset=0 if guarded else 4)
    b.sts(center, saddr, offset=smem + 4)

    # Halo: thread 0 stages the left neighbour, the last thread the
    # right one.  The ghost layout loads unconditionally; the guarded
    # layout first publishes the boundary value, then overwrites it
    # only when the block has an in-bounds neighbour.
    halo = b.reg()
    edge = b.pred()
    b.isetp(edge, "eq", b.tid, Imm(0))
    with b.if_then(edge):
        if guarded:
            b.sts(Imm(0.0), saddr, offset=smem)
            inner = b.pred()
            b.isetp(inner, "gt", b.ctaid_x, Imm(0))
            with b.if_then(inner):
                laddr = b.reg()
                b.iadd(laddr, gaddr, Imm(-4))
                b.ldg(halo, laddr)  # u[block_base - 1]
                b.sts(halo, saddr, offset=smem)
        else:
            b.ldg(halo, gaddr)  # u[block_base]
            b.sts(halo, saddr, offset=smem)
    b.isetp(edge, "eq", b.tid, Imm(t - 1))
    with b.if_then(edge):
        if guarded:
            b.sts(Imm(0.0), saddr, offset=smem + 8)
            last = b.reg()
            b.iadd(last, b.nctaid_x, Imm(-1))
            inner = b.pred()
            b.isetp(inner, "lt", b.ctaid_x, last)
            with b.if_then(inner):
                raddr = b.reg()
                b.iadd(raddr, gaddr, Imm(4))
                b.ldg(halo, raddr)  # u[block_base + t]
                b.sts(halo, saddr, offset=smem + 8)
        else:
            b.ldg(halo, gaddr, offset=8)  # u[block_base + t + 1]
            b.sts(halo, saddr, offset=smem + 8)
    b.bar()

    left = b.reg()
    right = b.reg()
    b.lds(left, saddr, offset=smem)
    b.lds(center, saddr, offset=smem + 4)
    b.lds(right, saddr, offset=smem + 8)
    result = b.reg()
    b.fmul(result, left, b.param("w0"))
    b.fmad(result, center, b.param("w1"), result)
    b.fmad(result, right, b.param("w2"), result)
    oaddr = b.reg()
    b.imad(oaddr, gid, Imm(4), b.param("out"))
    b.stg(oaddr, result)
    b.exit()
    return b.build()


@dataclass
class StencilProblem:
    """Host-side state of one Jacobi sweep."""

    n: int
    block_threads: int
    weights: tuple[float, float, float]
    gmem: GlobalMemory
    u: np.ndarray  # n + 2 values (ghosts included), or n when guarded
    base_u: int
    base_out: int
    guarded: bool = False

    def launch(self) -> LaunchConfig:
        w0, w1, w2 = self.weights
        return LaunchConfig(
            grid=(self.n // self.block_threads, 1),
            block_threads=self.block_threads,
            params={
                "u": self.base_u,
                "out": self.base_out,
                "w0": w0,
                "w1": w1,
                "w2": w2,
            },
        )

    def result(self) -> np.ndarray:
        return self.gmem.read_array(self.base_out, self.n)

    def reference(self) -> np.ndarray:
        """The sweep in the kernel's float32 operation order.

        The guarded layout behaves exactly like zero-valued ghost
        cells, so both layouts share one padded formulation.
        """
        padded = self.u
        if self.guarded:
            padded = np.concatenate(([0.0], self.u, [0.0]))
        u32 = padded.astype(np.float32)
        w0, w1, w2 = (np.float32(w) for w in self.weights)
        acc = w0 * u32[:-2]
        acc = w1 * u32[1:-1] + acc
        acc = w2 * u32[2:] + acc
        return acc.astype(np.float64)


def prepare_problem(
    n: int = 1024,
    block_threads: int = BLOCK_THREADS,
    weights: tuple[float, float, float] = WEIGHTS,
    seed: int = 23,
    guarded: bool = False,
    values: np.ndarray | None = None,
) -> StencilProblem:
    """Build one problem instance.

    ``values`` (length ``n``) pins the *interior* points -- the
    differential tests hand both layouts the same field, with the
    ghost layout's ghost cells set to the guarded layout's implicit
    zero boundary.  Without ``values``, points are random; the default
    ghost layout then also draws random (nonzero) ghosts, preserving
    the historical problem distribution.
    """
    if n % block_threads:
        raise LaunchError(f"n={n} must divide by block_threads={block_threads}")
    rng = np.random.default_rng(seed)
    if values is not None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if len(values) != n:
            raise LaunchError(f"values must hold n={n} interior points")
        u = values if guarded else np.concatenate(([0.0], values, [0.0]))
    elif guarded:
        u = rng.uniform(-1, 1, size=n)
    else:
        u = rng.uniform(-1, 1, size=n + 2)
    gmem = GlobalMemory()
    base_u = gmem.alloc_array(u, "u")
    base_out = gmem.alloc(n, "out")
    return StencilProblem(
        n, block_threads, weights, gmem, u, base_u, base_out, guarded
    )


def run_stencil(
    n: int = 1024,
    block_threads: int = BLOCK_THREADS,
    weights: tuple[float, float, float] = WEIGHTS,
    model: PerformanceModel | None = None,
    gpu: HardwareGpu | None = None,
    representative: bool = True,
    measure: bool = True,
    seed: int = 23,
    workers: int = 0,
    trace_cache: str | None = None,
    guarded: bool = False,
) -> AppRun:
    """Full workflow on one Jacobi sweep."""
    problem = prepare_problem(n, block_threads, weights, seed, guarded)
    kernel = build_stencil_kernel(block_threads, guarded)
    sample = [(0, 0)] if representative else None
    return execute(
        name=f"jacobi3{'g' if guarded else ''} n={n} "
        f"({n // block_threads} blocks)",
        kernel=kernel,
        gmem=problem.gmem,
        launch=problem.launch(),
        sample_blocks=sample,
        model=model,
        gpu=gpu,
        measure=measure,
        workers=workers,
        trace_cache=trace_cache,
    )


def validate_stencil(
    n: int = 256,
    block_threads: int = BLOCK_THREADS,
    weights: tuple[float, float, float] = WEIGHTS,
    seed: int = 9,
    guarded: bool = False,
) -> float:
    """Run the full grid and return the max abs error vs the float32
    reference (the operation orders match, so this is exactly 0.0)."""
    problem = prepare_problem(n, block_threads, weights, seed, guarded)
    kernel = build_stencil_kernel(block_threads, guarded)
    execute(
        name="validate",
        kernel=kernel,
        gmem=problem.gmem,
        launch=problem.launch(),
        sample_blocks=None,
        measure=False,
        engine=False,  # numerical results must land in gmem
    )
    return float(np.max(np.abs(problem.result() - problem.reference())))
