"""Dense matrix multiply, Volkov-Demmel style (paper Section 5.1).

The computational procedure: the result matrix is tiled into
``64 x s`` sub-matrices, each mapped to a 64-thread (2-warp) block.
Only *one* input matrix's ``s x s`` tile is staged in shared memory
(Volkov & Demmel's key reordering); the other is streamed through
registers.  Thread ``t`` owns row ``t`` of its block's tile and keeps
``s`` accumulators in registers.  Per k-step it loads one A element
(coalesced) and performs ``s`` MADs whose second operand comes straight
from shared memory -- which is why the shared-transaction count tracks
the MAD count in Fig. 4(a).

The paper studies tile widths s = 8, 16, 32 ("sub-matrix sizes 8x8,
16x16, 32x32"): larger tiles cut global traffic ~in half per step and
raise computational density, but the 32x32 tile's register/shared
footprint drops occupancy from 8 blocks (16 warps) to 3 blocks
(6 warps), shifting the bottleneck to shared memory (Table 2, Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import AppRun, execute
from repro.arch.specs import GTX285, GpuSpec
from repro.errors import LaunchError
from repro.hw.gpu import HardwareGpu
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Imm
from repro.isa.program import Kernel
from repro.model.performance import PerformanceModel
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory

#: Block shape used for every tile size (paper Table 2: "a block
#: consists of 64 threads or 2 warps for all three cases").
BLOCK_THREADS = 64

#: The paper's three tile widths.
TILE_SIZES = (8, 16, 32)


def build_matmul_kernel(n: int, tile: int) -> Kernel:
    """Native kernel computing C = A * B (column-major, n x n).

    ``tile`` is the sub-matrix width ``s``; the block computes a
    ``64 x s`` tile of C over ``n / s`` shared-memory-staged chunks.
    """
    if n % BLOCK_THREADS or n % tile:
        raise LaunchError(f"n={n} must divide by {BLOCK_THREADS} and {tile}")
    if BLOCK_THREADS % tile:
        raise LaunchError(f"tile={tile} must divide {BLOCK_THREADS}")
    s = tile
    loads_per_thread = (s * s) // BLOCK_THREADS  # B-tile elements per thread
    chunks = n // s

    b = KernelBuilder(f"sgemm_{s}x{s}", params=("A", "B", "C", "n"))
    smem_tile = b.alloc_shared(s * s)

    # The B-tile staging registers double as prologue scratch, the way a
    # hand-scheduled native kernel would reuse dead registers.  This is
    # what lands the kernel on the paper's Table 2 register counts
    # (30 for 16x16, 58 for 32x32).
    tmp = b.regs(max(loads_per_thread, 4))
    row, colbase, kk0, j0 = tmp[0], tmp[1], tmp[2], tmp[3]

    b.imad(row, b.ctaid_x, Imm(BLOCK_THREADS), b.tid)
    addr_a = b.reg()  # -> A[row, k], advances down a row (column-major)
    b.imad(addr_a, row, Imm(4), b.param("A"))
    b.imul(colbase, b.ctaid_y, Imm(s))

    addr_c = b.reg()  # -> C[row, colbase]
    b.imad(addr_c, colbase, b.param("n"), row)
    b.imad(addr_c, addr_c, Imm(4), b.param("C"))

    # Per-thread B-load base: element (kk, j) = (t % s, colbase + t // s).
    b.iand(kk0, b.tid, Imm(s - 1))
    b.ishr(j0, b.tid, Imm(s.bit_length() - 1))
    b.iadd(j0, j0, colbase)
    addr_b = b.reg()
    b.imad(addr_b, j0, b.param("n"), kk0)
    b.imad(addr_b, addr_b, Imm(4), b.param("B"))

    addr_s = b.reg()  # shared store base: word t of the tile
    b.ishl(addr_s, b.tid, Imm(2))

    acc = b.regs(s)
    for reg in acc:
        b.mov(reg, Imm(0))
    a_cur = b.reg()
    # The prefetch register reuses a staging register: tile staging is
    # complete before the compute phase reads A, and each chunk performs
    # an even number of swaps, so lifetimes never overlap.  This keeps
    # the kernel at Table 2's register counts (30 / 58).
    a_next = tmp[0]

    row_stride = 4 * n  # bytes between consecutive columns (column-major)
    with b.counted_loop(chunks):
        # Cooperative B-tile load: coalesced in kk, then staged to shared.
        for e in range(loads_per_thread):
            b.ldg(tmp[e], addr_b, offset=e * (BLOCK_THREADS // s) * row_stride)
        for e in range(loads_per_thread):
            b.sts(tmp[e], addr_s, offset=smem_tile + e * BLOCK_THREADS * 4)
        b.iadd(addr_b, addr_b, Imm(4 * s))
        b.bar()
        # Compute phase: one A element + s MADs per k-step; the MAD's
        # second operand reads the tile directly from shared memory.
        # The A element for step kk+1 is prefetched while step kk's MADs
        # run (Volkov-style software pipelining hides the load latency).
        b.ldg(a_cur, addr_a)
        b.iadd(addr_a, addr_a, Imm(row_stride))
        for kk in range(s):
            if kk + 1 < s:
                b.ldg(a_next, addr_a)
                b.iadd(addr_a, addr_a, Imm(row_stride))
            for j in range(s):
                b.fmad(
                    acc[j],
                    a_cur,
                    b.smem(offset=smem_tile + 4 * (kk + j * s)),
                    acc[j],
                )
            a_cur, a_next = a_next, a_cur
        b.bar()

    for j in range(s):
        b.stg(addr_c, acc[j], offset=j * row_stride)
    b.exit()
    return b.build()


@dataclass
class MatmulProblem:
    """Host-side state of one C = A*B instance."""

    n: int
    tile: int
    gmem: GlobalMemory
    a: np.ndarray
    b: np.ndarray
    base_a: int
    base_b: int
    base_c: int

    def launch(self) -> LaunchConfig:
        return LaunchConfig(
            grid=(self.n // BLOCK_THREADS, self.n // self.tile),
            block_threads=BLOCK_THREADS,
            params={
                "A": self.base_a,
                "B": self.base_b,
                "C": self.base_c,
                "n": self.n,
            },
        )

    def result(self) -> np.ndarray:
        flat = self.gmem.read_array(self.base_c, self.n * self.n)
        return flat.reshape((self.n, self.n), order="F")

    def reference(self) -> np.ndarray:
        return (
            self.a.astype(np.float32) @ self.b.astype(np.float32)
        ).astype(np.float64)


def prepare_problem(n: int, tile: int, seed: int = 7) -> MatmulProblem:
    """Allocate and initialize matrices in device memory (column-major)."""
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1, 1, size=(n, n))
    bmat = rng.uniform(-1, 1, size=(n, n))
    gmem = GlobalMemory()
    base_a = gmem.alloc_array(a.ravel(order="F"), "A")
    base_b = gmem.alloc_array(bmat.ravel(order="F"), "B")
    base_c = gmem.alloc(n * n, "C")
    return MatmulProblem(n, tile, gmem, a, bmat, base_a, base_b, base_c)


def run_matmul(
    n: int,
    tile: int,
    model: PerformanceModel | None = None,
    gpu: HardwareGpu | None = None,
    representative: bool = True,
    measure: bool = True,
    seed: int = 7,
    workers: int = 0,
    trace_cache: str | None = None,
    task_timeout: float | None = None,
    spec: GpuSpec = GTX285,
) -> AppRun:
    """Full workflow on one tile size.

    Representative mode simulates block (0, 0) and scales -- every block
    executes the identical instruction sequence, so statistics are
    exact.  ``representative=False`` covers the full grid through the
    deduplicating engine (exact multiplicities, no extrapolation).
    """
    from repro import obs

    with obs.span("apps.inputs"):
        problem = prepare_problem(n, tile, seed)
        kernel = build_matmul_kernel(n, tile)
    sample = [(0, 0)] if representative else None
    return execute(
        name=f"sgemm {tile}x{tile} (n={n})",
        kernel=kernel,
        gmem=problem.gmem,
        launch=problem.launch(),
        sample_blocks=sample,
        model=model,
        gpu=gpu,
        measure=measure,
        spec=spec,
        workers=workers,
        trace_cache=trace_cache,
        task_timeout=task_timeout,
    )


def validate_matmul(n: int, tile: int, seed: int = 3) -> float:
    """Run the whole grid and return the max abs error vs numpy."""
    problem = prepare_problem(n, tile, seed)
    kernel = build_matmul_kernel(n, tile)
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


def gflops(n: int, seconds: float) -> float:
    """Effective GFLOPS of an n x n x n multiply (2 flops per MAD)."""
    return 2.0 * n**3 / seconds / 1e9
