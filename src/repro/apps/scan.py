"""Work-efficient block-level prefix sum (Blelloch scan).

Each block of ``T`` threads computes the *exclusive* prefix sum of its
contiguous ``T``-element segment in shared memory: an up-sweep builds a
reduction tree (``log2 T`` levels), thread 0 clears the tree root, and
a down-sweep propagates partial sums back down (another ``log2 T``
levels) -- every level separated by a ``bar.sync``, the canonical
"per-level barrier" workload of the GPU-scan literature.  A ``gid < n``
guard predicates the tail block's loads and stores, so grids whose
element count is not a block multiple run partially-active last blocks
without ghost padding.

This is the ROADMAP's "genuinely heterogeneous classes" scenario: the
guard routes ``ctaid`` into control flow, so the simulation engine's
taint analysis refuses single-class dedup and partitions the grid by
boundary role (first/interior/last along x) -- three proof-verified
classes instead of one, with the tail block's shorter activity in its
own last-block class.

Both element types the pipeline models are supported: ``f32`` sums in
float32 operation order (validated bit-exactly against a NumPy
reference replaying the same tree) and ``i32`` sums exactly in integer
arithmetic.
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

#: Default block size: 2 warps, 64 elements per block segment.
BLOCK_THREADS = 64

#: Supported element types (opcode + reference dtype).
DTYPES = ("f32", "i32")


def _log2(value: int) -> int:
    m = value.bit_length() - 1
    if value <= 1 or (1 << m) != value:
        raise LaunchError(
            f"block_threads must be a power of two >= 2, got {value}"
        )
    return m


def scan_stage_count(block_threads: int) -> int:
    """Synchronization stages of one block: load, ``log2 T`` up-sweep
    levels, the root clear, ``log2 T`` down-sweep levels, the store."""
    return 2 * _log2(block_threads) + 3


def build_scan_kernel(
    block_threads: int = BLOCK_THREADS, dtype: str = "f32"
) -> Kernel:
    """Native kernel scanning one ``block_threads``-element segment."""
    m = _log2(block_threads)
    if dtype not in DTYPES:
        raise LaunchError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    t = block_threads
    b = KernelBuilder(f"scan_{t}_{dtype}", params=("src", "out", "n"))
    smem = b.alloc_shared(t)

    def add(dst, x, y):
        (b.fadd if dtype == "f32" else b.iadd)(dst, x, y)

    identity = Imm(0.0) if dtype == "f32" else Imm(0)

    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    active = b.pred()
    b.isetp(active, "lt", gid, b.param("n"))

    # Load (tail-guarded): inactive lanes contribute the sum identity,
    # so the padded tree never changes any active element's prefix.
    val = b.reg()
    b.mov(val, identity)
    with b.if_then(active):
        gaddr = b.reg()
        b.imad(gaddr, gid, Imm(4), b.param("src"))
        b.ldg(val, gaddr)
    saddr = b.reg()
    b.ishl(saddr, b.tid, Imm(2))
    b.sts(val, saddr, offset=smem)
    b.bar()

    guard = b.pred()
    left = b.reg()
    right = b.reg()
    iaddr = b.reg()
    jaddr = b.reg()

    # Up-sweep: level d folds pairs 2**(d+1) apart; thread k handles
    # elements i = 2s*k + 2s - 1 and j = 2s*k + s - 1 (s = 2**d).
    for d in range(m):
        s = 1 << d
        b.isetp(guard, "lt", b.tid, Imm(t >> (d + 1)))
        with b.if_then(guard):
            b.imad(iaddr, b.tid, Imm(2 * s), Imm(2 * s - 1))
            b.ishl(iaddr, iaddr, Imm(2))
            b.imad(jaddr, b.tid, Imm(2 * s), Imm(s - 1))
            b.ishl(jaddr, jaddr, Imm(2))
            b.lds(left, iaddr, offset=smem)
            b.lds(right, jaddr, offset=smem)
            add(left, left, right)
            b.sts(left, iaddr, offset=smem)
        b.bar()

    # Clear the root: the exclusive scan's seed.
    b.isetp(guard, "eq", b.tid, Imm(0))
    with b.if_then(guard):
        b.sts(identity, None, offset=smem + 4 * (t - 1))
    b.bar()

    # Down-sweep: each node passes its value left and the folded sum
    # right, exactly inverting the up-sweep's pairing.
    for d in range(m - 1, -1, -1):
        s = 1 << d
        b.isetp(guard, "lt", b.tid, Imm(t >> (d + 1)))
        with b.if_then(guard):
            b.imad(iaddr, b.tid, Imm(2 * s), Imm(2 * s - 1))
            b.ishl(iaddr, iaddr, Imm(2))
            b.imad(jaddr, b.tid, Imm(2 * s), Imm(s - 1))
            b.ishl(jaddr, jaddr, Imm(2))
            b.lds(left, iaddr, offset=smem)
            b.lds(right, jaddr, offset=smem)
            b.sts(left, jaddr, offset=smem)
            add(left, left, right)
            b.sts(left, iaddr, offset=smem)
        b.bar()

    # Store (tail-guarded).
    b.lds(val, saddr, offset=smem)
    with b.if_then(active):
        oaddr = b.reg()
        b.imad(oaddr, gid, Imm(4), b.param("out"))
        b.stg(oaddr, val)
    b.exit()
    return b.build()


@dataclass
class ScanProblem:
    """Host-side state of one segmented exclusive-scan launch."""

    n: int
    block_threads: int
    dtype: str
    num_blocks: int
    gmem: GlobalMemory
    data: np.ndarray  # n values
    base_src: int
    base_out: int

    def launch(self) -> LaunchConfig:
        return LaunchConfig(
            grid=(self.num_blocks, 1),
            block_threads=self.block_threads,
            params={"src": self.base_src, "out": self.base_out, "n": self.n},
        )

    def result(self) -> np.ndarray:
        return self.gmem.read_array(self.base_out, self.n)

    def reference(self) -> np.ndarray:
        """Per-segment exclusive scans in the kernel's exact tree order.

        Replays the Blelloch up-/down-sweep over each zero-padded
        segment -- in float32 for ``f32`` (identical operation order,
        so the comparison is bit-exact) and in exact integers for
        ``i32``.
        """
        t = self.block_threads
        m = _log2(t)
        padded = np.zeros(self.num_blocks * t, dtype=np.float64)
        padded[: self.n] = self.data
        work = padded.reshape(self.num_blocks, t)
        a = (
            work.astype(np.float32)
            if self.dtype == "f32"
            else work.astype(np.int64)
        )
        for d in range(m):
            s = 1 << d
            k = np.arange(t >> (d + 1))
            i = 2 * s * k + 2 * s - 1
            j = 2 * s * k + s - 1
            a[:, i] = a[:, i] + a[:, j]
        a[:, t - 1] = 0
        for d in range(m - 1, -1, -1):
            s = 1 << d
            k = np.arange(t >> (d + 1))
            i = 2 * s * k + 2 * s - 1
            j = 2 * s * k + s - 1
            folded = a[:, i] + a[:, j]
            a[:, j] = a[:, i]
            a[:, i] = folded
        return a.reshape(-1)[: self.n].astype(np.float64)


def prepare_problem(
    n: int = 1000,
    block_threads: int = BLOCK_THREADS,
    dtype: str = "f32",
    seed: int = 29,
) -> ScanProblem:
    _log2(block_threads)
    if dtype not in DTYPES:
        raise LaunchError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    if n <= 0:
        raise LaunchError("n must be positive")
    rng = np.random.default_rng(seed)
    if dtype == "f32":
        data = rng.uniform(-1, 1, size=n)
    else:
        data = rng.integers(-50, 50, size=n).astype(np.float64)
    num_blocks = -(-n // block_threads)
    gmem = GlobalMemory()
    base_src = gmem.alloc_array(data, "src")
    base_out = gmem.alloc(n, "out")
    return ScanProblem(
        n, block_threads, dtype, num_blocks, gmem, data, base_src, base_out
    )


def run_scan(
    n: int = 1000,
    block_threads: int = BLOCK_THREADS,
    dtype: str = "f32",
    model: PerformanceModel | None = None,
    gpu: HardwareGpu | None = None,
    representative: bool = True,
    measure: bool = True,
    seed: int = 29,
    workers: int = 0,
    trace_cache: str | None = None,
) -> AppRun:
    """Full workflow on one segmented-scan launch."""
    problem = prepare_problem(n, block_threads, dtype, seed)
    kernel = build_scan_kernel(block_threads, dtype)
    sample = [(0, 0)] if representative else None
    return execute(
        name=f"scan {dtype} n={n} ({problem.num_blocks} blocks)",
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


def validate_scan(
    n: int = 500,
    block_threads: int = BLOCK_THREADS,
    dtype: str = "f32",
    seed: int = 7,
) -> float:
    """Run the full grid and return the max abs error vs the reference
    (operation orders match, so this is exactly 0.0)."""
    problem = prepare_problem(n, block_threads, dtype, seed)
    kernel = build_scan_kernel(block_threads, dtype)
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
