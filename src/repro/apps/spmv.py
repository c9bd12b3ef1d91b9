"""Sparse matrix-vector multiply: ELL and blocked-ELL (Section 5.3).

Three storage formats, exactly the paper's progression (Figs. 9-12):

* **ELL** -- one thread per row; matrix values and column indices are
  stored slot-major so consecutive threads read consecutive words
  (coalesced); vector-entry reads follow the column indices and are the
  uncoalesced, data-dependent part that dominates performance;
* **BELL+IM** -- 3x3 blocked ELLPACK with *interleaved matrix* storage:
  one thread per block row, one column index per block (1/9th of the
  index traffic), matrix entries stored sub-entry-major so each of the
  nine loads per block is coalesced across threads (paper Fig. 9d);
* **BELL+IMIV** -- additionally stores the *vector* interleaved, the
  paper's novel optimization: neighbouring rows have similar column
  positions, and interleaving scatters each block column's three vector
  words so nearby threads' requests land in the same transaction
  (paper Fig. 10b), cutting vector bytes per entry.

The x vector can be bound to the texture cache (hardware simulator) to
regenerate the paper's "+Cache" variants (Fig. 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import AppRun, execute
from repro.arch.specs import GTX285, GpuSpec
from repro.apps.matrices import BlockSparseMatrix
from repro.errors import LaunchError
from repro.hw.gpu import HardwareGpu
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Imm
from repro.isa.program import Kernel
from repro.memory.layout import deinterleave, interleave
from repro.model.performance import PerformanceModel
from repro.sim.functional import LaunchConfig
from repro.sim.launch import evenly_spaced_blocks
from repro.sim.memory import GlobalMemory

BLOCK_THREADS = 64

#: The three storage formats of Figs. 11-12.
FORMATS = ("ell", "bell_im", "bell_imiv")

#: Coalescing granularities the paper's Fig. 11 evaluates.
GRANULARITIES = (32, 16, 4)


def build_ell_kernel(width: int, n: int) -> Kernel:
    """Scalar ELL SpMV: thread per row, ``width`` entries each."""
    if width < 1:
        raise LaunchError("ELL width must be positive")
    b = KernelBuilder(f"spmv_ell_w{width}", params=("vals", "cols", "x", "y", "n"))
    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    guard = b.pred()
    b.isetp(guard, "lt", gid, b.param("n"))
    with b.if_then(guard):
        pv = b.reg()
        pc = b.reg()
        b.imad(pv, gid, Imm(4), b.param("vals"))
        b.imad(pc, gid, Imm(4), b.param("cols"))
        acc = b.reg()
        b.mov(acc, Imm(0))
        val = b.reg()
        col = b.reg()
        va = b.reg()
        xv = b.reg()
        for e in range(width):
            offset = 4 * e * n
            b.ldg(val, pv, offset=offset)
            b.ldg(col, pc, offset=offset)
            b.imad(va, col, Imm(4), b.param("x"))
            b.ldg(xv, va)
            b.fmad(acc, val, xv, acc)
        out = b.reg()
        b.imad(out, gid, Imm(4), b.param("y"))
        b.stg(out, acc)
    b.exit()
    return b.build()


def build_bell_kernel(
    slots: int, block_rows: int, interleaved_vector: bool
) -> Kernel:
    """Blocked-ELL SpMV (3x3 blocks): thread per block row.

    Matrix storage is always interleaved (IM); ``interleaved_vector``
    selects BELL+IMIV.  Output y is written interleaved (coalesced) and
    de-interleaved on the host.
    """
    if slots < 1:
        raise LaunchError("BELL needs at least one block slot")
    tag = "imiv" if interleaved_vector else "im"
    b = KernelBuilder(
        f"spmv_bell_{tag}_s{slots}", params=("vals", "cols", "x", "y", "nbr")
    )
    br = b.reg()
    b.imad(br, b.ctaid_x, b.ntid, b.tid)
    guard = b.pred()
    b.isetp(guard, "lt", br, b.param("nbr"))
    with b.if_then(guard):
        vb = b.reg()
        cb = b.reg()
        b.imad(vb, br, Imm(4), b.param("vals"))
        b.imad(cb, br, Imm(4), b.param("cols"))
        acc = b.regs(3)
        for reg in acc:
            b.mov(reg, Imm(0))
        vals = b.regs(9)
        xs = b.regs(3)
        col = b.reg()
        va = b.reg()
        for e in range(slots):
            b.ldg(col, cb, offset=4 * e * block_rows)
            for sub in range(9):
                b.ldg(vals[sub], vb, offset=4 * (e * 9 + sub) * block_rows)
            if interleaved_vector:
                # x'[j * nbr + c]: the three words are far apart, but at
                # fixed j neighbouring threads' block columns cluster.
                b.imad(va, col, Imm(4), b.param("x"))
                for j in range(3):
                    b.ldg(xs[j], va, offset=4 * j * block_rows)
            else:
                # natural x[3c + j]
                b.imad(va, col, Imm(12), b.param("x"))
                for j in range(3):
                    b.ldg(xs[j], va, offset=4 * j)
            for i in range(3):
                for j in range(3):
                    b.fmad(acc[i], vals[i * 3 + j], xs[j], acc[i])
        yb = b.reg()
        b.imad(yb, br, Imm(4), b.param("y"))
        for i in range(3):
            b.stg(yb, acc[i], offset=4 * i * block_rows)
    b.exit()
    return b.build()


# ----------------------------------------------------------------------
# host side
# ----------------------------------------------------------------------
@dataclass
class SpmvProblem:
    """One prepared SpMV instance in device memory."""

    fmt: str
    matrix: BlockSparseMatrix
    gmem: GlobalMemory
    x: np.ndarray
    params: dict[str, float]
    grid_blocks: int
    y_base: int

    def launch(self, record_segments: bool = True) -> LaunchConfig:
        return LaunchConfig(
            grid=(self.grid_blocks, 1),
            block_threads=BLOCK_THREADS,
            params=self.params,
            granularities=GRANULARITIES,
            record_segments=record_segments,
        )

    def result(self) -> np.ndarray:
        n = self.matrix.n
        raw = self.gmem.read_array(self.y_base, n)
        if self.fmt == "ell":
            return raw
        return deinterleave(raw, self.matrix.block_size)

    def reference(self) -> np.ndarray:
        return self.matrix.multiply(self.x)


def prepare_problem(
    matrix: BlockSparseMatrix, fmt: str, seed: int = 13
) -> SpmvProblem:
    """Lay the matrix and a random vector out in device memory."""
    if fmt not in FORMATS:
        raise LaunchError(f"unknown SpMV format {fmt!r}; expected {FORMATS}")
    rng = np.random.default_rng(seed)
    n = matrix.n
    x = rng.uniform(-1, 1, size=n)
    gmem = GlobalMemory()

    if fmt == "ell":
        values, columns = matrix.to_ell()
        # slot-major: entry (row, e) at word e*n + row (coalesced in row)
        base_vals = gmem.alloc_array(values.T.ravel(), "vals")
        base_cols = gmem.alloc_array(columns.T.ravel(), "cols")
        base_x = gmem.alloc_array(x, "x")
        base_y = gmem.alloc(n, "y")
        grid_blocks = -(-n // BLOCK_THREADS)
        params = {
            "vals": base_vals,
            "cols": base_cols,
            "x": base_x,
            "y": base_y,
            "n": n,
        }
    else:
        nbr = matrix.block_rows
        bsz = matrix.block_size
        # (slot, sub, block_row) order: each of the 9 sub-entry streams
        # is contiguous across threads -- the interleaved matrix (IM).
        vals_im = np.transpose(matrix.values, (1, 2, 3, 0)).reshape(
            matrix.slots, bsz * bsz, nbr
        )
        base_vals = gmem.alloc_array(vals_im.ravel(), "vals")
        base_cols = gmem.alloc_array(matrix.block_cols.T.ravel(), "cols")
        stored_x = interleave(x, bsz) if fmt == "bell_imiv" else x
        base_x = gmem.alloc_array(stored_x, "x")
        base_y = gmem.alloc(n, "y")
        grid_blocks = -(-nbr // BLOCK_THREADS)
        params = {
            "vals": base_vals,
            "cols": base_cols,
            "x": base_x,
            "y": base_y,
            "nbr": nbr,
        }
    gmem.mark_cacheable("x")
    return SpmvProblem(fmt, matrix, gmem, x, params, grid_blocks, base_y)


def build_kernel_for(problem: SpmvProblem) -> Kernel:
    matrix = problem.matrix
    if problem.fmt == "ell":
        return build_ell_kernel(matrix.slots * matrix.block_size, matrix.n)
    return build_bell_kernel(
        matrix.slots, matrix.block_rows, problem.fmt == "bell_imiv"
    )


def run_spmv(
    matrix: BlockSparseMatrix,
    fmt: str,
    model: PerformanceModel | None = None,
    gpu: HardwareGpu | None = None,
    use_cache: bool = False,
    sample_blocks: int | None = 12,
    measure: bool = True,
    seed: int = 13,
    workers: int = 0,
    trace_cache: str | None = None,
    task_timeout: float | None = None,
    spec: GpuSpec = GTX285,
) -> AppRun:
    """Full workflow on one storage format.

    ``sample_blocks`` controls representative sampling (None = whole
    grid, exact); samples are spread evenly so data-dependent vector
    access patterns are representative (paper Section 3: dynamic
    statistics "enable us to handle data-dependent applications").
    SpMV traces are data-dependent, so the engine cannot deduplicate
    blocks -- ``workers`` fans the full grid out across processes and
    ``trace_cache`` memoizes repeat launches instead.  The paper-figure
    benchmarks default to exact grids (``sample_blocks=None``) now that
    parallel full grids are cheap, keeping ``--sample`` as an opt-in.
    """
    from repro import obs

    with obs.span("apps.inputs"):
        problem = prepare_problem(matrix, fmt, seed)
        kernel = build_kernel_for(problem)
    launch = problem.launch()
    sample = (
        evenly_spaced_blocks(launch, sample_blocks)
        if sample_blocks is not None
        else None
    )
    return execute(
        name=f"spmv {fmt} ({matrix.n}x{matrix.n})",
        kernel=kernel,
        gmem=problem.gmem,
        launch=launch,
        sample_blocks=sample,
        model=model,
        gpu=gpu,
        measure=measure,
        use_cache=use_cache,
        spec=spec,
        workers=workers,
        trace_cache=trace_cache,
        task_timeout=task_timeout,
    )


def validate_spmv(matrix: BlockSparseMatrix, fmt: str, seed: int = 9) -> float:
    """Whole-grid run; max abs error against the dense reference."""
    problem = prepare_problem(matrix, fmt, seed)
    kernel = build_kernel_for(problem)
    execute(
        name="validate",
        kernel=kernel,
        gmem=problem.gmem,
        launch=problem.launch(record_segments=False),
        sample_blocks=None,
        measure=False,
        engine=False,  # numerical results must land in gmem
    )
    return float(np.max(np.abs(problem.result() - problem.reference())))


def gflops(matrix: BlockSparseMatrix, seconds: float) -> float:
    """Effective GFLOPS: 2 flops per stored nonzero (paper Fig. 12)."""
    return 2.0 * matrix.nnz / seconds / 1e9


def bytes_per_entry(run: AppRun, matrix: BlockSparseMatrix) -> dict[str, dict[int, float]]:
    """Average transferred bytes per matrix entry, by array and
    granularity (regenerates paper Fig. 11a)."""
    totals = run.trace.totals
    out: dict[str, dict[int, float]] = {}
    for array in ("vals", "cols", "x"):
        per_gran = totals.global_by_array.get(array, {})
        out[array] = {
            gran: nbytes / matrix.nnz for gran, (_, nbytes) in per_gran.items()
        }
    return out
