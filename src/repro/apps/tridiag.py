"""Tridiagonal systems solver: cyclic reduction (paper Section 5.2).

Solves many independent ``n``-equation tridiagonal systems, one system
per block, ``n/2`` threads each, entirely in shared memory:

* **forward reduction**: ``log2(n)`` steps; step ``k`` updates the
  equations at stride ``2**k``, halving the active threads.  The
  power-of-two stride doubles the bank-conflict degree every step
  (2-way, 4-way, 8-way, ... -- paper Fig. 5), so the shared-transaction
  count stays *constant* while useful work halves (Fig. 7b);
* **backward substitution**: mirrors the communication pattern to
  recover all unknowns.

``CR-NBC`` is the paper's padding optimization: one pad word per 16
elements redirects conflicting accesses to distinct banks at the price
of slightly more complex index arithmetic ("minimal extra instruction
overhead"), shifting the bottleneck from shared memory to the
instruction pipeline and speeding the solver up ~1.6x (Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.common import AppRun, execute
from repro.arch.specs import GTX285, GpuSpec
from repro.errors import LaunchError
from repro.hw.gpu import HardwareGpu
from repro.isa.builder import KernelBuilder
from repro.isa.instructions import Imm, Reg
from repro.isa.program import Kernel
from repro.memory.layout import pad_index, padded_length
from repro.model.performance import PerformanceModel
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory

#: Padding interval = number of shared-memory banks.
PAD_EVERY = 16


def _log2(n: int) -> int:
    m = n.bit_length() - 1
    if n <= 1 or (1 << m) != n:
        raise LaunchError(f"system size must be a power of two >= 2, got {n}")
    return m


class _IndexEmitter:
    """Emits shared-memory byte addresses, optionally padded."""

    def __init__(self, b: KernelBuilder, padded: bool) -> None:
        self.b = b
        self.padded = padded
        self._scratch = b.reg() if padded else None

    def static(self, index: int) -> int:
        """Byte offset of a compile-time element index."""
        if self.padded:
            return 4 * pad_index(index, PAD_EVERY)
        return 4 * index

    def emit(self, dst: Reg, index: Reg) -> None:
        """dst = byte address of dynamic element ``index``."""
        b = self.b
        if self.padded:
            b.ishr(self._scratch, index, Imm(4))
            b.iadd(dst, index, self._scratch)
            b.ishl(dst, dst, Imm(2))
        else:
            b.ishl(dst, index, Imm(2))


def build_cr_kernel(n: int, padded: bool = False) -> Kernel:
    """Cyclic reduction kernel for ``n``-equation systems.

    ``padded=True`` builds CR-NBC.  Layout: global arrays ``a, b, c, d``
    (sub-, main-, super-diagonal, rhs) and output ``x`` hold all systems
    back to back; block ``ctaid_x`` owns elements
    ``[ctaid_x * n, (ctaid_x+1) * n)``.
    """
    m = _log2(n)
    half = n // 2
    suffix = "nbc" if padded else "cr"
    b = KernelBuilder(f"tridiag_{suffix}_{n}", params=("a", "b", "c", "d", "x"))

    length = padded_length(n + 1, PAD_EVERY) if padded else n + 1
    offs = {name: b.alloc_shared(length) * 1 for name in ("a", "b", "c", "d", "x")}
    # alloc_shared returns byte offsets already.
    idx = _IndexEmitter(b, padded)

    sysbase = b.reg()
    b.imul(sysbase, b.ctaid_x, Imm(n))

    guard = b.pred()
    aux = b.pred()

    # Working registers for the elimination steps, declared early so the
    # load stage can stage global data through them (batching all loads
    # before the stores keeps the loads pipelined in the memory system,
    # as hand-scheduled native code would).
    a_l, b_l, c_l, d_l = b.regs(4)
    a_e, b_e, c_e, d_e = b.regs(4)
    a_r, b_r, c_r, d_r = b.regs(4)
    k1, k2 = b.regs(2)

    # ------------------------------------------------------------------
    # stage 0: load the system into shared memory (coalesced, 2 per lane)
    # ------------------------------------------------------------------
    gaddr = b.reg()
    value = b.reg()
    saddr1 = b.reg()
    saddr2 = b.reg()
    elem = b.reg()
    b.iadd(elem, sysbase, b.tid)
    staging = (a_l, b_l, c_l, d_l, a_e, b_e, c_e, d_e)
    for i, name in enumerate(("a", "b", "c", "d")):
        b.imad(gaddr, elem, Imm(4), b.param(name))
        b.ldg(staging[2 * i], gaddr)
        b.ldg(staging[2 * i + 1], gaddr, offset=4 * half)
    for lane_offset, saddr in ((0, saddr1), (half, saddr2)):
        target = b.reg()
        b.iadd(target, b.tid, Imm(lane_offset))
        idx.emit(saddr, target)
    for i, name in enumerate(("a", "b", "c", "d")):
        b.sts(staging[2 * i], saddr1, offset=offs[name])
        b.sts(staging[2 * i + 1], saddr2, offset=offs[name])

    # Ghost equation at index n: identity row (b=1, a=c=d=0, x=0) keeps
    # boundary neighbours harmless without divergent special-casing.
    b.isetp(guard, "eq", b.tid, Imm(0))
    one = b.reg()
    zero = b.reg()
    with b.if_then(guard):
        b.mov(one, Imm(1.0))
        b.mov(zero, Imm(0.0))
        ghost = idx.static(n)
        b.sts(one, base=None, offset=offs["b"] + ghost)
        for name in ("a", "c", "d", "x"):
            b.sts(zero, base=None, offset=offs[name] + ghost)
    b.bar()

    eq = b.reg()
    addr_e = b.reg()
    addr_l = b.reg()
    addr_r = b.reg()
    side = b.reg()

    # ------------------------------------------------------------------
    # forward reduction: steps 1..m (paper Fig. 5)
    # ------------------------------------------------------------------
    for k in range(1, m + 1):
        stride = 1 << k
        h = stride >> 1
        active = n >> k
        b.isetp(guard, "lt", b.tid, Imm(active))
        with b.if_then(guard):
            b.ishl(eq, b.tid, Imm(k))
            b.iadd(eq, eq, Imm(stride - 1))
            idx.emit(addr_e, eq)
            b.isub(side, eq, Imm(h))
            idx.emit(addr_l, side)
            b.iadd(side, eq, Imm(h))
            b.imin(side, side, Imm(n))  # clamp to the ghost row
            idx.emit(addr_r, side)
            for reg, addr in (
                ((a_l, b_l, c_l, d_l), addr_l),
                ((a_e, b_e, c_e, d_e), addr_e),
                ((a_r, b_r, c_r, d_r), addr_r),
            ):
                for target, name in zip(reg, ("a", "b", "c", "d")):
                    b.lds(target, addr, offset=offs[name])
            # k1 = a_e / b_l ; k2 = c_e / b_r  (negated for the MADs)
            b.rcp(k1, b_l)
            b.fmul(k1, a_e, k1)
            b.fneg(k1, k1)
            b.rcp(k2, b_r)
            b.fmul(k2, c_e, k2)
            b.fneg(k2, k2)
            # a' = -a_l k1 ; b' = b_e - c_l k1 - a_r k2
            # c' = -c_r k2 ; d' = d_e - d_l k1 - d_r k2
            b.fmul(a_e, a_l, k1)
            b.fmad(b_e, c_l, k1, b_e)
            b.fmad(b_e, a_r, k2, b_e)
            b.fmul(c_e, c_r, k2)
            b.fmad(d_e, d_l, k1, d_e)
            b.fmad(d_e, d_r, k2, d_e)
            for source, name in (
                (a_e, "a"), (b_e, "b"), (c_e, "c"), (d_e, "d")
            ):
                b.sts(source, addr_e, offset=offs[name])
        b.bar()

    # ------------------------------------------------------------------
    # solve the remaining 1-equation system: x[n-1] = d / b
    # ------------------------------------------------------------------
    b.isetp(guard, "eq", b.tid, Imm(0))
    with b.if_then(guard):
        last = idx.static(n - 1)
        b.lds(b_e, base=None, offset=offs["b"] + last)
        b.lds(d_e, base=None, offset=offs["d"] + last)
        b.rcp(b_e, b_e)
        b.fmul(d_e, d_e, b_e)
        b.sts(d_e, base=None, offset=offs["x"] + last)
    b.bar()

    # ------------------------------------------------------------------
    # backward substitution: steps m..1
    # ------------------------------------------------------------------
    for k in range(m, 0, -1):
        stride = 1 << k
        h = stride >> 1
        active = n >> k
        b.isetp(guard, "lt", b.tid, Imm(active))
        with b.if_then(guard):
            b.ishl(eq, b.tid, Imm(k))
            b.iadd(eq, eq, Imm(h - 1))
            idx.emit(addr_e, eq)
            b.iadd(side, eq, Imm(h))
            idx.emit(addr_r, side)
            b.isub(side, eq, Imm(h))
            b.isetp(aux, "lt", side, Imm(0))
            b.sel(side, aux, Imm(n), side)  # left neighbour or ghost
            idx.emit(addr_l, side)
            b.lds(a_e, addr_e, offset=offs["a"])
            b.lds(b_e, addr_e, offset=offs["b"])
            b.lds(c_e, addr_e, offset=offs["c"])
            b.lds(d_e, addr_e, offset=offs["d"])
            b.lds(k1, addr_l, offset=offs["x"])
            b.lds(k2, addr_r, offset=offs["x"])
            # x = (d - a x_left - c x_right) / b
            b.fneg(a_e, a_e)
            b.fmad(d_e, a_e, k1, d_e)
            b.fneg(c_e, c_e)
            b.fmad(d_e, c_e, k2, d_e)
            b.rcp(b_e, b_e)
            b.fmul(d_e, d_e, b_e)
            b.sts(d_e, addr_e, offset=offs["x"])
        b.bar()

    # ------------------------------------------------------------------
    # store the solution (coalesced, mirrors the load)
    # ------------------------------------------------------------------
    b.lds(value, saddr1, offset=offs["x"])
    b.lds(k1, saddr2, offset=offs["x"])
    b.imad(gaddr, elem, Imm(4), b.param("x"))
    b.stg(gaddr, value)
    b.stg(gaddr, k1, offset=4 * half)
    b.exit()
    return b.build()


# ----------------------------------------------------------------------
# host side
# ----------------------------------------------------------------------
@dataclass
class TridiagProblem:
    """Many independent diagonally dominant systems."""

    n: int
    num_systems: int
    gmem: GlobalMemory
    sub: np.ndarray  # (systems, n)
    main: np.ndarray
    sup: np.ndarray
    rhs: np.ndarray
    bases: dict[str, int]

    def launch(self) -> LaunchConfig:
        return LaunchConfig(
            grid=(self.num_systems, 1),
            block_threads=self.n // 2,
            params={name: base for name, base in self.bases.items()},
        )

    def solution(self) -> np.ndarray:
        flat = self.gmem.read_array(self.bases["x"], self.num_systems * self.n)
        return flat.reshape(self.num_systems, self.n)

    def reference(self) -> np.ndarray:
        return np.stack(
            [
                thomas_solve(self.sub[i], self.main[i], self.sup[i], self.rhs[i])
                for i in range(self.num_systems)
            ]
        )


def thomas_solve(
    sub: np.ndarray, main: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Sequential Thomas algorithm (the CPU reference)."""
    n = len(main)
    c_prime = np.zeros(n)
    d_prime = np.zeros(n)
    c_prime[0] = sup[0] / main[0]
    d_prime[0] = rhs[0] / main[0]
    for i in range(1, n):
        denom = main[i] - sub[i] * c_prime[i - 1]
        c_prime[i] = sup[i] / denom
        d_prime[i] = (rhs[i] - sub[i] * d_prime[i - 1]) / denom
    x = np.zeros(n)
    x[-1] = d_prime[-1]
    for i in range(n - 2, -1, -1):
        x[i] = d_prime[i] - c_prime[i] * x[i + 1]
    return x


def prepare_problem(
    n: int, num_systems: int, seed: int = 11
) -> TridiagProblem:
    """Random diagonally dominant systems (well-conditioned for CR)."""
    rng = np.random.default_rng(seed)
    sub = rng.uniform(-1, 1, size=(num_systems, n))
    sup = rng.uniform(-1, 1, size=(num_systems, n))
    sub[:, 0] = 0.0
    sup[:, -1] = 0.0
    main = 4.0 + rng.uniform(0, 1, size=(num_systems, n))
    rhs = rng.uniform(-1, 1, size=(num_systems, n))
    gmem = GlobalMemory()
    bases = {
        "a": gmem.alloc_array(sub.ravel(), "a"),
        "b": gmem.alloc_array(main.ravel(), "b"),
        "c": gmem.alloc_array(sup.ravel(), "c"),
        "d": gmem.alloc_array(rhs.ravel(), "d"),
        "x": gmem.alloc(num_systems * n, "x"),
    }
    return TridiagProblem(n, num_systems, gmem, sub, main, sup, rhs, bases)


def run_cr(
    n: int = 512,
    num_systems: int = 512,
    padded: bool = False,
    model: PerformanceModel | None = None,
    gpu: HardwareGpu | None = None,
    representative: bool = True,
    measure: bool = True,
    seed: int = 11,
    workers: int = 0,
    trace_cache: str | None = None,
    task_timeout: float | None = None,
    spec: GpuSpec = GTX285,
) -> AppRun:
    """The paper's experiment: 512 512-equation systems, CR or CR-NBC."""
    from repro import obs

    with obs.span("apps.inputs"):
        problem = prepare_problem(n, num_systems, seed)
        kernel = build_cr_kernel(n, padded)
    sample = [(0, 0)] if representative else None
    return execute(
        name=f"{'CR-NBC' if padded else 'CR'} (n={n}, systems={num_systems})",
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


def validate_cr(
    n: int, num_systems: int = 4, padded: bool = False, seed: int = 5
) -> float:
    """Solve a full grid and return max abs error vs Thomas."""
    problem = prepare_problem(n, num_systems, seed)
    kernel = build_cr_kernel(n, padded)
    execute(
        name="validate",
        kernel=kernel,
        gmem=problem.gmem,
        launch=problem.launch(),
        sample_blocks=None,
        measure=False,
        engine=False,  # numerical results must land in gmem
    )
    return float(np.max(np.abs(problem.solution() - problem.reference())))


def forward_stage_count(n: int) -> int:
    """Stages covering load + forward reduction (paper Fig. 6's view)."""
    return 1 + _log2(n)
