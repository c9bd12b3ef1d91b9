"""Concolic affine interpretation over the kernel ISA.

:func:`trace_block_class` executes ONE symbolic block per dedup class,
sharing the instruction semantics of the functional simulator.  Each
lane carries a concrete *anchor* value (the class's minimum-ctaid
member, evaluated with the exact float32/int64 semantics of
``_EVAL_TABLE``) plus two exact integer strides ``d(value)/d(ctaid_x)``
and ``d(value)/d(ctaid_y)`` and a ``top`` flag.  Affine values are
exact for every member of the class; anything nonlinear in ctaid
degrades to ``top``.  Predicates additionally track *class uniformity*,
decided by evaluating the comparison at the corners of the class's
ctaid box (an affine function attains its extremes at box corners, so
corner agreement is a proof, not a heuristic).

The static question "can ``ctaid`` or loaded data change a block's
trace?" is answered once, launch-independently, by the taint pass
``analyze_dependence`` in ``sim/engine.py``; this module works per
launch and per class.

The tracer is the evidence source for both the dedup soundness proof
(:mod:`repro.analysis.dedup_proof`) and the static checker
(:mod:`repro.analysis.checks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.specs import WARP_SIZE
from repro.isa.opcodes import Opcode, OpKind
from repro.isa.program import Kernel
from repro.sim.functional import (
    _CMP_FUNCS,
    _EVAL_TABLE,
    _Decoded,
    LaunchConfig,
)

_LINEAR_SIGN = {Opcode.IADD: 1, Opcode.ISUB: -1}

_LOAD_KINDS = (OpKind.LOAD_GLOBAL, OpKind.LOAD_SHARED)
_STORE_KINDS = (OpKind.STORE_GLOBAL, OpKind.STORE_SHARED)


# --------------------------------------------------------------------------
# Concolic per-class tracer
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassBox:
    """Inclusive ctaid rectangle covered by one dedup class."""

    x0: int
    x1: int
    y0: int
    y1: int

    @classmethod
    def from_members(cls, members) -> ClassBox | None:
        """The bounding box, or None if members don't tile a rectangle."""
        xs = [m[0] for m in members]
        ys = [m[1] for m in members]
        box = cls(min(xs), max(xs), min(ys), max(ys))
        if box.count != len(set(members)):
            return None
        return box

    @property
    def count(self) -> int:
        return (self.x1 - self.x0 + 1) * (self.y1 - self.y0 + 1)

    @property
    def anchor(self) -> tuple[int, int]:
        return (self.x0, self.y0)

    @property
    def deltas(self) -> tuple[tuple[int, int], ...]:
        """Corner offsets relative to the anchor."""
        dx, dy = self.x1 - self.x0, self.y1 - self.y0
        corners = {(0, 0), (dx, 0), (0, dy), (dx, dy)}
        return tuple(sorted(corners))

    def extremes(self, sx: np.ndarray, sy: np.ndarray):
        """Min/max over the box of ``sx*dx + sy*dy`` (affine => corners)."""
        offsets = np.stack([sx * dx + sy * dy for dx, dy in self.deltas])
        return offsets.min(axis=0), offsets.max(axis=0)


@dataclass
class GlobalAccess:
    """One global-memory instruction issue observed by the tracer."""

    index: int
    warp: int
    store: bool
    lanes: np.ndarray  # active lane indices within the warp
    addresses: np.ndarray  # anchor byte addresses, int64, one per lane
    stride_x: np.ndarray  # d(address)/d(ctaid_x) per lane, int64
    stride_y: np.ndarray
    unknown: bool = False  # some active lane's address is top


@dataclass
class SharedAccess:
    """One shared-memory touch (load / store / arithmetic operand)."""

    stage: int
    index: int
    warp: int
    kind: str  # 'load' | 'store' | 'operand'
    lanes: np.ndarray
    addresses: np.ndarray  # anchor byte addresses, int64
    strided: bool = False  # address varies across class members
    unknown: bool = False

    @property
    def store(self) -> bool:
        return self.kind == "store"


@dataclass
class ClassTrace:
    """Everything the symbolic execution of one class observed."""

    kernel: str
    box: ClassBox
    stages: int = 0
    global_accesses: list = field(default_factory=list)
    shared_accesses: list = field(default_factory=list)
    #: (index, kind) pairs where control varies across class members.
    nonuniform_control: list = field(default_factory=list)
    #: (index,) of the first shared access whose address varies across
    #: class members, or None.  Recorded even when per-warp shared
    #: access records are disabled (the dedup proof's lean mode).
    shared_strided: tuple | None = None
    #: (index, warp) if a barrier was reached by a divergent warp.
    divergent_barrier: tuple | None = None
    #: (index, code, message) if the trace aborted early.
    incomplete: tuple | None = None
    #: (index, register) pairs reading a never-written register.
    uninit_reads: list = field(default_factory=list)
    #: static instruction -> dynamic register-write instances.
    register_writes: dict = field(default_factory=dict)
    #: static instruction -> instances overwritten before any read.
    clobbered_writes: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.incomplete is None


class _Abort(Exception):
    """Internal: the tracer cannot continue soundly."""

    def __init__(self, index: int, code: str, message: str) -> None:
        super().__init__(message)
        self.index = index
        self.code = code
        self.message = message


class _TracerWarp:
    __slots__ = (
        "index",
        "rows",
        "pc",
        "exited",
        "at_barrier",
        "issued",
        "cur",
        "converged",
    )

    def __init__(self, index: int, alive: np.ndarray) -> None:
        self.index = index
        self.rows = np.arange(
            index * WARP_SIZE, (index + 1) * WARP_SIZE, dtype=np.intp
        )
        self.pc = np.zeros(WARP_SIZE, dtype=np.int64)
        self.exited = ~alive
        self.at_barrier = False
        self.issued = 0
        #: Cached min PC over live lanes; maintained incrementally
        #: (straight-line steps advance it without a reduction).
        self.cur = 0
        #: True while every lane is alive at the same PC -- the step
        #: mask is then all-ones and never needs to be computed.  Sticky
        #: False once the warp diverges or loses a lane (conservative:
        #: reconvergence is not detected, only costs the fast path).
        self.converged = bool(alive.all())

    @property
    def done(self) -> bool:
        return bool(self.exited.all())

    def recompute_cur(self) -> None:
        if not self.done:
            self.cur = int(self.pc[~self.exited].min())


class _Group:
    """Warps executing the same instruction in one batched step.

    ``rows`` stacks the member warps' register-file rows (warp-index
    order), so every array in a step is ``(len(warps) * 32,)`` and the
    slice ``[i*32:(i+1)*32]`` recovers warp ``warps[i]``.  Built by
    :meth:`_ClassTracer._make_group`, which caches ``rows`` per warp
    combination and shares a read-only all-ones ``mask`` whenever every
    member warp is converged (``converged`` is then True).
    """

    __slots__ = ("warps", "rows", "mask", "n", "converged")

    def __init__(
        self, warps: list, rows: np.ndarray, mask: np.ndarray, converged: bool
    ) -> None:
        self.warps = warps
        self.rows = rows
        self.mask = mask
        self.n = len(warps) * WARP_SIZE
        self.converged = converged


#: Lane indices of a fully-active warp, shared by every access record.
_FULL_WARP_LANES = np.arange(WARP_SIZE)
_FULL_WARP_LANES.setflags(write=False)


class _Sym:
    """A per-lane symbolic value: anchor + ctaid strides + top mask.

    ``strided`` is computed lazily and cached: callers must not rebind
    ``sx``/``sy`` after the first ``strided`` access (in practice the
    arrays are only assigned while a sym is being constructed).
    """

    __slots__ = ("val", "sx", "sy", "top", "_strided")

    def __init__(self, val, sx=None, sy=None, top=None):
        self.val = val
        self.sx = np.zeros(val.shape) if sx is None else sx
        self.sy = np.zeros(val.shape) if sy is None else sy
        self.top = np.zeros(val.shape, dtype=bool) if top is None else top
        self._strided = None

    @property
    def strided(self) -> np.ndarray:
        if self._strided is None:
            self._strided = (self.sx != 0) | (self.sy != 0)
        return self._strided


#: Comparison -> class-uniformity test given the (lo, hi) range over the
#: class box of the operand difference ``f = a - b``.  An order
#: comparison cuts a half-space, so the box lies wholly inside or
#: outside iff its corners do.  Equality needs the zero-crossing tests:
#: ``f == 0`` everywhere (corner-pinned) or ``f != 0`` everywhere (the
#: box range excludes zero) -- corner *agreement* alone would miss an
#: interior zero crossing.
_UNIFORM_TESTS = {
    "lt": lambda lo, hi: (hi < 0) | (lo >= 0),
    "le": lambda lo, hi: (hi <= 0) | (lo > 0),
    "gt": lambda lo, hi: (lo > 0) | (hi <= 0),
    "ge": lambda lo, hi: (lo >= 0) | (hi < 0),
    "eq": lambda lo, hi: ((lo == 0) & (hi == 0)) | (lo > 0) | (hi < 0),
    "ne": lambda lo, hi: ((lo == 0) & (hi == 0)) | (lo > 0) | (hi < 0),
}


class _ClassTracer:
    def __init__(
        self,
        kernel: Kernel,
        launch: LaunchConfig,
        box: ClassBox,
        max_warp_instructions: int,
        track_registers: bool = True,
        record_shared_accesses: bool = True,
    ) -> None:
        self.kernel = kernel
        self.launch = launch
        self.box = box
        self.max_warp_instructions = max_warp_instructions
        self.track_registers = track_registers
        self.record_shared_accesses = record_shared_accesses
        self.decoded = [_Decoded(i, kernel.labels) for i in kernel.instructions]

        threads = launch.block_threads
        num_warps = launch.warps_per_block
        padded = num_warps * WARP_SIZE
        nregs = max(kernel.num_registers, 1)
        npreds = max(kernel.num_predicates, 1)
        lane_ids = np.arange(WARP_SIZE)

        self.R = np.zeros((padded, nregs))
        self.RSX = np.zeros((padded, nregs))
        self.RSY = np.zeros((padded, nregs))
        self.RTOP = np.zeros((padded, nregs), dtype=bool)
        self.RW = np.zeros((padded, nregs), dtype=bool)
        for name, value in launch.params.items():
            reg = kernel.param_regs[name]
            self.R[:, reg] = float(value)
            self.RW[:, reg] = True

        # Predicates default to False on every member, hence uniform and
        # known: guarded-SETP-then-branch is an established idiom.
        self.P = np.zeros((padded, npreds), dtype=bool)
        self.PU = np.ones((padded, npreds), dtype=bool)
        self.PK = np.ones((padded, npreds), dtype=bool)

        # Monotone dirty flags: once a register column (or predicate)
        # may carry a stride / top / nonuniformity, its flag sticks.
        # A False flag lets operand fetches and guard checks skip the
        # gather entirely and reuse a shared read-only zero array --
        # the dominant per-step saving on affine kernels, where almost
        # every register is stride-free.
        self.reg_sx_dirty = [False] * nregs
        self.reg_sy_dirty = [False] * nregs
        self.reg_top_dirty = [False] * nregs
        self.pred_unknown = [False] * npreds
        self.pred_nonuniform = [False] * npreds
        self._zero_f: dict = {}
        self._zero_b: dict = {}
        self._one_b: dict = {}
        #: Concatenated row indices per warp combination, built once.
        self._rows_cache: dict = {}

        words = kernel.shared_memory_words
        self.smem_bytes = words * 4
        self.SM = np.zeros(max(words, 1))
        self.SMSX = np.zeros(max(words, 1))
        self.SMSY = np.zeros(max(words, 1))
        self.SMTOP = np.zeros(max(words, 1), dtype=bool)
        #: Set once a store lands at a class-varying address; every
        #: later load is top.
        self.smem_poisoned = False
        #: Monotone: some shared word may carry a stride / top value.
        self.smem_sxy_dirty = False
        self.smem_top_dirty = False

        self.tid = np.arange(padded, dtype=float)
        self.special_scalars = {
            "ntid": float(threads),
            "ctaid_x": float(box.x0),
            "ctaid_y": float(box.y0),
            "nctaid_x": float(launch.grid[0]),
            "nctaid_y": float(launch.grid[1]),
        }

        self.warps = [
            _TracerWarp(w, (w * WARP_SIZE + lane_ids) < threads)
            for w in range(num_warps)
        ]
        self.stage = 0
        self.trace = ClassTrace(kernel.name, box)
        self._nonuniform_seen: set = set()
        self._uninit_seen: set = set()
        # Dead-store bookkeeping: which static instruction last wrote
        # each (lane, register), and whether that write was read since.
        self.last_writer = np.full((padded, nregs), -1, dtype=np.int64)
        self.read_since = np.zeros((padded, nregs), dtype=bool)

    # -- shared immutable scratch ------------------------------------------

    def _zeros(self, n: int) -> np.ndarray:
        arr = self._zero_f.get(n)
        if arr is None:
            arr = np.zeros(n)
            arr.setflags(write=False)
            self._zero_f[n] = arr
        return arr

    def _zerob(self, n: int) -> np.ndarray:
        arr = self._zero_b.get(n)
        if arr is None:
            arr = np.zeros(n, dtype=bool)
            arr.setflags(write=False)
            self._zero_b[n] = arr
        return arr

    def _oneb(self, n: int) -> np.ndarray:
        arr = self._one_b.get(n)
        if arr is None:
            arr = np.ones(n, dtype=bool)
            arr.setflags(write=False)
            self._one_b[n] = arr
        return arr

    # -- driver ------------------------------------------------------------

    def run(self) -> ClassTrace:
        try:
            with np.errstate(all="ignore"):
                while True:
                    self._run_interval()
                    waiting = [w for w in self.warps if w.at_barrier]
                    if not waiting:
                        break
                    for warp in waiting:
                        warp.at_barrier = False
                    self.stage += 1
        except _Abort as abort:
            self.trace.incomplete = (abort.index, abort.code, abort.message)
        self.trace.stages = self.stage + 1
        return self.trace

    def _run_interval(self) -> None:
        """Run every warp to its next barrier (or exit), in lockstep.

        Warps whose current PC coincides execute as one batched step
        over their stacked rows -- for uniform-control kernels every
        warp of the block shares each step, so the NumPy dispatch
        overhead is paid once per *instruction*, not once per warp.
        Warps at distinct PCs simply land in distinct groups; order
        between groups within one pass is fixed (ascending PC) so
        traces stay deterministic.
        """
        while True:
            groups: dict = {}
            for warp in self.warps:
                if warp.done or warp.at_barrier:
                    continue
                groups.setdefault(warp.cur, []).append(warp)
            if not groups:
                return
            for cur in sorted(groups):
                self._step(cur, groups[cur])

    def _make_group(self, warps: list, cur: int) -> _Group:
        converged = all(w.converged for w in warps)
        if len(warps) == 1:
            warp = warps[0]
            if converged:
                return _Group(warps, warp.rows, self._oneb(WARP_SIZE), True)
            mask = ~warp.exited & (warp.pc == cur)
            return _Group(warps, warp.rows, mask, False)
        key = tuple(w.index for w in warps)
        rows = self._rows_cache.get(key)
        if rows is None:
            rows = np.concatenate([w.rows for w in warps])
            rows.setflags(write=False)
            self._rows_cache[key] = rows
        if converged:
            return _Group(warps, rows, self._oneb(len(warps) * WARP_SIZE), True)
        mask = np.concatenate(
            [
                np.ones(WARP_SIZE, dtype=bool)
                if w.converged
                else ~w.exited & (w.pc == cur)
                for w in warps
            ]
        )
        return _Group(warps, rows, mask, False)

    def _step(self, cur: int, warps: list) -> None:
        decoded = self.decoded[cur]
        kind = decoded.kind

        for warp in warps:
            warp.issued += 1
            if warp.issued > self.max_warp_instructions:
                raise _Abort(
                    cur,
                    "runaway",
                    f"warp {warp.index} exceeded "
                    f"{self.max_warp_instructions} instructions",
                )

        if kind == OpKind.EXIT:
            for warp in warps:
                warp.exited |= warp.pc == cur
                warp.recompute_cur()
            return
        if kind == OpKind.BARRIER:
            for warp in warps:
                if warp.converged:
                    # Every lane alive at the same PC: trivially
                    # converged at the barrier.
                    warp.at_barrier = True
                    warp.pc.fill(cur + 1)
                    warp.cur = cur + 1
                    continue
                alive = ~warp.exited
                mask = alive & (warp.pc == cur)
                if not np.array_equal(mask, alive):
                    self.trace.divergent_barrier = (cur, warp.index)
                    raise _Abort(
                        cur,
                        "barrier-divergence",
                        f"warp {warp.index} reached bar.sync with "
                        f"{int(mask.sum())} of {int(alive.sum())} "
                        "threads converged",
                    )
                warp.at_barrier = True
                warp.pc[alive] = cur + 1
                warp.cur = cur + 1
            return

        group = self._make_group(warps, cur)
        mask = group.mask
        active = self._guard_active(group, decoded, mask, cur)
        if kind == OpKind.BRANCH:
            # A guarded branch taken by only part of a converged warp
            # splits its lanes (sticky: reconvergence is not detected).
            if decoded.target >= 0 and active is not mask:
                for i, warp in enumerate(warps):
                    if not warp.converged:
                        continue
                    taken = active[i * WARP_SIZE : (i + 1) * WARP_SIZE]
                    if not (taken.all() or not taken.any()):
                        warp.converged = False
            for i, warp in enumerate(warps):
                part = slice(i * WARP_SIZE, (i + 1) * WARP_SIZE)
                warp.pc[mask[part]] = cur + 1
                if decoded.target >= 0:
                    warp.pc[active[part]] = decoded.target
                warp.recompute_cur()
            return

        if group.converged:
            for warp in warps:
                warp.cur = cur + 1
                warp.pc.fill(cur + 1)
        else:
            for warp in warps:
                warp.cur = cur + 1
            for i, warp in enumerate(warps):
                warp.pc[mask[i * WARP_SIZE : (i + 1) * WARP_SIZE]] = cur + 1
        if not active.any():
            return
        if self.track_registers:
            self._note_reads(group, decoded, active, cur)
        if kind in (OpKind.ARITH, OpKind.SELECT):
            self._exec_arith(group, decoded, active, cur)
        elif kind == OpKind.SETP:
            self._exec_setp(group, decoded, active, cur)
        elif kind in _LOAD_KINDS:
            self._exec_load(group, decoded, active, cur)
        elif kind in _STORE_KINDS:
            self._exec_store(group, decoded, active, cur)
        # NOP: nothing to do.

    # -- bookkeeping -------------------------------------------------------

    def _guard_active(self, group, decoded, mask, cur) -> np.ndarray:
        if decoded.guard is None:
            return mask
        pidx, want = decoded.guard
        rows = group.rows
        if self.pred_unknown[pidx] and bool(
            (mask & ~self.PK[rows, pidx]).any()
        ):
            raise _Abort(
                cur,
                "data-control",
                f"control depends on a data-dependent predicate %p{pidx}",
            )
        if self.pred_nonuniform[pidx] and bool(
            (mask & ~self.PU[rows, pidx]).any()
        ):
            key = (cur, "guard")
            if key not in self._nonuniform_seen:
                self._nonuniform_seen.add(key)
                self.trace.nonuniform_control.append(key)
        if want:
            return mask & self.P[rows, pidx]
        return mask & ~self.P[rows, pidx]

    def _note_reads(self, group, decoded, active, cur) -> None:
        rows = group.rows
        act_rows = rows[active]
        for reg in decoded.reads:
            unwritten = active & ~self.RW[rows, reg]
            if unwritten.any() and (cur, reg) not in self._uninit_seen:
                self._uninit_seen.add((cur, reg))
                self.trace.uninit_reads.append((cur, reg))
            self.read_since[act_rows, reg] = True

    def _write_reg(self, group, reg, active, sym: _Sym, cur) -> None:
        rows = group.rows
        full = bool(active.all())
        act_rows = rows if full else rows[active]
        if self.track_registers:
            # Dead-store accounting: a write clobbered before any read.
            last = self.last_writer[rows, reg]
            clobbered = active & (last >= 0) & ~self.read_since[rows, reg]
            if clobbered.any():
                writers, counts = np.unique(
                    last[clobbered], return_counts=True
                )
                for writer, count in zip(writers.tolist(), counts.tolist()):
                    self.trace.clobbered_writes[writer] = (
                        self.trace.clobbered_writes.get(writer, 0) + count
                    )
            self.trace.register_writes[cur] = self.trace.register_writes.get(
                cur, 0
            ) + int(active.sum())
            self.last_writer[act_rows, reg] = cur
            self.read_since[act_rows, reg] = False
            self.RW[act_rows, reg] = True

        self.R[act_rows, reg] = sym.val if full else sym.val[active]
        sx, sy, top = sym.sx, sym.sy, sym.top
        if self.reg_sx_dirty[reg] or sx.any():
            self.RSX[act_rows, reg] = sx if full else sx[active]
            self.reg_sx_dirty[reg] = True
        if self.reg_sy_dirty[reg] or sy.any():
            self.RSY[act_rows, reg] = sy if full else sy[active]
            self.reg_sy_dirty[reg] = True
        if self.reg_top_dirty[reg] or top.any():
            self.RTOP[act_rows, reg] = top if full else top[active]
            self.reg_top_dirty[reg] = True

    # -- operand fetch -----------------------------------------------------

    def _operand(self, group, src, active, cur) -> _Sym:
        kind = src[0]
        rows = group.rows
        n = group.n
        if kind == "reg":
            # Fancy-index gathers copy, so the _Sym owns its arrays;
            # clean columns reuse the shared read-only zeros instead.
            reg = src[1]
            return _Sym(
                self.R[rows, reg],
                self.RSX[rows, reg]
                if self.reg_sx_dirty[reg]
                else self._zeros(n),
                self.RSY[rows, reg]
                if self.reg_sy_dirty[reg]
                else self._zeros(n),
                self.RTOP[rows, reg]
                if self.reg_top_dirty[reg]
                else self._zerob(n),
            )
        if kind == "imm":
            return _Sym(
                np.full(n, src[1], dtype=float),
                self._zeros(n),
                self._zeros(n),
                self._zerob(n),
            )
        if kind == "special":
            name = src[1]
            if name == "tid":
                val = self.tid[rows]
            else:
                val = np.full(n, self.special_scalars[name])
            sym = _Sym(val, self._zeros(n), self._zeros(n), self._zerob(n))
            if name == "ctaid_x":
                sym.sx = np.ones(n)
            elif name == "ctaid_y":
                sym.sy = np.ones(n)
            return sym
        if kind == "mem":  # arithmetic shared operand
            return self._read_shared(group, src[1], src[2], active, cur, "operand")
        raise AssertionError(f"unexpected operand {src!r}")

    def _address_sym(self, group, base, offset, active, cur) -> _Sym:
        n = group.n
        if base < 0:
            return _Sym(
                np.full(n, float(offset)),
                self._zeros(n),
                self._zeros(n),
                self._zerob(n),
            )
        addr = self._operand(group, ("reg", base), active, cur)
        if offset:
            addr.val = addr.val + offset
        return addr

    # -- shared memory -----------------------------------------------------

    def _record_shared(
        self, group, addr: _Sym, active, cur, kind, full: bool
    ) -> tuple[np.ndarray, bool]:
        addresses = addr.val.astype(np.int64)
        any_strided = bool(addr.strided[active].any())
        any_top = bool(addr.top[active].any())
        if any_strided and self.trace.shared_strided is None:
            self.trace.shared_strided = (cur,)
        warps = group.warps
        if self.record_shared_accesses:
            for i, warp in enumerate(warps):
                if len(warps) == 1:
                    act, addrs = active, addresses
                    strided, top = addr.strided, addr.top
                else:
                    part = slice(i * WARP_SIZE, (i + 1) * WARP_SIZE)
                    act, addrs = active[part], addresses[part]
                    strided, top = addr.strided[part], addr.top[part]
                if full:
                    lanes = _FULL_WARP_LANES
                else:
                    if not act.any():
                        continue
                    lanes = np.flatnonzero(act)
                    addrs = addrs[lanes]
                self.trace.shared_accesses.append(
                    SharedAccess(
                        self.stage,
                        cur,
                        warp.index,
                        kind,
                        lanes,
                        addrs,
                        any_strided and bool(strided[act].any()),
                        any_top and bool(top[act].any()),
                    )
                )
        if any_top:
            raise _Abort(
                cur, "data-shared", "shared address depends on memory contents"
            )
        hot = addresses if full else addresses[active]
        bad = (hot < 0) | (hot + 4 > self.smem_bytes) | (hot % 4 != 0)
        if bad.any():
            raise _Abort(
                cur,
                "shared-oob",
                f"shared access at byte {int(hot[bad][0])} outside "
                f"[0, {self.smem_bytes}) or misaligned",
            )
        return addresses, any_strided

    def _read_shared(self, group, base, offset, active, cur, kind) -> _Sym:
        addr = self._address_sym(group, base, offset, active, cur)
        full = bool(active.all())
        addresses, any_strided = self._record_shared(
            group, addr, active, cur, kind, full
        )
        n = group.n
        words = (addresses if full else addresses[active]) >> 2
        sxy = self.smem_sxy_dirty
        topd = self.smem_top_dirty or self.smem_poisoned
        if full:
            result = _Sym(
                self.SM[words],
                self.SMSX[words] if sxy else self._zeros(n),
                self.SMSY[words] if sxy else self._zeros(n),
                self.SMTOP[words].copy() if topd else np.zeros(n, dtype=bool),
            )
        else:
            result = _Sym(np.zeros(n))
            result.val[active] = self.SM[words]
            if sxy:
                result.sx[active] = self.SMSX[words]
                result.sy[active] = self.SMSY[words]
            if topd:
                result.top[active] = self.SMTOP[words]
        if self.smem_poisoned:
            result.top[active] = True
        # A class-varying address reads different words per member.
        if any_strided:
            result.top[active] |= addr.strided[active]
        return result

    def _write_shared(self, group, base, offset, value: _Sym, active, cur) -> None:
        addr = self._address_sym(group, base, offset, active, cur)
        full = bool(active.all())
        addresses, any_strided = self._record_shared(
            group, addr, active, cur, "store", full
        )
        if any_strided:
            # Different members write different words: all bets off.
            self.smem_poisoned = True
            self.SMTOP[:] = True
            return
        words = (addresses if full else addresses[active]) >> 2
        self.SM[words] = value.val if full else value.val[active]
        if self.smem_sxy_dirty or value.sx.any() or value.sy.any():
            self.SMSX[words] = value.sx if full else value.sx[active]
            self.SMSY[words] = value.sy if full else value.sy[active]
            self.smem_sxy_dirty = True
        top = value.top if full else value.top[active]
        if self.smem_top_dirty or self.smem_poisoned or top.any():
            self.SMTOP[words] = top | self.smem_poisoned
            self.smem_top_dirty = True

    # -- global memory -----------------------------------------------------

    def _record_global(self, group, addr: _Sym, active, cur, store) -> None:
        addresses = addr.val.astype(np.int64)
        stride_x = addr.sx.astype(np.int64)
        stride_y = addr.sy.astype(np.int64)
        full = bool(active.all())
        any_top = bool(addr.top[active].any())
        warps = group.warps
        for i, warp in enumerate(warps):
            if len(warps) == 1:
                act = active
                addrs, sx, sy, top = addresses, stride_x, stride_y, addr.top
            else:
                part = slice(i * WARP_SIZE, (i + 1) * WARP_SIZE)
                act = active[part]
                addrs, sx, sy = addresses[part], stride_x[part], stride_y[part]
                top = addr.top[part]
            if full:
                lanes = _FULL_WARP_LANES
            else:
                if not act.any():
                    continue
                lanes = np.flatnonzero(act)
                addrs, sx, sy = addrs[lanes], sx[lanes], sy[lanes]
            self.trace.global_accesses.append(
                GlobalAccess(
                    cur,
                    warp.index,
                    store,
                    lanes,
                    addrs,
                    sx,
                    sy,
                    any_top and bool(top[act].any()),
                )
            )

    # -- instruction execution --------------------------------------------

    def _exec_load(self, group, decoded, active, cur) -> None:
        _, base, offset = decoded.srcs[0]
        if decoded.kind == OpKind.LOAD_SHARED:
            result = self._read_shared(group, base, offset, active, cur, "load")
        else:
            addr = self._address_sym(group, base, offset, active, cur)
            self._record_global(group, addr, active, cur, store=False)
            result = _Sym(
                np.zeros(group.n), top=np.ones(group.n, dtype=bool)
            )
        self._write_reg(group, decoded.dst_reg, active, result, cur)

    def _exec_store(self, group, decoded, active, cur) -> None:
        space, base, offset = decoded.dst_mem
        value = self._operand(group, decoded.srcs[0], active, cur)
        if space == "shared":
            self._write_shared(group, base, offset, value, active, cur)
        else:
            addr = self._address_sym(group, base, offset, active, cur)
            self._record_global(group, addr, active, cur, store=True)

    def _exec_arith(self, group, decoded, active, cur) -> None:
        op = decoded.opcode
        if op is Opcode.SEL:
            self._exec_select(group, decoded, active, cur)
            return
        operands = [
            self._operand(group, src, active, cur) for src in decoded.srcs
        ]
        val = _EVAL_TABLE[op]([sym.val for sym in operands])
        val = np.asarray(val, dtype=float)
        if val.ndim == 0:
            val = np.full(group.n, float(val))
        result = _Sym(val)
        for sym in operands:
            result.top = result.top | sym.top

        if op is Opcode.MOV:
            result.sx, result.sy = operands[0].sx, operands[0].sy
        elif op in _LINEAR_SIGN:
            sign = _LINEAR_SIGN[op]
            result.sx = operands[0].sx + sign * operands[1].sx
            result.sy = operands[0].sy + sign * operands[1].sy
        elif op in (Opcode.IMUL, Opcode.IMAD):
            a, b = operands[0], operands[1]
            # (a0 + as*d)(b0 + bs*d) is affine iff one factor is
            # stride-free on every lane; the cross term kills the rest.
            result.sx = a.sx * b.val + b.sx * a.val
            result.sy = a.sy * b.val + b.sy * a.val
            result.top |= a.strided & b.strided
            if op is Opcode.IMAD:
                result.sx = result.sx + operands[2].sx
                result.sy = result.sy + operands[2].sy
        elif op is Opcode.ISHL:
            a, k = operands[0], operands[1]
            factor = np.exp2(np.where(k.strided | k.top, 0, k.val))
            result.sx = a.sx * factor
            result.sy = a.sy * factor
            result.top |= k.strided
        else:
            # Every other op (float math, right shift, bitwise, min,
            # max) is nonlinear in ctaid: exact when the inputs carry no
            # stride, top otherwise.
            for sym in operands:
                result.top |= sym.strided
        self._write_reg(group, decoded.dst_reg, active, result, cur)

    def _exec_select(self, group, decoded, active, cur) -> None:
        rows = group.rows
        pidx = decoded.srcs[0][1]
        a = self._operand(group, decoded.srcs[1], active, cur)
        b = self._operand(group, decoded.srcs[2], active, cur)
        pred = self.P[rows, pidx]
        result = _Sym(
            np.where(pred, a.val, b.val),
            np.where(pred, a.sx, b.sx),
            np.where(pred, a.sy, b.sy),
            np.where(pred, a.top, b.top),
        )
        # Members with a different predicate pick the other arm.
        if self.pred_unknown[pidx] or self.pred_nonuniform[pidx]:
            result.top = (
                result.top | ~self.PK[rows, pidx] | ~self.PU[rows, pidx]
            )
        self._write_reg(group, decoded.dst_reg, active, result, cur)

    def _exec_setp(self, group, decoded, active, cur) -> None:
        a = self._operand(group, decoded.srcs[0], active, cur)
        b = self._operand(group, decoded.srcs[1], active, cur)
        known = ~(a.top | b.top)
        anchor = _CMP_FUNCS[decoded.cmp](a.val, b.val)
        diff = a.val - b.val
        if a.strided.any() or b.strided.any():
            diff_lo, diff_hi = self.box.extremes(a.sx - b.sx, a.sy - b.sy)
            lo = diff + diff_lo
            hi = diff + diff_hi
        else:
            lo = hi = diff
        uniform = _UNIFORM_TESTS[decoded.cmp](lo, hi)
        full = bool(active.all())
        act_rows = group.rows if full else group.rows[active]
        dst = decoded.dst_pred
        pu = uniform & known
        self.P[act_rows, dst] = anchor if full else anchor[active]
        self.PU[act_rows, dst] = pu if full else pu[active]
        self.PK[act_rows, dst] = known if full else known[active]
        if not pu.all():
            self.pred_nonuniform[dst] = True
        if not known.all():
            self.pred_unknown[dst] = True


def trace_block_class(
    kernel: Kernel,
    launch: LaunchConfig,
    box: ClassBox,
    *,
    max_warp_instructions: int = 2_000_000,
    track_registers: bool = True,
    record_shared_accesses: bool = True,
) -> ClassTrace:
    """Symbolically execute one block class over its ctaid box.

    Returns a :class:`ClassTrace` holding every memory access with its
    anchor address and exact ctaid strides, control-uniformity evidence,
    and the checker's raw material (uninitialized reads, write/clobber
    counts, divergence).  ``trace.complete`` is False when the kernel
    left the affine domain in a way that blocks further progress; the
    trace still holds everything observed up to that point.

    ``track_registers=False`` drops the register-provenance bookkeeping
    (uninitialized reads, write/clobber counts) and
    ``record_shared_accesses=False`` drops per-warp shared access
    records (``trace.shared_strided`` still flags class-varying shared
    addresses) -- the dedup proof consumes neither; global accesses and
    control evidence are unaffected.
    """
    tracer = _ClassTracer(
        kernel,
        launch,
        box,
        max_warp_instructions,
        track_registers,
        record_shared_accesses,
    )
    return tracer.run()
