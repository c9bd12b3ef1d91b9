"""Affine evidence, recorded while the interpreter runs a class anchor.

The dedup proof (:mod:`repro.analysis.dedup_proof`) and the static
checker (:mod:`repro.analysis.checks`) reason about one block class at
a time: a ctaid rectangle (:class:`ClassBox`) whose anchor is its
minimum-ctaid member.  Their evidence comes from the one ISA semantics
the simulator has: the batched interpreter
(``repro.sim.functional._BatchedInterpreter``) runs the anchor block,
and when the block's slab slot carries a box it hands every step, with
the lane masks it computed, to a :class:`ClassRecorder` *before* the
instruction executes.

The recorder keeps a shadow beside the interpreter's concrete values:
per lane, two exact integer strides ``d(value)/d(ctaid_x)`` and
``d(value)/d(ctaid_y)`` and a ``top`` flag, for registers and shared
words.  Affine values are exact for every member of the class; anything
nonlinear in ctaid degrades to ``top``, as does every value loaded from
global memory.  Predicates additionally track *class uniformity*,
decided by evaluating the comparison at the corners of the class box
(an affine function attains its extremes at box corners, so corner
agreement is a proof, not a heuristic).  The anchor values are the
interpreter's own; on a ``top`` lane they are whatever the loaded data
made them, which no consumer reads.

Where the shadow cannot follow soundly -- a guard on a data-dependent
predicate, a shared address computed from loaded data, a shared access
out of bounds, a divergent barrier -- or the interpreter raises, the
recorder marks the trace ``incomplete`` and records nothing more.

The static question "can ``ctaid`` or loaded data change a block's
trace?" is answered once, launch-independently, by the taint pass
``analyze_dependence`` in ``sim/engine.py``; this module works per
launch and per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.specs import WARP_SIZE
from repro.errors import DivergenceError, MemoryAccessError, SimulationError
from repro.isa.opcodes import Opcode, OpKind
from repro.isa.program import Kernel
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory

_LINEAR_SIGN = {Opcode.IADD: 1, Opcode.ISUB: -1}
#: Stride rules that read operand values, not only their strides.
_VALUE_RULES = (Opcode.IMUL, Opcode.IMAD, Opcode.ISHL)

_LOAD_KINDS = (OpKind.LOAD_GLOBAL, OpKind.LOAD_SHARED)
_STORE_KINDS = (OpKind.STORE_GLOBAL, OpKind.STORE_SHARED)


# --------------------------------------------------------------------------
# Evidence format
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


@dataclass(slots=True)
class GlobalAccess:
    """One global-memory instruction issue of one warp."""

    index: int
    warp: int
    store: bool
    lanes: np.ndarray  # active lane indices within the warp
    addresses: np.ndarray  # anchor byte addresses, int64, one per lane
    stride_x: np.ndarray  # d(address)/d(ctaid_x) per lane, int64
    stride_y: np.ndarray
    unknown: bool = False  # some active lane's address is top


@dataclass(slots=True)
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
    """Everything recorded while one class's anchor block ran."""

    kernel: str
    box: ClassBox
    stages: int = 0
    global_accesses: list = field(default_factory=list)
    shared_accesses: list = field(default_factory=list)
    #: (index, kind) pairs where control varies across class members.
    nonuniform_control: list = field(default_factory=list)
    #: (index,) of the first shared access whose address varies across
    #: class members, or None.
    shared_strided: tuple | None = None
    #: (index, warp) if a barrier was reached by a divergent warp.
    divergent_barrier: tuple | None = None
    #: (index, code, message) if recording stopped early.  A trace no
    #: anchor run has filled yet says so here, so it can never pass for
    #: complete, empty evidence.
    incomplete: tuple | None = (-1, "unrecorded", "the anchor has not run")
    #: (index, register) pairs reading a never-written register.
    uninit_reads: list = field(default_factory=list)
    #: static instruction -> dynamic register-write instances.
    register_writes: dict = field(default_factory=dict)
    #: static instruction -> instances overwritten before any read.
    clobbered_writes: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.incomplete is None


#: Lane indices of a fully-active warp, shared by every access record,
#: and the row selection that picks them.
_FULL_WARP_LANES = np.arange(WARP_SIZE)
_FULL_WARP_LANES.setflags(write=False)
_ALL = slice(None)


class _Abort(Exception):
    """Internal: the shadow cannot follow the anchor soundly."""

    def __init__(self, index: int, code: str, message: str) -> None:
        super().__init__(message)
        self.index = index
        self.code = code
        self.message = message


class _Sym:
    """A per-lane symbolic value: anchor + ctaid strides + top mask.

    ``val`` is the interpreter's anchor value, fetched only for the
    rules that read it (None otherwise).  ``strided`` caches
    ``(sx != 0) | (sy != 0)`` once :meth:`ClassRecorder._strided` has
    computed it.
    """

    __slots__ = ("val", "sx", "sy", "top", "strided")

    def __init__(self, val, sx, sy, top):
        self.val = val
        self.sx = sx
        self.sy = sy
        self.top = top
        self.strided = None


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




class ClassRecorder:
    """Shadow affine state of one boxed block of an interpreter slab.

    The batched interpreter calls :meth:`record` for every step of the
    block's warps except ``exit``, with the step's lane ``mask`` (lanes
    at the instruction's PC) and guard-applied ``active`` lanes, before
    the instruction executes.  Arrays are ``(warps_per_block, 32)``
    views of the block's rows, so warps outside the step's PC-group
    show only masked-out lanes.  Operand values are read from the
    interpreter's registers and shared arena; the recorder writes only
    its own shadow and the :class:`ClassTrace`.

    Stride-free, top-free shadows are the shared read-only constants
    ``_zeros``/``_zerob``, recognised by identity, so an affine kernel
    whose registers mostly carry no stride pays for almost no shadow
    arithmetic.
    """

    def __init__(self, trace: ClassTrace, interpreter, index: int) -> None:
        kernel = interpreter.sim.kernel
        wpb = interpreter.wpb
        self.trace = trace
        trace.incomplete = None
        self.box = trace.box
        self.interpreter = interpreter
        self.slot = interpreter.slots[index]
        #: The block's warp rows in the slab (None: the whole slab).
        self.rows = (
            None
            if interpreter.num_slots == 1
            else slice(index * wpb, (index + 1) * wpb)
        )
        self.shape = shape = (wpb, WARP_SIZE)
        self._all_warps = [(warp, _FULL_WARP_LANES, _ALL) for warp in range(wpb)]
        #: PC of the block's latest step (where an interpreter error
        #: stops the evidence), and whether every lane of the block is
        #: active in it.
        self.pc = 0
        self.full = False
        nregs = max(kernel.num_registers, 1)
        npreds = max(kernel.num_predicates, 1)

        self.RSX = np.zeros(shape + (nregs,))
        self.RSY = np.zeros(shape + (nregs,))
        self.RTOP = np.zeros(shape + (nregs,), dtype=bool)
        # Register provenance: lanes written so far (``reg_written``:
        # every lane), the static instruction that last wrote each
        # lane, and lanes holding a write nothing has read yet
        # (``reg_unread``: maybe some lane).
        self.RW = np.zeros(shape + (nregs,), dtype=bool)
        self.reg_written = [False] * nregs
        for name in kernel.params:
            self.reg_written[kernel.param_regs[name]] = True
        self.last_writer = np.full(shape + (nregs,), -1, dtype=np.int64)
        self.unread = np.zeros(shape + (nregs,), dtype=bool)
        self.reg_unread = [False] * nregs

        # Predicates default to False on every member, hence uniform and
        # known: guarded-SETP-then-branch is an established idiom.
        self.PU = np.ones(shape + (npreds,), dtype=bool)
        self.PK = np.ones(shape + (npreds,), dtype=bool)

        # Monotone dirty flags: once a register column (or predicate)
        # may carry a stride / top / nonuniformity, its flag sticks.
        # A False flag lets operand fetches and guard checks skip the
        # column entirely and reuse a shared read-only constant.
        self.reg_sx_dirty = [False] * nregs
        self.reg_sy_dirty = [False] * nregs
        self.reg_top_dirty = [False] * nregs
        self.pred_unknown = [False] * npreds
        self.pred_nonuniform = [False] * npreds
        self._zeros = np.zeros(shape)
        self._zerob = np.zeros(shape, dtype=bool)
        self._ones = np.ones(shape)
        self._oneb = np.ones(shape, dtype=bool)
        for constant in (self._zeros, self._zerob, self._ones, self._oneb):
            constant.setflags(write=False)

        words = max(kernel.shared_memory_words, 1)
        self.smem_bytes = kernel.shared_memory_words * 4
        self.smem_base = int(interpreter.smem_base[index * wpb, 0])
        self.SMSX = np.zeros(words)
        self.SMSY = np.zeros(words)
        self.SMTOP = np.zeros(words, dtype=bool)
        #: Set once a store lands at a class-varying address; every
        #: later load is top.
        self.smem_poisoned = False
        #: Monotone: some shared word may carry a stride / top value.
        self.smem_sxy_dirty = False
        self.smem_top_dirty = False

        self._nonuniform_seen: set = set()
        self._uninit_seen: set = set()

    # -- driver ------------------------------------------------------------

    def record(self, pc: int, decoded, mask, active) -> None:
        """Shadow one step; ``mask``/``active`` span the whole slab."""
        if self.trace.incomplete is not None:
            return
        rows = self.rows
        if rows is not None:
            mask = mask[rows]
            if not mask.any():
                return  # none of this block's warps is in the PC-group
            active = active[rows]
        self.pc = pc
        try:
            if decoded.kind == OpKind.BARRIER:
                self._barrier(pc, mask)
            else:
                self._step(pc, decoded, mask, active)
        except _Abort as abort:
            self._stop(abort.index, abort.code, abort.message)

    def finish(self) -> None:
        if self.trace.incomplete is None:
            self.trace.stages = len(self.slot.stages)

    def fail(self, error: SimulationError) -> None:
        """The interpreter raised: the evidence stops where it did."""
        if self.trace.incomplete is not None:
            return
        if isinstance(error, DivergenceError):
            code = "barrier-divergence"
        elif isinstance(error, MemoryAccessError):
            code = "global-oob"
        else:
            code = "runaway"
        self._stop(self.pc, code, str(error))

    def _stop(self, index: int, code: str, message: str) -> None:
        self.trace.incomplete = (index, code, message)
        self.trace.stages = len(self.slot.stages)

    def _barrier(self, pc: int, mask) -> None:
        alive = self.interpreter.alive
        if self.rows is not None:
            alive = alive[self.rows]
        divergent = mask.any(axis=1) & (mask != alive).any(axis=1)
        if divergent.any():
            warp = int(np.flatnonzero(divergent)[0])
            self.trace.divergent_barrier = (pc, warp)
            raise _Abort(
                pc,
                "barrier-divergence",
                f"warp {warp} reached bar.sync with "
                f"{int(mask[warp].sum())} of {int(alive[warp].sum())} "
                "threads converged",
            )

    def _step(self, pc: int, decoded, mask, active) -> None:
        kind = decoded.kind
        if decoded.guard is not None:
            self._check_guard(pc, decoded.guard[0], mask)
        if kind == OpKind.BRANCH or not active.any():
            return
        self.full = bool(active.all())
        self._note_reads(decoded, active, pc)
        if kind in (OpKind.ARITH, OpKind.SELECT):
            self._exec_arith(decoded, active, pc)
        elif kind == OpKind.SETP:
            self._exec_setp(decoded, active, pc)
        elif kind in _LOAD_KINDS:
            self._exec_load(decoded, active, pc)
        elif kind in _STORE_KINDS:
            self._exec_store(decoded, active, pc)
        # NOP: nothing to do.

    # -- bookkeeping -------------------------------------------------------

    def _strided(self, sym: _Sym) -> np.ndarray:
        if sym.strided is None:
            if sym.sx is self._zeros and sym.sy is self._zeros:
                sym.strided = self._zerob
            else:
                sym.strided = (sym.sx != 0) | (sym.sy != 0)
        return sym.strided

    def _check_guard(self, pc: int, pidx: int, mask) -> None:
        if self.pred_unknown[pidx] and bool(
            (mask & ~self.PK[:, :, pidx]).any()
        ):
            raise _Abort(
                pc,
                "data-control",
                f"control depends on a data-dependent predicate %p{pidx}",
            )
        if self.pred_nonuniform[pidx] and bool(
            (mask & ~self.PU[:, :, pidx]).any()
        ):
            key = (pc, "guard")
            if key not in self._nonuniform_seen:
                self._nonuniform_seen.add(key)
                self.trace.nonuniform_control.append(key)

    def _note_reads(self, decoded, active, pc) -> None:
        for reg in decoded.reads:
            if not self.reg_written[reg]:
                unwritten = active & ~self.RW[:, :, reg]
                if unwritten.any() and (pc, reg) not in self._uninit_seen:
                    self._uninit_seen.add((pc, reg))
                    self.trace.uninit_reads.append((pc, reg))
            if self.reg_unread[reg]:
                if self.full:
                    self.unread[:, :, reg] = False
                    self.reg_unread[reg] = False
                else:
                    self.unread[:, :, reg][active] = False

    def _write_reg(self, reg, active, sym: _Sym, pc) -> None:
        full = self.full
        trace = self.trace
        # Dead-store accounting: a write clobbered before any read.
        if self.reg_unread[reg]:
            unread = self.unread[:, :, reg]
            clobbered = unread if full else active & unread
            if clobbered.any():
                writers, counts = np.unique(
                    self.last_writer[:, :, reg][clobbered], return_counts=True
                )
                for writer, count in zip(writers.tolist(), counts.tolist()):
                    trace.clobbered_writes[writer] = (
                        trace.clobbered_writes.get(writer, 0) + count
                    )
        trace.register_writes[pc] = trace.register_writes.get(pc, 0) + (
            active.size if full else int(active.sum())
        )
        self.reg_unread[reg] = True

        columns = [(self.last_writer, pc), (self.unread, True)]
        if not self.reg_written[reg]:
            if full:
                self.reg_written[reg] = True
            else:
                columns.append((self.RW, True))
        sx, sy, top = sym.sx, sym.sy, sym.top
        if self.reg_sx_dirty[reg] or (sx is not self._zeros and sx.any()):
            columns.append((self.RSX, sx))
            self.reg_sx_dirty[reg] = True
        if self.reg_sy_dirty[reg] or (sy is not self._zeros and sy.any()):
            columns.append((self.RSY, sy))
            self.reg_sy_dirty[reg] = True
        if self.reg_top_dirty[reg] or (top is not self._zerob and top.any()):
            columns.append((self.RTOP, top))
            self.reg_top_dirty[reg] = True
        for array, value in columns:
            column = array[:, :, reg]
            if full:
                column[:, :] = value
            elif isinstance(value, np.ndarray):
                column[active] = value[active]
            else:
                column[active] = value

    # -- operand fetch -----------------------------------------------------

    def _value(self, src) -> np.ndarray:
        value = self.interpreter._fetch(src, None)[0]
        return value if self.rows is None else value[self.rows]

    def _operand(self, src, active, pc, need_val: bool) -> _Sym:
        kind = src[0]
        if kind == "mem":  # arithmetic shared operand
            return self._read_shared(
                src[1], src[2], active, pc, "operand", need_val
            )
        val = self._value(src) if need_val else None
        zeros = self._zeros
        if kind == "reg":
            reg = src[1]
            return _Sym(
                val,
                self.RSX[:, :, reg] if self.reg_sx_dirty[reg] else zeros,
                self.RSY[:, :, reg] if self.reg_sy_dirty[reg] else zeros,
                self.RTOP[:, :, reg] if self.reg_top_dirty[reg] else self._zerob,
            )
        name = src[1] if kind == "special" else None
        return _Sym(
            val,
            self._ones if name == "ctaid_x" else zeros,
            self._ones if name == "ctaid_y" else zeros,
            self._zerob,
        )

    def _address_sym(self, base, offset, active, pc) -> _Sym:
        if base < 0:
            return _Sym(
                np.full(self.shape, float(offset)),
                self._zeros,
                self._zeros,
                self._zerob,
            )
        addr = self._operand(("reg", base), active, pc, True)
        if offset:
            addr.val = addr.val + offset
        return addr

    # -- access records ----------------------------------------------------

    def _warps(self, active) -> list:
        """``(warp, lanes, pick)`` for every warp with an active lane.

        ``pick`` selects those lanes from a 32-lane row: a slice when
        the whole warp is active, so its records hold row views.
        """
        if self.full:
            return self._all_warps
        out = []
        for warp in np.flatnonzero(active.any(axis=1)).tolist():
            act = active[warp]
            if act.all():
                out.append((warp, _FULL_WARP_LANES, _ALL))
            else:
                lanes = np.flatnonzero(act)
                out.append((warp, lanes, lanes))
        return out

    # -- shared memory -----------------------------------------------------

    def _record_shared(self, base, offset, active, pc, kind):
        """Record one shared touch (before the interpreter performs it).

        Returns the anchor byte addresses and the lanes whose address
        varies across class members (None when none does).
        """
        full = self.full
        addr = self._address_sym(base, offset, active, pc)
        addresses = addr.val.astype(np.int64)
        strided = self._strided(addr)
        top = addr.top
        any_strided = strided is not self._zerob and bool(
            (strided if full else strided[active]).any()
        )
        any_top = top is not self._zerob and bool(
            (top if full else top[active]).any()
        )
        if any_strided and self.trace.shared_strided is None:
            self.trace.shared_strided = (pc,)
        stage = len(self.slot.stages) - 1
        records = self.trace.shared_accesses
        for warp, lanes, pick in self._warps(active):
            records.append(
                SharedAccess(
                    stage,
                    pc,
                    warp,
                    kind,
                    lanes,
                    addresses[warp][pick],
                    any_strided and bool(strided[warp][pick].any()),
                    any_top and bool(top[warp][pick].any()),
                )
            )
        if any_top:
            raise _Abort(
                pc, "data-shared", "shared address depends on memory contents"
            )
        hot = addresses if full else addresses[active]
        if (
            int(hot.min()) < 0
            or int(hot.max()) + 4 > self.smem_bytes
            or (hot & 3).any()
        ):
            bad = (hot < 0) | (hot + 4 > self.smem_bytes) | (hot % 4 != 0)
            raise _Abort(
                pc,
                "shared-oob",
                f"shared access at byte {int(hot[bad][0])} outside "
                f"[0, {self.smem_bytes}) or misaligned",
            )
        return addresses, strided if any_strided else None

    def _read_shared(self, base, offset, active, pc, kind, need_val) -> _Sym:
        addresses, strided = self._record_shared(base, offset, active, pc, kind)
        # Lanes outside ``active`` are never read from a result: point
        # them at word 0 so every gather stays in bounds.
        words = (addresses if self.full else np.where(active, addresses, 0)) >> 2
        val = (
            self.interpreter.smem[words + self.smem_base] if need_val else None
        )
        sx = sy = self._zeros
        top = self._zerob
        if self.smem_sxy_dirty:
            sx, sy = self.SMSX[words], self.SMSY[words]
        if self.smem_poisoned:
            top = self._oneb
        elif self.smem_top_dirty:
            top = self.SMTOP[words]
        if strided is not None:
            # A class-varying address reads different words per member.
            top = top | strided
        return _Sym(val, sx, sy, top)

    def _write_shared(self, base, offset, value: _Sym, active, pc) -> None:
        addresses, strided = self._record_shared(base, offset, active, pc, "store")
        if strided is not None:
            # Different members write different words: all bets off.
            self.smem_poisoned = True
            self.SMTOP[:] = True
            return
        full = self.full
        words = (addresses if full else addresses[active]) >> 2
        sx, sy = value.sx, value.sy
        if (
            self.smem_sxy_dirty
            or (sx is not self._zeros and sx.any())
            or (sy is not self._zeros and sy.any())
        ):
            self.SMSX[words] = sx if full else sx[active]
            self.SMSY[words] = sy if full else sy[active]
            self.smem_sxy_dirty = True
        top = value.top if full else value.top[active]
        if self.smem_top_dirty or self.smem_poisoned or top.any():
            self.SMTOP[words] = top | self.smem_poisoned
            self.smem_top_dirty = True

    # -- global memory -----------------------------------------------------

    def _record_global(self, addr: _Sym, active, pc, store) -> None:
        addresses = addr.val.astype(np.int64)
        stride_x = addr.sx.astype(np.int64)
        stride_y = addr.sy.astype(np.int64)
        top = addr.top
        any_top = top is not self._zerob and bool(top[active].any())
        records = self.trace.global_accesses
        for warp, lanes, pick in self._warps(active):
            records.append(
                GlobalAccess(
                    pc,
                    warp,
                    store,
                    lanes,
                    addresses[warp][pick],
                    stride_x[warp][pick],
                    stride_y[warp][pick],
                    any_top and bool(top[warp][pick].any()),
                )
            )

    # -- instruction execution --------------------------------------------

    def _exec_load(self, decoded, active, pc) -> None:
        _, base, offset = decoded.srcs[0]
        if decoded.kind == OpKind.LOAD_SHARED:
            result = self._read_shared(base, offset, active, pc, "load", False)
        else:
            addr = self._address_sym(base, offset, active, pc)
            self._record_global(addr, active, pc, store=False)
            result = _Sym(None, self._zeros, self._zeros, self._oneb)
        self._write_reg(decoded.dst_reg, active, result, pc)

    def _exec_store(self, decoded, active, pc) -> None:
        space, base, offset = decoded.dst_mem
        value = self._operand(decoded.srcs[0], active, pc, False)
        if space == "shared":
            self._write_shared(base, offset, value, active, pc)
        else:
            addr = self._address_sym(base, offset, active, pc)
            self._record_global(addr, active, pc, store=True)

    def _exec_arith(self, decoded, active, pc) -> None:
        op = decoded.opcode
        if op is Opcode.SEL:
            self._exec_select(decoded, active, pc)
            return
        need_val = op in _VALUE_RULES
        operands = [
            self._operand(src, active, pc, need_val) for src in decoded.srcs
        ]
        zeros, zerob, oneb = self._zeros, self._zerob, self._oneb
        top = zerob
        for sym in operands:
            if top is oneb or sym.top is zerob:
                continue
            top = sym.top if top is zerob or sym.top is oneb else top | sym.top
        sx = sy = zeros

        if op is Opcode.MOV:
            sx, sy = operands[0].sx, operands[0].sy
        elif op in _LINEAR_SIGN:
            sign = _LINEAR_SIGN[op]
            a, b = operands
            if a.sx is not zeros or b.sx is not zeros:
                sx = a.sx + sign * b.sx
            if a.sy is not zeros or b.sy is not zeros:
                sy = a.sy + sign * b.sy
        elif op in (Opcode.IMUL, Opcode.IMAD):
            a, b = operands[0], operands[1]
            # (a0 + as*d)(b0 + bs*d) is affine iff one factor is
            # stride-free on every lane; the cross term kills the rest.
            if a.sx is not zeros or b.sx is not zeros:
                sx = a.sx * b.val + b.sx * a.val
            if a.sy is not zeros or b.sy is not zeros:
                sy = a.sy * b.val + b.sy * a.val
            a_strided, b_strided = self._strided(a), self._strided(b)
            if a_strided is not zerob and b_strided is not zerob:
                top = top | (a_strided & b_strided)
            if op is Opcode.IMAD:
                c = operands[2]
                if c.sx is not zeros:
                    sx = sx + c.sx
                if c.sy is not zeros:
                    sy = sy + c.sy
        elif op is Opcode.ISHL:
            a, k = operands[0], operands[1]
            k_strided = self._strided(k)
            if a.sx is not zeros or a.sy is not zeros:
                factor = np.exp2(np.where(k_strided | k.top, 0, k.val))
                sx = a.sx * factor
                sy = a.sy * factor
            if k_strided is not zerob:
                top = top | k_strided
        else:
            # Every other op (float math, right shift, bitwise, min,
            # max) is nonlinear in ctaid: exact when the inputs carry no
            # stride, top otherwise.
            for sym in operands:
                strided = self._strided(sym)
                if strided is not zerob and top is not oneb:
                    top = top | strided
        self._write_reg(decoded.dst_reg, active, _Sym(None, sx, sy, top), pc)

    def _exec_select(self, decoded, active, pc) -> None:
        pidx = decoded.srcs[0][1]
        a = self._operand(decoded.srcs[1], active, pc, False)
        b = self._operand(decoded.srcs[2], active, pc, False)
        pred = self.interpreter.P3[:, :, pidx]
        if self.rows is not None:
            pred = pred[self.rows]

        def pick(x, y, clean):
            return clean if x is clean and y is clean else np.where(pred, x, y)

        top = pick(a.top, b.top, self._zerob)
        # Members with a different predicate pick the other arm.
        if self.pred_unknown[pidx] or self.pred_nonuniform[pidx]:
            top = top | ~self.PK[:, :, pidx] | ~self.PU[:, :, pidx]
        result = _Sym(
            None,
            pick(a.sx, b.sx, self._zeros),
            pick(a.sy, b.sy, self._zeros),
            top,
        )
        self._write_reg(decoded.dst_reg, active, result, pc)

    def _exec_setp(self, decoded, active, pc) -> None:
        a = self._operand(decoded.srcs[0], active, pc, True)
        b = self._operand(decoded.srcs[1], active, pc, True)
        if a.top is self._zerob and b.top is self._zerob:
            known = self._oneb
        else:
            known = ~(a.top | b.top)
        diff = a.val - b.val
        if self._strided(a).any() or self._strided(b).any():
            diff_lo, diff_hi = self.box.extremes(a.sx - b.sx, a.sy - b.sy)
            lo = diff + diff_lo
            hi = diff + diff_hi
        else:
            lo = hi = diff
        uniform = _UNIFORM_TESTS[decoded.cmp](lo, hi)
        dst = decoded.dst_pred
        pu = uniform & known
        if self.full:
            self.PU[:, :, dst] = pu
            self.PK[:, :, dst] = known
        else:
            self.PU[:, :, dst][active] = pu[active]
            self.PK[:, :, dst][active] = known[active]
        if not pu.all():
            self.pred_nonuniform[dst] = True
        if known is not self._oneb and not known.all():
            self.pred_unknown[dst] = True


def trace_block_class(
    kernel: Kernel,
    launch: LaunchConfig,
    box: ClassBox,
    gmem: GlobalMemory,
    *,
    max_warp_instructions: int = 2_000_000,
) -> ClassTrace:
    """Run one class's anchor block with its box and return the evidence.

    The batched interpreter runs the anchor ``box.anchor`` as a
    one-block slab on a copy of ``gmem`` (the caller's memory never
    changes) while a :class:`ClassRecorder` fills the returned
    :class:`ClassTrace`: every memory access with its anchor address and
    exact ctaid strides, control-uniformity evidence, and the checker's
    raw material (uninitialized reads, write/clobber counts,
    divergence).  ``trace.complete`` is False when the kernel left the
    affine domain in a way that blocks further progress, or the
    interpreter raised; the trace still holds everything recorded up to
    that point.
    """
    trace = ClassTrace(kernel.name, box)
    simulator = FunctionalSimulator(
        kernel,
        gmem=gmem.copy(),
        max_warp_instructions=max_warp_instructions,
        grid_batch_blocks=1,
    )
    try:
        simulator.run_blocks(launch, [box.anchor], {box.anchor: trace})
    except SimulationError:
        pass  # the recorder marked the trace incomplete
    return trace
