"""Kernel static checker built on the interpreter's affine evidence.

Runs the anchor of every boundary-role block class on the batched
interpreter with its class box (:func:`~repro.analysis.affine.trace_block_class`,
on a copy of global memory) and turns the recorded evidence into
structured diagnostics:

========================  ========  ==========================================
code                      severity  meaning
========================  ========  ==========================================
``shared-race``           error     two warps touch the same shared word in
                                    one barrier interval, at least one writes
``barrier-divergence``    error     a warp reaches ``bar.sync`` with part of
                                    its threads branched away
``shared-oob``            error     shared access outside the kernel's static
                                    footprint, or misaligned
``global-oob``            error     global access outside every allocation,
                                    or escaping its allocation for some block,
                                    or misaligned
``uninit-read``           warning   a register is read before any write
``dead-store``            warning   every dynamic instance of a register
                                    write is overwritten before being read
``nonuniform-control``    info      control flow varies inside a block class
                                    (legal; blocks the dedup proof)
``data-addresses``        info      a global address depends on loaded data
                                    (bounds not statically checkable)
``analysis-incomplete``   info      the evidence left the affine domain, or
                                    the interpreter faulted, and recording
                                    stopped early
========================  ========  ==========================================

Race checking is scoped to one barrier interval (*stage*): accesses by
the same warp are program-ordered, so only conflicts between different
warps are scheduling-dependent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.isa.program import Kernel
from repro.sim.engine import TAINT_BLOCK, partition_blocks, analyze_dependence
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.analysis.affine import ClassBox, ClassTrace, trace_block_class

#: Severity sort order (most severe first).
SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class Diagnostic:
    """One checker finding, anchored to a static instruction."""

    severity: str  # 'error' | 'warning' | 'info'
    code: str
    kernel: str
    index: int  # static instruction index (-1: kernel-wide)
    message: str
    instruction: str = ""  # rendered instruction text

    def format(self) -> str:
        where = f"{self.kernel}[{self.index}]" if self.index >= 0 else self.kernel
        text = f"{self.severity}: {where}: {self.message} [{self.code}]"
        if self.instruction:
            text += f"\n    {self.instruction}"
        return text


def _sort_key(diag: Diagnostic):
    return (SEVERITIES.index(diag.severity), diag.index, diag.code)


def check_kernel(
    kernel: Kernel,
    launch: LaunchConfig,
    gmem: GlobalMemory,
    *,
    max_warp_instructions: int = 2_000_000,
) -> list[Diagnostic]:
    """Check one kernel under one launch configuration and memory image.

    Every boundary-role block class's anchor runs with its class box on
    a copy of ``gmem`` (the caller's memory never changes); findings are
    deduplicated across classes, and global accesses are bounds-checked
    against ``gmem``'s allocations.
    """
    dependence = analyze_dependence(kernel)
    # Partition by block *roles* even for data-dependent kernels: the
    # checker wants coverage of boundary control flow, not dedup; data
    # taint alone would explode the grid into singletons.
    role_dependence = replace(
        dependence,
        control=dependence.control & TAINT_BLOCK,
        shared_addr=dependence.shared_addr & TAINT_BLOCK,
        global_addr=dependence.global_addr & TAINT_BLOCK,
    )
    classes = partition_blocks(launch, role_dependence)

    # Role classes are products of per-dimension role ranges, so every
    # class is a rectangle.
    traces: list[ClassTrace] = [
        trace_block_class(
            kernel,
            launch,
            ClassBox.from_members(cls.members),
            gmem,
            max_warp_instructions=max_warp_instructions,
        )
        for cls in classes
    ]

    finder = _DiagnosticFinder(kernel)
    for trace in traces:
        finder.scan_trace(trace, gmem)
    finder.scan_dead_stores(traces)
    return sorted(finder.diagnostics, key=_sort_key)


class _DiagnosticFinder:
    def __init__(self, kernel: Kernel) -> None:
        self.kernel = kernel
        self.diagnostics: list[Diagnostic] = []
        self._seen: set = set()

    def emit(self, severity, code, index, message, dedup_key=None) -> None:
        key = dedup_key if dedup_key is not None else (code, index, message)
        if key in self._seen:
            return
        self._seen.add(key)
        instruction = ""
        if 0 <= index < len(self.kernel.instructions):
            instruction = str(self.kernel.instructions[index])
        self.diagnostics.append(
            Diagnostic(
                severity, code, self.kernel.name, index, message, instruction
            )
        )

    # ------------------------------------------------------------------
    def scan_trace(self, trace: ClassTrace, gmem: GlobalMemory) -> None:
        box = trace.box
        at = f"blocks ({box.x0},{box.y0})..({box.x1},{box.y1})"

        if trace.divergent_barrier is not None:
            index, warp = trace.divergent_barrier
            self.emit(
                "error",
                "barrier-divergence",
                index,
                f"warp {warp} reaches bar.sync with only part of its "
                f"threads converged ({at})",
                dedup_key=("barrier-divergence", index),
            )
        if trace.incomplete is not None:
            index, code, message = trace.incomplete
            if code == "shared-oob":
                self.emit("error", "shared-oob", index, f"{message} ({at})",
                          dedup_key=("shared-oob", index))
            elif code != "barrier-divergence":
                self.emit(
                    "info",
                    "analysis-incomplete",
                    index,
                    f"static analysis stopped: {message} ({at})",
                    dedup_key=("analysis-incomplete", index),
                )

        for index, kind in trace.nonuniform_control:
            self.emit(
                "info",
                "nonuniform-control",
                index,
                f"{kind} predicate differs between blocks of one class "
                f"({at}); dedup simulates every member",
                dedup_key=("nonuniform-control", index),
            )

        for index, reg in trace.uninit_reads:
            self.emit(
                "warning",
                "uninit-read",
                index,
                f"register %r{reg} is read before any write",
                dedup_key=("uninit-read", index, reg),
            )

        self._scan_races(trace)
        self._scan_global(trace, gmem)

    # ------------------------------------------------------------------
    def _scan_races(self, trace: ClassTrace) -> None:
        # word -> {warp -> (reads, writes)} per barrier interval.
        intervals: dict = {}
        for access in trace.shared_accesses:
            if access.unknown:
                continue
            for address in set(access.addresses.tolist()):
                slot = intervals.setdefault((access.stage, address >> 2), {})
                slot.setdefault(access.warp, []).append(
                    (access.index, access.store)
                )
        for (stage, word), by_warp in sorted(intervals.items()):
            if len(by_warp) < 2:
                continue
            writers = [
                (warp, index)
                for warp, accesses in by_warp.items()
                for index, store in accesses
                if store
            ]
            if not writers:
                continue
            for warp, index in writers:
                for other_warp, accesses in by_warp.items():
                    if other_warp == warp:
                        continue
                    for other_index, other_store in accesses:
                        verb = "written" if other_store else "read"
                        self.emit(
                            "error",
                            "shared-race",
                            index,
                            f"shared word {word} is written by warp {warp} "
                            f"and {verb} by warp {other_warp} (instruction "
                            f"{other_index}) in barrier interval {stage}",
                            dedup_key=(
                                "shared-race",
                                *sorted((index, other_index)),
                            ),
                        )

    # ------------------------------------------------------------------
    def _scan_global(self, trace: ClassTrace, gmem: GlobalMemory) -> None:
        box = trace.box
        for access in trace.global_accesses:
            if access.unknown:
                self.emit(
                    "info",
                    "data-addresses",
                    access.index,
                    "global address depends on loaded data; bounds not "
                    "statically checkable",
                    dedup_key=("data-addresses", access.index),
                )
                continue
            misaligned = access.addresses % 4 != 0
            if misaligned.any():
                self.emit(
                    "error",
                    "global-oob",
                    access.index,
                    f"global access at byte {int(access.addresses[misaligned][0])} "
                    "is not 4-byte aligned",
                    dedup_key=("global-oob", access.index),
                )
                continue
            lo, hi = box.extremes(
                access.stride_x.astype(float), access.stride_y.astype(float)
            )
            for k in range(len(access.addresses)):
                address = int(access.addresses[k])
                allocation = gmem.allocation_at(address)
                if allocation is None:
                    self.emit(
                        "error",
                        "global-oob",
                        access.index,
                        f"global access at byte {address} is outside every "
                        "allocation",
                        dedup_key=("global-oob", access.index),
                    )
                    break
                span_lo = address + int(lo[k])
                span_hi = address + int(hi[k]) + 4
                if span_lo < allocation.base or span_hi > allocation.end:
                    self.emit(
                        "error",
                        "global-oob",
                        access.index,
                        f"global access range [{span_lo}, {span_hi}) escapes "
                        f"allocation {allocation.name!r} "
                        f"[{allocation.base}, {allocation.end})",
                        dedup_key=("global-oob", access.index),
                    )
                    break

    # ------------------------------------------------------------------
    def scan_dead_stores(self, traces: list[ClassTrace]) -> None:
        # Dead only if *every* class completed (an aborted trace may
        # have stopped before the read) and every dynamic instance
        # across the whole grid was clobbered unread.
        if any(not trace.complete for trace in traces):
            return
        writes: dict[int, int] = {}
        clobbered: dict[int, int] = {}
        for trace in traces:
            for index, count in trace.register_writes.items():
                writes[index] = writes.get(index, 0) + count
            for index, count in trace.clobbered_writes.items():
                clobbered[index] = clobbered.get(index, 0) + count
        for index, total in sorted(writes.items()):
            if total > 0 and clobbered.get(index, 0) == total:
                self.emit(
                    "warning",
                    "dead-store",
                    index,
                    "every value this instruction writes is overwritten "
                    "before being read",
                    dedup_key=("dead-store", index),
                )
