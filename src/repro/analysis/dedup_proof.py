"""Soundness proof for single-class block dedup.

The engine's dedup (``sim/engine.py``) claims that every member of a
:class:`~repro.sim.engine.BlockClass` produces the representative's
trace; this module *proves* it for affine kernels, so a proved class
simulates only its representative.

The argument is translation invariance.  While the interpreter runs
the class's anchor member, the evidence recorder
(:mod:`repro.analysis.affine`) derives, for every value, exact strides
per unit of ``ctaid``.  The trace of any member at offset ``(dx, dy)``
inside the class box is then the anchor's trace with every global byte
address shifted by ``sx*dx + sy*dy`` -- provided control flow and shared
addresses carry no stride at all, which the evidence certifies.  The
engine interprets the anchor first (it is the class's representative)
and proves the class from that run's evidence afterwards
(:func:`prove_class_evidence`).  The trace *statistics*
(``BlockTrace.stats_key``) are invariant under that shift when, per
half-warp (the coalescing unit, see ``memory/coalescing.py``), one of:

1. the stride is zero -- the addresses are literally identical;
2. the stride is a multiple of 128 bytes -- every supported transaction
   config has ``max_segment <= 128`` and power-of-two segments, so the
   greedy dyadic coalescer's output translates segment-for-segment;
3. the half-warp touches a single distinct address and the stride keeps
   4-byte alignment -- the coalescer's shrink loop always lands on
   exactly one ``min_segment`` transaction for a lone address, at any
   position.

On top of that, every shifted access range must stay inside the anchor
address's allocation (same array name, cacheability, and arena bounds),
and a launch recording absolute segment addresses
(``record_segments``) cannot shift at all.  Anything the rules do not
cover is *refused*, never guessed: the engine then simulates every
member of the class.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.specs import HALF_WARP
from repro.isa.program import Kernel
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.analysis.affine import ClassBox, ClassTrace, trace_block_class

#: All supported transaction configs have power-of-two segments capped
#: at this size; address shifts that are multiples of it translate the
#: dyadic segment cover exactly.
_SEGMENT_MODULUS = 128


@dataclass(frozen=True)
class ProofResult:
    """Outcome of one class proof attempt."""

    proved: bool
    reason: str
    #: Global accesses whose translation invariance was established
    #: (0 when refused before the access scan).
    checked_accesses: int = 0


def _refuse(reason: str, checked: int = 0) -> ProofResult:
    return ProofResult(False, reason, checked)


def prove_block_class(
    kernel: Kernel,
    launch: LaunchConfig,
    members: list[tuple[int, int]],
    gmem: GlobalMemory,
    *,
    max_warp_instructions: int = 2_000_000,
) -> ProofResult:
    """Try to prove every member of a class traces like the anchor.

    ``members`` is the class's full member list; the anchor (minimum
    ctaid) must be the member the engine actually simulates.  Runs the
    anchor with the class box (:func:`trace_block_class`) and applies
    :func:`prove_class_evidence`.  Returns a :class:`ProofResult`;
    ``proved=False`` is always sound (the caller simulates every member)
    and carries the first obstruction found.
    """
    if len(members) < 2:
        return ProofResult(True, "singleton class", 0)

    box = ClassBox.from_members(members)
    if box is None:
        return _refuse("class members do not tile a ctaid rectangle")

    trace = trace_block_class(
        kernel, launch, box, gmem, max_warp_instructions=max_warp_instructions
    )
    return prove_class_evidence(trace, launch, gmem)


def prove_class_evidence(
    trace: ClassTrace, launch: LaunchConfig, gmem: GlobalMemory
) -> ProofResult:
    """The proof rules over the evidence of one class's anchor run."""
    box = trace.box
    if not trace.complete:
        index, code, message = trace.incomplete
        return _refuse(f"analysis incomplete at instruction {index}: {message} ({code})")
    if trace.nonuniform_control:
        index, kind = trace.nonuniform_control[0]
        return _refuse(
            f"control flow varies across the class ({kind} at instruction {index})"
        )

    if trace.shared_strided is not None:
        return _refuse(
            "shared address at instruction "
            f"{trace.shared_strided[0]} varies across the class"
        )

    # The bump allocator hands out ascending bases, so one searchsorted
    # finds every lane's allocation.  Row 0 is a sentinel containing no
    # address: lanes below the first base land there.
    floor = np.iinfo(np.int64).min
    allocations = (None, *gmem.allocations)
    table = (
        allocations,
        np.array([floor] + [a.base for a in allocations[1:]], dtype=np.int64),
        np.array([floor] + [a.end for a in allocations[1:]], dtype=np.int64),
    )
    checked = 0
    for access in trace.global_accesses:
        if access.unknown:
            return _refuse(
                f"global address at instruction {access.index} is data-dependent"
            )
        result = _check_global_access(access, box, launch, table)
        if result is not None:
            return _refuse(result, checked)
        checked += 1
    return ProofResult(True, "affine translation invariance", checked)


def _check_global_access(access, box: ClassBox, launch, table) -> str | None:
    """One access's obstruction to translation invariance, or None.

    ``table`` is ``(allocations, bases, ends)`` as
    :func:`prove_class_evidence` builds it, sentinel row included.
    """
    # Degenerate box dimensions never shift: zero the irrelevant stride.
    sx = access.stride_x if box.x1 > box.x0 else np.zeros_like(access.stride_x)
    sy = access.stride_y if box.y1 > box.y0 else np.zeros_like(access.stride_y)

    for half in (access.lanes < HALF_WARP, access.lanes >= HALF_WARP):
        if not half.any():
            continue
        hx, hy = sx[half], sy[half]
        if (hx != hx[0]).any() or (hy != hy[0]).any():
            return (
                f"instruction {access.index}: mixed ctaid strides "
                "within one half-warp"
            )
        stride_x, stride_y = int(hx[0]), int(hy[0])
        if stride_x == 0 and stride_y == 0:
            continue
        if launch.record_segments:
            return (
                f"instruction {access.index}: absolute segment addresses "
                "are recorded and the address shifts across members"
            )
        aligned = (
            stride_x % _SEGMENT_MODULUS == 0
            and stride_y % _SEGMENT_MODULUS == 0
        )
        addresses = access.addresses[half]
        lone = (
            len(set(addresses.tolist())) == 1
            and stride_x % 4 == 0
            and stride_y % 4 == 0
        )
        if not (aligned or lone):
            return (
                f"instruction {access.index}: ctaid stride "
                f"({stride_x}, {stride_y}) neither segment-aligned nor a "
                "lone-address shift"
            )

    # Containment: every member's access range must stay inside the
    # allocation the anchor touches, so array names, cacheability, and
    # arena bounds replicate exactly.
    lo, hi = box.extremes(sx.astype(float), sy.astype(float))
    span_lo = access.addresses + lo.astype(np.int64)
    span_hi = access.addresses + hi.astype(np.int64) + 4
    allocations, bases, ends = table
    owner = np.searchsorted(bases, access.addresses, side="right") - 1
    outside = access.addresses >= ends[owner]
    escapes = outside | (span_lo < bases[owner]) | (span_hi > ends[owner])
    if not escapes.any():
        return None
    k = int(escapes.argmax())
    if outside[k]:
        return (
            f"instruction {access.index}: anchor address "
            f"{int(access.addresses[k])} is outside every allocation"
        )
    return (
        f"instruction {access.index}: shifted access range "
        f"[{int(span_lo[k])}, {int(span_hi[k])}) escapes "
        f"allocation {allocations[owner[k]].name!r}"
    )
