"""Throughput curves interpolated from microbenchmark tables.

The model evaluates instruction throughput and shared bandwidth *at the
program's warp-level parallelism* (paper Sections 4.1-4.2).  Warp counts
between measured points are piecewise-linearly interpolated; outside the
measured range the curve clamps to its end values.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from repro.errors import CalibrationError
from repro.micro.calibration import CalibrationTables
from repro.sim.trace import TYPE_NAMES


@dataclass(frozen=True)
class ThroughputCurve:
    """A monotone-x piecewise-linear curve (warps -> rate)."""

    xs: tuple[float, ...]
    ys: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.xs) != len(self.ys) or not self.xs:
            raise CalibrationError("curve needs matching, non-empty samples")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise CalibrationError("curve x values must strictly increase")

    def at(self, x: float) -> float:
        """Interpolated rate at ``x`` (clamped to the sampled range)."""
        xs, ys = self.xs, self.ys
        if x <= xs[0]:
            return ys[0]
        if x >= xs[-1]:
            return ys[-1]
        hi = bisect_left(xs, x)
        lo = hi - 1
        t = (x - xs[lo]) / (xs[hi] - xs[lo])
        return ys[lo] + t * (ys[hi] - ys[lo])


def instruction_curves(
    tables: CalibrationTables,
) -> dict[str, ThroughputCurve]:
    """Per-type instruction throughput curves in warp-instructions/s."""
    table = tables.instruction
    xs = tuple(float(w) for w in table.warp_counts)
    return {
        name: ThroughputCurve(xs, tuple(v * 1e9 for v in table.throughput[name]))
        for name in TYPE_NAMES
    }


def shared_curve(tables: CalibrationTables) -> ThroughputCurve:
    """Shared bandwidth curve in transaction-bytes/s."""
    table = tables.shared
    xs = tuple(float(w) for w in table.warp_counts)
    return ThroughputCurve(xs, tuple(table.bandwidth))
