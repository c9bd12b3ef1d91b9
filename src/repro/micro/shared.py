"""Shared-memory bandwidth microbenchmark (Section 4.2, Fig. 2 right).

Measures sustained shared-memory bandwidth against resident warps per
SM.  Bandwidth is accounted in *transaction bytes* (64 B per half-warp
transaction, reads and writes both counted), which is the unit the
performance model divides by: ``time = transactions * 64 B / BW(warps)``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.specs import GpuSpec
from repro.hw.gpu import HardwareGpu
from repro.micro.codegen import shared_copy_benchmark
from repro.micro.instruction import DEFAULT_WARP_COUNTS, SWEEP_RESIDENT_BLOCKS
from repro.micro.runner import single_warp_stream, sm_resident_blocks
from repro.sim.functional import FunctionalSimulator, LaunchConfig

#: Bytes carried by one half-warp shared-memory transaction.
SHARED_TRANSACTION_BYTES = 64


@dataclass(frozen=True)
class SharedBandwidthTable:
    """Bytes/second (whole GPU, transaction bytes) per warp count."""

    warp_counts: tuple[int, ...]
    bandwidth: tuple[float, ...]

    def at(self, warps: int) -> float:
        return self.bandwidth[self.warp_counts.index(warps)]

    @property
    def saturated(self) -> float:
        return max(self.bandwidth)

    def saturation_warps(self, fraction: float = 0.95) -> int:
        ceiling = self.saturated
        for warps, value in zip(self.warp_counts, self.bandwidth):
            if value >= fraction * ceiling:
                return warps
        return self.warp_counts[-1]


def shared_points(
    spec: GpuSpec,
    warp_counts: tuple[int, ...] = DEFAULT_WARP_COUNTS,
    iterations: int = 60,
    unroll: int = 8,
):
    """The sweep of Fig. 2 (right) as timing points, and its table.

    Returns ``(points, table)``: one per-SM block queue per warp count
    and a function turning their cluster results into the table.
    """
    kernel = shared_copy_benchmark(unroll=unroll)

    # One functional run gives both the stream and the exact per-warp
    # transaction count (conflict-free here, but counted, not assumed).
    simulator = FunctionalSimulator(kernel)
    launch = LaunchConfig(grid=(1, 1), block_threads=32, params={"iters": iterations})
    block = simulator.run_block(launch, (0, 0))
    stream = block.warp_streams[0]
    transactions_per_warp = block.totals.shared_transactions
    points = [sm_resident_blocks(stream, warps) for warps in warp_counts]

    def table(results) -> SharedBandwidthTable:
        series = []
        for warps, result in zip(warp_counts, results):
            seconds = result.cycles / spec.core_clock_hz
            total_bytes = (
                transactions_per_warp
                * warps
                * spec.num_sms
                * SHARED_TRANSACTION_BYTES
            )
            series.append(total_bytes / seconds)
        return SharedBandwidthTable(tuple(warp_counts), tuple(series))

    return points, table


def measure_shared_bandwidth(
    gpu: HardwareGpu | None = None,
    warp_counts: tuple[int, ...] = DEFAULT_WARP_COUNTS,
    iterations: int = 60,
    unroll: int = 8,
) -> SharedBandwidthTable:
    """Run the sweep of Fig. 2 (right) on the hardware simulator."""
    gpu = gpu or HardwareGpu()
    points, table = shared_points(gpu.spec, warp_counts, iterations, unroll)
    return table(gpu.measure_uniform_sm(points, SWEEP_RESIDENT_BLOCKS))
