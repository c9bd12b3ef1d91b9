"""Shared harness for the case-study applications.

Each case study runs through the same pipeline the paper's Fig. 1 shows:
functional simulation (dynamic statistics + warp streams), occupancy,
the performance model's analysis, and a hardware "measurement" on the
timing simulator.  :class:`AppRun` bundles the artifacts so examples,
tests and benchmarks can compare model predictions with measurements.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.arch.occupancy import KernelResources, Occupancy, compute_occupancy
from repro.arch.specs import GpuSpec, GTX285
from repro.hw.gpu import HardwareGpu, MeasuredRun
from repro.isa.program import Kernel
from repro.model.performance import PerformanceModel
from repro.model.report import PerformanceReport
from repro.sim.engine import SimulationEngine
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.sim.trace import KernelTrace


@dataclass
class AppRun:
    """One analyzed-and-measured kernel launch."""

    name: str
    kernel: Kernel
    launch: LaunchConfig
    resources: KernelResources
    occupancy: Occupancy
    trace: KernelTrace
    report: PerformanceReport | None = None
    measured: MeasuredRun | None = None

    @property
    def predicted_seconds(self) -> float:
        return self.report.predicted_seconds if self.report else float("nan")

    @property
    def measured_seconds(self) -> float:
        return self.measured.seconds if self.measured else float("nan")

    @property
    def model_error(self) -> float:
        """|predicted - measured| / measured (the paper's 5-15% metric)."""
        return self.report.error_against(self.measured.seconds)


def kernel_resources(kernel: Kernel, launch: LaunchConfig) -> KernelResources:
    """Resource declaration the occupancy calculator consumes."""
    return KernelResources(
        threads_per_block=launch.block_threads,
        registers_per_thread=kernel.num_registers,
        shared_memory_per_block=kernel.shared_memory_bytes,
    )


def _cache_provenance(
    engine_used: bool,
    trace_cache: str | None,
    trace: KernelTrace,
    gpu: HardwareGpu | None,
    measured: MeasuredRun | None,
    model: PerformanceModel | None,
) -> dict:
    """How each cache answered this run: ``hit``/``cold``/``off``.

    ``calibration`` only appears when the model carries provenance
    (:mod:`repro.__main__` stamps ``calibration_provenance`` when it
    builds the model around :func:`repro.micro.start_load_or_calibrate`).
    """
    provenance: dict = {}
    stats = getattr(trace, "engine_stats", None)
    if engine_used and trace_cache is not None:
        hit = bool(getattr(stats, "cache_hit", False))
        provenance["trace"] = "hit" if hit else "cold"
    else:
        provenance["trace"] = "off"
    if measured is not None:
        if gpu is not None and gpu.cache is not None:
            provenance["measured"] = (
                "hit" if measured.from_cache else "cold"
            )
        else:
            provenance["measured"] = "off"
    calibration = getattr(model, "calibration_provenance", None)
    if calibration is not None:
        provenance["calibration"] = calibration
    return provenance


def execute(
    name: str,
    kernel: Kernel,
    gmem: GlobalMemory,
    launch: LaunchConfig,
    sample_blocks: list[tuple[int, int]] | None = None,
    model: PerformanceModel | None = None,
    gpu: HardwareGpu | None = None,
    measure: bool = True,
    spec: GpuSpec = GTX285,
    use_cache: bool = False,
    engine: bool = True,
    workers: int = 0,
    trace_cache: str | None = None,
    task_timeout: float | None = None,
) -> AppRun:
    """Run the full workflow on one kernel launch.

    ``sample_blocks=None`` simulates the whole grid (exact);
    a sample list scales statistics to the grid (representative mode).

    ``engine=True`` (default) routes the functional simulation through
    :class:`SimulationEngine` -- block deduplication on full grids,
    optional ``workers``-wide process fan-out, and an on-disk trace memo
    cache at ``trace_cache``.  Pass ``engine=False`` when the *numerical*
    results must land in ``gmem`` (validation paths): the engine only
    guarantees the statistics, not replicated blocks' memory writes.

    ``spec`` may be any architecture (registry generations included):
    the launch's traced coalescing granularities are extended to cover
    the spec's minimum transaction segment, so the performance model
    always finds statistics at the granularity it analyzes.
    """
    from repro import obs
    from repro.util import spec_fingerprint

    gran = spec.memory.min_segment_bytes
    if gran not in launch.granularities:
        launch = dataclasses.replace(
            launch, granularities=tuple(launch.granularities) + (gran,)
        )
    span = obs.span(
        "app.execute",
        app=name,
        kernel=kernel.name,
        spec=getattr(spec, "name", None),
        workers=workers,
    )
    with span:
        if obs.enabled():
            obs.annotate(**{
                f"spec.{getattr(spec, 'name', 'unnamed')}":
                    spec_fingerprint(spec)
            })
        if engine:
            sim_engine = SimulationEngine(
                kernel,
                gmem=gmem,
                spec=spec,
                workers=workers,
                cache_dir=trace_cache,
                task_timeout=task_timeout,
            )
            trace = sim_engine.run(launch, blocks=sample_blocks)
        else:
            simulator = FunctionalSimulator(kernel, gmem=gmem, spec=spec)
            trace = simulator.run(launch, blocks=sample_blocks)
        resources = kernel_resources(kernel, launch)
        occupancy = compute_occupancy(spec, resources)

        measured = None
        if measure:
            # The default timing simulator shares the engine's pool
            # width; callers wanting the measured-run cache pass their
            # own gpu.
            gpu = gpu or HardwareGpu(
                spec=spec, workers=workers, task_timeout=task_timeout
            )
            measured = gpu.measure(
                trace.block_traces if len(trace.block_traces) > 1
                else trace.block_traces[0],
                num_blocks=launch.num_blocks,
                resident_per_sm=occupancy.blocks_per_sm,
                use_cache=use_cache,
            )

        # Analyzed last: a model whose calibration is still sweeping on
        # the pool (see repro.__main__) collects it here, after the
        # simulations above have run alongside it.
        report = None
        if model is not None:
            report = model.analyze(trace, launch, resources)

    if report is not None:
        report = dataclasses.replace(
            report,
            cache_provenance=_cache_provenance(
                engine_used=engine,
                trace_cache=trace_cache,
                trace=trace,
                gpu=gpu if measure else None,
                measured=measured,
                model=model,
            ),
        )

    return AppRun(
        name=name,
        kernel=kernel,
        launch=launch,
        resources=resources,
        occupancy=occupancy,
        trace=trace,
        report=report,
        measured=measured,
    )
