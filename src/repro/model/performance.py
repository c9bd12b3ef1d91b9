"""The performance model: stage analysis and bottleneck identification.

Implements the paper's Section 3 methodology:

* estimate instruction / shared / global time per synchronization stage;
* with one block per SM, stages serialize: total time is the sum of
  per-stage bottlenecks, and each stage gets its own bottleneck verdict;
* with multiple resident blocks, stages overlap across blocks: component
  times sum across stages and the whole program has a single bottleneck
  (the largest component total);
* non-bottleneck time is assumed hidden by overlap, which
  "will under-estimate the total execution time when there are
  insufficient warps and scarce independent instructions" -- the known
  bias the paper reports as ~14% on dense matrix multiply.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.arch.occupancy import KernelResources, Occupancy, compute_occupancy
from repro.arch.specs import GpuSpec, GTX285
from repro.hw.gpu import HardwareGpu
from repro.micro.calibration import CalibrationTables, default_tables
from repro.model.components import ComponentModels, ComponentTimes, ZERO_TIMES
from repro.model.extractor import (
    ModelInputs,
    StageInputs,
    extract_inputs,
)
from repro.model.report import PerformanceReport, StageAnalysis, diagnose
from repro.pool import Pending
from repro.sim.functional import LaunchConfig
from repro.sim.trace import KernelTrace


@dataclass(frozen=True)
class AnalysisContext:
    """What a full analysis needs besides the trace."""

    launch: LaunchConfig
    resources: KernelResources
    occupancy: Occupancy


class PerformanceModel:
    """Analyze dynamic traces into quantitative performance reports.

    Without ``tables`` the model calibrates ``HardwareGpu(spec=spec)``
    once per process (:func:`repro.micro.calibration.default_tables`).
    ``tables`` may also be a calibration still running
    (:func:`repro.micro.start_calibrate`); it is collected the first
    time the model needs it, so the sweep overlaps whatever the caller
    does before analyzing.
    """

    def __init__(
        self,
        tables: CalibrationTables | Pending | None = None,
        spec: GpuSpec = GTX285,
    ) -> None:
        self.spec = spec
        if tables is None:
            tables = default_tables(HardwareGpu(spec=spec))
        self._tables = tables
        self._models: ComponentModels | None = None

    @property
    def tables(self) -> CalibrationTables:
        if isinstance(self._tables, Pending):
            self._tables = self._tables.collect()
        return self._tables

    @property
    def models(self) -> ComponentModels:
        if self._models is None:
            self._models = ComponentModels(self.tables, self.spec)
        return self._models

    # ------------------------------------------------------------------
    def context(
        self, launch: LaunchConfig, resources: KernelResources
    ) -> AnalysisContext:
        occupancy = compute_occupancy(self.spec, resources)
        return AnalysisContext(launch, resources, occupancy)

    def extract(
        self,
        trace: KernelTrace,
        launch: LaunchConfig,
        resources: KernelResources,
        granularity: int | None = None,
    ) -> ModelInputs:
        """Model inputs for a trace.

        ``granularity=None`` uses the spec's minimum transaction
        segment (32 B on the GT200 baseline), so registry specs with
        coarser-only transactions are modelled at their own
        granularity.
        """
        if granularity is None:
            granularity = self.spec.memory.min_segment_bytes
        occupancy = compute_occupancy(self.spec, resources)
        return extract_inputs(
            trace, launch, occupancy, self.spec, granularity=granularity
        )

    def analyze(
        self,
        trace: KernelTrace,
        launch: LaunchConfig,
        resources: KernelResources,
        granularity: int | None = None,
    ) -> PerformanceReport:
        """Full pipeline: extract inputs, then analyze them."""
        from repro import obs

        with obs.span("model.analyze"):
            report = self.analyze_inputs(
                self.extract(trace, launch, resources, granularity)
            )
        engine_stats = getattr(trace, "engine_stats", None)
        if engine_stats is not None:
            report = dataclasses.replace(report, engine_stats=engine_stats)
        return report

    def analyze_inputs(self, inputs: ModelInputs) -> PerformanceReport:
        """Component times, per-stage and whole-program bottlenecks."""
        stage_analyses: list[StageAnalysis] = []
        component_totals = ZERO_TIMES
        for stage in inputs.stages:
            times = self.models.stage_times(stage, inputs)
            warps = inputs.active_warps_per_sm(stage, self.spec.sm.max_warps)
            stage_analyses.append(
                StageAnalysis(
                    index=stage.index,
                    times=times,
                    bottleneck=times.bottleneck,
                    active_warps=warps,
                    inputs=stage,
                )
            )
            component_totals = component_totals + times

        if inputs.serialized:
            # One block per SM: stages serialize; the program's time is
            # the sum of per-stage bottlenecks, and the program-level
            # bottleneck is the component that contributes most of it
            # (the paper's "CR is dominated by shared memory access").
            predicted = sum(s.times.bottleneck_time for s in stage_analyses)
            contributions = {"instruction": 0.0, "shared": 0.0, "global": 0.0}
            for stage in stage_analyses:
                contributions[stage.bottleneck] += stage.times.bottleneck_time
            bottleneck = max(contributions, key=contributions.get)
        else:
            predicted = component_totals.bottleneck_time
            bottleneck = component_totals.bottleneck

        return PerformanceReport(
            stages=tuple(stage_analyses),
            serialized=inputs.serialized,
            component_totals=component_totals,
            predicted_seconds=predicted,
            bottleneck=bottleneck,
            inputs=inputs,
            diagnostics=diagnose(
                inputs, component_totals, bottleneck, self.tables, self.spec
            ),
        )
