"""repro: a quantitative performance analysis model for GPU architectures.

A from-scratch reproduction of Zhang & Owens, "A Quantitative
Performance Analysis Model for GPU Architectures" (HPCA 2011):

* :mod:`repro.arch` -- GTX 285 architecture specs + occupancy;
* :mod:`repro.isa` -- native instruction set, builder, assembler;
* :mod:`repro.sim` -- Barra-style SIMT functional simulator;
* :mod:`repro.memory` -- coalescing and bank-conflict analyzers;
* :mod:`repro.hw` -- cycle-approximate hardware timing simulator
  (the stand-in for the physical GPU; see DESIGN.md);
* :mod:`repro.micro` -- microbenchmarks and calibration tables;
* :mod:`repro.model` -- the paper's performance model: per-component
  time estimates, bottleneck identification, what-if predictions;
* :mod:`repro.apps` -- the three case studies (dense matrix multiply,
  cyclic-reduction tridiagonal solver, SpMV).

Quickstart::

    from repro import GTX285, PerformanceModel, run_matmul

    model = PerformanceModel()            # calibrates once, then cached
    run = run_matmul(256, 16, model=model)
    print(run.report.render())
"""

from repro.arch import (
    GTX285,
    GpuSpec,
    KernelResources,
    Occupancy,
    compute_occupancy,
)
from repro.apps import (
    qcd_like,
    run_cr,
    run_matmul,
    run_spmv,
)
from repro.errors import ReproError
from repro.hw import HardwareGpu, HwConfig
from repro.isa import Kernel, KernelBuilder
from repro.micro import CalibrationTables, calibrate
from repro.model import PerformanceModel, PerformanceReport
from repro.sim import FunctionalSimulator, GlobalMemory, LaunchConfig

__version__ = "1.0.0"

__all__ = [
    "CalibrationTables",
    "FunctionalSimulator",
    "GTX285",
    "GlobalMemory",
    "GpuSpec",
    "HardwareGpu",
    "HwConfig",
    "Kernel",
    "KernelBuilder",
    "KernelResources",
    "LaunchConfig",
    "Occupancy",
    "PerformanceModel",
    "PerformanceReport",
    "ReproError",
    "calibrate",
    "compute_occupancy",
    "qcd_like",
    "run_cr",
    "run_matmul",
    "run_spmv",
    "__version__",
]
