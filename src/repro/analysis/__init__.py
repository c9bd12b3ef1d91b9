"""Static analysis over the kernel ISA.

Three layers, bottom to top:

- :mod:`repro.analysis.affine` -- an abstract interpreter that runs the
  kernel in an affine domain, deriving for every register, predicate,
  and address a symbolic form ``a*tid + b*ctaid_x + c*ctaid_y + d`` or
  top, plus a concolic per-class tracer that executes one symbolic
  block per dedup class.
- :mod:`repro.analysis.dedup_proof` -- a segment-alignment proof over
  global-address ctaid strides that certifies block-dedup classes
  without probe simulations.
- :mod:`repro.analysis.checks` / :mod:`repro.analysis.report` -- the
  kernel static checker (races, OOB, barrier divergence, uninitialized
  reads, dead stores) and the ``repro analyze`` report front-end.
"""

from repro.analysis.affine import (
    LOOP,
    TOP,
    AffineForm,
    ClassBox,
    ClassTrace,
    KernelAffineSummary,
    affine_summary,
    trace_block_class,
)
from repro.analysis.checks import Diagnostic, check_kernel
from repro.analysis.dedup_proof import ProofResult, prove_block_class
from repro.analysis.report import (
    BUILTIN_KERNELS,
    AnalysisCase,
    analysis_case,
    analyze_kernels,
    render_json,
    render_text,
)
__all__ = [
    "LOOP",
    "TOP",
    "AffineForm",
    "AnalysisCase",
    "BUILTIN_KERNELS",
    "ClassBox",
    "ClassTrace",
    "Diagnostic",
    "KernelAffineSummary",
    "ProofResult",
    "affine_summary",
    "analysis_case",
    "analyze_kernels",
    "check_kernel",
    "prove_block_class",
    "render_json",
    "render_text",
    "trace_block_class",
]
