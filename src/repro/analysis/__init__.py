"""Static analysis over the kernel ISA.

Three layers, bottom to top:

- :mod:`repro.analysis.affine` -- the evidence recorder: while the
  batched interpreter runs a class's anchor block, it shadows every
  lane's value with exact integer ``ctaid`` strides, or top, and
  records the class's accesses and control evidence.
- :mod:`repro.analysis.dedup_proof` -- a segment-alignment proof over
  that evidence's global-address ctaid strides that certifies
  block-dedup classes, so the engine simulates one representative per
  proved class.
- :mod:`repro.analysis.checks` / :mod:`repro.analysis.report` -- the
  kernel static checker (races, OOB, barrier divergence, uninitialized
  reads, dead stores) and the ``repro analyze`` report front-end.
"""

from repro.analysis.affine import ClassBox, ClassTrace, trace_block_class
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
    "AnalysisCase",
    "BUILTIN_KERNELS",
    "ClassBox",
    "ClassTrace",
    "Diagnostic",
    "ProofResult",
    "analysis_case",
    "analyze_kernels",
    "check_kernel",
    "prove_block_class",
    "render_json",
    "render_text",
    "trace_block_class",
]
