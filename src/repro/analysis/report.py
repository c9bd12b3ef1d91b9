"""``repro analyze``: run the static checker over the kernel zoo.

Each built-in case pairs an app kernel with a representative problem
instance (the checker and the dedup proof both reason about one launch
configuration at a time).  The report renders per-kernel diagnostics
plus an affine-addressing verdict read off those diagnostics, as text
or JSON, and the CLI exits nonzero when any error-severity diagnostic
fires.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.apps import matmul, reduction, scan, spmv, stencil, tridiag
from repro.apps.matrices import random_blocked
from repro.errors import ReproError
from repro.isa.program import Kernel
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory
from repro.analysis.checks import SEVERITIES, Diagnostic, check_kernel


@dataclass(frozen=True)
class AnalysisCase:
    """One kernel + launch + memory image to analyze."""

    name: str
    kernel: Kernel
    launch: LaunchConfig
    gmem: GlobalMemory


def _case_matmul() -> AnalysisCase:
    problem = matmul.prepare_problem(128, 16)
    kernel = matmul.build_matmul_kernel(128, 16)
    return AnalysisCase("matmul", kernel, problem.launch(), problem.gmem)


def _case_scan() -> AnalysisCase:
    problem = scan.prepare_problem(1000)
    kernel = scan.build_scan_kernel(problem.block_threads, problem.dtype)
    return AnalysisCase("scan", kernel, problem.launch(), problem.gmem)


def _case_stencil() -> AnalysisCase:
    problem = stencil.prepare_problem(512)
    kernel = stencil.build_stencil_kernel(problem.block_threads, guarded=False)
    return AnalysisCase("stencil", kernel, problem.launch(), problem.gmem)


def _case_stencil_guarded() -> AnalysisCase:
    problem = stencil.prepare_problem(512, guarded=True)
    kernel = stencil.build_stencil_kernel(problem.block_threads, guarded=True)
    return AnalysisCase(
        "stencil_guarded", kernel, problem.launch(), problem.gmem
    )


def _case_reduction() -> AnalysisCase:
    problem = reduction.prepare_problem()
    kernel = reduction.build_reduction_kernel(problem.block_threads)
    return AnalysisCase("reduction", kernel, problem.launch(), problem.gmem)


def _case_tridiag() -> AnalysisCase:
    problem = tridiag.prepare_problem(128, 8)
    kernel = tridiag.build_cr_kernel(128)
    return AnalysisCase("tridiag", kernel, problem.launch(), problem.gmem)


def _case_tridiag_nbc() -> AnalysisCase:
    problem = tridiag.prepare_problem(128, 8)
    kernel = tridiag.build_cr_kernel(128, padded=True)
    return AnalysisCase("tridiag_nbc", kernel, problem.launch(), problem.gmem)


def _case_spmv() -> AnalysisCase:
    matrix = random_blocked(block_rows=40, slots=3)
    problem = spmv.prepare_problem(matrix, "ell")
    kernel = spmv.build_ell_kernel(matrix.slots * matrix.block_size, matrix.n)
    return AnalysisCase("spmv", kernel, problem.launch(), problem.gmem)


#: Name -> case factory for every kernel in the zoo.
BUILTIN_KERNELS = {
    "matmul": _case_matmul,
    "scan": _case_scan,
    "stencil": _case_stencil,
    "stencil_guarded": _case_stencil_guarded,
    "reduction": _case_reduction,
    "tridiag": _case_tridiag,
    "tridiag_nbc": _case_tridiag_nbc,
    "spmv": _case_spmv,
}


def analysis_case(name: str) -> AnalysisCase:
    """Build the named built-in case."""
    try:
        factory = BUILTIN_KERNELS[name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_KERNELS))
        raise ReproError(
            f"unknown kernel {name!r}; built-in kernels: {known}"
        ) from None
    return factory()


#: Checker codes that mean some address left the affine domain: it
#: depends on loaded data, or the evidence recording stopped early.
_NON_AFFINE_CODES = ("data-addresses", "analysis-incomplete")


@dataclass(frozen=True)
class KernelReport:
    """Checker output for one case."""

    name: str
    diagnostics: tuple[Diagnostic, ...]
    affine: bool  # no data-dependent address, evidence stayed affine

    def count(self, severity: str) -> int:
        return sum(1 for d in self.diagnostics if d.severity == severity)

    @property
    def clean(self) -> bool:
        return self.count("error") == 0


def analyze_kernels(names: list[str] | None = None) -> list[KernelReport]:
    """Run the checker over the named (default: all) built-in kernels."""
    selected = names if names else sorted(BUILTIN_KERNELS)
    reports = []
    for name in selected:
        case = analysis_case(name)
        diagnostics = tuple(check_kernel(case.kernel, case.launch, case.gmem))
        affine = not any(d.code in _NON_AFFINE_CODES for d in diagnostics)
        reports.append(KernelReport(name, diagnostics, affine))
    return reports


def error_count(reports: list[KernelReport]) -> int:
    return sum(report.count("error") for report in reports)


def render_text(reports: list[KernelReport]) -> str:
    lines = []
    for report in reports:
        addressing = "affine" if report.affine else "non-affine"
        if not report.diagnostics:
            lines.append(f"{report.name}: clean ({addressing} addressing)")
            continue
        counts = ", ".join(
            f"{report.count(sev)} {sev}{'s' if report.count(sev) != 1 else ''}"
            for sev in SEVERITIES
            if report.count(sev)
        )
        lines.append(f"{report.name}: {counts} ({addressing} addressing)")
        for diag in report.diagnostics:
            lines.extend("  " + line for line in diag.format().splitlines())
    total = error_count(reports)
    lines.append(
        f"{len(reports)} kernels analyzed, {total} error"
        f"{'s' if total != 1 else ''}"
    )
    return "\n".join(lines)


def render_json(reports: list[KernelReport]) -> str:
    payload = {
        "kernels": {
            report.name: {
                "affine": report.affine,
                "clean": report.clean,
                "diagnostics": [
                    {
                        "severity": diag.severity,
                        "code": diag.code,
                        "instruction_index": diag.index,
                        "instruction": diag.instruction,
                        "message": diag.message,
                    }
                    for diag in report.diagnostics
                ],
            }
            for report in reports
        },
        "errors": error_count(reports),
    }
    return json.dumps(payload, indent=2, sort_keys=True)
