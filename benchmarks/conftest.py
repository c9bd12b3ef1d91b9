"""Benchmark-harness infrastructure.

Every ``bench_*`` module regenerates one of the paper's tables or
figures (see DESIGN.md's experiment index), prints the same rows/series
the paper reports, and records them under ``benchmarks/results/`` so
EXPERIMENTS.md can quote concrete numbers.

Calibration is expensive (~40 s), so it is performed once and stored in
``benchmarks/results/`` (one ``calibration-<hash>.json`` per spec,
timing configuration and sweep) across benchmark sessions.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.hw import HardwareGpu
from repro.micro.cache import load_or_calibrate
from repro.model import PerformanceModel

RESULTS_DIR = Path(__file__).parent / "results"

#: Full warp grid for publication-quality curves.
BENCH_WARP_COUNTS = (
    1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 20, 24, 28, 32,
)


def pytest_addoption(parser):
    try:
        parser.addoption(
            "--sample",
            action="store_true",
            default=False,
            help="use the pre-engine 12-block representative sampling for "
            "the SpMV figures instead of exact full-grid traces",
        )
    except ValueError:
        # Already registered (conftest loaded twice via different paths).
        pass


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def engine_workers() -> int:
    """Pool width shared by the engine and the timing simulator."""
    return max(1, min(8, os.cpu_count() or 1))


@pytest.fixture(scope="session")
def spmv_sample_blocks(request) -> int | None:
    """SpMV trace mode: exact full grids by default, 12-block
    representative sampling with ``--sample`` (the pre-engine default,
    kept as an opt-in for quick comparisons)."""
    try:
        sampled = request.config.getoption("--sample")
    except ValueError:
        sampled = False
    return 12 if sampled else None


@pytest.fixture(scope="session")
def gpu(results_dir, engine_workers) -> HardwareGpu:
    # Measured-run memoization sits next to the session trace cache, so
    # re-running a figure replays its timing measurements instantly.
    return HardwareGpu(
        workers=engine_workers, cache_dir=str(results_dir / "measured")
    )


@pytest.fixture(scope="session")
def tables(gpu, results_dir):
    # Content-keyed: editing the modelled architecture or its timing
    # configuration selects other tables instead of reusing stale curves.
    return load_or_calibrate(
        gpu,
        cache_dir=results_dir,
        warp_counts=BENCH_WARP_COUNTS,
        iterations=60,
    )


@pytest.fixture(scope="session")
def model(tables) -> PerformanceModel:
    return PerformanceModel(tables)


@pytest.fixture(scope="session")
def trace_cache(results_dir) -> str:
    """On-disk KernelTrace memo cache shared across benchmark sessions."""
    return str(results_dir / "traces")


class Reporter:
    """Collects table rows, prints them, and writes them to disk."""

    def __init__(self, name: str, directory: Path) -> None:
        self.name = name
        self.path = directory / f"{name}.txt"
        self.lines: list[str] = []

    def line(self, text: str = "") -> None:
        self.lines.append(text)

    def table(self, headers: list[str], rows: list[list]) -> None:
        widths = [
            max(len(str(h)), *(len(str(r[i])) for r in rows)) if rows else len(str(h))
            for i, h in enumerate(headers)
        ]
        self.line(
            "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
        )
        self.line("  ".join("-" * w for w in widths))
        for row in rows:
            self.line(
                "  ".join(str(c).ljust(w) for c, w in zip(row, widths))
            )

    def flush(self) -> str:
        text = "\n".join([f"== {self.name} ==", *self.lines, ""])
        self.path.write_text(text)
        print("\n" + text)
        return text


@pytest.fixture()
def reporter(request, results_dir):
    rep = Reporter(request.node.name.replace("bench_", ""), results_dir)
    yield rep
    rep.flush()
