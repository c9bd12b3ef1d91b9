"""Shared fixtures: one cheap calibration per test session."""

from __future__ import annotations

import pytest

from repro.hw import HardwareGpu
from repro.micro import calibrate
from repro.model import PerformanceModel
from repro.tune import TUNE_AUTO_ENV, TUNE_DIR_ENV

#: Reduced warp grid keeps session calibration fast while covering the
#: knee and the saturated region of every curve.
TEST_WARP_COUNTS = (1, 2, 4, 6, 8, 12, 16, 24, 32)


@pytest.fixture(autouse=True)
def _isolated_tuning_profiles(monkeypatch, tmp_path):
    """Point profile resolution at an empty per-test directory.

    Simulator and timing-layer constructions resolve their knobs
    through :mod:`repro.tune`; a developer's persisted machine profile
    (``repro tune run``) must not leak into assertions about the
    built-in defaults.  Tune tests monkeypatch over this freely.
    First-use auto-tuning is likewise disabled: a test must never
    trigger a measurement run.
    """
    monkeypatch.setenv(TUNE_DIR_ENV, str(tmp_path / "tune-profiles"))
    monkeypatch.setenv(TUNE_AUTO_ENV, "0")


@pytest.fixture(scope="session")
def gpu() -> HardwareGpu:
    return HardwareGpu()


@pytest.fixture(scope="session")
def tables(gpu):
    return calibrate(gpu, warp_counts=TEST_WARP_COUNTS, iterations=30)


@pytest.fixture(scope="session")
def model(tables) -> PerformanceModel:
    return PerformanceModel(tables)


@pytest.fixture
def engine_proofs(monkeypatch):
    """Run a dedup engine, capturing its ProofResult per class anchor.

    Returns ``run(kernel, launch, gmem, **engine_kwargs)`` ->
    ``(KernelTrace, {anchor: ProofResult})``; the proof runs in the
    main process even when the engine simulates on a pool.
    """
    import repro.analysis.dedup_proof as dedup_proof
    from repro.sim.engine import SimulationEngine

    real = dedup_proof.prove_class_evidence

    def run(kernel, launch, gmem, **engine_kwargs):
        results = {}

        def capture(trace, launch, gmem):
            results[trace.box.anchor] = real(trace, launch, gmem)
            return results[trace.box.anchor]

        monkeypatch.setattr(dedup_proof, "prove_class_evidence", capture)
        engine = SimulationEngine(kernel, gmem=gmem, **engine_kwargs)
        return engine.run(launch), results

    return run
