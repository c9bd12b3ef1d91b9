"""Resolution precedence of the tuning parameters (repro.tune.resolve):
kwarg beats env beats profile beats built-in default, and invalid
env/profile values fail open with a warning."""

import pytest

from repro.arch.specs import GTX285
from repro.hw import HardwareGpu
from repro.isa import Imm, KernelBuilder
from repro.sim import FunctionalSimulator, LaunchConfig
from repro.tune import (
    BUILTIN_DEFAULTS,
    new_profile,
    resolve,
    resolve_with_source,
    save_profile,
)
from repro.util import spec_fingerprint

SPEC_FP = spec_fingerprint(GTX285)
LAUNCH = LaunchConfig(grid=(1, 1), block_threads=32)


def _kernel():
    b = KernelBuilder("k")
    r = b.reg()
    b.mov(r, Imm(1.0))
    b.exit()
    return b.build()


def _save(monkeypatch, tmp_path, **kwargs):
    """Persist a profile into an isolated tune dir and point env at it."""
    monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tune"))
    profile = new_profile(SPEC_FP, {}, {}, **kwargs)
    save_profile(profile)
    return profile


class TestPrecedenceOrder:
    def test_default_without_any_source(self):
        value, source = resolve_with_source("grid_batch_blocks", spec=GTX285)
        assert (value, source) == (BUILTIN_DEFAULTS["grid_batch_blocks"], "default")

    def test_profile_beats_default(self, monkeypatch, tmp_path):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks=24)
        value, source = resolve_with_source("grid_batch_blocks", spec=GTX285)
        assert (value, source) == (24, "profile")

    def test_env_beats_profile(self, monkeypatch, tmp_path):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks=24)
        monkeypatch.setenv("REPRO_TUNE_GRID_BATCH_BLOCKS", "7")
        value, source = resolve_with_source("grid_batch_blocks", spec=GTX285)
        assert (value, source) == (7, "env:REPRO_TUNE_GRID_BATCH_BLOCKS")

    def test_kwarg_beats_env_and_profile(self, monkeypatch, tmp_path):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks=24)
        monkeypatch.setenv("REPRO_TUNE_GRID_BATCH_BLOCKS", "7")
        value, source = resolve_with_source(
            "grid_batch_blocks", kwarg=4, spec=GTX285
        )
        assert (value, source) == (4, "kwarg")

    def test_tune_env_spelling_works(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_GRID_BATCH_BLOCKS", "9")
        assert resolve("grid_batch_blocks", spec=GTX285) == 9

    def test_one_env_spelling_per_parameter(self, monkeypatch):
        # Only the REPRO_TUNE_ spelling is read.
        monkeypatch.setenv("REPRO_GRID_BATCH_BLOCKS", "7")
        value, source = resolve_with_source("grid_batch_blocks", spec=GTX285)
        assert (value, source) == (BUILTIN_DEFAULTS["grid_batch_blocks"], "default")

    def test_min_parallel_events_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_MIN_PARALLEL_EVENTS", "123")
        assert resolve("min_parallel_events", spec=GTX285) == 123

    def test_unknown_parameter_rejected(self):
        with pytest.raises(KeyError):
            resolve("not_a_knob")


class TestFailOpen:
    def test_invalid_env_warns_and_falls_through(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_GRID_BATCH_BLOCKS", "not-a-number")
        with pytest.warns(RuntimeWarning):
            value = resolve("grid_batch_blocks", spec=GTX285)
        assert value == BUILTIN_DEFAULTS["grid_batch_blocks"]

    def test_invalid_env_falls_through_to_profile(self, monkeypatch, tmp_path):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks=24)
        monkeypatch.setenv("REPRO_TUNE_GRID_BATCH_BLOCKS", "junk")
        with pytest.warns(RuntimeWarning):
            value, source = resolve_with_source(
                "grid_batch_blocks", spec=GTX285
            )
        assert (value, source) == (24, "profile")

    def test_invalid_profile_value_warns_and_falls_through(
        self, monkeypatch, tmp_path
    ):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks="wide")
        with pytest.warns(RuntimeWarning):
            value = resolve("grid_batch_blocks", spec=GTX285)
        assert value == BUILTIN_DEFAULTS["grid_batch_blocks"]

    def test_numeric_values_clamp_to_floor(self):
        assert resolve("grid_batch_blocks", kwarg=0) == 1
        assert resolve("min_parallel_events", kwarg=-5) == 0


class TestProfileLookupShapes:
    def test_grid_batch_blocks_by_warps(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tune"))
        profile = new_profile(
            SPEC_FP, {}, {2: 16, 4: 48}, default_grid_batch_blocks=24
        )
        save_profile(profile)
        assert resolve("grid_batch_blocks", spec=GTX285, warps_per_block=2) == 16
        assert resolve("grid_batch_blocks", spec=GTX285, warps_per_block=4) == 48
        # Unmeasured shape: the profile-wide default.
        assert resolve("grid_batch_blocks", spec=GTX285, warps_per_block=8) == 24

    def test_min_parallel_events_nearest_measured_width(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tune"))
        profile = new_profile(
            SPEC_FP,
            {2: 9000, 8: 1000},
            {},
            default_min_parallel_events=9000,
        )
        save_profile(profile)
        # Widest measured pool not wider than the request.
        assert resolve("min_parallel_events", spec=GTX285, workers=4) == 9000
        assert resolve("min_parallel_events", spec=GTX285, workers=8) == 1000
        assert resolve("min_parallel_events", spec=GTX285, workers=16) == 1000
        # No pool context: the profile-wide default.
        assert resolve("min_parallel_events", spec=GTX285, workers=0) == 9000

    def test_other_spec_does_not_see_this_profile(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tune"))
        save_profile(
            new_profile("other-spec-fp", {}, {}, default_grid_batch_blocks=5)
        )
        assert (
            resolve("grid_batch_blocks", spec=GTX285)
            == BUILTIN_DEFAULTS["grid_batch_blocks"]
        )


class TestConsumptionSites:
    """The engine layers resolve through repro.tune (no hard-coded
    crossover constants left at the call sites)."""

    def test_functional_simulator_consumes_profile(self, monkeypatch, tmp_path):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks=13)
        sim = FunctionalSimulator(_kernel())
        assert sim.grid_batch_blocks_for(LAUNCH) == 13

    def test_functional_simulator_kwarg_still_wins(self, monkeypatch, tmp_path):
        _save(monkeypatch, tmp_path, default_grid_batch_blocks=13)
        sim = FunctionalSimulator(_kernel(), grid_batch_blocks=4)
        assert sim.grid_batch_blocks_for(LAUNCH) == 4

    def test_hardware_gpu_consumes_profile(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_DIR", str(tmp_path / "tune"))
        save_profile(
            new_profile(
                SPEC_FP, {2: 777, 4: 555}, {}, default_min_parallel_events=999
            )
        )
        assert HardwareGpu().min_parallel_events == 999
        assert HardwareGpu(workers=4).min_parallel_events == 555

    def test_hardware_gpu_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TUNE_MIN_PARALLEL_EVENTS", "111")
        gpu = HardwareGpu(min_parallel_events=42)
        assert gpu.min_parallel_events == 42

    def test_engine_kwarg_reaches_simulator_through_resolution(self):
        from repro.sim import SimulationEngine

        engine = SimulationEngine(_kernel(), grid_batch_blocks=3)
        assert engine.simulator.grid_batch_blocks_for(LAUNCH) == 3

    def test_no_hardcoded_constants_at_consumption_sites(self):
        """The old magic numbers live only in repro.tune's defaults."""
        import inspect

        import repro.hw.gpu as gpu_mod
        import repro.sim.functional as functional_mod

        assert "50_000\n" not in inspect.getsource(gpu_mod.HardwareGpu)
        assert "50000" not in inspect.getsource(gpu_mod.HardwareGpu)
        # Slab resolution lives in the per-launch grid_batch_blocks_for,
        # the width's only reader.
        source = inspect.getsource(
            functional_mod.FunctionalSimulator.grid_batch_blocks_for
        )
        assert "= 32" not in source
        assert "tune_resolve" in source
