"""Spec-keyed calibration caching (the CLI's default-path cache)."""

import dataclasses
import json

import pytest

from repro.arch.specs import GTX285
from repro.hw import HardwareGpu
from repro.micro import cache as micro_cache
from repro.micro.cache import (
    default_cache_dir,
    default_calibration_path,
    load_or_calibrate,
    spec_fingerprint,
)
from repro.util import source_digest

WARPS = (1, 4, 32)


@pytest.fixture()
def counted_calibrate(monkeypatch):
    """Count real calibrations (sweeps started) behind load_or_calibrate."""
    calls = []
    real = micro_cache.start_calibrate

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(micro_cache, "start_calibrate", counting)
    return calls


class TestDefaultPaths:
    def test_env_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "alt"))
        assert default_cache_dir() == tmp_path / "alt"
        assert default_calibration_path().name == "calibration.json"

    def test_defaults_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(".cache/repro")


class TestLoadOrCalibrate:
    def test_second_call_reuses_cache(self, tmp_path, counted_calibrate):
        path = tmp_path / "calibration.json"
        gpu = HardwareGpu()
        first = load_or_calibrate(
            gpu, path=path, warp_counts=WARPS, iterations=10
        )
        assert path.exists()
        second = load_or_calibrate(
            gpu, path=path, warp_counts=WARPS, iterations=10
        )
        assert len(counted_calibrate) == 1
        assert second.instruction.throughput == first.instruction.throughput
        assert second.gpu is gpu  # hardware handle re-attached on load

    def test_spec_change_invalidates(self, tmp_path, counted_calibrate):
        path = tmp_path / "calibration.json"
        load_or_calibrate(
            HardwareGpu(), path=path, warp_counts=WARPS, iterations=10
        )
        other_spec = dataclasses.replace(GTX285, core_clock_ghz=2.0)
        load_or_calibrate(
            HardwareGpu(spec=other_spec),
            path=path,
            warp_counts=WARPS,
            iterations=10,
        )
        assert len(counted_calibrate) == 2
        assert spec_fingerprint(other_spec) != spec_fingerprint(GTX285)

    def test_fingerprint_ignores_dict_insertion_order(self):
        units = dict(GTX285.functional_units)
        reordered = dataclasses.replace(
            GTX285,
            functional_units=dict(sorted(units.items(), reverse=True)),
        )
        assert spec_fingerprint(reordered) == spec_fingerprint(GTX285)

    def test_sweep_change_invalidates(self, tmp_path, counted_calibrate):
        path = tmp_path / "calibration.json"
        gpu = HardwareGpu()
        load_or_calibrate(gpu, path=path, warp_counts=WARPS, iterations=10)
        load_or_calibrate(gpu, path=path, warp_counts=WARPS, iterations=20)
        assert len(counted_calibrate) == 2

    def test_corrupt_cache_recalibrates(self, tmp_path, counted_calibrate):
        path = tmp_path / "calibration.json"
        gpu = HardwareGpu()
        load_or_calibrate(gpu, path=path, warp_counts=WARPS, iterations=10)
        path.write_text("{not json")
        load_or_calibrate(gpu, path=path, warp_counts=WARPS, iterations=10)
        assert len(counted_calibrate) == 2

    def test_on_calibrate_fires_only_on_slow_path(
        self, tmp_path, counted_calibrate
    ):
        path = tmp_path / "calibration.json"
        gpu = HardwareGpu()
        notices = []
        kwargs = dict(
            path=path,
            warp_counts=WARPS,
            iterations=10,
            on_calibrate=lambda: notices.append(1),
        )
        load_or_calibrate(gpu, **kwargs)  # cold: calibrates
        load_or_calibrate(gpu, **kwargs)  # warm: silent
        assert notices == [1]
        path.write_text("{not json")  # stale/invalid cache: calibrates
        load_or_calibrate(gpu, **kwargs)
        assert notices == [1, 1]
        assert len(counted_calibrate) == 2

    def test_unwritable_cache_root_fails_open(
        self, tmp_path, counted_calibrate
    ):
        # A file where a directory is needed makes mkdir raise; the
        # freshly calibrated tables must still come back.
        (tmp_path / "blocker").write_text("")
        path = tmp_path / "blocker" / "sub" / "calibration.json"
        tables = load_or_calibrate(
            HardwareGpu(), path=path, warp_counts=WARPS, iterations=10
        )
        assert tables is not None
        assert len(counted_calibrate) == 1
        assert not path.exists()

    def test_cache_from_other_source_recalibrates(
        self, tmp_path, monkeypatch, counted_calibrate
    ):
        path = tmp_path / "calibration.json"
        gpu = HardwareGpu()
        load_or_calibrate(gpu, path=path, warp_counts=WARPS, iterations=10)
        monkeypatch.setattr("repro.util._SOURCE_DIGEST", "other source")
        load_or_calibrate(gpu, path=path, warp_counts=WARPS, iterations=10)
        assert len(counted_calibrate) == 2

    def test_cached_payload_is_versioned_and_keyed(self, tmp_path):
        path = tmp_path / "calibration.json"
        load_or_calibrate(
            HardwareGpu(), path=path, warp_counts=WARPS, iterations=10
        )
        payload = json.loads(path.read_text())
        assert payload["spec"] == spec_fingerprint(GTX285)
        assert payload["sweep"] == [list(WARPS), 10]
        assert payload["version"] == source_digest()

    def test_cache_file_loads_as_explicit_calibration(self, tmp_path):
        # `--calibration` pointing at the default cache file must work:
        # CalibrationTables.load unwraps the spec-keyed payload.
        from repro.micro import CalibrationTables

        path = tmp_path / "calibration.json"
        cached = load_or_calibrate(
            HardwareGpu(), path=path, warp_counts=WARPS, iterations=10
        )
        explicit = CalibrationTables.load(path, gpu=HardwareGpu())
        assert (
            explicit.instruction.throughput == cached.instruction.throughput
        )

    def test_stale_cache_file_rejected_as_explicit_calibration(
        self, tmp_path
    ):
        # A wrapped cache file keyed to another spec or schema version
        # must not be silently accepted via --calibration.
        from repro.errors import CalibrationError
        from repro.micro import CalibrationTables

        path = tmp_path / "calibration.json"
        load_or_calibrate(
            HardwareGpu(), path=path, warp_counts=WARPS, iterations=10
        )
        payload = json.loads(path.read_text())

        payload["spec"] = "deadbeef"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="different architecture"):
            CalibrationTables.load(path, gpu=HardwareGpu())

        payload["version"] = "other-" + payload["version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="schema version"):
            CalibrationTables.load(path, gpu=HardwareGpu())
