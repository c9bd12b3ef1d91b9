"""The calibration store: one file per (spec, timing config, sweep)."""

import dataclasses
import json

import pytest

from repro.arch.registry import get_spec
from repro.arch.specs import GTX285
from repro.errors import CalibrationError
from repro.hw import HardwareGpu, HwConfig, config_fingerprint
from repro.micro import CalibrationTables, calibrate
from repro.micro import cache as micro_cache
from repro.micro.cache import (
    default_cache_dir,
    default_calibration_path,
    load_or_calibrate,
    spec_fingerprint,
)
from repro.util import source_digest

WARPS = (1, 4, 32)

#: A timing configuration other than the default (``HwConfig()``).
SLOW_SHARED = HwConfig(shared_latency=400, issue_gap=2)


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
        path = default_calibration_path()
        assert path.parent == tmp_path / "alt"
        assert path.match("calibration-*.json")

    def test_defaults_to_home_cache(self, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert str(default_cache_dir()).endswith(".cache/repro")


class TestLoadOrCalibrate:
    def test_second_call_reuses_cache(self, tmp_path, counted_calibrate):
        gpu = HardwareGpu()
        first = load_or_calibrate(
            gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=10
        )
        assert default_calibration_path(gpu, WARPS, 10, tmp_path).exists()
        second = load_or_calibrate(
            gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=10
        )
        assert len(counted_calibrate) == 1
        assert second.instruction.throughput == first.instruction.throughput
        assert second.gpu is gpu  # hardware handle re-attached on load

    def test_spec_change_invalidates(self, tmp_path, counted_calibrate):
        load_or_calibrate(
            HardwareGpu(), cache_dir=tmp_path, warp_counts=WARPS, iterations=10
        )
        other_spec = dataclasses.replace(GTX285, core_clock_ghz=2.0)
        load_or_calibrate(
            HardwareGpu(spec=other_spec),
            cache_dir=tmp_path,
            warp_counts=WARPS,
            iterations=10,
        )
        assert len(counted_calibrate) == 2
        assert spec_fingerprint(other_spec) != spec_fingerprint(GTX285)
        assert len(list(tmp_path.glob("calibration-*.json"))) == 2

    def test_config_change_recalibrates_that_config(
        self, tmp_path, counted_calibrate
    ):
        # Regression: the key used to omit the timing configuration, so
        # a non-default HwConfig got the default config's tables.
        kwargs = dict(cache_dir=tmp_path, warp_counts=WARPS, iterations=10)
        load_or_calibrate(HardwareGpu(), **kwargs)
        gpu = HardwareGpu(config=SLOW_SHARED)
        tables = load_or_calibrate(gpu, **kwargs)
        assert len(counted_calibrate) == 2
        fresh = calibrate(gpu, warp_counts=WARPS, iterations=10)
        assert tables.to_json() == fresh.to_json()
        assert load_or_calibrate(gpu, **kwargs).to_json() == fresh.to_json()
        assert len(counted_calibrate) == 2

    def test_fingerprint_ignores_dict_insertion_order(self):
        units = dict(GTX285.functional_units)
        reordered = dataclasses.replace(
            GTX285,
            functional_units=dict(sorted(units.items(), reverse=True)),
        )
        assert spec_fingerprint(reordered) == spec_fingerprint(GTX285)

    def test_sweep_change_invalidates(self, tmp_path, counted_calibrate):
        gpu = HardwareGpu()
        load_or_calibrate(gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=10)
        load_or_calibrate(gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=20)
        assert len(counted_calibrate) == 2

    def test_corrupt_cache_recalibrates(self, tmp_path, counted_calibrate):
        gpu = HardwareGpu()
        kwargs = dict(cache_dir=tmp_path, warp_counts=WARPS, iterations=10)
        load_or_calibrate(gpu, **kwargs)
        default_calibration_path(gpu, WARPS, 10, tmp_path).write_text("{not json")
        load_or_calibrate(gpu, **kwargs)
        assert len(counted_calibrate) == 2

    def test_on_calibrate_fires_only_on_slow_path(
        self, tmp_path, counted_calibrate
    ):
        gpu = HardwareGpu()
        path = default_calibration_path(gpu, WARPS, 10, tmp_path)
        notices = []
        kwargs = dict(
            cache_dir=tmp_path,
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
        cache_dir = tmp_path / "blocker" / "sub"
        tables = load_or_calibrate(
            HardwareGpu(), cache_dir=cache_dir, warp_counts=WARPS, iterations=10
        )
        assert tables is not None
        assert len(counted_calibrate) == 1
        assert not cache_dir.exists()

    def test_cache_from_other_source_recalibrates(
        self, tmp_path, monkeypatch, counted_calibrate
    ):
        gpu = HardwareGpu()
        load_or_calibrate(gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=10)
        monkeypatch.setattr("repro.util._SOURCE_DIGEST", "other source")
        load_or_calibrate(gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=10)
        assert len(counted_calibrate) == 2
        # The digest is checked inside the file: the store rewrites it
        # in place rather than adding one.
        assert len(list(tmp_path.glob("calibration-*.json"))) == 1

    def test_cached_payload_is_versioned_and_keyed(self, tmp_path):
        gpu = HardwareGpu()
        tables = load_or_calibrate(
            gpu, cache_dir=tmp_path, warp_counts=WARPS, iterations=10
        )
        path = default_calibration_path(gpu, WARPS, 10, tmp_path)
        payload = json.loads(path.read_text())
        assert payload["spec"] == spec_fingerprint(GTX285)
        assert payload["config"] == config_fingerprint(HwConfig())
        assert payload["sweep"] == [list(WARPS), 10]
        assert payload["version"] == source_digest()
        assert payload["tables"] == json.loads(tables.to_json())

    def test_cache_file_loads_as_explicit_calibration(self, tmp_path):
        # `--calibration` pointing at a store file must work: the store
        # and `repro calibrate -o` write one file format.
        cached = load_or_calibrate(
            HardwareGpu(), cache_dir=tmp_path, warp_counts=WARPS, iterations=10
        )
        path = default_calibration_path(HardwareGpu(), WARPS, 10, tmp_path)
        explicit = CalibrationTables.load(path, gpu=HardwareGpu())
        assert (
            explicit.instruction.throughput == cached.instruction.throughput
        )

    def test_stale_cache_file_rejected_as_explicit_calibration(
        self, tmp_path
    ):
        # A file keyed to another spec, timing config or schema version
        # must not be silently accepted via --calibration.
        load_or_calibrate(
            HardwareGpu(), cache_dir=tmp_path, warp_counts=WARPS, iterations=10
        )
        path = default_calibration_path(HardwareGpu(), WARPS, 10, tmp_path)
        payload = json.loads(path.read_text())

        payload["config"] = "deadbeef"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="timing configuration"):
            CalibrationTables.load(path, gpu=HardwareGpu())

        payload["spec"] = "deadbeef"
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="different architecture"):
            CalibrationTables.load(path, gpu=HardwareGpu())

        payload["version"] = "other-" + payload["version"]
        path.write_text(json.dumps(payload))
        with pytest.raises(CalibrationError, match="schema version"):
            CalibrationTables.load(path, gpu=HardwareGpu())


class TestExplicitCalibrationFile:
    """``CalibrationTables.load``: the validator behind ``--calibration``."""

    @pytest.fixture(scope="class")
    def gt200_file(self, tmp_path_factory):
        """A GT200 file as ``repro calibrate -o`` writes it."""
        from repro.__main__ import main

        path = tmp_path_factory.mktemp("calibration") / "gt200.json"
        assert main(["calibrate", "--iterations", "4", "-o", str(path)]) == 0
        return path

    def test_gt200_file_refused_for_other_spec(self, gt200_file):
        fermi = HardwareGpu(spec=get_spec("fermi-like"))
        with pytest.raises(CalibrationError, match="different architecture"):
            CalibrationTables.load(gt200_file, gpu=fermi)

    def test_gt200_file_refused_for_other_config(self, gt200_file):
        gpu = HardwareGpu(config=SLOW_SHARED)
        with pytest.raises(CalibrationError, match="timing configuration"):
            CalibrationTables.load(gt200_file, gpu=gpu)

    def test_headerless_file_refused(self, tmp_path):
        path = tmp_path / "plain.json"
        path.write_text(
            calibrate(HardwareGpu(), warp_counts=WARPS, iterations=10).to_json()
        )
        with pytest.raises(CalibrationError, match="recalibrate"):
            CalibrationTables.load(path, gpu=HardwareGpu())

    def test_sweep_checked_only_when_asked(self, gt200_file):
        # `--calibration` takes any sweep (a 4-iteration file loads);
        # the store asks for its own.
        tables = CalibrationTables.load(gt200_file, gpu=HardwareGpu())
        assert tables.instruction.saturated("II") > 0
        with pytest.raises(CalibrationError, match="sweep"):
            CalibrationTables.load(
                gt200_file, gpu=HardwareGpu(), sweep=[list(WARPS), 4]
            )
