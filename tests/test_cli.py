"""Command-line interface."""

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_info_parses(self):
        args = build_parser().parse_args(["info"])
        assert args.command == "info"

    def test_matmul_defaults(self):
        args = build_parser().parse_args(["matmul"])
        assert args.n == 512
        assert args.tile == 16

    def test_tile_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["matmul", "--tile", "24"])

    def test_spmv_format_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spmv", "--format", "csr"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_engine_flags(self):
        args = build_parser().parse_args(
            ["matmul", "--workers", "4", "--full", "--no-cache"]
        )
        assert args.workers == 4
        assert args.full
        assert args.no_cache

    def test_engine_flag_defaults(self):
        args = build_parser().parse_args(["spmv"])
        assert args.workers == 0
        assert not args.full
        assert not args.no_cache


def _tiny_sweep(gpu=None, **_kwargs):
    # Shrink the sweep: these tests exercise wiring, not curves.
    from repro.micro.calibration import start_calibrate

    return start_calibrate(gpu, warp_counts=(1, 4, 32), iterations=10)


class TestGpuWiring:
    def test_workers_and_measure_cache_reach_the_gpu(
        self, tmp_path, monkeypatch
    ):
        # --workers governs both layers; the measured-run cache sits
        # under the same root as calibration and traces.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.__main__ import _make_model
        from repro.micro import cache as micro_cache

        monkeypatch.setattr(micro_cache, "start_calibrate", _tiny_sweep)
        args = build_parser().parse_args(["matmul", "--workers", "3"])
        with _make_model(args) as (gpu, _):
            pass
        assert gpu.workers == 3
        assert gpu.cache is not None
        assert gpu.cache.directory == str(tmp_path / "measured")

    def test_no_cache_disables_measured_run_memoization(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        import repro.micro

        from repro.__main__ import _make_model

        monkeypatch.setattr(repro.micro, "start_calibrate", _tiny_sweep)
        args = build_parser().parse_args(["matmul", "--no-cache"])
        with _make_model(args) as (gpu, _):
            pass
        assert gpu.workers == 0
        assert gpu.cache is None


class TestCalibrationCaching:
    def test_default_path_calibration_is_cached(self, tmp_path, monkeypatch):
        # Regression: without --calibration the CLI used to recalibrate
        # on every case-study invocation; now tables are cached at the
        # default spec-keyed path.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.__main__ import _make_model
        from repro.micro import cache as micro_cache

        calls = []
        real = micro_cache.start_calibrate

        def counting(gpu=None, **_kwargs):
            calls.append(1)
            # Shrink the sweep: the test exercises caching, not curves.
            return real(gpu, warp_counts=(1, 4, 32), iterations=10)

        monkeypatch.setattr(micro_cache, "start_calibrate", counting)

        args = build_parser().parse_args(["matmul"])
        with _make_model(args):
            pass
        assert (tmp_path / "calibration.json").exists()
        with _make_model(args):
            pass
        assert len(calls) == 1


class TestCommands:
    def test_info_prints_paper_numbers(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "710.4 GFLOPS" in out
        assert "1420.8 GB/s" in out
        assert "GeForce GTX 285" in out

    def test_calibrate_saves_json(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert main(["calibrate", "-o", str(out), "--iterations", "10"]) == 0
        assert out.exists()
        from repro.micro import CalibrationTables

        tables = CalibrationTables.load(out)
        assert tables.instruction.saturated("II") > 0


class TestAnalyzeCommand:
    def test_analyze_parses(self):
        args = build_parser().parse_args(["analyze"])
        assert args.command == "analyze"
        assert args.kernel is None
        assert not args.json

    def test_kernel_repeatable(self):
        args = build_parser().parse_args(
            ["analyze", "--kernel", "matmul", "--kernel", "scan"]
        )
        assert args.kernel == ["matmul", "scan"]

    def test_kernel_and_all_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["analyze", "--kernel", "matmul", "--all"]
            )

    def test_clean_kernel_exits_zero(self, capsys):
        assert main(["analyze", "--kernel", "stencil"]) == 0
        out = capsys.readouterr().out
        assert "stencil: clean" in out

    def test_json_output(self, capsys):
        import json

        assert main(["analyze", "--kernel", "scan", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] == 0
        assert payload["kernels"]["scan"]["clean"]

    def test_unknown_kernel_is_a_clean_error(self, capsys):
        # Domain errors exit 2 with a message instead of a traceback.
        assert main(["analyze", "--kernel", "nope"]) == 2
        assert "unknown kernel" in capsys.readouterr().err
