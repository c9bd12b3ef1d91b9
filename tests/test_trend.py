"""Trend reporter over fixture BENCH_engine_smoke.json files: the
report must be deterministic, carry per-gate deltas, and flag >20%
regressions without failing."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

# The reporter is a standalone script, not part of the package.
_SCRIPT = Path(__file__).parent.parent / "benchmarks" / "trend.py"
_spec = importlib.util.spec_from_file_location("trend", _SCRIPT)
trend = sys.modules["trend"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)

build_report = trend.build_report
collect_files = trend.collect_files
load_entries = trend.load_entries
render_markdown = trend.render_markdown
trend_report = trend.trend_report


def _payload(
    engine_speedup=4.0,
    timing_speedup=5.0,
    functional_speedup=16.0,
    matmul_speedup=12.0,
    cr_speedup=5.5,
    timestamp="2026-07-01T00:00:00Z",
    identical=True,
    engine_seconds=0.5,
):
    return {
        "schema": "engine_smoke/1",
        "timestamp": timestamp,
        "engine": {
            "speedup": engine_speedup,
            "engine_seconds": engine_seconds,
            "identical": identical,
        },
        "timing": {"speedup": timing_speedup, "identical": identical},
        "functional": {
            "speedup": functional_speedup,
            "batched_ips": 130_000.0,
            "identical": identical,
        },
        "barrier": {
            "matmul": {
                "speedup": matmul_speedup,
                "batched_ips": 220_000.0,
                "identical": identical,
            },
            "cyclic_reduction": {
                "speedup": cr_speedup,
                "batched_ips": 140_000.0,
                "identical": identical,
            },
        },
    }


@pytest.fixture()
def fixtures_dir(tmp_path):
    directory = tmp_path / "artifacts"
    directory.mkdir()

    def write(name, payload):
        (directory / name).write_text(json.dumps(payload))

    write("BENCH_old.json", _payload(timestamp="2026-07-01T00:00:00Z"))
    write(
        "BENCH_new.json",
        _payload(
            timestamp="2026-07-02T00:00:00Z",
            engine_speedup=2.0,  # -50%: must be flagged
            timing_speedup=4.5,  # -10%: inside the threshold
            engine_seconds=0.55,
        ),
    )
    return directory


class TestIngestion:
    def test_directory_and_files_mix(self, fixtures_dir, tmp_path):
        extra = tmp_path / "extra.json"
        extra.write_text(json.dumps(_payload()))
        paths = collect_files([fixtures_dir, extra])
        assert [p.split("/")[-1] for p in paths] == [
            "BENCH_new.json",
            "BENCH_old.json",
            "extra.json",
        ]

    def test_entries_ordered_by_timestamp(self, fixtures_dir):
        entries = load_entries([fixtures_dir])
        assert [e.label for e in entries] == [
            "BENCH_old.json",
            "BENCH_new.json",
        ]

    def test_foreign_and_broken_files_skipped(self, fixtures_dir):
        (fixtures_dir / "junk.json").write_text("{ not json")
        (fixtures_dir / "other.json").write_text(
            json.dumps({"schema": "something_else/1"})
        )
        assert len(load_entries([fixtures_dir])) == 2


class TestReport:
    def test_per_gate_deltas_and_regression_flags(self, fixtures_dir):
        report = build_report(load_entries([fixtures_dir]), threshold=0.2)
        engine = report["gates"]["engine.speedup"]
        assert engine["previous"] == 4.0
        assert engine["latest"] == 2.0
        assert engine["delta_vs_previous"] == pytest.approx(-0.5)
        assert engine["regressed"]
        timing = report["gates"]["timing.speedup"]
        assert timing["delta_vs_previous"] == pytest.approx(-0.1)
        assert not timing["regressed"]
        # Lower-is-better: +10% seconds is within a 20% threshold.
        seconds = report["gates"]["engine.engine_seconds"]
        assert not seconds["regressed"]
        assert report["regressions"] == ["engine.speedup"]
        assert report["latest_bit_identity_ok"]

    def test_seconds_regression_direction(self, tmp_path):
        for name, ts, secs in (
            ("a.json", "2026-07-01T00:00:00Z", 0.5),
            ("b.json", "2026-07-02T00:00:00Z", 0.8),
        ):
            (tmp_path / name).write_text(
                json.dumps(_payload(timestamp=ts, engine_seconds=secs))
            )
        report = build_report(load_entries([tmp_path]), threshold=0.2)
        assert report["gates"]["engine.engine_seconds"]["regressed"]
        assert "engine.engine_seconds" in report["regressions"]

    def test_bit_identity_failure_is_reported(self, tmp_path):
        (tmp_path / "a.json").write_text(
            json.dumps(_payload(identical=False))
        )
        report = build_report(load_entries([tmp_path]))
        assert not report["latest_bit_identity_ok"]
        assert "bit_identity" in report["regressions"]

    def test_deterministic_over_reruns(self, fixtures_dir):
        first_report, first_md = trend_report([fixtures_dir])
        second_report, second_md = trend_report([fixtures_dir])
        assert first_report == second_report
        assert first_md == second_md
        assert json.dumps(first_report, sort_keys=True) == json.dumps(
            second_report, sort_keys=True
        )

    def test_gate_missing_from_newest_run_reads_as_missing(self, tmp_path):
        # A metric that vanishes from the newest artifact must not
        # inherit an older run's value as "latest".
        old = _payload(timestamp="2026-07-01T00:00:00Z")
        new = _payload(timestamp="2026-07-02T00:00:00Z")
        del new["timing"]["speedup"]
        (tmp_path / "a.json").write_text(json.dumps(old))
        (tmp_path / "b.json").write_text(json.dumps(new))
        report = build_report(load_entries([tmp_path]))
        gate = report["gates"]["timing.speedup"]
        assert gate["latest"] is None
        assert gate["previous"] == 5.0
        assert not gate["regressed"]
        markdown = render_markdown(report)
        assert "| timing.speedup | 5.00 | 5.00 | - | - | missing |" in markdown

    def test_single_run_has_no_deltas(self, tmp_path):
        (tmp_path / "only.json").write_text(json.dumps(_payload()))
        report = build_report(load_entries([tmp_path]))
        gate = report["gates"]["engine.speedup"]
        assert gate["previous"] is None
        assert gate["delta_vs_previous"] is None
        assert report["regressions"] == []

    def test_empty_inputs(self, tmp_path):
        report, markdown = trend_report([tmp_path])
        assert report["runs"] == []
        assert "No engine_smoke measurements" in markdown


class TestMarkdown:
    def test_table_and_warning_lines(self, fixtures_dir):
        _, markdown = trend_report([fixtures_dir])
        assert "| engine.speedup | 4.00 | 4.00 | 2.00 | -50.0% |" in markdown
        assert "**REGRESSION**" in markdown
        assert "WARNING: 1 gate(s) regressed more than 20%" in markdown
        assert "`BENCH_old.json`" in markdown and "`BENCH_new.json`" in markdown

    def test_clean_run_reports_no_regressions(self, tmp_path):
        for name, ts in (
            ("a.json", "2026-07-01T00:00:00Z"),
            ("b.json", "2026-07-02T00:00:00Z"),
        ):
            (tmp_path / name).write_text(json.dumps(_payload(timestamp=ts)))
        _, markdown = trend_report([tmp_path])
        assert "No gate regressed" in markdown


class TestCli:
    def test_trend_subcommand_end_to_end(self, fixtures_dir, tmp_path, capsys):
        md_path = tmp_path / "report.md"
        json_path = tmp_path / "report.json"
        code = trend.main(
            [
                str(fixtures_dir),
                "--markdown",
                str(md_path),
                "--json",
                str(json_path),
            ]
        )
        assert code == 0  # warn, don't fail
        captured = capsys.readouterr()
        assert "perf trajectory" in captured.out
        assert "engine.speedup regressed" in captured.err
        assert md_path.exists() and json_path.exists()
        report = json.loads(json_path.read_text())
        assert report["regressions"] == ["engine.speedup"]

    def test_fail_on_regression_flag(self, fixtures_dir):
        assert (
            trend.main([str(fixtures_dir), "--fail-on-regression"])
            == 1
        )

    def test_real_repo_artifact_parses(self):
        # The repository keeps one real artifact at its root; the
        # reporter must ingest the production schema.
        artifact = Path(__file__).parent.parent / "BENCH_engine_smoke.json"
        report, markdown = trend_report([artifact])
        assert len(report["runs"]) == 1
        assert report["gates"]["engine.speedup"]["latest"] is not None


def _crossval_payload(
    analytical=0.12,
    scaling=0.35,
    wins=20,
    predictions=24,
    timestamp="2026-07-01T00:00:00Z",
):
    return {
        "schema": "crossval/1",
        "timestamp": timestamp,
        "summary": {
            "overall": {
                "predictions": predictions,
                "analytical_mean_abs_rel_error": analytical,
                "scaling_mean_abs_rel_error": scaling,
                "analytical_wins": wins,
            }
        },
    }


class TestCrossvalIngestion:
    def test_crossval_artifact_becomes_entry(self, tmp_path):
        path = tmp_path / "BENCH_crossval.json"
        path.write_text(json.dumps(_crossval_payload()))
        (entry,) = load_entries([path])
        assert entry.kind == "crossval"
        assert entry.values[
            "crossval.analytical_mean_abs_rel_error"
        ] == 0.12
        assert entry.identical  # vacuous: no identity flags to fail

    def test_mixed_families_keep_series_apart(self, tmp_path):
        (tmp_path / "a_engine.json").write_text(
            json.dumps(_payload(timestamp="2026-07-01T00:00:00Z"))
        )
        (tmp_path / "b_crossval.json").write_text(
            json.dumps(
                _crossval_payload(timestamp="2026-07-01T12:00:00Z")
            )
        )
        (tmp_path / "c_engine.json").write_text(
            json.dumps(_payload(timestamp="2026-07-02T00:00:00Z"))
        )
        report = build_report(load_entries([tmp_path]))
        # Engine gates span only the two engine runs; the crossval run
        # in between never reads as a missing engine measurement.
        assert len(report["gates"]["engine.speedup"]["series"]) == 2
        assert len(
            report["gates"]["crossval.predictions"]["series"]
        ) == 1
        kinds = [run["kind"] for run in report["runs"]]
        assert kinds == ["engine_smoke", "crossval", "engine_smoke"]

    def test_crossval_error_regression_is_flagged(self, tmp_path):
        (tmp_path / "old.json").write_text(
            json.dumps(
                _crossval_payload(
                    analytical=0.10, timestamp="2026-07-01T00:00:00Z"
                )
            )
        )
        (tmp_path / "new.json").write_text(
            json.dumps(
                _crossval_payload(
                    analytical=0.20, timestamp="2026-07-02T00:00:00Z"
                )
            )
        )
        report = build_report(load_entries([tmp_path]))
        # Error doubled: lower-is-better, so this is a regression.
        assert (
            "crossval.analytical_mean_abs_rel_error"
            in report["regressions"]
        )
        _, markdown = trend_report([tmp_path])
        assert "crossval.analytical_mean_abs_rel_error" in markdown

    def test_engine_only_reports_omit_crossval_gates(self, tmp_path):
        (tmp_path / "only.json").write_text(json.dumps(_payload()))
        report = build_report(load_entries([tmp_path]))
        assert not any(
            gate.startswith("crossval.") for gate in report["gates"]
        )

    def test_real_crossval_cli_artifact_round_trips(self, tmp_path):
        from repro.__main__ import main

        artifact = tmp_path / "BENCH_crossval.json"
        code = main(
            [
                "specs", "crossval",
                "--specs", "fermi-like",
                "--kernel", "reduction",
                "--warp-counts", "1", "2", "4", "8",
                "--iterations", "20",
                "--no-cache",
                "--json", str(artifact),
            ]
        )
        assert code == 0
        report, _ = trend_report([artifact])
        assert report["gates"]["crossval.predictions"]["latest"] >= 1
