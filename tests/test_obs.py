"""Observability subsystem: recorder, pool propagation, export, report.

The invariants under test mirror the design constraints in
:mod:`repro.obs`:

* span IDs are deterministic (``lane:seq``), never wall clock;
* disabled instrumentation is a shared no-op (no per-call allocation);
* worker-side spans ship home through the pool envelope and land in
  the parent recorder *exactly once* -- including under injected
  crashes and hangs;
* recording on vs off never changes a simulation payload's pickled
  bytes (traces, MeasuredRuns);
* the exported session round-trips through ``repro obs report`` and
  the Chrome trace validates structurally.
"""

from __future__ import annotations

import json
import pickle
import time
from dataclasses import replace

import pytest

import repro.pool as pool_mod
from repro import faults, obs
from repro.apps.matmul import build_matmul_kernel, prepare_problem
from repro.hw import HardwareGpu
from repro.obs import core, export, report
from repro.obs import log as obs_log
from repro.pool import PoolHealth, map_tasks
from repro.sim.engine import SimulationEngine


@pytest.fixture(autouse=True)
def _clean_obs_state():
    """No recorder or log override may leak between tests."""
    yield
    core.stop()
    obs_log.set_level(None)


# ----------------------------------------------------------------------
# picklable pool helpers (spawn workers re-import this module)
# ----------------------------------------------------------------------
def _times_ten(task):
    return task * 10


# ----------------------------------------------------------------------
# recorder core
# ----------------------------------------------------------------------
class TestRecorder:
    def test_span_ids_are_deterministic(self):
        recorder = core.Recorder()
        with recorder.span("a") as a_id:
            with recorder.span("b") as b_id:
                pass
        assert (a_id, b_id) == ("main:1", "main:2")
        by_id = {e["id"]: e for e in recorder.events}
        assert by_id["main:2"]["parent"] == "main:1"
        assert by_id["main:1"]["parent"] is None
        # Completion order: inner span closes first.
        assert [e["name"] for e in recorder.events] == ["b", "a"]

    def test_span_records_error_flag(self):
        recorder = core.Recorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("x")
        (event,) = recorder.events
        assert event["error"] is True
        assert recorder._stack == []  # unwound despite the raise

    def test_tag_adds_attributes_to_the_innermost_open_span(self):
        obs.tag(dropped=1)  # no recorder: a no-op
        recorder = obs.start()
        try:
            obs.tag(dropped=2)  # no open span: a no-op
            with obs.span("outer", a=1):
                with obs.span("inner"):
                    obs.tag(b=2)
                obs.tag(c=3)
        finally:
            obs.stop()
        attrs = {e["name"]: e["attrs"] for e in recorder.events}
        assert attrs == {"inner": {"b": 2}, "outer": {"a": 1, "c": 3}}
        assert recorder._open_attrs == []

    def test_pool_lanes_are_deterministic(self):
        recorder = core.Recorder()
        assert recorder.next_pool_lane() == "pool0"
        assert recorder.next_pool_lane() == "pool1"
        worker = core.Recorder(lane="pool1.t3")
        assert worker.next_pool_lane() == "pool1.t3.pool0"

    def test_histogram_adoption_merges(self):
        parent = core.Recorder()
        parent.observe("width", 4)
        child = core.Recorder(lane="pool0.t0")
        child.observe("width", 10)
        child.inc("tasks", 2)
        parent.adopt(
            child.events, child.counters, child.gauges, child.histograms
        )
        snapshot = parent.metrics_snapshot()
        assert snapshot["histograms"]["width"] == {
            "count": 2, "total": 14, "min": 4, "max": 10, "mean": 7.0,
        }
        assert snapshot["counters"]["tasks"] == 2

    def test_disabled_span_is_shared_noop(self):
        assert not obs.enabled()
        assert obs.span("anything", k=1) is obs.span("other")
        obs.event("dropped")  # must not raise with no recorder
        obs.annotate(k="v")

    def test_start_stop_installs_and_returns(self):
        recorder = obs.start()
        assert obs.enabled() and obs.current() is recorder
        assert obs.stop() is recorder
        assert not obs.enabled()

    def test_capture_installs_fresh_and_restores(self):
        outer = obs.start()
        with obs.capture("pool0.t1") as inner:
            assert obs.current() is inner
            assert inner is not outer and inner.lane == "pool0.t1"
        assert obs.current() is outer


# ----------------------------------------------------------------------
# structured log
# ----------------------------------------------------------------------
class TestLog:
    def test_default_threshold_renders_info(self, capsys):
        obs_log.info("hello from the pipeline")
        assert "hello from the pipeline" in capsys.readouterr().err

    def test_threshold_filters_stderr(self, capsys):
        obs_log.set_level("error")
        obs_log.warning("too quiet to print")
        assert capsys.readouterr().err == ""

    def test_env_threshold(self, monkeypatch, capsys):
        monkeypatch.setenv(obs_log.LOG_ENV, "debug")
        obs_log.debug("now visible")
        assert "now visible" in capsys.readouterr().err

    def test_unknown_env_fails_open_to_info(self, monkeypatch):
        monkeypatch.setenv(obs_log.LOG_ENV, "chatty")
        assert obs_log.threshold() == "info"

    def test_set_level_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown log level"):
            obs_log.set_level("loud")

    def test_events_recorded_below_threshold(self, capsys):
        obs_log.set_level("error")
        recorder = obs.start()
        obs_log.info("silent but recorded", spec="gtx285")
        obs.stop()
        assert capsys.readouterr().err == ""
        (event,) = recorder.events
        assert event["type"] == "log"
        assert event["level"] == "info"
        assert event["fields"] == {"spec": "gtx285"}

    def test_render_false_records_without_printing(self, capsys):
        recorder = obs.start()
        obs_log.warning("owned by warnings.warn", render=False)
        obs.stop()
        assert capsys.readouterr().err == ""
        assert recorder.events[0]["level"] == "warning"


# ----------------------------------------------------------------------
# worker-side span propagation through the pool
# ----------------------------------------------------------------------
def _pool_task_indices(recorder) -> list:
    return [
        e["attrs"]["index"]
        for e in recorder.events
        if e["type"] == "span" and e["name"] == "pool.task"
    ]


class TestPoolSpanPropagation:
    def test_worker_spans_land_exactly_once(self):
        recorder = obs.start()
        try:
            out = map_tasks(list(range(6)), 2, _times_ten, _times_ten)
        finally:
            obs.stop()
        assert out == [i * 10 for i in range(6)]
        assert sorted(_pool_task_indices(recorder)) == list(range(6))
        lanes = {
            e["lane"]
            for e in recorder.events
            if e["type"] == "span" and e["name"] == "pool.task"
        }
        assert lanes == {f"pool0.t{i}" for i in range(6)}
        (outer,) = [
            e for e in recorder.events if e["name"] == "pool.map_tasks"
        ]
        assert outer["attrs"]["mode"] == "pool"

    def test_spawn_workers_ship_spans_home(self, monkeypatch):
        monkeypatch.setattr(pool_mod, "start_method", lambda: "spawn")
        recorder = obs.start()
        try:
            out = map_tasks(list(range(4)), 2, _times_ten, _times_ten)
        finally:
            obs.stop()
        assert out == [i * 10 for i in range(4)]
        assert sorted(_pool_task_indices(recorder)) == list(range(4))

    def test_serial_mode_records_no_worker_spans(self):
        recorder = obs.start()
        try:
            map_tasks(list(range(4)), 0, _times_ten, _times_ten)
        finally:
            obs.stop()
        assert _pool_task_indices(recorder) == []
        (outer,) = [
            e for e in recorder.events if e["name"] == "pool.map_tasks"
        ]
        assert outer["attrs"]["mode"] == "serial"

    def test_crash_retry_ships_spans_exactly_once(self):
        recorder = obs.start()
        health = PoolHealth()
        try:
            with faults.injected(crash_task=1, crash_attempts=1):
                out = map_tasks(
                    list(range(6)), 2, _times_ten, _times_ten,
                    health=health,
                )
        finally:
            obs.stop()
        assert out == [i * 10 for i in range(6)]
        assert health.worker_crashes == 1
        # The crashed attempt shipped nothing; every index that finished
        # through the pool lands exactly one span -- never two.
        indices = _pool_task_indices(recorder)
        assert sorted(set(indices)) == sorted(indices)
        assert set(indices) <= set(range(6))
        assert recorder.counters.get("pool.worker_crashes") == 1

    def test_hung_task_spans_stay_unique(self):
        recorder = obs.start()
        health = PoolHealth()
        try:
            with faults.injected(hang_task=0, hang_seconds=120.0):
                out = map_tasks(
                    list(range(4)), 2, _times_ten, _times_ten,
                    health=health, task_timeout=2.0,
                )
        finally:
            obs.stop()
        assert out == [i * 10 for i in range(4)]
        assert health.timeouts == 1
        indices = _pool_task_indices(recorder)
        # The hung task was reaped and finished serially: no pool span.
        assert 0 not in indices
        assert sorted(set(indices)) == sorted(indices)
        assert recorder.counters.get("pool.timeouts") == 1
        assert recorder.counters.get("pool.serial_fallbacks") == 1


# ----------------------------------------------------------------------
# payload byte-identity with recording on
# ----------------------------------------------------------------------
def _engine_trace():
    problem = prepare_problem(64, 8)
    engine = SimulationEngine(build_matmul_kernel(64, 8), gmem=problem.gmem)
    return engine.run(problem.launch()), problem.launch()


class TestByteIdentity:
    def test_trace_and_run_identical_with_recording(self):
        trace_off, launch = _engine_trace()
        run_off = HardwareGpu().measure(
            list(trace_off.block_traces), launch.num_blocks, 4
        )
        recorder = obs.start()
        try:
            trace_on, _ = _engine_trace()
            run_on = HardwareGpu().measure(
                list(trace_on.block_traces), launch.num_blocks, 4
            )
        finally:
            obs.stop()
        # engine_stats carries wall-clock; everything else must match
        # to the byte.
        assert pickle.dumps(replace(trace_on, engine_stats=None)) == \
            pickle.dumps(replace(trace_off, engine_stats=None))
        assert pickle.dumps(run_on) == pickle.dumps(run_off)
        names = {
            e["name"] for e in recorder.events if e["type"] == "span"
        }
        assert {"engine.run", "engine.simulate", "hw.measure"} <= names
        assert recorder.counters.get("engine.runs") == 1
        assert recorder.counters.get("hw.measures") == 1

    def test_model_analyze_is_spanned(self, model):
        from repro.apps.common import execute

        problem = prepare_problem(64, 8)
        recorder = obs.start()
        try:
            execute(
                "matmul",
                build_matmul_kernel(64, 8),
                problem.gmem,
                problem.launch(),
                model=model,
            )
        finally:
            obs.stop()
        names = [e["name"] for e in recorder.events if e["type"] == "span"]
        assert "model.analyze" in names


# ----------------------------------------------------------------------
# export + report round trip
# ----------------------------------------------------------------------
def _recorded_session() -> core.Recorder:
    recorder = obs.start()
    try:
        with obs.span("engine.run", kernel="matmul"):
            with obs.span("engine.proof", classes=1):
                pass
            obs.event("checkpoint", stage=2)
        obs.metrics.inc("cache.trace.hits", 3)
        obs.metrics.inc("cache.trace.misses", 1)
        obs.metrics.inc("engine.health.worker_crashes", 1)
        obs_log.warning("a degraded thing happened", render=False)
        obs.annotate(**{"spec.gtx285": "fingerprint"})
        # A worker capture adopted in, exactly as the pool does it.
        with obs.capture("pool0.t0") as worker:
            with worker.span("pool.task", index=0, attempt=0):
                pass
        recorder.adopt(
            worker.events, worker.counters, worker.gauges,
            worker.histograms,
        )
    finally:
        obs.stop()
    return recorder


class TestExportAndReport:
    def test_export_writes_all_four_files(self, tmp_path):
        paths = export.export_session(
            _recorded_session(), tmp_path, argv=["matmul"],
            command="matmul", exit_status=0,
        )
        for name in ("events", "trace", "metrics", "manifest"):
            assert (tmp_path / f"{name}.json{'l' if name == 'events' else ''}").exists(), name
        events = [
            json.loads(line)
            for line in (tmp_path / "events.jsonl").read_text().splitlines()
        ]
        assert all(isinstance(e, dict) for e in events)
        assert paths["manifest"].endswith("manifest.json")

    def test_chrome_trace_validates(self, tmp_path):
        export.export_session(_recorded_session(), tmp_path)
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert isinstance(trace["traceEvents"], list)
        phases = {e["ph"] for e in trace["traceEvents"]}
        assert phases <= {"M", "X", "i"}
        # One named track per lane, main first (tid 0).
        threads = {
            e["args"]["name"]: e["tid"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert threads["main"] == 0
        assert "pool0.t0" in threads
        for e in trace["traceEvents"]:
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0

    def test_manifest_provenance(self, tmp_path):
        export.export_session(
            _recorded_session(), tmp_path, argv=["matmul", "--n", "64"],
            command="matmul", exit_status=0,
        )
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["schema"] == export.MANIFEST_SCHEMA
        assert manifest["command"] == "matmul"
        assert manifest["argv"] == ["matmul", "--n", "64"]
        assert manifest["exit_status"] == 0
        from repro.util import source_digest

        assert manifest["source_digest"] == source_digest()
        assert manifest["annotations"] == {"spec.gtx285": "fingerprint"}

    def test_report_round_trip(self, tmp_path):
        export.export_session(
            _recorded_session(), tmp_path, command="matmul"
        )
        built = report.build_report(tmp_path)
        assert built["schema"] == report.REPORT_SCHEMA
        assert built["command"] == "matmul"
        assert built["totals"]["lanes"] == 2
        names = [e["name"] for e in built["top_spans"]]
        assert set(names) == {"engine.run", "engine.proof", "pool.task"}
        assert built["caches"]["trace"]["hit_rate"] == 0.75
        degradations = built["degradations"]
        assert degradations["health_counters"] == {
            "engine.health.worker_crashes": 1
        }
        assert degradations["warnings"][0]["message"] == (
            "a degraded thing happened"
        )
        text = report.render_text(built)
        assert "engine.health.worker_crashes" in text
        markdown = report.render_markdown(built)
        assert "| cache | hit rate |" in markdown

    def test_self_time_subtracts_children(self, tmp_path):
        recorder = obs.start()
        try:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        finally:
            obs.stop()
        export.export_session(recorder, tmp_path)
        spans = {
            e["name"]: e
            for e in report.build_report(tmp_path)["top_spans"]
        }
        assert spans["outer"]["self_ms"] <= spans["outer"]["total_ms"]
        assert spans["inner"]["self_ms"] == spans["inner"]["total_ms"]

    def test_unattributed_row_counts_time_outside_spans(self, tmp_path):
        recorder = obs.start()
        try:
            with obs.span("work"):
                pass
            time.sleep(0.05)
        finally:
            obs.stop()
        export.export_session(recorder, tmp_path)
        built = report.build_report(tmp_path)
        assert built["unattributed_ms"] >= 50
        assert json.loads(json.dumps(built))["unattributed_ms"] >= 50
        assert "  unattributed " in report.render_text(built)
        assert "| unattributed | |" in report.render_markdown(built)

    def test_report_on_empty_directory_raises(self, tmp_path):
        with pytest.raises(report.ObsReportError):
            report.build_report(tmp_path / "nowhere")

    def test_session_exports_on_failure(self, tmp_path):
        with pytest.raises(RuntimeError):
            with obs.session(tmp_path, argv=["x"], command="x"):
                raise RuntimeError("mid-run failure")
        assert not obs.enabled()
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["exit_status"] == 1


# ----------------------------------------------------------------------
# cold start: the calibration sweep overlapping the case
# ----------------------------------------------------------------------
def _small_sweep(gpu=None, **_kwargs):
    from repro.micro.calibration import start_calibrate

    # Small enough to be quick, large enough to run on the pool.
    return start_calibrate(gpu, warp_counts=(1, 32), iterations=20)


def _assert_lifo(events: list[dict]) -> None:
    """Main-lane spans nest: each lies inside its parent, and siblings
    never overlap."""
    spans = {
        e["id"]: e
        for e in events
        if e["type"] == "span" and e["lane"] == "main"
    }
    siblings: dict = {}
    for span in spans.values():
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["t0"] <= span["t0"], (span["name"], parent["name"])
            assert span["t1"] <= parent["t1"], (span["name"], parent["name"])
        siblings.setdefault(span["parent"], []).append(span)
    for group in siblings.values():
        group.sort(key=lambda span: span["t0"])
        for before, after in zip(group, group[1:]):
            assert before["t1"] <= after["t0"], (before["name"], after["name"])


class TestColdStartSpans:
    def test_sweep_wait_is_spanned_and_spans_stay_lifo(self):
        from repro.apps.matmul import run_matmul

        recorder = obs.start()
        try:
            with _small_sweep(HardwareGpu(workers=2)):
                with obs.span("case"):
                    run_matmul(64, 8)
        finally:
            obs.stop()
        main = {
            e["name"]: e
            for e in recorder.events
            if e["type"] == "span" and e["lane"] == "main"
        }
        assert main["pool.map_tasks"]["attrs"]["mode"] == "pool"
        # The wait opens after the case, and the pool's span nests in it.
        assert main["micro.calibrate.wait"]["t0"] >= main["case"]["t1"]
        assert (
            main["pool.map_tasks"]["parent"]
            == main["micro.calibrate.wait"]["id"]
        )
        _assert_lifo(recorder.events)

    def test_cold_cli_report_shows_the_wait(self, tmp_path, monkeypatch):
        from repro.__main__ import main
        from repro.micro import cache as micro_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.setattr(micro_cache, "start_calibrate", _small_sweep)
        obs_dir = tmp_path / "obs"
        argv = ["matmul", "--n", "128", "--tile", "16", "--workers", "2"]
        assert main(["--obs", str(obs_dir), *argv]) == 0
        built = report.build_report(obs_dir, top_spans=100)
        names = {entry["name"] for entry in built["top_spans"]}
        assert {
            "micro.calibrate",
            "micro.calibrate.wait",
            "apps.inputs",
            "app.execute",
        } <= names
        assert "micro.calibrate.wait" in report.render_text(built)
        # Starting, simulating and waiting are all spanned: what stays
        # unattributed is argument parsing and model construction.
        wall = json.loads((obs_dir / "manifest.json").read_text())["wall_ms"]
        assert built["unattributed_ms"] < 0.1 * wall
        _assert_lifo(
            [json.loads(line) for line in open(obs_dir / "events.jsonl")]
        )


# ----------------------------------------------------------------------
# cache provenance in performance reports
# ----------------------------------------------------------------------
class TestCacheProvenance:
    def test_cold_then_hit(self, tmp_path, model):
        from repro.apps.common import execute

        def run():
            problem = prepare_problem(64, 8)
            return execute(
                "matmul",
                build_matmul_kernel(64, 8),
                problem.gmem,
                problem.launch(),
                model=model,
                trace_cache=str(tmp_path / "traces"),
            )

        first = run().report.cache_provenance
        assert first["trace"] == "cold"
        assert first["measured"] == "off"  # no measured-run cache wired
        assert "calibration" not in first  # model built without the CLI
        second = run().report.cache_provenance
        assert second["trace"] == "hit"

    def test_render_includes_cache_line(self, model):
        from repro.apps.common import execute

        problem = prepare_problem(64, 8)
        run = execute(
            "matmul",
            build_matmul_kernel(64, 8),
            problem.gmem,
            problem.launch(),
            model=model,
        )
        assert run.report.cache_provenance == {
            "trace": "off", "measured": "off"
        }
        assert "caches               : measured off | trace off" in (
            run.report.render()
        )
