"""Failure matrix for the fault-tolerant execution substrate.

Every degraded path (worker crash, hung task, corrupt cache entry,
failed cache write, interrupt) must return results pickle-byte-
identical to a healthy serial run, with the degradation visible in the
health counters -- never a changed result, never a silent recovery.  Faults are injected deterministically through
:mod:`repro.faults`.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import replace

import pytest

from repro import faults
from repro.apps import spmv as spmv_app
from repro.apps.common import kernel_resources
from repro.apps.matmul import build_matmul_kernel, prepare_problem
from repro.apps.matrices import qcd_like
from repro.faults import FaultPlan, FaultPlanError, parse_plan
from repro.hw.gpu import HardwareGpu
from repro.pool import (
    HealthRecord,
    PoolHealth,
    default_task_timeout,
    map_tasks,
)
from repro.sim.engine import SimulationEngine
from repro.util import VersionedPickleCache, atomic_write_bytes

# ----------------------------------------------------------------------
# picklable pool helpers
# ----------------------------------------------------------------------


def _times_ten(task):
    return task * 10


def _raise_on_three(task):
    if task == 3:
        raise ValueError("genuine bug in task 3")
    return task * 10


def _serial_raise_on_three(task):
    if task == 3:
        raise ValueError("genuine bug in task 3")
    return task * 10


# ----------------------------------------------------------------------
# fault-plan parsing and activation
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_round_trip(self):
        plan = parse_plan("crash_task=1,crash_attempts=3,hang_seconds=2.5")
        assert plan.crash_task == 1
        assert plan.crash_attempts == 3
        assert plan.hang_seconds == 2.5
        assert plan.any_active()

    def test_empty_plan_is_inactive(self):
        assert not parse_plan("").any_active()

    def test_unknown_key_raises(self):
        with pytest.raises(FaultPlanError):
            parse_plan("crash_tsak=1")
        with pytest.raises(FaultPlanError):
            parse_plan("fail_shm_attach=0")

    def test_non_number_value_raises(self):
        with pytest.raises(FaultPlanError):
            parse_plan("crash_task=yes")

    def test_missing_equals_raises(self):
        with pytest.raises(FaultPlanError):
            parse_plan("crash_task")

    def test_injected_restores_previous_plan(self):
        with faults.injected(crash_task=7) as outer:
            assert faults.active_plan() == outer
            with faults.injected(hang_task=2):
                assert faults.active_plan().hang_task == 2
                assert faults.active_plan().crash_task is None
            assert faults.active_plan() == outer
        assert faults.active_plan() is None

    def test_env_plan_is_consulted(self, monkeypatch):
        monkeypatch.setenv(faults.FAULTS_ENV, "corrupt_read=4")
        assert faults.active_plan().corrupt_read == 4
        with faults.injected(crash_task=0):
            assert faults.active_plan().corrupt_read is None
        assert faults.active_plan().corrupt_read == 4

    def test_default_task_timeout_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL_TIMEOUT", raising=False)
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_POOL_TIMEOUT", "2.5")
        assert default_task_timeout() == 2.5
        monkeypatch.setenv("REPRO_POOL_TIMEOUT", "0")
        assert default_task_timeout() is None
        monkeypatch.setenv("REPRO_POOL_TIMEOUT", "soon")
        assert default_task_timeout() is None


# ----------------------------------------------------------------------
# the self-healing pool
# ----------------------------------------------------------------------


class TestPoolSelfHealing:
    def test_healthy_run_is_ordered_and_clean(self):
        health = PoolHealth()
        out = map_tasks(
            list(range(8)), 2, _times_ten, _times_ten, health=health
        )
        assert out == [i * 10 for i in range(8)]
        assert health.tasks == 8
        assert not health.degraded

    def test_crash_is_retried_and_result_identical(self):
        health = PoolHealth()
        with faults.injected(crash_task=1, crash_attempts=1):
            out = map_tasks(
                list(range(6)), 2, _times_ten, _times_ten, health=health
            )
        assert out == [i * 10 for i in range(6)]
        assert health.worker_crashes == 1
        assert health.pool_rebuilds == 1
        assert health.retried >= 1
        assert health.serial_fallbacks == 0

    def test_permanent_crash_degrades_to_serial(self):
        health = PoolHealth()
        with faults.injected(crash_task=2, crash_attempts=99):
            out = map_tasks(
                list(range(6)), 2, _times_ten, _times_ten, health=health
            )
        assert out == [i * 10 for i in range(6)]
        # max_retries=2: the crashing task burns its retries across
        # rebuilt pools, then the serial reference finishes it.
        assert health.worker_crashes == 3
        assert health.serial_fallbacks >= 1

    def test_hung_task_is_reaped_by_watchdog(self):
        health = PoolHealth()
        start = time.monotonic()
        with faults.injected(hang_task=0, hang_seconds=120.0):
            out = map_tasks(
                list(range(4)),
                2,
                _times_ten,
                _times_ten,
                health=health,
                task_timeout=2.0,
            )
        elapsed = time.monotonic() - start
        assert out == [i * 10 for i in range(4)]
        assert health.timeouts == 1
        assert health.serial_fallbacks == 1
        assert health.wall_seconds_lost >= 2.0
        assert elapsed < 60.0  # the injected 120 s hang must not be awaited

    def test_worker_error_recovers_through_serial(self):
        health = PoolHealth()
        out = map_tasks(
            list(range(5)), 2, _times_ten, _raise_on_three, health=health
        )
        assert out == [i * 10 for i in range(5)]
        assert health.task_errors == 1
        assert health.serial_fallbacks == 1

    def test_genuine_error_propagates_from_serial_reference(self):
        with pytest.raises(ValueError, match="genuine bug in task 3"):
            map_tasks(
                list(range(5)), 2, _serial_raise_on_three, _raise_on_three
            )

    def test_interrupt_kills_pool_and_reraises(self, monkeypatch):
        import repro.pool

        stopped = []
        real_stop = repro.pool._stop_executor

        def spy(executor, kill):
            stopped.append(kill)
            real_stop(executor, kill)

        monkeypatch.setattr(repro.pool, "_stop_executor", spy)
        health = PoolHealth()
        with pytest.raises(KeyboardInterrupt):
            with faults.injected(interrupt_task=0):
                map_tasks(
                    list(range(4)), 2, _times_ten, _times_ten, health=health
                )
        assert health.interrupts == 1
        assert stopped == [True]


# ----------------------------------------------------------------------
# cache quarantine and fail-open writes
# ----------------------------------------------------------------------


class TestCacheQuarantine:
    def _cache(self, tmp_path):
        return VersionedPickleCache(tmp_path, suffix=".pkl")

    def test_corrupt_entry_is_quarantined_once(self, tmp_path):
        cache = self._cache(tmp_path)
        cache.store_payload("key", {"answer": 42})
        path = tmp_path / "key.pkl"
        assert path.exists()
        with faults.injected(corrupt_read=0):
            assert cache.load_payload("key") is None
        assert cache.quarantines == 1
        assert not path.exists()
        assert (tmp_path / "key.pkl.corrupt").exists()
        # The next lookup is a plain miss: no re-parse, no re-quarantine.
        assert cache.load_payload("key") is None
        assert cache.quarantines == 1

    def test_version_mismatch_is_a_plain_miss(self, tmp_path, monkeypatch):
        cache = self._cache(tmp_path)
        cache.store_payload("key", {"answer": 42})
        monkeypatch.setattr("repro.util._SOURCE_DIGEST", "newer source")
        newer = VersionedPickleCache(tmp_path, suffix=".pkl")
        assert newer.load_payload("key") is None
        assert newer.quarantines == 0
        assert (tmp_path / "key.pkl").exists()  # valid data for old code

    def test_failed_write_fails_open(self, tmp_path):
        cache = self._cache(tmp_path)
        with faults.injected(fail_write=0):
            cache.store_payload("key", {"answer": 42})
        assert cache.write_errors == 1
        assert not (tmp_path / "key.pkl").exists()
        cache.store_payload("key", {"answer": 42})
        assert cache.load_payload("key") == {"answer": 42}

    def test_atomic_write_reports_injected_failure(self, tmp_path):
        target = tmp_path / "blob"
        with faults.injected(fail_write=0):
            assert not atomic_write_bytes(target, b"payload")
        assert not target.exists()
        assert atomic_write_bytes(target, b"payload")
        assert target.read_bytes() == b"payload"


# ----------------------------------------------------------------------
# engine-level failure matrix (SpMV: data-dependent, genuinely pooled)
# ----------------------------------------------------------------------

LATTICE_DIMS = (4, 4, 4, 4)


@pytest.fixture(scope="module")
def spmv_lattice():
    return qcd_like(dims=LATTICE_DIMS)


@pytest.fixture(scope="module")
def spmv_kernel(spmv_lattice):
    return spmv_app.build_kernel_for(
        spmv_app.prepare_problem(spmv_lattice, "ell")
    )


def _spmv_run(
    lattice, kernel, workers, cache=None, plan=None, timeout=None
):
    problem = spmv_app.prepare_problem(lattice, "ell")
    engine = SimulationEngine(
        kernel,
        gmem=problem.gmem,
        workers=workers,
        cache_dir=cache,
        faults=plan,
        task_timeout=timeout,
        # Chunk fine enough that the small grid genuinely fans out,
        # giving every injected fault a pool task to hit.
        grid_batch_blocks=2,
    )
    return engine.run(problem.launch()), problem.launch()


@pytest.fixture(scope="module")
def spmv_healthy(spmv_lattice, spmv_kernel):
    trace, launch = _spmv_run(spmv_lattice, spmv_kernel, workers=0)
    return trace, launch


def _normalized(trace) -> bytes:
    """The trace's bytes with the run-specific telemetry removed."""
    return pickle.dumps(replace(trace, engine_stats=None))


class TestEngineFailureMatrix:
    def test_crash_with_retry_is_bit_identical(
        self, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        healthy, _ = spmv_healthy
        trace, _ = _spmv_run(
            spmv_lattice,
            spmv_kernel,
            workers=2,
            plan=FaultPlan(crash_task=1, crash_attempts=1),
        )
        assert _normalized(trace) == _normalized(healthy)
        health = trace.engine_stats.health
        assert health.worker_crashes == 1
        assert health.pool_rebuilds == 1
        assert health.degraded

    def test_permanent_crash_is_bit_identical(
        self, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        healthy, _ = spmv_healthy
        trace, _ = _spmv_run(
            spmv_lattice,
            spmv_kernel,
            workers=2,
            plan=FaultPlan(crash_task=0, crash_attempts=99),
        )
        assert _normalized(trace) == _normalized(healthy)
        health = trace.engine_stats.health
        assert health.worker_crashes >= 1
        assert health.serial_fallbacks >= 1

    def test_hang_with_watchdog_is_bit_identical(
        self, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        healthy, _ = spmv_healthy
        trace, _ = _spmv_run(
            spmv_lattice,
            spmv_kernel,
            workers=2,
            plan=FaultPlan(hang_task=0, hang_seconds=120.0),
            timeout=3.0,
        )
        assert _normalized(trace) == _normalized(healthy)
        health = trace.engine_stats.health
        assert health.timeouts == 1
        assert health.serial_fallbacks >= 1

    def test_corrupt_cache_entry_quarantines_and_recovers(
        self, tmp_path, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        healthy, _ = spmv_healthy
        cache_dir = str(tmp_path / "traces")
        first, _ = _spmv_run(
            spmv_lattice, spmv_kernel, workers=0, cache=cache_dir
        )
        assert not first.engine_stats.cache_hit
        corrupted, _ = _spmv_run(
            spmv_lattice,
            spmv_kernel,
            workers=0,
            cache=cache_dir,
            plan=FaultPlan(corrupt_read=0),
        )
        assert _normalized(corrupted) == _normalized(healthy)
        stats = corrupted.engine_stats
        assert not stats.cache_hit
        assert stats.health.cache_quarantines == 1
        corrupt_files = [
            name
            for name in os.listdir(cache_dir)
            if name.endswith(".corrupt")
        ]
        assert len(corrupt_files) == 1
        # The corrupted run re-stored a good entry: the third run hits,
        # and a hit's health is all-zero (it describes *this* run).
        third, _ = _spmv_run(
            spmv_lattice, spmv_kernel, workers=0, cache=cache_dir
        )
        assert third.engine_stats.cache_hit
        assert third.engine_stats.health == HealthRecord()

    def test_failed_cache_write_fails_open(
        self, tmp_path, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        healthy, _ = spmv_healthy
        trace, _ = _spmv_run(
            spmv_lattice,
            spmv_kernel,
            workers=0,
            cache=str(tmp_path / "traces"),
            plan=FaultPlan(fail_write=0),
        )
        assert _normalized(trace) == _normalized(healthy)
        assert trace.engine_stats.health.cache_write_errors == 1

    def test_healthy_pooled_run_reports_clean_health(
        self, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        healthy, _ = spmv_healthy
        trace, _ = _spmv_run(spmv_lattice, spmv_kernel, workers=2)
        assert _normalized(trace) == _normalized(healthy)
        assert not trace.engine_stats.health.degraded


# ----------------------------------------------------------------------
# engine-level matrix (matmul: block-uniform, pooled probe path)
# ----------------------------------------------------------------------


class TestMatmulFailureMatrix:
    N, TILE = 64, 16

    def _run(self, workers, plan=None):
        problem = prepare_problem(self.N, self.TILE)
        engine = SimulationEngine(
            build_matmul_kernel(self.N, self.TILE),
            gmem=problem.gmem,
            workers=workers,
            faults=plan,
            grid_batch_blocks=1,
        )
        # dedup=False: the affine grid collapses to one class otherwise,
        # leaving a single pool task and nothing for the fault to hit.
        return engine.run(problem.launch(), dedup=False)

    def test_crash_during_probes_is_bit_identical(self):
        healthy = self._run(0)
        faulted = self._run(
            2, plan=FaultPlan(crash_task=1, crash_attempts=1)
        )
        assert _normalized(faulted) == _normalized(healthy)
        assert faulted.engine_stats.health.worker_crashes == 1


# ----------------------------------------------------------------------
# timing layer
# ----------------------------------------------------------------------


class TestTimingLayerFaults:
    def _measure(self, table, num_blocks, workers, plan=None, timeout=None):
        gpu = HardwareGpu(
            workers=workers, min_parallel_events=0, task_timeout=timeout
        )
        with faults.injected(plan):
            return gpu.measure(table, num_blocks, 4)

    @staticmethod
    def _run_bytes(run) -> bytes:
        return pickle.dumps(replace(run, health=HealthRecord()))

    def test_crash_and_hang_stay_bit_identical(self, spmv_healthy):
        healthy_trace, launch = spmv_healthy
        table = healthy_trace.block_traces
        reference = self._measure(table, launch.num_blocks, workers=0)
        assert reference.health == HealthRecord()

        crashed = self._measure(
            table,
            launch.num_blocks,
            workers=2,
            plan=FaultPlan(crash_task=1, crash_attempts=1),
        )
        assert self._run_bytes(crashed) == self._run_bytes(reference)
        assert crashed.health.worker_crashes == 1

        hung = self._measure(
            table,
            launch.num_blocks,
            workers=2,
            plan=FaultPlan(hang_task=0, hang_seconds=120.0),
            timeout=3.0,
        )
        assert self._run_bytes(hung) == self._run_bytes(reference)
        assert hung.health.timeouts == 1

    def test_measured_run_cache_hit_resets_health(
        self, tmp_path, spmv_healthy
    ):
        healthy_trace, launch = spmv_healthy
        table = healthy_trace.block_traces
        gpu = HardwareGpu(cache_dir=str(tmp_path / "measured"))
        first = gpu.measure(table, launch.num_blocks, 4)
        assert not first.from_cache
        again = gpu.measure(table, launch.num_blocks, 4)
        assert again.from_cache
        assert again.health == HealthRecord()
        assert self._run_bytes(again) == pickle.dumps(
            replace(first, from_cache=True, health=HealthRecord())
        )


# ----------------------------------------------------------------------
# telemetry surfacing
# ----------------------------------------------------------------------


class TestHealthTelemetry:
    def test_health_record_summary(self):
        assert HealthRecord().summary() == "ok"
        record = HealthRecord(
            pool_retries=2, timeouts=1, wall_seconds_lost=3.25
        )
        assert record.summary() == "retries=2 timeouts=1 lost=3.2s"
        assert record.degraded

    def test_analysis_fallbacks_are_not_degradation(self):
        record = HealthRecord(proof_fallbacks=3)
        assert not record.degraded
        assert "proof_fallbacks=3" in record.summary()

    def test_report_renders_degraded_line(
        self, model, spmv_lattice, spmv_kernel
    ):
        trace, launch = _spmv_run(
            spmv_lattice,
            spmv_kernel,
            workers=2,
            plan=FaultPlan(crash_task=1, crash_attempts=1),
        )
        resources = kernel_resources(spmv_kernel, launch)
        report = model.analyze(trace, launch, resources)
        rendered = report.render()
        assert "degraded" in rendered
        assert "worker_crashes=1" in rendered

    def test_healthy_report_has_no_degraded_line(
        self, model, spmv_lattice, spmv_kernel, spmv_healthy
    ):
        trace, launch = spmv_healthy
        resources = kernel_resources(spmv_kernel, launch)
        report = model.analyze(trace, launch, resources)
        assert "degraded" not in report.render()
