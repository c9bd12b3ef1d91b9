"""Cold start: the calibration sweep runs while the case simulates.

A cold case command starts the Fig. 2 sweep's one-SM jobs on the pool,
simulates the case in this process, and collects the tables only when
the model needs them.  The tables must be byte-identical to a blocking
calibration, healthy or faulted; a failed or interrupted caller must
not leave the sweep's workers behind; and the auto-tuner must stay off
the CLI path.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import signal
import time

import pytest
from test_hw_cluster_pinned import REDUCED_SWEEP_SHA256

import repro.pool as pool_mod
from repro import faults, obs
from repro.__main__ import main
from repro.apps.matmul import run_matmul
from repro.apps.matrices import random_blocked
from repro.apps.spmv import run_spmv
from repro.arch.specs import GTX285
from repro.errors import LaunchError
from repro.hw import HardwareGpu
from repro.micro import cache as micro_cache
from repro.micro.calibration import start_calibrate
from repro.tune import (
    TUNE_AUTO_ENV,
    TUNE_DIR_ENV,
    new_profile,
    resolve_with_source,
    save_profile,
)
from repro.util import spec_fingerprint

#: The sweep REDUCED_SWEEP_SHA256 pins.
REDUCED = {"warp_counts": (1, 6, 16, 32), "iterations": 20}


def _overlapped_sweep(gpu: HardwareGpu):
    """Start the reduced sweep, run a case here, then collect."""
    recorder = obs.start()
    try:
        with start_calibrate(gpu, **REDUCED) as sweep:
            run = run_matmul(64, 8, workers=0)
            assert run.measured.cycles > 0
        tables = sweep.collect()
    finally:
        obs.stop()
    return tables, recorder


class TestOverlappedSweep:
    @pytest.mark.parametrize(
        "plan, counter",
        [
            ("", None),
            ("crash_task=1,crash_attempts=1", "pool.worker_crashes"),
            ("hang_task=0,hang_seconds=60", "pool.timeouts"),
        ],
        ids=["healthy", "worker_crash", "hung_task"],
    )
    def test_tables_are_byte_identical(self, monkeypatch, plan, counter):
        monkeypatch.setenv(faults.FAULTS_ENV, plan)
        gpu = HardwareGpu(workers=2, task_timeout=2.0)
        tables, recorder = _overlapped_sweep(gpu)
        digest = hashlib.sha256(tables.to_json().encode()).hexdigest()
        assert digest == REDUCED_SWEEP_SHA256
        assert any(  # the sweep really ran on the pool
            event["name"] == "pool.map_tasks"
            and event["attrs"]["mode"] == "pool"
            for event in recorder.events
        )
        degraded = {
            name: value
            for name, value in recorder.counters.items()
            if name.startswith("pool.") and name != "pool.tasks"
        }
        if counter is None:
            assert degraded == {}
        else:
            assert degraded[counter] == 1

    def test_interrupt_while_pending_kills_the_pool(self, monkeypatch):
        stopped = []
        real_stop = pool_mod._stop_executor

        def spy(executor, kill):
            stopped.append(kill)
            real_stop(executor, kill)

        monkeypatch.setattr(pool_mod, "_stop_executor", spy)
        with pytest.raises(KeyboardInterrupt):
            with start_calibrate(HardwareGpu(workers=2), **REDUCED):
                raise KeyboardInterrupt
        assert stopped == [True]

    def test_failed_case_leaves_no_live_worker(self):
        before = set(multiprocessing.active_children())
        with pytest.raises(LaunchError, match="unknown SpMV format"):
            with start_calibrate(HardwareGpu(workers=2), **REDUCED):
                workers = set(multiprocessing.active_children()) - before
                run_spmv(random_blocked(8, 2), "csr")
        assert workers
        # The killed workers are reaped by the pool's own manager thread
        # too, so give it a moment to record their exit.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline and any(
            process.is_alive() for process in workers
        ):
            time.sleep(0.05)
        # Killed, not left to finish the sweep.
        assert {process.exitcode for process in workers} == {-signal.SIGKILL}


def _reduced_sweep(gpu=None, **_kwargs):
    # The CLI calibrates the full grid; these tests need its wiring only.
    return start_calibrate(gpu, **REDUCED)


def _cli_payload(capsys, argv: list[str]) -> dict:
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    payload["engine"].pop("wall_seconds")
    return payload


class TestTunerOffCliPath:
    def test_cold_run_writes_no_profile_and_ignores_knobs(
        self, tmp_path, monkeypatch, capsys
    ):
        # With auto-tuning allowed and the profile store under the
        # cache, a first-run tuner would write <cache>/tune/ here.
        monkeypatch.delenv(TUNE_DIR_ENV)
        monkeypatch.setenv(TUNE_AUTO_ENV, "1")
        monkeypatch.setattr(micro_cache, "start_calibrate", _reduced_sweep)
        argv = ["matmul", "--n", "128", "--tile", "16", "--json"]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cold"))
        cold = _cli_payload(capsys, argv)
        assert not (tmp_path / "cold" / "tune").exists()

        # Same cold run against a profile whose knobs differ.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "tuned"))
        save_profile(
            new_profile(
                spec_fingerprint(GTX285),
                {},
                {},
                default_grid_batch_blocks=4,
                default_min_parallel_events=0,
            )
        )
        for param, value in (
            ("grid_batch_blocks", 4),
            ("min_parallel_events", 0),
        ):
            assert resolve_with_source(param, spec=GTX285) == (
                value,
                "profile",
            )
        assert _cli_payload(capsys, argv) == cold
