"""Cold start: the calibration sweep runs while the case simulates.

A cold case command starts the Fig. 2 sweep's one-SM jobs on the pool,
simulates the case in this process, and collects the tables only when
the model needs them.  The tables must be byte-identical to a blocking
calibration, healthy or faulted; a failed or interrupted caller must
not leave the sweep's workers behind.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import signal
import time

import pytest
from test_hw_cluster_pinned import REDUCED_SWEEP_SHA256

import repro.pool as pool_mod
from repro import faults, obs
from repro.apps.matmul import run_matmul
from repro.apps.matrices import random_blocked
from repro.apps.spmv import run_spmv
from repro.errors import LaunchError
from repro.hw import HardwareGpu
from repro.micro.calibration import start_calibrate

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

