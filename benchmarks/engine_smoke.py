"""Small-grid engine smoke benchmark (CI regression gate).

Runs one matmul grid through the serial simulator and through the
deduplicating engine, then checks three things:

1. the engine's aggregate statistics are bit-identical to the serial
   full-grid run (correctness);
2. the engine is at least ``MIN_SPEEDUP``x faster (the whole point);
3. the engine's absolute wall-clock has not regressed more than 2x
   against the recorded baseline in ``engine_smoke_baseline.json``.

A second gate covers the *timing* layer: a Fig. 4-scale heterogeneous
grid (1021 tail-guarded blocks, three block classes) is measured through
the naive per-cluster replay, the signature-deduplicating serial path,
and the parallel path.  All three must agree bit-identically on cycles,
and dedup + pool must be at least ``TIMING_MIN_SPEEDUP``x faster than
the naive replay.

A third gate covers the *functional interpreter*: the SpMV full grid
(data-dependent, so the engine cannot deduplicate -- the pipeline's
worst case) is traced through the per-warp reference oracle and through
the batched interpreter (grid batching included).  Per-block traces
must be bit-identical, the end-to-end hardware-model prediction must be
bit-identical, and the batched path must be at least
``FUNCTIONAL_MIN_SPEEDUP``x faster; both paths report their
instructions/second.

A fourth gate covers *barrier-synchronized grid batching* (per-block
barrier release): matmul and cyclic-reduction full grids -- the
paper's headline barrier-heavy workloads -- are traced through the
oracle and through the grid-batched interpreter.  Per-block traces and
end-to-end predictions must be bit-identical, and each workload must
batch at least ``BARRIER_MIN_SPEEDUP``x faster than the oracle.

A fifth gate covers the *fault-tolerant execution substrate*: the
SpMV small grid runs healthy and serial once, then again through the
process pool with deterministic faults injected (a worker crash, a hung
task reaped by the watchdog, a corrupted trace-cache entry, a timing-
layer worker crash).  Every degraded run must complete, stay pickle-
byte-identical to the healthy serial reference, and report the injected
failures in its health counters.  ``--chaos`` runs only this gate
(used by CI's chaos step, typically with ``$REPRO_FAULTS`` set so the
pool layer also proves it honors environment-installed plans).

A sixth gate covers *observability*: the smoke workload runs with
span/metric recording off and on; traces (engine_stats normalized) and
MeasuredRuns must be pickle-byte-identical either way, and the
recording overhead is reported.  ``--obs DIR`` exports the recorded
session -- CI uploads it as the ``obs-trace`` artifact and renders
``repro obs report --markdown`` into the job summary.

A seventh gate covers *calibration*: the full GT200 microbenchmark
sweep (every Fig. 2 point as one batch of one-SM jobs) runs serially
and across a two-worker pool.  Both tables must hash to the recorded
``CALIBRATION_SHA256``; the seconds and simulated events per second of
each run are recorded so the trend reporter tracks the sweep.

An eighth gate covers *prefix-shared cluster simulation*: the paper's
Fig. 4 matmul (n=512, tile 32) leaves two cluster signature jobs,
(5,4,4) and (4,4,4) blocks per SM, which share every block.  They are
timed as one group and as independent simulations; the ClusterResults
must be pickle-byte-identical and the group must take at most
``PREFIX_MAX_RATIO`` of the independent time.

``--check`` additionally writes every gate's measurements (instr/sec,
speedups, cycle counts) to a machine-readable JSON file (default
``BENCH_engine_smoke.json``, ``--json PATH`` to relocate) that CI
uploads as a per-commit perf-trajectory artifact.

Usage::

    PYTHONPATH=src python benchmarks/engine_smoke.py --check
    PYTHONPATH=src python benchmarks/engine_smoke.py --update   # rebaseline
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import sys
import time
from pathlib import Path

from repro.apps import spmv
from repro.apps.matmul import build_matmul_kernel, prepare_problem
from repro.apps.matrices import random_blocked
from repro.hw import HardwareGpu
from repro.isa import Imm, KernelBuilder
from repro.sim import GlobalMemory, LaunchConfig
from repro.sim.engine import SimulationEngine
from repro.sim.functional import FunctionalSimulator

BASELINE_PATH = Path(__file__).parent / "engine_smoke_baseline.json"

#: Smoke configuration: 64 blocks, each with real shared-memory traffic.
N, TILE = 256, 16

#: Acceptance floor for dedup vs serial full-grid simulation.  The
#: serial baseline now grid-batches barriered kernels too (per-block
#: barrier release), so it is itself several times faster than when
#: this gate was 5x; the dedup engine's remaining edge is simulating 4
#: of 64 blocks instead of all of them (measured ~3-4.5x; gated with
#: headroom for noisy shared runners).
MIN_SPEEDUP = 2.5

#: Wall-clock regression gate vs the recorded baseline.
MAX_REGRESSION = 2.0

#: Timing-layer grid: Fig. 4 scale (1024-block ballpark), sized so the
#: first and last blocks land in one cluster and the other nine clusters
#: share a single queue signature (strong dedup even on one core).
TIMING_BLOCKS = 1021
TIMING_THREADS = 64
TIMING_INNER = 48

#: Acceptance floor for dedup+pool vs naive per-cluster timing replay.
TIMING_MIN_SPEEDUP = 4.0

#: Functional-gate workload: a data-dependent SpMV grid (96 blocks of
#: 2 warps with the pipeline's launch: granularities (32, 16, 4) and
#: recorded segments), traced in full.
FUNCTIONAL_BLOCK_ROWS = 2048
FUNCTIONAL_SLOTS = 6

#: Acceptance floor for the batched interpreter vs the per-warp oracle
#: on the SpMV full-grid trace.
FUNCTIONAL_MIN_SPEEDUP = 3.0

#: Barrier-gate workloads: full matmul and cyclic-reduction grids.
BARRIER_MATMUL_N, BARRIER_MATMUL_TILE = 192, 16
BARRIER_CR_N, BARRIER_CR_SYSTEMS = 128, 40

#: Acceptance floor for grid-batched barriered kernels vs the oracle
#: (per workload; observed ~6-18x, gated conservatively).
BARRIER_MIN_SPEEDUP = 2.0

#: Chaos-gate workload: a small data-dependent SpMV lattice (no dedup,
#: so the grid genuinely fans out across the pool) with per-task
#: chunking forced fine enough to give every injected fault a target.
CHAOS_DIMS = (4, 4, 4, 4)

#: sha256 of the full GT200 calibration tables' JSON
#: (``calibrate(HardwareGpu()).to_json()``): any change to the timing
#: simulator's scheduling must leave every table byte unchanged.
CALIBRATION_SHA256 = (
    "147f61b9d4d9e8865c61c22f6e865e8cb45f0465388279363de4159846aa76e9"
)

#: Pool width of the calibration gate's parallel run.
CALIBRATION_WORKERS = 2

#: Prefix-gate workload: the paper's Fig. 4 matmul at tile 32.
PREFIX_N, PREFIX_TILE = 512, 32

#: Ceiling on grouped / independent time of the prefix gate's signature
#: pair (measured about 0.55 on a 2-vCPU VM).
PREFIX_MAX_RATIO = 0.8

#: Watchdog budget for the chaos gate's hung task (generous against
#: slow shared runners; the injected hang sleeps far longer).
CHAOS_TASK_TIMEOUT = 5.0


def run_once() -> dict:
    kernel = build_matmul_kernel(N, TILE)
    launch = prepare_problem(N, TILE).launch()

    serial_start = time.perf_counter()
    serial = FunctionalSimulator(
        kernel, gmem=prepare_problem(N, TILE).gmem
    ).run(launch)
    serial_seconds = time.perf_counter() - serial_start

    engine_start = time.perf_counter()
    engine = SimulationEngine(kernel, gmem=prepare_problem(N, TILE).gmem)
    fast = engine.run(launch)
    engine_seconds = time.perf_counter() - engine_start

    identical = [s.canonical() for s in serial.stages] == [
        s.canonical() for s in fast.stages
    ]
    return {
        "n": N,
        "tile": TILE,
        "blocks": launch.num_blocks,
        "serial_seconds": serial_seconds,
        "engine_seconds": engine_seconds,
        "speedup": serial_seconds / engine_seconds,
        "identical": identical,
        "engine": fast.engine_stats.summary(),
    }


def build_timing_workload():
    """A Fig. 4-scale heterogeneous grid: tail-guarded streaming kernel."""
    n = TIMING_BLOCKS * TIMING_THREADS - 37  # last block partially active
    gmem = GlobalMemory()
    buf = gmem.alloc(n + TIMING_THREADS, "buf")
    b = KernelBuilder("smoke_stream", params=("buf", "n"))
    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    guard = b.pred()
    b.isetp(guard, "lt", gid, b.param("n"))
    with b.if_then(guard):
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("buf"))
        acc = b.reg()
        b.mov(acc, Imm(0.0))
        v = b.reg()
        with b.counted_loop(TIMING_INNER):
            b.ldg(v, addr)
            b.fmad(acc, v, v, acc)
            b.fmad(acc, v, acc, acc)
        b.stg(addr, acc)
    b.exit()
    launch = LaunchConfig(
        grid=(TIMING_BLOCKS, 1),
        block_threads=TIMING_THREADS,
        params={"buf": buf, "n": n},
    )
    return b.build(), gmem, launch


def run_timing() -> dict:
    """Time the heterogeneous grid through naive / dedup / parallel."""
    kernel, gmem, launch = build_timing_workload()
    trace = SimulationEngine(kernel, gmem=gmem).run(launch)
    table = trace.block_traces
    resident = 8

    naive_start = time.perf_counter()
    naive = HardwareGpu().measure(
        table,
        launch.num_blocks,
        resident,
        wave_extrapolation=False,
        dedup=False,
    )
    naive_seconds = time.perf_counter() - naive_start

    serial = HardwareGpu().measure(table, launch.num_blocks, resident)

    fast_gpu = HardwareGpu(workers=min(4, os.cpu_count() or 1))
    fast_start = time.perf_counter()
    fast = fast_gpu.measure(table, launch.num_blocks, resident)
    fast_seconds = time.perf_counter() - fast_start

    # The nine interior clusters share exactly equal queues here, so the
    # deduplicated paths must match the naive replay bit for bit (and
    # the parallel path must match serial dedup on every field).
    identical = (
        fast == serial
        and fast.cycles == naive.cycles
        and fast.cluster_cycles == naive.cluster_cycles
    )
    return {
        "blocks": launch.num_blocks,
        "naive_seconds": naive_seconds,
        "fast_seconds": fast_seconds,
        "speedup": naive_seconds / fast_seconds,
        "identical": identical,
        "cycles": fast.cycles,
        "cluster_sims": fast.cluster_sims,
        "signature_hits": fast.signature_hits,
    }


def differential_gate(kernel, fresh_problem, resident: int = 4) -> dict:
    """Trace a full grid through the per-warp oracle and the batched
    interpreter (each on a fresh problem's gmem), demanding
    pickled-byte-identical per-block traces AND end-to-end timing-layer
    measurements; returns the gate's measurements (times, instr/sec,
    speedup, cycles)."""
    problem = fresh_problem()
    launch = problem.launch()
    blocks = launch.all_blocks()

    oracle = FunctionalSimulator(kernel, gmem=problem.gmem, batched=False)
    oracle_start = time.perf_counter()
    reference = oracle.run_blocks(launch, blocks)
    oracle_seconds = time.perf_counter() - oracle_start

    batched_sim = FunctionalSimulator(
        kernel, gmem=fresh_problem().gmem, batched=True
    )
    batched_start = time.perf_counter()
    batched = batched_sim.run_blocks(launch, blocks)
    batched_seconds = time.perf_counter() - batched_start

    identical = all(
        a == b and pickle.dumps(a) == pickle.dumps(b)
        for a, b in zip(reference, batched)
    )

    # End-to-end prediction bit-identity: the timing layer must see the
    # same measurement from either trace table.
    ref_run = HardwareGpu().measure(reference, launch.num_blocks, resident)
    bat_run = HardwareGpu().measure(batched, launch.num_blocks, resident)
    identical = identical and ref_run == bat_run

    instructions = sum(
        stage.total_instructions for t in reference for stage in t.stages
    )
    return {
        "blocks": len(blocks),
        "instructions": instructions,
        "oracle_seconds": oracle_seconds,
        "batched_seconds": batched_seconds,
        "oracle_ips": instructions / oracle_seconds,
        "batched_ips": instructions / batched_seconds,
        "speedup": oracle_seconds / batched_seconds,
        "cycles": bat_run.cycles,
        "identical": identical,
    }


def run_functional() -> dict:
    """SpMV full-grid trace: batched interpreter vs per-warp oracle."""
    matrix = random_blocked(
        block_rows=FUNCTIONAL_BLOCK_ROWS, slots=FUNCTIONAL_SLOTS, seed=5
    )
    kernel = spmv.build_kernel_for(spmv.prepare_problem(matrix, "ell"))
    return differential_gate(
        kernel, lambda: spmv.prepare_problem(matrix, "ell")
    )


def run_barrier() -> dict:
    """Matmul + CR full grids: grid-batched barriers vs the oracle."""
    from repro.apps.tridiag import (
        build_cr_kernel,
        prepare_problem as cr_problem,
    )

    workloads = {
        "matmul": (
            build_matmul_kernel(BARRIER_MATMUL_N, BARRIER_MATMUL_TILE),
            lambda: prepare_problem(BARRIER_MATMUL_N, BARRIER_MATMUL_TILE),
        ),
        "cyclic_reduction": (
            build_cr_kernel(BARRIER_CR_N),
            lambda: cr_problem(BARRIER_CR_N, BARRIER_CR_SYSTEMS),
        ),
    }
    return {
        name: differential_gate(kernel, fresh)
        for name, (kernel, fresh) in workloads.items()
    }


def run_chaos() -> dict:
    """Fault-injection gate: degraded runs must equal the healthy one.

    Exercises the self-healing pool end to end -- worker crash with
    retry, hung-task watchdog with serial re-execution, trace-cache
    corruption with quarantine, and a timing-layer worker crash -- and
    demands that every degraded run is pickle-byte-identical (after
    normalizing the telemetry fields, which legitimately differ) to the
    healthy serial reference, with the faults visible in the health
    counters.
    """
    import tempfile
    from dataclasses import replace

    from repro import faults as faults_mod
    from repro.apps.matrices import qcd_like
    from repro.faults import FaultPlan
    from repro.pool import HealthRecord

    lattice = qcd_like(dims=CHAOS_DIMS)
    base = spmv.prepare_problem(lattice, "ell")
    kernel = spmv.build_kernel_for(base)
    launch = base.launch()

    def engine_run(workers, cache=None, plan=None, timeout=None):
        problem = spmv.prepare_problem(lattice, "ell")
        engine = SimulationEngine(
            kernel,
            gmem=problem.gmem,
            workers=workers,
            cache_dir=cache,
            faults=plan,
            task_timeout=timeout,
            grid_batch_blocks=2,
        )
        return engine.run(problem.launch())

    def normalized(trace):
        return pickle.dumps(replace(trace, engine_stats=None))

    healthy = engine_run(0)
    reference = normalized(healthy)

    start = time.perf_counter()
    faulted = engine_run(
        2,
        plan=FaultPlan(
            crash_task=1, crash_attempts=1, hang_task=0, hang_seconds=60.0
        ),
        timeout=CHAOS_TASK_TIMEOUT,
    )
    pool_seconds = time.perf_counter() - start
    pool_health = faulted.engine_stats.health

    with tempfile.TemporaryDirectory() as cache_dir:
        engine_run(0, cache=cache_dir)  # populate the trace cache
        corrupted = engine_run(
            0, cache=cache_dir, plan=FaultPlan(corrupt_read=0)
        )
    cache_health = corrupted.engine_stats.health

    table = healthy.block_traces
    serial_run = HardwareGpu(min_parallel_events=0).measure(
        table, launch.num_blocks, 4
    )
    with faults_mod.injected(crash_task=1, crash_attempts=1):
        crashed_run = HardwareGpu(workers=2, min_parallel_events=0).measure(
            table, launch.num_blocks, 4
        )

    def run_bytes(run):
        return pickle.dumps(replace(run, health=HealthRecord()))

    return {
        "blocks": launch.num_blocks,
        "pool_seconds": pool_seconds,
        "pool_identical": normalized(faulted) == reference,
        "worker_crashes": pool_health.worker_crashes,
        "timeouts": pool_health.timeouts,
        "retries": pool_health.pool_retries,
        "serial_fallbacks": pool_health.serial_fallbacks,
        "cache_identical": normalized(corrupted) == reference,
        "cache_quarantines": cache_health.cache_quarantines,
        "timing_identical": run_bytes(crashed_run) == run_bytes(serial_run),
        "timing_worker_crashes": crashed_run.health.worker_crashes,
    }


def run_obs(obs_dir: Path | None = None) -> dict:
    """Observability gate: instrumentation must be invisible in results.

    Runs the smoke workload twice -- observability off, then on with a
    live recorder -- and demands that (1) the engine traces are
    pickle-byte-identical after normalizing ``engine_stats`` (whose
    wall-clock legitimately differs) and (2) the timing layer's
    MeasuredRuns are byte-identical outright.  The measured overhead of
    recording is reported alongside (informational: the <2 % budget in
    DESIGN.md is for *disabled* hooks, which every other gate in this
    file exercises).  ``obs_dir`` exports the recorded session for the
    CI artifact.
    """
    from dataclasses import replace

    from repro import obs

    kernel = build_matmul_kernel(N, TILE)
    launch = prepare_problem(N, TILE).launch()
    resident = 4

    def engine_trace():
        return SimulationEngine(
            kernel, gmem=prepare_problem(N, TILE).gmem
        ).run(launch)

    off_start = time.perf_counter()
    baseline = engine_trace()
    off_seconds = time.perf_counter() - off_start
    run_off = HardwareGpu().measure(
        baseline.block_traces, launch.num_blocks, resident
    )

    recorder = obs.start()
    try:
        on_start = time.perf_counter()
        observed = engine_trace()
        on_seconds = time.perf_counter() - on_start
        run_on = HardwareGpu().measure(
            observed.block_traces, launch.num_blocks, resident
        )
    finally:
        obs.stop()
    if obs_dir is not None:
        obs.export_session(
            recorder,
            obs_dir,
            argv=["engine_smoke", "--obs", str(obs_dir)],
            command="engine_smoke",
            exit_status=0,
        )

    def normalized(trace):
        return pickle.dumps(replace(trace, engine_stats=None))

    trace_identical = normalized(observed) == normalized(baseline)
    run_identical = pickle.dumps(run_on) == pickle.dumps(run_off)
    return {
        "off_seconds": off_seconds,
        "on_seconds": on_seconds,
        "overhead": on_seconds / off_seconds - 1.0,
        "events": len(recorder.events),
        "spans": sum(1 for e in recorder.events if e["type"] == "span"),
        "trace_identical": trace_identical,
        "run_identical": run_identical,
        "identical": trace_identical and run_identical,
    }


class _CountingGpu(HardwareGpu):
    """A HardwareGpu that counts the events its sweep points simulate."""

    events = 0

    def start_uniform_sm(self, *args, **kwargs):
        def count(results):
            self.events += sum(r.events for r in results)
            return results

        return super().start_uniform_sm(*args, **kwargs).then(count)


def run_calibration() -> dict:
    """Calibration gate: the full sweep, serial and pooled, byte-identical."""
    import hashlib

    from repro.micro import calibrate

    gate = {"expected_sha256": CALIBRATION_SHA256}
    for name, workers in (("serial", 0), ("pool", CALIBRATION_WORKERS)):
        gpu = _CountingGpu(workers=workers)
        start = time.perf_counter()
        tables = calibrate(gpu)
        seconds = time.perf_counter() - start
        gate[name] = {
            "workers": workers,
            "seconds": seconds,
            "events": gpu.events,
            "events_per_second": gpu.events / seconds,
            "sha256": hashlib.sha256(tables.to_json().encode()).hexdigest(),
        }
    gate["identical"] = all(
        gate[name]["sha256"] == CALIBRATION_SHA256
        for name in ("serial", "pool")
    )
    return gate


def run_prefix() -> dict:
    """Prefix gate: the paper's matmul signature pair, grouped vs alone."""
    from repro.apps.common import kernel_resources
    from repro.arch.occupancy import compute_occupancy
    from repro.hw import simulate_cluster, simulate_clusters

    kernel = build_matmul_kernel(PREFIX_N, PREFIX_TILE)
    problem = prepare_problem(PREFIX_N, PREFIX_TILE)
    launch = problem.launch()
    work = FunctionalSimulator(kernel, gmem=problem.gmem).run_block(
        launch, (0, 0)
    ).warp_streams
    gpu = HardwareGpu()
    spec = gpu.spec
    resident = compute_occupancy(
        spec, kernel_resources(kernel, launch)
    ).blocks_per_sm
    counts = gpu._block_counts(
        launch.num_blocks, spec.memory.num_clusters, spec.sms_per_cluster
    )
    jobs = [
        ([[work] * count for count in per_sm], resident)
        for per_sm in sorted({tuple(c) for c in counts}, reverse=True)
    ]

    grouped_start = time.perf_counter()
    grouped = simulate_clusters(jobs, spec, None, False)
    grouped_seconds = time.perf_counter() - grouped_start
    alone_start = time.perf_counter()
    alone = [
        simulate_cluster(spec, None, False, queues, resident)
        for queues, resident in jobs
    ]
    alone_seconds = time.perf_counter() - alone_start
    return {
        "jobs": [[len(queue) for queue in queues] for queues, _ in jobs],
        "resident": resident,
        "events": sum(result.events for result in alone),
        "alone_seconds": alone_seconds,
        "grouped_seconds": grouped_seconds,
        "ratio": grouped_seconds / alone_seconds,
        "speedup": alone_seconds / grouped_seconds,
        "identical": pickle.dumps(grouped) == pickle.dumps(alone),
    }


def check_chaos(chaos: dict) -> int:
    """Evaluate the chaos gate; print the verdicts, return exit code."""
    print(
        f"chaos {chaos['blocks']} spmv blocks: pooled+faults "
        f"{chaos['pool_seconds']:.2f} s "
        f"({chaos['worker_crashes']} crashes, {chaos['timeouts']} timeouts, "
        f"{chaos['retries']} retries, "
        f"{chaos['serial_fallbacks']} serial fallbacks, "
        f"{chaos['cache_quarantines']} cache quarantines)"
    )
    if not chaos["pool_identical"]:
        print("FAIL: fault-injected engine run differs from healthy serial")
        return 1
    if not chaos["worker_crashes"] or not chaos["timeouts"]:
        print("FAIL: injected crash/hang not visible in health counters")
        return 1
    if not chaos["cache_identical"]:
        print("FAIL: corrupted-cache run differs from healthy serial")
        return 1
    if not chaos["cache_quarantines"]:
        print("FAIL: corrupted cache entry was not quarantined")
        return 1
    if not chaos["timing_identical"]:
        print("FAIL: fault-injected measurement differs from serial timing")
        return 1
    if not chaos["timing_worker_crashes"]:
        print("FAIL: timing-layer crash not visible in health counters")
        return 1
    return 0


def write_perf_json(path: Path, payload: dict) -> None:
    """Record the perf trajectory for the CI artifact (machine-readable)."""
    payload = dict(payload)
    payload["schema"] = "engine_smoke/1"
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    path.write_text(json.dumps(payload, indent=2, sort_keys=True))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true")
    mode.add_argument("--update", action="store_true")
    mode.add_argument(
        "--chaos",
        action="store_true",
        help="run only the fault-injection gate (CI chaos step; any "
        "$REPRO_FAULTS plan stays active on top of the injected ones)",
    )
    parser.add_argument(
        "--json",
        type=Path,
        default=Path("BENCH_engine_smoke.json"),
        help="where --check writes the machine-readable measurements",
    )
    parser.add_argument(
        "--obs",
        type=Path,
        default=None,
        help="export the obs gate's recorded session (events.jsonl, "
        "trace.json, metrics.json, manifest.json) to this directory "
        "(the CI obs-trace artifact)",
    )
    args = parser.parse_args(argv)

    if args.chaos:
        env_plan = os.environ.get("REPRO_FAULTS")
        if env_plan:
            print(f"chaos: $REPRO_FAULTS active: {env_plan}")
        if check_chaos(run_chaos()):
            return 1
        print("chaos gate OK")
        return 0

    result = run_once()
    timing = run_timing()
    functional = run_functional()
    barrier = run_barrier()
    chaos = run_chaos()
    obs_gate = run_obs(args.obs)
    calibration = run_calibration()
    prefix = run_prefix()
    if args.check:
        # Record the trajectory *before* evaluating any gate, so a
        # failing run still uploads the measurements that explain it.
        write_perf_json(
            args.json,
            {
                "engine": result,
                "timing": timing,
                "functional": functional,
                "barrier": barrier,
                "chaos": chaos,
                "obs": obs_gate,
                "calibration": calibration,
                "prefix": prefix,
            },
        )
        print(f"perf trajectory written: {args.json}")

    print(
        f"matmul {result['n']} tile {result['tile']} "
        f"({result['blocks']} blocks): "
        f"serial {result['serial_seconds']:.2f} s, "
        f"engine {result['engine_seconds']:.2f} s "
        f"({result['speedup']:.1f}x)"
    )
    print(f"engine: {result['engine']}")

    if not result["identical"]:
        print("FAIL: engine aggregates differ from serial full-grid run")
        return 1
    if result["speedup"] < MIN_SPEEDUP:
        print(f"FAIL: speedup {result['speedup']:.1f}x < {MIN_SPEEDUP}x")
        return 1

    print(
        f"timing {timing['blocks']} heterogeneous blocks: "
        f"naive {timing['naive_seconds']:.2f} s, "
        f"dedup+pool {timing['fast_seconds']:.2f} s "
        f"({timing['speedup']:.1f}x, {timing['cluster_sims']} cluster sims, "
        f"{timing['signature_hits']} signature hits)"
    )
    if not timing["identical"]:
        print("FAIL: dedup/parallel timing cycles differ from naive replay")
        return 1
    if timing["speedup"] < TIMING_MIN_SPEEDUP:
        print(
            f"FAIL: timing speedup {timing['speedup']:.1f}x "
            f"< {TIMING_MIN_SPEEDUP}x"
        )
        return 1

    print(
        f"functional spmv full grid ({functional['blocks']} blocks, "
        f"{functional['instructions']} warp-instructions): "
        f"oracle {functional['oracle_seconds']:.2f} s "
        f"({functional['oracle_ips'] / 1e3:.0f}k instr/s), "
        f"batched {functional['batched_seconds']:.2f} s "
        f"({functional['batched_ips'] / 1e3:.0f}k instr/s), "
        f"{functional['speedup']:.1f}x"
    )
    if not functional["identical"]:
        print(
            "FAIL: batched traces or model predictions differ from the "
            "per-warp oracle"
        )
        return 1
    if functional["speedup"] < FUNCTIONAL_MIN_SPEEDUP:
        print(
            f"FAIL: functional speedup {functional['speedup']:.1f}x "
            f"< {FUNCTIONAL_MIN_SPEEDUP}x"
        )
        return 1

    for name, gate in barrier.items():
        print(
            f"barrier {name} full grid ({gate['blocks']} blocks, "
            f"{gate['instructions']} warp-instructions): "
            f"oracle {gate['oracle_seconds']:.2f} s "
            f"({gate['oracle_ips'] / 1e3:.0f}k instr/s), "
            f"grid-batched {gate['batched_seconds']:.2f} s "
            f"({gate['batched_ips'] / 1e3:.0f}k instr/s), "
            f"{gate['speedup']:.1f}x"
        )
        if not gate["identical"]:
            print(
                f"FAIL: {name} grid-batched traces or predictions differ "
                "from the per-warp oracle"
            )
            return 1
        if gate["speedup"] < BARRIER_MIN_SPEEDUP:
            print(
                f"FAIL: {name} barrier speedup {gate['speedup']:.1f}x "
                f"< {BARRIER_MIN_SPEEDUP}x"
            )
            return 1

    if check_chaos(chaos):
        return 1

    print(
        f"obs: recording off {obs_gate['off_seconds']:.2f} s, "
        f"on {obs_gate['on_seconds']:.2f} s "
        f"({obs_gate['overhead'] * 100:+.1f}%, {obs_gate['spans']} spans, "
        f"{obs_gate['events']} events)"
        + (f"; session exported to {args.obs}" if args.obs else "")
    )
    if not obs_gate["trace_identical"]:
        print("FAIL: engine trace differs with observability recording on")
        return 1
    if not obs_gate["run_identical"]:
        print("FAIL: measured run differs with observability recording on")
        return 1

    for name in ("serial", "pool"):
        run = calibration[name]
        print(
            f"calibration {name} (workers={run['workers']}): "
            f"{run['seconds']:.2f} s, {run['events']} events "
            f"({run['events_per_second'] / 1e3:.0f}k events/s), "
            f"sha256 {run['sha256'][:12]}"
        )
    if not calibration["identical"]:
        print(
            "FAIL: calibration tables differ from the recorded sha256 "
            f"{CALIBRATION_SHA256[:12]}"
        )
        return 1

    print(
        f"prefix matmul {PREFIX_N} tile {PREFIX_TILE} signature jobs "
        f"{prefix['jobs']}: independent {prefix['alone_seconds']:.2f} s, "
        f"grouped {prefix['grouped_seconds']:.2f} s "
        f"({prefix['ratio']:.2f}x the time)"
    )
    if not prefix["identical"]:
        print("FAIL: grouped cluster results differ from independent runs")
        return 1
    if prefix["ratio"] > PREFIX_MAX_RATIO:
        print(
            f"FAIL: grouped/independent time {prefix['ratio']:.2f} "
            f"> {PREFIX_MAX_RATIO}"
        )
        return 1

    if args.update:
        # Record the measurement with generous headroom so the absolute
        # gate keyed to this baseline tolerates slower (shared CI)
        # machines; the relative MIN_SPEEDUP gate above is what catches
        # genuine engine slowdowns.
        padded = round(max(result["engine_seconds"] * 1.5, 1.0), 2)
        BASELINE_PATH.write_text(
            json.dumps(
                {
                    "n": result["n"],
                    "tile": result["tile"],
                    "engine_seconds": padded,
                    "note": (
                        f"measured {result['engine_seconds']:.2f} s; "
                        "recorded generously to absorb machine variance"
                    ),
                },
                indent=2,
            )
        )
        print(f"baseline updated: {BASELINE_PATH}")
        return 0

    baseline = json.loads(BASELINE_PATH.read_text())
    limit = baseline["engine_seconds"] * MAX_REGRESSION
    if result["engine_seconds"] > limit:
        print(
            f"FAIL: engine wall-clock {result['engine_seconds']:.2f} s "
            f"exceeds {MAX_REGRESSION}x recorded baseline "
            f"({baseline['engine_seconds']:.2f} s)"
        )
        return 1
    print("engine smoke benchmark OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
