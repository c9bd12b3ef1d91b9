"""Dedup-aware parallel timing layer: signature memoization, pool
fan-out determinism across the bundled kernels, and the on-disk
measured-run cache."""

import pickle

import pytest

from repro.apps.matmul import build_matmul_kernel
from repro.apps.matmul import prepare_problem as prepare_matmul
from repro.apps.matrices import random_blocked
from repro.apps.spmv import build_kernel_for
from repro.apps.spmv import prepare_problem as prepare_spmv
from repro.apps.tridiag import build_cr_kernel
from repro.apps.tridiag import prepare_problem as prepare_cr
from repro.hw import HardwareGpu
from repro.isa import Imm, KernelBuilder
from repro.sim import GlobalMemory, LaunchConfig, SimulationEngine
from repro.sim.trace import BlockTrace, EV_ARITH, EV_GLOBAL_LD


def block_trace(stream, warps=2):
    return BlockTrace(block=(0, 0), stages=[], warp_streams=[stream] * warps)


def arith_block(n=50, warps=2):
    return block_trace([(EV_ARITH, 1, 1, 0, None)] * n, warps)


def load_block(n=20, warps=2):
    return block_trace([(EV_GLOBAL_LD, 0, 2, 128, None)] * n, warps)


def _parallel_gpu(workers=4, **kwargs):
    gpu = HardwareGpu(workers=workers, **kwargs)
    gpu.min_parallel_events = 0  # tiny test grids must still hit the pool
    return gpu


def _tail_table(blocks=41, threads=64):
    """Engine-produced per-block trace table with three block classes."""
    n = blocks * threads - 13
    gmem = GlobalMemory()
    buf = gmem.alloc(n + threads, "buf")
    b = KernelBuilder("tail", params=("buf", "n"))
    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    guard = b.pred()
    b.isetp(guard, "lt", gid, b.param("n"))
    with b.if_then(guard):
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("buf"))
        v = b.reg()
        b.ldg(v, addr)
        b.fadd(v, v, Imm(1.0))
        b.stg(addr, v)
    b.exit()
    launch = LaunchConfig(
        grid=(blocks, 1), block_threads=threads, params={"buf": buf, "n": n}
    )
    trace = SimulationEngine(b.build(), gmem=gmem).run(launch)
    return trace.block_traces, launch.num_blocks


class TestSignatureMemoization:
    def test_two_class_grid_simulates_two_clusters(self):
        # Round-robin over 10 clusters with a [light, heavy] cycle puts
        # all-light queues on even clusters and all-heavy on odd ones:
        # two signatures cover ten clusters.
        light, heavy = arith_block(20), arith_block(120)
        run = HardwareGpu().measure([light, heavy], 20, 8)
        assert run.cluster_sims == 2
        assert run.signature_hits == 8
        assert len(run.cluster_cycles) == 10

    def test_dedup_matches_naive_replay(self):
        light, heavy = arith_block(20), arith_block(120)
        gpu = HardwareGpu()
        fast = gpu.measure([light, heavy], 20, 8)
        naive = gpu.measure([light, heavy], 20, 8, dedup=False)
        assert naive.cluster_sims == 10
        assert naive.signature_hits == 0
        assert fast.cycles == naive.cycles
        assert fast.cluster_cycles == naive.cluster_cycles
        assert fast.events == naive.events

    def test_content_equal_traces_unify(self):
        # Distinct objects with identical streams are one class: the
        # grid collapses to a single signature, matching the genuinely
        # homogeneous measurement bit for bit.
        a, b = arith_block(50), arith_block(50)
        gpu = HardwareGpu()
        mixed = gpu.measure([a, b], 20, 8)
        uniform = gpu.measure(a, 20, 8, wave_extrapolation=False)
        assert mixed.cluster_sims == 1
        assert mixed.signature_hits == 9
        assert mixed.cycles == uniform.cycles
        assert mixed.cluster_cycles == uniform.cluster_cycles

    def test_mixed_class_queues_match_naive_when_signatures_differ(self):
        # Regression: the representative of a signature must simulate
        # its *natural* queue arrangement, not a canonically sorted one.
        # 61 blocks cycling 7 distinct stream lengths give every cluster
        # SM queues of mixed classes in non-sorted order; with (almost)
        # all signatures unique, no permutation-merge fires and dedup
        # must match the naive per-cluster replay bit for bit.
        table = [arith_block(10 + 7 * k) for k in range(7)]
        gpu = HardwareGpu()
        fast = gpu.measure(table, 61, 2)
        naive = gpu.measure(table, 61, 2, dedup=False)
        assert fast.cycles == naive.cycles
        assert fast.cluster_cycles == naive.cluster_cycles
        assert fast.events == naive.events

    def test_engine_table_dedups_interior_clusters(self):
        # 41 blocks: cluster 0 holds both boundary blocks, clusters 1-9
        # share one all-interior signature.
        table, num_blocks = _tail_table(blocks=41)
        assert num_blocks == 41
        run = HardwareGpu().measure(table, num_blocks, 8)
        assert len(run.cluster_cycles) == 10  # exact tables time all
        assert run.cluster_sims == 2
        assert run.signature_hits == 8

    def test_extrapolated_runs_report_shared_tails(self):
        run = HardwareGpu().measure(arith_block(60), 300, resident_per_sm=2)
        assert run.extrapolated
        # one-wave + two-wave + one shared tail pattern.
        assert run.cluster_sims == 3
        assert run.signature_hits == 9


class TestParallelTiming:
    """Pooled cluster fan-out must be bit-identical to serial."""

    def _assert_parallel_identical(self, traces, num_blocks, resident,
                                   use_cache=False):
        serial = HardwareGpu().measure(
            traces, num_blocks, resident, use_cache=use_cache
        )
        parallel = _parallel_gpu().measure(
            traces, num_blocks, resident, use_cache=use_cache
        )
        assert parallel == serial  # every MeasuredRun field
        return serial

    def test_matmul_homogeneous_table(self):
        n, tile = 128, 8
        kernel = build_matmul_kernel(n, tile)
        problem = prepare_matmul(n, tile)
        launch = problem.launch()
        trace = SimulationEngine(kernel, gmem=problem.gmem).run(launch)
        run = self._assert_parallel_identical(
            trace.block_traces, launch.num_blocks, 8
        )
        assert run.cycles > 0

    @pytest.mark.parametrize("use_cache", (False, True))
    def test_spmv_heterogeneous_table(self, use_cache):
        matrix = random_blocked(block_rows=200, slots=3)
        problem = prepare_spmv(matrix, "bell_imiv")
        launch = problem.launch()
        trace = SimulationEngine(
            build_kernel_for(problem), gmem=problem.gmem
        ).run(launch)
        assert len(trace.block_traces) == launch.num_blocks  # data-dep
        self._assert_parallel_identical(
            trace.block_traces, launch.num_blocks, 8, use_cache=use_cache
        )

    def test_tridiag_table(self):
        n, systems = 64, 6
        kernel = build_cr_kernel(n)
        problem = prepare_cr(n, systems)
        launch = problem.launch()
        trace = SimulationEngine(kernel, gmem=problem.gmem).run(launch)
        self._assert_parallel_identical(
            trace.block_traces, launch.num_blocks, 4
        )

    def test_parallel_tail_table_matches_serial(self):
        table, num_blocks = _tail_table(blocks=41)
        self._assert_parallel_identical(table, num_blocks, 8)

    def test_parallel_extrapolation_matches_serial(self):
        trace = arith_block(60)
        serial = HardwareGpu().measure(trace, 300, resident_per_sm=2)
        parallel = _parallel_gpu().measure(trace, 300, resident_per_sm=2)
        assert serial.extrapolated and parallel == serial

    def test_event_floor_keeps_tiny_runs_serial(self):
        gpu = HardwareGpu(workers=4)  # default min_parallel_events
        jobs = [([[[(EV_ARITH, 1, 1, 0, None)]]], 1)] * 4
        assert gpu._effective_workers(jobs) == 0
        gpu.min_parallel_events = 0
        assert gpu._effective_workers(jobs) == 4

    def test_event_floor_default_and_clamp(self):
        assert HardwareGpu().min_parallel_events == 50_000
        assert HardwareGpu(min_parallel_events=-5).min_parallel_events == 0
        assert HardwareGpu(min_parallel_events=7).min_parallel_events == 7


class TestMeasuredRunCache:
    def test_second_measure_hits_the_cache(self, tmp_path):
        gpu = HardwareGpu(cache_dir=str(tmp_path))
        first = gpu.measure(load_block(30), 40, 4)
        assert not first.from_cache
        second = gpu.measure(load_block(30), 40, 4)
        assert second.from_cache
        import dataclasses

        assert dataclasses.replace(second, from_cache=False) == first

    def test_key_sensitivity(self, tmp_path):
        gpu = HardwareGpu(cache_dir=str(tmp_path))
        gpu.measure(load_block(30), 40, 4)
        assert not gpu.measure(load_block(30), 40, 5).from_cache  # resident
        assert not gpu.measure(load_block(30), 41, 4).from_cache  # blocks
        assert not gpu.measure(load_block(31), 40, 4).from_cache  # content
        assert not gpu.measure(
            load_block(30), 40, 4, use_cache=True
        ).from_cache

    def test_extrapolated_runs_are_cached(self, tmp_path):
        gpu = HardwareGpu(cache_dir=str(tmp_path))
        first = gpu.measure(arith_block(60), 300, 2)
        assert first.extrapolated and not first.from_cache
        second = gpu.measure(arith_block(60), 300, 2)
        assert second.extrapolated and second.from_cache
        assert second.cycles == first.cycles

    @pytest.mark.parametrize(
        "junk",
        [
            b"not a pickle",
            b"",
            pickle.dumps(["valid pickle", "but not a dict"]),
            pickle.dumps({"version": -1, "run": None}),
        ],
        ids=["opcode-error", "empty", "non-dict-root", "bad-version"],
    )
    def test_corrupt_cache_files_are_ignored(self, tmp_path, junk):
        gpu = HardwareGpu(cache_dir=str(tmp_path))
        gpu.measure(load_block(30), 40, 4)
        for path in tmp_path.iterdir():
            path.write_bytes(junk)
        rerun = gpu.measure(load_block(30), 40, 4)
        assert not rerun.from_cache

    def test_cache_round_trip_through_parallel_gpu(self, tmp_path):
        # Any pool width may share an entry: results are bit-identical.
        serial = HardwareGpu(cache_dir=str(tmp_path))
        stored = serial.measure(load_block(30), 40, 4)
        parallel = _parallel_gpu(cache_dir=str(tmp_path))
        replayed = parallel.measure(load_block(30), 40, 4)
        assert replayed.from_cache
        assert replayed.cycles == stored.cycles
