"""Simulation engine: taint analysis, deduplication, parallel fan-out,
cross-block read-after-write detection, and the on-disk trace memo
cache.

The load-bearing guarantee -- engine runs are *bit-identical* to serial
full-grid simulation in aggregate statistics and model predictions --
is asserted differentially for every case-study kernel family in
:class:`TestDifferentialEquivalence`.
"""

import pickle
import warnings

import numpy as np
import pytest

from repro.analysis.report import BUILTIN_KERNELS, analysis_case
from repro.apps.matmul import build_matmul_kernel
from repro.apps.matmul import prepare_problem as prepare_matmul
from repro.apps.matrices import random_blocked
from repro.apps.spmv import build_kernel_for
from repro.apps.spmv import prepare_problem as prepare_spmv
from repro.apps.tridiag import build_cr_kernel
from repro.apps.tridiag import prepare_problem as prepare_cr
from repro.arch.occupancy import KernelResources
from repro.isa import Imm, KernelBuilder
from repro.sim import (
    FunctionalSimulator,
    GlobalMemory,
    LaunchConfig,
    SimulationEngine,
    analyze_dependence,
    partition_blocks,
)
from repro.sim.engine import (
    EngineStats,
    find_cross_block_raw,
    kernel_fingerprint,
)
from repro.sim.trace import BlockTrace


def _canonical(trace):
    return [stage.canonical() for stage in trace.stages]


def _uniform_kernel(gmem, words=64):
    """A block-uniform kernel: ctaid only shifts global bases."""
    out = gmem.alloc(words, "out")
    b = KernelBuilder("uniform", params=("out",))
    addr = b.reg()
    b.imad(addr, b.ctaid_x, b.ntid, b.tid)
    b.imad(addr, addr, Imm(4), b.param("out"))
    v = b.reg()
    b.mov(v, Imm(2.0))
    b.fmul(v, v, v)
    b.stg(addr, v)
    b.exit()
    return b.build(), {"out": out}


def _tail_guarded_kernel(gmem, n):
    """Vector-scale kernel with a `gid < n` tail guard."""
    buf = gmem.alloc(n + 64, "buf")
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
    return b.build(), {"buf": buf, "n": n}


class TestDependenceAnalysis:
    def test_matmul_is_block_uniform(self):
        dep = analyze_dependence(build_matmul_kernel(128, 16))
        assert not dep.data_dependent
        assert not dep.block_in_control

    def test_cr_is_block_uniform(self):
        for padded in (False, True):
            dep = analyze_dependence(build_cr_kernel(64, padded))
            assert not dep.data_dependent
            assert not dep.block_in_control

    def test_spmv_is_data_dependent(self):
        matrix = random_blocked(block_rows=40, slots=3)
        for fmt in ("ell", "bell_im", "bell_imiv"):
            problem = prepare_spmv(matrix, fmt)
            dep = analyze_dependence(build_kernel_for(problem))
            assert dep.data_dependent  # x-gather addresses come from cols

    def test_tail_guard_taints_control_not_data(self):
        gmem = GlobalMemory()
        kernel, _ = _tail_guarded_kernel(gmem, 100)
        dep = analyze_dependence(kernel)
        assert dep.block_in_control
        assert not dep.data_dependent

    def test_register_reuse_does_not_smear_data_taint(self):
        # matmul reuses B-staging registers as prologue address scratch;
        # only flow-sensitivity keeps its addresses DATA-free.
        dep = analyze_dependence(build_matmul_kernel(256, 8))
        assert not dep.data_dependent


class TestPartitioning:
    def test_uniform_kernel_is_one_class(self):
        gmem = GlobalMemory()
        kernel, params = _uniform_kernel(gmem, words=8 * 32)
        launch = LaunchConfig(grid=(8, 1), block_threads=32, params=params)
        classes = partition_blocks(launch, analyze_dependence(kernel))
        assert len(classes) == 1
        assert len(classes[0].members) == 8
        assert classes[0].representative == (0, 0)

    def test_tail_guard_partitions_by_boundary_role(self):
        gmem = GlobalMemory()
        kernel, params = _tail_guarded_kernel(gmem, 100)
        launch = LaunchConfig(grid=(6, 1), block_threads=32, params=params)
        classes = partition_blocks(launch, analyze_dependence(kernel))
        # first / interior / last blocks along x.
        assert sorted(len(c.members) for c in classes) == [1, 1, 4]

    def test_data_dependent_grids_never_dedup(self):
        matrix = random_blocked(block_rows=200, slots=3)
        problem = prepare_spmv(matrix, "bell_im")
        launch = problem.launch()
        classes = partition_blocks(
            launch, analyze_dependence(build_kernel_for(problem))
        )
        assert len(classes) == launch.num_blocks


class TestDifferentialEquivalence:
    """Engine output must be bit-identical to serial full-grid runs."""

    def _assert_equivalent(self, kernel, gmem_factory, launch, model,
                           workers=0):
        serial = FunctionalSimulator(kernel, gmem=gmem_factory()).run(launch)
        engine = SimulationEngine(kernel, gmem=gmem_factory(), workers=workers)
        fast = engine.run(launch)

        assert _canonical(fast) == _canonical(serial)
        assert fast.num_blocks == serial.num_blocks
        assert fast.exact and serial.exact

        resources = KernelResources(
            threads_per_block=launch.block_threads,
            registers_per_thread=kernel.num_registers,
            shared_memory_per_block=kernel.shared_memory_bytes,
        )
        predicted_serial = model.analyze(serial, launch, resources)
        predicted_fast = model.analyze(fast, launch, resources)
        assert (
            predicted_fast.predicted_seconds
            == predicted_serial.predicted_seconds
        )
        assert predicted_fast.bottleneck == predicted_serial.bottleneck
        return fast

    def test_matmul_dedup_matches_serial(self, model):
        n, tile = 128, 8
        kernel = build_matmul_kernel(n, tile)
        launch = prepare_matmul(n, tile).launch()
        fast = self._assert_equivalent(
            kernel, lambda: prepare_matmul(n, tile).gmem, launch, model
        )
        stats = fast.engine_stats
        assert stats.block_classes == 1
        # The dedup proof certifies the class: only its representative
        # is interpreted.
        assert stats.proved_classes == 1
        assert stats.interpreted_classes == 1
        assert stats.simulated_blocks == 1
        assert stats.replicated_blocks == launch.num_blocks - 1

    def test_tridiag_dedup_matches_serial(self, model):
        n, systems = 64, 6
        kernel = build_cr_kernel(n)
        launch = prepare_cr(n, systems).launch()
        fast = self._assert_equivalent(
            kernel, lambda: prepare_cr(n, systems).gmem, launch, model
        )
        assert fast.engine_stats.proved_classes == 1
        assert fast.engine_stats.interpreted_classes == 1
        assert fast.engine_stats.simulated_blocks == 1

    @pytest.mark.parametrize("fmt", ("ell", "bell_im", "bell_imiv"))
    def test_spmv_parallel_matches_serial(self, model, fmt):
        matrix = random_blocked(block_rows=200, slots=3)
        problem = prepare_spmv(matrix, fmt)
        kernel = build_kernel_for(problem)
        launch = problem.launch()
        fast = self._assert_equivalent(
            kernel,
            lambda: prepare_spmv(matrix, fmt).gmem,
            launch,
            model,
            workers=2,
        )
        # Data-dependent: every block must really be simulated.
        assert fast.engine_stats.simulated_blocks == launch.num_blocks

    def test_sample_path_matches_simulator_run(self):
        n, tile = 128, 8
        kernel = build_matmul_kernel(n, tile)
        launch = prepare_matmul(n, tile).launch()
        sample = [(0, 0)]
        serial = FunctionalSimulator(
            kernel, gmem=prepare_matmul(n, tile).gmem
        ).run(launch, blocks=sample)
        engine = SimulationEngine(kernel, gmem=prepare_matmul(n, tile).gmem)
        fast = engine.run(launch, blocks=sample)
        assert _canonical(fast) == _canonical(serial)
        assert not fast.exact
        assert fast.engine_stats.mode == "sample"

    def test_empty_block_sample_raises_like_simulator(self):
        from repro.errors import LaunchError

        gmem = GlobalMemory()
        kernel, params = _uniform_kernel(gmem, words=2 * 32)
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params=params)
        with pytest.raises(LaunchError):
            SimulationEngine(kernel, gmem=gmem).run(launch, blocks=[])

    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_matches_per_warp_oracle(self, name):
        # The dedup representative's trace must pickle to the bytes the
        # per-warp reference interpreter produces for the same block.
        # Fresh cases per side: in-process engine runs write to gmem.
        case = analysis_case(name)
        trace = SimulationEngine(case.kernel, gmem=case.gmem).run(
            case.launch
        ).block_traces[0]
        fresh = analysis_case(name)
        oracle = FunctionalSimulator(
            fresh.kernel, gmem=fresh.gmem, batched=False
        ).run_block(fresh.launch, trace.block)
        assert pickle.dumps(trace, 5) == pickle.dumps(oracle, 5)


class TestProbeVerification:
    """Classes the dedup proof refuses: every member is simulated."""

    def test_misclassified_grid_falls_back_to_full_simulation(self):
        # Force a wrong single-class claim: a tail-guarded kernel whose
        # dependence is overridden to look block-uniform.  The proof
        # must refuse the class, so every block is simulated.
        gmem = GlobalMemory()
        kernel, params = _tail_guarded_kernel(gmem, 100)
        launch = LaunchConfig(grid=(6, 1), block_threads=32, params=params)
        serial = FunctionalSimulator(kernel, gmem=gmem).run(launch)

        gmem2 = GlobalMemory()
        kernel2, _ = _tail_guarded_kernel(gmem2, 100)
        engine = SimulationEngine(kernel2, gmem=gmem2)
        # deliberately wrong claim: pretend the grid is block-uniform
        engine.dependence = analyze_dependence(build_matmul_kernel(128, 8))
        fast = engine.run(launch)

        assert fast.engine_stats.health.proof_fallbacks == 1
        assert fast.engine_stats.simulated_blocks == launch.num_blocks
        assert _canonical(fast) == _canonical(serial)

    def test_mid_class_tail_cutoff_is_caught_by_last_probe(self):
        # Guard cutoff strictly inside the interior role class: blocks
        # 1-12 fully active, 13 partial, 14 inactive.  Replicating the
        # representative would over-count the class.
        gmem = GlobalMemory()
        kernel, params = _tail_guarded_kernel(gmem, 432)
        launch = LaunchConfig(grid=(16, 1), block_threads=32, params=params)
        serial = FunctionalSimulator(kernel, gmem=gmem).run(launch)

        gmem2 = GlobalMemory()
        kernel2, _ = _tail_guarded_kernel(gmem2, 432)
        fast = SimulationEngine(kernel2, gmem=gmem2).run(launch)
        assert fast.engine_stats.health.proof_fallbacks >= 1
        assert _canonical(fast) == _canonical(serial)

    def test_parity_pattern_is_caught_by_neighbour_verifier(self):
        # A kernel whose work depends on ctaid_x parity: half of the
        # interior class differs from the representative.
        def build(gmem):
            out = gmem.alloc(32, "out")
            b = KernelBuilder("parity", params=("out",))
            even = b.reg()
            b.iand(even, b.ctaid_x, Imm(1))
            p = b.pred()
            b.isetp(p, "eq", even, Imm(0))
            v = b.reg()
            b.mov(v, Imm(1.0))
            with b.if_then(p):  # extra work on even blocks only
                b.fadd(v, v, v)
                b.fadd(v, v, v)
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, v)
            b.exit()
            return b.build(), {"out": out}

        gmem = GlobalMemory()
        kernel, params = build(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        serial = FunctionalSimulator(kernel, gmem=gmem).run(launch)

        gmem2 = GlobalMemory()
        kernel2, _ = build(gmem2)
        engine = SimulationEngine(kernel2, gmem=gmem2)
        fast = engine.run(launch)
        assert fast.engine_stats.health.proof_fallbacks >= 1
        assert _canonical(fast) == _canonical(serial)

    def test_lone_outlier_block_is_counted(self):
        # Only block 3 does extra work.  A spot check of a few interior
        # members can miss it; the dedup run must still match the full
        # grid instruction for instruction.
        def build(gmem):
            out = gmem.alloc(32, "out")
            b = KernelBuilder("outlier", params=("out",))
            p = b.pred()
            b.isetp(p, "eq", b.ctaid_x, Imm(3))
            v = b.reg()
            b.mov(v, Imm(1.0))
            with b.if_then(p):
                b.fadd(v, v, v)
                b.fadd(v, v, v)
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, v)
            b.exit()
            return b.build(), {"out": out}

        gmem = GlobalMemory()
        kernel, params = build(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        full = SimulationEngine(kernel, gmem=gmem).run(launch, dedup=False)

        gmem2 = GlobalMemory()
        kernel2, _ = build(gmem2)
        fast = SimulationEngine(kernel2, gmem=gmem2).run(launch)
        assert fast.totals.canonical() == full.totals.canonical()
        assert _canonical(fast) == _canonical(full)
        assert fast.exact
        # The interior class (blocks 1-8) is refused and split; the
        # first and last blocks are one-block classes.
        assert fast.engine_stats.health.proof_fallbacks == 1
        assert fast.engine_stats.simulated_blocks == 10


def _range_trace(block, loads=(), stores=()):
    return BlockTrace(
        block=block,
        stages=[],
        warp_streams=[],
        global_load_ranges=tuple(loads),
        global_store_ranges=tuple(stores),
    )


class TestCrossBlockRawCheck:
    def test_find_overlapping_ranges(self):
        traces = [
            _range_trace((0, 0), loads=[(128, 256)], stores=[(0, 128)]),
            _range_trace((1, 0), loads=[(256, 384)], stores=[(128, 256)]),
        ]
        conflicts = find_cross_block_raw(traces)
        assert conflicts == [((0, 0), (128, 256), (1, 0), (128, 256))]

    def test_same_block_overlap_is_not_a_conflict(self):
        traces = [_range_trace((0, 0), loads=[(0, 64)], stores=[(0, 64)])]
        assert find_cross_block_raw(traces) == []

    def test_disjoint_ranges_are_clean(self):
        traces = [
            _range_trace(
                (b, 0),
                loads=[(1000, 2000)],
                stores=[(b * 64, b * 64 + 64)],
            )
            for b in range(8)
        ]
        assert find_cross_block_raw(traces) == []

    def test_multiple_hulls_per_block(self):
        # Per-allocation hulls: a store-only region between two
        # load-only regions must not read as overlapped.
        clean = [
            _range_trace(
                (b, 0),
                loads=[(0, 128), (512, 640)],
                stores=[(256 + b * 32, 256 + b * 32 + 32)],
            )
            for b in range(4)
        ]
        assert find_cross_block_raw(clean) == []
        dirty = clean + [
            _range_trace((9, 0), loads=[(256, 288)])  # reads block 0's out
        ]
        conflicts = find_cross_block_raw(dirty)
        assert conflicts == [((9, 0), (256, 288), (0, 0), (256, 288))]

    def _raw_kernel(self, blocks, threads=32):
        """Each block gathers through indices pointing into the data the
        *next* block overwrites: a genuine cross-block global RAW whose
        statistics depend on the schedule."""
        total = blocks * threads
        gmem = GlobalMemory()
        pointers = (np.arange(total, dtype=np.float64) + threads) % total
        base_idx = gmem.alloc_array(pointers, "idx")
        base_data = gmem.alloc_array(np.zeros(total), "data")
        b = KernelBuilder("raw", params=("idx", "data"))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        a = b.reg()
        b.imad(a, gid, Imm(4), b.param("idx"))
        v = b.reg()
        b.ldg(v, a)
        addr = b.reg()
        b.imad(addr, v, Imm(4), b.param("data"))
        w = b.reg()
        b.ldg(w, addr)  # data-dependent gather into other blocks' output
        out = b.reg()
        b.imad(out, gid, Imm(4), b.param("data"))
        b.stg(out, w)
        b.exit()
        launch = LaunchConfig(
            grid=(blocks, 1),
            block_threads=threads,
            params={"idx": base_idx, "data": base_data},
        )
        return b.build(), gmem, launch

    def test_engine_warns_on_cross_block_raw(self):
        kernel, gmem, launch = self._raw_kernel(blocks=4)
        engine = SimulationEngine(kernel, gmem=gmem)
        assert engine.dependence.data_dependent
        with pytest.warns(RuntimeWarning, match="read-after-write"):
            engine.run(launch)

    def test_warning_names_the_overlapping_array(self):
        kernel, gmem, launch = self._raw_kernel(blocks=4)
        with pytest.warns(RuntimeWarning, match="'data'"):
            SimulationEngine(kernel, gmem=gmem).run(launch)

    def test_warm_cache_hits_still_warn(self, tmp_path):
        # Cached traces carry their footprints, so the diagnostic must
        # not vanish on the second (memoized) run.
        kernel, gmem, launch = self._raw_kernel(blocks=4)
        engine = SimulationEngine(kernel, gmem=gmem, cache_dir=tmp_path)
        with pytest.warns(RuntimeWarning, match="read-after-write"):
            engine.run(launch)
        with pytest.warns(RuntimeWarning, match="read-after-write"):
            warm = engine.run(launch)
        assert warm.engine_stats.cache_hit

    def test_store_only_output_between_inputs_is_clean(self):
        # Regression: with one hull per block the store-only 'out'
        # allocation sat inside the [idx, data] load hull and every
        # block spuriously conflicted; per-allocation hulls keep fully
        # disjoint load/store sets silent.
        blocks, threads = 4, 32
        total = blocks * threads
        gmem = GlobalMemory()
        base_idx = gmem.alloc_array(
            np.arange(total, dtype=np.float64), "idx"
        )
        base_out = gmem.alloc(total, "out")
        base_data = gmem.alloc_array(np.zeros(total), "data")
        b = KernelBuilder("gather", params=("idx", "out", "data"))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        a = b.reg()
        b.imad(a, gid, Imm(4), b.param("idx"))
        v = b.reg()
        b.ldg(v, a)
        addr = b.reg()
        b.imad(addr, v, Imm(4), b.param("data"))
        w = b.reg()
        b.ldg(w, addr)  # data-dependent: the check runs
        out = b.reg()
        b.imad(out, gid, Imm(4), b.param("out"))
        b.stg(out, w)
        b.exit()
        launch = LaunchConfig(
            grid=(blocks, 1),
            block_threads=threads,
            params={"idx": base_idx, "out": base_out, "data": base_data},
        )
        engine = SimulationEngine(b.build(), gmem=gmem)
        assert engine.dependence.data_dependent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            engine.run(launch)

    def test_spmv_disjoint_outputs_stay_silent(self):
        # SpMV gathers x through cols but only ever stores y: loads and
        # stores never overlap across blocks, so no warning fires.
        matrix = random_blocked(block_rows=100, slots=3)
        problem = prepare_spmv(matrix, "ell")
        kernel = build_kernel_for(problem)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            SimulationEngine(kernel, gmem=problem.gmem).run(problem.launch())

    def test_block_uniform_kernels_are_not_checked(self):
        # Block-uniform kernels replicate one representative; their
        # statistics are schedule-independent by construction even when
        # footprints of replicated members would overlap on paper.
        gmem = GlobalMemory()
        kernel, params = _tail_guarded_kernel(gmem, 100)
        launch = LaunchConfig(grid=(6, 1), block_threads=32, params=params)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            SimulationEngine(kernel, gmem=gmem).run(launch)


class TestTraceCache:
    def _run(self, tmp_path, gmem_value=2.0):
        gmem = GlobalMemory()
        kernel, params = _uniform_kernel(gmem, words=4 * 32)
        base = params["out"]
        gmem.write(
            np.array([base]), np.array([gmem_value])
        )  # perturbable input
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params=params)
        engine = SimulationEngine(kernel, gmem=gmem, cache_dir=tmp_path)
        return engine.run(launch)

    def test_second_run_hits_the_cache(self, tmp_path):
        first = self._run(tmp_path)
        assert not first.engine_stats.cache_hit
        second = self._run(tmp_path)
        assert second.engine_stats.cache_hit
        assert _canonical(second) == _canonical(first)

    def test_data_change_invalidates(self, tmp_path):
        self._run(tmp_path, gmem_value=2.0)
        other = self._run(tmp_path, gmem_value=3.0)
        assert not other.engine_stats.cache_hit

    @pytest.mark.parametrize(
        "junk",
        [
            b"not a pickle",
            b"garbage\n",
            b"",
            pickle.dumps(["valid pickle", "but not a dict"]),
        ],
        ids=["opcode-error", "valueerror-payload", "empty", "non-dict-root"],
    )
    def test_corrupt_cache_files_are_ignored(self, tmp_path, junk):
        self._run(tmp_path)
        for path in tmp_path.iterdir():
            path.write_bytes(junk)
        rerun = self._run(tmp_path)
        assert not rerun.engine_stats.cache_hit


class TestFingerprints:
    def test_kernel_fingerprint_is_content_sensitive(self):
        a = build_matmul_kernel(128, 8)
        b = build_matmul_kernel(128, 16)
        assert kernel_fingerprint(a) == kernel_fingerprint(
            build_matmul_kernel(128, 8)
        )
        assert kernel_fingerprint(a) != kernel_fingerprint(b)

    def test_cache_key_separates_parallel_visibility(self):
        # Pooled workers see pickled gmem copies (cross-block writes
        # invisible), so serial and parallel runs must never share a
        # cache entry.
        gmem = GlobalMemory()
        kernel, params = _uniform_kernel(gmem, words=2 * 32)
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params=params)
        serial = SimulationEngine(kernel, gmem=gmem, cache_dir="unused")
        pooled = SimulationEngine(
            kernel, gmem=gmem, cache_dir="unused", workers=4
        )
        wider = SimulationEngine(
            kernel, gmem=gmem, cache_dir="unused", workers=8
        )
        keys = {
            e._cache_key(launch, None, True) for e in (serial, pooled, wider)
        }
        assert len(keys) == 3  # every pool width gets its own entry
        # workers=0 and workers=1 both simulate in-process: same key.
        one = SimulationEngine(
            kernel, gmem=gmem, cache_dir="unused", workers=1
        )
        assert one._cache_key(launch, None, True) == serial._cache_key(
            launch, None, True
        )

    def test_cache_key_ignores_spec_dict_order(self):
        import dataclasses

        from repro.arch.specs import GTX285

        gmem = GlobalMemory()
        kernel, params = _uniform_kernel(gmem, words=2 * 32)
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params=params)
        reordered = dataclasses.replace(
            GTX285,
            functional_units=dict(
                sorted(GTX285.functional_units.items(), reverse=True)
            ),
        )
        a = SimulationEngine(kernel, gmem=gmem, cache_dir="unused")
        b = SimulationEngine(
            kernel, gmem=gmem, cache_dir="unused", spec=reordered
        )
        assert a._cache_key(launch, None, True) == b._cache_key(
            launch, None, True
        )

    def test_cache_key_includes_instruction_limit(self):
        # A warm cache must not bypass the runaway-instruction guard.
        gmem = GlobalMemory()
        kernel, params = _uniform_kernel(gmem, words=2 * 32)
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params=params)
        default = SimulationEngine(kernel, gmem=gmem, cache_dir="unused")
        bounded = SimulationEngine(
            kernel, gmem=gmem, cache_dir="unused", max_warp_instructions=10
        )
        assert default._cache_key(launch, None, True) != bounded._cache_key(
            launch, None, True
        )

    def test_gmem_digest_tracks_contents(self):
        gmem = GlobalMemory()
        base = gmem.alloc_array(np.arange(8.0), "a")
        before = gmem.digest()
        assert before == gmem.digest()
        gmem.write(np.array([base]), np.array([99.0]))
        assert gmem.digest() != before


class TestEngineStatsReporting:
    def test_stats_render_in_reports(self, model):
        from repro.apps.matmul import run_matmul

        run = run_matmul(128, 8, model=model, measure=False)
        assert isinstance(run.report.engine_stats, EngineStats)
        assert "engine" in run.report.render()
        assert "blocks simulated" in run.report.render()
