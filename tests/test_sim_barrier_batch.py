"""Per-block barrier release in the grid-batched interpreter:
barrier-synchronized kernels batch whole grids, blocks advance their
stages independently within one slab, and the divergence/budget
errors still fire per block.  Also covers the ``grid_batch_blocks``
override (env var and the simulator/engine kwarg)."""

import pickle

import pytest

from repro.errors import DivergenceError
from repro.isa import Imm, KernelBuilder
from repro.sim import FunctionalSimulator, GlobalMemory, LaunchConfig
from repro.sim.engine import SimulationEngine

GRID_BATCH_BLOCKS_ENV = "REPRO_TUNE_GRID_BATCH_BLOCKS"


def assert_grid_batch_identical(kernel, launch, gmem_factory, blocks=None):
    """Grid-batched traces must match per-warp oracle pickled bytes."""
    blocks = blocks if blocks is not None else launch.all_blocks()
    oracle = FunctionalSimulator(kernel, gmem=gmem_factory(), batched=False)
    batched = FunctionalSimulator(kernel, gmem=gmem_factory(), batched=True)
    reference = [oracle.run_block(launch, block) for block in blocks]
    got = batched.run_blocks(launch, blocks)
    assert len(got) == len(reference)
    for expected, actual in zip(reference, got):
        assert expected == actual
        assert pickle.dumps(expected) == pickle.dumps(actual)
    return reference, got


class TestBarrierGridBatching:
    """Barriered kernels ride multi-block slabs, bit-identically."""

    def test_matmul_grid_batch_bit_identical(self):
        from repro.apps.matmul import build_matmul_kernel, prepare_problem

        kernel = build_matmul_kernel(64, 8)
        problem = prepare_problem(64, 8)
        assert_grid_batch_identical(
            kernel,
            problem.launch(),
            lambda: prepare_problem(64, 8).gmem,
        )

    def test_cyclic_reduction_grid_batch_bit_identical(self):
        from repro.apps.tridiag import build_cr_kernel, prepare_problem

        kernel = build_cr_kernel(32)
        problem = prepare_problem(32, 6)
        assert_grid_batch_identical(
            kernel,
            problem.launch(),
            lambda: prepare_problem(32, 6).gmem,
        )

    def test_mid_warp_tail_guard_at_barrier(self):
        # 96 threads, n = 83: the guard cuts lane 19 of warp 2, but the
        # barrier itself sits outside the guarded region, so warps
        # reconverge before arriving -- legal and must batch.
        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(5 * 96, "buf")
            return gmem

        buf = build_gmem().allocations[0].base

        b = KernelBuilder("tailbar", params=("buf", "n"))
        b.alloc_shared(96)
        lid = b.reg()
        b.ishl(lid, b.tid, Imm(2))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        guard = b.pred()
        b.isetp(guard, "lt", gid, b.param("n"))
        v = b.reg()
        b.mov(v, Imm(0.0))
        with b.if_then(guard):
            addr = b.reg()
            b.imad(addr, gid, Imm(4), b.param("buf"))
            b.ldg(v, addr)
            b.fadd(v, v, Imm(1.0))
        b.sts(v, lid)
        b.bar()
        got = b.reg()
        b.lds(got, lid)
        with b.if_then(guard):
            addr2 = b.reg()
            b.imad(addr2, gid, Imm(4), b.param("buf"))
            b.stg(addr2, got)
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(
            grid=(5, 1), block_threads=96, params={"buf": buf, "n": 83}
        )
        assert_grid_batch_identical(kernel, launch, build_gmem)

    def test_blocks_exit_at_different_stage_counts_in_one_slab(self):
        # Block bx loops bx + 1 times with a barrier per iteration, so
        # one slab carries blocks with 2..7 stages: each block must
        # advance and finish on its own schedule.
        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(6 * 64, "out")
            return gmem

        out = build_gmem().allocations[0].base

        b = KernelBuilder("ragged", params=("out",))
        trips = b.reg()
        b.iadd(trips, b.ctaid_x, Imm(1))
        acc = b.reg()
        b.mov(acc, Imm(0.0))
        with b.counted_loop(trips):
            b.fadd(acc, acc, Imm(1.0))
            b.bar()
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("out"))
        b.stg(addr, acc)
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(
            grid=(6, 1), block_threads=64, params={"out": out}
        )
        reference, got = assert_grid_batch_identical(
            kernel, launch, build_gmem
        )
        stage_counts = [len(trace.stages) for trace in got]
        assert stage_counts == [bx + 2 for bx in range(6)]

    def test_exit_while_sibling_parks_at_barrier(self):
        # Warp 1 exits (after filler work, so warp 0 is already parked
        # at the barrier when the exit lands); the block must release
        # with only its live warp.
        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(4 * 64, "out")
            return gmem

        out = build_gmem().allocations[0].base

        b = KernelBuilder("earlyexit", params=("out",))
        upper = b.pred()
        b.isetp(upper, "ge", b.tid, Imm(32))
        r = b.reg()
        with b.if_then(upper):
            b.mov(r, Imm(1.0))
            b.mov(r, Imm(2.0))
            b.mov(r, Imm(3.0))
            b.exit()
        b.bar()
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("out"))
        b.stg(addr, Imm(7.0))
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(
            grid=(4, 1), block_threads=64, params={"out": out}
        )
        reference, got = assert_grid_batch_identical(
            kernel, launch, build_gmem
        )
        assert len(got[0].stages) == 2

    def test_divergent_barrier_raised_per_block_in_slab(self):
        # Only block (2, 0) diverges at the barrier; the error must
        # name that block even though the whole slab runs together.
        b = KernelBuilder("divslab")
        is_bad = b.pred()
        b.isetp(is_bad, "eq", b.ctaid_x, Imm(2))
        cut = b.reg()
        b.sel(cut, is_bad, Imm(5), Imm(32))
        p = b.pred()
        b.isetp(p, "lt", b.tid, cut)
        with b.if_then(p):
            b.bar()
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(grid=(4, 1), block_threads=32)
        sim = FunctionalSimulator(kernel, batched=True)
        with pytest.raises(DivergenceError, match=r"block \(2, 0\)"):
            sim.run_blocks(launch, launch.all_blocks())

    def test_engine_full_grid_matches_per_warp_serial(self):
        from repro.apps.tridiag import build_cr_kernel, prepare_problem

        kernel = build_cr_kernel(32)
        launch = prepare_problem(32, 5).launch()
        serial = FunctionalSimulator(
            kernel, gmem=prepare_problem(32, 5).gmem, batched=False
        ).run(launch)
        engine = SimulationEngine(
            kernel, gmem=prepare_problem(32, 5).gmem
        ).run(launch, dedup=False)
        assert [s.canonical() for s in serial.stages] == [
            s.canonical() for s in engine.stages
        ]


class TestGridBatchBlocksOverride:
    """Satellite: the slab width resolves through repro.tune (kwarg >
    env > profile > built-in default; see test_tune_resolve for the
    full precedence matrix)."""

    LAUNCH = LaunchConfig(grid=(1, 1), block_threads=32)

    def _kernel(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, Imm(1.0))
        b.exit()
        return b.build()

    def test_default_resolves_to_builtin(self):
        from repro.tune import BUILTIN_DEFAULTS

        width = FunctionalSimulator(self._kernel()).grid_batch_blocks_for(
            self.LAUNCH
        )
        assert width == BUILTIN_DEFAULTS["grid_batch_blocks"]
        assert width == 32

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(GRID_BATCH_BLOCKS_ENV, "7")
        sim = FunctionalSimulator(self._kernel())
        assert sim.grid_batch_blocks_for(self.LAUNCH) == 7

    def test_kwarg_beats_env(self, monkeypatch):
        monkeypatch.setenv(GRID_BATCH_BLOCKS_ENV, "7")
        sim = FunctionalSimulator(self._kernel(), grid_batch_blocks=4)
        assert sim.grid_batch_blocks_for(self.LAUNCH) == 4

    def test_invalid_env_fails_open(self, monkeypatch):
        monkeypatch.setenv(GRID_BATCH_BLOCKS_ENV, "not-a-number")
        # Resolution happens per launch (at run time), not at
        # construction, so the warning fires on the per-launch read.
        sim = FunctionalSimulator(self._kernel())
        with pytest.warns(RuntimeWarning):
            assert sim.grid_batch_blocks_for(self.LAUNCH) == 32

    def test_floor_of_one(self):
        sim = FunctionalSimulator(self._kernel(), grid_batch_blocks=0)
        assert sim.grid_batch_blocks_for(self.LAUNCH) == 1

    def test_engine_kwarg_reaches_simulator(self):
        engine = SimulationEngine(self._kernel(), grid_batch_blocks=3)
        assert engine.simulator.grid_batch_blocks_for(self.LAUNCH) == 3

    def test_slab_width_changes_engine_cache_key(self):
        launch = LaunchConfig(grid=(1, 1), block_threads=32)
        narrow = SimulationEngine(self._kernel(), grid_batch_blocks=2)
        wide = SimulationEngine(self._kernel(), grid_batch_blocks=16)
        assert narrow._cache_key(launch, None, True) != wide._cache_key(
            launch, None, True
        )

    def test_narrow_slabs_still_bit_identical(self):
        from repro.apps.tridiag import build_cr_kernel, prepare_problem

        kernel = build_cr_kernel(32)
        launch = prepare_problem(32, 5).launch()
        blocks = launch.all_blocks()
        oracle = FunctionalSimulator(
            kernel, gmem=prepare_problem(32, 5).gmem, batched=False
        )
        reference = [oracle.run_block(launch, block) for block in blocks]
        narrow = FunctionalSimulator(
            kernel, gmem=prepare_problem(32, 5).gmem, grid_batch_blocks=2
        )
        got = narrow.run_blocks(launch, blocks)
        for expected, actual in zip(reference, got):
            assert pickle.dumps(expected) == pickle.dumps(actual)


class TestPerLaunchSlabResolution:
    """Slab width resolves at run time from the launch's warps-per-block."""

    def _kernel(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, Imm(1.0))
        b.exit()
        return b.build()

    def _save_by_warps_profile(self, by_warps, default):
        from repro.arch.specs import GTX285
        from repro.tune import new_profile, save_profile
        from repro.util import spec_fingerprint

        profile = new_profile(
            spec_fp=spec_fingerprint(GTX285),
            min_parallel_events={},
            grid_batch_blocks=by_warps,
            default_grid_batch_blocks=default,
        )
        save_profile(profile)

    def test_profile_width_follows_the_launch_shape(self):
        self._save_by_warps_profile({1: 5, 4: 9}, default=7)
        sim = FunctionalSimulator(self._kernel())
        narrow = LaunchConfig(grid=(1, 1), block_threads=32)
        wide = LaunchConfig(grid=(1, 1), block_threads=128)
        unknown = LaunchConfig(grid=(1, 1), block_threads=64)
        assert sim.grid_batch_blocks_for(narrow) == 5
        assert sim.grid_batch_blocks_for(wide) == 9
        assert sim.grid_batch_blocks_for(unknown) == 7

    def test_one_simulator_serves_differently_shaped_launches(self):
        # The regression the refactor fixes: construction froze the
        # width, so the second launch inherited the first's shape.
        self._save_by_warps_profile({1: 5, 4: 9}, default=7)
        sim = FunctionalSimulator(self._kernel())
        assert sim.grid_batch_blocks_for(
            LaunchConfig(grid=(1, 1), block_threads=128)
        ) == 9
        assert sim.grid_batch_blocks_for(
            LaunchConfig(grid=(1, 1), block_threads=32)
        ) == 5

    def test_kwarg_still_overrides(self):
        self._save_by_warps_profile({1: 5}, default=7)
        launch = LaunchConfig(grid=(1, 1), block_threads=32)
        sim = FunctionalSimulator(self._kernel(), grid_batch_blocks=3)
        assert sim.grid_batch_blocks_for(launch) == 3
        sim = FunctionalSimulator(self._kernel())
        assert sim.grid_batch_blocks_for(launch) == 5

    def test_engine_cache_key_uses_per_launch_width(self):
        self._save_by_warps_profile({1: 5, 4: 9}, default=7)
        engine = SimulationEngine(self._kernel())
        narrow = LaunchConfig(grid=(1, 1), block_threads=32)
        wide = LaunchConfig(grid=(1, 1), block_threads=128)
        # Same grid, different block shape: the slab width (and hence
        # cross-block visibility) differs, so the keys must too.
        assert engine._cache_key(narrow, None, True) != engine._cache_key(
            wide, None, True
        )
