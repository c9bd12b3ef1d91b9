"""Functional simulator: semantics, divergence, barriers, statistics."""

import numpy as np
import pytest

from repro.errors import DivergenceError, LaunchError, SimulationError
from repro.isa import Imm, KernelBuilder
from repro.sim import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_SHARED,
    FunctionalSimulator,
    GlobalMemory,
    LaunchConfig,
)


def run_simple(build, threads=32, grid=(1, 1), params=None, gmem=None):
    """Build a kernel with ``build(b)``, run one grid, return trace+sim."""
    b = KernelBuilder("t", params=tuple(params or ()))
    build(b)
    b.exit()
    kernel = b.build()
    sim = FunctionalSimulator(kernel, gmem=gmem)
    launch = LaunchConfig(grid=grid, block_threads=threads, params=params or {})
    return sim.run(launch), sim


class TestArithmeticSemantics:
    def make_unary(self, emit, value):
        gmem = GlobalMemory()
        out = gmem.alloc(32, "out")

        def build(b):
            v = b.reg()
            b.mov(v, Imm(value))
            emit(b, v)
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, v)

        run_simple(build, params={"out": out}, gmem=gmem)
        return gmem.read_array(out, 1)[0]

    def test_rcp(self):
        assert self.make_unary(lambda b, v: b.rcp(v, v), 4.0) == pytest.approx(0.25)

    def test_float32_rounding_applied(self):
        # 1 + 2^-30 is not representable in float32.
        result = self.make_unary(
            lambda b, v: b.fadd(v, v, Imm(2.0**-30)), 1.0
        )
        assert result == 1.0

    def test_integer_shifts(self):
        assert self.make_unary(lambda b, v: b.ishl(v, v, Imm(3)), 5) == 40
        assert self.make_unary(lambda b, v: b.ishr(v, v, Imm(2)), 40) == 10

    def test_imad(self):
        assert (
            self.make_unary(lambda b, v: b.imad(v, v, Imm(3), Imm(7)), 5) == 22
        )

    def test_min_max(self):
        assert self.make_unary(lambda b, v: b.imin(v, v, Imm(3)), 9) == 3
        assert self.make_unary(lambda b, v: b.imax(v, v, Imm(3)), 9) == 9

    def test_fneg(self):
        assert self.make_unary(lambda b, v: b.fneg(v, v), 2.5) == -2.5

    def test_double_precision_exact(self):
        # Type IV ops skip the float32 rounding.
        result = self.make_unary(
            lambda b, v: b.dadd(v, v, Imm(2.0**-30)), 1.0
        )
        assert result == 1.0 + 2.0**-30

    def test_sel(self):
        gmem = GlobalMemory()
        out = gmem.alloc(32, "out")

        def build(b):
            p = b.pred()
            b.isetp(p, "lt", b.tid, Imm(16))
            v = b.reg()
            b.sel(v, p, Imm(1), Imm(2))
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, v)

        run_simple(build, params={"out": out}, gmem=gmem)
        values = gmem.read_array(out, 32)
        assert list(values[:16]) == [1.0] * 16
        assert list(values[16:]) == [2.0] * 16


class TestControlFlow:
    def test_loop_executes_n_times(self):
        gmem = GlobalMemory()
        out = gmem.alloc(32, "out")

        def build(b):
            v = b.reg()
            b.mov(v, Imm(0))
            with b.counted_loop(7):
                b.iadd(v, v, Imm(1))
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, v)

        trace, _ = run_simple(build, params={"out": out}, gmem=gmem)
        assert gmem.read_array(out, 32).tolist() == [7.0] * 32
        # The loop branch executes once per iteration (dynamic counting).
        assert trace.totals.instructions["bra"] == 7

    def test_divergent_if_reconverges(self):
        gmem = GlobalMemory()
        out = gmem.alloc(32, "out")

        def build(b):
            v = b.reg()
            b.mov(v, Imm(0))
            p = b.pred()
            b.isetp(p, "lt", b.tid, Imm(5))
            with b.if_then(p):
                b.iadd(v, v, Imm(10))
            b.iadd(v, v, Imm(1))  # executed by all lanes after reconvergence
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, v)

        run_simple(build, params={"out": out}, gmem=gmem)
        values = gmem.read_array(out, 32)
        assert values[:5].tolist() == [11.0] * 5
        assert values[5:].tolist() == [1.0] * 27

    def test_per_lane_loop_trip_counts(self):
        # Lane i iterates i times: min-PC handles divergent back edges.
        gmem = GlobalMemory()
        out = gmem.alloc(32, "out")

        def build(b):
            count = b.reg()
            b.mov(count, b.tid)
            total = b.reg()
            b.mov(total, Imm(0))
            p = b.pred()
            top = b.label()
            b.isetp(p, "gt", count, Imm(0))
            end = b.fresh_label("END")
            b.bra(end, guard=(p, False))
            b.iadd(total, total, Imm(2))
            b.iadd(count, count, Imm(-1))
            b.bra(top)
            b.label(end)
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, total)

        run_simple(build, params={"out": out}, gmem=gmem)
        values = gmem.read_array(out, 32)
        assert values.tolist() == [2.0 * i for i in range(32)]

    def test_guarded_all_false_instruction_still_issues(self):
        from repro.isa import Instruction, Opcode

        def build(b):
            p = b.pred()
            b.isetp(p, "lt", b.tid, Imm(0))  # false everywhere
            v = b.reg()
            b.mov(v, Imm(0))
            guarded = b.reg()
            b.emit(
                Instruction(
                    Opcode.IADD, dst=guarded, srcs=(v, Imm(1)), guard=(p, True)
                )
            )

        trace, _ = run_simple(build)
        assert trace.totals.instructions["iadd"] == 1

    def test_runaway_loop_detected(self):
        b = KernelBuilder("inf")
        top = b.label()
        r = b.reg()
        b.mov(r, Imm(1))
        b.bra(top)
        b.exit()
        kernel = b.build()
        sim = FunctionalSimulator(kernel, max_warp_instructions=1000)
        with pytest.raises(SimulationError):
            sim.run(LaunchConfig(grid=(1, 1), block_threads=32))


class TestBarriersAndStages:
    def test_barriers_split_stages(self):
        def build(b):
            r = b.reg()
            b.mov(r, Imm(1))
            b.bar()
            b.mov(r, Imm(2))
            b.bar()
            b.mov(r, Imm(3))

        trace, _ = run_simple(build, threads=64)
        assert trace.num_stages == 3
        for stage in trace.stages:
            assert stage.instructions["mov"] == 2  # two warps

    def test_inter_warp_communication_through_barrier(self):
        # Warp 1 reads what warp 0 wrote before the barrier.
        gmem = GlobalMemory()
        out = gmem.alloc(64, "out")

        def build(b):
            b.alloc_shared(64)
            sa = b.reg()
            b.ishl(sa, b.tid, Imm(2))
            v = b.reg()
            b.mov(v, b.tid)
            b.sts(v, sa)
            b.bar()
            # read the mirrored position (63 - tid): crosses warps
            mirror = b.reg()
            b.mov(mirror, Imm(63))
            b.isub(mirror, mirror, b.tid)
            b.ishl(mirror, mirror, Imm(2))
            got = b.reg()
            b.lds(got, mirror)
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("out"))
            b.stg(addr, got)

        run_simple(build, threads=64, params={"out": out}, gmem=gmem)
        values = gmem.read_array(out, 64)
        assert values.tolist() == [63.0 - i for i in range(64)]

    def test_divergent_barrier_rejected(self):
        def build(b):
            p = b.pred()
            b.isetp(p, "lt", b.tid, Imm(5))
            with b.if_then(p):
                b.bar()

        with pytest.raises(DivergenceError):
            run_simple(build)

    def test_active_warps_exclude_guard_only_warps(self):
        def build(b):
            p = b.pred()
            b.isetp(p, "lt", b.tid, Imm(32))  # only warp 0 works
            with b.if_then(p):
                v = b.reg()
                b.mov(v, Imm(1))
            b.bar()
            v2 = b.reg()
            b.mov(v2, Imm(2))  # all warps work here

        trace, _ = run_simple(build, threads=128)
        assert trace.stages[0].active_warps == 1
        assert trace.stages[1].active_warps == 4


class TestStatistics:
    def test_mad_counted_for_density(self):
        def build(b):
            v = b.reg()
            b.mov(v, Imm(1))
            for _ in range(8):
                b.fmad(v, v, v, v)
            b.iadd(v, v, Imm(1))

        trace, _ = run_simple(build)
        totals = trace.totals
        assert totals.mad_instructions == 8
        assert 0.5 < totals.computational_density < 0.9

    def test_shared_conflict_accounting(self):
        def build(b):
            b.alloc_shared(128)
            addr = b.reg()
            b.ishl(addr, b.tid, Imm(3))  # stride 2 words: 2-way conflicts
            v = b.reg()
            b.lds(v, addr)

        trace, _ = run_simple(build)
        totals = trace.totals
        assert totals.shared_transactions == 4  # 2 half-warps x 2-way
        assert totals.shared_transactions_ideal == 2
        assert totals.bank_conflict_factor == 2.0

    def test_shared_operand_counts_as_shared_traffic(self):
        def build(b):
            b.alloc_shared(4)
            v = b.reg()
            b.mov(v, Imm(1))
            b.fmad(v, v, b.smem(offset=0), v)

        trace, _ = run_simple(build)
        assert trace.totals.shared_transactions == 2  # broadcast per half-warp

    def test_global_transaction_recording(self):
        gmem = GlobalMemory()
        buf = gmem.alloc(64, "buf")

        def build(b):
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("buf"))
            v = b.reg()
            b.ldg(v, addr)

        trace, _ = run_simple(build, params={"buf": buf}, gmem=gmem)
        totals = trace.totals
        assert totals.global_transactions[32] == 2  # 2 coalesced half-warps
        assert totals.global_bytes[32] == 128
        assert totals.global_useful_bytes == 128
        assert totals.coalescing_efficiency(32) == 1.0

    def test_per_array_attribution(self):
        gmem = GlobalMemory()
        a = gmem.alloc(32, "a")
        c = gmem.alloc(32, "c")

        def build(b):
            addr = b.reg()
            b.imad(addr, b.tid, Imm(4), b.param("a"))
            v = b.reg()
            b.ldg(v, addr)
            b.imad(addr, b.tid, Imm(4), b.param("c"))
            b.ldg(v, addr)

        trace, _ = run_simple(build, params={"a": a, "c": c}, gmem=gmem)
        by_array = trace.totals.global_by_array
        assert by_array["a"][32] == (2, 128)
        assert by_array["c"][32] == (2, 128)

    def test_event_dependency_distances(self):
        def build(b):
            v = b.reg()
            w = b.reg()
            b.mov(v, Imm(1))  # event 0
            b.mov(w, Imm(2))  # event 1
            b.fadd(v, v, w)  # event 2: depends on event 1 (distance 1)
            b.fmul(w, v, v)  # event 3: depends on event 2 (distance 1)
            b.fadd(w, w, v)  # event 4: w from 3 (d=1), v from 2 (d=2)

        b = KernelBuilder("dep")
        build(b)
        b.exit()
        sim = FunctionalSimulator(b.build())
        block = sim.run_block(LaunchConfig(grid=(1, 1), block_threads=32), (0, 0))
        stream = block.warp_streams[0]
        deps = [e[1] for e in stream]
        assert deps[2] == 1
        assert deps[3] == 1
        assert deps[4] == 1  # nearest producer wins

    def test_representative_scaling(self):
        def build(b):
            v = b.reg()
            b.mov(v, Imm(1))

        b = KernelBuilder("scale")
        build(b)
        b.exit()
        sim = FunctionalSimulator(b.build())
        launch = LaunchConfig(grid=(10, 1), block_threads=32)
        full = sim.run(launch)
        sampled = sim.run(launch, blocks=[(0, 0)])
        assert (
            sampled.totals.instructions["mov"]
            == full.totals.instructions["mov"]
        )
        assert sampled.num_blocks == 10


class TestReentrancy:
    """run_block keeps all per-run state in a per-run object (a one-block
    slab, or the oracle's _BlockRun): interleaved or nested runs on one
    simulator instance must not corrupt each other."""

    def _counting_kernel(self, iterations=5):
        b = KernelBuilder("count", params=("out",))
        v = b.reg()
        scratch = b.reg()
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        b.mov(v, Imm(0))
        with b.counted_loop(iterations):
            b.iadd(v, v, Imm(1))
            b.ldg(scratch, addr)  # touch global memory mid-run
            b.fadd(scratch, scratch, v)
        b.stg(addr, v)
        b.exit()
        return b.build()

    def test_nested_run_block_does_not_corrupt_outer_run(self):
        # A GlobalMemory whose first read re-enters the simulator: the
        # nested block run must leave the outer run's registers, shared
        # memory and stage accumulators untouched.
        class ReentrantMemory(GlobalMemory):
            def __init__(self):
                super().__init__()
                self.hook = None
                self.fired = False

            def read(self, addresses):
                if self.hook is not None and not self.fired:
                    self.fired = True
                    self.hook()
                return super().read(addresses)

        gmem = ReentrantMemory()
        out = gmem.alloc(32, "out")
        kernel = self._counting_kernel()
        sim = FunctionalSimulator(kernel, gmem=gmem)
        launch = LaunchConfig(grid=(2, 1), block_threads=32, params={"out": out})

        baseline = sim.run_block(launch, (0, 0))
        gmem.fired = False
        gmem.hook = lambda: sim.run_block(launch, (1, 0))
        nested = sim.run_block(launch, (0, 0))
        assert nested.stats_key() == baseline.stats_key()

    def test_threaded_run_block_interleaving(self):
        import sys
        import threading

        gmem = GlobalMemory()
        out = gmem.alloc(32, "out")
        kernel = self._counting_kernel()
        sim = FunctionalSimulator(kernel, gmem=gmem)
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params={"out": out})
        expected = sim.run_block(launch, (0, 0)).stats_key()

        results = {}
        errors = []

        def worker(block):
            try:
                traces = [
                    sim.run_block(launch, block).stats_key() for _ in range(20)
                ]
                results[block] = traces
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force frequent interleaving
        try:
            threads = [
                threading.Thread(target=worker, args=((x, 0),))
                for x in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(old_interval)

        assert not errors
        for traces in results.values():
            assert all(key == expected for key in traces)


class TestExitAccounting:
    def test_exit_counts_in_instruction_mix(self):
        def build(b):
            v = b.reg()
            b.mov(v, Imm(1))

        trace, _ = run_simple(build, threads=64)
        # One exit issue per warp, recorded as a type II instruction.
        assert trace.totals.instructions["exit"] == 2
        assert (
            trace.totals.total_instructions
            == trace.totals.instructions["mov"] + 2
        )

    def test_divergent_early_exit_counts_each_issue(self):
        def build(b):
            p = b.pred()
            b.isetp(p, "lt", b.tid, Imm(5))
            skip = b.fresh_label("SKIP")
            b.bra(skip, guard=(p, False))
            b.exit()  # lanes 0-4 leave early
            b.label(skip)
            v = b.reg()
            b.mov(v, Imm(1))

        trace, _ = run_simple(build)
        # Lanes 0-4 exit early, the rest exit at the end: two issues.
        assert trace.totals.instructions["exit"] == 2

    def test_exit_appears_in_warp_stream(self):
        # The mix and the replayed warp stream must agree on the issue
        # count, or the model and the timing simulator charge different
        # totals per warp.
        def build(b):
            v = b.reg()
            b.mov(v, Imm(1))

        trace, _ = run_simple(build, threads=64)
        block = trace.block_traces[0]
        per_warp = trace.totals.total_instructions // block.num_warps
        for stream in block.warp_streams:
            assert len(stream) == per_warp  # mov + exit


class TestLaunchErrors:
    def test_missing_parameter(self):
        b = KernelBuilder("k", params=("x",))
        r = b.reg()
        b.mov(r, b.param("x"))
        b.exit()
        sim = FunctionalSimulator(b.build())
        with pytest.raises(LaunchError):
            sim.run(LaunchConfig(grid=(1, 1), block_threads=32))

    def test_block_too_large(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, Imm(1))
        b.exit()
        sim = FunctionalSimulator(b.build())
        with pytest.raises(LaunchError):
            sim.run(LaunchConfig(grid=(1, 1), block_threads=1024))

    def test_block_outside_grid(self):
        b = KernelBuilder("k")
        r = b.reg()
        b.mov(r, Imm(1))
        b.exit()
        sim = FunctionalSimulator(b.build())
        with pytest.raises(LaunchError):
            sim.run_block(LaunchConfig(grid=(2, 2), block_threads=32), (5, 0))

    def test_bad_grid(self):
        with pytest.raises(LaunchError):
            LaunchConfig(grid=(0, 1), block_threads=32)
