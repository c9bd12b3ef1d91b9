"""Batched interpreter: differential equivalence against the per-warp
oracle, grid batching of barrier-free blocks, vectorized coalescing and
bank analysis, interval-list footprints, digest memoization, and the
shared-memory arena transport for pool workers."""

import pickle

import numpy as np
import pytest

from repro.errors import MemoryAccessError, SimulationError
from repro.isa import Imm, KernelBuilder
from repro.memory.banks import (
    BankConfig,
    warp_transactions,
    warp_transactions_batch,
)
from repro.memory.coalescing import (
    TransactionConfig,
    coalesce_warp,
    coalesce_warp_batch,
    coalesce_warp_multi,
)
from repro.sim import FunctionalSimulator, GlobalMemory, LaunchConfig
from repro.sim.engine import SimulationEngine
from repro.sim.functional import _IntervalList
from repro.sim.trace import stream_digest


def _both(kernel, gmem_factory):
    reference = FunctionalSimulator(kernel, gmem=gmem_factory(), batched=False)
    batched = FunctionalSimulator(kernel, gmem=gmem_factory(), batched=True)
    return reference, batched


def assert_block_identical(kernel, launch, gmem_factory, check_state=True):
    """Batched and per-warp traces must agree down to pickled bytes."""
    reference, batched = _both(kernel, gmem_factory)
    for block in launch.all_blocks():
        ref_trace, ref_state = reference.run_block_state(launch, block)
        bat_trace, bat_state = batched.run_block_state(launch, block)
        assert ref_trace == bat_trace
        assert pickle.dumps(ref_trace.warp_streams) == pickle.dumps(
            bat_trace.warp_streams
        )
        if check_state:
            assert np.array_equal(ref_state.R, bat_state.R)
            assert np.array_equal(ref_state.P, bat_state.P)


class TestStressDivergence:
    """Satellite: batched-vs-reference under hostile divergence."""

    def test_per_lane_trip_counts(self):
        # Every lane loops tid % 7 times: seven distinct PC groups that
        # continually split and reconverge.
        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(64, "out")
            return gmem

        out = build_gmem().allocations[0].base

        b = KernelBuilder("lanes", params=("out",))
        trip = b.reg()
        seven = b.reg()
        b.mov(seven, Imm(7))
        b.iand(trip, b.tid, Imm(0))  # zero
        b.iadd(trip, b.tid, trip)
        rem = b.reg()
        b.ishr(rem, trip, Imm(0))
        # rem = tid % 7 via repeated subtraction to stay in the ISA
        p = b.pred()
        top = b.label()
        b.isetp(p, "ge", rem, seven)
        with b.if_then(p):
            b.isub(rem, rem, seven)
            b.bra(top)
        acc = b.reg()
        b.mov(acc, Imm(0))
        loop = b.label()
        q = b.pred()
        b.isetp(q, "gt", rem, Imm(0))
        with b.if_then(q):
            b.iadd(acc, acc, Imm(3))
            b.isub(rem, rem, Imm(1))
            b.bra(loop)
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        b.stg(addr, acc)
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(
            grid=(1, 1), block_threads=64, params={"out": out}
        )
        assert_block_identical(kernel, launch, build_gmem)

    def test_tail_guard_mid_warp_and_guarded_stores(self):
        # 147 threads: the guard cuts lane 19 of warp 4; stores are
        # additionally guarded by a data-dependent predicate.
        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(256, "buf")
            return gmem

        probe = build_gmem()
        buf = probe.allocations[0].base

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
            odd = b.reg()
            b.iand(odd, gid, Imm(1))
            store_p = b.pred()
            b.isetp(store_p, "eq", odd, Imm(1))
            with b.if_then(store_p):
                b.fadd(v, v, Imm(1.0))
                b.stg(addr, v)
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(
            grid=(1, 1),
            block_threads=160,
            params={"buf": buf, "n": 147},
            record_segments=True,
        )
        assert_block_identical(kernel, launch, build_gmem)

    def test_only_lane_31_survives(self):
        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(32, "out")
            return gmem

        out = build_gmem().allocations[0].base

        b = KernelBuilder("lane31", params=("out",))
        p = b.pred()
        b.isetp(p, "lt", b.tid, Imm(31))
        with b.if_then(p):
            b.exit()  # lanes 0..30 leave immediately
        v = b.reg()
        b.imul(v, b.tid, Imm(2))
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        b.stg(addr, v)
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(grid=(1, 1), block_threads=32, params={"out": out})
        reference, batched = _both(kernel, build_gmem)
        ref = reference.run_block(launch, (0, 0))
        bat = batched.run_block(launch, (0, 0))
        assert ref == bat
        # exactly one active lane did the store
        assert ref.totals.instructions["stg"] == 1

    def test_divergent_barrier_rejected_in_batched_mode(self):
        b = KernelBuilder("divbar")
        p = b.pred()
        b.isetp(p, "lt", b.tid, Imm(5))
        with b.if_then(p):
            b.bar()
        b.exit()
        kernel = b.build()
        sim = FunctionalSimulator(kernel, batched=True)
        from repro.errors import DivergenceError

        with pytest.raises(DivergenceError):
            sim.run(LaunchConfig(grid=(1, 1), block_threads=32))

    def test_instruction_budget_enforced_in_batched_mode(self):
        b = KernelBuilder("inf")
        top = b.label()
        r = b.reg()
        b.mov(r, Imm(1))
        b.bra(top)
        b.exit()
        kernel = b.build()
        sim = FunctionalSimulator(kernel, max_warp_instructions=1000, batched=True)
        with pytest.raises(SimulationError):
            sim.run(LaunchConfig(grid=(1, 1), block_threads=32))


class TestGridBatching:
    """Barrier-free grids execute whole batches of blocks per step."""

    def _stream_kernel(self):
        b = KernelBuilder("stream", params=("buf", "n"))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        guard = b.pred()
        b.isetp(guard, "lt", gid, b.param("n"))
        with b.if_then(guard):
            addr = b.reg()
            b.imad(addr, gid, Imm(4), b.param("buf"))
            v = b.reg()
            b.ldg(v, addr)
            b.fmad(v, v, v, v)
            b.stg(addr, v)
        b.exit()
        return b.build()

    def test_grid_batch_bit_identical_and_ctaid_correct(self):
        kernel = self._stream_kernel()
        n = 17 * 64 - 9  # ragged tail cuts mid-warp in the last block

        def build_gmem():
            gmem = GlobalMemory()
            base = gmem.alloc(17 * 64, "buf")
            gmem.write(
                base + 4 * np.arange(n, dtype=np.int64),
                np.arange(n, dtype=np.float64) / 7.0,
            )
            return gmem

        probe = build_gmem()
        buf = probe.allocations[0].base
        launch = LaunchConfig(
            grid=(17, 1), block_threads=64, params={"buf": buf, "n": n}
        )
        reference = FunctionalSimulator(kernel, gmem=build_gmem(), batched=False)
        grid_gmem = build_gmem()
        batched = FunctionalSimulator(kernel, gmem=grid_gmem, batched=True)
        blocks = launch.all_blocks()
        ref = [reference.run_block(launch, block) for block in blocks]
        bat = batched.run_blocks(launch, blocks)
        assert len(bat) == len(ref)
        for expected, got in zip(ref, bat):
            assert expected == got
            assert pickle.dumps(expected) == pickle.dumps(got)
        # numerical results (ctaid-dependent addressing) are correct
        # (fmad rounds through float32, operand by operand)
        values32 = (np.arange(n, dtype=np.float64) / 7.0).astype(np.float32)
        expected_out = (values32 * values32 + values32).astype(np.float64)
        got_out = grid_gmem.read_array(buf, n)
        np.testing.assert_array_equal(got_out, expected_out)

    def test_grid_batch_with_shared_memory(self):
        # Barrier-free per-warp shared traffic: arena slices must not
        # alias across blocks and bank counts must be unchanged.
        def build_kernel():
            b = KernelBuilder("smem", params=("out",))
            b.alloc_shared(96)  # deliberately not a multiple of 16 words
            sa = b.reg()
            b.ishl(sa, b.tid, Imm(2))
            v = b.reg()
            b.imad(v, b.ctaid_x, Imm(100), b.tid)
            b.sts(v, sa)
            got = b.reg()
            b.lds(got, sa)
            addr = b.reg()
            gid = b.reg()
            b.imad(gid, b.ctaid_x, b.ntid, b.tid)
            b.imad(addr, gid, Imm(4), b.param("out"))
            b.stg(addr, got)
            b.exit()
            return b.build()

        kernel = build_kernel()

        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(6 * 64, "out")
            return gmem

        probe = build_gmem()
        out = probe.allocations[0].base
        launch = LaunchConfig(
            grid=(6, 1), block_threads=64, params={"out": out}
        )
        reference = FunctionalSimulator(kernel, gmem=build_gmem(), batched=False)
        grid_gmem = build_gmem()
        batched = FunctionalSimulator(kernel, gmem=grid_gmem, batched=True)
        blocks = launch.all_blocks()
        ref = [reference.run_block(launch, block) for block in blocks]
        bat = batched.run_blocks(launch, blocks)
        for expected, got in zip(ref, bat):
            assert expected == got
        expected_out = np.concatenate(
            [bx * 100 + np.arange(64.0) for bx in range(6)]
        )
        np.testing.assert_array_equal(
            grid_gmem.read_array(out, 6 * 64), expected_out
        )

    def test_grid_batch_shared_bounds_still_checked(self):
        b = KernelBuilder("oob")
        b.alloc_shared(8)
        sa = b.reg()
        b.ishl(sa, b.tid, Imm(2))  # lanes 8.. exceed the footprint
        v = b.reg()
        b.mov(v, Imm(1.0))
        b.sts(v, sa)
        b.exit()
        kernel = b.build()
        launch = LaunchConfig(grid=(4, 1), block_threads=32)
        sim = FunctionalSimulator(kernel, batched=True)
        with pytest.raises(MemoryAccessError):
            sim.run_blocks(launch, launch.all_blocks())

    def test_chunking_respects_batch_size(self):
        kernel = self._stream_kernel()
        gmem = GlobalMemory()
        buf = gmem.alloc(5 * 32, "buf")
        launch = LaunchConfig(
            grid=(5, 1), block_threads=32, params={"buf": buf, "n": 5 * 32}
        )
        sim = FunctionalSimulator(kernel, gmem=gmem, batched=True)
        sim.grid_batch_blocks = 2  # force several chunks plus a tail
        traces = sim.run_blocks(launch, launch.all_blocks())
        assert [t.block for t in traces] == launch.all_blocks()


class TestVectorizedMemoryAnalysis:
    """Batch coalescing / bank analysis vs the scalar protocol."""

    def test_coalesce_batch_matches_scalar(self):
        rng = np.random.default_rng(11)
        configs = [
            TransactionConfig(),
            TransactionConfig(min_segment=16, max_segment=128),
            TransactionConfig(min_segment=4, max_segment=4),
        ]
        for trial in range(60):
            num_warps = int(rng.integers(1, 6))
            config = configs[trial % len(configs)]
            if trial % 3 == 0:
                base = int(rng.integers(0, 1000)) * 4
                addresses = base + np.arange(num_warps * 32).reshape(
                    num_warps, 32
                ) * 4
            else:
                addresses = rng.integers(0, 4096, size=(num_warps, 32)) * 4
            active = rng.random((num_warps, 32)) < rng.random()
            counts, nbytes, segments = coalesce_warp_batch(
                addresses, active, 4, config, want_segments=True
            )
            for w in range(num_warps):
                expected = coalesce_warp(
                    list(addresses[w]), list(active[w]), 4, config
                )
                assert counts[w] == len(expected)
                assert nbytes[w] == sum(t.size for t in expected)
                assert segments[w] == tuple(
                    (t.address, t.size) for t in expected
                )

    def test_coalesce_multi_shares_totals(self):
        rng = np.random.default_rng(5)
        sweep = [
            TransactionConfig(min_segment=32, max_segment=128),
            TransactionConfig(min_segment=16, max_segment=128),
            TransactionConfig(min_segment=4, max_segment=4),
        ]
        addresses = rng.integers(0, 8192, size=(3, 32)) * 4
        active = rng.random((3, 32)) < 0.8
        out = coalesce_warp_multi(
            addresses, active, 4, sweep,
            want_segments_at=0, totals_only=range(1, 3),
        )
        for i, config in enumerate(sweep):
            counts, nbytes, total_txns, total_bytes, segments = out[i]
            expected_txns = expected_bytes = 0
            for w in range(3):
                transactions = coalesce_warp(
                    list(addresses[w]), list(active[w]), 4, config
                )
                expected_txns += len(transactions)
                expected_bytes += sum(t.size for t in transactions)
            assert total_txns == expected_txns
            assert total_bytes == expected_bytes
            if i == 0:
                assert counts is not None and segments is not None
            else:
                assert counts is None and segments is None

    def test_coalesce_unaligned_falls_back_to_scalar(self):
        addresses = np.array([[2, 6, 10, 14] + [0] * 28])
        active = np.array([[True] * 4 + [False] * 28])
        counts, nbytes, segments = coalesce_warp_batch(
            addresses, active, 4, TransactionConfig(), want_segments=True
        )
        expected = coalesce_warp(list(addresses[0]), list(active[0]), 4)
        assert counts[0] == len(expected)
        assert segments[0] == tuple((t.address, t.size) for t in expected)

    def test_bank_batch_matches_scalar(self):
        rng = np.random.default_rng(3)
        config = BankConfig()
        for _ in range(40):
            num_warps = int(rng.integers(1, 9))
            addresses = rng.integers(0, 4096, size=(num_warps, 32)) * 4
            active = rng.random((num_warps, 32)) < rng.random()
            actual, ideal = warp_transactions_batch(addresses, active, config)
            for w in range(num_warps):
                got, want = warp_transactions(
                    list(addresses[w]), list(active[w]), config
                )
                assert actual[w] == got and ideal[w] == want

    def test_bank_2d_dispatch_through_scalar_name(self):
        addresses = np.arange(64).reshape(2, 32) * 4
        active = np.ones((2, 32), dtype=bool)
        actual, ideal = warp_transactions(addresses, active)
        assert actual.tolist() == [2, 2] and ideal.tolist() == [2, 2]


class TestIntervalLists:
    """Satellite: bounded interval lists replace single hulls."""

    def test_union_is_order_independent(self):
        import itertools

        hulls = [(0, 8), (32, 40), (8, 12), (100, 108), (36, 48)]
        results = set()
        for perm in itertools.permutations(hulls):
            intervals = _IntervalList()
            for lo, hi in perm:
                intervals.add(lo, hi)
            results.add(tuple(intervals.spans))
        assert results == {((0, 12), (32, 48), (100, 108))}

    def test_adjacent_intervals_merge(self):
        intervals = _IntervalList()
        intervals.add(0, 4)
        intervals.add(4, 8)
        assert intervals.spans == [(0, 8)]

    def test_containment_and_bridging(self):
        intervals = _IntervalList()
        intervals.add(0, 100)
        intervals.add(10, 20)
        assert intervals.spans == [(0, 100)]
        intervals.add(200, 300)
        intervals.add(90, 210)
        assert intervals.spans == [(0, 300)]

    def test_cap_widens_smallest_gap(self):
        intervals = _IntervalList(cap=2, watermark=4)
        for i in range(5):
            intervals.add(i * 100, i * 100 + 4)
        assert len(intervals.spans) <= 4
        assert len(intervals.capped()) <= 2
        capped = intervals.capped()
        assert capped[0][0] == 0 and capped[-1][1] == 404

    def test_striped_kernel_has_no_raw_false_positive(self):
        # Each block loads its own two far-apart stripes of one shared
        # allocation and stores a third; a single [lo, hi) hull per
        # allocation would span every other block's store stripe and
        # fire the cross-block RAW warning -- interval lists must not.
        import warnings

        stride = 256  # words per stripe
        blocks = 4

        def build_gmem():
            gmem = GlobalMemory()
            gmem.alloc(stride * 3 * blocks, "data")
            return gmem

        probe = build_gmem()
        data = probe.allocations[0].base

        b = KernelBuilder("striped", params=("data",))
        low = b.reg()
        b.imad(low, b.ctaid_x, Imm(stride * 4), b.tid)
        b.imul(low, b.ctaid_x, Imm(stride * 4))
        lane4 = b.reg()
        b.ishl(lane4, b.tid, Imm(2))
        b.iadd(low, low, lane4)
        b.iadd(low, low, b.param("data"))
        high = b.reg()
        b.iadd(high, low, Imm(stride * 4 * 2 * blocks))
        v1 = b.reg()
        v2 = b.reg()
        b.ldg(v1, low)
        b.ldg(v2, high)
        out = b.reg()
        b.iadd(out, low, Imm(stride * 4 * blocks))
        acc = b.reg()
        b.fadd(acc, v1, v2)
        # steer the store address through loaded data so the kernel is
        # data-dependent (only data-dependent kernels are RAW-checked)
        zero = b.reg()
        b.imul(zero, v1, Imm(0))
        b.iadd(out, out, zero)
        b.stg(out, acc)
        b.exit()
        kernel = b.build()

        launch = LaunchConfig(
            grid=(blocks, 1), block_threads=32, params={"data": data}
        )
        engine = SimulationEngine(kernel, gmem=build_gmem())
        assert engine.dependence.data_dependent
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # any RuntimeWarning fails
            trace = engine.run(launch)
        # loads produce two disjoint stripes per block, not one hull
        sample = trace.block_traces[0]
        assert len(sample.global_load_ranges) == 2


class TestDigestMemoization:
    """Satellite: BlockTrace memoizes stream digests and stats keys."""

    def _trace(self):
        b = KernelBuilder("d")
        r = b.reg()
        b.mov(r, Imm(1))
        b.exit()
        kernel = b.build()
        sim = FunctionalSimulator(kernel)
        return sim.run_block(
            LaunchConfig(grid=(1, 1), block_threads=32), (0, 0)
        )

    def test_digest_matches_functional_form_and_is_cached(self):
        trace = self._trace()
        first = trace.stream_digest()
        assert first == stream_digest(trace.warp_streams)
        assert trace._digest_memo is not None
        trace._digest_memo = (trace._digest_memo[0], "poisoned")
        assert trace.stream_digest() == "poisoned"  # cache hit

    def test_digest_invalidated_on_stream_growth(self):
        trace = self._trace()
        before = trace.stream_digest()
        trace.warp_streams[0].append((0, 0, 0, 0, None))
        after = trace.stream_digest()
        assert after != before
        assert after == stream_digest(trace.warp_streams)

    def test_stats_key_cached_and_invalidated(self):
        trace = self._trace()
        key = trace.stats_key()
        assert trace.stats_key() is trace._stats_key_memo[1]
        trace.warp_streams[0].append((0, 0, 0, 0, None))
        assert trace.stats_key() != key

    def test_hw_engine_reexports_stream_digest(self):
        from repro.hw.engine import stream_digest as hw_digest

        assert hw_digest is stream_digest


class TestSpawnPoolTransport:
    """Spawn workers receive the pre-launch arena pickled in initargs."""

    def test_engine_spawn_workers_match_serial(self, monkeypatch):
        import repro.pool

        # A real spawn pool even on Linux: nothing is inherited, so the
        # kernel, arena and launch must survive the initargs pickle.
        monkeypatch.setattr(repro.pool, "start_method", lambda: "spawn")

        def build():
            gmem = GlobalMemory()
            base = gmem.alloc_array(
                np.arange(4 * 64, dtype=np.float64), "buf"
            )
            return gmem, base

        b = KernelBuilder("pool", params=("buf",))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("buf"))
        v = b.reg()
        b.ldg(v, addr)
        # index a second load through the data: data-dependent traces
        # defeat dedup, so every block really runs in the pool
        idx = b.reg()
        b.imad(idx, v, Imm(0), addr)
        w = b.reg()
        b.ldg(w, idx)
        b.fmad(w, w, w, w)
        b.stg(addr, w)
        b.exit()
        kernel = b.build()

        gmem_a, base_a = build()
        launch = LaunchConfig(
            grid=(4, 1), block_threads=64, params={"buf": base_a}
        )
        serial = SimulationEngine(kernel, gmem=gmem_a).run(launch)
        gmem_b, _ = build()
        parallel = SimulationEngine(
            kernel, gmem=gmem_b, workers=2, grid_batch_blocks=1
        )
        fast = parallel.run(launch)
        assert not fast.engine_stats.health.degraded
        assert [s.canonical() for s in serial.stages] == [
            s.canonical() for s in fast.stages
        ]
        assert len(fast.block_traces) == len(serial.block_traces) == 4
        assert all(
            a == b for a, b in zip(serial.block_traces, fast.block_traces)
        )
