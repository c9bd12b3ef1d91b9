"""Whole-GPU measurement: distribution, waves, sawtooth."""

import pickle

import pytest

from repro.arch.specs import GTX285
from repro.errors import HardwareModelError
from repro.hw import ClusterSimulator, HardwareGpu
from repro.hw.gpu import HardwareGpu as _Gpu
from repro.micro.instruction import SWEEP_RESIDENT_BLOCKS, instruction_points
from repro.micro.shared import shared_points
from repro.sim.trace import BlockTrace, EV_ARITH, EV_GLOBAL_LD, EV_GLOBAL_ST


def block_trace(stream, warps=2):
    return BlockTrace(block=(0, 0), stages=[], warp_streams=[stream] * warps)


def arith_block(n=50, warps=2):
    return block_trace([(EV_ARITH, 1, 1, 0, None)] * n, warps)


def load_block(n=20, warps=2):
    return block_trace([(EV_GLOBAL_LD, 0, 2, 128, None)] * n, warps)


def cacheable_load_block(n=20, warps=2):
    """Loads carrying texture-cacheable segment payloads."""
    payload = (True, ((4096, 128),))
    return block_trace([(EV_GLOBAL_LD, 0, 2, 128, payload)] * n, warps)


class TestDistribution:
    def test_block_counts_round_robin(self):
        counts = _Gpu._block_counts(35, 10, 3)
        # 35 blocks over 10 clusters: clusters 0-4 get 4, 5-9 get 3.
        assert [sum(c) for c in counts] == [4, 4, 4, 4, 4, 3, 3, 3, 3, 3]

    def test_block_counts_within_cluster(self):
        counts = _Gpu._block_counts(30, 10, 3)
        assert all(c == [1, 1, 1] for c in counts)

    def test_total_preserved(self):
        for n in (1, 7, 29, 30, 31, 59, 123):
            counts = _Gpu._block_counts(n, 10, 3)
            assert sum(sum(c) for c in counts) == n


class TestMeasurement:
    def test_single_block(self):
        gpu = HardwareGpu()
        run = gpu.measure(arith_block(), num_blocks=1, resident_per_sm=8)
        assert run.cycles > 0
        assert run.seconds == run.cycles / gpu.spec.core_clock_hz

    def test_more_blocks_take_longer_when_saturated(self):
        gpu = HardwareGpu()
        t30 = gpu.measure(load_block(100), 30, 8).cycles
        t60 = gpu.measure(load_block(100), 60, 8).cycles
        assert t60 > 1.5 * t30

    def test_sawtooth_at_cluster_multiples(self):
        # Blocks beyond a multiple of 10 cause a leftover wave: the
        # paper's "for the best throughput, the number of blocks should
        # be a multiple of 10".
        gpu = HardwareGpu()
        trace = load_block(200, warps=2)
        t30 = gpu.measure(trace, 30, 1).cycles
        t31 = gpu.measure(trace, 31, 1).cycles
        t40 = gpu.measure(trace, 40, 1).cycles
        assert t31 > 1.15 * t30
        assert abs(t40 - t31) / t40 < 0.35  # 31..40 share the 4-deep cluster

    def test_wave_extrapolation_close_to_exact(self):
        gpu = HardwareGpu()
        trace = arith_block(60)
        exact = gpu.measure(
            trace, 300, resident_per_sm=2, wave_extrapolation=False
        )
        extrapolated = gpu.measure(trace, 300, resident_per_sm=2)
        assert extrapolated.extrapolated
        assert extrapolated.cycles == pytest.approx(exact.cycles, rel=0.15)

    def test_heterogeneous_traces_cycle(self):
        gpu = HardwareGpu()
        light = arith_block(10)
        heavy = arith_block(200)
        mixed = gpu.measure([light, heavy], 20, 8)
        uniform = gpu.measure(light, 20, 8)
        assert mixed.cycles > uniform.cycles

    def test_zero_blocks_rejected(self):
        with pytest.raises(HardwareModelError):
            HardwareGpu().measure(arith_block(), 0, 1)

    def test_empty_traces_rejected(self):
        with pytest.raises(HardwareModelError):
            HardwareGpu().measure([], 10, 1)

    def test_measure_uniform_sm(self):
        gpu = HardwareGpu()
        stream = [(EV_ARITH, 1, 1, 0, None)] * 40
        (result,) = gpu.measure_uniform_sm([[[stream] * 4]], resident_per_sm=8)
        assert result.cycles > 0

    @pytest.mark.parametrize("kind", [EV_GLOBAL_LD, EV_GLOBAL_ST])
    def test_measure_uniform_sm_refuses_global_memory(self, kind):
        # One SM stands for its cluster only while the SMs share no
        # resource; global traffic would share the memory pipeline.
        arith = [(EV_ARITH, 1, 1, 0, None)] * 8
        memory = arith + [(kind, 0, 2, 128, None)]
        with pytest.raises(HardwareModelError, match="global memory"):
            HardwareGpu().measure_uniform_sm(
                [[[arith] * 2], [[arith, memory]]], resident_per_sm=8
            )

    def test_milliseconds_property(self):
        gpu = HardwareGpu()
        run = gpu.measure(arith_block(), 1, 1)
        assert run.milliseconds == pytest.approx(run.seconds * 1e3)


class TestExtrapolatedCacheStats:
    def test_extrapolated_run_reports_cache_hits(self):
        # Regression: the wave-extrapolation path used to discard its
        # ClusterResults' cache_hits/cache_misses, reporting a 0.0 hit
        # rate for every extrapolated run even with use_cache=True.
        gpu = HardwareGpu()
        trace = cacheable_load_block()
        run = gpu.measure(trace, 300, resident_per_sm=2, use_cache=True)
        assert run.extrapolated
        assert run.cache_hit_rate > 0.0

    def test_extrapolated_rate_tracks_the_exact_path(self):
        gpu = HardwareGpu()
        trace = cacheable_load_block()
        exact = gpu.measure(
            trace, 300, 2, use_cache=True, wave_extrapolation=False
        )
        fast = gpu.measure(trace, 300, 2, use_cache=True)
        assert exact.cache_hit_rate > 0.0
        assert fast.cache_hit_rate == pytest.approx(
            exact.cache_hit_rate, abs=0.05
        )

    def test_no_cache_still_reports_zero(self):
        run = HardwareGpu().measure(arith_block(60), 300, 2)
        assert run.extrapolated
        assert run.cache_hit_rate == 0.0


class TestOneSmCalibrationPoints:
    def test_points_time_exactly_one_sm(self):
        # Reduced Fig. 2 sweep: every point is byte-identical to one SM
        # simulated alone, and the old three-SM run of the same queue
        # repeats its events three times and is never faster.
        warps = (1, 6, 16, 32)
        inst, _ = instruction_points(GTX285, warps, iterations=10)
        smem, _ = shared_points(GTX285, warps, iterations=10)
        points = inst + smem
        results = HardwareGpu().measure_uniform_sm(
            points, SWEEP_RESIDENT_BLOCKS
        )
        for queue, result in zip(points, results, strict=True):
            alone = ClusterSimulator().run(
                [list(queue)], SWEEP_RESIDENT_BLOCKS
            )
            assert pickle.dumps(result) == pickle.dumps(alone)
            cluster = ClusterSimulator().run(
                [list(queue) for _ in range(GTX285.sms_per_cluster)],
                SWEEP_RESIDENT_BLOCKS,
            )
            assert cluster.events == GTX285.sms_per_cluster * result.events
            assert cluster.cycles >= result.cycles
