"""Microbenchmarks: codegen, sweeps, calibration tables."""

import pytest

from repro.errors import CalibrationError, IsaError
from repro.hw import HardwareGpu
from repro.isa import Opcode, validate_kernel
from repro.micro import (
    CalibrationTables,
    blocks_for_warps,
    buffer_words_for_stream,
    global_stream_benchmark,
    instruction_benchmark,
    peak_table,
    run_synthetic,
    shared_copy_benchmark,
    single_warp_stream,
)
from repro.sim import FunctionalSimulator, GlobalMemory, LaunchConfig
from repro.sim.trace import EV_ARITH, EV_GLOBAL_LD, TYPE_INDEX


class TestCodegen:
    @pytest.mark.parametrize("type_name", ["I", "II", "III", "IV"])
    def test_instruction_kernel_is_pure(self, type_name):
        kernel = instruction_benchmark(type_name, unroll=4)
        validate_kernel(kernel)
        trace = FunctionalSimulator(kernel).run(
            LaunchConfig(grid=(1, 1), block_threads=32, params={"iters": 5})
        )
        counts = trace.totals.instr_by_type
        assert counts[type_name] >= 5 * 4  # the measured chain dominates

    def test_instruction_kernel_loop_overhead_is_three(self):
        kernel = instruction_benchmark("II", unroll=16)
        trace = FunctionalSimulator(kernel).run(
            LaunchConfig(grid=(1, 1), block_threads=32, params={"iters": 10})
        )
        # per iteration: 16 chain + iadd + isetp + bra
        assert trace.totals.instructions["bra"] == 10
        assert trace.totals.instructions["isetp"] == 10

    def test_unknown_type_rejected(self):
        with pytest.raises(IsaError):
            instruction_benchmark("V")

    def test_shared_copy_conflict_free(self):
        kernel = shared_copy_benchmark(unroll=4)
        trace = FunctionalSimulator(kernel).run(
            LaunchConfig(grid=(1, 1), block_threads=32, params={"iters": 6})
        )
        totals = trace.totals
        assert totals.bank_conflict_factor == 1.0
        # 2 transactions per memory instruction, lds+sts per word
        assert totals.shared_transactions == 6 * 4 * 2 * 2

    def test_shared_copy_unroll_bounds(self):
        with pytest.raises(IsaError):
            shared_copy_benchmark(unroll=9)

    def test_global_stream_fully_coalesced(self):
        kernel = global_stream_benchmark()
        gmem = GlobalMemory()
        base = gmem.alloc(buffer_words_for_stream(32, 10), "stream")
        trace = FunctionalSimulator(kernel, gmem).run(
            LaunchConfig(
                grid=(1, 1),
                block_threads=32,
                params={"buf": base, "iters": 10},
            )
        )
        totals = trace.totals
        assert totals.global_transactions[32] == 10 * 2
        assert totals.coalescing_efficiency(32) == 1.0

    def test_global_stream_strided_wastes_bandwidth(self):
        kernel = global_stream_benchmark(stride_words=8)
        gmem = GlobalMemory()
        base = gmem.alloc(buffer_words_for_stream(32, 5, 8), "stream")
        trace = FunctionalSimulator(kernel, gmem).run(
            LaunchConfig(
                grid=(1, 1), block_threads=32, params={"buf": base, "iters": 5}
            )
        )
        assert trace.totals.coalescing_efficiency(32) < 0.5


class TestRunnerHelpers:
    def test_blocks_for_warps_partitions(self):
        for warps in range(1, 33):
            blocks = blocks_for_warps(warps)
            assert sum(blocks) == warps
            assert len(blocks) <= 8
            assert max(blocks) <= 16

    def test_blocks_for_warps_bounds(self):
        with pytest.raises(CalibrationError):
            blocks_for_warps(0)
        with pytest.raises(CalibrationError):
            blocks_for_warps(129)

    def test_single_warp_stream_matches_direct_run(self):
        kernel = instruction_benchmark("II", unroll=4)
        stream = single_warp_stream(kernel, {"iters": 3})
        arith_events = [e for e in stream if e[0] == EV_ARITH]
        # 3 iters x (4 chain + 3 loop) + prologue/epilogue movs
        assert len(arith_events) == len(stream)
        chain = [e for e in stream if e[2] == TYPE_INDEX["II"]]
        assert len(chain) >= 3 * 4


class TestCurves:
    def test_instruction_table_lookup(self, tables):
        assert tables.instruction.at("II", 8) > 0
        with pytest.raises(ValueError):
            tables.instruction.at("II", 7)  # not a sampled point

    def test_throughput_monotone_up_to_saturation(self, tables):
        for name in ("I", "II", "III", "IV"):
            series = tables.instruction.throughput[name]
            peak = max(series)
            knee = series.index(peak)
            for a, b in zip(series[:knee], series[1 : knee + 1]):
                assert b >= a * 0.98

    def test_saturated_below_theoretical_peak(self, tables):
        peaks = peak_table()
        for name in ("I", "II", "III", "IV"):
            assert tables.instruction.saturated(name) <= peaks[name] * 1.02

    def test_type_ii_saturates_near_six_warps(self, tables):
        # "the number of instruction pipeline stages is around 6"
        assert tables.instruction.saturation_warps("II", 0.9) in (4, 6, 8)

    def test_shared_needs_more_warps_than_type_ii(self, tables):
        # Paper Fig. 2: the shared pipeline is longer.
        shared_knee = tables.shared.saturation_warps(0.9)
        instr_knee = tables.instruction.saturation_warps("II", 0.9)
        assert shared_knee >= instr_knee

    def test_shared_saturated_fraction_of_peak(self, tables, gpu):
        fraction = tables.shared.saturated / gpu.spec.peak_shared_bandwidth
        assert 0.7 < fraction < 0.95  # paper: 1165/1420 = 82%


class TestGlobalSynthetic:
    def test_multiple_of_ten_blocks_beats_remainder(self, gpu):
        best = run_synthetic(30, 256, 64, gpu)
        worse = run_synthetic(31, 256, 64, gpu)
        assert best.bandwidth > worse.bandwidth

    def test_saturation_below_theoretical_peak(self, gpu):
        result = run_synthetic(60, 256, 128, gpu)
        assert result.bandwidth < gpu.spec.peak_global_bandwidth
        assert result.bandwidth > 0.6 * gpu.spec.peak_global_bandwidth

    def test_few_transactions_latency_bound(self, gpu):
        small = run_synthetic(10, 256, 2, gpu)
        big = run_synthetic(10, 256, 128, gpu)
        assert small.bandwidth < 0.6 * big.bandwidth

    def test_transaction_accounting(self, gpu):
        result = run_synthetic(10, 64, 16, gpu)
        assert result.transactions == 10 * 2 * 2 * 16
        assert result.useful_bytes == 10 * 64 * 16 * 4


class TestCalibrationTables:
    def test_json_roundtrip(self, tables, gpu):
        text = tables.to_json()
        again = CalibrationTables.from_json(text, gpu=gpu)
        assert again.instruction.throughput == tables.instruction.throughput
        assert again.shared.bandwidth == tables.shared.bandwidth

    def test_global_cache_persisted(self, tables, gpu):
        result = tables.global_benchmark(10, 64, 4)
        again = CalibrationTables.from_json(tables.to_json(), gpu=gpu)
        cached = again.global_benchmark(10, 64, 4)
        assert cached.seconds == result.seconds

    def test_global_benchmark_memoized(self, tables):
        first = tables.global_benchmark(20, 64, 4)
        second = tables.global_benchmark(20, 64, 4)
        assert first is second

    def test_malformed_json_rejected(self):
        with pytest.raises(CalibrationError):
            CalibrationTables.from_json("{}")

    def test_loaded_without_gpu_cannot_run_synthetics(self, tables):
        detached = CalibrationTables.from_json(tables.to_json())
        with pytest.raises(CalibrationError):
            detached.global_benchmark(99, 64, 4)


class TestDefaultTables:
    """``default_tables`` memoizes by content and follows the spec."""

    @pytest.fixture
    def cheap_calibration(self, monkeypatch):
        """A fresh memo, filled by short sweeps over the spec's grid."""
        from repro.micro import calibration

        real = calibration.calibrate
        calls = []

        def calibrate(gpu):
            calls.append(gpu.spec.name)
            return real(gpu, iterations=1)

        monkeypatch.setattr(calibration, "_DEFAULT_TABLES", {})
        monkeypatch.setattr(calibration, "calibrate", calibrate)
        return calls

    def test_fresh_gpus_share_one_tables_object(self, cheap_calibration):
        from repro.micro import default_tables

        first = default_tables(HardwareGpu())
        second = default_tables(HardwareGpu())
        assert first is second
        assert len(cheap_calibration) == 1

    def test_model_for_spec_calibrates_that_spec(self, cheap_calibration):
        from repro.arch.registry import get_spec
        from repro.micro.instruction import warp_counts_for
        from repro.model import PerformanceModel

        kepler = get_spec("kepler-like")
        model = PerformanceModel(spec=kepler)
        assert model.tables.instruction.warp_counts == warp_counts_for(kepler)
        assert model.tables.gpu.spec == kepler
        assert max(model.tables.instruction.warp_counts) > 32
