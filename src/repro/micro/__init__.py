"""Microbenchmarks: instruction pipeline, shared memory, global memory."""

from repro.micro.cache import (
    default_cache_dir,
    default_calibration_path,
    default_trace_cache_dir,
    load_or_calibrate,
    spec_fingerprint,
    start_load_or_calibrate,
)
from repro.micro.calibration import (
    CalibrationTables,
    calibrate,
    default_tables,
    start_calibrate,
)
from repro.micro.codegen import (
    buffer_words_for_stream,
    global_stream_benchmark,
    instruction_benchmark,
    shared_copy_benchmark,
)
from repro.micro.globalmem import (
    FIG3_CONFIGS,
    GlobalBenchmarkResult,
    run_synthetic,
    sweep_blocks,
)
from repro.micro.instruction import (
    DEFAULT_WARP_COUNTS,
    InstructionThroughputTable,
    measure_instruction_throughput,
    peak_table,
)
from repro.micro.runner import (
    blocks_for_warps,
    single_warp_stream,
    sm_resident_blocks,
    synthetic_block,
)
from repro.micro.shared import (
    SHARED_TRANSACTION_BYTES,
    SharedBandwidthTable,
    measure_shared_bandwidth,
)

__all__ = [
    "CalibrationTables",
    "DEFAULT_WARP_COUNTS",
    "FIG3_CONFIGS",
    "GlobalBenchmarkResult",
    "InstructionThroughputTable",
    "SHARED_TRANSACTION_BYTES",
    "SharedBandwidthTable",
    "blocks_for_warps",
    "buffer_words_for_stream",
    "calibrate",
    "default_cache_dir",
    "default_calibration_path",
    "default_tables",
    "default_trace_cache_dir",
    "global_stream_benchmark",
    "load_or_calibrate",
    "spec_fingerprint",
    "instruction_benchmark",
    "measure_instruction_throughput",
    "measure_shared_bandwidth",
    "peak_table",
    "run_synthetic",
    "shared_copy_benchmark",
    "single_warp_stream",
    "sm_resident_blocks",
    "start_calibrate",
    "start_load_or_calibrate",
    "sweep_blocks",
    "synthetic_block",
]
