"""Blelloch scan app: numerics (f32/i32), per-level barrier structure,
heterogeneous engine dedup (boundary roles + tail guard), and
grid-batched execution."""

import pickle

import numpy as np
import pytest

from repro.apps.scan import (
    build_scan_kernel,
    prepare_problem,
    run_scan,
    scan_stage_count,
    validate_scan,
)
from repro.errors import LaunchError
from repro.sim import FunctionalSimulator
from repro.sim.engine import SimulationEngine, analyze_dependence


class TestNumerics:
    def test_f32_matches_blelloch_reference_exactly(self):
        assert validate_scan(n=500, block_threads=64, dtype="f32") == 0.0

    def test_i32_matches_integer_reference_exactly(self):
        assert validate_scan(n=300, block_threads=32, dtype="i32") == 0.0

    def test_full_blocks_no_tail(self):
        assert validate_scan(n=4 * 64, block_threads=64, dtype="f32") == 0.0

    def test_single_block(self):
        assert validate_scan(n=40, block_threads=64, dtype="f32") == 0.0

    def test_exclusive_semantics(self):
        problem = prepare_problem(n=64, block_threads=64, dtype="i32")
        reference = problem.reference()
        assert reference[0] == 0.0
        assert reference[3] == float(np.sum(problem.data[:3]))

    def test_non_power_of_two_block_rejected(self):
        with pytest.raises(LaunchError):
            build_scan_kernel(block_threads=48)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(LaunchError):
            build_scan_kernel(dtype="f64")


class TestTraceStructure:
    def test_stage_count_from_per_level_barriers(self):
        run = run_scan(n=256, block_threads=64, measure=False)
        assert run.trace.num_stages == scan_stage_count(64) == 15


class TestEngine:
    """The ROADMAP's 'genuinely heterogeneous classes' scenario."""

    def test_dedups_into_boundary_role_classes(self):
        # 12 blocks, tail cutoff inside the last one: the guard routes
        # ctaid into control flow, so the engine must refuse
        # single-class dedup and partition by boundary role.
        n = 64 * 12 - 17
        problem = prepare_problem(n=n, block_threads=64)
        kernel = build_scan_kernel(64)
        dependence = analyze_dependence(kernel)
        assert not dependence.data_dependent
        assert dependence.block_in_control
        engine = SimulationEngine(kernel, gmem=problem.gmem)
        trace = engine.run(problem.launch())
        stats = trace.engine_stats
        assert stats.block_classes > 1
        assert stats.block_classes == 3  # first / interior / last
        assert stats.health.proof_fallbacks == 0  # every class proved
        assert stats.simulated_blocks < stats.total_blocks
        assert trace.exact

    def test_dedup_aggregates_match_serial_full_grid(self):
        n = 64 * 9 - 5
        kernel = build_scan_kernel(64)
        serial = FunctionalSimulator(
            kernel, gmem=prepare_problem(n=n, block_threads=64).gmem
        ).run(prepare_problem(n=n, block_threads=64).launch())
        problem = prepare_problem(n=n, block_threads=64)
        fast = SimulationEngine(kernel, gmem=problem.gmem).run(
            problem.launch()
        )
        assert [s.canonical() for s in serial.stages] == [
            s.canonical() for s in fast.stages
        ]

    def test_grid_batch_bit_identical_to_oracle(self):
        n = 32 * 7 - 9
        kernel = build_scan_kernel(32)
        launch = prepare_problem(n=n, block_threads=32).launch()
        blocks = launch.all_blocks()
        oracle = FunctionalSimulator(
            kernel,
            gmem=prepare_problem(n=n, block_threads=32).gmem,
            batched=False,
        )
        reference = [oracle.run_block(launch, block) for block in blocks]
        batched = FunctionalSimulator(
            kernel,
            gmem=prepare_problem(n=n, block_threads=32).gmem,
            batched=True,
            grid_batch_blocks=3,  # ragged slabs across the role classes
        )
        got = batched.run_blocks(launch, blocks)
        for expected, actual in zip(reference, got):
            assert pickle.dumps(expected) == pickle.dumps(actual)


class TestWorkflow:
    def test_measured_run_and_report(self):
        from repro.model.performance import PerformanceModel

        run = run_scan(n=512, block_threads=64, model=PerformanceModel())
        assert run.measured is not None and run.measured.cycles > 0
        assert run.predicted_seconds > 0
