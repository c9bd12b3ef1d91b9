"""Tree-reduction app: numerics, stage structure, engine dedup, and
grid-batched execution of its per-level barriers."""

import pickle

import pytest

from repro.apps.reduction import (
    build_reduction_kernel,
    prepare_problem,
    reduction_stage_count,
    run_reduction,
    validate_reduction,
)
from repro.errors import LaunchError
from repro.sim import FunctionalSimulator
from repro.sim.engine import SimulationEngine, analyze_dependence


class TestNumerics:
    def test_matches_float32_pairwise_reference_exactly(self):
        assert validate_reduction(block_threads=128, num_blocks=8) == 0.0

    def test_small_blocks(self):
        assert validate_reduction(block_threads=32, num_blocks=3) == 0.0

    def test_non_power_of_two_rejected(self):
        with pytest.raises(LaunchError):
            build_reduction_kernel(96)


class TestTraceStructure:
    def test_stage_count(self):
        run = run_reduction(block_threads=128, num_blocks=4, measure=False)
        assert run.trace.num_stages == reduction_stage_count(128) == 9

    def test_active_warps_halve_per_level(self):
        run = run_reduction(block_threads=128, num_blocks=4, measure=False)
        # Load stage uses all 4 warps; level h=64 uses 2; every later
        # level (and the final store) runs at single-warp parallelism.
        assert [s.active_warps for s in run.trace.stages] == [
            4, 2, 1, 1, 1, 1, 1, 1, 1,
        ]

    def test_barrier_count_in_mix(self):
        run = run_reduction(block_threads=64, num_blocks=2, measure=False)
        # One bar after the load plus one per level, per warp, per block.
        warps = 2
        blocks = 2
        bars = (1 + 6) * warps * blocks
        assert run.trace.totals.instructions["bar"] == bars


class TestEngine:
    def test_dedups_to_single_probe_verified_class(self):
        problem = prepare_problem(64, 16)
        kernel = build_reduction_kernel(64)
        dependence = analyze_dependence(kernel)
        assert not dependence.data_dependent
        assert not dependence.block_in_control
        engine = SimulationEngine(kernel, gmem=problem.gmem)
        trace = engine.run(problem.launch())
        stats = trace.engine_stats
        assert stats.block_classes == 1
        assert stats.proved_classes == 1
        assert stats.simulated_blocks == 1  # the representative only
        assert trace.exact

    def test_grid_batch_bit_identical_to_oracle(self):
        kernel = build_reduction_kernel(64)
        launch = prepare_problem(64, 10).launch()
        blocks = launch.all_blocks()
        oracle = FunctionalSimulator(
            kernel, gmem=prepare_problem(64, 10).gmem, batched=False
        )
        reference = [oracle.run_block(launch, block) for block in blocks]
        batched = FunctionalSimulator(
            kernel, gmem=prepare_problem(64, 10).gmem, batched=True
        )
        got = batched.run_blocks(launch, blocks)
        for expected, actual in zip(reference, got):
            assert pickle.dumps(expected) == pickle.dumps(actual)


class TestWorkflow:
    def test_measured_run_and_report(self):
        from repro.model.performance import PerformanceModel

        run = run_reduction(
            block_threads=64, num_blocks=8, model=PerformanceModel()
        )
        assert run.measured is not None and run.measured.cycles > 0
        assert run.predicted_seconds > 0
