"""Jacobi stencil app: numerics, halo staging, engine dedup, and
grid-batched execution of its barrier stage -- in both boundary
layouts (ghost cells and guarded edge loads)."""

import pickle

import numpy as np
import pytest

from repro.apps.common import execute
from repro.apps.stencil import (
    build_stencil_kernel,
    prepare_problem,
    run_stencil,
    validate_stencil,
)
from repro.errors import LaunchError
from repro.sim import FunctionalSimulator
from repro.sim.engine import SimulationEngine, analyze_dependence


class TestNumerics:
    def test_matches_float32_reference_exactly(self):
        assert validate_stencil(n=256, block_threads=64) == 0.0

    def test_asymmetric_weights(self):
        err = validate_stencil(
            n=128, block_threads=32, weights=(0.1, 0.7, 0.2)
        )
        assert err == 0.0

    def test_indivisible_grid_rejected(self):
        with pytest.raises(LaunchError):
            prepare_problem(n=100, block_threads=64)


class TestTraceStructure:
    def test_two_stages_split_by_the_halo_barrier(self):
        run = run_stencil(n=256, block_threads=64, measure=False)
        assert run.trace.num_stages == 2

    def test_shared_traffic_reused_three_reads_per_point(self):
        run = run_stencil(n=256, block_threads=64, measure=False)
        totals = run.trace.totals
        blocks, warps_per_block = 256 // 64, 2
        # Warp-level counts: every warp issues the 3 compute-phase lds
        # and 1 staging sts; each block's two halo sts ride on the warp
        # holding the respective boundary thread.
        assert totals.instructions["lds"] == 3 * blocks * warps_per_block
        assert (
            totals.instructions["sts"]
            == blocks * warps_per_block + 2 * blocks
        )


class TestEngine:
    def test_dedups_to_single_probe_verified_class(self):
        problem = prepare_problem(n=64 * 12, block_threads=64)
        kernel = build_stencil_kernel(64)
        dependence = analyze_dependence(kernel)
        assert not dependence.data_dependent
        assert not dependence.block_in_control
        engine = SimulationEngine(kernel, gmem=problem.gmem)
        trace = engine.run(problem.launch())
        stats = trace.engine_stats
        assert stats.block_classes == 1
        assert stats.proved_classes == 1
        assert stats.simulated_blocks == 1
        assert trace.exact

    def test_grid_batch_bit_identical_to_oracle(self):
        kernel = build_stencil_kernel(32)
        launch = prepare_problem(n=32 * 7, block_threads=32).launch()
        blocks = launch.all_blocks()
        oracle = FunctionalSimulator(
            kernel,
            gmem=prepare_problem(n=32 * 7, block_threads=32).gmem,
            batched=False,
        )
        reference = [oracle.run_block(launch, block) for block in blocks]
        batched = FunctionalSimulator(
            kernel,
            gmem=prepare_problem(n=32 * 7, block_threads=32).gmem,
            batched=True,
        )
        got = batched.run_blocks(launch, blocks)
        for expected, actual in zip(reference, got):
            assert pickle.dumps(expected) == pickle.dumps(actual)


class TestGuardedVariant:
    """Satellite: no ghost cells; edge threads predicate their loads,
    so boundary-role partitioning is exercised by a real app."""

    def test_matches_float32_reference_exactly(self):
        assert validate_stencil(n=256, block_threads=64, guarded=True) == 0.0

    def test_small_blocks_and_asymmetric_weights(self):
        err = validate_stencil(
            n=128, block_threads=32, weights=(0.1, 0.7, 0.2), guarded=True
        )
        assert err == 0.0

    def test_differential_against_ghost_layout(self):
        # Same interior field, ghost cells pinned to the guarded
        # layout's implicit zero boundary: outputs must be bit-equal.
        n, t = 6 * 32, 32
        inner = np.random.default_rng(5).uniform(-1, 1, n)
        problems = {
            True: prepare_problem(n=n, block_threads=t, guarded=True, values=inner),
            False: prepare_problem(n=n, block_threads=t, values=inner),
        }
        for guarded, problem in problems.items():
            execute(
                name="diff",
                kernel=build_stencil_kernel(t, guarded),
                gmem=problem.gmem,
                launch=problem.launch(),
                sample_blocks=None,
                measure=False,
                engine=False,
            )
        assert np.array_equal(
            problems[True].result(), problems[False].result()
        )

    def test_dedups_into_boundary_role_classes(self):
        kernel = build_stencil_kernel(64, guarded=True)
        dependence = analyze_dependence(kernel)
        assert not dependence.data_dependent
        assert dependence.block_in_control  # ctaid guards the halo loads
        problem = prepare_problem(n=64 * 12, block_threads=64, guarded=True)
        trace = SimulationEngine(kernel, gmem=problem.gmem).run(
            problem.launch()
        )
        stats = trace.engine_stats
        assert stats.block_classes == 3  # first / interior / last
        assert stats.health.proof_fallbacks == 0
        assert trace.exact

    def test_grid_batch_bit_identical_to_oracle(self):
        kernel = build_stencil_kernel(32, guarded=True)
        launch = prepare_problem(
            n=32 * 7, block_threads=32, guarded=True
        ).launch()
        blocks = launch.all_blocks()
        oracle = FunctionalSimulator(
            kernel,
            gmem=prepare_problem(n=32 * 7, block_threads=32, guarded=True).gmem,
            batched=False,
        )
        reference = [oracle.run_block(launch, block) for block in blocks]
        batched = FunctionalSimulator(
            kernel,
            gmem=prepare_problem(n=32 * 7, block_threads=32, guarded=True).gmem,
            batched=True,
        )
        got = batched.run_blocks(launch, blocks)
        for expected, actual in zip(reference, got):
            assert pickle.dumps(expected) == pickle.dumps(actual)

    def test_values_length_checked(self):
        with pytest.raises(LaunchError):
            prepare_problem(n=64, block_threads=32, values=np.zeros(10))


class TestWorkflow:
    def test_measured_run_and_report(self):
        from repro.model.performance import PerformanceModel

        run = run_stencil(n=512, block_threads=64, model=PerformanceModel())
        assert run.measured is not None and run.measured.cycles > 0
        assert run.predicted_seconds > 0

    def test_guarded_measured_run(self):
        run = run_stencil(n=512, block_threads=64, guarded=True)
        assert run.measured is not None and run.measured.cycles > 0
