"""Dedup soundness proof: one-representative runs, differential traces,
audits."""

import pytest

from repro.analysis.dedup_proof import prove_block_class
from repro.analysis.report import analysis_case
from repro.isa import Imm, KernelBuilder
from repro.sim.engine import (
    BlockClass,
    SimulationEngine,
    analyze_dependence,
    partition_blocks,
)
from repro.sim.functional import FunctionalSimulator, LaunchConfig
from repro.sim.memory import GlobalMemory

AFFINE_KERNELS = (
    "matmul",
    "scan",
    "stencil",
    "stencil_guarded",
    "reduction",
    "tridiag",
    "tridiag_nbc",
)


class TestProofCoverage:
    @pytest.mark.parametrize("name", AFFINE_KERNELS)
    def test_every_affine_class_proves(self, name):
        case = analysis_case(name)
        dependence = analyze_dependence(case.kernel)
        classes = partition_blocks(case.launch, dependence)
        for cls in classes:
            result = prove_block_class(
                case.kernel, case.launch, cls.members, case.gmem
            )
            assert result.proved, (name, result.reason)

    @pytest.mark.parametrize("name", AFFINE_KERNELS)
    def test_engine_skips_all_probes(self, name):
        case = analysis_case(name)
        engine = SimulationEngine(case.kernel, gmem=case.gmem)
        trace = engine.run(case.launch)
        stats = trace.engine_stats
        # Every multi-member class proved: exactly one simulation per
        # class, zero fallbacks.
        assert stats.simulated_blocks == stats.block_classes
        assert stats.health.proof_fallbacks == 0
        multi = sum(
            1
            for cls in partition_blocks(
                case.launch, analyze_dependence(case.kernel)
            )
            if len(cls.members) > 1
        )
        assert stats.proved_classes == multi

    def test_data_dependent_spmv_is_all_singletons(self):
        case = analysis_case("spmv")
        engine = SimulationEngine(case.kernel, gmem=case.gmem)
        stats = engine.run(case.launch).engine_stats
        assert stats.proved_classes == 0
        assert stats.simulated_blocks == stats.total_blocks


def _refuse_every_class(monkeypatch):
    """Make the engine simulate every block, as without a proof."""
    import repro.analysis.dedup_proof as dedup_proof

    monkeypatch.setattr(
        dedup_proof,
        "prove_class_evidence",
        lambda *a, **k: dedup_proof.ProofResult(False, "refused by test"),
    )


def _run_engine(case):
    """What a proved and a refused run must agree on, plus the stats.

    A refused class keeps each member's own ``BlockTrace`` (with its
    block coordinates and footprints), so whole pickles differ; the
    statistics and every block's event streams must not.
    """
    trace = SimulationEngine(case.kernel, gmem=case.gmem).run(case.launch)
    per_block = trace.block_traces
    if len(per_block) == 1:  # homogeneous grid: one shared representative
        per_block = per_block * case.launch.num_blocks
    assert len(per_block) == case.launch.num_blocks
    outputs = (
        [stage.canonical() for stage in trace.stages],
        trace.exact,
        [block.stream_digest() for block in per_block],
    )
    return outputs, trace.engine_stats


class TestDifferentialProofVsProbe:
    @pytest.mark.parametrize("name", AFFINE_KERNELS + ("spmv",))
    def test_traces_are_pickle_identical(self, name, monkeypatch):
        case = analysis_case(name)
        proof, proof_stats = _run_engine(case)
        _refuse_every_class(monkeypatch)
        refused, refused_stats = _run_engine(analysis_case(name))
        assert proof == refused
        assert refused_stats.proved_classes == 0
        assert refused_stats.simulated_blocks == refused_stats.total_blocks
        assert (
            refused_stats.health.proof_fallbacks
            == proof_stats.proved_classes
        )


class TestPooledEvidence:
    def test_pooled_chunks_return_their_evidence(self, engine_proofs):
        # One block per slab: the three class representatives of the
        # guarded stencil become three pool tasks (a lone task would
        # run in-process), and each chunk's evidence must come back
        # with its traces for the proof to see it.
        def run(**engine_kwargs):
            case = analysis_case("stencil_guarded")
            return engine_proofs(
                case.kernel, case.launch, case.gmem, **engine_kwargs
            )

        serial, serial_proofs = run()
        pooled, pooled_proofs = run(workers=2, grid_batch_blocks=1)
        assert pooled_proofs == serial_proofs
        assert [r.proved for r in pooled_proofs.values()] == [True]
        assert pooled_proofs[(1, 0)].checked_accesses > 0
        stats = pooled.engine_stats
        assert stats.workers == 2
        assert stats.proved_classes == serial.engine_stats.proved_classes == 1
        assert stats.health.proof_fallbacks == 0
        assert [s.canonical() for s in pooled.stages] == [
            s.canonical() for s in serial.stages
        ]


class TestProofAudit:
    @pytest.mark.parametrize("name", AFFINE_KERNELS)
    def test_proved_class_verifiers_match_representative(self, name):
        # The engine simulates only the representative of a proved
        # class; simulate every member here and check that each
        # certified class really is uniform.
        case = analysis_case(name)
        simulator = FunctionalSimulator(case.kernel, gmem=case.gmem)
        classes = partition_blocks(case.launch, analyze_dependence(case.kernel))
        audited = 0
        for cls in classes:
            if len(cls.members) < 2 or not prove_block_class(
                case.kernel, case.launch, cls.members, case.gmem
            ).proved:
                continue
            traces = simulator.run_blocks(case.launch, cls.members)
            keys = [trace.stats_key() for trace in traces]
            mismatched = [
                member
                for member, key in zip(cls.members, keys)
                if key != keys[0]
            ]
            assert not mismatched, (cls.representative, mismatched)
            audited += 1
        assert audited


class TestProofProbeContradiction:
    def _parity_kernel(self, gmem):
        # Work depends on ctaid parity: any single-class claim over the
        # interior is wrong, and an honest prover refuses it.
        out = gmem.alloc(32 * 4, "out")
        b = KernelBuilder("parity", params=("out",))
        even = b.reg()
        b.iand(even, b.ctaid_x, Imm(1))
        p = b.pred()
        b.isetp(p, "eq", even, Imm(0))
        v = b.reg()
        b.mov(v, Imm(1.0))
        with b.if_then(p):
            b.fadd(v, v, v)
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        b.stg(addr, v)
        b.exit()
        return b.build(), {"out": out}

    def test_honest_prover_refuses_parity_kernel(self):
        gmem = GlobalMemory()
        kernel, params = self._parity_kernel(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        classes = partition_blocks(launch, analyze_dependence(kernel))
        interior = next(c for c in classes if len(c.members) > 1)
        result = prove_block_class(kernel, launch, interior.members, gmem)
        assert not result.proved

    def test_refused_class_simulates_every_member(self):
        gmem = GlobalMemory()
        kernel, params = self._parity_kernel(gmem)
        launch = LaunchConfig(grid=(10, 1), block_threads=32, params=params)
        engine = SimulationEngine(kernel, gmem=gmem)
        trace = engine.run(launch)
        stats = trace.engine_stats
        assert stats.proved_classes == 0
        assert stats.health.proof_fallbacks == 1
        assert stats.simulated_blocks == launch.num_blocks
        assert stats.replicated_blocks == 0
        # Each block is backed by its own trace, not a stand-in.
        assert [t.block for t in trace.block_traces] == launch.all_blocks()


class TestMemberOrderDeterminism:
    def test_members_are_canonically_sorted(self):
        shuffled = [(7, 0), (1, 0), (4, 0), (0, 0), (3, 0), (6, 0), (2, 0), (5, 0)]
        cls = BlockClass(shuffled)
        assert cls.members == sorted(shuffled)
        assert cls.representative == (0, 0)

    def test_probe_picks_survive_reordering(self):
        members = [(x, y) for y in range(2) for x in range(3)]
        forward = BlockClass(list(members))
        backward = BlockClass(list(reversed(members)))
        assert forward.members == backward.members
        assert forward.representative == backward.representative


class TestContainment:
    """Every shifted access must stay in the anchor's allocation; the
    refusal names the first lane that leaves it."""

    MEMBERS = [(x, 0) for x in range(4)]

    def _prove(self, words, block_stride):
        gmem = GlobalMemory()
        gmem.alloc(8, "before")
        out = gmem.alloc(words, "out")
        gmem.alloc(8, "after")
        b = KernelBuilder("store", params=("out",))
        v = b.reg()
        b.mov(v, Imm(1.0))
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        b.imad(addr, b.ctaid_x, Imm(block_stride), addr)
        b.stg(addr, v)
        b.exit()
        launch = LaunchConfig(grid=(4, 1), block_threads=32, params={"out": out})
        return prove_block_class(b.build(), launch, self.MEMBERS, gmem), out

    def test_in_bounds_shift_proves(self):
        result, _ = self._prove(words=32 * 4, block_stride=128)
        assert result.proved, result.reason

    def test_first_escaping_lane_is_reported(self):
        # 448 bytes hold lanes 0-15 shifted by up to 3 * 128 bytes.
        result, out = self._prove(words=112, block_stride=128)
        assert not result.proved
        assert result.reason.endswith(
            f"shifted access range [{out + 64}, {out + 452}) "
            "escapes allocation 'out'"
        )

    def test_anchor_address_in_alignment_gap(self):
        # Five words: lanes 5-31 store into the gap before 'after'.
        result, out = self._prove(words=5, block_stride=0)
        assert not result.proved
        assert result.reason.endswith(
            f"anchor address {out + 20} is outside every allocation"
        )

    def test_earlier_escape_wins_over_later_gap(self):
        result, out = self._prove(words=5, block_stride=128)
        assert result.reason.endswith(
            f"shifted access range [{out}, {out + 388}) escapes allocation 'out'"
        )
