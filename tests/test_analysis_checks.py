"""Mutation tests: seed each bug class, assert the exact diagnostic.

Each test copies a shipped kernel, surgically plants one bug via
``dataclasses.replace`` (kernels are frozen dataclasses), and asserts
the checker names that bug and no other error.  A final test pins the
whole zoo to a clean bill of health.
"""

from dataclasses import replace

from repro.analysis.checks import check_kernel
from repro.analysis.report import BUILTIN_KERNELS, analysis_case, analyze_kernels
from repro.isa import Instruction, Opcode, Reg
from repro.isa.instructions import MemRef


def insert_instruction(kernel, index, instr, extra_registers=0):
    """A copy of ``kernel`` with ``instr`` planted at ``index``."""
    instructions = list(kernel.instructions)
    instructions.insert(index, instr)
    labels = {
        name: pos + 1 if pos >= index else pos
        for name, pos in kernel.labels.items()
    }
    return replace(
        kernel,
        instructions=tuple(instructions),
        labels=labels,
        num_registers=kernel.num_registers + extra_registers,
    )


def codes(diagnostics, severity=None):
    return [
        d.code
        for d in diagnostics
        if severity is None or d.severity == severity
    ]


class TestSeededSharedRace:
    def test_colliding_halo_store_is_flagged(self):
        # Stencil's left-halo store (thread 0 only) normally writes
        # word 0.  Redirect it onto word 33 -- the word thread 32
        # (warp 1) fills with its center store in the same barrier
        # interval: a cross-warp write-write race.
        case = analysis_case("stencil")
        kernel = case.kernel
        halo = kernel.instructions[8]  # sts s[r7], r9 after the tid==0 branch
        assert isinstance(halo.dst, MemRef) and halo.dst.space == "shared"
        mutated = replace(
            kernel,
            instructions=tuple(
                replace(ins, dst=replace(ins.dst, offset=33 * 4))
                if i == 8
                else ins
                for i, ins in enumerate(kernel.instructions)
            ),
        )
        diagnostics = check_kernel(mutated, case.launch, case.gmem)
        assert "shared-race" in codes(diagnostics, "error")
        race = next(d for d in diagnostics if d.code == "shared-race")
        assert race.index in (4, 8)  # anchored at one of the two stores


class TestSeededGlobalOob:
    def test_store_past_allocation_is_flagged(self):
        # Push matmul's last C-tile store 10 MB past every allocation.
        case = analysis_case("matmul")
        kernel = case.kernel
        last_store = max(
            i
            for i, ins in enumerate(kernel.instructions)
            if isinstance(ins.dst, MemRef) and ins.dst.space == "global"
        )
        mutated = replace(
            kernel,
            instructions=tuple(
                replace(ins, dst=replace(ins.dst, offset=ins.dst.offset + 10 * 2**20))
                if i == last_store
                else ins
                for i, ins in enumerate(kernel.instructions)
            ),
        )
        diagnostics = check_kernel(mutated, case.launch, case.gmem)
        oob = [d for d in diagnostics if d.code == "global-oob"]
        assert oob and oob[0].severity == "error"
        assert oob[0].index == last_store


class TestSeededSharedOob:
    def test_halo_store_one_word_past_the_footprint_is_flagged(self):
        # Stencil's right-halo store (thread 63 only) writes word 65,
        # the last of the 66-word footprint.  Shift it by one word: the
        # store lands on byte 264, and the interpreter would raise
        # there, after the evidence recorded the access.
        case = analysis_case("stencil")
        kernel = case.kernel
        halo = kernel.instructions[12]  # sts s[r7+0x8], r9
        assert isinstance(halo.dst, MemRef) and halo.dst.space == "shared"
        assert kernel.shared_memory_words == 66
        mutated = replace(
            kernel,
            instructions=tuple(
                replace(ins, dst=replace(ins.dst, offset=ins.dst.offset + 4))
                if i == 12
                else ins
                for i, ins in enumerate(kernel.instructions)
            ),
        )
        diagnostics = check_kernel(mutated, case.launch, case.gmem)
        assert codes(diagnostics, "error") == ["shared-oob"]
        (oob,) = [d for d in diagnostics if d.code == "shared-oob"]
        assert oob.index == 12
        assert "byte 264 outside [0, 264)" in oob.message


class TestCheckerLeavesMemory:
    def test_global_memory_is_unchanged(self):
        # The anchors' stores execute, on a copy of the caller's arena.
        case = analysis_case("matmul")
        before = case.gmem.digest()
        check_kernel(case.kernel, case.launch, case.gmem)
        assert case.gmem.digest() == before


class TestSeededDivergentBarrier:
    def test_barrier_under_thread_guard_is_flagged(self):
        # Scan's tid<16 reduction body runs on half of warp 0; a
        # barrier planted inside it is reached divergent.
        case = analysis_case("scan")
        kernel = case.kernel
        # Index 21 is the `@!p1 bra SKIP3` guarding the tid<16 body.
        guard_branch = kernel.instructions[21]
        assert guard_branch.opcode is Opcode.BRA
        mutated = insert_instruction(kernel, 26, Instruction(Opcode.BAR))
        diagnostics = check_kernel(mutated, case.launch, case.gmem)
        divergent = [d for d in diagnostics if d.code == "barrier-divergence"]
        assert divergent and divergent[0].severity == "error"
        assert divergent[0].index == 26


class TestSeededUninitRead:
    def test_read_before_any_write_is_flagged(self):
        case = analysis_case("matmul")
        kernel = case.kernel
        fresh = kernel.num_registers
        mutated = insert_instruction(
            kernel,
            0,
            Instruction(Opcode.FADD, dst=Reg(fresh), srcs=(Reg(fresh), Reg(fresh))),
            extra_registers=1,
        )
        diagnostics = check_kernel(mutated, case.launch, case.gmem)
        uninit = [d for d in diagnostics if d.code == "uninit-read"]
        assert uninit and uninit[0].severity == "warning"
        assert uninit[0].index == 0
        assert f"%r{fresh}" in uninit[0].message

    def test_clobbered_unread_write_is_a_dead_store(self):
        from repro.isa import Imm

        case = analysis_case("stencil")
        kernel = case.kernel
        fresh = kernel.num_registers
        mutated = insert_instruction(
            kernel,
            0,
            Instruction(Opcode.MOV, dst=Reg(fresh), srcs=(Imm(1.0),)),
            extra_registers=1,
        )
        mutated = insert_instruction(
            mutated, 1, Instruction(Opcode.MOV, dst=Reg(fresh), srcs=(Imm(2.0),))
        )
        diagnostics = check_kernel(mutated, case.launch, case.gmem)
        dead = [d for d in diagnostics if d.code == "dead-store"]
        assert dead and dead[0].severity == "warning"
        assert dead[0].index == 0


class TestShippedKernelsClean:
    def test_zoo_has_no_errors_or_warnings(self):
        reports = analyze_kernels(sorted(BUILTIN_KERNELS))
        for report in reports:
            assert report.count("error") == 0, report.name
            assert report.count("warning") == 0, report.name

    def test_affine_verdicts(self):
        verdicts = {r.name: r.affine for r in analyze_kernels()}
        assert verdicts == {
            name: name != "spmv" for name in BUILTIN_KERNELS
        }
        assert sum(verdicts.values()) == 7

    def test_data_dependent_spmv_reports_info_only(self):
        (report,) = analyze_kernels(["spmv"])
        assert report.clean
        assert {d.code for d in report.diagnostics} == {"data-addresses"}
