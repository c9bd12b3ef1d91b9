"""Class boxes and the evidence recorded while a class anchor runs."""

import numpy as np

from repro.analysis.affine import ClassBox, trace_block_class
from repro.isa import Imm, KernelBuilder
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory


def _linear_store_kernel():
    """out[ctaid_x*ntid + tid] = 1.0 -- the canonical affine kernel."""
    b = KernelBuilder("linear", params=("out",))
    gid = b.reg()
    b.imad(gid, b.ctaid_x, b.ntid, b.tid)
    addr = b.reg()
    b.imad(addr, gid, Imm(4), b.param("out"))
    v = b.reg()
    b.mov(v, Imm(1.0))
    b.stg(addr, v)
    b.exit()
    return b.build()


class TestClassBox:
    def test_rectangle_roundtrip(self):
        members = [(x, y) for x in range(2, 5) for y in range(1, 3)]
        box = ClassBox.from_members(members)
        assert box == ClassBox(2, 4, 1, 2)
        assert box.count == 6
        assert box.anchor == (2, 1)

    def test_non_rectangle_is_rejected(self):
        assert ClassBox.from_members([(0, 0), (1, 1)]) is None

    def test_extremes_at_corners(self):
        box = ClassBox(0, 3, 0, 2)
        sx = np.array([4.0, -4.0])
        sy = np.array([0.0, 8.0])
        lo, hi = box.extremes(sx, sy)
        assert lo.tolist() == [0.0, -12.0]
        assert hi.tolist() == [12.0, 16.0]


class TestClassTracer:
    def _launch(self, gmem, n_blocks=4, threads=32):
        out = gmem.alloc(4 * n_blocks * threads, "out")
        return LaunchConfig(
            grid=(n_blocks, 1), block_threads=threads, params={"out": out}
        )

    def test_linear_store_strides(self):
        kernel = _linear_store_kernel()
        gmem = GlobalMemory()
        launch = self._launch(gmem)
        trace = trace_block_class(kernel, launch, ClassBox(0, 3, 0, 0), gmem)
        assert trace.complete
        (access,) = trace.global_accesses
        assert access.store
        assert not access.unknown
        # One word per lane, tid-major; ctaid_x advances by 32 elements.
        assert (np.diff(access.addresses) == 4).all()
        assert (access.stride_x == 128).all()
        assert (access.stride_y == 0).all()

    def test_uniform_guard_stays_quiet(self):
        b = KernelBuilder("guarded", params=("out",))
        p = b.pred()
        b.isetp(p, "lt", b.tid, Imm(16))
        addr = b.reg()
        b.imad(addr, b.tid, Imm(4), b.param("out"))
        v = b.reg()
        b.mov(v, Imm(1.0))
        with b.if_then(p):
            b.stg(addr, v)
        b.exit()
        kernel = b.build()
        gmem = GlobalMemory()
        launch = self._launch(gmem)
        trace = trace_block_class(kernel, launch, ClassBox(0, 3, 0, 0), gmem)
        assert trace.complete
        assert trace.nonuniform_control == []

    def test_block_dependent_guard_is_nonuniform(self):
        b = KernelBuilder("tail", params=("out", "n"))
        gid = b.reg()
        b.imad(gid, b.ctaid_x, b.ntid, b.tid)
        p = b.pred()
        b.isetp(p, "lt", gid, b.param("n"))
        addr = b.reg()
        b.imad(addr, gid, Imm(4), b.param("out"))
        v = b.reg()
        b.mov(v, Imm(1.0))
        with b.if_then(p):
            b.stg(addr, v)
        b.exit()
        kernel = b.build()
        gmem = GlobalMemory()
        out = gmem.alloc(4 * 128, "out")
        launch = LaunchConfig(
            grid=(4, 1), block_threads=32, params={"out": out, "n": 100}
        )
        # The cutoff (100) falls strictly inside the 4-block box.
        trace = trace_block_class(kernel, launch, ClassBox(0, 3, 0, 0), gmem)
        assert trace.nonuniform_control

    def test_degenerate_box_matches_concrete_execution(self):
        kernel = _linear_store_kernel()
        gmem = GlobalMemory()
        launch = self._launch(gmem)
        trace = trace_block_class(kernel, launch, ClassBox(2, 2, 0, 0), gmem)
        (access,) = trace.global_accesses
        base = launch.params["out"]
        assert access.addresses[0] == base + 2 * 32 * 4


class TestRecordingIsInvisible:
    def test_block_trace_is_unchanged_by_a_box(self):
        import pickle

        from repro.analysis.affine import ClassTrace
        from repro.analysis.report import analysis_case
        from repro.sim.functional import FunctionalSimulator

        case = analysis_case("matmul")
        anchor = (0, 0)
        plain = FunctionalSimulator(case.kernel, gmem=case.gmem.copy())
        recorded = FunctionalSimulator(case.kernel, gmem=case.gmem.copy())
        evidence = {anchor: ClassTrace(case.kernel.name, ClassBox(0, 1, 0, 7))}
        (expected,) = plain.run_blocks(case.launch, [anchor])
        (got,) = recorded.run_blocks(case.launch, [anchor], evidence)
        assert pickle.dumps(got) == pickle.dumps(expected)
        assert evidence[anchor].complete
        assert evidence[anchor].global_accesses

    def test_unrecorded_trace_is_incomplete(self):
        from repro.analysis.affine import ClassTrace
        from repro.analysis.dedup_proof import prove_class_evidence

        trace = ClassTrace("k", ClassBox(0, 3, 0, 0))
        assert not trace.complete
        gmem = GlobalMemory()
        launch = LaunchConfig(grid=(4, 1), block_threads=32)
        assert not prove_class_evidence(trace, launch, gmem).proved

    def test_runaway_warp_stops_the_evidence(self):
        b = KernelBuilder("spin", params=("out",))
        v = b.reg()
        b.mov(v, Imm(1.0))
        top = b.label()
        b.fadd(v, v, v)
        b.bra(top)
        b.exit()
        kernel = b.build()
        gmem = GlobalMemory()
        launch = LaunchConfig(
            grid=(4, 1), block_threads=32, params={"out": gmem.alloc(32)}
        )
        trace = trace_block_class(
            kernel,
            launch,
            ClassBox(0, 3, 0, 0),
            gmem,
            max_warp_instructions=1000,
        )
        # The 1001st issue is the 500th branch: the interpreter raises
        # before it runs, so the evidence ends at the 500th fadd.
        index, code, _ = trace.incomplete
        assert (index, code) == (1, "runaway")
        assert trace.register_writes[1] == 32 * 500
