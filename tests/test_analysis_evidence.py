"""Golden evidence: what the dedup proof and the checker read, pinned.

``tests/data/class_evidence.json`` holds, for every boundary-role class
of the ``repro analyze`` zoo (the classes the checker runs), a digest of
each :class:`~repro.analysis.affine.ClassTrace` field, and the
:class:`~repro.analysis.dedup_proof.ProofResult` of every engine class
of the zoo, of the paper cases at n = 512 and of three kernels the
proof must refuse.

Addresses and strides of an access marked ``unknown`` are left out of
the digest: some lane's address depends on loaded data, so its anchor
value is whatever that data was, and both consumers skip such accesses
(the proof refuses the class, the checker reports ``data-addresses``).

Print the current values with
``PYTHONPATH=src python tests/test_analysis_evidence.py``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.affine import ClassBox, trace_block_class
from repro.analysis.dedup_proof import prove_block_class
from repro.analysis.report import BUILTIN_KERNELS, analysis_case
from repro.apps import matmul, tridiag
from repro.isa import Imm, KernelBuilder
from repro.sim.engine import TAINT_BLOCK, analyze_dependence, partition_blocks
from repro.sim.functional import LaunchConfig
from repro.sim.memory import GlobalMemory

GOLDEN = Path(__file__).parent / "data" / "class_evidence.json"


# ----------------------------------------------------------------------
# digests
# ----------------------------------------------------------------------
def _update(h, array) -> None:
    h.update(np.ascontiguousarray(array, dtype=np.int64).tobytes())
    h.update(b"|")


def _accesses(accesses, head) -> dict:
    h = hashlib.sha256()
    for access in accesses:
        h.update(repr([getattr(access, name) for name in head]).encode())
        _update(h, access.lanes)
        if not access.unknown:
            _update(h, access.addresses)
            for name in ("stride_x", "stride_y"):
                if hasattr(access, name):
                    _update(h, getattr(access, name))
    return {"count": len(accesses), "sha256": h.hexdigest()}


def _plain(value):
    """JSON-stable form: tuples become lists, dict keys strings."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


def evidence_digest(trace) -> dict:
    box = trace.box
    return {
        "box": [box.x0, box.x1, box.y0, box.y1],
        "global_accesses": _accesses(
            trace.global_accesses, ("index", "warp", "store", "unknown")
        ),
        "shared_accesses": _accesses(
            trace.shared_accesses,
            ("stage", "index", "warp", "kind", "strided", "unknown"),
        ),
        "stages": trace.stages,
        "nonuniform_control": _plain(trace.nonuniform_control),
        "shared_strided": _plain(trace.shared_strided),
        "divergent_barrier": _plain(trace.divergent_barrier),
        "incomplete": _plain(trace.incomplete),
        "uninit_reads": _plain(trace.uninit_reads),
        "register_writes": _plain(trace.register_writes),
        "clobbered_writes": _plain(trace.clobbered_writes),
    }


def proof_digest(result) -> dict:
    return {
        "proved": result.proved,
        "reason": result.reason,
        "checked_accesses": result.checked_accesses,
    }


# ----------------------------------------------------------------------
# cases
# ----------------------------------------------------------------------
def role_classes(kernel, launch):
    """The checker's classes: block roles only, never data taint."""
    dependence = analyze_dependence(kernel)
    roles = replace(
        dependence,
        control=dependence.control & TAINT_BLOCK,
        shared_addr=dependence.shared_addr & TAINT_BLOCK,
        global_addr=dependence.global_addr & TAINT_BLOCK,
    )
    return partition_blocks(launch, roles)


def _paper_matmul(tile):
    problem = matmul.prepare_problem(512, tile)
    return matmul.build_matmul_kernel(512, tile), problem.launch(), problem.gmem


def _paper_cr(padded):
    problem = tridiag.prepare_problem(512, 512)
    return tridiag.build_cr_kernel(512, padded), problem.launch(), problem.gmem


def _parity():
    gmem = GlobalMemory()
    out = gmem.alloc(32, "out")
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
    launch = LaunchConfig(grid=(10, 1), block_threads=32, params={"out": out})
    return b.build(), launch, gmem


def _tail_guard():
    gmem = GlobalMemory()
    n = 432
    buf = gmem.alloc(n + 64, "buf")
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
        b.fadd(v, v, Imm(1.0))
        b.stg(addr, v)
    b.exit()
    launch = LaunchConfig(
        grid=(16, 1), block_threads=32, params={"buf": buf, "n": n}
    )
    return b.build(), launch, gmem


def _outlier():
    gmem = GlobalMemory()
    out = gmem.alloc(32, "out")
    b = KernelBuilder("outlier", params=("out",))
    p = b.pred()
    b.isetp(p, "eq", b.ctaid_x, Imm(3))
    v = b.reg()
    b.mov(v, Imm(1.0))
    with b.if_then(p):
        b.fadd(v, v, v)
        b.fadd(v, v, v)
    addr = b.reg()
    b.imad(addr, b.tid, Imm(4), b.param("out"))
    b.stg(addr, v)
    b.exit()
    launch = LaunchConfig(grid=(10, 1), block_threads=32, params={"out": out})
    return b.build(), launch, gmem


def _zoo(name):
    def build():
        case = analysis_case(name)
        return case.kernel, case.launch, case.gmem

    return build


#: Name -> () -> (kernel, launch, gmem) for every ProofResult pin.
PROOF_CASES = {
    **{f"zoo/{name}": _zoo(name) for name in sorted(BUILTIN_KERNELS)},
    "paper/matmul-8": lambda: _paper_matmul(8),
    "paper/matmul-16": lambda: _paper_matmul(16),
    "paper/matmul-32": lambda: _paper_matmul(32),
    "paper/cr": lambda: _paper_cr(False),
    "paper/cr-nbc": lambda: _paper_cr(True),
    "refused/parity": _parity,
    "refused/tail-guard": _tail_guard,
    "refused/outlier": _outlier,
}


def class_key(members) -> str:
    return f"{members[0]}x{len(members)}"


def collect_evidence(name: str) -> dict:
    case = analysis_case(name)
    return {
        class_key(cls.members): evidence_digest(
            trace_block_class(
                case.kernel,
                case.launch,
                ClassBox.from_members(cls.members),
                case.gmem,
            )
        )
        for cls in role_classes(case.kernel, case.launch)
    }


def collect_proofs(name: str) -> dict:
    kernel, launch, gmem = PROOF_CASES[name]()
    return {
        class_key(cls.members): proof_digest(
            prove_block_class(kernel, launch, cls.members, gmem)
        )
        for cls in partition_blocks(launch, analyze_dependence(kernel))
    }


def collect_engine_proofs(name: str, engine_proofs) -> dict:
    """The same pins, read off one dedup engine run."""
    kernel, launch, gmem = PROOF_CASES[name]()
    _, results = engine_proofs(kernel, launch, gmem)
    return {
        class_key(cls.members): proof_digest(
            results.get(cls.representative)
            or prove_block_class(kernel, launch, cls.members, gmem)
        )
        for cls in partition_blocks(launch, analyze_dependence(kernel))
    }


def collect() -> dict:
    return {
        "evidence": {
            name: collect_evidence(name) for name in sorted(BUILTIN_KERNELS)
        },
        "proofs": {name: collect_proofs(name) for name in PROOF_CASES},
    }


# ----------------------------------------------------------------------
# tests
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


class TestGoldenEvidence:
    def test_zoo_has_thirteen_role_classes(self, golden):
        assert sum(len(v) for v in golden["evidence"].values()) == 13

    @pytest.mark.parametrize("name", sorted(BUILTIN_KERNELS))
    def test_role_class_evidence(self, golden, name):
        assert collect_evidence(name) == golden["evidence"][name]

    @pytest.mark.parametrize(
        "name", sorted(n for n in PROOF_CASES if not n.startswith("paper/"))
    )
    def test_proof_results(self, golden, name):
        assert collect_proofs(name) == golden["proofs"][name]

    @pytest.mark.parametrize("name", sorted(PROOF_CASES))
    def test_engine_proof_results(self, golden, name, engine_proofs):
        # Singleton classes never reach the engine's proof; their pin
        # ("singleton class") comes from prove_block_class.
        assert (
            collect_engine_proofs(name, engine_proofs)
            == golden["proofs"][name]
        )


if __name__ == "__main__":
    print(json.dumps(collect(), indent=1, sort_keys=True))
