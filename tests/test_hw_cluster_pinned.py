"""Cluster simulator results pinned bit for bit.

The event loop's scheduling shortcuts (convoys of same-time pushes and
the repeated-failure shortcut) must reproduce the plain one-warp-per-pop
heap order exactly.  Every case below records the full
:class:`~repro.hw.cluster.ClusterResult` of a queue that stresses one
contended path; the pinned values were produced by the one-warp-per-pop
loop, and float fields compare with ``==``.
"""

import hashlib

import pytest

from repro.apps import matmul, reduction, spmv, tridiag
from repro.apps.matrices import random_blocked
from repro.hw import ClusterSimulator, HardwareGpu
from repro.micro import calibrate
from repro.sim.functional import FunctionalSimulator
from repro.sim.trace import EV_ARITH, EV_ARITH_SHARED, EV_GLOBAL_LD, EV_SHARED


def _app_blocks(kernel, gmem, launch, count):
    simulator = FunctionalSimulator(kernel, gmem=gmem)
    gx = launch.grid[0]
    return [
        simulator.run_block(launch, (b % gx, b // gx)).warp_streams
        for b in range(count)
    ]


def _round_robin(blocks, sms=3):
    return [blocks[sm::sms] for sm in range(sms)]


def reduction_barriers():
    problem = reduction.prepare_problem(block_threads=128, num_blocks=6)
    kernel = reduction.build_reduction_kernel(128)
    blocks = _app_blocks(kernel, problem.gmem, problem.launch(), 6)
    return _round_robin(blocks), 2, False


def cr_bank_conflicts():
    problem = tridiag.prepare_problem(64, 6)
    kernel = tridiag.build_cr_kernel(64, padded=False)
    blocks = _app_blocks(kernel, problem.gmem, problem.launch(), 6)
    return _round_robin(blocks), 2, False


def cr_padded():
    problem = tridiag.prepare_problem(64, 6)
    kernel = tridiag.build_cr_kernel(64, padded=True)
    blocks = _app_blocks(kernel, problem.gmem, problem.launch(), 6)
    return _round_robin(blocks), 2, False


def matmul_shared_operands():
    problem = matmul.prepare_problem(128, 16)
    kernel = matmul.build_matmul_kernel(128, 16)
    blocks = _app_blocks(kernel, problem.gmem, problem.launch(), 6)
    return _round_robin(blocks), 2, False


def spmv_texture_cache():
    matrix = random_blocked(block_rows=384, slots=5, seed=4)
    problem = spmv.prepare_problem(matrix, "bell_im")
    kernel = spmv.build_kernel_for(problem)
    blocks = _app_blocks(kernel, problem.gmem, problem.launch(), 6)
    return _round_robin(blocks), 2, True


def arith_shared_behind_busy_pipe():
    # Conflicted shared accesses keep the shared pipe backlogged while
    # shared-operand arithmetic waits on the operand collector.
    stream = [
        (EV_SHARED, 0, 16, 0, None),
        (EV_ARITH_SHARED, 0, 1, 4, None),
        (EV_ARITH_SHARED, 1, 2, 0, None),
        (EV_ARITH, 1, 1, 0, None),
    ] * 20
    block = [stream] * 6
    return [[block, block], [block], [block, block, block]], 2, False


def two_sms_tie():
    # SM 0 and SM 1 run identical queues, so their warps tie on every
    # timestamp; SM 2 mixes pipes and global loads.
    chain = [(EV_ARITH, 1, t % 4, 0, None) for t in range(48)]
    loads = [(EV_GLOBAL_LD, 0, 2, 128, None), (EV_ARITH, 1, 1, 0, None)] * 12
    same = [[chain] * 8, [chain] * 8]
    return [same, list(same), [[loads] * 4, [chain, loads] * 3]], 2, False


CASES = {
    fn.__name__: fn
    for fn in (
        reduction_barriers,
        cr_bank_conflicts,
        cr_padded,
        matmul_shared_operands,
        spmv_texture_cache,
        arith_shared_behind_busy_pipe,
        two_sms_tie,
    )
}

#: (cycles, events, cache_hits, cache_misses, dram_busy_cycles).
PINNED = {
    "arith_shared_behind_busy_pipe": (15056.804382324219, 2880, 0, 0, 0.0),
    "cr_bank_conflicts": (10774.072195860323, 2520, 0, 0, 812.4725516029865),
    "cr_padded": (11829.095106712077, 2976, 0, 0, 812.4725516029865),
    "matmul_shared_operands": (
        103749.11293240696, 29340, 0, 0, 28599.033816425126,
    ),
    "reduction_barriers": (3163.582552656962, 756, 0, 0, 670.2898550724639),
    "spmv_texture_cache": (
        13837.301913666146, 1536, 2220, 1317, 13070.652173913046,
    ),
    "two_sms_tie": (6940.6882585746935, 1848, 0, 0, 1137.461572244181),
}


def _result(name):
    queues, resident, use_cache = CASES[name]()
    result = ClusterSimulator(use_cache=use_cache).run(queues, resident)
    return (
        result.cycles,
        result.events,
        result.cache_hits,
        result.cache_misses,
        result.dram_busy_cycles,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_cluster_result_pinned(name):
    assert _result(name) == PINNED[name]


def test_texture_cache_case_hits_and_misses():
    _, _, hits, misses, _ = PINNED["spmv_texture_cache"]
    assert hits > 0 and misses > 0


#: sha256 of ``calibrate(HardwareGpu(...), warp_counts=(1, 6, 16, 32),
#: iterations=20).to_json()``.
REDUCED_SWEEP_SHA256 = (
    "355726f75b675eaa6044eb741cbd79bb240e4504bf8864455434c4088a189ed7"
)


@pytest.mark.parametrize("workers", [0, 2])
def test_reduced_calibration_sweep_is_byte_identical(workers):
    tables = calibrate(
        HardwareGpu(workers=workers), warp_counts=(1, 6, 16, 32), iterations=20
    )
    digest = hashlib.sha256(tables.to_json().encode()).hexdigest()
    assert digest == REDUCED_SWEEP_SHA256
