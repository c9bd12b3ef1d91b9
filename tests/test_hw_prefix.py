"""Prefix-shared cluster simulation is exact.

Jobs grouped by :func:`repro.hw.engine.simulate_clusters` share the
simulation of their common prefix and fork at the first queue pop where
they disagree.  Every job's :class:`~repro.hw.cluster.ClusterResult`
must pickle to the bytes an independent :func:`simulate_cluster` call
produces, and every MeasuredRun to the bytes of a run whose jobs are
all simulated alone.
"""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.apps import matmul
from repro.arch import GTX285
from repro.hw import HardwareGpu, simulate_cluster, simulate_clusters
from repro.hw import engine as hw_engine
from repro.hw.cluster import ClusterSimulator, _State
from repro.sim import SimulationEngine
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_BAR,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
    BlockTrace,
)

from test_hw_cluster_pinned import CASES, PINNED, _app_blocks


def _independent(jobs, resident, use_cache=False):
    return [
        simulate_cluster(GTX285, None, use_cache, queues, resident)
        for queues in jobs
    ]


def _grouped(jobs, resident, use_cache=False, workers=0):
    return simulate_clusters(
        [(queues, resident) for queues in jobs],
        GTX285,
        None,
        use_cache,
        workers,
    )


def _assert_exact(jobs, resident, use_cache=False, workers=0):
    expected = pickle.dumps(_independent(jobs, resident, use_cache))
    assert pickle.dumps(_grouped(jobs, resident, use_cache, workers)) == expected
    results, _, _ = ClusterSimulator(use_cache=use_cache).run_group(
        jobs, resident
    )
    assert pickle.dumps(results) == expected


def _variants(queues):
    """The queues, one SM with one more block, and a block swapped."""
    donor = next(queue[0] for queue in queues if queue)
    grown = [list(queue) for queue in queues]
    grown[0].append(donor)
    swapped = [list(queue) for queue in queues]
    longest = max(range(len(queues)), key=lambda sm: len(queues[sm]))
    mid = len(swapped[longest]) // 2
    others = [b for q in queues for b in q if b is not swapped[longest][mid]]
    if others:
        swapped[longest][mid] = others[0]
    return [queues, grown, swapped]


_MATMUL_BLOCK = {}


def _matmul_block():
    if not _MATMUL_BLOCK:
        problem = matmul.prepare_problem(128, 16)
        kernel = matmul.build_matmul_kernel(128, 16)
        _MATMUL_BLOCK["work"] = _app_blocks(
            kernel, problem.gmem, problem.launch(), 1
        )[0]
    return _MATMUL_BLOCK["work"]


@pytest.mark.parametrize("workers", [0, 2])
def test_uniform_signature_pairs(workers):
    work = _matmul_block()
    jobs = [
        [[work] * 5, [work] * 4, [work] * 4],
        [[work] * 4, [work] * 4, [work] * 4],
        [[work] * 5, [work] * 5, [work] * 4],
    ]
    # A job with different first blocks forms a second group, so the
    # pool really runs at workers=2.
    lone = [[list(work)] * 2, [work], []]
    _assert_exact(jobs + [lone], 2, workers=workers)


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("name", sorted(CASES))
def test_pinned_cases_with_queue_variants(name, workers):
    queues, resident, use_cache = CASES[name]()
    jobs = _variants(queues)
    results = _grouped(jobs, resident, use_cache, workers)
    first = results[0]
    assert (
        first.cycles,
        first.events,
        first.cache_hits,
        first.cache_misses,
        first.dram_busy_cycles,
    ) == PINNED[name]
    expected = _independent(jobs, resident, use_cache)
    assert pickle.dumps(results) == pickle.dumps(expected)


def test_texture_cache_job_forks():
    queues, resident, use_cache = CASES["spmv_texture_cache"]()
    jobs = _variants(queues)
    results, copies, simulated = ClusterSimulator(use_cache=True).run_group(
        jobs, resident
    )
    assert copies >= 1
    assert simulated < sum(result.events for result in results)
    assert results[0].cache_hits and results[1].cache_hits
    assert pickle.dumps(results) == pickle.dumps(
        _independent(jobs, resident, use_cache)
    )


def test_blocks_finishing_at_a_barrier_fork_exactly():
    # Every block ends on a barrier, so each one finishes inside the
    # barrier release and every divergent pop happens there.
    fast = [(EV_ARITH, 1, 1, 0, None)] * 6 + [(EV_BAR, 0, 0, 0, None)]
    slow = [(EV_GLOBAL_LD, 0, 2, 128, None)] * 4 + [(EV_BAR, 0, 0, 0, None)]
    block = [fast, slow, fast]
    other = [slow, slow]
    jobs = [
        [[block] * 3, [block] * 2, [block] * 2],
        [[block] * 4, [block] * 2, [block] * 2],
        [[block] * 3 + [other], [block] * 2, [block, other]],
    ]
    results, copies, _ = ClusterSimulator().run_group(jobs, 2)
    assert copies == 2
    assert pickle.dumps(results) == pickle.dumps(_independent(jobs, 2))


def test_fork_while_a_convoy_is_mid_iteration(monkeypatch):
    positions = []
    copy = _State.copy

    def recording_copy(state):
        if state.convoy is not None:
            positions.append((state.convoy_pos, len(state.convoy)))
        return copy(state)

    monkeypatch.setattr(_State, "copy", recording_copy)
    chain = [(EV_ARITH, 1, t % 4, 0, None) for t in range(12)]
    short = [(EV_ARITH, 0, 1, 0, None)] * 6
    block, other = [chain] * 8, [short] * 8
    jobs = [
        [[block] * 3, [block] * 3, [block] * 3],
        [[block] * 3 + [other], [block] * 3, [block] * 3],
        [[block] * 2 + [other], [block] * 3, [block] * 3],
    ]
    results, copies, _ = ClusterSimulator().run_group(jobs, 2)
    assert copies == 2
    assert any(pos < size for pos, size in positions)
    assert pickle.dumps(results) == pickle.dumps(_independent(jobs, 2))


def test_fork_during_the_initial_fill_and_empty_blocks():
    # Jobs disagree on a block launched at time 0; empty blocks finish
    # as they launch, chaining pops inside the fill.
    arith = [[(EV_ARITH, 1, 1, 0, None)] * 10] * 2
    load = [[(EV_GLOBAL_LD, 0, 2, 256, None)] * 5] * 2
    empty = [[], []]
    jobs = [
        [[arith, empty, arith], [load]],
        [[arith, empty, load], [load]],
        [[arith, empty], [load, arith]],
        [[arith, empty, empty, arith], [load]],
    ]
    results, copies, _ = ClusterSimulator().run_group(jobs, 2)
    assert copies == 3
    assert pickle.dumps(results) == pickle.dumps(_independent(jobs, 2))


def test_identical_jobs_share_one_simulation():
    work = [[(EV_ARITH, 1, 2, 0, None)] * 30] * 4
    queues = [[work] * 3, [work] * 2, [work] * 2]
    jobs = [queues, [list(queue) for queue in queues]]
    results, copies, simulated = ClusterSimulator().run_group(jobs, 1)
    assert copies == 0
    assert simulated == results[0].events == results[1].events
    assert results[0] is not results[1]
    assert pickle.dumps(results) == pickle.dumps(_independent(jobs, 1))


def test_distinct_first_blocks_stay_separate_groups():
    # Calibration points: every point is its own group and pool task.
    points = [[[(EV_ARITH, 1, 1, 0, None)] * n] for n in (3, 4, 5)]
    jobs = [([list(point)] * 3, 2) for point in points]
    assert hw_engine._prefix_groups(jobs) == [[0], [1], [2]]
    shared = [points[0]] * 3
    jobs = [([shared, shared], 2), ([shared + [points[1]], shared], 2),
            ([shared, shared], 3)]
    assert hw_engine._prefix_groups(jobs) == [[0, 1], [2]]


# ----------------------------------------------------------------------
# HardwareGpu measurements
# ----------------------------------------------------------------------
def _alone(monkeypatch):
    """Make every job its own group (independent simulations)."""
    monkeypatch.setattr(
        hw_engine,
        "_prefix_groups",
        lambda jobs: [[index] for index in range(len(jobs))],
    )


def _block_trace(stream, warps=2):
    return BlockTrace(block=(0, 0), stages=[], warp_streams=[stream] * warps)


def test_homogeneous_wave_probes_match_independent_runs(monkeypatch):
    trace = _block_trace(
        [(EV_ARITH, 1, 1, 0, None), (EV_GLOBAL_LD, 0, 2, 128, None)] * 15
    )
    grouped = HardwareGpu().measure(trace, 307, resident_per_sm=2)
    assert grouped.extrapolated
    _alone(monkeypatch)
    alone = HardwareGpu().measure(trace, 307, resident_per_sm=2)
    assert pickle.dumps(grouped) == pickle.dumps(alone)


def test_engine_matmul_table_matches_independent_runs(monkeypatch):
    # 64 blocks of one dedup class: cluster signatures (3,2,2) and
    # (2,2,2) over one shared trace object form one group.
    n, tile = 128, 16
    problem = matmul.prepare_problem(n, tile)
    launch = problem.launch()
    trace = SimulationEngine(
        matmul.build_matmul_kernel(n, tile), gmem=problem.gmem
    ).run(launch)
    grouped = HardwareGpu().measure(trace.block_traces, launch.num_blocks, 2)
    assert grouped.cluster_sims == 2
    _alone(monkeypatch)
    alone = HardwareGpu().measure(trace.block_traces, launch.num_blocks, 2)
    assert pickle.dumps(grouped) == pickle.dumps(alone)


def test_measure_uniform_sm_matches_independent_runs(monkeypatch):
    shared = [[(EV_SHARED, 0, 4, 0, None), (EV_ARITH, 1, 1, 0, None)] * 8] * 2
    points = [[shared] * 2, [shared] * 3, [[[(EV_ARITH, 1, 3, 0, None)] * 9]]]
    grouped = HardwareGpu().measure_uniform_sm(points, 2)
    _alone(monkeypatch)
    alone = HardwareGpu().measure_uniform_sm(points, 2)
    assert pickle.dumps(grouped) == pickle.dumps(alone)


def test_naive_reference_simulates_every_chosen_cluster_alone():
    light = _block_trace([(EV_ARITH, 1, 1, 0, None)] * 20)
    heavy = _block_trace([(EV_ARITH, 1, 1, 0, None)] * 120)
    table = [light] * 40 + [heavy]
    recorder = obs.start()
    try:
        naive = HardwareGpu().measure(table, 41, 2, dedup=False)
    finally:
        obs.stop()
    assert naive.cluster_sims == 10
    assert naive.signature_hits == 0
    assert recorder.counters.get("hw.prefix_shared_events", 0) == 0
    spans = [
        e for e in recorder.events
        if e["type"] == "span" and e["name"] == "hw.cluster"
    ]
    assert len(spans) == 10
    assert all(span["attrs"]["jobs"] == 1 for span in spans)


def test_group_span_and_shared_events_metric():
    work = _matmul_block()
    jobs = [
        ([[work] * 5, [work] * 4, [work] * 4], 2),
        ([[work] * 4, [work] * 4, [work] * 4], 2),
    ]
    recorder = obs.start()
    try:
        results = simulate_clusters(jobs, GTX285, None, False)
    finally:
        obs.stop()
    (span,) = [
        e for e in recorder.events
        if e["type"] == "span" and e["name"] == "hw.cluster"
    ]
    assert span["attrs"]["jobs"] == 2
    assert span["attrs"]["forks"] == 1
    total = sum(result.events for result in results)
    shared = recorder.counters["hw.prefix_shared_events"]
    assert span["attrs"]["events"] + shared == total
    assert shared > total // 4


# ----------------------------------------------------------------------
# property: random small queue sets of synthetic streams
# ----------------------------------------------------------------------
_EVENT = st.one_of(
    st.builds(
        lambda dep, ty: (EV_ARITH, dep, ty, 0, None),
        st.integers(0, 3), st.integers(0, 3),
    ),
    st.builds(
        lambda ty, n: (EV_ARITH_SHARED, 1, ty, n, None),
        st.integers(0, 3), st.integers(0, 4),
    ),
    st.builds(lambda n: (EV_SHARED, 0, n, 0, None), st.integers(0, 6)),
    st.builds(
        lambda txn, nbytes: (EV_GLOBAL_LD, 0, txn, nbytes, None),
        st.integers(1, 4), st.sampled_from([0, 64, 128]),
    ),
    st.just((EV_GLOBAL_ST, 0, 2, 128, None)),
    st.just((EV_BAR, 0, 0, 0, None)),
)
_BLOCK = st.lists(st.lists(_EVENT, max_size=8), min_size=1, max_size=3)


@st.composite
def _job_sets(draw):
    blocks = draw(st.lists(_BLOCK, min_size=1, max_size=4))
    index_queue = st.lists(st.integers(0, len(blocks) - 1), max_size=5)
    base = draw(st.lists(index_queue, min_size=1, max_size=3))
    jobs = [base]
    for _ in range(draw(st.integers(1, 3))):
        job = [list(queue) for queue in base]
        sm = draw(st.integers(0, len(job) - 1))
        cut = draw(st.integers(0, len(job[sm])))
        job[sm] = job[sm][:cut] + draw(index_queue)
        jobs.append(job)
    resident = draw(st.integers(1, 3))
    return [
        [[blocks[i] for i in queue] for queue in job] for job in jobs
    ], resident


@settings(max_examples=60, deadline=None)
@given(_job_sets())
def test_grouped_runs_equal_independent_runs(job_set):
    jobs, resident = job_set
    results, copies, simulated = ClusterSimulator().run_group(jobs, resident)
    assert pickle.dumps(results) == pickle.dumps(_independent(jobs, resident))
    assert simulated <= sum(result.events for result in results)
    assert copies <= len(jobs) - 1
