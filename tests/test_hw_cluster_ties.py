"""Cluster simulator results pinned on constructed heap-order ties.

A warp whose next event is not ready at ``issue + gap`` is pushed once,
at its ready time.  The order it must keep is that of a two-step push:
pushed at ``issue + gap``, popped there and pushed again at its ready
time with a later ``seq``.  The two orders differ only when an entry
lands on exactly that ready time between the warp's issue and its
re-push moment.  Each case below builds one such tie in a jitter-free
configuration, where the order decides the result; the pinned values
were produced by the two-step loop, and float fields compare with
``==``.

The jitter hash is inlined in the event loop; the property test checks
it against :func:`repro.hw.config.deterministic_jitter` through the
completion time of a warp's last event.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import HardwareModelError
from repro.hw import ClusterSimulator, HwConfig
from repro.hw.cluster import MAX_EVENTS
from repro.hw.config import deterministic_jitter
from repro.sim.trace import (
    EV_ARITH,
    EV_ARITH_SHARED,
    EV_GLOBAL_LD,
    EV_GLOBAL_ST,
    EV_SHARED,
)

FLAT = HwConfig(arith_jitter=0.0, shared_jitter=0.0, global_jitter=0.0)


def replay_stall_tie():
    # SM 0's warp issues a 4-transaction shared access at cycle 60 and
    # stalls 20 cycles (re-push moment 80).  SM 1's warp issues a
    # 2-transaction access at 64 with a 1-cycle gap (re-push moment 65).
    # Both complete at 132, where both warps issue a global load: the
    # two-step order serves SM 1's load first.
    a = [
        (EV_SHARED, 0, 4, 0, None),
        (EV_GLOBAL_LD, 1, 2, 256, None),
    ] + [(EV_ARITH, 1, 1, 0, None)] * 8
    b = [
        (EV_ARITH, 0, 1, 0, None),
        (EV_SHARED, 0, 2, 0, None),
        (EV_GLOBAL_LD, 1, 2, 512, None),
    ]
    return [[[a]], [[b]], []]


def convoy_tie():
    # Warp a's shared access completes at 132 and stalls it until 80.
    # Warp c's 32-transaction access keeps the shared pipe busy until
    # 132, so warp d's shared operand queues a convoy there at cycle 60,
    # after a's issue and before its re-push moment: d issues first at
    # 132 and a's dependent chain starts a cycle later.
    a = [(EV_SHARED, 0, 4, 0, None)] + [(EV_ARITH, 1, 1, 0, None)] * 4
    c = [(EV_SHARED, 0, 32, 0, None)]
    d = [(EV_ARITH_SHARED, 0, 0, 1, None), (EV_ARITH, 1, 0, 0, None)]
    return [[[a, c, d]], [], []]


CASES = {fn.__name__: fn for fn in (replay_stall_tie, convoy_tie)}

#: (cycles, events, cache_hits, cache_misses, dram_busy_cycles).
PINNED = {
    "replay_stall_tie": (925.2472551602987, 13, 0, 0, 81.24725516029864),
    "convoy_tie": (229.0, 8, 0, 0, 0.0),
}


def _fields(result):
    return (
        result.cycles,
        result.events,
        result.cache_hits,
        result.cache_misses,
        result.dram_busy_cycles,
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_tie_result_pinned(name):
    result = ClusterSimulator(config=FLAT).run(CASES[name](), 1)
    assert _fields(result) == PINNED[name]


def test_tie_results_pinned_in_a_group():
    # The jobs share SM 0's queue up to a second block, so the group
    # forks only after the ties resolved in the shared prefix.
    replay = replay_stall_tie()
    longer = [replay[0] + convoy_tie()[0], replay[1], []]
    results, copies, _ = ClusterSimulator(config=FLAT).run_group(
        [replay, longer], 1
    )
    assert copies == 1
    assert _fields(results[0]) == PINNED["replay_stall_tie"]
    alone = ClusterSimulator(config=FLAT).run(longer, 1)
    assert _fields(results[1]) == _fields(alone)


_LAST_EVENT = {
    "arith": ("arith_jitter", (EV_ARITH, 0, 2, 0, None)),
    "arith_shared": ("arith_jitter", (EV_ARITH_SHARED, 0, 1, 0, None)),
    "shared": ("shared_jitter", (EV_SHARED, 0, 3, 0, None)),
    "global": ("global_jitter", (EV_GLOBAL_LD, 0, 2, 128, None)),
}


@settings(max_examples=60, deadline=None)
@given(
    gwid=st.integers(0, 2000),
    idx=st.integers(0, 150),
    amplitude=st.one_of(
        st.just(0.0),
        st.floats(min_value=-8.0, max_value=1e4, allow_nan=False),
    ),
    kind=st.sampled_from(sorted(_LAST_EVENT)),
)
def test_inlined_jitter_matches_reference(gwid, idx, amplitude, kind):
    # ``gwid`` empty warps come first, so the real warp gets that id;
    # ``idx`` DRAM-free stores (no jitter) put its last event at that
    # index.  That event completes last, so the run's cycles are its
    # completion: jitter-free completion plus the hash's jitter.
    field, last = _LAST_EVENT[kind]
    stores = [(EV_GLOBAL_ST, 0, 1, 0, None)] * idx
    block = [[]] * gwid + [stores + [last]]

    def cycles(amp):
        config = HwConfig(**{field: amp})
        return ClusterSimulator(config=config).run([[block]], 1).cycles

    key = (gwid << 20) ^ idx
    assert cycles(amplitude) == cycles(0.0) + deterministic_jitter(key, amplitude)


def test_streams_past_the_jitter_key_are_rejected():
    stream = [(EV_ARITH, 0, 1, 0, None)] * (MAX_EVENTS + 1)
    with pytest.raises(HardwareModelError, match="jitter key"):
        ClusterSimulator().run([[[stream]]], 1)
