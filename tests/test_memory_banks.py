"""Bank-conflict analyzer: the paper's Fig. 5 patterns."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.memory import (
    BankConfig,
    conflict_degree,
    stride_conflict_degree,
    warp_transactions,
)
from repro.memory.layout import pad_index


class TestConflictDegree:
    def test_conflict_free_unit_stride(self):
        addrs = [i * 4 for i in range(16)]
        assert conflict_degree(addrs) == 1

    def test_broadcast_is_free(self):
        # All threads reading the same word use the broadcast path.
        assert conflict_degree([64] * 16) == 1

    def test_stride_two_paper_value(self):
        assert stride_conflict_degree(2) == 2

    def test_stride_four_paper_value(self):
        assert stride_conflict_degree(4) == 4

    def test_stride_eight_paper_value(self):
        assert stride_conflict_degree(8) == 8

    def test_stride_sixteen_saturates_at_bank_count(self):
        assert stride_conflict_degree(16) == 16
        assert stride_conflict_degree(32) == 16

    def test_cr_doubling_pattern(self):
        # "from 2-way bank conflicts in step one, to 4-way in step two,
        # to 8-way in step three, and so on"
        degrees = [stride_conflict_degree(2**k) for k in (1, 2, 3, 4)]
        assert degrees == [2, 4, 8, 16]

    def test_fewer_threads_cap_the_degree(self):
        assert stride_conflict_degree(16, threads=4) == 4

    def test_empty_access_costs_nothing(self):
        assert conflict_degree([]) == 0

    def test_odd_stride_is_conflict_free(self):
        assert stride_conflict_degree(17) == 1

    def test_padding_removes_power_of_two_conflicts(self):
        # The paper's CR-NBC trick: one pad word per 16 elements.
        for stride in (2, 4, 8):
            padded = [4 * pad_index(i * stride) for i in range(16)]
            assert conflict_degree(padded) == 1


class TestWarpTransactions:
    def test_conflict_free_warp(self):
        addrs = [i * 4 for i in range(32)]
        actual, ideal = warp_transactions(addrs)
        assert (actual, ideal) == (2, 2)

    def test_two_way_conflicts_double_transactions(self):
        addrs = [i * 8 for i in range(32)]
        actual, ideal = warp_transactions(addrs)
        assert (actual, ideal) == (4, 2)

    def test_active_mask_respected(self):
        addrs = [0] * 32
        active = [i == 3 for i in range(32)]
        assert warp_transactions(addrs, active) == (1, 1)

    def test_half_empty_warp(self):
        addrs = [i * 4 for i in range(32)]
        active = [i < 16 for i in range(32)]
        assert warp_transactions(addrs, active) == (1, 1)

    def test_all_inactive(self):
        assert warp_transactions([0] * 32, [False] * 32) == (0, 0)


class TestConfig:
    def test_bad_bank_count(self):
        with pytest.raises(ModelError):
            BankConfig(num_banks=0)

    def test_bank_mapping(self):
        config = BankConfig()
        assert config.bank_of(0) == 0
        assert config.bank_of(4) == 1
        assert config.bank_of(64) == 0

    def test_prime_banks_kill_power_of_two_conflicts(self):
        # The paper's architectural suggestion: a prime bank count.
        prime = BankConfig(num_banks=17)
        for stride in (2, 4, 8, 16):
            addrs = [i * stride * 4 for i in range(16)]
            assert conflict_degree(addrs, prime) == 1


addresses = st.lists(
    st.integers(0, 1023).map(lambda w: w * 4), min_size=1, max_size=16
)


class TestProperties:
    @given(addresses)
    @settings(max_examples=150, deadline=None)
    def test_degree_bounds(self, addrs):
        degree = conflict_degree(addrs)
        assert 1 <= degree <= min(16, len(addrs))

    @given(addresses)
    @settings(max_examples=150, deadline=None)
    def test_degree_equals_max_bank_load(self, addrs):
        per_bank = {}
        for a in addrs:
            per_bank.setdefault((a // 4) % 16, set()).add(a // 4)
        assert conflict_degree(addrs) == max(len(v) for v in per_bank.values())

    @given(addresses)
    @settings(max_examples=100, deadline=None)
    def test_actual_never_below_ideal(self, addrs):
        padded = addrs + [0] * (32 - len(addrs))
        active = [True] * len(addrs) + [False] * (32 - len(addrs))
        actual, ideal = warp_transactions(padded, active)
        assert actual >= ideal
