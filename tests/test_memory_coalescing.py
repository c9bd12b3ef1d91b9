"""Coalescing transaction simulator: the CUDA 1.2/1.3 protocol."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ModelError
from repro.memory import (
    Transaction,
    TransactionConfig,
    bytes_transferred,
    coalesce_halfwarp,
    transaction_count,
)


class TestProtocol:
    def test_sequential_halfwarp_is_one_64b_segment(self):
        addrs = [base * 4 for base in range(16)]
        txns = coalesce_halfwarp(addrs)
        assert txns == [Transaction(0, 64)]

    def test_sequential_misaligned_uses_full_segment(self):
        # Words 8..23 span both halves of the 128-byte line, so the
        # 1.2/1.3 protocol issues one unshrinkable 128-byte transaction
        # (unlike CUDA 1.0/1.1, which would split it).
        addrs = [(8 + i) * 4 for i in range(16)]
        txns = coalesce_halfwarp(addrs)
        assert txns == [Transaction(0, 128)]

    def test_broadcast_same_word_single_min_segment(self):
        txns = coalesce_halfwarp([128] * 16)
        assert txns == [Transaction(128, 32)]

    def test_scattered_worst_case(self):
        # One 32-byte segment per thread: the paper's uncoalesced case.
        addrs = [i * 512 for i in range(16)]
        txns = coalesce_halfwarp(addrs)
        assert len(txns) == 16
        assert all(t.size == 32 for t in txns)

    def test_segment_shrinking_to_lower_half(self):
        # Four words at the start of a 128-byte line shrink to 32 bytes.
        txns = coalesce_halfwarp([0, 4, 8, 12])
        assert txns == [Transaction(0, 32)]

    def test_segment_shrinking_to_upper_half(self):
        txns = coalesce_halfwarp([96, 100, 104, 108])
        assert txns == [Transaction(96, 32)]

    def test_no_shrink_when_both_halves_used(self):
        txns = coalesce_halfwarp([0, 124])
        assert txns == [Transaction(0, 128)]

    def test_stride_two_fills_128_bytes(self):
        addrs = [i * 8 for i in range(16)]  # words 0,2,...,30
        txns = coalesce_halfwarp(addrs)
        assert txns == [Transaction(0, 128)]
        assert bytes_transferred(txns) == 128  # half the bytes wasted

    def test_16_byte_granularity_reduces_waste(self):
        addrs = [i * 512 for i in range(16)]
        small = coalesce_halfwarp(
            addrs, config=TransactionConfig(min_segment=16)
        )
        assert all(t.size == 16 for t in small)
        assert bytes_transferred(small) == 256

    def test_word_granularity_counts_distinct_words(self):
        config = TransactionConfig(min_segment=4, max_segment=4)
        txns = coalesce_halfwarp([0, 0, 4, 4, 8, 8], config=config)
        assert bytes_transferred(txns) == 12

    def test_order_of_service_follows_lowest_thread(self):
        txns = coalesce_halfwarp([256, 0])
        assert txns[0].address == 256  # lowest-numbered thread first


class TestWarpLevel:
    def test_two_halfwarps_served_independently(self):
        # Full warp of consecutive words: 2 transactions (one per half).
        addrs = [i * 4 for i in range(32)]
        assert transaction_count(addrs) == 2

    def test_inactive_lanes_ignored(self):
        addrs = [i * 4 for i in range(32)]
        active = [i < 16 for i in range(32)]
        assert transaction_count(addrs, active) == 1

    def test_fully_inactive_warp_is_free(self):
        assert transaction_count([0] * 32, [False] * 32) == 0

    def test_halfwarps_do_not_merge_across_boundary(self):
        # Same segment requested by both halves: two transactions (the
        # hardware issues per half-warp).
        addrs = [0] * 32
        assert transaction_count(addrs) == 2


class TestValidation:
    def test_min_segment_power_of_two(self):
        with pytest.raises(ModelError):
            TransactionConfig(min_segment=24)

    def test_min_above_max_rejected(self):
        with pytest.raises(ModelError):
            TransactionConfig(min_segment=256, max_segment=128)

    def test_access_bytes_positive(self):
        with pytest.raises(ModelError):
            coalesce_halfwarp([0], access_bytes=0)

    def test_initial_segment_sizes_by_access_width(self):
        from repro.memory.coalescing import initial_segment_size

        config = TransactionConfig()
        assert initial_segment_size(1, config) == 32
        assert initial_segment_size(2, config) == 64
        assert initial_segment_size(4, config) == 128


word_addresses = st.lists(
    st.integers(0, 4096).map(lambda w: w * 4), min_size=1, max_size=16
)


class TestProperties:
    @given(word_addresses)
    @settings(max_examples=150, deadline=None)
    def test_every_address_is_covered(self, addrs):
        txns = coalesce_halfwarp(addrs)
        for address in addrs:
            assert any(t.contains(address, 4) for t in txns)

    @given(word_addresses)
    @settings(max_examples=150, deadline=None)
    def test_segments_are_aligned_and_sized(self, addrs):
        config = TransactionConfig()
        for t in coalesce_halfwarp(addrs, config=config):
            assert t.size in (32, 64, 128)
            assert t.address % t.size == 0

    @given(word_addresses)
    @settings(max_examples=100, deadline=None)
    def test_bytes_at_least_useful_bytes(self, addrs):
        txns = coalesce_halfwarp(addrs)
        distinct_words = len({a // 4 for a in addrs})
        assert bytes_transferred(txns) >= distinct_words * 4

    @given(word_addresses)
    @settings(max_examples=100, deadline=None)
    def test_finer_granularity_never_moves_more_bytes(self, addrs):
        coarse = bytes_transferred(coalesce_halfwarp(addrs))
        fine = bytes_transferred(
            coalesce_halfwarp(addrs, config=TransactionConfig(min_segment=16))
        )
        ideal = bytes_transferred(
            coalesce_halfwarp(
                addrs, config=TransactionConfig(min_segment=4, max_segment=4)
            )
        )
        assert ideal <= fine <= coarse

    @given(word_addresses)
    @settings(max_examples=100, deadline=None)
    def test_transaction_count_at_most_active_threads(self, addrs):
        assert len(coalesce_halfwarp(addrs)) <= len(addrs)
