"""Global-memory transaction simulator (paper Section 4.3).

CUDA compute-capability 1.2/1.3 issues memory transactions at half-warp
granularity with this coalescing protocol:

1. find the memory segment containing the address requested by the
   lowest-numbered unserved thread;
2. find all other threads whose requested address is in that segment;
3. reduce the segment size if possible;
4. repeat until all threads in the half-warp are served.

The minimum segment the hardware supports for 4-byte words is 32 bytes;
the paper's what-if studies also evaluate hypothetical 16-byte and
4-byte granularities (Fig. 11), which this simulator supports through
``TransactionConfig.min_segment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.arch.specs import HALF_WARP
from repro.errors import ModelError


@dataclass(frozen=True)
class TransactionConfig:
    """Coalescing parameters."""

    min_segment: int = 32
    max_segment: int = 128
    halfwarp: int = HALF_WARP

    def __post_init__(self) -> None:
        for name in ("min_segment", "max_segment"):
            value = getattr(self, name)
            if value <= 0 or value & (value - 1):
                raise ModelError(f"{name} must be a positive power of two")
        if self.min_segment > self.max_segment:
            raise ModelError("min_segment exceeds max_segment")
        if self.halfwarp <= 0:
            raise ModelError("halfwarp must be positive")


#: Hardware configuration of the GTX 285.
DEFAULT_CONFIG = TransactionConfig()


@dataclass(frozen=True)
class Transaction:
    """One hardware memory transaction: an aligned segment."""

    address: int
    size: int

    @property
    def end(self) -> int:
        return self.address + self.size

    def contains(self, address: int, access_bytes: int) -> bool:
        return self.address <= address and address + access_bytes <= self.end


def initial_segment_size(access_bytes: int, config: TransactionConfig) -> int:
    """Starting segment size for an access width (CUDA 1.2/1.3 rule)."""
    if access_bytes == 1:
        size = 32
    elif access_bytes == 2:
        size = 64
    else:
        size = 128
    return max(config.min_segment, min(size, config.max_segment))


_START_SIZE_CACHE: dict[tuple[int, int, int], int] = {}


def _start_size(access_bytes: int, config: TransactionConfig) -> int:
    """Memoized :func:`initial_segment_size`."""
    key = (access_bytes, config.min_segment, config.max_segment)
    cached = _START_SIZE_CACHE.get(key)
    if cached is None:
        cached = _START_SIZE_CACHE[key] = initial_segment_size(
            access_bytes, config
        )
    return cached


def coalesce_halfwarp(
    addresses: Sequence[int],
    access_bytes: int = 4,
    config: TransactionConfig = DEFAULT_CONFIG,
) -> list[Transaction]:
    """Coalesce one half-warp's requested addresses into transactions.

    ``addresses`` holds the byte addresses of the *active* threads, in
    thread order.  Returns the issued transactions in order.
    """
    if access_bytes <= 0:
        raise ModelError("access_bytes must be positive")
    pending = [int(a) for a in addresses]
    transactions: list[Transaction] = []
    start_size = initial_segment_size(access_bytes, config)
    while pending:
        lead = pending[0]
        size = start_size
        base = lead - (lead % size)
        in_segment = [a for a in pending if base <= a and a + access_bytes <= base + size]
        # Step 3: shrink the segment while all covered accesses fit a half.
        while size // 2 >= config.min_segment and size // 2 >= access_bytes:
            half = size // 2
            low_base, high_base = base, base + half
            if all(a + access_bytes <= low_base + half for a in in_segment):
                size = half
            elif all(a >= high_base for a in in_segment):
                base, size = high_base, half
            else:
                break
        transactions.append(Transaction(base, size))
        pending = [
            a
            for a in pending
            if not (base <= a and a + access_bytes <= base + size)
        ]
    return transactions


def coalesce_warp(
    addresses: Sequence[int],
    active: Sequence[bool] | None = None,
    access_bytes: int = 4,
    config: TransactionConfig = DEFAULT_CONFIG,
) -> list[Transaction]:
    """Coalesce a full warp: each half-warp is served independently."""
    n = len(addresses)
    if active is None:
        active = [True] * n
    transactions: list[Transaction] = []
    for start in range(0, n, config.halfwarp):
        group = [
            int(addresses[i])
            for i in range(start, min(start + config.halfwarp, n))
            if active[i]
        ]
        if group:
            transactions.extend(coalesce_halfwarp(group, access_bytes, config))
    return transactions


def transaction_count(
    addresses: "Sequence[int] | np.ndarray",
    active: "Sequence[bool] | np.ndarray | None" = None,
    access_bytes: int = 4,
    config: TransactionConfig = DEFAULT_CONFIG,
) -> "int | np.ndarray":
    """Number of hardware transactions for a warp's request.

    A 2-D ``(num_warps, warp_size)`` address array batches the protocol
    over many warps and returns an *array* of one count per warp row
    instead of a scalar.
    """
    if getattr(addresses, "ndim", 1) == 2:
        counts, _, _ = coalesce_warp_batch(addresses, active, access_bytes, config)
        return counts
    return len(coalesce_warp(addresses, active, access_bytes, config))


def coalesce_warp_batch(
    addresses: np.ndarray,
    active: np.ndarray | None = None,
    access_bytes: int = 4,
    config: TransactionConfig = DEFAULT_CONFIG,
    want_segments: bool = False,
) -> tuple[np.ndarray, np.ndarray, list[tuple[tuple[int, int], ...]] | None]:
    """Coalesce a ``(num_warps, warp_size)`` batch in one vectorized pass.

    Returns per-warp transaction counts and transferred-byte totals (and,
    when ``want_segments`` is set, each warp's ordered ``(address, size)``
    transaction list) -- row ``w`` bit-identical to
    :func:`coalesce_warp` on row ``w``.  See :func:`coalesce_warp_multi`
    for the vectorization argument (and for evaluating several
    granularities over one request at shared cost).
    """
    [(counts, nbytes, _, _, segments)] = coalesce_warp_multi(
        addresses,
        active,
        access_bytes,
        [config],
        want_segments_at=0 if want_segments else None,
    )
    return counts, nbytes, segments


def _scalar_rows(
    addresses: np.ndarray,
    active: np.ndarray,
    access_bytes: int,
    config: TransactionConfig,
) -> tuple[np.ndarray, np.ndarray, list[tuple[tuple[int, int], ...]]]:
    """Row-by-row scalar protocol (exact fallback for unaligned batches)."""
    num_warps = addresses.shape[0]
    counts = np.zeros(num_warps, dtype=np.int64)
    nbytes = np.zeros(num_warps, dtype=np.int64)
    segments: list[tuple[tuple[int, int], ...]] = []
    for w in range(num_warps):
        transactions = coalesce_warp(addresses[w], active[w], access_bytes, config)
        counts[w] = len(transactions)
        nbytes[w] = sum(t.size for t in transactions)
        segments.append(tuple((t.address, t.size) for t in transactions))
    return counts, nbytes, segments


_ARANGE_CACHE: dict[int, np.ndarray] = {}


def _arange(n: int) -> np.ndarray:
    cached = _ARANGE_CACHE.get(n)
    if cached is None:
        cached = _ARANGE_CACHE[n] = np.arange(n, dtype=np.int64)
    return cached


#: Addresses are assumed below 2**48 (device arenas are megabytes), so
#: half-warp group ids can ride the key's top bits without a data scan.
_GROUP_SHIFT = 48

_GROUP_KEY_CACHE: dict[tuple[int, int, int], np.ndarray] = {}


def _full_group_rows(num_warps: int, warp_size: int, halfwarp: int) -> np.ndarray:
    """Pre-shifted half-warp group ids for an all-active batch."""
    key = (num_warps, warp_size, halfwarp)
    cached = _GROUP_KEY_CACHE.get(key)
    if cached is None:
        lanes = _arange(num_warps * warp_size)
        rows = (lanes // warp_size) * (-(-warp_size // halfwarp)) + (
            lanes % warp_size
        ) // halfwarp
        cached = _GROUP_KEY_CACHE[key] = rows << _GROUP_SHIFT
    return cached


def coalesce_warp_multi(
    addresses: np.ndarray,
    active: np.ndarray | None,
    access_bytes: int,
    configs: Sequence[TransactionConfig],
    want_segments_at: int | None = None,
    aligned: bool = False,
) -> list[tuple]:
    """Evaluate several coalescing configs over one ``(W, 32)`` batch.

    Returns one ``(counts, nbytes, total_txns, total_bytes, segments)``
    tuple per config; the per-warp ``counts``/``nbytes`` arrays are
    bit-identical to running :func:`coalesce_warp` per warp row with
    that config, and the totals are their sums.  ``want_segments_at``
    selects the single config whose ordered per-warp ``(address, size)``
    transaction lists are materialized (the functional simulator's
    primary granularity).  ``active=None`` means every lane is active;
    ``aligned=True`` promises every active address is a multiple of
    ``access_bytes`` (the simulator validates this on the memory access
    itself), skipping the alignment scan and the scalar fallback.

    The CUDA 1.2/1.3 greedy protocol vectorizes because, for accesses
    aligned to their width, the transaction serving the lowest unserved
    thread covers *exactly* the pending addresses in the same aligned
    ``start_size`` window: the partition into transactions is "group by
    window", independent of the greedy order.  The shrink loop reduces
    each window to the smallest aligned power-of-two block covering the
    window's ``[lo, hi)`` span (floored at ``min_segment``), which has
    the closed form ``2**bitlen(lo XOR (hi-1))``.  Only the *order* of
    transactions (first-touching-thread order within each half-warp) is
    greedy, and it is recovered from each group's first active lane.

    The active lanes are extracted and sorted by (half-warp row,
    address) *once*; every config then derives its windows from the
    shared sorted order, so the paper's three-granularity sweep
    (Fig. 11) costs one sort, not three.  Unaligned accesses fall back
    to the scalar protocol row by row.
    """
    if access_bytes <= 0:
        raise ModelError("access_bytes must be positive")
    if not configs:
        return []
    halfwarp = configs[0].halfwarp
    if any(config.halfwarp != halfwarp for config in configs):
        raise ModelError("coalesce_warp_multi configs must share a halfwarp")
    addresses = np.asarray(addresses, dtype=np.int64)
    num_warps, warp_size = addresses.shape
    if active is None:
        positions = _arange(addresses.size)
        addr = addresses.ravel()
    else:
        active = np.asarray(active, dtype=bool)
        positions = np.flatnonzero(active)
        if len(positions) == 0:
            zeros = np.zeros(num_warps, dtype=np.int64)
            empty = [()] * num_warps
            return [
                (zeros, zeros, 0, 0, empty if want_segments_at == i else None)
                for i, config in enumerate(configs)
            ]
        addr = addresses.ravel()[positions]
    if not aligned and access_bytes != 1 and np.any(addr % access_bytes):
        if active is None:
            active = np.ones(addresses.shape, dtype=bool)
        results = []
        for i, config in enumerate(configs):
            counts, nbytes, segments = _scalar_rows(
                addresses, active, access_bytes, config
            )
            results.append(
                (
                    counts,
                    nbytes,
                    int(counts.sum()),
                    int(nbytes.sum()),
                    segments if want_segments_at == i else None,
                )
            )
        return results

    halves = -(-warp_size // halfwarp)
    # One shared sort by (half-warp group, address): group ids ride the
    # key's top bits (addresses are far below 2**48), so a single fused
    # int64 key sorts both without scanning for the address range.
    if active is None:
        shifted = _full_group_rows(num_warps, warp_size, halfwarp)
        group_row = shifted >> _GROUP_SHIFT
    else:
        group_row = (positions // warp_size) * halves + (
            positions % warp_size
        ) // halfwarp
        shifted = group_row << _GROUP_SHIFT
    order = (shifted + addr).argsort()
    g_sorted = group_row[order]
    a_sorted = addr[order]
    n = len(order)
    group_edge = np.empty(n, dtype=bool)
    group_edge[0] = True
    np.not_equal(g_sorted[1:], g_sorted[:-1], out=group_edge[1:])

    # Configs sharing a start_size (e.g. the paper's 32B and 16B
    # granularities, both served from 128B initial windows) share their
    # whole transaction partition; only the size floor differs.
    partitions: dict[int, tuple] = {}

    def partition(start_size: int) -> tuple:
        cached = partitions.get(start_size)
        if cached is not None:
            return cached
        window = a_sorted // start_size
        first = group_edge.copy()
        first[1:] |= window[1:] != window[:-1]
        starts = np.flatnonzero(first)
        warp_of_txn = g_sorted[starts] // halves
        # Addresses are sorted within each group, so each group's span
        # is its first and last sorted entry.
        lo = a_sorted[starts]
        if start_size == access_bytes:
            # Every window holds exactly one aligned word: the segment
            # *is* the window (the paper's "ideal" 4B granularity).
            cover = None
        else:
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:] - 1
            ends[-1] = n - 1
            hi = a_sorted[ends] + access_bytes
            # Smallest aligned power-of-two block covering [lo, hi):
            # 2**bitlen(lo ^ (hi - 1)), with bitlen from frexp's exact
            # exponent (spans < 2**53).
            spread = (lo ^ (hi - 1)).astype(np.float64)
            cover = np.left_shift(1, np.frexp(spread)[1])
        cached = (starts, warp_of_txn, lo, cover)
        partitions[start_size] = cached
        return cached

    results = []
    for index, config in enumerate(configs):
        start_size = _start_size(access_bytes, config)
        if start_size % access_bytes:
            counts, nbytes, segments = _scalar_rows(
                addresses, active, access_bytes, config
            )
            results.append(
                (
                    counts,
                    nbytes,
                    int(counts.sum()),
                    int(nbytes.sum()),
                    segments if want_segments_at == index else None,
                )
            )
            continue
        floor = max(config.min_segment, access_bytes)
        starts, warp_of_txn, lo, cover = partition(start_size)
        total_txns = len(starts)
        if cover is None and floor == access_bytes:
            size = None  # uniform access_bytes-sized segments
            total_bytes = total_txns * access_bytes
        else:
            size = (
                np.maximum(cover, floor)
                if cover is not None
                else np.full(total_txns, floor, dtype=np.int64)
            )
            total_bytes = int(size.sum())
        counts = np.bincount(warp_of_txn, minlength=num_warps)
        if size is None:
            nbytes = counts * access_bytes
        else:
            nbytes = np.bincount(
                warp_of_txn, weights=size, minlength=num_warps
            ).astype(np.int64)

        segment_lists = None
        if want_segments_at == index:
            if size is None:
                base = lo
                size = np.full(total_txns, access_bytes, dtype=np.int64)
            else:
                base = lo & ~(size - 1)
            first_pos = np.minimum.reduceat(positions[order], starts)
            # warp_of_txn is non-decreasing, so one fused key recovers
            # (warp, first active lane) emission order; warp boundaries
            # then come from the per-warp counts.
            emit = np.argsort(warp_of_txn * (num_warps * warp_size) + first_pos)
            bases = base[emit].tolist()
            sizes = size[emit].tolist()
            segment_lists = []
            stop = 0
            for count in counts.tolist():
                first = stop
                stop += count
                segment_lists.append(
                    tuple(zip(bases[first:stop], sizes[first:stop]))
                )
        results.append((counts, nbytes, total_txns, total_bytes, segment_lists))
    return results


def bytes_transferred(transactions: Iterable[Transaction]) -> int:
    """Total bytes moved by a list of transactions."""
    return sum(t.size for t in transactions)
