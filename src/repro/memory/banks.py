"""Shared-memory bank-conflict analysis (paper Section 4.2).

Shared memory on the GTX 285 has 16 banks of 4-byte words; adjacent
words live in adjacent banks.  A half-warp's access is serialized into
as many transactions as the most-contended bank has *distinct* words
(threads reading the same word are served by the broadcast path).
Barra does not collect bank-conflict information; the paper wrote a
separate tool to derive the effective number of shared-memory
transactions -- this module is that tool.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

import numpy as np

from repro.arch.specs import HALF_WARP
from repro.errors import ModelError


@dataclass(frozen=True)
class BankConfig:
    """Bank layout of one SM's shared memory."""

    num_banks: int = 16
    bank_width: int = 4  # bytes
    halfwarp: int = HALF_WARP

    def __post_init__(self) -> None:
        if self.num_banks <= 0 or self.bank_width <= 0:
            raise ModelError("bank counts and widths must be positive")

    def bank_of(self, address: int) -> int:
        return (address // self.bank_width) % self.num_banks

    def word_of(self, address: int) -> int:
        return address // self.bank_width


DEFAULT_BANKS = BankConfig()


def conflict_degree(
    addresses: Sequence[int], config: BankConfig = DEFAULT_BANKS
) -> int:
    """Serialization factor for one half-warp's shared access.

    Returns the number of transactions needed: the maximum, over banks,
    of the number of distinct words requested in that bank.  Zero active
    addresses cost zero transactions; a broadcast (all threads reading
    one word) costs one.
    """
    if not addresses:
        return 0
    words_per_bank: dict[int, set[int]] = {}
    for address in addresses:
        word = config.word_of(int(address))
        words_per_bank.setdefault(word % config.num_banks, set()).add(word)
    return max(len(words) for words in words_per_bank.values())


def halfwarp_transactions(
    addresses: Sequence[int],
    active: Sequence[bool] | None = None,
    config: BankConfig = DEFAULT_BANKS,
) -> tuple[int, int]:
    """(actual, conflict-free) transaction counts for one half-warp."""
    if active is not None:
        addresses = [a for a, on in zip(addresses, active) if on]
    if not addresses:
        return 0, 0
    return conflict_degree(addresses, config), 1


def warp_transactions(
    addresses: "Sequence[int] | np.ndarray",
    active: "Sequence[bool] | np.ndarray | None" = None,
    config: BankConfig = DEFAULT_BANKS,
) -> "tuple[int, int] | tuple[np.ndarray, np.ndarray]":
    """(actual, conflict-free) transaction counts for a full warp.

    Each half-warp is serviced independently, as on GT200 hardware.
    A 2-D ``(num_warps, warp_size)`` address array batches the analysis
    over many warps at once; the result is then a pair of per-warp
    count *arrays*, row ``w`` equal to the scalar call on row ``w``.
    """
    if getattr(addresses, "ndim", 1) == 2:
        return warp_transactions_batch(addresses, active, config)
    n = len(addresses)
    if active is None:
        active = [True] * n
    actual = 0
    ideal = 0
    for start in range(0, n, config.halfwarp):
        group = [
            int(addresses[i])
            for i in range(start, min(start + config.halfwarp, n))
            if active[i]
        ]
        got, want = halfwarp_transactions(group, config=config)
        actual += got
        ideal += want
    return actual, ideal


def conflict_degree_batch(
    addresses: np.ndarray,
    active: np.ndarray | None = None,
    config: BankConfig = DEFAULT_BANKS,
) -> np.ndarray:
    """Per-row serialization factors for a ``(rows, threads)`` batch.

    Row ``r`` equals ``conflict_degree`` of row ``r``'s active
    addresses: the maximum, over banks, of the distinct words requested
    in that bank (zero when the row has no active thread).
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    rows, _ = addresses.shape
    if active is None:
        active = np.ones(addresses.shape, dtype=bool)
    else:
        active = np.asarray(active, dtype=bool)
    flat_active = active.ravel()
    if not flat_active.any():
        return np.zeros(rows, dtype=np.int64)
    row_of = np.repeat(np.arange(rows, dtype=np.int64), addresses.shape[1])
    row_ids = row_of[flat_active]
    words = (addresses.ravel() // config.bank_width)[flat_active]
    banks = words % config.num_banks
    # Distinct (row, bank, word) triples, then the per-(row, bank)
    # distinct-word counts, then the per-row maximum over banks.
    order = np.lexsort((words, banks, row_ids))
    r, b, w = row_ids[order], banks[order], words[order]
    first = np.ones(len(r), dtype=bool)
    first[1:] = (r[1:] != r[:-1]) | (b[1:] != b[:-1]) | (w[1:] != w[:-1])
    slot = r[first] * config.num_banks + b[first]
    counts = np.bincount(slot, minlength=rows * config.num_banks)
    return counts.reshape(rows, config.num_banks).max(axis=1)


def warp_transactions_batch(
    addresses: np.ndarray,
    active: np.ndarray | None = None,
    config: BankConfig = DEFAULT_BANKS,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-warp (actual, conflict-free) counts for a ``(W, 32)`` batch.

    Vectorized sibling of :func:`warp_transactions`: each warp row is
    split into independent half-warps and analysed in one pass over the
    whole batch, so the functional simulator's block-wide interpreter
    pays one NumPy dispatch instead of one Python call per warp.
    """
    addresses = np.asarray(addresses, dtype=np.int64)
    num_warps, warp_size = addresses.shape
    if active is None:
        active = np.ones(addresses.shape, dtype=bool)
    else:
        active = np.asarray(active, dtype=bool)
    halves = -(-warp_size // config.halfwarp)
    # Pad the lane axis so every half-warp group is full-width, then
    # fold (warp, half) into the batch row axis.
    padded = halves * config.halfwarp
    if padded != warp_size:
        pad = ((0, 0), (0, padded - warp_size))
        addresses = np.pad(addresses, pad)
        active = np.pad(active, pad)
    grouped_addresses = addresses.reshape(num_warps * halves, config.halfwarp)
    grouped_active = active.reshape(num_warps * halves, config.halfwarp)
    actual = conflict_degree_batch(grouped_addresses, grouped_active, config)
    ideal = grouped_active.any(axis=1).astype(np.int64)
    return (
        actual.reshape(num_warps, halves).sum(axis=1),
        ideal.reshape(num_warps, halves).sum(axis=1),
    )


def stride_conflict_degree(
    stride_words: int, threads: int = HALF_WARP, config: BankConfig = DEFAULT_BANKS
) -> int:
    """Conflict degree of a regular strided pattern (analysis helper).

    Cyclic reduction's step ``k`` accesses shared memory with a stride of
    ``2**k`` words, giving ``min(2**k, num_banks)``-way conflicts
    (paper Fig. 5) as long as enough threads are active.
    """
    if threads <= 0:
        return 0
    addresses = [i * stride_words * config.bank_width for i in range(threads)]
    return conflict_degree(addresses, config)
