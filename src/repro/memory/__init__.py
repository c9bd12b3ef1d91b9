"""Memory-system analyzers: coalescing, bank conflicts, layouts."""

from repro.memory.banks import (
    DEFAULT_BANKS,
    BankConfig,
    conflict_degree,
    conflict_degree_batch,
    halfwarp_transactions,
    stride_conflict_degree,
    warp_transactions,
    warp_transactions_batch,
)
from repro.memory.coalescing import (
    DEFAULT_CONFIG,
    Transaction,
    TransactionConfig,
    bytes_transferred,
    coalesce_halfwarp,
    coalesce_warp,
    coalesce_warp_batch,
    coalesce_warp_multi,
    transaction_count,
)
from repro.memory.layout import (
    deinterleave,
    interleave,
    interleave_permutation,
    pad_array,
    pad_index,
    padded_length,
)

__all__ = [
    "BankConfig",
    "DEFAULT_BANKS",
    "DEFAULT_CONFIG",
    "Transaction",
    "TransactionConfig",
    "bytes_transferred",
    "coalesce_halfwarp",
    "coalesce_warp",
    "coalesce_warp_batch",
    "coalesce_warp_multi",
    "conflict_degree",
    "conflict_degree_batch",
    "deinterleave",
    "halfwarp_transactions",
    "interleave",
    "interleave_permutation",
    "pad_array",
    "pad_index",
    "padded_length",
    "stride_conflict_degree",
    "transaction_count",
    "warp_transactions",
    "warp_transactions_batch",
]
