"""Cycle-approximate hardware timing simulator (the silicon stand-in)."""

from repro.hw.cluster import ClusterResult, ClusterSimulator, simulate_cluster
from repro.hw.config import (
    DEFAULT_HW,
    HwConfig,
    cluster_bytes_per_cycle,
    config_fingerprint,
    deterministic_jitter,
    issue_intervals,
)
from repro.hw.engine import (
    MeasuredRunCache,
    simulate_clusters,
    stream_digest,
)
from repro.hw.gpu import HardwareGpu, MeasuredRun
from repro.hw.texcache import TextureCache

__all__ = [
    "ClusterResult",
    "ClusterSimulator",
    "DEFAULT_HW",
    "HardwareGpu",
    "HwConfig",
    "MeasuredRun",
    "MeasuredRunCache",
    "TextureCache",
    "cluster_bytes_per_cycle",
    "config_fingerprint",
    "deterministic_jitter",
    "issue_intervals",
    "simulate_cluster",
    "simulate_clusters",
    "stream_digest",
]
