"""Spec-keyed on-disk caching for calibration tables.

Calibration (the Fig. 2 microbenchmark sweeps) dominates CLI start-up:
tens of seconds to answer questions the analytical model then settles in
microseconds.  The tables only depend on the architecture spec and the
sweep configuration, so they are cached per spec: the baseline GT200
keeps its historical ``~/.cache/repro/calibration.json`` path, every
other spec -- registered generations (:mod:`repro.arch.registry`) and
ad-hoc what-if specs alike -- gets its own
``calibration-<name-or-fingerprint>.json`` file, so sweeping the
registry (``repro specs crossval``) never thrashes one shared file.
Override the cache root with ``REPRO_CACHE_DIR``; entries are
invalidated whenever the spec fingerprint, the sweep parameters or the
package's source (:func:`repro.util.source_digest`) change.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.arch.registry import registered_name
from repro.arch.specs import GTX285, GpuSpec
from repro.hw.gpu import HardwareGpu
from repro.micro.calibration import CalibrationTables, start_calibrate
from repro.micro.instruction import warp_counts_for
from repro.pool import Pending
from repro.util import (
    CACHE_DIR_ENV,
    atomic_write_bytes,
    source_digest,
    spec_fingerprint,
)
from repro.util import default_cache_dir as _default_cache_root

__all__ = [
    "CACHE_DIR_ENV",
    "default_cache_dir",
    "default_calibration_path",
    "default_measure_cache_dir",
    "default_trace_cache_dir",
    "load_or_calibrate",
    "save_calibration",
    "start_load_or_calibrate",
]


def default_cache_dir() -> Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``.

    The resolution itself lives in :func:`repro.util.default_cache_dir`
    (shared with the trace and measured-run caches); this wrapper
    keeps the historical :class:`~pathlib.Path` return type.
    """
    return Path(_default_cache_root())


def default_calibration_path(spec: GpuSpec | None = None) -> Path:
    """Per-spec calibration cache file.

    The baseline (``None`` or the GT200 spec) keeps the historical
    ``calibration.json`` name; other specs are keyed by their registry
    name when registered (``calibration-fermi-like.json``) or by a
    fingerprint prefix otherwise, so distinct architectures never
    overwrite each other's tables.
    """
    if spec is None or spec_fingerprint(spec) == spec_fingerprint(GTX285):
        return default_cache_dir() / "calibration.json"
    stem = registered_name(spec) or spec_fingerprint(spec)[:12]
    return default_cache_dir() / f"calibration-{stem}.json"


def default_trace_cache_dir() -> Path:
    """Directory for the simulation engine's KernelTrace memo cache."""
    return default_cache_dir() / "traces"


def default_measure_cache_dir() -> Path:
    """Directory for the timing layer's MeasuredRun memo cache."""
    return default_cache_dir() / "measured"


def _sweep_key(warp_counts: tuple[int, ...], iterations: int) -> list:
    return [list(warp_counts), iterations]


def load_or_calibrate(
    gpu: HardwareGpu | None = None,
    path: str | os.PathLike | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
    force: bool = False,
    on_calibrate=None,
) -> CalibrationTables:
    """Cached calibration tables:
    ``start_load_or_calibrate(...).collect()``."""
    return start_load_or_calibrate(
        gpu,
        path=path,
        warp_counts=warp_counts,
        iterations=iterations,
        force=force,
        on_calibrate=on_calibrate,
    ).collect()


def start_load_or_calibrate(
    gpu: HardwareGpu | None = None,
    path: str | os.PathLike | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
    force: bool = False,
    on_calibrate=None,
) -> Pending:
    """Cached calibration tables, or a started calibration that caches
    them when collected.

    Microbenchmarks re-run only when the cache is missing, malformed,
    or keyed to a different spec or sweep configuration; the sweep then
    runs on ``gpu``'s pool until the returned :class:`Pending` is
    collected (:func:`repro.micro.calibration.start_calibrate`).  The
    default ``path`` is the per-spec cache file
    (:func:`default_calibration_path`), and ``warp_counts=None``
    resolves to the spec's sweep grid, so every registered architecture
    calibrates and caches independently.  ``on_calibrate`` is invoked
    (with no args) right before an actual calibration run -- missing
    *or* invalidated cache -- so callers can surface slow-path
    progress."""
    gpu = gpu or HardwareGpu()
    if warp_counts is None:
        warp_counts = warp_counts_for(gpu.spec)
    target = (
        Path(path) if path is not None else default_calibration_path(gpu.spec)
    )
    fingerprint = spec_fingerprint(gpu.spec)
    sweep = _sweep_key(warp_counts, iterations)

    from repro import obs

    if not force:
        tables = _try_load(target, gpu, fingerprint, sweep)
        if tables is not None:
            obs.metrics.inc("cache.calibration.hits")
            return Pending.of(tables)
    obs.metrics.inc("cache.calibration.misses")

    if on_calibrate is not None:
        on_calibrate()
    with obs.span(
        "micro.calibrate",
        spec=getattr(gpu.spec, "name", None),
        iterations=iterations,
    ):
        started = start_calibrate(
            gpu, warp_counts=warp_counts, iterations=iterations
        )

    def store(tables: CalibrationTables) -> CalibrationTables:
        save_calibration(tables, target, fingerprint, sweep)
        obs.metrics.inc("cache.calibration.stores")
        return tables

    return started.then(store)


def save_calibration(
    tables: CalibrationTables,
    path: Path,
    fingerprint: str,
    sweep: list,
) -> None:
    payload = {
        "version": source_digest(),
        "spec": fingerprint,
        "sweep": sweep,
        "tables": json.loads(tables.to_json()),
    }
    atomic_write_bytes(path, json.dumps(payload, indent=2).encode())


def _try_load(
    path: Path, gpu: HardwareGpu, fingerprint: str, sweep: list
) -> CalibrationTables | None:
    try:
        payload = json.loads(path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("version") != source_digest():
        return None
    if payload.get("spec") != fingerprint or payload.get("sweep") != sweep:
        return None
    try:
        return CalibrationTables.from_json(
            json.dumps(payload["tables"]), gpu=gpu
        )
    except Exception:
        return None
