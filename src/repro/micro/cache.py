"""Content-keyed on-disk store for calibration tables.

Calibration (the Fig. 2 microbenchmark sweeps) dominates CLI start-up:
seconds to answer questions the analytical model then settles in
microseconds.  The tables depend only on what they were measured on
and how: the architecture spec, the timing configuration
(:class:`repro.hw.config.HwConfig`) and the sweep ``[warp_counts,
iterations]``.  Each such key gets one file,
``calibration-<hash>.json`` at the cache root (``$REPRO_CACHE_DIR`` or
``~/.cache/repro``), in the one calibration file format
(:meth:`~repro.micro.calibration.CalibrationTables.save`).  The
package's source digest (:func:`repro.util.source_digest`) is checked
inside the file, so a source edit rewrites the file in place rather
than adding another.  Reads fail open: any file the validator
(:meth:`~repro.micro.calibration.CalibrationTables.load`) refuses, or
that cannot be parsed, means recalibrate.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.errors import CalibrationError
from repro.hw.config import config_fingerprint
from repro.hw.gpu import HardwareGpu
from repro.micro.calibration import CalibrationTables, start_calibrate, sweep_key
from repro.micro.instruction import warp_counts_for
from repro.pool import Pending
from repro.util import CACHE_DIR_ENV, default_cache_dir, spec_fingerprint

__all__ = [
    "CACHE_DIR_ENV",
    "default_cache_dir",
    "default_calibration_path",
    "default_measure_cache_dir",
    "default_trace_cache_dir",
    "load_or_calibrate",
    "start_load_or_calibrate",
]


def default_calibration_path(
    gpu: HardwareGpu | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
    cache_dir: str | os.PathLike | None = None,
) -> Path:
    """The store's file for ``gpu``'s spec and timing configuration
    and the sweep ``[warp_counts, iterations]``.

    ``warp_counts=None`` resolves to the spec's sweep grid and
    ``cache_dir=None`` to the cache root.
    """
    gpu = gpu or HardwareGpu()
    if warp_counts is None:
        warp_counts = warp_counts_for(gpu.spec)
    key = [
        spec_fingerprint(gpu.spec),
        config_fingerprint(gpu.config),
        sweep_key(warp_counts, iterations),
    ]
    digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()[:16]
    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    return root / f"calibration-{digest}.json"


def default_trace_cache_dir() -> Path:
    """Directory for the simulation engine's KernelTrace memo cache."""
    return default_cache_dir() / "traces"


def default_measure_cache_dir() -> Path:
    """Directory for the timing layer's MeasuredRun memo cache."""
    return default_cache_dir() / "measured"


def load_or_calibrate(
    gpu: HardwareGpu | None = None,
    cache_dir: str | os.PathLike | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
    on_calibrate=None,
) -> CalibrationTables:
    """Cached calibration tables:
    ``start_load_or_calibrate(...).collect()``."""
    return start_load_or_calibrate(
        gpu,
        cache_dir=cache_dir,
        warp_counts=warp_counts,
        iterations=iterations,
        on_calibrate=on_calibrate,
    ).collect()


def start_load_or_calibrate(
    gpu: HardwareGpu | None = None,
    cache_dir: str | os.PathLike | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
    on_calibrate=None,
) -> Pending:
    """Cached calibration tables, or a started calibration that stores
    them in ``cache_dir`` (default: the cache root) when collected.

    Microbenchmarks re-run only when the store has no valid file for
    ``gpu`` and the sweep (:func:`default_calibration_path`); the sweep
    then runs on ``gpu``'s pool until the returned :class:`Pending` is
    collected (:func:`repro.micro.calibration.start_calibrate`).
    ``warp_counts=None`` resolves to the spec's sweep grid, so every
    registered architecture calibrates and caches independently.
    ``on_calibrate`` is invoked (with no args) right before an actual
    calibration run -- missing *or* refused file -- so callers can
    surface slow-path progress."""
    from repro import obs

    gpu = gpu or HardwareGpu()
    if warp_counts is None:
        warp_counts = warp_counts_for(gpu.spec)
    path = default_calibration_path(gpu, warp_counts, iterations, cache_dir)
    sweep = sweep_key(warp_counts, iterations)
    try:
        tables = CalibrationTables.load(path, gpu=gpu, sweep=sweep)
    except CalibrationError:
        obs.metrics.inc("cache.calibration.misses")
    else:
        obs.metrics.inc("cache.calibration.hits")
        return Pending.of(tables)

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
        tables.save(path, sweep)
        obs.metrics.inc("cache.calibration.stores")
        return tables

    return started.then(store)
