"""Persisted per-machine tuning profiles and the one resolution helper.

The execution engine used to run on two magic numbers --
``HardwareGpu.min_parallel_events`` (the serial/pool crossover of the
timing layer) and ``FunctionalSimulator``'s ``grid_batch_blocks`` (the
batched interpreter's slab width) -- fixed at 50 000 and 32 for
every machine, spec and kernel shape.  This module makes both *measured
and persisted* instead: the tuners (:mod:`repro.tune.events`,
:mod:`repro.tune.slab`) write a :class:`TuningProfile` keyed by
(machine fingerprint, spec fingerprint) under the shared cache root,
and every consumption site resolves its value through :func:`resolve`
with one documented precedence:

    explicit kwarg  >  environment override  >  tuning profile  >
    built-in default

Environment overrides are the ``$REPRO_TUNE_<PARAM>`` family, one
variable per parameter.  Every layer fails open: an unparsable env
value or a malformed profile entry emits a ``RuntimeWarning`` and falls
through to the next source, and numeric values are clamped to the
parameter's floor -- a bad profile can cost performance, never
correctness (both knobs are pure schedule choices; results are
bit-identical at any setting).

Profiles ride the same :class:`repro.util.VersionedPickleCache`
protocol as the trace and measured-run caches: payloads versioned by
the package's source digest, fail-open loads, atomic stores followed by
``$REPRO_CACHE_MAX_BYTES`` LRU eviction.  This module depends only on
:mod:`repro.util` so the simulators can import it without cycles.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
import time
import warnings
from dataclasses import dataclass, field

from repro.util import VersionedPickleCache, default_cache_dir

#: Environment variable overriding the profile directory (tests, CI).
TUNE_DIR_ENV = "REPRO_TUNE_DIR"

#: The tunable parameters, their built-in defaults (the historical
#: constants) and floors.  These are the ONLY places the old magic
#: numbers live now; `hw.gpu` and `sim.functional` resolve through
#: :func:`resolve`.
BUILTIN_DEFAULTS = {
    "grid_batch_blocks": 32,
    "min_parallel_events": 50_000,
}

PARAM_FLOORS = {
    "grid_batch_blocks": 1,
    "min_parallel_events": 0,
}

#: Environment override variable per parameter.
ENV_OVERRIDES = {
    "grid_batch_blocks": "REPRO_TUNE_GRID_BATCH_BLOCKS",
    "min_parallel_events": "REPRO_TUNE_MIN_PARALLEL_EVENTS",
}

_UNSET = object()


def machine_fingerprint() -> str:
    """A stable identifier of the machine the tuners measured.

    Hostname, architecture, Python implementation/version and core
    count: the factors that move the measured costs.  Deliberately
    cheap and deterministic -- two runs on one box must agree.
    """
    return "|".join(
        (
            platform.node() or "unknown-host",
            platform.machine() or "unknown-arch",
            platform.python_implementation(),
            f"{sys.version_info[0]}.{sys.version_info[1]}",
            f"cpus={os.cpu_count() or 1}",
        )
    )


def default_tune_dir() -> str:
    """Profile directory: ``$REPRO_TUNE_DIR`` or ``<cache root>/tune``."""
    override = os.environ.get(TUNE_DIR_ENV)
    if override:
        return override
    return os.path.join(default_cache_dir(), "tune")


def profile_key(machine: str, spec_fp: str) -> str:
    """On-disk key of one (machine, spec) profile."""
    h = hashlib.sha256()
    h.update(machine.encode())
    h.update(b"|")
    h.update(spec_fp.encode())
    return h.hexdigest()[:32]


@dataclass(frozen=True)
class TuningProfile:
    """Measured engine-tuning values for one (machine, spec) pair.

    ``min_parallel_events`` maps a measured pool width to the event
    count where pooled cluster simulation starts beating serial replay;
    ``grid_batch_blocks`` maps warps-per-block to the measured slab
    sweet spot, with ``default_grid_batch_blocks`` covering shapes the
    tuner did not measure.  ``meta`` carries the raw measurements
    (per-event cost, pool startup, per-candidate timings) for
    ``repro tune show``.
    """

    machine: str
    spec: str  # spec fingerprint (repro.util.spec_fingerprint)
    created: str  # ISO timestamp, informational only
    min_parallel_events: dict = field(default_factory=dict)
    grid_batch_blocks: dict = field(default_factory=dict)
    default_grid_batch_blocks: int | None = None
    default_min_parallel_events: int | None = None
    meta: dict = field(default_factory=dict)

    def lookup(
        self,
        param: str,
        workers: int | None = None,
        warps_per_block: int | None = None,
    ):
        """The profile's raw value for one parameter, or ``None``.

        ``grid_batch_blocks``: the entry for ``warps_per_block`` when
        measured, else the profile-wide default.
        ``min_parallel_events``: the entry for the widest measured pool
        not wider than ``workers`` (the crossover shrinks as width
        grows, so the nearest-below entry is the conservative pick);
        with no such entry, the narrowest measured one; with no
        ``workers`` context, the profile-wide default.
        """
        if param == "grid_batch_blocks":
            table = self.grid_batch_blocks or {}
            if warps_per_block is not None and warps_per_block in table:
                return table[warps_per_block]
            return self.default_grid_batch_blocks
        if param == "min_parallel_events":
            table = self.min_parallel_events or {}
            if workers is not None and workers > 1 and table:
                try:
                    measured = sorted(int(k) for k in table)
                except (TypeError, ValueError):
                    return None  # malformed keys: fail open
                below = [k for k in measured if k <= workers]
                pick = below[-1] if below else measured[0]
                return table.get(pick, table.get(str(pick)))
            return self.default_min_parallel_events
        raise KeyError(f"unknown tuning parameter {param!r}")


class TuneProfileCache(VersionedPickleCache):
    """Pickled :class:`TuningProfile` store (one file per machine+spec).

    Shared mechanics -- payloads versioned by the source digest, so
    profiles written by other code are ignored, fail-open loads, atomic
    stores under the ``$REPRO_CACHE_MAX_BYTES`` LRU budget -- come from
    :class:`repro.util.VersionedPickleCache`.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        super().__init__(directory, ".tune.pkl")

    def load(self, key: str) -> TuningProfile | None:
        profile = self.load_payload(key)
        return profile if isinstance(profile, TuningProfile) else None

    def store(self, key: str, profile: TuningProfile) -> None:
        self.store_payload(key, profile)


#: Per-process memo of profile loads, keyed by (directory, machine,
#: spec fingerprint) and validated against the file's mtime on every
#: lookup -- constructions are frequent (calibration builds thousands
#: of simulators), so resolve() must cost a stat, not an unpickle.
_PROFILE_MEMO: dict = {}


def load_profile(
    spec_fp: str,
    directory: str | os.PathLike | None = None,
    machine: str | None = None,
) -> TuningProfile | None:
    """The persisted profile for this machine and spec, or ``None``.

    Memoized per process: repeat lookups cost one ``os.stat`` unless
    the file changed (a ``save_profile`` here or in another process
    bumps the mtime, invalidating the memo entry).
    """
    directory = default_tune_dir() if directory is None else os.fspath(directory)
    machine = machine_fingerprint() if machine is None else machine
    cache = TuneProfileCache(directory)
    key = profile_key(machine, spec_fp)
    path = cache._path(key)
    try:
        stamp = os.stat(path).st_mtime_ns
    except OSError:
        stamp = None
    memo_key = (os.path.abspath(directory), machine, spec_fp)
    memo = _PROFILE_MEMO.get(memo_key)
    if memo is not None and memo[0] == stamp:
        return memo[1]
    profile = cache.load(key) if stamp is not None else None
    try:
        # Re-stat: the fail-open load refreshes the file's mtime (LRU
        # recency), so the memo must stamp the post-load state.
        stamp = os.stat(path).st_mtime_ns
    except OSError:
        stamp = None
    _PROFILE_MEMO[memo_key] = (stamp, profile)
    return profile


def save_profile(
    profile: TuningProfile,
    directory: str | os.PathLike | None = None,
) -> str:
    """Persist a profile (atomic, fail-open); returns its target path."""
    directory = default_tune_dir() if directory is None else os.fspath(directory)
    cache = TuneProfileCache(directory)
    key = profile_key(profile.machine, profile.spec)
    cache.store(key, profile)
    # Drop the stale memo entry now rather than trusting mtime
    # granularity to catch a same-tick overwrite.
    _PROFILE_MEMO.pop(
        (os.path.abspath(directory), profile.machine, profile.spec), None
    )
    return cache._path(key)


def new_profile(
    spec_fp: str,
    min_parallel_events: dict,
    grid_batch_blocks: dict,
    default_grid_batch_blocks: int | None = None,
    default_min_parallel_events: int | None = None,
    meta: dict | None = None,
) -> TuningProfile:
    """A profile stamped with this machine's fingerprint and the time."""
    return TuningProfile(
        machine=machine_fingerprint(),
        spec=spec_fp,
        created=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        min_parallel_events=dict(min_parallel_events),
        grid_batch_blocks=dict(grid_batch_blocks),
        default_grid_batch_blocks=default_grid_batch_blocks,
        default_min_parallel_events=default_min_parallel_events,
        meta=dict(meta or {}),
    )


# ----------------------------------------------------------------------
# resolution
# ----------------------------------------------------------------------
def _coerce(param: str, value, source: str) -> int | None:
    """Validate one candidate value; clamp to floor, warn on garbage."""
    try:
        coerced = int(value)
    except (TypeError, ValueError):
        warnings.warn(
            f"ignoring {source} value {value!r} for tuning parameter "
            f"{param!r} (not an integer); falling through",
            RuntimeWarning,
            stacklevel=4,
        )
        return None
    return max(PARAM_FLOORS[param], coerced)


def resolve_with_source(
    param: str,
    kwarg=None,
    spec=None,
    workers: int | None = None,
    warps_per_block: int | None = None,
    profile=_UNSET,
    directory: str | os.PathLike | None = None,
) -> tuple[int, str]:
    """Resolve one tuning parameter plus where its value came from.

    Precedence: explicit ``kwarg`` > environment override > persisted
    profile > built-in default.  ``spec`` (a ``GpuSpec`` or an already
    computed fingerprint string) keys the profile lookup; without one,
    the profile layer is skipped.  ``profile`` short-circuits the disk
    read: pass a :class:`TuningProfile` to resolve against it, or
    ``None`` to disable the profile layer outright.
    """
    if param not in BUILTIN_DEFAULTS:
        raise KeyError(f"unknown tuning parameter {param!r}")
    if kwarg is not None:
        value = _coerce(param, kwarg, "kwarg")
        if value is not None:
            return value, "kwarg"
    name = ENV_OVERRIDES[param]
    raw = os.environ.get(name)
    if raw:
        value = _coerce(param, raw, f"${name}")
        if value is not None:
            return value, f"env:{name}"
    if profile is _UNSET:
        profile = _load_for_spec(spec, directory)
    if profile is not None:
        try:
            raw = profile.lookup(
                param, workers=workers, warps_per_block=warps_per_block
            )
        except Exception:
            raw = None
            warnings.warn(
                f"malformed tuning profile entry for {param!r}; "
                "falling back to the built-in default",
                RuntimeWarning,
                stacklevel=3,
            )
        if raw is not None:
            value = _coerce(param, raw, "profile")
            if value is not None:
                return value, "profile"
    return BUILTIN_DEFAULTS[param], "default"


def resolve(
    param: str,
    kwarg=None,
    spec=None,
    workers: int | None = None,
    warps_per_block: int | None = None,
    profile=_UNSET,
    directory: str | os.PathLike | None = None,
) -> int:
    """:func:`resolve_with_source` without the provenance."""
    value, _ = resolve_with_source(
        param,
        kwarg=kwarg,
        spec=spec,
        workers=workers,
        warps_per_block=warps_per_block,
        profile=profile,
        directory=directory,
    )
    return value


#: Spec-fingerprint memo: specs are frozen dataclasses but carry dict
#: fields (unhashable), so key on id() while holding a strong reference
#: to pin the identity.  Bounded: the process only ever sees a handful
#: of distinct specs.
_SPEC_FP_MEMO: dict = {}


def _spec_fp(spec) -> str:
    memo = _SPEC_FP_MEMO.get(id(spec))
    if memo is not None and memo[0] is spec:
        return memo[1]
    from repro.util import spec_fingerprint

    fingerprint = spec_fingerprint(spec)
    if len(_SPEC_FP_MEMO) >= 64:
        _SPEC_FP_MEMO.clear()
    _SPEC_FP_MEMO[id(spec)] = (spec, fingerprint)
    return fingerprint


def _load_for_spec(spec, directory) -> TuningProfile | None:
    """Disk lookup for :func:`resolve`; any failure means no profile."""
    if spec is None:
        return None
    if isinstance(spec, str):
        spec_fp = spec
    else:
        try:
            spec_fp = _spec_fp(spec)
        except Exception:
            return None
    try:
        return load_profile(spec_fp, directory=directory)
    except Exception:
        return None
