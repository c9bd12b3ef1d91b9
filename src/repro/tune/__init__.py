"""Measured-cost auto-tuning: profiles, tuners, and the trend reporter.

The package replaces the engine's fixed heuristics with measured,
persisted per-machine tuning profiles (see :mod:`repro.tune.profile`
for the precedence rules).  Import surface:

* :func:`resolve` / :func:`resolve_with_source` -- the one resolution
  helper every consumption site (``HardwareGpu``,
  ``FunctionalSimulator``, ``SimulationEngine``) goes through;
* :class:`TuningProfile`, :func:`load_profile`, :func:`save_profile`,
  :func:`default_tune_dir` -- the persisted profile store;
* :func:`autotune` -- run both tuners and build a fresh profile
  (imports the measurement modules lazily; they pull in the simulator
  stack, which this package root must not do because the simulators
  import :mod:`repro.tune` themselves);
* :func:`ensure_profile` -- load the machine's profile, running
  :func:`autotune` when there is none (``$REPRO_TUNE_AUTO=0`` or
  ``dry_run=True`` opts out).  The CLI's case commands do not call it:
  the profile changes no result, so a first run no longer pays for a
  measurement; ``repro tune run`` writes a profile on demand.

The tuners live in :mod:`repro.tune.events` (serial/pool crossover) and
:mod:`repro.tune.slab` (grid-batch slab width); the perf-trajectory
reporter in :mod:`repro.tune.trend`.
"""

from __future__ import annotations

from repro.tune.profile import (
    BUILTIN_DEFAULTS,
    ENV_OVERRIDES,
    PARAM_FLOORS,
    TUNE_DIR_ENV,
    TuneProfileCache,
    TuningProfile,
    default_tune_dir,
    load_profile,
    machine_fingerprint,
    new_profile,
    profile_key,
    resolve,
    resolve_with_source,
    save_profile,
)

#: Set to ``0``/``no``/``false``/``off`` to stop :func:`ensure_profile`
#: from measuring on machines where an automatic tuning run is
#: unwelcome (CI, tests, shared boxes); resolution then falls through
#: to the built-in defaults as before.  Only :func:`ensure_profile`
#: reads it.
TUNE_AUTO_ENV = "REPRO_TUNE_AUTO"

__all__ = [
    "BUILTIN_DEFAULTS",
    "ENV_OVERRIDES",
    "PARAM_FLOORS",
    "TUNE_AUTO_ENV",
    "TUNE_DIR_ENV",
    "TuneProfileCache",
    "TuningProfile",
    "autotune",
    "ensure_profile",
    "default_tune_dir",
    "load_profile",
    "machine_fingerprint",
    "new_profile",
    "profile_key",
    "resolve",
    "resolve_with_source",
    "save_profile",
]


def autotune(
    spec=None,
    workers_counts: tuple[int, ...] = (2, 4, 8),
    slab_candidates: tuple[int, ...] | None = None,
    slab_repeats: int = 2,
    events_repeats: int = 3,
    save: bool = True,
    directory=None,
) -> TuningProfile:
    """Measure both tuners and build (optionally persist) a profile.

    The heavyweight imports happen here, not at package import time,
    because ``sim``/``hw`` import :mod:`repro.tune` for :func:`resolve`.
    """
    from repro.arch.specs import GTX285
    from repro.tune.events import tune_min_parallel_events
    from repro.tune.slab import DEFAULT_CANDIDATES, tune_grid_batch_blocks
    from repro.util import spec_fingerprint

    spec = GTX285 if spec is None else spec
    cost, crossovers = tune_min_parallel_events(
        spec, workers_counts=workers_counts, repeats=events_repeats
    )
    slab = tune_grid_batch_blocks(
        candidates=(
            DEFAULT_CANDIDATES if slab_candidates is None else slab_candidates
        ),
        repeats=slab_repeats,
        spec=spec,
    )
    profile = new_profile(
        spec_fp=spec_fingerprint(spec),
        min_parallel_events=crossovers,
        grid_batch_blocks=slab.by_warps,
        default_grid_batch_blocks=slab.default,
        # The narrowest measured pool has the largest crossover; using
        # it as the width-agnostic default keeps unknown widths from
        # paying pool startup they cannot amortize.
        default_min_parallel_events=(
            max(crossovers.values()) if crossovers else None
        ),
        meta={
            "seconds_per_event": cost.seconds_per_event,
            "pool_startup_seconds": cost.pool_startup_seconds,
            "probe_events": cost.probe_events,
            "probe_seconds": cost.probe_seconds,
            "slab_timings": slab.timings,
        },
    )
    if save:
        save_profile(profile, directory=directory)
    return profile


def ensure_profile(
    spec=None,
    directory=None,
    dry_run: bool = False,
    on_tune=None,
    **autotune_kwargs,
) -> TuningProfile | None:
    """This machine's profile, auto-tuning when there is none.

    When no profile exists for the (machine, spec) fingerprint, measure
    one and persist it so every later construction resolves against
    it.  Opt
    out with ``dry_run=True`` or ``$REPRO_TUNE_AUTO=0`` -- both return
    whatever is already on disk (possibly ``None``) without measuring.
    ``on_tune`` is called right before a measurement actually starts,
    for progress messages.
    """
    import os

    from repro import obs
    from repro.arch.specs import GTX285
    from repro.util import spec_fingerprint

    spec = GTX285 if spec is None else spec
    with obs.span("tune.ensure_profile"):
        profile = load_profile(spec_fingerprint(spec), directory=directory)
        if profile is not None:
            return profile
        opted_out = os.environ.get(TUNE_AUTO_ENV, "").strip().lower() in (
            "0",
            "no",
            "false",
            "off",
        )
        if dry_run or opted_out:
            return None
        if on_tune is not None:
            on_tune()
        return autotune(
            spec=spec, save=True, directory=directory, **autotune_kwargs
        )
