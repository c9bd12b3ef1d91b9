"""Deterministic fault injection for the execution substrate.

The fault-tolerance machinery (pool retries, serial fallbacks, cache
quarantine -- see DESIGN.md "Failure model") is only trustworthy
if every degraded path is exercised on purpose, repeatably.  This module
owns the injection points the substrate consults:

* ``on_pool_task(index, attempt)`` -- crash the worker process (the
  ``BrokenProcessPool`` path), hang it (the watchdog/timeout path), or
  raise ``KeyboardInterrupt`` (the cleanup path) when a pool task with
  the planned index runs;
* ``on_cache_read(data)`` -- corrupt the bytes of the Nth on-disk cache
  read (the quarantine path);
* ``on_cache_write(path)`` -- raise ``OSError`` on the Nth cache write
  (the fail-open store path).

A :class:`FaultPlan` is *deterministic*: faults key off stable task
indices and per-process call counters, never wall clock or PRNG state at
call time (``seed`` only parameterizes the corruption mask), so a
faulted run is exactly reproducible.  Plans activate two ways:

* programmatically -- ``with faults.injected(crash_task=0): ...`` (or
  ``install``/``clear``), which covers the caller's process and, via
  explicit plan shipping in :mod:`repro.pool`, fork *and* spawn workers;
* ``$REPRO_FAULTS`` -- e.g. ``REPRO_FAULTS="crash_task=0,hang_task=2"``
  -- which child processes inherit regardless of start method; consumed
  by the CI chaos step and the engine_smoke chaos gate.

With no plan installed and no env var set every hook is a cheap no-op;
production runs pay one module-global check per injection point.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

from repro.errors import ReproError

#: Environment variable carrying a fault plan (``key=value`` pairs,
#: comma-separated), e.g. ``REPRO_FAULTS="crash_task=0,corrupt_read=0"``.
FAULTS_ENV = "REPRO_FAULTS"

#: Exit status of a fault-crashed worker (distinctive in core dumps).
CRASH_EXIT_STATUS = 13


class FaultPlanError(ReproError):
    """A fault plan string or field is malformed."""


@dataclass(frozen=True)
class FaultPlan:
    """One deterministic set of faults to inject.

    ``None`` disables an injection point.  Task-keyed faults
    (``crash_task``/``hang_task``/``interrupt_task``) fire on the pool
    task with that index; counter-keyed faults (``corrupt_read``/
    ``fail_write``) fire on the Nth call of the corresponding hook in
    the current process (0-based).
    """

    #: Crash (``os._exit``) the worker executing this pool-task index.
    crash_task: int | None = None
    #: Crash only while the task's attempt number is below this, so
    #: bounded retries can be observed succeeding.  A large value makes
    #: the crash permanent and forces the serial fallback.
    crash_attempts: int = 1
    #: Hang the worker executing this pool-task index.
    hang_task: int | None = None
    #: How long the injected hang sleeps (the watchdog should fire long
    #: before; this bound keeps an unwatched test from stalling forever).
    hang_seconds: float = 120.0
    #: Raise ``KeyboardInterrupt`` inside the worker running this task.
    interrupt_task: int | None = None
    #: Corrupt the bytes of the Nth on-disk cache read.
    corrupt_read: int | None = None
    #: Raise ``OSError`` on the Nth on-disk cache write.
    fail_write: int | None = None
    #: Parameterizes the corruption mask (never read at decision time).
    seed: int = 0

    def any_active(self) -> bool:
        return any(
            getattr(self, f.name) is not None
            for f in fields(self)
            if f.name not in ("crash_attempts", "hang_seconds", "seed")
        )


_INT_FIELDS = frozenset(
    (
        "crash_task",
        "crash_attempts",
        "hang_task",
        "interrupt_task",
        "corrupt_read",
        "fail_write",
        "seed",
    )
)
_FLOAT_FIELDS = frozenset(("hang_seconds",))


def parse_plan(text: str) -> FaultPlan:
    """Parse a ``$REPRO_FAULTS``-style plan string.

    ``"crash_task=0,hang_task=2,hang_seconds=30"`` -> a
    :class:`FaultPlan`; unknown keys and unparsable values raise
    :class:`FaultPlanError` -- a typo in a chaos-test plan must fail
    loudly, not silently test nothing.
    """
    plan: dict = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        key, sep, value = item.partition("=")
        key = key.strip()
        if not sep:
            raise FaultPlanError(f"fault plan item {item!r} is not key=value")
        try:
            if key in _INT_FIELDS:
                plan[key] = int(value)
            elif key in _FLOAT_FIELDS:
                plan[key] = float(value)
            else:
                raise FaultPlanError(f"unknown fault plan key {key!r}")
        except ValueError as exc:
            raise FaultPlanError(
                f"fault plan value {value!r} for {key!r} is not a number"
            ) from exc
    return FaultPlan(**plan)


# ----------------------------------------------------------------------
# activation
# ----------------------------------------------------------------------
_PLAN: FaultPlan | None = None

#: Per-process call counters for the counter-keyed injection points.
_COUNTS = {"cache_read": 0, "cache_write": 0}


def install(plan: FaultPlan | str | None) -> None:
    """Install a plan process-wide (a string is parsed first).

    Overrides ``$REPRO_FAULTS`` for this process; pool workers receive
    the installed plan explicitly (see :mod:`repro.pool`), so spawn
    children honor it too.  Resets the injection counters so repeated
    installs are independent experiments.
    """
    global _PLAN
    _PLAN = parse_plan(plan) if isinstance(plan, str) else plan
    reset_counters()


def clear() -> None:
    """Remove the installed plan (``$REPRO_FAULTS`` applies again)."""
    install(None)


def reset_counters() -> None:
    for key in _COUNTS:
        _COUNTS[key] = 0


def active_plan() -> FaultPlan | None:
    """The plan in effect: installed plan first, then ``$REPRO_FAULTS``.

    Returns ``None`` (every hook no-ops) when neither is set; a present
    but empty env var also means no faults.
    """
    if _PLAN is not None:
        return _PLAN
    text = os.environ.get(FAULTS_ENV)
    if not text:
        return None
    return parse_plan(text)


@contextmanager
def injected(plan: FaultPlan | str | None = None, /, **kwargs):
    """Scoped activation: ``with faults.injected(crash_task=0): ...``.

    Accepts a ready plan, a plan string, or field kwargs; restores the
    previously installed plan (and fresh counters) on exit.
    """
    if plan is None:
        plan = FaultPlan(**kwargs)
    elif kwargs:
        if isinstance(plan, str):
            plan = parse_plan(plan)
        plan = replace(plan, **kwargs)
    previous = _PLAN
    install(plan)
    try:
        yield plan
    finally:
        install(previous)


# ----------------------------------------------------------------------
# injection points
# ----------------------------------------------------------------------
def on_pool_task(
    index: int, attempt: int, plan: FaultPlan | None = None
) -> None:
    """Hook run in the worker before a pool task executes.

    ``plan`` is shipped explicitly by :mod:`repro.pool` so spawn workers
    (which share neither globals nor necessarily env mutations made
    after launch) see the parent's installed plan; ``None`` falls back
    to this process's own active plan.
    """
    plan = plan if plan is not None else active_plan()
    if plan is None:
        return
    if plan.interrupt_task is not None and index == plan.interrupt_task:
        raise KeyboardInterrupt(f"fault-injected interrupt on task {index}")
    if (
        plan.crash_task is not None
        and index == plan.crash_task
        and attempt < plan.crash_attempts
    ):
        # A real abnormal death: no exception, no cleanup, no result.
        os._exit(CRASH_EXIT_STATUS)
    if plan.hang_task is not None and index == plan.hang_task:
        time.sleep(plan.hang_seconds)


def on_cache_read(data: bytes) -> bytes:
    """Possibly corrupt one cache entry's bytes (deterministically).

    The first 8 bytes are XOR-masked, which destroys the pickle opcode
    stream -- ``pickle.loads`` then raises and the quarantine path runs.
    """
    plan = active_plan()
    if plan is None or plan.corrupt_read is None:
        return data
    count = _COUNTS["cache_read"]
    _COUNTS["cache_read"] += 1
    if count != plan.corrupt_read:
        return data
    mask = (0xFF ^ (plan.seed & 0x7F)) or 0xFF
    prefix = bytes(b ^ mask for b in data[:8])
    return prefix + data[8:]


def on_cache_write(path: str) -> None:
    """Possibly fail one cache write with ``OSError`` (fail-open path)."""
    plan = active_plan()
    if plan is None or plan.fail_write is None:
        return
    count = _COUNTS["cache_write"]
    _COUNTS["cache_write"] += 1
    if count == plan.fail_write:
        raise OSError(f"fault-injected cache write failure for {path}")

