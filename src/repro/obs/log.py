"""Structured logging: leveled stderr rendering plus event capture.

Replaces the ad-hoc ``print(..., file=sys.stderr)`` notices scattered
through the CLI and the slow paths (calibration runs, engine
fallbacks).  Two outputs, independently switched:

* **stderr rendering** -- the message string, verbatim, exactly as the
  old prints rendered it, filtered by level.  The threshold comes from
  ``--log-level`` (:func:`set_level`) or ``$REPRO_LOG``, defaulting to
  ``info`` so existing behaviour is unchanged.
* **event capture** -- when observability is active the full structured
  record (level, message, machine-readable fields) lands in the run's
  event log regardless of the stderr threshold, so a quiet run still
  has a complete history.

``render=False`` records the event without printing -- used where an
existing channel (e.g. ``warnings.warn`` for the engine's cross-block
RAW warning) already owns the user-facing rendering.
"""

from __future__ import annotations

import os
import sys
import time

from repro.obs import core

#: Environment variable naming the stderr log threshold.
LOG_ENV = "REPRO_LOG"

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_OVERRIDE: str | None = None


def set_level(name: str | None) -> None:
    """Install a process-wide threshold (``--log-level``); ``None``
    restores the ``$REPRO_LOG``/default resolution."""
    global _OVERRIDE
    if name is not None and name not in LEVELS:
        raise ValueError(
            f"unknown log level {name!r}; choose from {sorted(LEVELS)}"
        )
    _OVERRIDE = name


def threshold() -> str:
    """Active level name: override, then ``$REPRO_LOG``, then ``info``.

    An unknown env value fails open to ``info`` -- a typo must not
    silence (or spam) a run.
    """
    if _OVERRIDE is not None:
        return _OVERRIDE
    raw = os.environ.get(LOG_ENV, "").strip().lower()
    return raw if raw in LEVELS else "info"


def log(level: str, message: str, *, render: bool = True, **fields) -> None:
    severity = LEVELS.get(level, LEVELS["info"])
    if render and severity >= LEVELS[threshold()]:
        print(message, file=sys.stderr)
    recorder = core.current()
    if recorder is not None:
        recorder.events.append(
            {
                "type": "log",
                "id": recorder.next_id(),
                "parent": (
                    recorder._stack[-1] if recorder._stack else None
                ),
                "lane": recorder.lane,
                "level": level,
                "message": message,
                "fields": fields,
                "t": time.perf_counter_ns(),
            }
        )


def debug(message: str, **fields) -> None:
    log("debug", message, **fields)


def info(message: str, **fields) -> None:
    log("info", message, **fields)


def warning(message: str, *, render: bool = True, **fields) -> None:
    log("warning", message, render=render, **fields)


def error(message: str, **fields) -> None:
    log("error", message, **fields)
