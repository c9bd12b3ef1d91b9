"""repro.obs: tracing, metrics, and run manifests for the pipeline.

Three pillars, all zero-dependency and disabled by default:

* **Tracing** (:mod:`repro.obs.core`): hierarchical
  ``span("engine.run", kernel=...)`` context managers with
  deterministic ``lane:seq`` IDs and monotonic timestamps, threaded
  through the engine's dedup ladder, the functional simulator's slab
  batching, the analytical model (``model.analyze``), the process pools
  (worker-side spans ship home with the results), the timing layer,
  calibration, and crossval.
* **Metrics** (:mod:`repro.obs.metrics`): a process-wide counter/gauge/
  histogram registry (cache hits per cache, classes proved/interpreted,
  pool retries/timeouts, slab widths, events simulated)
  that absorbs the scattered ``EngineStats``/``HealthRecord`` counters
  without changing those dataclasses' APIs.
* **Export** (:mod:`repro.obs.export` / :mod:`repro.obs.report`):
  ``events.jsonl``, Perfetto-loadable ``trace.json``, a metrics
  snapshot, and a provenance ``manifest.json`` (with the recorded
  ``wall_ms``), summarized by ``repro obs report`` -- top spans plus an
  ``unattributed`` row for time outside every root span.

Activation: ``repro --obs DIR <subcommand>`` or ``$REPRO_OBS``; or
programmatically::

    with obs.session("/tmp/run1", argv=["matmul"]):
        run_matmul(...)

Instrumentation sites pay one module-global check while disabled; with
observability *enabled*, every simulation payload (traces, MeasuredRun
pickles) stays byte-identical to an un-instrumented run -- events
travel out-of-band, never inside results.
"""

from __future__ import annotations

from contextlib import contextmanager

from repro.obs import log, metrics
from repro.obs.core import (
    OBS_ENV,
    Recorder,
    annotate,
    capture,
    current,
    enabled,
    event,
    span,
    start,
    stop,
    tag,
)
from repro.obs.export import export_session

__all__ = [
    "OBS_ENV",
    "Recorder",
    "annotate",
    "capture",
    "current",
    "enabled",
    "event",
    "export_session",
    "log",
    "metrics",
    "session",
    "span",
    "start",
    "stop",
    "tag",
]


@contextmanager
def session(
    directory,
    argv: list[str] | None = None,
    command: str | None = None,
):
    """Record everything inside the block and export to ``directory``.

    The export runs even when the block raises (the trace of a failed
    run is the one you want most); the in-flight exception is recorded
    as a nonzero ``exit_status`` in the manifest.
    """
    recorder = start()
    status = 0
    try:
        yield recorder
    except BaseException:
        status = 1
        raise
    finally:
        stop()
        export_session(
            recorder,
            directory,
            argv=argv,
            command=command,
            exit_status=status,
        )
