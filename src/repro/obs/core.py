"""Recorder, spans, and the process-wide enable switch.

The whole observability subsystem hangs off one module-global
:class:`Recorder`.  With no recorder installed every instrumentation
point -- :func:`span`, the metric helpers, the structured log's event
capture -- is a cheap no-op (one module-global check, the same
discipline as :mod:`repro.faults`), which is what lets the hooks stay
compiled into the hot paths permanently.

Design constraints inherited from the execution substrate:

* **Deterministic IDs.**  Span IDs are ``<lane>:<sequence>`` -- a
  per-recorder counter in execution order, never wall clock or PRNG --
  so two runs of the same command produce comparable traces (the
  timestamps differ, the structure and IDs do not).  Worker-side
  recorders get lanes derived from the pool-call number and the task
  index (``pool0.t3``), which are themselves deterministic.
* **Monotonic timestamps.**  ``time.perf_counter_ns`` throughout; on
  Linux (the only platform with fork pools) that is ``CLOCK_MONOTONIC``,
  shared across processes, so worker spans land on a comparable
  timebase.
* **Out-of-band worker capture.**  Worker processes never write files
  and never touch the payloads they compute: :func:`capture` installs a
  fresh recorder around one pool task, and :mod:`repro.pool` ships the
  captured events home *next to* the result, stripping the envelope
  before the caller sees it -- simulation results stay
  pickle-byte-identical with obs on or off.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

#: Environment variable naming the observability output directory; when
#: set, ``python -m repro`` records every subcommand (same as ``--obs``).
OBS_ENV = "REPRO_OBS"


class Recorder:
    """One run's event buffer, metric registry, and span bookkeeping.

    Everything is plain dicts and lists: the recorder is shipped across
    process boundaries (worker capture) and serialized to JSONL, so it
    must stay trivially picklable and JSON-friendly.
    """

    def __init__(self, lane: str = "main") -> None:
        self.lane = lane
        #: Monotonic start stamp; the manifest's ``wall_ms`` runs from it.
        self.started_ns = time.perf_counter_ns()
        self.events: list[dict] = []
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name -> [count, total, min, max]
        self.histograms: dict[str, list] = {}
        self.annotations: dict = {}
        self._seq = 0
        self._pool_calls = 0
        self._stack: list[str] = []
        #: Attributes of the open spans, innermost last (see :func:`tag`).
        self._open_attrs: list[dict] = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def next_id(self) -> str:
        self._seq += 1
        return f"{self.lane}:{self._seq}"

    def next_pool_lane(self) -> str:
        """Deterministic lane prefix for one ``map_tasks`` fan-out."""
        lane = f"pool{self._pool_calls}"
        self._pool_calls += 1
        if self.lane != "main":
            lane = f"{self.lane}.{lane}"
        return lane

    @contextmanager
    def span(self, name: str, **attrs):
        span_id = self.next_id()
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._open_attrs.append(attrs)
        error = False
        t0 = time.perf_counter_ns()
        try:
            yield span_id
        except BaseException:
            error = True
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            self._open_attrs.pop()
            event = {
                "type": "span",
                "id": span_id,
                "parent": parent,
                "lane": self.lane,
                "name": name,
                "t0": t0,
                "t1": t1,
                "attrs": attrs,
            }
            if error:
                event["error"] = True
            self.events.append(event)

    def event(self, name: str, **attrs) -> None:
        """A point-in-time event attached to the current span."""
        self.events.append(
            {
                "type": "event",
                "id": self.next_id(),
                "parent": self._stack[-1] if self._stack else None,
                "lane": self.lane,
                "name": name,
                "t": time.perf_counter_ns(),
                "attrs": attrs,
            }
        )

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        hist = self.histograms.get(name)
        if hist is None:
            self.histograms[name] = [1, value, value, value]
        else:
            hist[0] += 1
            hist[1] += value
            hist[2] = min(hist[2], value)
            hist[3] = max(hist[3], value)

    def metrics_snapshot(self) -> dict:
        """JSON-ready view of every metric."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {
                name: {
                    "count": hist[0],
                    "total": hist[1],
                    "min": hist[2],
                    "max": hist[3],
                    "mean": hist[1] / hist[0] if hist[0] else 0.0,
                }
                for name, hist in sorted(self.histograms.items())
            },
        }

    # ------------------------------------------------------------------
    # cross-process adoption
    # ------------------------------------------------------------------
    def adopt(
        self,
        events: list[dict],
        counters: dict | None = None,
        gauges: dict | None = None,
        histograms: dict | None = None,
    ) -> None:
        """Merge one worker capture (events + metric deltas) in.

        Called exactly once per harvested pool result (see
        :mod:`repro.pool`); lost attempts ship nothing, serial re-runs
        record straight into this recorder, so no event can repeat.
        """
        self.events.extend(events)
        for name, value in (counters or {}).items():
            self.inc(name, value)
        for name, value in (gauges or {}).items():
            self.gauge(name, value)
        for name, hist in (histograms or {}).items():
            mine = self.histograms.get(name)
            if mine is None:
                self.histograms[name] = list(hist)
            else:
                mine[0] += hist[0]
                mine[1] += hist[1]
                mine[2] = min(mine[2], hist[2])
                mine[3] = max(mine[3], hist[3])


# ----------------------------------------------------------------------
# the process-wide switch
# ----------------------------------------------------------------------
_RECORDER: Recorder | None = None

#: Reusable no-op context manager for disabled spans (stateless, hence
#: safe to share and re-enter).
_NOOP = nullcontext()


def enabled() -> bool:
    """Whether a recorder is installed (one global check per hook)."""
    return _RECORDER is not None


def current() -> Recorder | None:
    return _RECORDER


def start(lane: str = "main") -> Recorder:
    """Install a fresh process-wide recorder and return it."""
    global _RECORDER
    _RECORDER = Recorder(lane=lane)
    return _RECORDER


def stop() -> Recorder | None:
    """Uninstall and return the active recorder (``None`` when off)."""
    global _RECORDER
    recorder = _RECORDER
    _RECORDER = None
    return recorder


def span(name: str, **attrs):
    """Hierarchical span: ``with span("engine.run", kernel=...):``.

    A no-op context manager when observability is disabled.
    """
    recorder = _RECORDER
    if recorder is None:
        return _NOOP
    return recorder.span(name, **attrs)


def event(name: str, **attrs) -> None:
    recorder = _RECORDER
    if recorder is not None:
        recorder.event(name, **attrs)


def tag(**attrs) -> None:
    """Add attributes to the innermost open span, e.g. results known
    only at its end.  A no-op outside spans or with obs disabled."""
    recorder = _RECORDER
    if recorder is not None and recorder._open_attrs:
        recorder._open_attrs[-1].update(attrs)


def annotate(**fields) -> None:
    """Attach key/value facts to the run manifest (last write wins)."""
    recorder = _RECORDER
    if recorder is not None:
        recorder.annotations.update(fields)


@contextmanager
def capture(lane: str):
    """Worker-side capture: a fresh recorder for one pool task.

    Installed *instead of* any inherited recorder (fork workers inherit
    the parent's -- recording into that copy would silently lose the
    events with the worker), yielded so the caller can ship
    ``recorder.events`` and the metric dicts home, and uninstalled on
    exit.  The parent adopts the capture exactly once, at result
    harvest (:class:`repro.pool` envelope protocol).
    """
    global _RECORDER
    previous = _RECORDER
    recorder = Recorder(lane=lane)
    _RECORDER = recorder
    try:
        yield recorder
    finally:
        _RECORDER = previous
