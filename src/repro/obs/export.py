"""Exporters: JSONL event log, Chrome trace JSON, run manifest.

One :func:`export_session` call at the end of an observed run writes
four files next to each other in the output directory:

* ``events.jsonl`` -- every recorded event (spans, point events, log
  records), one JSON object per line, in completion order;
* ``trace.json`` -- the same spans in Chrome trace-event format
  (``{"traceEvents": [...]}``), loadable in Perfetto / ``chrome://
  tracing``; one track (``tid``) per lane, so pool workers render as
  parallel swimlanes under the main track;
* ``metrics.json`` -- the counter/gauge/histogram registry snapshot;
* ``manifest.json`` -- run provenance: command line, spec fingerprints
  and the source digest that versions every cache, the machine
  fingerprint, git describe, the active fault plan,
  interpreter/platform, wall-clock timestamps, and ``wall_ms``
  (recorder start to export, the denominator of the report's
  ``unattributed`` row).

Every manifest section is assembled fail-open (a missing git binary
yields ``null``, never a crashed run), and the writers go through
:func:`repro.util.atomic_write_bytes` so a killed run cannot leave a
torn file.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time

from repro.obs.core import Recorder
from repro.util import source_digest

#: Manifest schema stamp.
MANIFEST_SCHEMA = "obs_manifest/3"

#: Chrome trace process id (single logical process per run).
_PID = 1


def _lanes(events: list[dict]) -> list[str]:
    """Deterministic track order: ``main`` first, then sorted lanes."""
    seen = {event.get("lane", "main") for event in events}
    seen.add("main")
    return ["main"] + sorted(seen - {"main"})


def chrome_trace(events: list[dict]) -> dict:
    """Spans/events/logs as a Chrome trace-event JSON object.

    Timestamps are microseconds relative to the earliest recorded
    nanosecond stamp, so the trace starts at zero regardless of the
    process's monotonic-clock epoch.
    """
    stamps = [
        event["t0"] if event["type"] == "span" else event["t"]
        for event in events
        if event.get("type") in ("span", "event", "log")
    ]
    origin = min(stamps) if stamps else 0
    lanes = _lanes(events)
    tid_of = {lane: index for index, lane in enumerate(lanes)}
    trace_events: list[dict] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for lane in lanes:
        trace_events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": _PID,
                "tid": tid_of[lane],
                "args": {"name": lane},
            }
        )
    for event in events:
        tid = tid_of.get(event.get("lane", "main"), 0)
        if event["type"] == "span":
            args = dict(event.get("attrs") or {})
            args["id"] = event["id"]
            if event.get("parent"):
                args["parent"] = event["parent"]
            if event.get("error"):
                args["error"] = True
            trace_events.append(
                {
                    "ph": "X",
                    "cat": "repro",
                    "name": event["name"],
                    "pid": _PID,
                    "tid": tid,
                    "ts": (event["t0"] - origin) / 1000.0,
                    "dur": max(event["t1"] - event["t0"], 0) / 1000.0,
                    "args": args,
                }
            )
        elif event["type"] == "event":
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": "repro",
                    "name": event["name"],
                    "pid": _PID,
                    "tid": tid,
                    "ts": (event["t"] - origin) / 1000.0,
                    "args": dict(event.get("attrs") or {}),
                }
            )
        elif event["type"] == "log":
            trace_events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "cat": "repro.log",
                    "name": f"log.{event.get('level', 'info')}",
                    "pid": _PID,
                    "tid": tid,
                    "ts": (event["t"] - origin) / 1000.0,
                    "args": {
                        "message": event.get("message", ""),
                        **(event.get("fields") or {}),
                    },
                }
            )
    return {"traceEvents": trace_events, "displayTimeUnit": "ms"}


# ----------------------------------------------------------------------
# manifest
# ----------------------------------------------------------------------
def _git_describe() -> str | None:
    """``git describe --always --dirty`` of the source tree, or None."""
    import subprocess

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    try:
        result = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    text = result.stdout.strip()
    return text if result.returncode == 0 and text else None


def _fault_plan() -> str | None:
    try:
        from repro import faults

        plan = faults.active_plan()
        return None if plan is None else repr(plan)
    except Exception:
        return None


def machine_fingerprint() -> str:
    """Hostname, architecture, Python implementation/version and core
    count: enough to tell two machines' manifests apart."""
    return "|".join(
        (
            platform.node() or "unknown-host",
            platform.machine() or "unknown-arch",
            platform.python_implementation(),
            f"{sys.version_info[0]}.{sys.version_info[1]}",
            f"cpus={os.cpu_count() or 1}",
        )
    )


def build_manifest(
    recorder: Recorder,
    argv: list[str] | None = None,
    command: str | None = None,
    exit_status: int | None = None,
) -> dict:
    spans = sum(1 for e in recorder.events if e["type"] == "span")
    logs = sum(1 for e in recorder.events if e["type"] == "log")
    return {
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "argv": list(argv) if argv is not None else None,
        "exit_status": exit_status,
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "wall_ms": round(
            (time.perf_counter_ns() - recorder.started_ns) / 1e6, 3
        ),
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "machine": machine_fingerprint(),
        "git_describe": _git_describe(),
        "source_digest": source_digest(),
        "fault_plan": _fault_plan(),
        "annotations": dict(sorted(recorder.annotations.items())),
        "events": len(recorder.events),
        "spans": spans,
        "logs": logs,
    }


# ----------------------------------------------------------------------
# the one-call exporter
# ----------------------------------------------------------------------
def _write(path: str, data: bytes) -> bool:
    from repro.util import atomic_write_bytes

    return atomic_write_bytes(path, data)


def export_session(
    recorder: Recorder,
    directory: str | os.PathLike,
    argv: list[str] | None = None,
    command: str | None = None,
    exit_status: int | None = None,
) -> dict:
    """Write all four artifacts; returns ``{name: path}`` of them."""
    directory = os.fspath(directory)
    os.makedirs(directory, exist_ok=True)
    paths = {
        "events": os.path.join(directory, "events.jsonl"),
        "trace": os.path.join(directory, "trace.json"),
        "metrics": os.path.join(directory, "metrics.json"),
        "manifest": os.path.join(directory, "manifest.json"),
    }
    lines = "".join(
        json.dumps(event, sort_keys=True) + "\n" for event in recorder.events
    )
    _write(paths["events"], lines.encode())
    _write(
        paths["trace"],
        json.dumps(chrome_trace(recorder.events)).encode(),
    )
    _write(
        paths["metrics"],
        json.dumps(
            recorder.metrics_snapshot(), indent=2, sort_keys=True
        ).encode(),
    )
    manifest = build_manifest(
        recorder, argv=argv, command=command, exit_status=exit_status
    )
    _write(
        paths["manifest"],
        json.dumps(manifest, indent=2, sort_keys=True).encode(),
    )
    return paths
