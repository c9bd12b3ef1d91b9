"""Perf-trajectory trend reporter over ``BENCH_engine_smoke.json`` files.

CI has recorded a machine-readable measurement of every engine gate per
commit (``benchmarks/engine_smoke.py --check`` writes the
``engine-smoke-perf`` artifact) since PR 4, but nothing *compared*
trajectories across commits.  This module closes that loop: it ingests
any number of per-commit JSON artifacts, orders them deterministically
(recorded timestamp, then label), extracts one value per gate metric,
and emits a JSON report plus a markdown table flagging per-gate
regressions beyond a threshold (default 20 %).

The reporter is a pure function of its input files -- no clocks, no
environment -- so a unit test over fixture JSONs pins the exact report
(the acceptance criterion) and CI reruns are reproducible.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

#: Accepted payload schema prefix (see engine_smoke.write_perf_json).
SCHEMA_PREFIX = "engine_smoke/"

#: Crossval artifacts (``repro specs crossval --json``) are ingested
#: into the same report, so one trajectory covers engine-smoke gates
#: AND cross-GPU prediction accuracy.
CROSSVAL_SCHEMA_PREFIX = "crossval/"

#: Report schema stamp.
REPORT_SCHEMA = "tune_trend/1"

#: Default regression threshold: warn on >20 % direction-adjusted drops.
DEFAULT_THRESHOLD = 0.20

#: Gate metrics: (dotted path into the payload, higher_is_better).
GATE_METRICS: tuple[tuple[str, bool], ...] = (
    ("engine.speedup", True),
    ("engine.engine_seconds", False),
    ("timing.speedup", True),
    ("functional.speedup", True),
    ("functional.batched_ips", True),
    ("barrier.matmul.speedup", True),
    ("barrier.matmul.batched_ips", True),
    ("barrier.cyclic_reduction.speedup", True),
    ("barrier.cyclic_reduction.batched_ips", True),
    ("calibration.serial.seconds", False),
    ("calibration.serial.events_per_second", True),
    ("calibration.pool.seconds", False),
    ("calibration.pool.events_per_second", True),
    ("prefix.speedup", True),
)

#: Dotted paths of the bit-identity flags each payload carries.
IDENTITY_FLAGS: tuple[str, ...] = (
    "engine.identical",
    "timing.identical",
    "functional.identical",
    "barrier.matmul.identical",
    "barrier.cyclic_reduction.identical",
)

#: Crossval gate metrics: (report gate name, payload path under
#: ``summary.overall``, higher_is_better).  Gate names carry a
#: ``crossval.`` prefix so the two artifact families never collide.
CROSSVAL_METRICS: tuple[tuple[str, str, bool], ...] = (
    (
        "crossval.analytical_mean_abs_rel_error",
        "summary.overall.analytical_mean_abs_rel_error",
        False,
    ),
    (
        "crossval.scaling_mean_abs_rel_error",
        "summary.overall.scaling_mean_abs_rel_error",
        False,
    ),
    ("crossval.analytical_wins", "summary.overall.analytical_wins", True),
    ("crossval.predictions", "summary.overall.predictions", True),
)


@dataclass(frozen=True)
class TrendEntry:
    """One ingested per-commit measurement."""

    label: str  # file basename (CI names these per commit)
    timestamp: str
    values: dict  # metric path -> float
    identical: bool  # every gate's bit-identity flag held
    kind: str = "engine_smoke"  # artifact family: engine_smoke|crossval


def _dig(payload: dict, path: str):
    node = payload
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def collect_files(inputs: list) -> list[str]:
    """Expand files/directories into a sorted list of JSON paths.

    Directories contribute their (non-recursive) ``*.json`` members in
    name order; explicit files pass through.  Duplicates collapse.
    """
    paths: list[str] = []
    for item in inputs:
        item = os.fspath(item)
        if os.path.isdir(item):
            paths.extend(
                os.path.join(item, name)
                for name in sorted(os.listdir(item))
                if name.endswith(".json")
            )
        else:
            paths.append(item)
    seen: set[str] = set()
    unique = []
    for path in paths:
        key = os.path.abspath(path)
        if key not in seen:
            seen.add(key)
            unique.append(path)
    return unique


def load_entry(path: str) -> TrendEntry | None:
    """Parse one artifact; ``None`` for unreadable/foreign files."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    schema = payload.get("schema", "")
    if not isinstance(schema, str):
        return None
    if schema.startswith(CROSSVAL_SCHEMA_PREFIX):
        return _load_crossval_entry(path, payload)
    if not schema.startswith(SCHEMA_PREFIX):
        return None
    values: dict = {}
    for metric, _ in GATE_METRICS:
        value = _dig(payload, metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values[metric] = float(value)
    identical = all(_dig(payload, flag) is True for flag in IDENTITY_FLAGS)
    return TrendEntry(
        label=os.path.basename(path),
        timestamp=str(payload.get("timestamp", "")),
        values=values,
        identical=identical,
    )


def _load_crossval_entry(path: str, payload: dict) -> TrendEntry:
    """A ``BENCH_crossval.json`` artifact as a trend entry.

    Crossval payloads carry no bit-identity flags, so ``identical``
    holds vacuously (the pseudo-gate is driven by engine_smoke runs
    only -- see :func:`build_report`).
    """
    values: dict = {}
    for metric, source_path, _ in CROSSVAL_METRICS:
        value = _dig(payload, source_path)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            values[metric] = float(value)
    return TrendEntry(
        label=os.path.basename(path),
        timestamp=str(payload.get("timestamp", "")),
        values=values,
        identical=True,
        kind="crossval",
    )


def load_entries(inputs: list) -> list[TrendEntry]:
    """Ingest and deterministically order all artifacts."""
    entries = [load_entry(path) for path in collect_files(inputs)]
    return sorted(
        (e for e in entries if e is not None),
        key=lambda e: (e.timestamp, e.label),
    )


def build_report(
    entries: list[TrendEntry], threshold: float = DEFAULT_THRESHOLD
) -> dict:
    """The full trajectory report as a JSON-serializable dict.

    Per gate: the ordered series, first/previous/latest values, the
    direction-adjusted relative change of latest vs previous, and a
    regression flag when that change exceeds ``threshold`` in the bad
    direction.  A latest run with any failed bit-identity flag is
    reported as the pseudo-gate ``bit_identity``.

    Mixed inputs keep their families apart: each gate's series spans
    only the entries of its own artifact kind (an engine_smoke run
    never reads as a missing crossval measurement and vice versa), and
    the ``crossval.*`` gates appear only when at least one crossval
    artifact was ingested -- engine-only reports are unchanged.
    """
    engine_entries = [e for e in entries if e.kind == "engine_smoke"]
    crossval_entries = [e for e in entries if e.kind == "crossval"]
    metrics: list[tuple[str, bool, list[TrendEntry]]] = [
        (metric, better, engine_entries)
        for metric, better in GATE_METRICS
    ]
    if crossval_entries:
        metrics.extend(
            (metric, better, crossval_entries)
            for metric, _, better in CROSSVAL_METRICS
        )
    gates: dict = {}
    regressions: list[str] = []
    for metric, higher_is_better, kind_entries in metrics:
        series = [entry.values.get(metric) for entry in kind_entries]
        present = [v for v in series if v is not None]
        first = present[0] if present else None
        # "latest" is strictly the NEWEST run's value: a gate that
        # vanished from the newest artifact must read as missing, not
        # silently inherit an older run's number.
        latest = series[-1] if series else None
        earlier = [v for v in series[:-1] if v is not None]
        previous = earlier[-1] if earlier else None
        delta = None
        regressed = False
        if latest is not None and previous not in (None, 0):
            delta = (latest - previous) / abs(previous)
            change = delta if higher_is_better else -delta
            regressed = change < -threshold
        if regressed:
            regressions.append(metric)
        gates[metric] = {
            "series": series,
            "first": first,
            "previous": previous,
            "latest": latest,
            "delta_vs_previous": delta,
            "higher_is_better": higher_is_better,
            "regressed": regressed,
        }
    identity_ok = (
        engine_entries[-1].identical if engine_entries else True
    )
    if not identity_ok:
        regressions.append("bit_identity")
    return {
        "schema": REPORT_SCHEMA,
        "threshold": threshold,
        "runs": [
            {"label": e.label, "timestamp": e.timestamp, "kind": e.kind}
            for e in entries
        ],
        "gates": gates,
        "latest_bit_identity_ok": identity_ok,
        "regressions": regressions,
    }


def _fmt(value) -> str:
    if value is None:
        return "-"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.2f}"


def _fmt_delta(delta) -> str:
    return "-" if delta is None else f"{delta * 100:+.1f}%"


def render_markdown(report: dict) -> str:
    """The report as a markdown document (the CI artifact)."""
    runs = report["runs"]
    lines = ["# engine_smoke perf trajectory", ""]
    if not runs:
        lines.append("No engine_smoke measurements found.")
        return "\n".join(lines) + "\n"
    span = f"`{runs[0]['label']}` ({runs[0]['timestamp']})"
    if len(runs) > 1:
        span += f" -> `{runs[-1]['label']}` ({runs[-1]['timestamp']})"
    lines.append(f"{len(runs)} run(s): {span}")
    lines.append("")
    lines.append("| gate | first | previous | latest | delta vs prev | status |")
    lines.append("|---|---:|---:|---:|---:|---|")
    for metric, gate in report["gates"].items():
        status = "**REGRESSION**" if gate["regressed"] else "ok"
        if gate["latest"] is None:
            status = "missing"
        lines.append(
            f"| {metric} | {_fmt(gate['first'])} | "
            f"{_fmt(gate['previous'])} | {_fmt(gate['latest'])} | "
            f"{_fmt_delta(gate['delta_vs_previous'])} | {status} |"
        )
    lines.append("")
    if not report["latest_bit_identity_ok"]:
        lines.append(
            "**Bit-identity FAILED in the latest run** -- at least one "
            "gate's `identical` flag is false."
        )
        lines.append("")
    flagged = [r for r in report["regressions"] if r != "bit_identity"]
    if flagged:
        lines.append(
            f"WARNING: {len(flagged)} gate(s) regressed more than "
            f"{report['threshold'] * 100:.0f}%: {', '.join(flagged)}"
        )
    else:
        lines.append(
            "No gate regressed more than "
            f"{report['threshold'] * 100:.0f}% vs the previous run."
        )
    return "\n".join(lines) + "\n"


def trend_report(
    inputs: list, threshold: float = DEFAULT_THRESHOLD
) -> tuple[dict, str]:
    """One-call entry point: ``(report dict, markdown text)``."""
    report = build_report(load_entries(inputs), threshold=threshold)
    return report, render_markdown(report)
