"""Traced run of one CLI command, for the per-layer split.

Usage: ``python perfbench/tracer.py SPANS.json [repro CLI argv ...]``

Imports ``repro.__main__`` in this fresh interpreter (recorded as the
``cli.import`` span), wraps each layer's public entry points so every
call records a span (name, start, end, parent) in memory, then calls
``repro.__main__.main(argv)`` in-process.  The spans are written to
SPANS.json when the command ends.  The wrappers never touch arguments or
results: they only read the returned object to count work.  Calls made
inside pool workers are not recorded; the parent-side call that waits
for them carries their time.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

_PID = os.getpid()
SPANS: list[dict] = []
_OPEN: list[int] = []


def _under(name: str) -> bool:
    return any(SPANS[index]["name"] == name for index in _OPEN)


def _hw_name() -> str:
    # Calibration drives the timing simulator too; that time belongs to
    # the calibration layer, not to the case-level measurement.
    return "micro.hw" if _under("micro.calibrate") else "hw.measure"


def _trace_counts(trace) -> dict:
    return {"instructions": trace.totals.total_instructions}


def _run_counts(run) -> dict:
    return {
        "events": run.events,
        "cluster_sims": run.cluster_sims,
        "signature_hits": run.signature_hits,
        "from_cache": run.from_cache,
    }


def traced(owner, attr: str, name, counts=None) -> None:
    """Replace ``owner.attr`` with a span-recording pass-through.

    ``name`` is a span name or a zero-argument callable choosing one at
    call time; ``counts`` maps the result to extra span fields.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if os.getpid() != _PID:
            return fn(*args, **kwargs)
        span = {
            "name": name() if callable(name) else name,
            "parent": _OPEN[-1] if _OPEN else None,
            "start": time.perf_counter(),
        }
        SPANS.append(span)
        _OPEN.append(len(SPANS) - 1)
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            _OPEN.pop()
        if counts is not None:
            span.update(counts(result))
        return result

    setattr(owner, attr, wrapper)


def install() -> None:
    """Import the CLI and the layers, then wrap their entry points."""
    start = time.perf_counter()
    import repro.__main__  # noqa: F401
    import repro.apps.matmul as matmul
    import repro.apps.matrices as matrices
    import repro.apps.spmv as spmv
    import repro.apps.tridiag as tridiag
    import repro.micro.cache as micro_cache
    import repro.tune as tune
    from repro.hw.gpu import HardwareGpu
    from repro.model.performance import PerformanceModel
    from repro.sim.engine import SimulationEngine

    SPANS.append(
        {"name": "cli.import", "parent": None, "start": start,
         "end": time.perf_counter()}
    )
    traced(micro_cache, "load_or_calibrate", "micro.calibrate")
    traced(tune, "ensure_profile", "tune.ensure_profile")
    traced(matrices, "qcd_like", "apps.inputs")
    for app in (matmul, tridiag, spmv):
        traced(app, "prepare_problem", "apps.inputs")
    traced(SimulationEngine, "run", "sim.run", _trace_counts)
    traced(PerformanceModel, "analyze", "model.analyze")
    traced(HardwareGpu, "measure", _hw_name, _run_counts)
    traced(HardwareGpu, "measure_uniform_sm", _hw_name)


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    status = 1
    try:
        install()
        from repro.__main__ import main as cli_main

        status = cli_main(cli_argv)
    finally:
        sys.stdout.flush()
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"spans": SPANS}, handle)
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
