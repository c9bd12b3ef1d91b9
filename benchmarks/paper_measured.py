"""Measured cycles, prediction and model error of the paper's cases.

Usage (from the repository root)::

    PYTHONPATH=src python benchmarks/paper_measured.py > paper_measured.json
    diff -u tests/data/paper_measured.json paper_measured.json

Runs perfbench's eight paper cases (``perfbench/run.py``'s
``PAPER_CASES``) as ``python -m repro CASE --full --workers 0 --json``
and prints, per case, the timing simulator's ``measured.cycles``, the
model's ``predicted_ms`` and their ``model_error`` as one JSON object.
Floats print with ``repr``, so equal files mean bit-identical numbers.
``tests/data/paper_measured.json`` is the committed output; CI diffs a
fresh run against it.  The first case calibrates into
``$REPRO_CACHE_DIR`` (a temporary directory when unset).
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def paper_cases() -> tuple[tuple[str, ...], ...]:
    """perfbench's case list, so the two cannot drift apart."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module.PAPER_CASES


def measure(case: tuple[str, ...], env: dict) -> dict:
    argv = [sys.executable, "-m", "repro", *case, "--full", "--workers", "0", "--json"]
    out = subprocess.run(
        argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, check=True, text=True
    ).stdout
    payload = json.loads(out)
    return {
        "cycles": payload["measured"]["cycles"],
        "predicted_ms": payload["predicted_ms"],
        "model_error": payload["model_error"],
    }


def main() -> int:
    env = dict(os.environ)
    with tempfile.TemporaryDirectory() as tmp:
        env.setdefault("REPRO_CACHE_DIR", tmp)
        table = {" ".join(case): measure(case, env) for case in paper_cases()}
    print(json.dumps(table, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
