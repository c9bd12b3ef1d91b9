"""Quick self-test of the benchmark at toy sizes (under a minute).

Usage: ``python3 perfbench/selftest.py`` from the repository root.

Builds a toy starting state and runs toy versions of the three
workloads (matmul ``--n 64``, tridiag ``--n 128 --systems 64``, spmv
without ``--full``; all with a quick ``--calibration`` file) through the
same code as ``run.py``, traced, and checks that:

1. every metric ``BENCHMARK.json`` names is printed with its unit, and
   ``layers.json`` maps exactly the per-layer metrics;
2. the traced run's outputs equal the untraced run's;
3. ``unattributed_s`` plus the root layer spans add up to the traced
   wall time, and no two root spans of one command overlap.

Exits 1 and lists what failed otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import sys

import run

def toy_workloads(calibration: str) -> tuple[run.Workload, ...]:
    flags = ("--json", "--calibration", calibration)
    sweep = (
        ("matmul", "--n", "64", "--tile", "16", "--full", "--workers", "0") + flags,
        ("tridiag", "--n", "128", "--systems", "64", "--full", "--workers", "0") + flags,
        ("spmv", "--format", "ell", "--workers", "0") + flags,
    )
    return (
        run.Workload(
            "toy_cold", (("matmul", "--n", "64", "--tile", "16", "--workers", "2") + flags,),
            "empty", True,
        ),
        run.Workload("toy_sweep", sweep, "calibration", False),
        run.Workload("toy_warm", sweep, "warm", False),
    )


def check_spec(spec: dict, errors: list[str]) -> None:
    layers = json.loads((run.HERE / "layers.json").read_text())["per_layer"]
    if set(layers) != set(spec["per_layer"]):
        errors.append(f"layers.json differs from per_layer: {set(layers) ^ set(spec['per_layer'])}")
    names = set(run.WORKLOADS)
    for name, row in layers.items():
        if not set(row["moves"]) <= set(spec["end_to_end"]):
            errors.append(f"layers.json {name}: unknown end-to-end metric in {row['moves']}")
        if not set(row["workloads"]) <= names:
            errors.append(f"layers.json {name}: unknown workload in {row['workloads']}")


def check_result(workload: run.Workload, result: run.RunResult, spec: dict, errors) -> None:
    tag = workload.name
    for kind in run.KINDS:
        line = json.loads(run.report(result, kind, spec))
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{tag}: result keys {sorted(line)}")
        printed = {name: m["unit"] for name, m in line["metrics"].items()}
        if printed != spec[kind]:
            errors.append(f"{tag}: {kind} printed {printed}, BENCHMARK.json has {spec[kind]}")
        if not line["correct"]:
            errors.append(f"{tag}: not correct")
    for outcome in result.every_outcome:
        for problem in outcome.problems:
            errors.append(f"{tag}: {outcome.case}: {problem}")

    untraced = {o.case: run.comparable(o.payload) for o in result.outcomes if o.payload}
    traced = {o.case: run.comparable(o.payload) for o in result.traced if o.payload}
    if not traced or traced != untraced:
        errors.append(f"{tag}: traced outputs differ from untraced outputs")

    layers = sum(result.per_layer[name] for name in run.TOP_LAYERS.values())
    unattributed = result.per_layer["unattributed_s"]
    if unattributed < 0 or not math.isclose(
        unattributed + layers, result.traced_wall, rel_tol=1e-9
    ):
        errors.append(
            f"{tag}: unattributed {unattributed} + layers {layers} "
            f"!= traced wall {result.traced_wall}"
        )
    for outcome in result.traced:
        roots = sorted(
            (s["start"], s["end"]) for s in outcome.spans if s["parent"] is None
        )
        if any(end > start for (_, end), (start, _) in zip(roots, roots[1:])):
            errors.append(f"{tag}: overlapping root spans in {outcome.case}")


def main() -> int:
    errors: list[str] = []
    papers, spec = run.setup_inputs()
    check_spec(spec, errors)
    work = run.WORK.with_name("perfbench-selftest")
    shutil.rmtree(work, ignore_errors=True)
    (work / "tmp").mkdir(parents=True)
    try:
        calibration = work / "calibration.json"
        cold, sweep, warm = toy_workloads(str(calibration))
        code, _ = run.spawn(
            [sys.executable, "-m", "repro", "calibrate", "--iterations", "4",
             "-o", str(calibration)],
            run.command_env(cold, work / "tmp", work / "tmp"),
            work / "calibrate.out",
            work / "calibrate.err",
        )
        if code:
            errors.append(f"toy calibration exited {code}")
            return finish(errors)
        state_dir = work / "state"
        reference = run.build_state(state_dir, cold, sweep)
        for seed, workload in enumerate((cold, sweep, warm), start=1):
            result = run.run_workload(
                workload, seed, 0, True, state_dir, reference, work / workload.name, papers
            )
            check_result(workload, result, spec, errors)
            print(f"{workload.name}: wall {result.end_to_end['wall_s']:.2f} s, "
                  f"traced {result.traced_wall:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return finish(errors)


def finish(errors: list[str]) -> int:
    for error in errors:
        print(f"FAIL {error}")
    print("selftest:", "FAILED" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
