"""End-to-end benchmark of the prediction pipeline, split per layer.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  A workload is a fixed list of CLI
invocations (``python -m repro ... --json``) run as a closed loop: one
command at a time, each started when the previous one exits.  Passes
over the list repeat until ``--seconds`` have elapsed (at least one
pass); every pass starts from a freshly prepared cache directory.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` also runs the untraced loop, then one traced pass (each
command through ``perfbench/tracer.py`` plus ``--obs DIR``) and prints
the per-layer metrics; ``perfbench/layers.json`` says which layer each
one measures and which end-to-end metric it should move.

The CLI draws its inputs from fixed seeds (matmul 7, CR 11, SpMV 13,
``qcd_like`` 42) and has no seed flag, so ``--seed`` only shuffles the
order of the command list.

Cache states the workloads start from (a calibration, and the caches a
full ``paper_sweep`` pass leaves behind) are built once per checkout and
source digest under ``.bench_build/perfbench/``; each pass copies them
in, and that copy is the ``setup_s`` metric.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
TRACER = HERE / "tracer.py"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: The two metric lists of BENCHMARK.json.
KINDS = ("end_to_end", "per_layer")
PAPER_MODULES = ("bench_fig8_cr_total", "bench_fig12_spmv_gflops")

#: Input seeds the CLI hard-codes (recorded, not varied).
CLI_SEEDS = {"matmul": 7, "cr": 11, "spmv": 13, "qcd_like": 42}
#: A command running longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 150.0
#: Extra set-ups before and again after the timed loop, so ``setup_s``
#: is a median even when a run has one pass.
SETUP_SAMPLES = 6
#: Root spans the tracer records; with ``unattributed_s`` they add up to
#: the traced wall time.
TOP_LAYERS = {
    "cli.import": "cli.import_s",
    "micro.calibrate": "micro.calibrate_s",
    "tune.ensure_profile": "tune.ensure_profile_s",
    "apps.inputs": "apps.inputs_s",
    "sim.run": "sim.run_s",
    "model.analyze": "model.analyze_s",
    "hw.measure": "hw.measure_s",
}
ENGINE_PHASES = {
    "engine.proof": "sim.proof_s",
    "engine.synthesis": "sim.synthesis_s",
    "engine.simulate": "sim.simulate_s",
}
#: Health counters that are expected behaviour for data-dependent
#: kernels, not degradation (see ``repro.pool.HealthRecord.degraded``).
ANALYSIS_FALLBACKS = ("proof_fallbacks", "symbolic_fallbacks")
POOL_COUNTERS = {
    "pool_retries": "pool.retries",
    "serial_fallbacks": "pool.serial_fallbacks",
    "timeouts": "pool.timeouts",
    "worker_crashes": "pool.worker_crashes",
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[tuple[str, ...], ...]
    #: What each pass's cache dir starts from: ``"empty"``,
    #: ``"calibration"`` or ``"warm"`` (a state directory).
    start: str
    #: Whether the CLI may auto-tune (``$REPRO_TUNE_AUTO``).
    tune_auto: bool


PAPER_CASES = (
    ("matmul", "--n", "512", "--tile", "8"),
    ("matmul", "--n", "512", "--tile", "16"),
    ("matmul", "--n", "512", "--tile", "32"),
    ("tridiag", "--n", "512", "--systems", "512"),
    ("tridiag", "--n", "512", "--systems", "512", "--padded"),
    ("spmv", "--format", "ell"),
    ("spmv", "--format", "bell_im"),
    ("spmv", "--format", "bell_imiv"),
)
SWEEP = tuple(case + ("--full", "--workers", "0", "--json") for case in PAPER_CASES)
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cold_matmul",
            (("matmul", "--n", "512", "--tile", "16", "--workers", "2", "--json"),),
            "empty",
            True,
        ),
        Workload("paper_sweep", SWEEP, "calibration", False),
        Workload("warm_rerun", SWEEP, "warm", False),
    )
}


@dataclass
class Outcome:
    """One finished CLI command."""

    argv: tuple[str, ...]
    rss_mb: float
    payload: dict | None
    problems: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)
    obs_dir: Path | None = None

    @property
    def case(self) -> str:
        return " ".join(self.argv)

    @property
    def instructions(self) -> int:
        return sum(span.get("instructions", 0) for span in self.spans)


def digest(payload: dict) -> str:
    """Hash of the outputs two runs of one case must agree on."""
    key = {
        "predicted_ms": payload["predicted_ms"],
        "cycles": payload["measured"]["cycles"],
        "bottleneck": payload["bottleneck"],
        "model_error": payload["model_error"],
    }
    return hashlib.sha256(json.dumps(key, sort_keys=True).encode()).hexdigest()[:16]


def comparable(payload: dict) -> dict:
    """The ``--json`` payload minus its one host-time field."""
    out = json.loads(json.dumps(payload))
    if out.get("engine"):
        out["engine"].pop("wall_seconds", None)
    return out


# ----------------------------------------------------------------------
# running commands
# ----------------------------------------------------------------------
def command_env(workload: Workload, cache_dir: Path, tmp_dir: Path) -> dict:
    """The user's environment minus every ``REPRO_*`` knob, pinned."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["TMPDIR"] = str(tmp_dir)
    if not workload.tune_auto:
        env["REPRO_TUNE_AUTO"] = "0"
    return env


def spawn(argv: list[str], env: dict, out_path: Path, err_path: Path):
    """Run one process to completion: (exit code, peak RSS MB).

    ``os.wait4`` reports the largest resident set of the process and of
    the children it waited for (pool workers).
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err
        )
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def check(code: int, out_path: Path, reference: str | None):
    """Parse one command's ``--json`` output: (payload, problems)."""
    problems = [f"exit status {code}"] if code else []
    try:
        payload = json.loads(out_path.read_text())
        healths = {
            "engine.health": (payload["engine"] or {}).get("health", {}),
            "measured.health": payload["measured"]["health"],
        }
        found = digest(payload)
    except (ValueError, KeyError, TypeError, AttributeError):
        return None, problems + ["unparseable --json output"]
    for section, record in healths.items():
        nonzero = {k: v for k, v in record.items() if v and k not in ANALYSIS_FALLBACKS}
        if nonzero:
            problems.append(f"{section} nonzero: {nonzero}")
    if reference is not None and found != reference:
        problems.append(f"digest {found} differs from reference {reference}")
    return payload, problems


def run_pass(
    workload: Workload,
    order: list[tuple[str, ...]],
    cache_dir: Path,
    pass_dir: Path,
    digests: dict[str, str],
    traced: bool = False,
) -> tuple[float, list[Outcome]]:
    """Run the command list once, in ``order``: (wall s, outcomes)."""
    env = command_env(workload, cache_dir, pass_dir / "tmp")
    outcomes = []
    start = time.perf_counter()
    for index, argv in enumerate(order):
        out_path = pass_dir / f"{index}.out"
        spans_path = pass_dir / f"{index}.spans.json"
        obs_dir = pass_dir / f"{index}.obs"
        if traced:
            full = [sys.executable, str(TRACER), str(spans_path), "--obs", str(obs_dir)]
        else:
            full = [sys.executable, "-m", "repro"]
        code, rss = spawn(full + list(argv), env, out_path, pass_dir / f"{index}.err")
        payload, problems = check(code, out_path, digests.get(" ".join(argv)))
        outcome = Outcome(argv, rss, payload, problems)
        if traced:
            outcome.obs_dir = obs_dir
            try:
                outcome.spans = json.loads(spans_path.read_text())["spans"]
            except (OSError, ValueError, KeyError):
                outcome.problems.append("tracer wrote no spans")
        outcomes.append(outcome)
    return time.perf_counter() - start, outcomes


def prepare(workload: Workload, state_dir: Path, pass_dir: Path) -> tuple[Path, float]:
    """Create a pass directory with its starting cache: (cache dir, s)."""
    cache = pass_dir / "cache"
    start = time.perf_counter()
    (pass_dir / "tmp").mkdir(parents=True)
    if workload.start == "empty":
        cache.mkdir()
    else:
        shutil.copytree(state_dir / workload.start, cache)
    return cache, time.perf_counter() - start


# ----------------------------------------------------------------------
# the once-per-checkout starting state
# ----------------------------------------------------------------------
def state_digest(*workloads: Workload) -> str:
    """Digest of what the starting state depends on: the program's
    source, the interpreter, and the commands that build it."""
    h = hashlib.sha256(f"{sys.version}{workloads!r}".encode())
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def build_state(state_dir: Path, cold: Workload, sweep: Workload) -> dict:
    """Make the starting caches and the reference outputs.

    One traced pass of ``cold`` from an empty cache yields the
    calibration; one traced pass of ``sweep`` from that calibration
    yields the warm caches.  Both record the output digests and the
    simulated instruction counts that later runs are checked against.
    """
    building = state_dir.with_name(f"building-{os.getpid()}")
    shutil.rmtree(building, ignore_errors=True)
    building.mkdir(parents=True)
    reference = {"digests": {}, "instructions": {}}
    started = time.perf_counter()
    try:
        for workload in (cold, sweep):
            pass_dir = building / f"{workload.name}.pass"
            cache, _ = prepare(workload, building, pass_dir)
            _, outcomes = run_pass(workload, list(workload.commands), cache, pass_dir, {}, True)
            for outcome in outcomes:
                if outcome.problems:
                    raise BenchError(f"{outcome.case}: {'; '.join(outcome.problems)}")
                reference["digests"][outcome.case] = digest(outcome.payload)
                reference["instructions"][outcome.case] = outcome.instructions
            if workload is cold:
                (building / "calibration").mkdir()
                for path in cache.glob("calibration*.json"):
                    shutil.copy2(path, building / "calibration" / path.name)
            else:
                cache.rename(building / "warm")
            shutil.rmtree(pass_dir)
        (building / "reference.json").write_text(json.dumps(reference, indent=1))
        for stale in state_dir.parent.glob("state-*"):
            shutil.rmtree(stale, ignore_errors=True)
        building.rename(state_dir)
    finally:
        shutil.rmtree(building, ignore_errors=True)
    print(f"state: built {state_dir.name} in {time.perf_counter() - started:.1f} s")
    return reference


def ensure_state(work: Path, cold: Workload, sweep: Workload) -> tuple[Path, dict]:
    state_dir = work / f"state-{state_digest(cold, sweep)}"
    if (state_dir / "reference.json").exists():
        return state_dir, json.loads((state_dir / "reference.json").read_text())
    return state_dir, build_state(state_dir, cold, sweep)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def load_paper_tables() -> tuple[dict, dict]:
    """``PAPER`` of the Fig. 8 and Fig. 12 benchmarks, imported as is."""
    tables = []
    for name in PAPER_MODULES:
        spec = importlib.util.spec_from_file_location(
            f"perfbench_{name}", ROOT / "benchmarks" / f"{name}.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        tables.append(module.PAPER)
    return tables[0], tables[1]


def paper_error(argv: tuple[str, ...], payload: dict, fig8: dict, fig12: dict):
    """|simulated - published| / published, for cases the paper measured."""
    if argv[:5] == ("tridiag", "--n", "512", "--systems", "512") and "--full" in argv:
        published = fig8["CR-NBC" if "--padded" in argv else "CR"][0]
        simulated = payload["measured_ms"]
    elif argv[:2] == ("spmv", "--format") and "--full" in argv and "--cache" not in argv:
        published = fig12[(argv[2], False)]
        simulated = payload["gflops"]
    else:
        return None
    return abs(simulated - published) / published


def end_to_end(
    setups: list[float],
    walls: list[float],
    outcomes: list[Outcome],
    instructions: int,
    papers: tuple[dict, dict],
) -> dict:
    wall_s = statistics.median(walls)
    first = {}
    for outcome in outcomes:
        if outcome.payload is not None:
            first.setdefault(outcome.argv, outcome.payload)
    errors = [p["model_error"] for p in first.values()]
    vs_paper = [
        e for e in (paper_error(argv, p, *papers) for argv, p in first.items()) if e is not None
    ]
    failed = sum(1 for o in outcomes if o.problems)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median(setups),
        "warp_instr_per_s": instructions / wall_s,
        "peak_rss_mb": max(o.rss_mb for o in outcomes),
        "ok_frac": 1.0 - failed / len(outcomes),
        "model_error_mean": statistics.fmean(errors) if errors else 1.0,
        "model_error_max": max(errors, default=1.0),
        # No case of the workload has a published hardware number (the
        # paper's matmul figures are at n=1024): 1.0 marks "no reference".
        "paper_error_mean": statistics.fmean(vs_paper) if vs_paper else 1.0,
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced_wall: float, untraced_wall: float, outcomes: list[Outcome]) -> dict:
    values = dict.fromkeys(TOP_LAYERS.values(), 0.0)
    values.update(dict.fromkeys(ENGINE_PHASES.values(), 0.0))
    values.update(dict.fromkeys(POOL_COUNTERS.values(), 0))
    values["micro.hw_s"] = 0.0
    cal_hits = cal_lookups = 0
    events = sims = sig_hits = 0
    blocks_total = blocks_simulated = proved = synthesized = interpreted = 0
    engine_runs = trace_hits = measures = measured_hits = 0
    cycles = []
    for outcome in outcomes:
        for span in outcome.spans:
            seconds = span["end"] - span["start"]
            if span["name"] == "micro.hw":
                values["micro.hw_s"] += seconds
            if span["parent"] is not None:
                continue
            values[TOP_LAYERS[span["name"]]] += seconds
            # A call that raised carries no counts; its command has failed.
            if span["name"] == "hw.measure" and span.get("from_cache") is False:
                events += span["events"]
                sims += span["cluster_sims"]
                sig_hits += span["signature_hits"]
        for event in _obs_events(outcome.obs_dir):
            if event.get("type") == "span" and event.get("lane") == "main":
                name = ENGINE_PHASES.get(event["name"])
                if name is not None:
                    values[name] += (event["t1"] - event["t0"]) / 1e9
        counters = _obs_counters(outcome.obs_dir)
        cal_hits += counters.get("cache.calibration.hits", 0)
        cal_lookups += counters.get("cache.calibration.hits", 0)
        cal_lookups += counters.get("cache.calibration.misses", 0)
        payload = outcome.payload
        if payload is None:
            continue
        engine = payload["engine"]
        if engine is not None:
            engine_runs += 1
            trace_hits += engine["cache_hit"]
            if not engine["cache_hit"]:
                blocks_total += engine["total_blocks"]
                blocks_simulated += engine["simulated_blocks"]
                proved += engine["proved_classes"]
                synthesized += engine["synthesized_classes"]
                interpreted += engine["interpreted_classes"]
        measures += 1
        measured_hits += payload["measured"]["from_cache"]
        cycles.append(payload["measured"]["cycles"])
        for health in ((engine or {}).get("health", {}), payload["measured"]["health"]):
            for field_name, metric in POOL_COUNTERS.items():
                values[metric] += health.get(field_name, 0)
    rooted = sum(values[name] for name in TOP_LAYERS.values())
    values.update(
        {
            "micro.cache_hit_rate": _ratio(cal_hits, cal_lookups),
            "sim.blocks_total": blocks_total,
            "sim.blocks_simulated": blocks_simulated,
            "sim.dedup_ratio": _ratio(blocks_simulated, blocks_total),
            "sim.classes_proved": proved,
            "sim.classes_synthesized": synthesized,
            "sim.classes_interpreted": interpreted,
            "sim.trace_cache_hit_rate": _ratio(trace_hits, engine_runs),
            "hw.events": events,
            "hw.us_per_event": _ratio(values["hw.measure_s"] * 1e6, events),
            "hw.cluster_sims": sims,
            "hw.signature_hits": sig_hits,
            "hw.signature_hit_ratio": _ratio(sig_hits, sig_hits + sims),
            "hw.measured_cache_hit_rate": _ratio(measured_hits, measures),
            "hw.sim_cycles": math.fsum(cycles),
            "obs.overhead_frac": (traced_wall - untraced_wall) / untraced_wall,
            "unattributed_s": traced_wall - rooted,
        }
    )
    return values


def _obs_events(obs_dir: Path) -> list[dict]:
    try:
        with open(obs_dir / "events.jsonl", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    except (OSError, ValueError):
        return []


def _obs_counters(obs_dir: Path) -> dict:
    try:
        return json.loads((obs_dir / "metrics.json").read_text())["counters"]
    except (OSError, ValueError, KeyError):
        return {}


# ----------------------------------------------------------------------
# one benchmark run
# ----------------------------------------------------------------------
@dataclass
class RunResult:
    end_to_end: dict
    passes: int
    outcomes: list[Outcome]
    traced: list[Outcome] = field(default_factory=list)
    per_layer: dict | None = None
    traced_wall: float | None = None

    @property
    def every_outcome(self) -> list[Outcome]:
        return self.outcomes + self.traced

    @property
    def failed(self) -> int:
        return sum(1 for o in self.every_outcome if o.problems)


def sample_setups(workload: Workload, state_dir: Path, run_dir: Path) -> list[float]:
    samples = []
    for index in range(SETUP_SAMPLES):
        pass_dir = run_dir / f"setup{index}"
        samples.append(prepare(workload, state_dir, pass_dir)[1])
        shutil.rmtree(pass_dir)
    return samples


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    state_dir: Path,
    reference: dict,
    run_dir: Path,
    papers: tuple[dict, dict],
) -> RunResult:
    order = list(workload.commands)
    random.Random(seed).shuffle(order)
    digests = reference["digests"]
    setups = sample_setups(workload, state_dir, run_dir)
    walls: list[float] = []
    outcomes: list[Outcome] = []
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        pass_dir = run_dir / f"pass{len(walls)}"
        cache, setup = prepare(workload, state_dir, pass_dir)
        setups.append(setup)
        wall, done = run_pass(workload, order, cache, pass_dir, digests)
        walls.append(wall)
        outcomes.extend(done)
        shutil.rmtree(pass_dir)
    # Sampled again after the loop, so the median spans the run.
    setups += sample_setups(workload, state_dir, run_dir)
    instructions = sum(reference["instructions"][" ".join(argv)] for argv in order)
    result = RunResult(
        end_to_end(setups, walls, outcomes, instructions, papers), len(walls), outcomes
    )
    if trace:
        pass_dir = run_dir / "traced"
        cache, _ = prepare(workload, state_dir, pass_dir)
        traced_wall, traced = run_pass(workload, order, cache, pass_dir, digests, traced=True)
        untraced = {o.case: o.payload for o in outcomes if o.payload is not None}
        for outcome in traced:
            if outcome.instructions != reference["instructions"][outcome.case]:
                outcome.problems.append("simulated instruction count differs from reference")
            plain = untraced.get(outcome.case)
            if outcome.payload and plain and comparable(outcome.payload) != comparable(plain):
                outcome.problems.append("traced output differs from untraced output")
        result.traced = traced
        result.traced_wall = traced_wall
        result.per_layer = per_layer(traced_wall, result.end_to_end["wall_s"], traced)
        shutil.rmtree(pass_dir)
    return result


def load_spec() -> dict[str, dict[str, str]]:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}``."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in KINDS}


def report(result: RunResult, kind: str, spec: dict) -> str:
    """The result line: every metric of ``kind``, in BENCHMARK.json order."""
    values = result.per_layer if kind == "per_layer" else result.end_to_end
    return json.dumps(
        {
            "correct": result.failed == 0,
            "attempted": len(result.every_outcome),
            "failed": result.failed,
            "metrics": {
                name: {"value": values[name], "unit": unit} for name, unit in spec[kind].items()
            },
        }
    )


def check_layout() -> None:
    """Fail fast outside a full checkout (no CLI, no paper tables)."""
    needed = [SRC / "repro" / "__main__.py", BENCHMARK_JSON]
    needed += [ROOT / "benchmarks" / f"{name}.py" for name in PAPER_MODULES]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        raise BenchError(f"not a repository checkout, missing: {', '.join(missing)}")


def setup_inputs() -> tuple[tuple[dict, dict], dict]:
    """Check the checkout, then load the paper tables and the metric spec."""
    check_layout()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return load_paper_tables(), load_spec()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        papers, spec = setup_inputs()
        state_dir, reference = ensure_state(
            WORK, WORKLOADS["cold_matmul"], WORKLOADS["paper_sweep"]
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / "runs" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        result = run_workload(
            workload, args.seed, args.seconds, bool(args.trace),
            state_dir, reference, run_dir, papers,
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    seeds = " ".join(f"{k}={v}" for k, v in CLI_SEEDS.items())
    print(f"inputs: CLI seeds {seeds}; --seed {args.seed} orders the commands")
    digests = {}
    for outcome in result.every_outcome:
        for problem in outcome.problems:
            print(f"FAILED {outcome.case}: {problem}")
        if outcome.payload is not None:
            digests.setdefault(outcome.case, digest(outcome.payload))
    for case, value in sorted(digests.items()):
        print(f"digest {value} {case}")
    print(f"passes: {result.passes} (timings are medians over passes)")
    kinds = ("end_to_end", "per_layer") if args.trace else ("end_to_end",)
    for kind in kinds:
        values = result.per_layer if kind == "per_layer" else result.end_to_end
        for name, unit in spec[kind].items():
            print(f"{name:<28} {values[name]:.6g} {unit}")
    print(report(result, kinds[-1], spec))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
