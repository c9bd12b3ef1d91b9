"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Print the modelled GPU's specification and derived peaks.
``calibrate``
    Run the microbenchmark suite and save calibration tables as JSON.
``matmul`` / ``tridiag`` / ``spmv``
    Run a case study and print the model report next to the hardware
    measurement.
``analyze``
    Run the static kernel checker (:mod:`repro.analysis`) over the
    built-in app kernels; exits nonzero on any error-severity
    diagnostic (races, OOB accesses, divergent barriers).
``specs``
    The architecture registry (:mod:`repro.arch.registry`): ``list``
    enumerates the registered generations (``--markdown`` emits the
    ``docs/ARCHITECTURES.md`` reference), ``show`` prints one spec,
    and ``crossval`` runs the held-out cross-GPU validation harness
    (:mod:`repro.model.crossval`).

Most commands take ``--spec NAME`` to run against any registered
architecture generation instead of the GT200 baseline.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from repro.obs import log as obs_log
from repro.sim.trace import TYPE_NAMES


def _resolve_spec(args):
    """Registered spec selected by ``--spec`` (default: the baseline)."""
    from repro.arch.registry import BASELINE, get_spec

    return get_spec(getattr(args, "spec", None) or BASELINE)


def _cmd_info(args) -> int:
    spec = _resolve_spec(args)
    print(f"device               : {spec.name}")
    print(f"SMs                  : {spec.num_sms} @ {spec.core_clock_ghz} GHz")
    print(
        f"memory clusters      : {spec.memory.num_clusters} "
        f"({spec.sms_per_cluster} SMs each)"
    )
    print(f"registers / SM       : {spec.sm.registers}")
    print(f"shared memory / SM   : {spec.sm.shared_memory_bytes} B "
          f"({spec.sm.shared_memory_banks} banks)")
    print(
        "ceilings             : "
        f"{spec.sm.max_threads_per_block} threads/block, "
        f"{spec.sm.max_blocks} blocks, {spec.sm.max_warps} warps"
    )
    for name in TYPE_NAMES:
        print(
            f"type {name:<3s} peak        : "
            f"{spec.peak_instruction_throughput(name) / 1e9:6.2f} GI/s "
            f"({spec.units_for_type(name)} units)"
        )
    print(f"peak single precision: {spec.peak_gflops:.1f} GFLOPS")
    print(f"peak shared bandwidth: {spec.peak_shared_bandwidth / 1e9:.1f} GB/s")
    print(f"peak global bandwidth: {spec.peak_global_bandwidth / 1e9:.1f} GB/s")
    return 0


def _cmd_calibrate(args) -> int:
    from repro.errors import CalibrationError
    from repro.hw import HardwareGpu
    from repro.micro import calibrate
    from repro.micro.calibration import sweep_key

    spec = _resolve_spec(args)
    obs_log.info(
        f"running microbenchmarks on {spec.name} ...", spec=spec.name
    )
    tables = calibrate(HardwareGpu(spec=spec), iterations=args.iterations)
    sweep = sweep_key(tables.instruction.warp_counts, args.iterations)
    if not tables.save(args.output, sweep):
        raise CalibrationError(f"could not write {args.output}")
    print(f"calibration saved to {args.output}")
    return 0


@contextmanager
def _make_model(args):
    """The case's timing simulator and model, for the ``with`` block.

    A cold calibration is only started here: its one-SM jobs run on
    the ``--workers`` pool while the block simulates the case, and the
    model collects the tables when it first needs them.  Leaving the
    block normally waits for the sweep (and caches it); leaving it by
    an exception kills the sweep's pool.
    """
    from repro.hw import HardwareGpu
    from repro.micro import CalibrationTables, start_calibrate
    from repro.micro.cache import (
        default_calibration_path,
        default_measure_cache_dir,
        start_load_or_calibrate,
    )
    from repro.model import PerformanceModel
    from repro.pool import Pending

    # --workers governs every layer: the functional-simulation engine,
    # the timing simulator's cluster fan-out and the calibration sweep.  --no-cache likewise
    # disables the measured-run memo cache next to the trace cache.
    # --spec selects the architecture; calibration tables are stored
    # per (spec, timing config, sweep).
    spec = _resolve_spec(args)
    measure_cache = None
    if not getattr(args, "no_cache", False):
        measure_cache = str(default_measure_cache_dir())
    gpu = HardwareGpu(
        spec=spec,
        workers=getattr(args, "workers", 0),
        cache_dir=measure_cache,
        task_timeout=getattr(args, "task_timeout", None),
    )
    if args.calibration:
        tables = Pending.of(CalibrationTables.load(args.calibration, gpu=gpu))
        provenance = "file"
    elif getattr(args, "no_cache", False):
        obs_log.info("calibrating (cache disabled) ...")
        tables = start_calibrate(gpu)
        provenance = "cold"
    else:
        path = default_calibration_path(gpu)
        ran = []

        def on_calibrate() -> None:
            ran.append(True)
            obs_log.info(
                f"calibrating (tables will be cached at {path}) ...",
                path=str(path),
            )

        tables = start_load_or_calibrate(gpu, on_calibrate=on_calibrate)
        provenance = "cold" if ran else "hit"
    model = PerformanceModel(tables, spec=spec)
    # Stamped for the report's cache-provenance line (apps.common reads
    # it back when assembling PerformanceReport.cache_provenance).
    model.calibration_provenance = provenance
    with tables:
        yield gpu, model


def _engine_kwargs(args) -> dict:
    """Engine knobs shared by the case-study commands."""
    from repro.micro.cache import default_trace_cache_dir

    trace_cache = None
    if not getattr(args, "no_cache", False):
        trace_cache = str(default_trace_cache_dir())
    return {
        "workers": args.workers,
        "trace_cache": trace_cache,
        "task_timeout": getattr(args, "task_timeout", None),
    }


def _print_run(run) -> None:
    print(run.report.render())
    print(f"hardware measurement : {run.measured.milliseconds:.4f} ms")
    print(f"model error          : {run.model_error:.1%}")


def _run_as_json(run, **extra) -> str:
    """Machine-readable case-study result, health telemetry included.

    ``engine.health`` and ``measured.health`` carry the degradation
    counters (pool retries, serial fallbacks, cache quarantines, ...);
    both are all-zero dicts on a healthy run, so consumers can alert on
    any nonzero value without knowing the field names in advance.
    """
    import dataclasses
    import json

    stats = run.trace.engine_stats
    payload = {
        "name": run.name,
        "predicted_ms": run.report.predicted_milliseconds,
        "measured_ms": run.measured.milliseconds,
        "model_error": run.model_error,
        "bottleneck": run.report.bottleneck,
        "engine": dataclasses.asdict(stats) if stats is not None else None,
        "measured": {
            "cycles": run.measured.cycles,
            "extrapolated": run.measured.extrapolated,
            "from_cache": run.measured.from_cache,
            "health": dataclasses.asdict(run.measured.health),
        },
        "cache_provenance": run.report.cache_provenance,
    }
    payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)


def _cmd_matmul(args) -> int:
    from repro.apps.matmul import gflops, run_matmul

    with _make_model(args) as (gpu, model):
        run = run_matmul(
            args.n,
            args.tile,
            model=model,
            gpu=gpu,
            spec=_resolve_spec(args),
            representative=not args.full,
            **_engine_kwargs(args),
        )
    if args.json:
        print(_run_as_json(run, gflops=gflops(args.n, run.measured.seconds)))
        return 0
    print(f"\nSGEMM {args.n}x{args.n}, {args.tile}x{args.tile} sub-matrices")
    _print_run(run)
    print(f"effective            : {gflops(args.n, run.measured.seconds):.0f} GFLOPS")
    return 0


def _cmd_tridiag(args) -> int:
    from repro.apps.tridiag import run_cr

    with _make_model(args) as (gpu, model):
        run = run_cr(
            args.n,
            args.systems,
            padded=args.padded,
            model=model,
            gpu=gpu,
            spec=_resolve_spec(args),
            representative=not args.full,
            **_engine_kwargs(args),
        )
    if args.json:
        print(_run_as_json(run))
        return 0
    name = "CR-NBC" if args.padded else "CR"
    print(f"\n{name}: {args.systems} systems x {args.n} equations")
    _print_run(run)
    return 0


def _cmd_spmv(args) -> int:
    from repro import obs
    from repro.apps.matrices import qcd_like
    from repro.apps.spmv import gflops, run_spmv

    with _make_model(args) as (gpu, model):
        with obs.span("apps.inputs"):
            matrix = qcd_like()
        run = run_spmv(
            matrix,
            args.format,
            model=model,
            gpu=gpu,
            spec=_resolve_spec(args),
            use_cache=args.cache,
            sample_blocks=None if args.full else 12,
            **_engine_kwargs(args),
        )
    if args.json:
        print(_run_as_json(run, gflops=gflops(matrix, run.measured.seconds)))
        return 0
    print(f"\nSpMV {args.format} on synthetic QCD ({matrix.n}^2)")
    _print_run(run)
    print(f"effective            : {gflops(matrix, run.measured.seconds):.1f} GFLOPS")
    return 0


def _cmd_obs(args) -> int:
    return _OBS_COMMANDS[args.obs_command](args)


def _cmd_obs_report(args) -> int:
    from repro.obs.report import (
        ObsReportError,
        build_report,
        render_markdown,
        render_text,
    )

    try:
        report = build_report(args.directory, top_spans=args.top)
    except ObsReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        import json

        print(json.dumps(report, indent=2, sort_keys=True))
    elif args.markdown:
        print(render_markdown(report))
    else:
        print(render_text(report))
    return 0


def _cmd_analyze(args) -> int:
    from repro.analysis.report import (
        BUILTIN_KERNELS,
        analyze_kernels,
        error_count,
        render_json,
        render_text,
    )

    names = args.kernel if args.kernel else sorted(BUILTIN_KERNELS)
    reports = analyze_kernels(names)
    print(render_json(reports) if args.json else render_text(reports))
    return 1 if error_count(reports) else 0


def _cmd_specs(args) -> int:
    return _SPECS_COMMANDS[args.specs_command](args)


def _emit(text: str, path: str | None) -> None:
    """Write to ``path``, or stdout when the path is ``-``."""
    if path and path != "-":
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"written: {path}", file=sys.stderr)
    else:
        print(text)


def _cmd_specs_list(args) -> int:
    from repro.arch.registry import entries, render_json, render_markdown

    if args.markdown is not None:
        _emit(render_markdown(), args.markdown)
        return 0
    if args.json:
        print(render_json())
        return 0
    for entry in entries():
        spec = entry.spec
        print(
            f"{entry.name:<14} {spec.name:<24} "
            f"{spec.num_sms:>3} SMs @ {spec.core_clock_ghz:.2f} GHz, "
            f"{spec.sm.max_warps:>2} warps/SM, "
            f"{spec.peak_gflops:7.1f} GFLOPS, "
            f"{spec.peak_global_bandwidth / 1e9:6.1f} GB/s global"
        )
    return 0


def _cmd_specs_show(args) -> int:
    from repro.arch.registry import describe, get_entry

    entry = get_entry(args.name)
    if args.json:
        import json

        print(json.dumps(describe(entry), indent=2, sort_keys=True))
        return 0
    payload = describe(entry)
    print(f"registry name        : {entry.name}")
    print(f"device               : {entry.spec.name}")
    print(f"fingerprint          : {entry.fingerprint}")
    print(f"provenance           : {entry.provenance}")
    print(f"SMs                  : {payload['num_sms']} "
          f"@ {payload['core_clock_ghz']} GHz")
    print(f"functional units     : {payload['functional_units']}")
    for section in ("sm", "memory", "derived"):
        print(f"[{section}]")
        for key, value in sorted(payload[section].items()):
            print(f"  {key:<28} = {value}")
    return 0


def _cmd_specs_crossval(args) -> int:
    from repro.micro.cache import default_trace_cache_dir
    from repro.model.crossval import cross_validate

    trace_cache = None
    if not args.no_cache:
        trace_cache = str(default_trace_cache_dir())
    report = cross_validate(
        targets=tuple(args.specs) if args.specs else None,
        kernels=tuple(args.kernels) if args.kernels else None,
        source=args.source,
        warp_counts=tuple(args.warp_counts) if args.warp_counts else None,
        iterations=args.iterations,
        use_calibration_cache=not args.no_cache,
        workers=args.workers,
        trace_cache=trace_cache,
        progress=obs_log.info,
    )
    emitted = False
    if args.json is not None:
        _emit(report.to_json(), args.json)
        emitted = True
    if args.markdown is not None:
        _emit(report.render_markdown(), args.markdown)
        emitted = True
    if not emitted:
        print(report.render())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Quantitative GPU performance analysis (HPCA 2011 reproduction)",
    )
    parser.add_argument(
        "--obs",
        metavar="DIR",
        help="record structured traces/metrics/manifest for this run "
        "into DIR (also honored via $REPRO_OBS); inspect with "
        "`repro obs report DIR`",
    )
    parser.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="stderr log threshold (also honored via $REPRO_LOG; "
        "default: info)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec_flag(command) -> None:
        command.add_argument(
            "--spec",
            metavar="NAME",
            help="registered architecture generation to model "
            "(see `repro specs list`; default: gt200)",
        )

    info = sub.add_parser("info", help="print the modelled GPU specification")
    add_spec_flag(info)

    cal = sub.add_parser("calibrate", help="run microbenchmarks, save JSON")
    cal.add_argument("-o", "--output", default="calibration.json")
    cal.add_argument("--iterations", type=int, default=60)
    add_spec_flag(cal)

    for name in ("matmul", "tridiag", "spmv"):
        case = sub.add_parser(name, help=f"run the {name} case study")
        add_spec_flag(case)
        case.add_argument(
            "--calibration", help="reuse a saved calibration JSON"
        )
        case.add_argument(
            "--no-cache",
            action="store_true",
            help="skip the default calibration/trace/measured-run caches "
            "(~/.cache/repro)",
        )
        case.add_argument(
            "--workers",
            type=int,
            default=0,
            help="process-pool width for the simulation engine, timing "
            "simulator and calibration (0 = in-process)",
        )
        case.add_argument(
            "--full",
            action="store_true",
            help="simulate the full grid (deduplicated, exact) instead of a "
            "representative sample",
        )
        case.add_argument(
            "--task-timeout",
            type=float,
            default=None,
            metavar="SECONDS",
            help="per-task watchdog for pooled work: a hung worker is "
            "killed after this long and its task re-executed serially "
            "(default: $REPRO_POOL_TIMEOUT, else no timeout)",
        )
        case.add_argument(
            "--json",
            action="store_true",
            help="emit the result as JSON (predictions, measurement, "
            "engine stats and degradation-health counters)",
        )
        if name == "matmul":
            case.add_argument("--n", type=int, default=512)
            case.add_argument("--tile", type=int, default=16, choices=(8, 16, 32))
        elif name == "tridiag":
            case.add_argument("--n", type=int, default=512)
            case.add_argument("--systems", type=int, default=512)
            case.add_argument("--padded", action="store_true")
        else:
            case.add_argument(
                "--format",
                default="bell_imiv",
                choices=("ell", "bell_im", "bell_imiv"),
            )
            case.add_argument("--cache", action="store_true")

    obs_cmd = sub.add_parser(
        "obs",
        help="observability runs: summarize traces recorded with --obs",
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)

    obs_report = obs_sub.add_parser(
        "report",
        help="summarize one recorded run (top spans, cache hit rates, "
        "degradation events)",
    )
    obs_report.add_argument(
        "directory", help="directory a previous `--obs DIR` run wrote"
    )
    report_group = obs_report.add_mutually_exclusive_group()
    report_group.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    report_group.add_argument(
        "--markdown",
        action="store_true",
        help="emit the report as markdown (CI job summaries)",
    )
    obs_report.add_argument(
        "--top",
        type=int,
        default=15,
        metavar="N",
        help="number of spans in the self-time ranking",
    )

    analyze = sub.add_parser(
        "analyze",
        help="static kernel checker: races, OOB, divergent barriers",
    )
    group = analyze.add_mutually_exclusive_group()
    group.add_argument(
        "--kernel",
        action="append",
        metavar="NAME",
        help="analyze one built-in kernel (repeatable; default: all)",
    )
    group.add_argument(
        "--all",
        action="store_true",
        help="analyze every built-in kernel (the default)",
    )
    analyze.add_argument(
        "--json",
        action="store_true",
        help="emit the report as JSON instead of text",
    )

    specs = sub.add_parser(
        "specs",
        help="architecture registry: list/show generations, cross-GPU "
        "validation",
    )
    specs_sub = specs.add_subparsers(dest="specs_command", required=True)

    specs_list = specs_sub.add_parser(
        "list", help="list the registered architecture generations"
    )
    list_group = specs_list.add_mutually_exclusive_group()
    list_group.add_argument(
        "--json",
        action="store_true",
        help="emit the full registry (all spec fields, derived peaks, "
        "provenance) as JSON",
    )
    list_group.add_argument(
        "--markdown",
        nargs="?",
        const="-",
        metavar="PATH",
        help="emit the architecture reference document "
        "(docs/ARCHITECTURES.md) to PATH, or stdout without PATH",
    )

    specs_show = specs_sub.add_parser(
        "show", help="print one registered architecture in full"
    )
    specs_show.add_argument("name", help="registry name (see `specs list`)")
    specs_show.add_argument(
        "--json", action="store_true", help="emit the spec as JSON"
    )

    crossval = specs_sub.add_parser(
        "crossval",
        help="held-out cross-GPU validation: predict each kernel on "
        "specs the model was not calibrated against",
    )
    crossval.add_argument(
        "--specs",
        action="append",
        metavar="NAME",
        help="target spec to predict on (repeatable; default: every "
        "registered generation)",
    )
    crossval.add_argument(
        "--kernel",
        action="append",
        dest="kernels",
        metavar="NAME",
        help="kernel-zoo workload (repeatable; default: all built-ins)",
    )
    crossval.add_argument(
        "--source",
        metavar="NAME",
        help="calibrate on this spec for every target (default: "
        "held-out pairing via the registry baseline)",
    )
    crossval.add_argument(
        "--json",
        nargs="?",
        const="-",
        metavar="PATH",
        help="emit the report as JSON to PATH (stdout without PATH); "
        "CI uploads this as BENCH_crossval.json",
    )
    crossval.add_argument(
        "--markdown",
        nargs="?",
        const="-",
        metavar="PATH",
        help="emit the report as markdown to PATH (stdout without PATH)",
    )
    crossval.add_argument(
        "--iterations",
        type=int,
        default=60,
        help="microbenchmark iterations per calibration point",
    )
    crossval.add_argument(
        "--warp-counts",
        type=int,
        nargs="+",
        metavar="W",
        help="calibration warp sweep (default: per-spec grid)",
    )
    crossval.add_argument(
        "--workers",
        type=int,
        default=0,
        help="process-pool width for simulation (0 = in-process)",
    )
    crossval.add_argument(
        "--no-cache",
        action="store_true",
        help="skip the per-spec calibration and trace caches",
    )
    return parser


_COMMANDS = {
    "info": _cmd_info,
    "calibrate": _cmd_calibrate,
    "matmul": _cmd_matmul,
    "tridiag": _cmd_tridiag,
    "spmv": _cmd_spmv,
    "analyze": _cmd_analyze,
    "specs": _cmd_specs,
    "obs": _cmd_obs,
}

_OBS_COMMANDS = {
    "report": _cmd_obs_report,
}

_SPECS_COMMANDS = {
    "list": _cmd_specs_list,
    "show": _cmd_specs_show,
    "crossval": _cmd_specs_crossval,
}

def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    args = build_parser().parse_args(argv)
    if args.log_level:
        obs_log.set_level(args.log_level)
    # `obs report` reads a recorded directory; recording *it* would
    # clobber the very run it is summarizing, so it never records.
    obs_dir = args.obs or os.environ.get("REPRO_OBS") or None
    if args.command == "obs":
        obs_dir = None

    def dispatch() -> int:
        try:
            return _COMMANDS[args.command](args)
        except ReproError as exc:
            # Domain errors (unknown spec/kernel names, malformed
            # calibration files, ...) are user errors, not crashes.
            obs_log.error(f"error: {exc}")
            return 2

    if obs_dir is None:
        return dispatch()

    from repro import obs

    recorder = obs.start()
    status: int | None = None
    try:
        status = dispatch()
        return status
    finally:
        obs.stop()
        obs.export_session(
            recorder,
            obs_dir,
            argv=list(argv) if argv is not None else sys.argv[1:],
            command=args.command,
            exit_status=1 if status is None else status,
        )


if __name__ == "__main__":
    raise SystemExit(main())
