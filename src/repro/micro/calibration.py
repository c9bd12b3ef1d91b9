"""Calibration tables: the microbenchmark observations the model uses.

Running all microbenchmarks once yields the throughput curves of Fig. 2
and a memoized synthetic-benchmark oracle for global memory.  Like the
paper's, each Fig. 2 point measures one SM as a function of its resident
warps (:meth:`repro.hw.gpu.HardwareGpu.measure_uniform_sm`); the
per-SM rate scales to the whole GPU by ``num_sms``.  Tables are saved
and loaded in one file format (:meth:`CalibrationTables.save`), which
:mod:`repro.micro.cache` stores by content and ``--calibration``
names explicitly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import CalibrationError
from repro.hw.config import config_fingerprint
from repro.hw.gpu import HardwareGpu
from repro.micro.globalmem import GlobalBenchmarkResult, run_synthetic
from repro.micro.instruction import (
    SWEEP_RESIDENT_BLOCKS,
    InstructionThroughputTable,
    instruction_points,
    warp_counts_for,
)
from repro.micro.shared import SharedBandwidthTable, shared_points
from repro.pool import Pending
from repro.util import atomic_write_bytes, source_digest, spec_fingerprint


@dataclass
class CalibrationTables:
    """Everything the performance model knows about the hardware."""

    instruction: InstructionThroughputTable
    shared: SharedBandwidthTable
    gpu: HardwareGpu = field(repr=False, default=None)
    _global_cache: dict[tuple[int, int, int], GlobalBenchmarkResult] = field(
        default_factory=dict, repr=False
    )

    def global_benchmark(
        self, num_blocks: int, threads_per_block: int, loads_per_thread: int
    ) -> GlobalBenchmarkResult:
        """Synthetic global benchmark of a configuration (memoized)."""
        if self.gpu is None:
            raise CalibrationError(
                "calibration tables were loaded without a hardware handle; "
                "global benchmarks cannot be run"
            )
        key = (num_blocks, threads_per_block, loads_per_thread)
        result = self._global_cache.get(key)
        if result is None:
            result = run_synthetic(
                num_blocks, threads_per_block, loads_per_thread, self.gpu
            )
            self._global_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "warp_counts": list(self.instruction.warp_counts),
            "instruction": {
                name: list(values)
                for name, values in self.instruction.throughput.items()
            },
            "shared_warp_counts": list(self.shared.warp_counts),
            "shared": list(self.shared.bandwidth),
            "global": [
                {
                    "key": list(key),
                    "seconds": r.seconds,
                    "useful_bytes": r.useful_bytes,
                    "transactions": r.transactions,
                    "transferred_bytes": r.transferred_bytes,
                }
                for key, r in self._global_cache.items()
            ],
        }
        return json.dumps(payload, indent=2)

    def save(self, path: str | Path, sweep: list) -> bool:
        """Write the one calibration file format, atomically.

        The file is an envelope ``{version, spec, config, sweep,
        tables}``: the source digest, the fingerprints of the gpu's
        spec and timing configuration, the sweep that measured the
        tables (:func:`sweep_key`), and the :meth:`to_json` payload.
        Returns whether the write landed
        (:func:`repro.util.atomic_write_bytes` fails open).
        """
        envelope = {
            "version": source_digest(),
            "spec": spec_fingerprint(self.gpu.spec),
            "config": config_fingerprint(self.gpu.config),
            "sweep": sweep,
            "tables": json.loads(self.to_json()),
        }
        return atomic_write_bytes(
            path, json.dumps(envelope, indent=2).encode()
        )

    @classmethod
    def from_json(
        cls, text: str, gpu: HardwareGpu | None = None
    ) -> "CalibrationTables":
        """Tables from a :meth:`to_json` payload (no file header)."""
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise CalibrationError(f"malformed calibration JSON: {exc}") from exc
        return cls._from_payload(payload, gpu)

    @classmethod
    def _from_payload(
        cls, payload: dict, gpu: HardwareGpu | None
    ) -> "CalibrationTables":
        try:
            instruction = InstructionThroughputTable(
                tuple(payload["warp_counts"]),
                {k: tuple(v) for k, v in payload["instruction"].items()},
            )
            shared = SharedBandwidthTable(
                tuple(payload["shared_warp_counts"]), tuple(payload["shared"])
            )
            tables = cls(instruction=instruction, shared=shared, gpu=gpu)
            for entry in payload.get("global", ()):
                key = tuple(entry["key"])
                tables._global_cache[key] = GlobalBenchmarkResult(
                    num_blocks=key[0],
                    threads_per_block=key[1],
                    loads_per_thread=key[2],
                    seconds=entry["seconds"],
                    useful_bytes=entry["useful_bytes"],
                    transactions=entry["transactions"],
                    transferred_bytes=entry["transferred_bytes"],
                )
        except (AttributeError, LookupError, TypeError, ValueError) as exc:
            raise CalibrationError(f"malformed calibration JSON: {exc}") from exc
        return tables

    @classmethod
    def load(
        cls,
        path: str | Path,
        gpu: HardwareGpu | None = None,
        sweep: list | None = None,
    ) -> "CalibrationTables":
        """Tables from a file :meth:`save` wrote, validated.

        Raises :class:`CalibrationError` unless the file has the header
        and this source's digest as its version, and -- where given --
        ``gpu``'s spec and timing configuration and ``sweep``.
        """
        try:
            envelope = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise CalibrationError(f"unreadable calibration file: {exc}") from exc
        if not isinstance(envelope, dict) or not _HEADER <= envelope.keys():
            raise CalibrationError(
                "calibration file has no {version, spec, config, sweep} "
                "header; recalibrate with `repro calibrate`"
            )
        if envelope["version"] != source_digest():
            raise CalibrationError(
                "calibration file has schema version "
                f"{envelope['version']!r}, expected {source_digest()}; "
                "recalibrate"
            )
        if gpu is not None:
            if envelope["spec"] != spec_fingerprint(gpu.spec):
                raise CalibrationError(
                    "calibration file was measured for a different "
                    "architecture spec; recalibrate with "
                    "`repro calibrate --spec`"
                )
            if envelope["config"] != config_fingerprint(gpu.config):
                raise CalibrationError(
                    "calibration file was measured under a different "
                    "timing configuration (HwConfig); recalibrate"
                )
        if sweep is not None and envelope["sweep"] != sweep:
            raise CalibrationError(
                f"calibration file holds the sweep {envelope['sweep']}, "
                f"expected {sweep}; recalibrate"
            )
        return cls._from_payload(envelope["tables"], gpu)


#: Keys every calibration file carries (:meth:`CalibrationTables.save`).
_HEADER = {"version", "spec", "config", "sweep", "tables"}


def sweep_key(warp_counts: tuple[int, ...], iterations: int) -> list:
    """The sweep a calibration file records: ``[warp_counts, iterations]``."""
    return [list(warp_counts), iterations]


def calibrate(
    gpu: HardwareGpu | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
) -> CalibrationTables:
    """Run the full microbenchmark suite: ``start_calibrate(...).collect()``."""
    return start_calibrate(gpu, warp_counts, iterations).collect()


def start_calibrate(
    gpu: HardwareGpu | None = None,
    warp_counts: tuple[int, ...] | None = None,
    iterations: int = 60,
) -> Pending:
    """Start the full microbenchmark suite against a hardware instance.

    The sweep's one-SM jobs run on the timing layer's pool
    (``gpu.workers``) while the caller works; the tables are built when
    the returned :class:`~repro.pool.Pending` is collected, and the
    time spent waiting for the pool there is the
    ``micro.calibrate.wait`` obs span.  With no pool the sweep runs
    here, before this returns.

    ``warp_counts=None`` resolves to the spec's grid
    (:func:`repro.micro.instruction.warp_counts_for`): the GT200
    default sweep for the baseline, extended sample points for
    registered wide-warp-count generations.
    """
    from repro import obs

    gpu = gpu or HardwareGpu()
    if warp_counts is None:
        warp_counts = warp_counts_for(gpu.spec)
    # Every sweep point is an independent one-SM job: one batch lets
    # them all share the timing layer's pool (``gpu.workers``).
    inst_points, inst_table = instruction_points(
        gpu.spec, warp_counts, iterations=iterations
    )
    smem_points, smem_table = shared_points(
        gpu.spec, warp_counts, iterations=iterations
    )
    sweep = gpu.start_uniform_sm(
        inst_points + smem_points, SWEEP_RESIDENT_BLOCKS
    )
    split = len(inst_points)

    def tables() -> CalibrationTables:
        with obs.span("micro.calibrate.wait"):
            results = sweep.collect()
        return CalibrationTables(
            instruction=inst_table(results[:split]),
            shared=smem_table(results[split:]),
            gpu=gpu,
        )

    return Pending(tables, sweep.close)

