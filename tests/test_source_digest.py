"""Content-keyed caches: every on-disk entry is versioned by the source
digest of the package, so one written by other code is a miss."""

import re

from repro.apps.matmul import build_matmul_kernel, prepare_problem
from repro.hw import HardwareGpu
from repro.sim import SimulationEngine
from repro.sim.trace import BlockTrace, EV_GLOBAL_LD
from repro.util import source_digest


def _other_source(monkeypatch):
    monkeypatch.setattr("repro.util._SOURCE_DIGEST", "other source")


def test_digest_is_a_memoized_sha256():
    digest = source_digest()
    assert re.fullmatch(r"[0-9a-f]{64}", digest)
    assert source_digest() is digest


def test_trace_from_other_source_is_a_miss(tmp_path, monkeypatch):
    def cache_hit():
        # A fresh problem per run: the kernel writes its output, and the
        # key covers the global memory image.
        problem = prepare_problem(64, 16)
        engine = SimulationEngine(
            build_matmul_kernel(64, 16), gmem=problem.gmem, cache_dir=tmp_path
        )
        return engine.run(problem.launch()).engine_stats.cache_hit

    assert not cache_hit()
    assert cache_hit()
    _other_source(monkeypatch)
    assert not cache_hit()


def test_measured_run_from_other_source_is_a_miss(tmp_path, monkeypatch):
    trace = BlockTrace(
        block=(0, 0),
        stages=[],
        warp_streams=[[(EV_GLOBAL_LD, 0, 2, 128, None)] * 20] * 2,
    )
    gpu = HardwareGpu(cache_dir=str(tmp_path))
    assert not gpu.measure(trace, 40, 4).from_cache
    assert gpu.measure(trace, 40, 4).from_cache
    _other_source(monkeypatch)
    assert not gpu.measure(trace, 40, 4).from_cache
