"""Shared process-pool plumbing for the simulation layers.

Both the functional-simulation engine (:mod:`repro.sim.engine`) and the
hardware timing layer (:mod:`repro.hw.engine`) fan independent tasks
across worker processes.  This module owns the one pool policy they
share, so worker-count semantics, start-method quirks, and -- since the
fault-tolerance layer -- failure semantics cannot drift apart:

* **fork on Linux only.**  macOS still offers fork, but forking after
  numpy/Accelerate initialisation can deadlock children; everywhere but
  Linux the safer (slower) spawn method is used.
* **serial fallback.**  ``workers <= 1`` or a single task runs in the
  caller's process through ``serial_fn`` -- the only mode whose side
  effects (e.g. global-memory writes) are observable to the caller, and
  the mode every parallel run must be bit-identical to.
* **deterministic aggregation.**  Results come back in task order, so
  callers reduce them exactly as a serial loop would.
* **self-healing.**  A crashed worker (``BrokenProcessPool``, abnormal
  exit) triggers a bounded retry with exponential backoff through a
  rebuilt pool; a hung task is detected by the per-task timeout
  watchdog, its pool is killed, and the task is re-executed in-process
  through ``serial_fn`` -- the bit-identity reference -- so a degraded
  run returns *exactly* the healthy result.  What degraded is reported
  in a :class:`PoolHealth` record, never swallowed.
* **one transport.**  Per-pool state (e.g. the engine's pre-launch
  global-memory arena) travels in ``initargs``: fork workers inherit
  it, spawn workers unpickle it once each.
* **start, then collect.**  :func:`start_tasks` submits the tasks and
  returns a :class:`Pending`; the caller may do other work in its own
  process before collecting (a cold CLI run simulates its case while
  the calibration sweep runs).  :func:`map_tasks` is
  ``start_tasks(...).collect()``, so the failure handling above has one
  code path.
"""

from __future__ import annotations

import os
import sys
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, fields

#: Environment variable supplying a default per-task timeout (seconds)
#: for pooled tasks; unset or non-positive disables the watchdog.
POOL_TIMEOUT_ENV = "REPRO_POOL_TIMEOUT"

#: Bounded retries per task through rebuilt pools before the serial
#: fallback takes over.
DEFAULT_MAX_RETRIES = 2

#: First backoff delay before a pool rebuild; doubles per rebuild,
#: capped at 1 s (crash loops must not spin the CPU, tests must not
#: crawl).
DEFAULT_RETRY_BACKOFF = 0.05


def start_method() -> str:
    """The multiprocessing start method both simulation layers use."""
    import multiprocessing

    if (
        sys.platform == "linux"
        and "fork" in multiprocessing.get_all_start_methods()
    ):
        return "fork"
    return "spawn"


# ----------------------------------------------------------------------
# degradation telemetry
# ----------------------------------------------------------------------
@dataclass
class PoolHealth:
    """Mutable failure counters for one or more :func:`map_tasks` calls.

    ``wall_seconds_lost`` is an estimate (timeout budgets spent waiting
    on hung tasks plus backoff sleeps), not a precise accounting.
    """

    tasks: int = 0
    retried: int = 0
    serial_fallbacks: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    task_errors: int = 0
    pool_rebuilds: int = 0
    interrupts: int = 0
    wall_seconds_lost: float = 0.0

    @property
    def degraded(self) -> bool:
        return bool(
            self.retried
            or self.serial_fallbacks
            or self.timeouts
            or self.worker_crashes
            or self.task_errors
            or self.pool_rebuilds
            or self.interrupts
        )

    def merge(self, other: "PoolHealth") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def record(self, **extra) -> "HealthRecord":
        """Freeze these counters into a :class:`HealthRecord`.

        ``extra`` supplies the layer-specific counters the pool cannot
        know (cache quarantines, analysis fallbacks).
        """
        return HealthRecord(
            pool_retries=self.retried,
            serial_fallbacks=self.serial_fallbacks,
            timeouts=self.timeouts,
            worker_crashes=self.worker_crashes,
            task_errors=self.task_errors,
            pool_rebuilds=self.pool_rebuilds,
            wall_seconds_lost=self.wall_seconds_lost,
            **extra,
        )


@dataclass(frozen=True)
class HealthRecord:
    """Frozen degradation summary attached to engine/timing results.

    All-zero (the default) means a fully healthy run.  The analysis
    fallback (``proof_fallbacks``) is expected behaviour for
    data-dependent kernels and does *not* count as degradation;
    everything else records a survived fault.
    """

    pool_retries: int = 0
    serial_fallbacks: int = 0
    timeouts: int = 0
    worker_crashes: int = 0
    task_errors: int = 0
    pool_rebuilds: int = 0
    wall_seconds_lost: float = 0.0
    #: Corrupt on-disk cache entries renamed to ``*.corrupt``.
    cache_quarantines: int = 0
    #: Cache stores that failed open (fsync/write/replace errors).
    cache_write_errors: int = 0
    #: Multi-member dedup classes the static proof refused (probed).
    proof_fallbacks: int = 0

    @property
    def degraded(self) -> bool:
        return bool(
            self.pool_retries
            or self.serial_fallbacks
            or self.timeouts
            or self.worker_crashes
            or self.task_errors
            or self.pool_rebuilds
            or self.cache_quarantines
            or self.cache_write_errors
        )

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def summary(self) -> str:
        """Compact nonzero-counter listing, e.g. ``retries=1 timeouts=2``."""
        parts = []
        for f in fields(self):
            value = getattr(self, f.name)
            if not value:
                continue
            if f.name == "wall_seconds_lost":
                parts.append(f"lost={value:.1f}s")
            else:
                name = f.name.replace("pool_retries", "retries")
                parts.append(f"{name}={value}")
        return " ".join(parts) if parts else "ok"


# ----------------------------------------------------------------------
# the pooled map
# ----------------------------------------------------------------------
class _SpanEnvelope:
    """Worker capture shipped home beside one task's result.

    The pool strips the envelope at harvest, so callers receive exactly
    the object ``worker_fn`` returned -- observability on or off never
    changes a result's pickled bytes, only adds this out-of-band
    sidecar.
    """

    __slots__ = ("result", "events", "counters", "gauges", "histograms")

    def __init__(self, result, recorder) -> None:
        self.result = result
        self.events = recorder.events
        self.counters = recorder.counters
        self.gauges = recorder.gauges
        self.histograms = recorder.histograms


def _call_task(worker_fn, index, task, attempt, plan, obs_lane=None):
    """Module-level (picklable) task wrapper run inside workers.

    Consults the fault-injection plan first: the plan is shipped
    explicitly so spawn workers honor plans installed programmatically
    in the parent (fork workers would inherit the global anyway).
    ``obs_lane`` (set only when the parent records) installs a fresh
    per-task recorder -- replacing any recorder a fork worker inherited,
    whose events would otherwise die with the worker -- and wraps the
    result in a :class:`_SpanEnvelope` for the parent to adopt.
    """
    from repro import faults

    faults.on_pool_task(index, attempt, plan)
    if obs_lane is None:
        return worker_fn(task)
    from repro import obs

    with obs.capture(obs_lane) as recorder:
        with recorder.span("pool.task", index=index, attempt=attempt):
            result = worker_fn(task)
    return _SpanEnvelope(result, recorder)


def default_task_timeout() -> float | None:
    """Per-task watchdog budget from ``$REPRO_POOL_TIMEOUT``.

    Unset, unparsable, or non-positive values disable the watchdog
    (fail open: a bad env var must not change results, only patience).
    """
    raw = os.environ.get(POOL_TIMEOUT_ENV)
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if value > 0 else None


def _stop_executor(executor, kill: bool) -> None:
    """Shut an executor down, killing workers first when asked.

    ``kill=True`` is the hung-worker watchdog path: a worker stuck in a
    task would block a graceful shutdown forever, so workers are killed
    outright and the shutdown must not wait on them.
    """
    if kill:
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.kill()
            except Exception:
                pass
    try:
        executor.shutdown(wait=not kill, cancel_futures=True)
    except Exception:
        pass


class Pending:
    """A started computation whose result :meth:`collect` returns.

    :func:`start_tasks` returns one for a pool fan-out whose tasks run
    in worker processes while the caller does other work; the layers
    built on the pool derive theirs with :meth:`then` (the timing
    layer's cluster jobs, the calibration sweep).  ``collect`` blocks
    until the result is ready; later calls return the same value.

    As a context manager, leaving the block normally collects, so the
    work finishes and its side effects (e.g. a cache store) happen;
    leaving it by an exception, ``KeyboardInterrupt`` included, closes
    instead: the pool is killed, so no worker outlives a failed caller.
    """

    def __init__(
        self,
        collect: Callable[[], object],
        close: Callable[[bool], None] | None = None,
    ) -> None:
        self._collect = collect
        self._close = close
        self._done = False
        self._value = None

    @classmethod
    def of(cls, value) -> "Pending":
        """A result that is already there."""
        pending = cls(lambda: value)
        pending.collect()
        return pending

    def collect(self):
        if not self._done:
            # From here on collecting owns the pool's clean-up, also
            # when it raises, so a later close() has nothing to do.
            self._close = None
            self._value = self._collect()
            self._done = True
        return self._value

    def then(self, fn: Callable) -> "Pending":
        """The pending ``fn(self.collect())``, sharing this one's pool."""
        return Pending(lambda: fn(self.collect()), self.close)

    def close(self, interrupted: bool = False) -> None:
        """Kill the pool behind a result nobody is collecting."""
        if self._close is not None:
            close, self._close = self._close, None
            close(interrupted)

    def __enter__(self) -> "Pending":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.collect()
        else:
            self.close(interrupted=issubclass(exc_type, KeyboardInterrupt))


@dataclass(eq=False)
class _PoolRun:
    """One pooled fan-out, from its first submission to its results."""

    tasks: list
    processes: int
    serial_fn: Callable
    worker_fn: Callable
    initializer: Callable | None
    initargs: tuple
    task_timeout: float | None
    max_retries: int
    retry_backoff: float
    health: PoolHealth
    recorder: object

    def __post_init__(self) -> None:
        import multiprocessing

        from repro import faults

        self.plan = faults.active_plan()
        self.context = multiprocessing.get_context(start_method())
        self.results: dict[int, object] = {}
        self.attempts = [0] * len(self.tasks)
        self.pending = list(range(len(self.tasks)))
        self.executor = None
        self.futures: dict | None = None
        # Worker-side span capture: one deterministic lane per pool call
        # (``pool<n>.t<index>``), shipped only when the parent records.
        self.lane_prefix = (
            self.recorder.next_pool_lane()
            if self.recorder is not None
            else None
        )

    def submit(self) -> None:
        """Submit every pending task, building a pool if there is none."""
        from concurrent.futures import ProcessPoolExecutor

        if self.executor is None:
            self.executor = ProcessPoolExecutor(
                max_workers=min(self.processes, len(self.pending)),
                mp_context=self.context,
                initializer=self.initializer,
                initargs=self.initargs,
            )
        self.futures = {
            i: self.executor.submit(
                _call_task,
                self.worker_fn,
                i,
                self.tasks[i],
                self.attempts[i],
                self.plan,
                f"{self.lane_prefix}.t{i}" if self.lane_prefix else None,
            )
            for i in self.pending
        }

    def close(self, interrupted: bool) -> None:
        """Kill the pool: the interrupt and abandoned-result path."""
        if interrupted:
            self.health.interrupts += 1
        if self.executor is not None:
            _stop_executor(self.executor, kill=True)
            self.executor = None

    def harvest(self, value):
        """Strip a worker envelope, adopting its capture exactly once.

        Every path that stores a pooled future's result goes through
        here; lost attempts never produce an envelope and serial
        re-runs record straight into the parent recorder, so no span
        can land twice.
        """
        if isinstance(value, _SpanEnvelope):
            if self.recorder is not None:
                self.recorder.adopt(
                    value.events,
                    value.counters,
                    value.gauges,
                    value.histograms,
                )
            return value.result
        return value

    def run_serial(self, index: int) -> None:
        self.results[index] = self.serial_fn(self.tasks[index])
        self.health.serial_fallbacks += 1

    def collect(self) -> list:
        from repro import obs

        # Counter deltas against ``health`` are folded into the metric
        # registry at the end, so shared PoolHealth objects (the engine
        # accumulates one across _simulate calls) are not double-counted.
        health = self.health
        health_before = {f.name: getattr(health, f.name) for f in fields(health)}
        try:
            with obs.span(
                "pool.map_tasks",
                tasks=len(self.tasks),
                workers=self.processes,
                mode="pool",
                lane=self.lane_prefix,
            ):
                while self.pending:
                    if self.futures is None:
                        self.submit()
                    self.collect_round()
        except KeyboardInterrupt:
            self.close(interrupted=True)
            raise
        finally:
            if self.executor is not None:
                _stop_executor(self.executor, kill=False)
                self.executor = None

        if self.recorder is not None:
            for name, previous in health_before.items():
                delta = getattr(health, name) - previous
                if delta and name != "tasks":
                    self.recorder.inc(f"pool.{name}", delta)
        return [self.results[i] for i in range(len(self.tasks))]

    def collect_round(self) -> None:
        """Wait for the submitted tasks; on a crash or a hang, decide
        each lost task's fate and leave the survivors pending."""
        from concurrent.futures import TimeoutError as FutureTimeout
        from concurrent.futures.process import BrokenProcessPool

        health = self.health
        pending, futures = self.pending, self.futures
        self.futures = None
        completed: set[int] = set()
        timed_out: int | None = None
        crashed = False
        for i in pending:
            try:
                self.results[i] = self.harvest(
                    futures[i].result(timeout=self.task_timeout)
                )
                completed.add(i)
            except FutureTimeout:
                timed_out = i
                break
            except BrokenProcessPool:
                crashed = True
                break
            except Exception:
                # Genuine task error: let the bit-identity reference
                # decide -- it either recovers the result or raises the
                # true error in the caller's process.
                health.task_errors += 1
                self.run_serial(i)
                completed.add(i)

        if timed_out is None and not crashed:
            self.pending = []
            return

        # The pool is compromised: stop it (killing workers when a hang
        # is suspected), harvest finished siblings, and decide each
        # survivor's fate.
        _stop_executor(self.executor, kill=timed_out is not None)
        self.executor = None
        health.pool_rebuilds += 1
        for i in pending:
            if i in completed or i == timed_out:
                continue
            future = futures[i]
            if future.done() and not future.cancelled():
                try:
                    self.results[i] = self.harvest(future.result(timeout=0))
                    completed.add(i)
                except Exception:
                    pass  # lost with the pool; handled below

        if timed_out is not None:
            health.timeouts += 1
            health.wall_seconds_lost += self.task_timeout or 0.0
            # The hung task gets no second chance to hang: straight to
            # the serial reference.
            self.run_serial(timed_out)
            completed.add(timed_out)
            survivors = [i for i in pending if i not in completed]
        else:
            health.worker_crashes += 1
            # Any in-flight task may have killed the worker; all lost
            # tasks consume one retry.
            survivors = []
            for i in pending:
                if i in completed:
                    continue
                self.attempts[i] += 1
                if self.attempts[i] > self.max_retries:
                    self.run_serial(i)
                else:
                    survivors.append(i)
            health.retried += len(survivors)

        self.pending = survivors
        if survivors:
            delay = min(
                self.retry_backoff * (2 ** max(health.pool_rebuilds - 1, 0)),
                1.0,
            )
            if delay > 0:
                time.sleep(delay)
                health.wall_seconds_lost += delay


def start_tasks(
    tasks: Sequence,
    workers: int,
    serial_fn: Callable,
    worker_fn: Callable,
    initializer: Callable | None = None,
    initargs: Iterable = (),
    task_timeout: float | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    health: PoolHealth | None = None,
) -> Pending:
    """Start applying a function to every task; collect them in order.

    ``workers <= 1`` (or a single task) calls ``serial_fn`` in-process
    right away; otherwise a pool of ``min(workers, len(tasks))``
    processes is built with ``initializer(*initargs)``, every task is
    submitted to the module-level (picklable) ``worker_fn``, and the
    returned :class:`Pending` runs in the background until collected.
    The two functions must compute the same pure result for a task;
    parallel runs are then bit-identical to serial ones.

    Failure semantics, all handled at collection and recorded in
    ``health``:

    * A worker death (``BrokenProcessPool``: OOM kill, segfault,
      ``os._exit``) loses the in-flight tasks; finished results are
      harvested, the pool is rebuilt after an exponential backoff, and
      the lost tasks are retried up to ``max_retries`` times each before
      degrading to ``serial_fn``.
    * ``task_timeout`` (seconds per task; default from
      ``$REPRO_POOL_TIMEOUT``, ``None`` disables) is the hung-worker
      watchdog: on expiry the pool is killed, the offending task is
      re-executed through ``serial_fn``, and the survivors continue
      through a fresh pool.  The budget is the time spent *waiting* on
      one task's result, which overlaps other tasks' execution -- size
      it generously.
    * A task that raises an ordinary exception in a worker is re-run
      through ``serial_fn``: either the failure was environmental and
      the serial reference recovers it bit-identically, or it is
      genuine and ``serial_fn`` raises the true error to the caller.
    * ``KeyboardInterrupt`` kills the pool before re-raising, while
      collecting or (through the :class:`Pending` context manager)
      while the caller works before collecting.

    Because every degraded path re-executes through ``serial_fn``, the
    collected list is exactly the healthy result regardless of faults.
    """
    tasks = list(tasks)
    if health is None:
        health = PoolHealth()
    health.tasks += len(tasks)
    if not tasks:
        return Pending.of([])
    from repro import obs

    recorder = obs.current()
    if recorder is not None:
        recorder.inc("pool.tasks", len(tasks))
    if workers <= 1 or len(tasks) == 1:
        with obs.span(
            "pool.map_tasks", tasks=len(tasks), workers=workers,
            mode="serial",
        ):
            return Pending.of([serial_fn(task) for task in tasks])
    if task_timeout is None:
        task_timeout = default_task_timeout()
    run = _PoolRun(
        tasks,
        min(workers, len(tasks)),
        serial_fn,
        worker_fn,
        initializer,
        tuple(initargs),
        task_timeout,
        max_retries,
        retry_backoff,
        health,
        recorder,
    )
    try:
        run.submit()
    except BaseException as exc:
        run.close(interrupted=isinstance(exc, KeyboardInterrupt))
        raise
    return Pending(run.collect, run.close)


def map_tasks(
    tasks: Sequence,
    workers: int,
    serial_fn: Callable,
    worker_fn: Callable,
    initializer: Callable | None = None,
    initargs: Iterable = (),
    task_timeout: float | None = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    retry_backoff: float = DEFAULT_RETRY_BACKOFF,
    health: PoolHealth | None = None,
) -> list:
    """Apply a function to every task, preserving task order.

    Exactly ``start_tasks(...).collect()``; see :func:`start_tasks` for
    the pool policy and the failure semantics.
    """
    return start_tasks(
        tasks,
        workers,
        serial_fn,
        worker_fn,
        initializer=initializer,
        initargs=initargs,
        task_timeout=task_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
        health=health,
    ).collect()
