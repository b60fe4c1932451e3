"""Process-pool experiment engine with fault tolerance and resume.

Every figure is a grid of independent (benchmark, config) simulation
cells — the paper's own evaluation is embarrassingly parallel across its
26 workloads — so the experiment modules describe their grids as
:class:`RunSpec`/:class:`MultiProgramSpec` lists and this module fans
them across ``os.cpu_count()`` worker processes.

Guarantees:

- **deterministic ordering** — results come back in spec order
  regardless of completion order, so a parallel run is byte-identical to
  a serial one;
- **deterministic content** — each cell builds its own trace from seeds
  carried in the spec; nothing depends on which worker runs it or when;
- **serial path** — ``REPRO_JOBS=1`` (or a grid with at most one cell
  left to run) runs everything in-process with no executor, which also
  keeps pdb/profilers usable;
- **per-cell timing** — every cell reports its wall-clock, worker pid,
  queue wait, and worker peak RSS; :func:`last_timings` and
  :func:`last_worker_profiles` expose them for ``BENCH_perf.json`` and
  the ``engine`` trace category;
- **fault tolerance** — a worker exception becomes a structured
  :class:`~repro.common.errors.CellError` in that cell's result slot
  instead of aborting the grid (``on_error="skip"``), a per-cell
  wall-clock timeout (``REPRO_CELL_TIMEOUT``, pool mode only) bounds a
  hung cell, and a dead pool (``BrokenProcessPool``: a worker was
  OOM-killed or crashed hard) escalates to a serial re-run of the
  unfinished cells.  Cells are pure, so a cell that raised would raise
  again: failures are never retried;
- **resumability** — with :class:`EngineOptions.checkpoint` set, every
  finished cell is journaled (:mod:`repro.experiments.checkpoint`);
  ``resume=True`` replays completed cells from the journal and re-runs
  only missing/failed ones, and Ctrl-C mid-grid cancels pending work,
  reaps the workers and flushes the journal before re-raising so a
  killed sweep resumes cleanly;
- **one set of settings per grid** — the grid snapshots
  :func:`repro.common.settings.current` when it starts, every worker
  runs its cells under that snapshot, and the snapshot's
  result-affecting fields are part of every checkpoint key, so a
  journal is never replayed into a run whose soft-error model differs.

``REPRO_JOBS`` overrides the worker count.
"""

from __future__ import annotations

import functools
import os
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Set, Tuple)

from repro.common import settings
from repro.common.config import SystemConfig
from repro.common.errors import CellError, CellFailedError, ConfigError
from repro.common.settings import Settings
from repro.experiments.checkpoint import GridCheckpoint, spec_key
from repro.obs import trace as obs_trace
from repro.obs.profiling import WorkerProfile, peak_rss_kb, worker_profiles

#: memory-channel selector carried by :class:`RunSpec` (a key, not an
#: instance, so specs stay small and picklable)
MEMORY_CHANNELS = ("simple", "link", "banked")

#: what the engine does with a cell whose worker raised
ON_ERROR_MODES = ("raise", "skip")


@dataclass(frozen=True)
class RunSpec:
    """One single-program simulation cell."""

    benchmark: str
    scheme: str
    config: Optional[SystemConfig] = None
    n_instructions: int = 120_000
    warmup_fraction: float = 0.4
    inclusive_writes: Optional[bool] = None
    compression_enabled: bool = True
    seed_offset: int = 0
    #: one of :data:`MEMORY_CHANNELS`, or ``None`` for the default
    memory: Optional[str] = None
    #: free-form tag for timing reports (defaults to benchmark/scheme)
    label: str = ""

    def timing_label(self) -> str:
        return self.label or f"{self.benchmark}/{self.scheme}"


@dataclass(frozen=True)
class MultiProgramSpec:
    """One multi-program (16-thread mix) simulation cell."""

    mix: str
    scheme: str
    config: Optional[SystemConfig] = None
    n_instructions_each: int = 40_000
    synchronized: bool = False
    label: str = ""

    def timing_label(self) -> str:
        return self.label or f"{self.mix}/{self.scheme}"


@dataclass(frozen=True)
class CellTiming:
    """Wall-clock of one simulation cell, as measured in its worker.

    ``seconds`` brackets only the cell's worker call.  ``queue_wait_s``
    is how long the cell sat in the pool's inbox before its worker
    picked it up; ``peak_rss_kb`` is the worker's resident-set
    high-water mark after the cell (see :mod:`repro.obs.profiling`).
    """

    label: str
    seconds: float
    worker_pid: int
    queue_wait_s: float = 0.0
    peak_rss_kb: int = 0


@dataclass(frozen=True)
class EngineOptions:
    """Per-invocation fault-tolerance knobs, threaded through every
    experiment module's ``run(engine=...)``.

    ``on_error`` is one of :data:`ON_ERROR_MODES`: ``"raise"`` aborts
    the grid on the first failed cell, ``"skip"`` leaves a
    :class:`~repro.common.errors.CellError` in its slot.  With a
    ``checkpoint`` path every finished cell is journaled; ``resume=True``
    additionally replays previously completed cells from that journal
    and re-runs only missing/failed ones.
    """

    on_error: str = "raise"
    checkpoint: Optional[str] = None
    resume: bool = False


def worker_count() -> int:
    """Number of worker processes (``REPRO_JOBS`` or the CPU count)."""
    return settings.current().jobs or max(1, os.cpu_count() or 1)


def _make_memory(key: Optional[str], config: SystemConfig):
    if key is None:
        return None
    if key == "simple":
        from repro.mem.controller import MemoryChannel
        return MemoryChannel(config.memory)
    if key == "link":
        from repro.mem.link import LinkCompressedChannel
        return LinkCompressedChannel(config.memory)
    if key == "banked":
        from repro.mem.banked import BankedMemoryChannel
        return BankedMemoryChannel(config.memory)
    raise ConfigError(f"unknown memory channel {key!r}; "
                      f"choose from {MEMORY_CHANNELS}")


def _execute_single(spec: RunSpec) -> Any:
    """Run one single-program cell."""
    from repro.sim.system import run_single_program
    config = spec.config or SystemConfig()
    return run_single_program(
        spec.benchmark, spec.scheme, config=config,
        n_instructions=spec.n_instructions,
        warmup_fraction=spec.warmup_fraction,
        inclusive_writes=spec.inclusive_writes,
        compression_enabled=spec.compression_enabled,
        memory=_make_memory(spec.memory, config),
        seed_offset=spec.seed_offset)


def _execute_multi(spec: MultiProgramSpec) -> Any:
    """Run one multi-program cell."""
    from repro.sim.system import run_multi_program
    return run_multi_program(
        spec.mix, spec.scheme, config=spec.config,
        n_instructions_each=spec.n_instructions_each,
        synchronized=spec.synchronized)


def _guarded(worker: Callable[[Any], Any],
             payload: Tuple[float, str, Settings, Any]
             ) -> Tuple[Any, CellTiming]:
    """Run one cell in its worker, capturing failure as data.

    ``payload`` is ``(submitted, label, snapshot, item)``; the parent's
    ``perf_counter`` at submission gives a real queue-wait duration
    (CLOCK_MONOTONIC is system-wide on Linux and shared across forked
    workers), and the cell runs under the grid's settings ``snapshot``
    (free when the worker already has them).  Returns ``(value,
    timing)``: ``value`` is the cell's result, or a
    :class:`~repro.common.errors.CellError` when the worker raised, so
    a worker exception crosses the process boundary as plain data
    instead of poisoning ``ProcessPoolExecutor``'s result plumbing.
    """
    submitted, label, snapshot, item = payload
    queue_wait = max(0.0, time.perf_counter() - submitted)
    started = time.perf_counter()
    try:
        with settings.override(snapshot):
            # cell seconds bracket only the worker call: perfbench
            # divides simulated instructions by them
            started = time.perf_counter()
            value = worker(item)
            seconds = time.perf_counter() - started
    except KeyboardInterrupt:
        raise
    except BaseException as error:
        seconds = time.perf_counter() - started
        value = CellError(label, repr(error), traceback.format_exc())
    return value, CellTiming(label, seconds, os.getpid(), queue_wait,
                             peak_rss_kb())


#: timings of the most recent engine invocation (spec order), replayed
#: cells included
_last_timings: List[CellTiming] = []
#: the subset of ``_last_timings`` this invocation executed
_last_executed: List[CellTiming] = []
#: wall clock of the most recent engine invocation
_last_wall_s: float = 0.0
#: resume statistics of the most recent invocation, or ``None``
_last_resume: Optional[Dict[str, Any]] = None
#: structured failures of the most recent invocation (spec order)
_last_errors: List[CellError] = []


def last_timings() -> List[CellTiming]:
    """Per-cell timings from the most recent parallel_map/run_cells."""
    return list(_last_timings)


def last_errors() -> List[CellError]:
    """Failed cells of the most recent engine invocation, spec order.

    Empty under ``on_error="raise"`` (the first failure raises) and for
    fully successful grids; under ``"skip"`` callers use
    this to report which slots hold a :class:`CellError` instead of a
    result.
    """
    return list(_last_errors)


def last_wall_seconds() -> float:
    """Wall clock of the most recent engine invocation."""
    return _last_wall_s


def last_worker_profiles() -> List[WorkerProfile]:
    """Per-worker utilization of the most recent engine invocation.

    Built only from cells it executed: a resumed grid's replayed cells
    ran in an earlier invocation, against a different wall clock.
    """
    return worker_profiles(_last_executed, _last_wall_s)


def last_resume() -> Optional[Dict[str, Any]]:
    """Checkpoint-resume stats of the most recent invocation.

    ``{"checkpoint": path, "loaded": n, "executed": m}`` when the grid
    resumed from a journal, else ``None``.
    """
    return dict(_last_resume) if _last_resume else None


def _worker_identity(worker: Callable) -> str:
    """Stable name of the cell worker for checkpoint keying."""
    module = getattr(worker, "__module__", "?")
    return f"{module}.{getattr(worker, '__qualname__', repr(worker))}"


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down an executor that may hold hung or dead workers.

    ``shutdown(wait=True)`` would block forever on a hung worker, so
    cancel everything queued, then SIGKILL and reap the worker
    processes (``_processes`` is executor-internal but stable across
    CPython 3.8–3.13; guarded in case it moves).
    """
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    for process in processes:
        try:
            process.kill()
        except Exception:
            pass
    for process in processes:
        try:
            process.join(1.0)
        except Exception:
            pass


class _Grid:
    """State of one engine invocation: slots, timings, journal."""

    def __init__(self, worker: Callable, items: Sequence[Any],
                 labels: Sequence[str], options: EngineOptions) -> None:
        if options.on_error not in ON_ERROR_MODES:
            raise ConfigError(f"on_error must be one of "
                              f"{list(ON_ERROR_MODES)}, got "
                              f"{options.on_error!r}")
        self.settings = settings.current()
        self.runner = functools.partial(_guarded, worker)
        self.items = list(items)
        self.labels = list(labels)
        self.options = options
        self.results: Dict[int, Any] = {}
        self.timings: Dict[int, CellTiming] = {}
        #: indices whose result (and timing) came from the journal
        self.replayed: Set[int] = set()
        self.resume_stats: Optional[Dict[str, Any]] = None
        self.journal = (GridCheckpoint(options.checkpoint)
                        if options.checkpoint else None)
        identity = _worker_identity(worker) if self.journal else ""
        result_key = self.settings.result_key()
        self.keys = ([spec_key(index, self.labels[index], item, identity,
                               result_key)
                      for index, item in enumerate(self.items)]
                     if self.journal else None)

    # -- journal ---------------------------------------------------------

    def load_checkpoint(self) -> None:
        """Replay completed cells from the journal (resume runs only)."""
        if self.journal is None or not self.options.resume:
            return
        saved = self.journal.load()
        loaded = 0
        for index, key in enumerate(self.keys):
            record = saved.get(key)
            if record is None or record.get("status") != "ok":
                continue  # missing or failed cells re-run
            self.results[index] = record["result"]
            self.replayed.add(index)
            timing = record.get("timing")
            if timing is not None:
                self.timings[index] = timing
            loaded += 1
        self.resume_stats = {"checkpoint": self.options.checkpoint,
                             "loaded": loaded,
                             "executed": len(self.items) - loaded}
        self._emit("resume", checkpoint=self.options.checkpoint,
                   loaded=loaded, remaining=len(self.items) - loaded)

    def _journal_cell(self, index: int, status: str, result: Any,
                      timing: Optional[CellTiming]) -> None:
        if self.journal is not None:
            self.journal.append(self.keys[index],
                                {"status": status,
                                 "label": self.labels[index],
                                 "result": result, "timing": timing})

    def close_journal(self) -> None:
        if self.journal is not None:
            self.journal.close()

    # -- bookkeeping -----------------------------------------------------

    def _emit(self, event: str, **fields) -> None:
        channel = obs_trace.ENGINE
        if channel is not None:
            channel.emit(event, **fields)

    def unfinished(self) -> List[int]:
        return [index for index in range(len(self.items))
                if index not in self.results]

    def ordered_results(self) -> List[Any]:
        return [self.results[index] for index in range(len(self.items))]

    def ordered_timings(self, executed: bool = False) -> List[CellTiming]:
        """Timings in spec order; only this invocation's if ``executed``."""
        return [self.timings[index] for index in sorted(self.timings)
                if not (executed and index in self.replayed)]

    def payload(self, index: int) -> Tuple:
        return (time.perf_counter(), self.labels[index], self.settings,
                self.items[index])

    def finish(self, index: int, outcome: Tuple[Any, CellTiming]) -> None:
        """Fold one worker's outcome into the grid."""
        value, timing = outcome
        if isinstance(value, CellError):
            self.record_error(index, value, timing)
        else:
            self.results[index] = value
            self.timings[index] = timing
            self._journal_cell(index, "ok", value, timing)

    def record_error(self, index: int, cell: CellError,
                     timing: Optional[CellTiming]) -> None:
        """Finalize a failed cell: slot, journal, trace, maybe raise."""
        self.results[index] = cell
        if timing is not None:
            self.timings[index] = timing
        self._journal_cell(index, "error", cell, timing)
        self._emit("cell_error", label=cell.label, error=cell.exception,
                   kind=cell.kind)
        if self.options.on_error == "raise":
            raise CellFailedError(cell)

    # -- execution -------------------------------------------------------

    def run_serial(self, indices: Iterable[int]) -> None:
        """Run cells in-process (per-cell timeouts are pool-mode only)."""
        for index in indices:
            self.finish(index, self.runner(self.payload(index)))

    def run_pool(self, jobs: int) -> None:
        todo: deque = deque(self.unfinished())
        pending: Dict[Any, Tuple[int, Optional[float]]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        timeout = self.settings.cell_timeout
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, max(1, len(todo))))
            while todo or pending:
                # bounded in-flight window: at most one cell per worker,
                # so the per-cell deadline measures execution, not time
                # spent queued behind other cells
                while todo and len(pending) < jobs:
                    index = todo.popleft()
                    deadline = (time.perf_counter() + timeout
                                if timeout > 0 else None)
                    try:
                        future = pool.submit(self.runner,
                                             self.payload(index))
                    except BrokenProcessPool:
                        todo.appendleft(index)
                        raise
                    pending[future] = (index, deadline)
                deadlines = [deadline for _, deadline in pending.values()
                             if deadline is not None]
                done, _ = wait(
                    set(pending),
                    timeout=(max(0.01, min(deadlines) - time.perf_counter())
                             if deadlines else None),
                    return_when=FIRST_COMPLETED)
                for future in done:
                    index, _ = pending[future]
                    outcome = future.result()  # BrokenProcessPool -> below
                    del pending[future]
                    self.finish(index, outcome)
                pool = self._expire_timeouts(pool, pending, todo, jobs)
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault, os._exit): the
            # pool is unusable and every in-flight future is poisoned.
            # Escalate to a serial re-run of the unfinished cells —
            # cells are pure, so re-running is safe.
            requeued = sorted(list(todo)
                              + [index for index, _ in pending.values()])
            pending.clear()
            if pool is not None:
                _kill_pool(pool)
                pool = None
            self._emit("pool_broken", remaining=len(requeued))
            self.run_serial(requeued)
        except KeyboardInterrupt:
            # Ctrl-C on a long sweep: cancel everything still queued,
            # reap the workers, flush the journal, then re-raise so the
            # interrupt stays visible and the sweep resumes cleanly.
            if pool is not None:
                _kill_pool(pool)
                pool = None
            self.close_journal()
            raise
        except BaseException:
            # e.g. CellFailedError under on_error="raise": abort fast
            # rather than draining the rest of the grid.
            if pool is not None:
                _kill_pool(pool)
                pool = None
            raise
        finally:
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)

    def _expire_timeouts(self, pool: ProcessPoolExecutor, pending: Dict,
                         todo: deque, jobs: int) -> ProcessPoolExecutor:
        """Turn overdue cells into timeout :class:`CellError`\\ s.

        A hung worker cannot be reclaimed individually, so the whole
        pool is killed and rebuilt; surviving in-flight cells are
        requeued (cells are pure — recomputing is bit-identical).  A
        timed-out cell gets no :class:`CellTiming`: no worker finished
        it, so there is no worker to charge it to.
        """
        timeout = self.settings.cell_timeout
        if timeout <= 0:
            return pool
        now = time.perf_counter()
        expired = [future for future, (_, deadline) in pending.items()
                   if deadline is not None and now >= deadline
                   and not future.done()]
        if not expired:
            return pool
        for future in expired:
            index, _ = pending.pop(future)
            future.cancel()
            self.record_error(
                index,
                CellError(self.labels[index],
                          f"TimeoutError('cell exceeded "
                          f"{timeout:g}s wall clock')",
                          "", kind="timeout"),
                None)
        todo.extend(index for index, _ in pending.values())
        pending.clear()
        _kill_pool(pool)
        return ProcessPoolExecutor(max_workers=min(jobs,
                                                   max(1, len(todo))))


def _run_grid(worker: Callable[[Any], Any], items: Sequence[Any],
              labels: Sequence[str], jobs: Optional[int],
              engine: Optional[EngineOptions]) -> List[Any]:
    global _last_wall_s, _last_resume
    jobs = jobs if jobs is not None else worker_count()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    grid = _Grid(worker, items, labels, engine or EngineOptions())
    _last_timings.clear()
    _last_executed.clear()
    _last_errors.clear()
    _last_wall_s = 0.0
    _last_resume = None
    started = time.perf_counter()
    try:
        grid.load_checkpoint()
        unfinished = grid.unfinished()
        if jobs == 1 or len(unfinished) <= 1:
            # fork (the Linux default) shares the warm interpreter; the
            # serial path keeps pdb/profilers usable.
            grid.run_serial(unfinished)
        else:
            grid.run_pool(jobs)
        return grid.ordered_results()
    finally:
        # Engine state must reflect THIS invocation even when a cell
        # raised or the user hit Ctrl-C: publish whatever completed
        # instead of leaving the previous grid's data behind.
        grid.close_journal()
        _last_wall_s = time.perf_counter() - started
        _last_timings.extend(grid.ordered_timings())
        _last_executed.extend(grid.ordered_timings(executed=True))
        _last_errors.extend(cell for _, cell in sorted(grid.results.items())
                            if isinstance(cell, CellError))
        _last_resume = grid.resume_stats
        _emit_engine_events()


def _emit_engine_events() -> None:
    """Trace the engine invocation just recorded (``engine`` category)."""
    channel = obs_trace.ENGINE
    if channel is None:
        return
    for timing in _last_timings:
        channel.emit("cell", label=timing.label, seconds=timing.seconds,
                     pid=timing.worker_pid,
                     queue_wait_s=timing.queue_wait_s,
                     rss_kb=timing.peak_rss_kb)
    for profile in last_worker_profiles():
        channel.emit("worker", pid=profile.pid, cells=profile.cells,
                     busy_s=profile.busy_s,
                     queue_wait_s=profile.queue_wait_s,
                     utilization=profile.utilization,
                     rss_kb=profile.peak_rss_kb)


def parallel_map(fn: Callable[[Any], Any], items: Iterable[Any],
                 jobs: Optional[int] = None,
                 label: str = "cell",
                 engine: Optional[EngineOptions] = None) -> List[Any]:
    """Order-preserving parallel map over independent cells.

    ``fn`` must be a module-level callable (picklable); each item is one
    cell.  Results come back in input order regardless of completion
    order, and per-cell timings are recorded for :func:`last_timings`.
    Under ``engine.on_error="skip"`` a failed item's slot holds a
    :class:`~repro.common.errors.CellError` instead.
    """
    items = list(items)
    labels = [f"{label}[{index}]" for index in range(len(items))]
    return _run_grid(fn, items, labels, jobs, engine)


def run_cells(specs: Sequence[RunSpec],
              jobs: Optional[int] = None,
              engine: Optional[EngineOptions] = None) -> List[Any]:
    """Run single-program cells across the worker pool, in spec order."""
    specs = list(specs)
    return _run_grid(_execute_single, specs,
                     [spec.timing_label() for spec in specs], jobs, engine)


def run_multi_cells(specs: Sequence[MultiProgramSpec],
                    jobs: Optional[int] = None,
                    engine: Optional[EngineOptions] = None) -> List[Any]:
    """Run multi-program cells across the worker pool, in spec order."""
    specs = list(specs)
    return _run_grid(_execute_multi, specs,
                     [spec.timing_label() for spec in specs], jobs, engine)
