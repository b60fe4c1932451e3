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
- **graceful serial fallback** — ``REPRO_JOBS=1`` (or a single-cell
  grid, or a host without ``fork``) runs everything in-process with no
  executor, which also keeps pdb/profilers usable;
- **per-cell timing** — every cell reports its wall-clock, worker pid,
  queue wait, and worker peak RSS; :func:`last_timings` and
  :func:`last_worker_profiles` expose them for ``BENCH_perf.json`` and
  the ``engine`` trace category;
- **fault tolerance** — a worker exception becomes a structured
  :class:`~repro.common.errors.CellError` in that cell's result slot
  instead of aborting the grid (``on_error="skip"``/``"retry"``), cells
  can be retried with exponential backoff plus deterministic jitter
  (``REPRO_RETRIES``, :data:`RETRY_BACKOFF_S`) and bounded by a per-cell
  wall-clock timeout (``REPRO_CELL_TIMEOUT``, pool mode only), and a
  dead pool (``BrokenProcessPool``: a worker was OOM-killed or crashed
  hard) escalates to a graceful serial re-run of the unfinished cells;
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

``REPRO_JOBS`` overrides the worker count.  ``REPRO_FAULT_INJECT``
(``crash@2,flaky@1,hang@0:1.5,kill@3,crash@10%``) deterministically
injects faults per cell index for the robustness tests and
``bench_perf``'s robustness leg.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import os
import random
import time
import traceback
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import (Any, Callable, Dict, Iterable, List, Optional,
                    Sequence, Tuple)

from repro.common import settings
from repro.common.config import SystemConfig
from repro.common.errors import CellError, CellFailedError, ConfigError
from repro.common.settings import ON_ERROR_MODES, FaultDirective, Settings
from repro.experiments.checkpoint import GridCheckpoint, spec_key
from repro.obs import trace as obs_trace
from repro.obs.profiling import WorkerProfile, peak_rss_kb, worker_profiles
from repro.perf.timing import CellTiming

#: memory-channel selector carried by :class:`RunSpec` (a key, not an
#: instance, so specs stay small and picklable)
MEMORY_CHANNELS = ("simple", "link", "banked")

#: base retry backoff in seconds, doubled per attempt plus jitter
RETRY_BACKOFF_S = 0.05

#: pid of the process that imported this module (the grid parent under
#: ``fork``); lets injected ``kill`` faults refuse to kill the parent
#: when a poisoned cell is re-run serially
_MAIN_PID = os.getpid()


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
class EngineOptions:
    """Per-invocation fault-tolerance knobs, threaded through every
    experiment module's ``run(engine=...)``.

    ``on_error=None`` falls back to ``REPRO_ON_ERROR`` (default
    ``"raise"``, the historical abort-the-grid behaviour).  With a
    ``checkpoint`` path every finished cell is journaled; ``resume=True``
    additionally replays previously completed cells from that journal
    and re-runs only missing/failed ones.
    """

    on_error: Optional[str] = None
    checkpoint: Optional[str] = None
    resume: bool = False


class FaultInjected(Exception):
    """Raised by a deterministically injected fault (tests/benches)."""


def worker_count() -> int:
    """Number of worker processes (``REPRO_JOBS`` or the CPU count)."""
    return settings.current().jobs or max(1, os.cpu_count() or 1)


def retry_delay(label: str, attempt: int, backoff_s: float) -> float:
    """Exponential backoff plus deterministic jitter for one retry.

    Jitter is seeded from (label, attempt) — not process state — so a
    retried grid is reproducible run-to-run and across fork/spawn.
    """
    seed = int.from_bytes(
        hashlib.sha256(f"{label}|{attempt}".encode("utf-8")).digest()[:8],
        "big")
    jitter = random.Random(seed).uniform(0.0, backoff_s)
    return backoff_s * (2 ** (attempt - 1)) + jitter


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


def _execute_single(spec: RunSpec) -> Tuple[Any, float, int]:
    """Run one cell; returns ``(result, seconds, worker pid)``."""
    from repro.sim.system import run_single_program
    config = spec.config or SystemConfig()
    started = time.perf_counter()
    result = run_single_program(
        spec.benchmark, spec.scheme, config=config,
        n_instructions=spec.n_instructions,
        warmup_fraction=spec.warmup_fraction,
        inclusive_writes=spec.inclusive_writes,
        compression_enabled=spec.compression_enabled,
        memory=_make_memory(spec.memory, config),
        seed_offset=spec.seed_offset)
    return result, time.perf_counter() - started, os.getpid()


def _execute_multi(spec: MultiProgramSpec) -> Tuple[Any, float, int]:
    """Run one multi-program cell; returns ``(result, seconds, pid)``."""
    from repro.sim.system import run_multi_program
    started = time.perf_counter()
    result = run_multi_program(
        spec.mix, spec.scheme, config=spec.config,
        n_instructions_each=spec.n_instructions_each,
        synchronized=spec.synchronized)
    return result, time.perf_counter() - started, os.getpid()


def _timed_apply(fn: Callable[[Any], Any], item: Any) -> Tuple[Any, float,
                                                               int]:
    started = time.perf_counter()
    return fn(item), time.perf_counter() - started, os.getpid()


def _apply_fault(fault: FaultDirective, index: int, attempt: int) -> None:
    """Fire one injected fault inside the worker, deterministically."""
    if fault.mode == "crash":
        raise FaultInjected(f"injected crash in cell {index}")
    if fault.mode == "flaky" and attempt == 1:
        raise FaultInjected(f"injected flaky-once failure in cell {index}")
    if fault.mode == "hang":
        time.sleep(fault.arg or 60.0)
    if fault.mode == "kill":
        if os.getpid() != _MAIN_PID:
            os._exit(13)
        # serial re-run after pool escalation must not kill the parent
        raise FaultInjected(f"injected worker kill in cell {index} "
                            f"(serial re-run: raised instead)")


def _guarded(worker: Callable[[Any], Tuple[Any, float, int]],
             payload: Tuple[float, int, int, Optional[FaultDirective],
                            Settings, Any]) -> Tuple:
    """Run one cell attempt in its worker, capturing failure as data.

    ``payload`` is ``(submitted, index, attempt, fault, snapshot,
    item)``; the parent's ``perf_counter`` at submission gives a real
    queue-wait duration (CLOCK_MONOTONIC is system-wide on Linux and
    shared across forked workers), and the cell runs under the grid's
    settings ``snapshot`` (free when the worker already has them).
    Returns either::

        ("ok", result, seconds, pid, queue_wait_s, peak_rss_kb)
        ("error", exception_repr, traceback_text, seconds, pid,
         queue_wait_s, peak_rss_kb)

    so a worker exception crosses the process boundary as plain data
    instead of poisoning ``ProcessPoolExecutor``'s result plumbing.
    """
    submitted, index, attempt, fault, snapshot, item = payload
    queue_wait = max(0.0, time.perf_counter() - submitted)
    started = time.perf_counter()
    try:
        if fault is not None:
            _apply_fault(fault, index, attempt)
        with settings.override(snapshot):
            result, seconds, pid = worker(item)
    except KeyboardInterrupt:
        raise
    except BaseException as error:
        return ("error", repr(error), traceback.format_exc(),
                time.perf_counter() - started, os.getpid(), queue_wait,
                peak_rss_kb())
    return ("ok", result, seconds, pid, queue_wait, peak_rss_kb())


#: timings of the most recent engine invocation (spec order)
_last_timings: List[CellTiming] = []
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
    fully successful grids; under ``"skip"``/``"retry"`` callers use
    this to report which slots hold a :class:`CellError` instead of a
    result.
    """
    return list(_last_errors)


def last_wall_seconds() -> float:
    """Wall clock of the most recent engine invocation."""
    return _last_wall_s


def last_worker_profiles() -> List[WorkerProfile]:
    """Per-worker utilization of the most recent engine invocation."""
    return worker_profiles(_last_timings, _last_wall_s)


def last_resume() -> Optional[Dict[str, Any]]:
    """Checkpoint-resume stats of the most recent invocation.

    ``{"checkpoint": path, "loaded": n, "executed": m}`` when the grid
    resumed from a journal, else ``None``.
    """
    return dict(_last_resume) if _last_resume else None


def _callable_name(obj: Callable) -> str:
    module = getattr(obj, "__module__", "?")
    return f"{module}.{getattr(obj, '__qualname__', repr(obj))}"


def _worker_identity(worker: Callable) -> str:
    """Stable name of the cell worker for checkpoint keying."""
    if isinstance(worker, functools.partial):
        parts = [worker.func, *worker.args]
        return "+".join(_callable_name(part) for part in parts)
    return _callable_name(worker)


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
    """State of one engine invocation: slots, attempts, journal."""

    def __init__(self, worker: Callable, items: Sequence[Any],
                 labels: Sequence[str], options: EngineOptions) -> None:
        self.settings = settings.current()
        self.on_error = options.on_error or self.settings.on_error
        if self.on_error not in ON_ERROR_MODES:
            raise ConfigError(f"on_error must be one of "
                              f"{list(ON_ERROR_MODES)}, got "
                              f"{self.on_error!r}")
        self.runner = functools.partial(_guarded, worker)
        self.items = list(items)
        self.labels = list(labels)
        self.options = options
        self.results: Dict[int, Any] = {}
        self.timings: Dict[int, CellTiming] = {}
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

    def ordered_timings(self) -> List[CellTiming]:
        return [self.timings[index] for index in sorted(self.timings)]

    def fault_for(self, index: int) -> Optional[FaultDirective]:
        for directive in self.settings.fault_inject:
            if directive.matches(index):
                return directive
        return None

    def payload(self, index: int, attempt: int) -> Tuple:
        return (time.perf_counter(), index, attempt,
                self.fault_for(index), self.settings, self.items[index])

    def record_error(self, index: int, cell: CellError,
                     timing: Optional[CellTiming]) -> None:
        """Finalize a failed cell: slot, journal, trace, maybe raise."""
        self.results[index] = cell
        if timing is not None:
            self.timings[index] = timing
        self._journal_cell(index, "error", cell, timing)
        self._emit("cell_error", label=cell.label, error=cell.exception,
                   attempts=cell.attempts, kind=cell.kind)
        if self.on_error == "raise":
            raise CellFailedError(cell)

    def classify(self, index: int, attempt: int,
                 outcome: Tuple) -> Optional[float]:
        """Fold one attempt's outcome into the grid.

        Returns ``None`` when the cell is finished (success or final
        failure) or the backoff delay in seconds when it should be
        retried.
        """
        label = self.labels[index]
        if outcome[0] == "ok":
            _, result, seconds, pid, queue_wait, rss = outcome
            timing = CellTiming(label, seconds, pid, queue_wait, rss)
            self.results[index] = result
            self.timings[index] = timing
            self._journal_cell(index, "ok", result, timing)
            return None
        _, exception, trace_text, seconds, pid, queue_wait, rss = outcome
        if (self.on_error == "retry"
                and attempt <= self.settings.retries):
            delay = retry_delay(label, attempt, RETRY_BACKOFF_S)
            self._emit("cell_retry", label=label, attempt=attempt,
                       delay_s=round(delay, 6), error=exception)
            return delay
        self.record_error(
            index, CellError(label, exception, trace_text,
                             attempts=attempt),
            CellTiming(label, seconds, pid, queue_wait, rss))
        return None

    # -- execution -------------------------------------------------------

    def run_serial(self, queue: Iterable[Tuple[int, int]]) -> None:
        """Run ``(index, attempt)`` cells in-process with full retry
        semantics (per-cell timeouts are pool-mode only)."""
        for index, attempt in queue:
            while True:
                outcome = self.runner(self.payload(index, attempt))
                delay = self.classify(index, attempt, outcome)
                if delay is None:
                    break
                time.sleep(delay)
                attempt += 1

    def run_pool(self, jobs: int) -> None:
        todo: deque = deque((index, 1) for index in self.unfinished())
        retries: List[Tuple[float, int, int]] = []  # (ready_at, idx, att)
        pending: Dict[Any, Tuple[int, int, Optional[float]]] = {}
        pool: Optional[ProcessPoolExecutor] = None
        try:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, max(1, len(todo))))
            while todo or retries or pending:
                now = time.perf_counter()
                while retries and retries[0][0] <= now:
                    _, index, attempt = heapq.heappop(retries)
                    todo.append((index, attempt))
                # bounded in-flight window: at most one cell per worker,
                # so the per-cell deadline measures execution, not time
                # spent queued behind other cells
                while todo and len(pending) < jobs:
                    index, attempt = todo.popleft()
                    timeout = self.settings.cell_timeout
                    deadline = (time.perf_counter() + timeout
                                if timeout > 0 else None)
                    try:
                        future = pool.submit(
                            self.runner, self.payload(index, attempt))
                    except BrokenProcessPool:
                        todo.appendleft((index, attempt))
                        raise
                    pending[future] = (index, attempt, deadline)
                if not pending:
                    if retries:
                        time.sleep(max(0.0, retries[0][0]
                                       - time.perf_counter()))
                    continue
                done, _ = wait(set(pending),
                               timeout=self._wakeup(pending, retries),
                               return_when=FIRST_COMPLETED)
                for future in done:
                    index, attempt, _ = pending[future]
                    outcome = future.result()  # BrokenProcessPool -> below
                    del pending[future]
                    delay = self.classify(index, attempt, outcome)
                    if delay is not None:
                        heapq.heappush(
                            retries,
                            (time.perf_counter() + delay, index,
                             attempt + 1))
                pool = self._expire_timeouts(pool, pending, todo, jobs)
        except BrokenProcessPool:
            # A worker died hard (OOM kill, segfault, os._exit): the
            # pool is unusable and every in-flight future is poisoned.
            # Escalate to a graceful serial re-run of the unfinished
            # attempts — cells are pure, so re-running is safe.
            requeued = sorted(list(todo)
                              + [(index, attempt) for index, attempt, _
                                 in pending.values()]
                              + [(index, attempt) for _, index, attempt
                                 in retries])
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

    def _wakeup(self, pending: Dict, retries: List) -> Optional[float]:
        """How long ``wait`` may block before a deadline or retry is due."""
        now = time.perf_counter()
        candidates = [deadline - now for _, _, deadline in pending.values()
                      if deadline is not None]
        if retries:
            candidates.append(retries[0][0] - now)
        if not candidates:
            return None
        return max(0.01, min(candidates))

    def _expire_timeouts(self, pool: ProcessPoolExecutor, pending: Dict,
                         todo: deque, jobs: int) -> ProcessPoolExecutor:
        """Turn overdue cells into timeout :class:`CellError`\\ s.

        A hung worker cannot be reclaimed individually, so the whole
        pool is killed and rebuilt; surviving in-flight attempts are
        requeued (cells are pure — recomputing is bit-identical).
        Timeouts are terminal: retrying a hang would only hang again.
        """
        timeout = self.settings.cell_timeout
        if timeout <= 0:
            return pool
        now = time.perf_counter()
        expired = [future for future, (_, _, deadline) in pending.items()
                   if deadline is not None and now >= deadline
                   and not future.done()]
        if not expired:
            return pool
        for future in expired:
            index, attempt, _ = pending.pop(future)
            future.cancel()
            label = self.labels[index]
            self.record_error(
                index,
                CellError(label,
                          f"TimeoutError('cell exceeded "
                          f"{timeout:g}s wall clock')",
                          "", attempts=attempt, kind="timeout"),
                CellTiming(label, timeout, 0, 0.0, 0))
        for index, attempt, _ in pending.values():
            todo.append((index, attempt))
        pending.clear()
        _kill_pool(pool)
        return ProcessPoolExecutor(max_workers=min(jobs,
                                                   max(1, len(todo))))


def _run_timed_cells(worker: Callable[[Any], Tuple[Any, float, int]],
                     items: Sequence[Any],
                     labels: Sequence[str],
                     jobs: Optional[int],
                     engine: Optional[EngineOptions]) -> List[Any]:
    global _last_wall_s, _last_resume
    jobs = jobs if jobs is not None else worker_count()
    if jobs < 1:
        raise ConfigError(f"jobs must be >= 1, got {jobs}")
    options = engine or EngineOptions()
    grid = _Grid(worker, items, labels, options)
    _last_timings.clear()
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
            grid.run_serial((index, 1) for index in unfinished)
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
    Under ``engine.on_error="skip"``/``"retry"`` a failed item's slot
    holds a :class:`~repro.common.errors.CellError` instead.
    """
    items = list(items)
    labels = [f"{label}[{index}]" for index in range(len(items))]
    return _run_timed_cells(functools.partial(_timed_apply, fn),
                            items, labels, jobs, engine)


def run_cells(specs: Sequence[RunSpec],
              jobs: Optional[int] = None,
              engine: Optional[EngineOptions] = None) -> List[Any]:
    """Run single-program cells across the worker pool, in spec order."""
    specs = list(specs)
    return _run_timed_cells(_execute_single, specs,
                            [spec.timing_label() for spec in specs], jobs,
                            engine)


def run_multi_cells(specs: Sequence[MultiProgramSpec],
                    jobs: Optional[int] = None,
                    engine: Optional[EngineOptions] = None) -> List[Any]:
    """Run multi-program cells across the worker pool, in spec order."""
    specs = list(specs)
    return _run_timed_cells(_execute_multi, specs,
                            [spec.timing_label() for spec in specs], jobs,
                            engine)
