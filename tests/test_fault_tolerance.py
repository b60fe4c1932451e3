"""Fault-tolerant engine: error capture, timeout, pool death, resume.

Exercises every fault path of :mod:`repro.experiments.parallel` with
faults injected from the test side: module-level workers that crash,
hang, die with ``os._exit`` in a pool worker, or raise
``KeyboardInterrupt`` on items flagged by an environment variable (forked
workers inherit the parent's environment), and a patched
``repro.sim.system.run_single_program`` for figure grids.  A crash
becomes a structured :class:`CellError` with the rest of the grid
intact, a hang trips the per-cell timeout, a killed worker escalates to
a serial re-run, and a killed sweep resumes from its checkpoint with
results bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import types

import pytest

from repro.common import settings
from repro.common.errors import CellError, CellFailedError, ConfigError
from repro.experiments import figure6, parallel
from repro.experiments.checkpoint import GridCheckpoint, spec_key
from repro.experiments.parallel import EngineOptions, parallel_map
from repro.obs.reader import read_all, read_events
from repro.obs.summary import render, summarize
from repro.sim import system


def _flagged(value, variable: str) -> bool:
    """Whether ``value`` is listed in the comma-separated ``variable``."""
    return str(value) in os.environ.get(variable, "").split(",")


def _double(x):
    return 2 * x


def _crashing_double(x):
    """2*x, but raise on items listed in TEST_CRASH."""
    if _flagged(x, "TEST_CRASH"):
        raise RuntimeError(f"test crash on item {x}")
    return 2 * x


def _hanging_double(x):
    """2*x, but hang for 30 s on items listed in TEST_HANG."""
    if _flagged(x, "TEST_HANG"):
        time.sleep(30)
    return 2 * x


def _dying_double(x):
    """2*x, but a pool worker given an item listed in TEST_DIE exits
    at once, as an OOM-killed worker would; in the parent (the serial
    re-run) the item succeeds."""
    if _flagged(x, "TEST_DIE") and multiprocessing.parent_process():
        os._exit(13)
    return 2 * x


def _interruptible_double(x):
    """2*x, but Ctrl-C on x == 2 while TEST_INTERRUPT is set."""
    if x == 2 and os.environ.get("TEST_INTERRUPT"):
        raise KeyboardInterrupt
    return 2 * x


def _logged_double(item):
    """Append this invocation to a shared log (O_APPEND is atomic), then
    crash if the value is listed in TEST_CRASH."""
    log_path, value = item
    with open(log_path, "a") as handle:
        handle.write(f"{value}\n")
    if _flagged(value, "TEST_CRASH"):
        raise RuntimeError(f"test crash on item {value}")
    return 2 * value


@pytest.fixture
def trace_path(repro_env, tmp_path):
    path = tmp_path / "trace.jsonl"
    repro_env.set(REPRO_OBS="1", REPRO_OBS_TRACE=str(path))
    return str(path)


# -- error capture ------------------------------------------------------

def test_injected_crash_becomes_cell_error_grid_intact(repro_env):
    repro_env.set(TEST_CRASH="2")
    out = parallel_map(_crashing_double, [0, 1, 2, 3], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    assert out[0] == 0 and out[1] == 2 and out[3] == 6
    cell = out[2]
    assert isinstance(cell, CellError)
    assert cell.label == "cell[2]"
    assert "test crash on item 2" in cell.exception
    assert "RuntimeError" in cell.traceback
    assert cell.kind == "error"
    assert parallel.last_errors() == [cell]


def test_default_raise_mode_wraps_worker_exception(repro_env):
    repro_env.set(TEST_CRASH="6")
    with pytest.raises(CellFailedError) as excinfo:
        parallel_map(_crashing_double, [5, 6, 7], jobs=2)
    assert excinfo.value.cell.label == "cell[1]"
    assert "test crash on item 6" in str(excinfo.value)


def test_failed_grid_does_not_leave_stale_engine_state(repro_env):
    # last_timings()/last_wall_seconds() must describe the failed grid,
    # not keep the PREVIOUS invocation's data.
    parallel_map(_double, [10, 20, 30], jobs=2, label="first")
    assert [t.label for t in parallel.last_timings()] == [
        "first[0]", "first[1]", "first[2]"]
    repro_env.set(TEST_CRASH="1")
    with pytest.raises(CellFailedError):
        parallel_map(_crashing_double, [1, 2], jobs=2, label="second")
    labels = [t.label for t in parallel.last_timings()]
    assert all(label.startswith("second[") for label in labels)
    assert parallel.last_wall_seconds() > 0.0


# -- timeout ------------------------------------------------------------

def test_hang_trips_cell_timeout(repro_env):
    repro_env.set(TEST_HANG="0", REPRO_CELL_TIMEOUT="0.5")
    started = time.perf_counter()
    out = parallel_map(_hanging_double, [0, 1, 2, 3], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    elapsed = time.perf_counter() - started
    assert elapsed < 15.0  # nowhere near the 30s hang
    cell = out[0]
    assert isinstance(cell, CellError)
    assert cell.kind == "timeout"
    assert "0.5" in cell.exception
    assert out[1:] == [2, 4, 6]


def test_timed_out_cell_is_not_a_worker(repro_env, trace_path):
    # A timed-out cell was once recorded as CellTiming(pid=0), so the
    # worker profiles and the trace's ``worker`` events showed a phantom
    # worker with pid 0 beside the real ones.
    repro_env.set(TEST_HANG="0", REPRO_CELL_TIMEOUT="0.5")
    parallel_map(_hanging_double, [0, 1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip"))
    profiles = parallel.last_worker_profiles()
    assert profiles and 0 not in {p.pid for p in profiles}
    assert sum(p.cells for p in profiles) == 3
    timings = parallel.last_timings()
    assert [t.label for t in timings] == ["cell[1]", "cell[2]", "cell[3]"]
    assert {p.pid for p in profiles} == {t.worker_pid for t in timings}
    worker_pids = [event["pid"] for event in read_events(trace_path)
                   if event.get("ev") == "worker"]
    assert worker_pids and 0 not in worker_pids


# -- broken pool escalation ---------------------------------------------

def test_killed_worker_escalates_to_serial_rerun(repro_env, trace_path):
    repro_env.set(TEST_DIE="1")
    out = parallel_map(_dying_double, [0, 1, 2, 3], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    # the pool broke, and the serial re-run in the parent completed the
    # cell whose worker died along with every other unfinished one
    assert out == [0, 2, 4, 6]
    assert parallel.last_errors() == []
    assert any(event.get("ev") == "pool_broken"
               for event in read_events(trace_path))


# -- checkpoint / resume ------------------------------------------------

def test_resume_reruns_only_missing_cells(repro_env, tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    log = str(tmp_path / "invocations.log")
    items = [(log, value) for value in range(4)]
    repro_env.set(TEST_CRASH="2")
    out = parallel_map(_logged_double, items, jobs=2,
                       engine=EngineOptions(on_error="skip",
                                            checkpoint=ckpt))
    assert isinstance(out[2], CellError)
    repro_env.set(TEST_CRASH=None)
    resumed = parallel_map(_logged_double, items, jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == [0, 2, 4, 6]
    assert parallel.last_resume() == {"checkpoint": ckpt, "loaded": 3,
                                      "executed": 1}
    # run one tried all 4 cells, run two re-ran only the failed one
    with open(log) as handle:
        invocations = sorted(int(line) for line in handle)
    assert invocations == [0, 1, 2, 2, 3]
    # loaded cells' timings are replayed so the grid view is complete
    assert len(parallel.last_timings()) == 4


def _sleepy_crashing_double(x):
    """2*x after 0.1 s, but raise on items listed in TEST_CRASH."""
    time.sleep(0.1)
    return _crashing_double(x)


def test_resumed_worker_profiles_count_only_executed_cells(repro_env,
                                                           trace_path,
                                                           tmp_path):
    # Replayed cells once joined the worker profiles, so a resume that
    # loaded every cell in a fraction of a millisecond divided the old
    # run's busy seconds by its own wall clock: utilizations of ~2000.
    ckpt = str(tmp_path / "grid.ckpt")
    repro_env.set(TEST_CRASH="2")
    parallel_map(_sleepy_crashing_double, [0, 1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip", checkpoint=ckpt))
    repro_env.set(TEST_CRASH=None)
    for executed in (1, 0):
        resumed = parallel_map(_sleepy_crashing_double, [0, 1, 2, 3],
                               jobs=2, engine=EngineOptions(
                                   checkpoint=ckpt, resume=True))
        assert resumed == [0, 2, 4, 6]
        assert parallel.last_resume()["executed"] == executed
        assert len(parallel.last_timings()) == 4
        profiles = parallel.last_worker_profiles()
        assert sum(p.cells for p in profiles) == executed
        assert all(p.utilization <= 1.0 for p in profiles)
    events = list(read_events(trace_path))
    last_resume = max(i for i, event in enumerate(events)
                      if event.get("ev") == "resume")
    assert not [event for event in events[last_resume:]
                if event.get("ev") == "worker"]


def test_interrupt_flushes_checkpoint_and_resumes(repro_env, tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    repro_env.set(TEST_INTERRUPT="1")
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_interruptible_double, [0, 1, 2, 3], jobs=2,
                     engine=EngineOptions(on_error="skip",
                                          checkpoint=ckpt))
    journaled = GridCheckpoint(ckpt).load()
    assert any(record["status"] == "ok"
               for record in journaled.values())
    repro_env.set(TEST_INTERRUPT=None)
    resumed = parallel_map(_interruptible_double, [0, 1, 2, 3], jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == [0, 2, 4, 6]
    assert parallel.last_resume()["loaded"] >= 1


def test_checkpoint_not_replayed_across_worker_functions(repro_env,
                                                         tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    parallel_map(_double, [0, 1], jobs=1,
                 engine=EngineOptions(checkpoint=ckpt))
    parallel_map(_interruptible_double, [0, 1], jobs=1,
                 engine=EngineOptions(checkpoint=ckpt, resume=True))
    # same items, same labels, different worker: nothing may be reused
    assert parallel.last_resume()["loaded"] == 0


def test_checkpoint_tolerates_torn_tail(tmp_path):
    ckpt = GridCheckpoint(str(tmp_path / "grid.ckpt"))
    ckpt.append("key-a", {"status": "ok", "label": "a", "result": 1,
                          "timing": None})
    ckpt.append("key-b", {"status": "ok", "label": "b", "result": 2,
                          "timing": None})
    ckpt.close()
    with open(ckpt.path, "ab") as handle:
        handle.write(pickle.dumps(("key-c", {"status": "ok"}))[:7])
    records = ckpt.load()
    assert set(records) == {"key-a", "key-b"}
    assert records["key-a"]["result"] == 1


def test_spec_key_is_stable_and_position_sensitive():
    spec = parallel.RunSpec("gcc", "MORC", n_instructions=5000)
    assert spec_key(0, "gcc/MORC", spec) == spec_key(0, "gcc/MORC", spec)
    assert spec_key(0, "gcc/MORC", spec) != spec_key(1, "gcc/MORC", spec)
    other = parallel.RunSpec("gcc", "MORC", n_instructions=6000)
    assert spec_key(0, "gcc/MORC", spec) != spec_key(0, "gcc/MORC", other)


def test_figure_grid_resume_bit_identical_to_fault_free_run(
        repro_env, monkeypatch, tmp_path):
    # The acceptance scenario: crash some cells of a figure-6 grid,
    # finish with CellErrors reported, resume, and match a fault-free
    # serial run.  Pool workers forked after the patch see it;
    # _execute_single stays the worker, so the checkpoint keys of the
    # crashed run and the resume agree.
    kwargs = dict(benchmarks=["gcc", "hmmer"], n_instructions=5_000,
                  schemes=("Uncompressed", "MORC"))
    repro_env.set(REPRO_JOBS="1")
    clean = figure6.run(**kwargs)
    ckpt = str(tmp_path / "figure6.ckpt")
    original = system.run_single_program
    crashed = {("gcc", "MORC"), ("hmmer", "Uncompressed")}

    def crashing(benchmark, scheme, **options):
        if (benchmark, scheme) in crashed:
            raise RuntimeError(f"test crash in {benchmark}/{scheme}")
        return original(benchmark, scheme, **options)

    monkeypatch.setattr(system, "run_single_program", crashing)
    repro_env.set(REPRO_JOBS="2")
    partial = figure6.run(engine=EngineOptions(on_error="skip",
                                               checkpoint=ckpt), **kwargs)
    failed = [cell for runs in partial.runs.values() for cell in runs
              if isinstance(cell, CellError)]
    assert sorted(cell.label for cell in failed) == [
        "gcc/MORC", "hmmer/Uncompressed"]
    monkeypatch.setattr(system, "run_single_program", original)
    resumed = figure6.run(engine=EngineOptions(on_error="skip",
                                               checkpoint=ckpt,
                                               resume=True), **kwargs)
    stats = parallel.last_resume()
    assert stats["loaded"] == 4 - len(failed)
    assert stats["executed"] == len(failed)
    for scheme in kwargs["schemes"]:
        for a, b in zip(clean.runs[scheme], resumed.runs[scheme]):
            assert a.compression_ratio == b.compression_ratio
            assert a.ipc == b.ipc
            assert a.bandwidth_gb == b.bandwidth_gb


GRID = dict(benchmarks=["gcc", "hmmer"], n_instructions=5_000,
            schemes=("Uncompressed", "MORC"))


def _ratios(result):
    return [(run.compression_ratio, run.ipc, run.bandwidth_gb)
            for scheme in GRID["schemes"] for run in result.runs[scheme]]


def test_resume_under_changed_soft_errors_reruns_every_cell(
        repro_env, tmp_path):
    # A journal written by a clean run must not stand in for cells whose
    # soft-error model differs: every cell re-runs and the resumed grid
    # matches a fresh run under the new settings.
    ckpt = str(tmp_path / "figure6.ckpt")
    repro_env.set(REPRO_JOBS="1")
    clean = figure6.run(engine=EngineOptions(checkpoint=ckpt), **GRID)
    repro_env.set(REPRO_SOFT_ERRORS="0.01", REPRO_SOFT_ERROR_POLICY="raw")
    fresh = figure6.run(**GRID)
    resumed = figure6.run(engine=EngineOptions(checkpoint=ckpt,
                                               resume=True), **GRID)
    assert parallel.last_resume()["loaded"] == 0
    assert parallel.last_resume()["executed"] == 4
    assert _ratios(resumed) == _ratios(fresh)
    assert _ratios(resumed) != _ratios(clean)


def test_resume_under_changed_jobs_or_tracing_replays_every_cell(
        repro_env, tmp_path):
    # Worker count and tracing cannot change a result, so they stay out
    # of the checkpoint key and a resume replays every journaled cell.
    ckpt = str(tmp_path / "figure6.ckpt")
    repro_env.set(REPRO_JOBS="1")
    clean = figure6.run(engine=EngineOptions(checkpoint=ckpt), **GRID)
    repro_env.set(REPRO_JOBS="2", REPRO_OBS="1",
                  REPRO_OBS_TRACE=str(tmp_path / "trace.jsonl"))
    resumed = figure6.run(engine=EngineOptions(checkpoint=ckpt,
                                               resume=True), **GRID)
    assert parallel.last_resume()["loaded"] == 4
    assert parallel.last_resume()["executed"] == 0
    assert _ratios(resumed) == _ratios(clean)


def test_spec_key_hashes_result_settings():
    spec = parallel.RunSpec("gcc", "MORC", n_instructions=5000)
    clean = settings.Settings()
    assert clean.result_key() == settings.Settings(
        jobs=3, obs=True, verify=True, cell_timeout=9.0).result_key()
    for changed in (settings.Settings(soft_errors=(0.01, None, None)),
                    settings.Settings(soft_errors=(0.0, 4, None)),
                    settings.Settings(soft_errors=(0.0, 4, 9)),
                    settings.Settings(soft_error_policy="raw"),
                    settings.Settings(soft_error_seed=1)):
        assert (spec_key(0, "gcc/MORC", spec, "w", clean.result_key())
                != spec_key(0, "gcc/MORC", spec, "w",
                            changed.result_key()))


# -- configuration parsing ----------------------------------------------

def test_engine_env_knob_validation(repro_env):
    for bad in ("soon", "-1"):
        with pytest.raises(ConfigError, match="REPRO_CELL_TIMEOUT"):
            settings.from_env({"REPRO_CELL_TIMEOUT": bad})
    assert settings.from_env({"REPRO_CELL_TIMEOUT": " "}).cell_timeout == 0
    for mode in ("ignore", "retry"):
        with pytest.raises(ConfigError, match="on_error"):
            parallel_map(_double, [1, 2], jobs=1,
                         engine=EngineOptions(on_error=mode))


# -- observability surface ----------------------------------------------

def test_reader_streams_lazily(tmp_path):
    # Satellite bugfix: read_events buffered the whole file before
    # yielding; it must now be a true generator.
    path = tmp_path / "events.jsonl"
    path.write_text('{"cat": "engine", "ev": "cell"}\n'
                    'not json\n'
                    '{"cat": "engine", "ev": "worker"}\n')
    stream = read_events(str(path))
    assert isinstance(stream, types.GeneratorType)
    assert next(stream)["ev"] == "cell"
    assert next(stream)["ev"] == "worker"
    events, malformed = read_all(str(path))
    assert len(events) == 2
    assert malformed == 1


def test_fault_events_surface_in_obs_summary(repro_env, trace_path,
                                             tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    repro_env.set(TEST_CRASH="1")
    parallel_map(_crashing_double, [1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip", checkpoint=ckpt))
    repro_env.set(TEST_CRASH=None)
    parallel_map(_crashing_double, [1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip", checkpoint=ckpt,
                                      resume=True))
    summary = summarize(trace_path)
    assert len(summary.engine_errors) == 1
    assert summary.engine_errors[0]["label"] == "cell[0]"
    assert summary.engine_resumes
    assert summary.engine_resumes[0]["loaded"] == 2
    text = render(summary)
    assert "Cell failures" in text
    assert "Resumed from" in text
