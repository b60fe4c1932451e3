"""Fault-tolerant engine: error capture, retry, timeout, resume.

Exercises every fault path of :mod:`repro.experiments.parallel` with the
deterministic ``REPRO_FAULT_INJECT`` hook: an injected crash becomes a
structured :class:`CellError` with the rest of the grid intact, a
flaky-once cell succeeds on retry with its backoff recorded in the
``engine`` trace, a hang trips the per-cell timeout, a killed worker
escalates to a serial re-run, and a killed sweep resumes from its
checkpoint with results bit-identical to an uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
import time
import types

import pytest

from repro.common import settings
from repro.common.errors import CellError, CellFailedError, ConfigError
from repro.experiments import figure6, parallel
from repro.experiments.checkpoint import GridCheckpoint, spec_key
from repro.common.settings import parse_fault_spec
from repro.experiments.parallel import (
    EngineOptions,
    parallel_map,
    retry_delay,
)
from repro.obs.reader import read_all, read_events
from repro.obs.summary import render, summarize


def _double(x):
    return 2 * x


def _interruptible_double(x):
    """2*x, but Ctrl-C on x == 2 while TEST_INTERRUPT is set (forked
    workers inherit the parent's environment)."""
    if x == 2 and os.environ.get("TEST_INTERRUPT"):
        raise KeyboardInterrupt
    return 2 * x


def _logged_double(item):
    """Append this invocation to a shared log (O_APPEND is atomic)."""
    log_path, value = item
    with open(log_path, "a") as handle:
        handle.write(f"{value}\n")
    return 2 * value


@pytest.fixture
def quiet_env(repro_env, monkeypatch):
    """No ``REPRO_*`` knobs set; fast backoff so retry tests stay quick."""
    monkeypatch.setattr(parallel, "RETRY_BACKOFF_S", 0.01)
    return repro_env


@pytest.fixture
def trace_path(quiet_env, tmp_path):
    path = tmp_path / "trace.jsonl"
    quiet_env.set(REPRO_OBS="1", REPRO_OBS_TRACE=str(path))
    return str(path)


# -- error capture ------------------------------------------------------

def test_injected_crash_becomes_cell_error_grid_intact(quiet_env):
    quiet_env.set(REPRO_FAULT_INJECT="crash@2")
    out = parallel_map(_double, [1, 2, 3, 4], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    assert out[0] == 2 and out[1] == 4 and out[3] == 8
    cell = out[2]
    assert isinstance(cell, CellError)
    assert cell.label == "cell[2]"
    assert "injected crash" in cell.exception
    assert "FaultInjected" in cell.traceback
    assert cell.attempts == 1
    assert cell.kind == "error"


def test_default_raise_mode_wraps_worker_exception(quiet_env):
    quiet_env.set(REPRO_FAULT_INJECT="crash@1")
    with pytest.raises(CellFailedError) as excinfo:
        parallel_map(_double, [5, 6, 7], jobs=2)
    assert excinfo.value.cell.label == "cell[1]"
    assert "injected crash" in str(excinfo.value)


def test_failed_grid_does_not_leave_stale_engine_state(quiet_env):
    # Satellite bugfix: last_timings()/last_wall_seconds() used to keep
    # the PREVIOUS invocation's data after any failure.
    parallel_map(_double, [10, 20, 30], jobs=2, label="first")
    assert [t.label for t in parallel.last_timings()] == [
        "first[0]", "first[1]", "first[2]"]
    quiet_env.set(REPRO_FAULT_INJECT="crash@0")
    with pytest.raises(CellFailedError):
        parallel_map(_double, [1, 2], jobs=2, label="second")
    labels = [t.label for t in parallel.last_timings()]
    assert all(label.startswith("second[") for label in labels)
    assert parallel.last_wall_seconds() > 0.0


# -- retry with backoff -------------------------------------------------

def test_flaky_once_succeeds_on_retry_with_backoff_recorded(
        quiet_env, trace_path):
    quiet_env.set(REPRO_FAULT_INJECT="flaky@1")
    out = parallel_map(_double, [1, 2, 3], jobs=2,
                       engine=EngineOptions(on_error="retry"))
    assert out == [2, 4, 6]
    retry_events = [event for event in read_events(trace_path)
                    if event.get("ev") == "cell_retry"]
    assert len(retry_events) == 1
    assert retry_events[0]["label"] == "cell[1]"
    assert retry_events[0]["attempt"] == 1
    assert retry_events[0]["delay_s"] > 0.0
    assert "flaky" in retry_events[0]["error"]


def test_retries_exhausted_reports_attempt_count(quiet_env):
    quiet_env.set(REPRO_FAULT_INJECT="crash@0")
    quiet_env.set(REPRO_RETRIES="2")
    out = parallel_map(_double, [1, 2], jobs=2,
                       engine=EngineOptions(on_error="retry"))
    cell = out[0]
    assert isinstance(cell, CellError)
    assert cell.attempts == 3  # initial attempt + 2 retries
    assert out[1] == 4


def test_retry_delay_is_deterministic_exponential():
    first = retry_delay("gcc/MORC", 1, 0.05)
    assert first == retry_delay("gcc/MORC", 1, 0.05)
    assert 0.05 <= first <= 0.10  # base + jitter in [0, base)
    assert retry_delay("gcc/MORC", 3, 0.05) >= 0.20  # doubled twice
    assert retry_delay("gcc/MORC", 1, 0.05) != retry_delay(
        "hmmer/MORC", 1, 0.05)


# -- timeout ------------------------------------------------------------

def test_hang_trips_cell_timeout(quiet_env):
    quiet_env.set(REPRO_FAULT_INJECT="hang@0:30")
    quiet_env.set(REPRO_CELL_TIMEOUT="0.5")
    started = time.perf_counter()
    out = parallel_map(_double, [1, 2, 3, 4], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    elapsed = time.perf_counter() - started
    assert elapsed < 15.0  # nowhere near the 30s hang
    cell = out[0]
    assert isinstance(cell, CellError)
    assert cell.kind == "timeout"
    assert "0.5" in cell.exception
    assert out[1:] == [4, 6, 8]


# -- broken pool escalation ---------------------------------------------

def test_killed_worker_escalates_to_serial_rerun(quiet_env):
    quiet_env.set(REPRO_FAULT_INJECT="kill@1")
    out = parallel_map(_double, [1, 2, 3, 4], jobs=2,
                       engine=EngineOptions(on_error="skip"))
    # the poisoned cell fails (raised, not killed, in the serial
    # re-run); every other cell still produces its result
    assert isinstance(out[1], CellError)
    assert "kill" in out[1].exception
    assert [out[0], out[2], out[3]] == [2, 6, 8]


# -- checkpoint / resume ------------------------------------------------

def test_resume_reruns_only_missing_cells(quiet_env, tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    log = str(tmp_path / "invocations.log")
    items = [(log, value) for value in range(4)]
    quiet_env.set(REPRO_FAULT_INJECT="crash@2")
    out = parallel_map(_logged_double, items, jobs=2,
                       engine=EngineOptions(on_error="skip",
                                            checkpoint=ckpt))
    assert isinstance(out[2], CellError)
    quiet_env.set(REPRO_FAULT_INJECT=None)
    resumed = parallel_map(_logged_double, items, jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == [0, 2, 4, 6]
    assert parallel.last_resume() == {"checkpoint": ckpt, "loaded": 3,
                                      "executed": 1}
    # 3 successes in run one + only the failed cell re-run in run two
    with open(log) as handle:
        invocations = sorted(int(line) for line in handle)
    assert invocations == [0, 1, 2, 3]
    # loaded cells' timings are replayed so the grid view is complete
    assert len(parallel.last_timings()) == 4


def test_interrupt_flushes_checkpoint_and_resumes(quiet_env, tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    quiet_env.set(TEST_INTERRUPT="1")
    with pytest.raises(KeyboardInterrupt):
        parallel_map(_interruptible_double, [0, 1, 2, 3], jobs=2,
                     engine=EngineOptions(on_error="skip",
                                          checkpoint=ckpt))
    journaled = GridCheckpoint(ckpt).load()
    assert any(record["status"] == "ok"
               for record in journaled.values())
    quiet_env.set(TEST_INTERRUPT=None)
    resumed = parallel_map(_interruptible_double, [0, 1, 2, 3], jobs=2,
                           engine=EngineOptions(on_error="skip",
                                                checkpoint=ckpt,
                                                resume=True))
    assert resumed == [0, 2, 4, 6]
    assert parallel.last_resume()["loaded"] >= 1


def test_checkpoint_not_replayed_across_worker_functions(quiet_env,
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
        quiet_env, tmp_path):
    # The acceptance scenario: crash 10% of a figure-6 grid, finish with
    # CellErrors reported, resume, and match a fault-free serial run.
    kwargs = dict(benchmarks=["gcc", "hmmer"], n_instructions=5_000,
                  schemes=("Uncompressed", "MORC"))
    quiet_env.set(REPRO_JOBS="1")
    clean = figure6.run(**kwargs)
    ckpt = str(tmp_path / "figure6.ckpt")
    quiet_env.set(REPRO_JOBS="2")
    quiet_env.set(REPRO_FAULT_INJECT="crash@10%")
    partial = figure6.run(engine=EngineOptions(on_error="skip",
                                               checkpoint=ckpt), **kwargs)
    failed = [cell for runs in partial.runs.values() for cell in runs
              if isinstance(cell, CellError)]
    assert failed, "crash@10% must fail at least cell 0"
    quiet_env.set(REPRO_FAULT_INJECT=None)
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
        quiet_env, tmp_path):
    # A journal written by a clean run must not stand in for cells whose
    # soft-error model differs: every cell re-runs and the resumed grid
    # matches a fresh run under the new settings.
    ckpt = str(tmp_path / "figure6.ckpt")
    quiet_env.set(REPRO_JOBS="1")
    clean = figure6.run(engine=EngineOptions(checkpoint=ckpt), **GRID)
    quiet_env.set(REPRO_SOFT_ERRORS="0.01", REPRO_SOFT_ERROR_POLICY="raw")
    fresh = figure6.run(**GRID)
    resumed = figure6.run(engine=EngineOptions(checkpoint=ckpt,
                                               resume=True), **GRID)
    assert parallel.last_resume()["loaded"] == 0
    assert parallel.last_resume()["executed"] == 4
    assert _ratios(resumed) == _ratios(fresh)
    assert _ratios(resumed) != _ratios(clean)


def test_resume_under_changed_jobs_or_tracing_replays_every_cell(
        quiet_env, tmp_path):
    # Worker count and tracing cannot change a result, so they stay out
    # of the checkpoint key and a resume replays every journaled cell.
    ckpt = str(tmp_path / "figure6.ckpt")
    quiet_env.set(REPRO_JOBS="1")
    clean = figure6.run(engine=EngineOptions(checkpoint=ckpt), **GRID)
    quiet_env.set(REPRO_JOBS="2", REPRO_OBS="1",
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
        jobs=3, obs=True, verify=True, retries=0).result_key()
    for changed in (settings.Settings(soft_errors=(0.01, None, None)),
                    settings.Settings(soft_errors=(0.0, 4, None)),
                    settings.Settings(soft_errors=(0.0, 4, 9)),
                    settings.Settings(soft_error_policy="raw"),
                    settings.Settings(soft_error_seed=1)):
        assert (spec_key(0, "gcc/MORC", spec, "w", clean.result_key())
                != spec_key(0, "gcc/MORC", spec, "w",
                            changed.result_key()))


# -- configuration parsing ----------------------------------------------

def test_fault_spec_parsing():
    directives = parse_fault_spec("crash@2,flaky@1,hang@0:1.5,crash@10%")
    assert [d.mode for d in directives] == ["crash", "flaky", "hang",
                                            "crash"]
    assert directives[2].arg == 1.5
    stride = directives[3]
    assert stride.selector == "stride" and stride.value == 10
    assert stride.matches(0) and stride.matches(10)
    assert not stride.matches(5)
    assert parse_fault_spec("") == ()
    for bad in ("explode@1", "crash", "crash@x", "crash@0%"):
        with pytest.raises(ConfigError):
            parse_fault_spec(bad)


def test_engine_env_knob_validation(quiet_env):
    for name, bad in (("REPRO_RETRIES", "-1"), ("REPRO_RETRIES", "x"),
                      ("REPRO_CELL_TIMEOUT", "soon"),
                      ("REPRO_ON_ERROR", "ignore")):
        with pytest.raises(ConfigError, match=name):
            settings.from_env({name: bad})
    assert settings.from_env({"REPRO_RETRIES": " "}).retries == 2
    with pytest.raises(ConfigError):
        parallel_map(_double, [1, 2], jobs=1,
                     engine=EngineOptions(on_error="ignore"))


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


def test_fault_events_surface_in_obs_summary(quiet_env, trace_path,
                                             tmp_path):
    ckpt = str(tmp_path / "grid.ckpt")
    quiet_env.set(REPRO_FAULT_INJECT="crash@0")
    parallel_map(_double, [1, 2, 3], jobs=2,
                 engine=EngineOptions(on_error="skip", checkpoint=ckpt))
    quiet_env.set(REPRO_FAULT_INJECT=None)
    parallel_map(_double, [1, 2, 3], jobs=2,
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
