"""Event tracer end-to-end: emission, round-trip, isolation, summary.

The two acceptance properties live here: with ``REPRO_OBS=0`` nothing
is emitted and simulation results are identical to an instrumented run,
and with tracing on the ``repro obs`` summary reconstructs a run's mean
compression ratio from ``ratio_sample`` events to within 1% of the
reported value (in fact exactly, since the events mirror the samples).
"""

from __future__ import annotations

import os

import pytest

from repro.cli import main as cli_main
from repro.common import settings
from repro.common.errors import ConfigError
from repro.experiments.parallel import (
    RunSpec,
    last_timings,
    last_wall_seconds,
    last_worker_profiles,
    run_cells,
)
from repro.obs import trace as obs_trace
from repro.obs.reader import read_all, read_events
from repro.obs.summary import summarize
from repro.sim.system import run_single_program


@pytest.fixture
def trace_path(tmp_path):
    """Tracing on, the previous settings restored afterwards."""
    path = tmp_path / "trace.jsonl"
    with settings.override(obs=True, obs_trace=str(path)):
        yield str(path)


def _result_fingerprint(result):
    return (result.compression_ratio, result.ipc, result.bandwidth_gb,
            result.metrics.llc_hits, result.metrics.llc_misses,
            result.llc_stats)


# -- emission and round-trip --------------------------------------------

def test_simulation_emits_all_categories(trace_path):
    run_single_program("gcc", "MORC", n_instructions=5000)
    events, malformed = read_all(trace_path)
    assert malformed == 0
    categories = {event["cat"] for event in events}
    assert {"llc", "compression", "mem", "run"} <= categories
    kinds = {event["ev"] for event in events}
    assert {"run_start", "measure_start", "run_end", "insert",
            "ratio_sample", "compress", "queue_sample"} <= kinds
    # provenance: the run's resolved settings ride on its run_start
    start = next(e for e in events if e["ev"] == "run_start")
    assert start["settings"] == settings.current().as_dict()
    assert start["settings"]["REPRO_OBS"] is True
    # ambient context is attached to hot-path events too
    insert = next(e for e in events if e["ev"] == "insert")
    assert insert["benchmark"] == "gcc"
    assert insert["scheme"] == "MORC"
    assert "run" in insert


def test_jsonl_round_trip(trace_path):
    channel = obs_trace.LLC
    channel.emit("evict", cache="MORC", reason="log_flush", dirty=True,
                 bits=512)
    events = list(read_events(trace_path))
    assert events == [{"cat": "llc", "ev": "evict", "cache": "MORC",
                       "reason": "log_flush", "dirty": True, "bits": 512}]


def test_reader_tolerates_torn_and_blank_lines(trace_path):
    obs_trace.RUN.emit("run_start", n_instructions=1)
    with open(trace_path, "a") as handle:
        handle.write("\n{\"cat\": \"llc\", \"ev\"")  # torn final line
    events, malformed = read_all(trace_path)
    assert len(events) == 1
    assert malformed == 1


def test_run_context_cleared_after_run(trace_path):
    run_single_program("gcc", "MORC", n_instructions=2000)
    obs_trace.RUN.emit("orphan")
    last = list(read_events(trace_path))[-1]
    assert last["ev"] == "orphan"
    assert "run" not in last and "benchmark" not in last


# -- category filtering --------------------------------------------------

def test_category_filter(tmp_path):
    path = tmp_path / "filtered.jsonl"
    with settings.override(obs=True, obs_trace=str(path),
                           obs_categories=frozenset({"llc"})):
        assert obs_trace.LLC is not None
        assert obs_trace.COMPRESSION is None
        assert obs_trace.MEM is None
        run_single_program("gcc", "MORC", n_instructions=3000)
    assert obs_trace.LLC is None
    categories = {event["cat"] for event in read_events(str(path))}
    assert categories == {"llc"}


# -- disabled: no events, identical results -----------------------------

def test_disabled_emits_nothing_and_results_identical(tmp_path):
    path = tmp_path / "off.jsonl"
    with settings.override(obs=False, obs_trace=str(path)):
        baseline = run_single_program("gcc", "MORC", n_instructions=4000)
        assert obs_trace.tracing_active() is False
        assert not path.exists()
    with settings.override(obs=True,
                           obs_trace=str(tmp_path / "on.jsonl")):
        traced = run_single_program("gcc", "MORC", n_instructions=4000)
    # the tracer observes, never perturbs: bit-identical results
    assert _result_fingerprint(baseline) == _result_fingerprint(traced)
    assert baseline.metrics.miss_latencies == traced.metrics.miss_latencies


# -- ratio reconstruction ------------------------------------------------

def test_summary_reconstructs_reported_ratio(trace_path):
    result = run_single_program("gcc", "MORC", n_instructions=20_000)
    summary = summarize(trace_path)
    digests = [d for d in summary.runs.values() if d.ratio_samples]
    assert len(digests) == 1
    digest = digests[0]
    assert digest.benchmark == "gcc"
    assert digest.reported_ratio == pytest.approx(
        result.compression_ratio)
    # acceptance bound is 1%; the event stream mirrors the samples, so
    # the reconstruction is exact
    assert digest.reconstructed_ratio == pytest.approx(
        result.compression_ratio, rel=0.01)
    assert digest.reconstructed_ratio == pytest.approx(
        digest.reported_ratio)


# -- engine profiling ----------------------------------------------------

def test_engine_profiles_and_events(trace_path):
    specs = [RunSpec("gcc", "MORC", n_instructions=2000),
             RunSpec("bzip2", "Uncompressed", n_instructions=2000)]
    run_cells(specs, jobs=1)
    timings = last_timings()
    assert [t.label for t in timings] == ["gcc/MORC",
                                          "bzip2/Uncompressed"]
    assert all(t.peak_rss_kb > 0 for t in timings)
    assert all(t.queue_wait_s >= 0.0 for t in timings)
    assert last_wall_seconds() > 0.0
    profiles = last_worker_profiles()
    assert len(profiles) == 1
    assert profiles[0].pid == os.getpid()
    assert profiles[0].cells == 2
    assert 0.0 < profiles[0].utilization <= 1.0
    assert profiles[0].peak_rss_kb > 0
    events = list(read_events(trace_path))
    assert sum(1 for e in events if e["ev"] == "cell") == 2
    assert sum(1 for e in events if e["ev"] == "worker") == 1


# -- CLI ----------------------------------------------------------------

def test_cli_obs_renders_summary(trace_path, capsys):
    run_single_program("gcc", "MORC", n_instructions=5000)
    assert cli_main(["obs", trace_path, "--top", "4"]) == 0
    output = capsys.readouterr().out
    assert "events" in output
    assert "Compression ratio per run" in output
    assert "gcc/MORC" in output
    assert "Compression attempts per codec" in output


def test_cli_obs_missing_file(tmp_path, capsys):
    assert cli_main(["obs", str(tmp_path / "nope.jsonl")]) == 1
    assert "cannot read trace" in capsys.readouterr().err


KNOBS = ("REPRO_OBS", "REPRO_OBS_TRACE", "REPRO_OBS_CATEGORIES",
         "REPRO_JOBS", "REPRO_SCALE", "REPRO_CELL_TIMEOUT",
         "REPRO_SOFT_ERRORS", "REPRO_SOFT_ERROR_POLICY",
         "REPRO_SOFT_ERROR_SEED", "REPRO_VERIFY")


def test_cli_list_shows_obs_knobs(capsys):
    assert cli_main(["list"]) == 0
    output = capsys.readouterr().out
    for category in ("llc", "compression", "mem", "run", "engine"):
        assert category in output
    knob_rows = output.split("environment knobs:\n", 1)[1].splitlines()
    assert [row.split()[0] for row in knob_rows] == list(KNOBS)
    assert list(settings.Settings().as_dict()) == list(KNOBS)


# -- config parsing ------------------------------------------------------

def test_env_parsing():
    parsed = settings.from_env({
        "REPRO_OBS": "1", "REPRO_OBS_TRACE": "/tmp/t.jsonl",
        "REPRO_OBS_CATEGORIES": "llc,mem", "REPRO_JOBS": "3",
        "REPRO_SCALE": "2", "REPRO_CELL_TIMEOUT": "1.5",
        "REPRO_SOFT_ERRORS": "@7:33",
        "REPRO_SOFT_ERROR_POLICY": "raw", "REPRO_SOFT_ERROR_SEED": "5",
        "REPRO_VERIFY": "yes"})
    assert parsed == settings.Settings(
        obs=True, obs_trace="/tmp/t.jsonl",
        obs_categories=frozenset({"llc", "mem"}), jobs=3, scale=2.0,
        cell_timeout=1.5, soft_errors=(0.0, 7, 33), soft_error_policy="raw",
        soft_error_seed=5, verify=True)
    assert settings.from_env({}) == settings.Settings()
    assert settings.from_env({"REPRO_OBS": "off"}).obs is False
    for name, bad in (("REPRO_OBS_CATEGORIES", "llc,warp"),
                      ("REPRO_JOBS", "0"), ("REPRO_JOBS", "many"),
                      ("REPRO_SCALE", "0"), ("REPRO_SCALE", "-1"),
                      ("REPRO_SCALE", "nope"),
                      ("REPRO_SOFT_ERROR_POLICY", "shrug"),
                      ("REPRO_SOFT_ERROR_SEED", "x"),
                      ("REPRO_CELL_TIMEOUT", "soon"),
                      ("REPRO_SOFT_ERRORS", "@x")):
        with pytest.raises(ConfigError, match=name):
            settings.from_env({name: bad})


def test_override_restores_and_rebinds_channels(tmp_path):
    before = settings.current()
    with settings.override(obs=True,
                           obs_trace=str(tmp_path / "t.jsonl")) as inner:
        assert settings.current() is inner
        assert obs_trace.RUN is not None
    assert settings.current() is before
    assert obs_trace.RUN is None


def test_entropy_classes():
    from repro.common.words import LINE_SIZE
    assert obs_trace.entropy_class(bytes(LINE_SIZE)) == "zero"
    assert obs_trace.entropy_class(b"\x01\x02" * 32) == "low"
    assert obs_trace.entropy_class(bytes(range(10)) * 6) == "mid"
    assert obs_trace.entropy_class(bytes(range(64))) == "high"
