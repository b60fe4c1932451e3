"""Data-plane resilience: injection, recovery policies, verification.

Covers the ``repro.resilience`` subsystem end-to-end: spec parsing,
deterministic injection, per-cache detection/recovery for MORC, the
set-associative baselines and the skewed cache, whole-run behaviour
under a flip rate, resilience events through the observability trace,
and the invariant auditor.
"""

from __future__ import annotations

import pytest

from repro.cache.set_assoc import AdaptiveCache, SEGMENT_BYTES
from repro.cache.skewed import SkewedCompressedCache
from repro.common.config import CacheGeometry, MorcConfig
from repro.common.errors import (
    ConfigError,
    PoisonedLineError,
    VerificationError,
)
from repro.morc.cache import UNCOMPRESSED_LINE_BITS, MorcCache
from repro.resilience import verify as res_verify
from repro.common.settings import parse_soft_errors
from repro.resilience.faults import SoftErrorInjector, make_injector
from repro.sim.system import run_single_program


@pytest.fixture(autouse=True)
def knobs(repro_env):
    """Every test starts from inert settings; ``knobs.set(...)`` changes
    them through the environment parser until the test ends."""
    return repro_env


def line(byte):
    return bytes([byte]) * 64


def small_morc(**overrides):
    defaults = dict(n_active_logs=2, lmt_overprovision=8, lmt_ways=2)
    defaults.update(overrides)
    return MorcCache(8 * 1024, config=MorcConfig(**defaults))


# -- spec parsing ---------------------------------------------------------


class TestSpecParsing:
    def test_off_values(self):
        for raw in ("", "0", "0.0", None):
            rate, index, bit = parse_soft_errors(raw)
            assert rate == 0.0 and index is None and bit is None

    def test_rate(self):
        rate, index, bit = parse_soft_errors("1e-4")
        assert rate == pytest.approx(1e-4)
        assert index is None and bit is None

    def test_index(self):
        rate, index, bit = parse_soft_errors("@7")
        assert rate == 0.0 and index == 7 and bit is None

    def test_index_with_bit(self):
        rate, index, bit = parse_soft_errors("@7:33")
        assert rate == 0.0 and index == 7 and bit == 33

    @pytest.mark.parametrize("raw", ["nope", "@", "@x", "@1:", "@1:y",
                                     "@-2", "-0.5", "1.5"])
    def test_bad_specs_raise(self, raw):
        with pytest.raises(ConfigError):
            parse_soft_errors(raw)

    def test_configure_rejects_unknown_policy(self, knobs):
        with pytest.raises(ConfigError):
            knobs.set(REPRO_SOFT_ERROR_POLICY="shrug")


# -- injector determinism -------------------------------------------------


class TestInjector:
    def test_inert_config_yields_no_injector(self):
        assert make_injector() is None

    def test_rate_mode_is_deterministic(self):
        def flips():
            injector = SoftErrorInjector(rate=1e-2, index=None, bit=None,
                                         seed=5)
            return [injector.flip_for(bits)
                    for bits in (300, 500, 120, 512, 64) * 20]
        first, second = flips(), flips()
        assert first == second
        assert any(flip is not None for flip in first)

    def test_rate_mode_matches_error_diffusion(self):
        injector = SoftErrorInjector(rate=0.5, index=None, bit=None,
                                     seed=0)
        # each 3-bit payload adds 1.5 to the accumulator: always fires
        assert all(injector.flip_for(3) is not None for _ in range(10))
        assert injector.soft_errors_injected == 10

    def test_seed_moves_the_bit_not_the_count(self):
        def run(seed):
            injector = SoftErrorInjector(rate=1e-2, index=None, bit=None,
                                         seed=seed)
            return [injector.flip_for(400) for _ in range(50)]
        a, b = run(1), run(2)
        assert [x is None for x in a] == [y is None for y in b]
        fired = [(x, y) for x, y in zip(a, b) if x is not None]
        assert any(x != y for x, y in fired)

    def test_index_mode_fires_exactly_once(self):
        injector = SoftErrorInjector(rate=0.0, index=3, bit=9, seed=0)
        flips = [injector.flip_for(512) for _ in range(6)]
        assert flips == [None, None, None, 9, None, None]

    def test_bit_wraps_into_payload(self):
        injector = SoftErrorInjector(rate=0.0, index=0, bit=100, seed=0)
        assert injector.flip_for(64) == 100 % 64


# -- MORC detection and recovery ------------------------------------------


class TestMorcRecovery:
    def test_refetch_recovers_and_reports(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="refetch")
        cache = small_morc()
        cache.fill(0, line(1))
        assert cache.stats["soft_errors_injected"] == 1
        result = cache.read(0)
        assert not result.hit  # detected: treated as a miss to refetch
        assert result.latency_cycles > cache.base_latency_cycles
        assert cache.stats["soft_errors_detected"] == 1
        assert cache.stats["soft_error_recoveries"] == 1
        assert cache.stats["soft_error_data_loss"] == 0
        # the poisoned copy is gone; a refill makes the line clean again
        cache.fill(0, line(1))
        assert cache.read(0).hit

    def test_failstop_raises_naming_the_line(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0:5", REPRO_SOFT_ERROR_POLICY="failstop")
        cache = small_morc()
        cache.fill(3 * 64, line(2))
        with pytest.raises(PoisonedLineError) as excinfo:
            cache.read(3 * 64)
        message = str(excinfo.value)
        assert "0x3" in message
        assert "failstop" in message
        assert excinfo.value.line_address == 3

    def test_raw_fallback_stores_uncompressed(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="raw")
        cache = small_morc()
        cache.fill(0, line(3))
        assert not cache.read(0).hit  # detection refetches once
        assert cache.stats["raw_fallbacks"] == 1
        assert 0 in cache._raw_fallback
        cache.fill(0, line(3))  # the refetched copy comes back raw
        assert cache.read(0).hit
        entry = next(e for log in cache.logs for e in log.entries
                     if e.valid and e.line_address == 0)
        assert entry.data_bits == UNCOMPRESSED_LINE_BITS
        assert entry.poison_bit is None  # raw copies are never injected

    def test_dirty_loss_counted(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="refetch")
        cache = small_morc()
        cache.writeback(0, line(4))
        cache.read(0)
        assert cache.stats["soft_error_data_loss"] == 1

    def test_detection_at_flush_does_not_write_back(self, knobs):
        import random
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="refetch")
        cache = small_morc(n_active_logs=1)
        rng = random.Random(0)
        cache.writeback(0, bytes(rng.getrandbits(8) for _ in range(64)))
        writebacks = []
        # incompressible fills pack the logs fast and force flushes
        for address in range(64, 400 * 64, 64):
            data = bytes(rng.getrandbits(8) for _ in range(64))
            result = cache.fill(address, data)
            writebacks.extend(result.writebacks)
        assert cache.stats["soft_errors_detected"] >= 1
        assert all(address != 0 for address, _ in writebacks)


# -- baseline caches -------------------------------------------------------


class TestSetAssocRecovery:
    def test_refetch_on_read(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="refetch")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))  # zero line compresses -> injectable
        assert cache.stats["soft_errors_injected"] == 1
        assert not cache.read(0).hit
        assert cache.stats["soft_error_recoveries"] == 1
        cache.fill(0, bytes(64))
        assert cache.read(0).hit

    def test_failstop(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="failstop")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        with pytest.raises(PoisonedLineError):
            cache.read(0)

    def test_raw_fallback_fills_all_segments(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="raw")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        cache.read(0)
        cache.fill(0, bytes(64))
        cache_set = cache._sets[cache.geometry.set_index(0)]
        assert cache_set.lines[0].segments == 64 // SEGMENT_BYTES
        assert cache_set.lines[0].poison_bit is None

    def test_uncompressed_lines_never_injected(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="refetch")
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        import os
        incompressible = os.urandom(64)
        cache.fill(0, incompressible)
        if cache.stats["soft_errors_injected"]:
            # only fires if the line actually compressed below full size
            cache_set = cache._sets[cache.geometry.set_index(0)]
            assert cache_set.lines[0].segments < 64 // SEGMENT_BYTES


class TestSkewedRecovery:
    def test_refetch_on_read(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="refetch")
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        assert cache.stats["soft_errors_injected"] == 1
        assert not cache.read(0).hit
        assert cache.stats["soft_error_recoveries"] == 1
        cache.fill(0, bytes(64))
        assert cache.read(0).hit

    def test_failstop(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="failstop")
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        with pytest.raises(PoisonedLineError) as excinfo:
            cache.read(0)
        assert "superblock" in str(excinfo.value)

    def test_raw_fallback_uses_full_entry(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="@0", REPRO_SOFT_ERROR_POLICY="raw")
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        cache.read(0)
        cache.fill(0, bytes(64))
        entry, _ = cache._locate(0)
        assert entry.blocks == 1  # stored raw: one line per 64B entry
        assert 0 not in entry.poisoned


# -- whole runs ------------------------------------------------------------


class TestEndToEnd:
    def test_run_completes_under_injection(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="1e-3", REPRO_SOFT_ERROR_POLICY="refetch")
        result = run_single_program("gcc", "MORC", n_instructions=20_000)
        assert result.llc_stats["soft_errors_injected"] > 0
        assert result.llc_stats["soft_errors_detected"] > 0
        assert (result.llc_stats["soft_error_recoveries"]
                == result.llc_stats["soft_errors_detected"])

    def test_injected_runs_are_deterministic(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="1e-3", REPRO_SOFT_ERROR_POLICY="refetch")
        a = run_single_program("gcc", "MORC", n_instructions=15_000)
        b = run_single_program("gcc", "MORC", n_instructions=15_000)
        assert a.llc_stats == b.llc_stats
        assert a.ipc == b.ipc

    def test_raw_policy_run_records_fallbacks(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="1e-3", REPRO_SOFT_ERROR_POLICY="raw")
        result = run_single_program("gcc", "MORC", n_instructions=20_000)
        assert result.llc_stats["raw_fallbacks"] > 0

    def test_baselines_complete_under_injection(self, knobs):
        knobs.set(REPRO_SOFT_ERRORS="1e-3", REPRO_SOFT_ERROR_POLICY="refetch")
        for scheme in ("Adaptive", "Skewed"):
            result = run_single_program("gcc", scheme,
                                        n_instructions=15_000)
            assert result.llc_stats["soft_errors_injected"] > 0

    def test_clean_run_bit_identical_to_default(self, knobs):
        baseline = run_single_program("gcc", "MORC",
                                      n_instructions=15_000)
        knobs.set(REPRO_SOFT_ERRORS="0",
                  REPRO_SOFT_ERROR_POLICY="refetch", REPRO_VERIFY="0")
        clean = run_single_program("gcc", "MORC", n_instructions=15_000)
        assert clean.compression_ratio == baseline.compression_ratio
        assert clean.ipc == baseline.ipc
        assert clean.llc_stats == baseline.llc_stats

    def test_verified_run_bit_identical(self, knobs):
        baseline = run_single_program("gcc", "MORC",
                                      n_instructions=15_000)
        knobs.set(REPRO_VERIFY="1")
        verified = run_single_program("gcc", "MORC",
                                      n_instructions=15_000)
        assert verified.compression_ratio == baseline.compression_ratio
        assert verified.ipc == baseline.ipc
        assert verified.llc_stats == baseline.llc_stats

    def test_verified_baselines_pass(self, knobs):
        knobs.set(REPRO_VERIFY="1")
        for scheme in ("Adaptive", "Decoupled", "SC2", "Skewed"):
            run_single_program("gcc", scheme, n_instructions=8_000)


# -- observability ---------------------------------------------------------


class TestObservability:
    @pytest.fixture
    def trace_path(self, knobs, tmp_path):
        path = tmp_path / "trace.jsonl"
        knobs.set(REPRO_OBS="1", REPRO_OBS_TRACE=str(path))
        return str(path)

    def test_events_emitted(self, knobs, trace_path):
        from repro.obs.reader import read_all
        knobs.set(REPRO_SOFT_ERRORS="1e-3", REPRO_SOFT_ERROR_POLICY="refetch")
        run_single_program("gcc", "MORC", n_instructions=20_000)
        events, malformed = read_all(trace_path)
        assert malformed == 0
        kinds = {e["ev"] for e in events if e["cat"] == "resilience"}
        assert {"soft_error", "recovery"} <= kinds
        soft_error = next(e for e in events if e["ev"] == "soft_error")
        assert {"cache", "line", "bit", "bits"} <= set(soft_error)
        recovery = next(e for e in events if e["ev"] == "recovery")
        assert recovery["policy"] == "refetch"
        assert recovery["during"] in ("read", "flush", "evict")

    def test_obs_summary_renders_resilience_section(self, knobs, trace_path):
        from repro.cli import main as cli_main
        knobs.set(REPRO_SOFT_ERRORS="1e-3", REPRO_SOFT_ERROR_POLICY="refetch")
        run_single_program("gcc", "MORC", n_instructions=20_000)
        from repro.obs.summary import render, summarize
        text = render(summarize(trace_path))
        assert "Resilience events" in text
        assert "Recoveries by policy" in text
        assert cli_main(["obs", trace_path]) == 0

    def test_clean_run_emits_no_resilience_events(self, trace_path):
        from repro.obs.reader import read_all
        run_single_program("gcc", "MORC", n_instructions=5_000)
        events, _ = read_all(trace_path)
        assert not [e for e in events if e["cat"] == "resilience"]


# -- the invariant auditor -------------------------------------------------


class TestAuditor:
    def test_healthy_caches_pass(self):
        morc = small_morc()
        for index in range(32):
            morc.fill(index * 64, line(index))
        assert res_verify._audit_morc(morc) == []
        adaptive = AdaptiveCache(CacheGeometry(16 * 64, ways=8))
        for index in range(32):
            adaptive.fill(index * 64, line(index % 7))
        assert res_verify._audit_set_assoc(adaptive) == []
        skewed = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        for index in range(32):
            skewed.fill(index * 64, line(index % 7))
        assert res_verify._audit_skewed(skewed) == []

    def test_catches_broken_log_accounting(self):
        cache = small_morc()
        cache.fill(0, line(1))
        cache.logs[0].data_bits_used += 1
        with pytest.raises(VerificationError) as excinfo:
            res_verify.audit(cache)
        assert "data_bits_used" in str(excinfo.value)

    def test_catches_broken_segment_accounting(self):
        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.fill(0, bytes(64))
        cache._sets[cache.geometry.set_index(0)].used_segments += 1
        with pytest.raises(VerificationError):
            res_verify.audit(cache)

    def test_catches_line_outside_superblock(self):
        cache = SkewedCompressedCache(CacheGeometry(8 * 1024, ways=8))
        cache.fill(0, bytes(64))
        entry, _ = cache._locate(0)
        entry.lines[999] = (bytes(64), False)
        with pytest.raises(VerificationError):
            res_verify.audit(cache)

    def test_audit_runs_from_sample_ratio_when_enabled(self, knobs):
        knobs.set(REPRO_VERIFY="1")
        cache = small_morc()
        cache.fill(0, line(1))
        cache.sample_ratio()  # healthy: no raise
        cache.logs[0].data_bits_used += 1
        with pytest.raises(VerificationError):
            cache.sample_ratio()

    def test_roundtrip_verification_catches_bad_codec(self, knobs):
        knobs.set(REPRO_VERIFY="1")

        class LyingCodec:
            name = "liar"

            def compress(self, data):
                from repro.compression.base import CompressedSize
                return CompressedSize(100)

            def roundtrip(self, data):
                return bytes(64)  # wrong whenever data isn't zeros

        cache = AdaptiveCache(CacheGeometry(8 * 64, ways=8))
        cache.compressor = LyingCodec()
        with pytest.raises(VerificationError):
            cache.fill(0, line(9))
