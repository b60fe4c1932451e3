"""Opt-in self-verification: round-trip checks and invariant audits.

Enabled by ``REPRO_VERIFY=1``.  Two mechanisms:

- **Round-trip verification on insert** — every committed compression is
  immediately decompressed and compared against the source line.  For
  LBE the caller snapshots the log dictionary *before* the committing
  compress (the decode must replay against pre-append state) and the
  check also serialises the symbols to their exact bitstream and parses
  them back.  Intra-line codecs go through
  :meth:`~repro.compression.base.IntraLineCompressor.roundtrip`; codecs
  that only model sizes (SC2) are skipped.
- **Invariant audits** — :func:`audit` walks a cache's structures and
  collects every broken invariant: bits accounting, occupancy vs
  capacity, LMT↔log cross-references for MORC, segment/tag budgets for
  the set-associative baselines, size-class bounds for the skewed cache.
  The system simulator runs it at every ratio-sample point.

Failures raise :class:`repro.common.errors.VerificationError` and emit
``verify_fail`` events on the ``resilience`` trace category.  All checks
are read-only: they never mutate cache state, so a verified run's
figure/table outputs are bit-identical to an unverified one.
"""

from __future__ import annotations

from typing import List

from repro.common.errors import VerificationError
from repro.common.words import LINE_SIZE
from repro.obs import trace as obs_trace
from repro.common import settings


def verification_enabled() -> bool:
    """True when ``REPRO_VERIFY`` checks should run."""
    return settings.current().verify


def _fail(subject: str, violations: List[str], kind: str) -> None:
    channel = obs_trace.RESILIENCE
    if channel is not None:
        for violation in violations:
            channel.emit("verify_fail", cache=subject, kind=kind,
                         detail=violation)
    raise VerificationError(subject, violations)


# -- round-trip verification on insert -----------------------------------


def verify_lbe_roundtrip(compressor, data: bytes, snapshot,
                         compressed, cache: str) -> None:
    """Check a committed LBE append decodes back to ``data``.

    ``snapshot`` is the log dictionary copied *before* the committing
    ``compress`` call; decoding replays dictionary updates against it
    exactly as a log replay from this entry's predecessor state would.
    The symbol stream is also serialised to its exact bit encoding and
    parsed back, which exercises the hardened bitstream path.
    """
    from repro.common.bitio import BitReader

    violations: List[str] = []
    decoded = compressor._decode_line(compressed, snapshot)
    if decoded != data:
        diff_at = next((i for i in range(min(len(decoded), len(data)))
                        if decoded[i] != data[i]), len(decoded))
        violations.append(
            f"LBE round-trip mismatch: {len(decoded)} bytes decoded, "
            f"first diff at byte {diff_at}")
    writer = compressor.to_bitstream(compressed)
    reparsed = compressor.from_bitstream(
        BitReader.from_writer(writer, strict=True))
    if reparsed.symbols != compressed.symbols:
        violations.append("LBE bitstream reparse produced different "
                          "symbols")
    if violations:
        _fail(cache, violations, kind="roundtrip")


def verify_intraline_roundtrip(compressor, data: bytes,
                               cache: str) -> None:
    """Check an intra-line codec reproduces ``data`` exactly.

    Codecs that only model encoded sizes (SC2's adapter) raise
    ``NotImplementedError`` from ``compress_tokens`` and are skipped.
    """
    try:
        decoded = compressor.roundtrip(data)
    except NotImplementedError:
        return
    if decoded != data:
        _fail(cache, [f"{getattr(compressor, 'name', '?')} round-trip "
                      f"mismatch for line of {len(data)} bytes"],
              kind="roundtrip")


# -- invariant audits -----------------------------------------------------


def audit(llc) -> None:
    """Audit a cache's internal invariants; raise on any violation.

    Dispatches on structure (duck typing keeps this free of import
    cycles): MORC exposes ``logs``/``lmt``, the set-associative family
    ``_sets``/``segments_per_set``, the skewed cache
    ``_ways``/``entries_per_way``.  Unknown caches are ignored.
    """
    if hasattr(llc, "logs") and hasattr(llc, "lmt"):
        violations = _audit_morc(llc)
    elif hasattr(llc, "_sets") and hasattr(llc, "segments_per_set"):
        violations = _audit_set_assoc(llc)
    elif hasattr(llc, "_ways") and hasattr(llc, "entries_per_way"):
        violations = _audit_skewed(llc)
    else:
        return
    if violations:
        _fail(llc.name, violations, kind="invariant")


def _audit_morc(llc) -> List[str]:
    violations: List[str] = []
    for log in llc.logs:
        violations.extend(log.audit())
    violations.extend(llc.lmt.audit())
    # Cross-references: every valid log entry is tracked by exactly the
    # LMT entry it back-points to, and vice versa.
    tracked = 0
    for log in llc.logs:
        for entry in log.entries:
            if not entry.valid:
                continue
            tracked += 1
            lmt_entry = entry.lmt_ref
            if lmt_entry is None:
                violations.append(
                    f"log {log.index}: valid entry for line "
                    f"0x{entry.line_address:x} has no LMT back-pointer")
                continue
            if lmt_entry.entry_ref is not entry:
                violations.append(
                    f"log {log.index}: LMT entry for line "
                    f"0x{entry.line_address:x} points elsewhere")
            if lmt_entry.log_index != log.index:
                violations.append(
                    f"log {log.index}: LMT entry for line "
                    f"0x{entry.line_address:x} records log "
                    f"{lmt_entry.log_index}")
            if not lmt_entry.is_valid:
                violations.append(
                    f"log {log.index}: valid entry for line "
                    f"0x{entry.line_address:x} tracked by an invalid "
                    f"LMT entry")
    lmt_valid = llc.lmt.valid_count()
    if lmt_valid != tracked:
        violations.append(
            f"LMT holds {lmt_valid} valid entries but logs hold "
            f"{tracked} valid lines")
    # Occupancy: valid resident lines can never exceed what the physical
    # capacity could hold at the maximum modelled compression.
    valid_lines = sum(log.valid_count for log in llc.logs)
    if valid_lines > llc.lmt.n_entries and not llc.lmt.unlimited:
        violations.append(
            f"{valid_lines} resident lines exceed the LMT's "
            f"{llc.lmt.n_entries} entries")
    return violations


def _audit_set_assoc(llc) -> List[str]:
    violations: List[str] = []
    full_segments = llc.geometry.line_size // 8  # SEGMENT_BYTES
    for index, cache_set in enumerate(llc._sets):
        actual = sum(line.segments for line in cache_set.lines.values())
        if actual != cache_set.used_segments:
            violations.append(
                f"set {index}: used_segments={cache_set.used_segments} "
                f"but lines sum to {actual}")
        if cache_set.used_segments > llc.segments_per_set:
            violations.append(
                f"set {index}: {cache_set.used_segments} segments "
                f"exceed the set budget of {llc.segments_per_set}")
        if len(cache_set.lines) > llc.tags_per_set:
            violations.append(
                f"set {index}: {len(cache_set.lines)} lines exceed "
                f"{llc.tags_per_set} tags")
        if set(cache_set.lru._order) != set(cache_set.lines):
            violations.append(
                f"set {index}: LRU order disagrees with resident lines")
        for line in cache_set.lines.values():
            if not 0 < line.segments <= full_segments:
                violations.append(
                    f"set {index}: line 0x{line.address:x} holds "
                    f"{line.segments} segments")
    return violations


def _audit_skewed(llc) -> List[str]:
    violations: List[str] = []
    superblock_lines = 4  # SUPERBLOCK_LINES
    for way_index, way in enumerate(llc._ways):
        for entry_index, entry in enumerate(way):
            if not entry.valid:
                continue
            where = f"way {way_index} entry {entry_index}"
            if len(entry.lines) > entry.blocks:
                violations.append(
                    f"{where}: {len(entry.lines)} lines exceed size "
                    f"class {entry.blocks}")
            for line_address in entry.lines:
                if line_address // superblock_lines != entry.superblock:
                    violations.append(
                        f"{where}: line 0x{line_address:x} outside "
                        f"superblock {entry.superblock}")
    return violations


def verify_line_length(data: bytes, cache: str) -> None:
    """Cheap insert-time sanity check shared by all verified caches."""
    if len(data) != LINE_SIZE:
        _fail(cache, [f"stored line is {len(data)} bytes, expected "
                      f"{LINE_SIZE}"], kind="roundtrip")
