"""Skewed Compressed Cache (Sardashti, Seznec & Wood, MICRO 2014).

The paper's related work (§6) describes SCC as performing like Decoupled
while being easier to implement, so it completes the prior-work roster.
The model captures SCC's two mechanisms:

- **Superblock tags**: one tag covers four adjacent lines, so tracking
  compressed lines costs no extra tag storage.
- **Skewed, size-class placement**: every way indexes with a different
  hash, and a 64-byte physical entry holds 1, 2, 4 or 8 compressed lines
  of one superblock depending on the *size class* its compressed size
  falls into (>=32B, >=16B, >=8B, <8B).  A line's class plus the skewing
  hash decides which entry of each way could hold it; conflicts evict a
  whole entry (all co-resident lines).

Like the other baselines it uses C-Pack and pays the fixed +4-cycle
decompression latency on loads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.base import FillResult, LLCInterface, ReadResult
from repro.common.config import CacheGeometry
from repro.common import settings
from repro.common.errors import PoisonedLineError
from repro.common.stats import StatGroup
from repro.common.words import check_line
from repro.obs import trace as obs_trace
from repro.compression.base import IntraLineCompressor
from repro.compression.cpack import CPackCompressor
from repro.resilience import verify as res_verify
from repro.resilience.faults import make_injector

SUPERBLOCK_LINES = 4
SIZE_CLASSES = (1, 2, 4, 8)  # compressed lines per 64B entry

_HASH_MULTIPLIERS = (0x9E3779B1, 0x85EBCA77, 0xC2B2AE3D, 0x27D4EB2F,
                     0x165667B1, 0xD3A2646C, 0xFD7046C5, 0xB55A4F09)


def size_class(compressed_bytes: int) -> int:
    """Lines-per-entry class for a compressed size (1, 2, 4 or 8)."""
    for blocks in reversed(SIZE_CLASSES):  # prefer the densest class
        if compressed_bytes * blocks <= 64:
            return blocks
    return 1


@dataclass
class _Entry:
    """One 64B physical entry holding compressed lines of a superblock."""

    superblock: int = -1
    blocks: int = 1  # size class
    lines: Dict[int, Tuple[bytes, bool]] = field(default_factory=dict)
    last_use: int = 0
    #: line_address -> stored bit flipped by an injected soft error
    poisoned: Dict[int, int] = field(default_factory=dict)

    @property
    def valid(self) -> bool:
        return self.superblock >= 0 and bool(self.lines)

    def clear(self) -> None:
        self.superblock = -1
        self.lines.clear()
        self.poisoned.clear()


class SkewedCompressedCache(LLCInterface):
    """Skewed-associative compressed LLC."""

    name = "Skewed"

    def __init__(self, geometry: CacheGeometry,
                 compressor: Optional[IntraLineCompressor] = None,
                 base_latency_cycles: int = 14,
                 decompression_cycles: int = 4) -> None:
        self.geometry = geometry
        self.compressor = compressor or CPackCompressor()
        self.base_latency_cycles = base_latency_cycles
        self.decompression_cycles = decompression_cycles
        self.n_ways = geometry.ways
        self.entries_per_way = geometry.n_lines // geometry.ways
        self._ways: List[List[_Entry]] = [
            [_Entry() for _ in range(self.entries_per_way)]
            for _ in range(self.n_ways)]
        self._clock = 0
        self.stats = StatGroup(self.name)
        # Resilience hooks (repro/resilience): inert on a clean run.
        self._injector = make_injector()
        self._raw_fallback: set = set()
        self._verify = res_verify.verification_enabled()

    # -- indexing ---------------------------------------------------------

    def _index(self, way: int, superblock: int, blocks: int) -> int:
        """Skewing hash: distinct per way, keyed by superblock + class."""
        key = (superblock * _HASH_MULTIPLIERS[way % len(_HASH_MULTIPLIERS)]
               + blocks * 0x61C88647) & 0xFFFFFFFF
        return key % self.entries_per_way

    def _tick(self) -> int:
        self._clock += 1
        return self._clock

    def _locate(self, line_address: int) -> Optional[Tuple[_Entry, int]]:
        superblock = line_address // SUPERBLOCK_LINES
        for blocks in SIZE_CLASSES:
            for way in range(self.n_ways):
                entry = self._ways[way][self._index(way, superblock,
                                                    blocks)]
                if (entry.valid and entry.superblock == superblock
                        and entry.blocks == blocks
                        and line_address in entry.lines):
                    return entry, way
        return None

    # -- LLCInterface -------------------------------------------------------

    def read(self, address: int) -> ReadResult:
        line_address = address // self.geometry.line_size
        found = self._locate(line_address)
        if found is None:
            self.stats.add("read_misses")
            return ReadResult(False, self.base_latency_cycles)
        entry, _ = found
        if line_address in entry.poisoned:
            return self._recover(entry, line_address, during="read")
        entry.last_use = self._tick()
        self.stats.add("read_hits")
        self.stats.add("decompressions")
        self.stats.add("decompressed_lines")
        data, _dirty = entry.lines[line_address]
        return ReadResult(True, self.base_latency_cycles
                          + self.decompression_cycles, data=data)

    # -- soft-error detection and recovery --------------------------------

    def _recover(self, entry: _Entry, line_address: int,
                 during: str) -> ReadResult:
        """A poisoned line was touched: detect, recover per policy."""
        policy = settings.current().soft_error_policy
        bit = entry.poisoned[line_address]
        self.stats.add("soft_errors_detected")
        self.stats.add("decompressions")
        self.stats.add("decompressed_lines")
        if policy == "failstop":
            raise PoisonedLineError(
                self.name, line_address,
                f"superblock {entry.superblock} size class "
                f"{entry.blocks}", bit=bit)
        if policy == "raw":
            self._raw_fallback.add(line_address)
            self.stats.add("raw_fallbacks")
        _data, dirty = entry.lines.pop(line_address)
        del entry.poisoned[line_address]
        self.stats.add("soft_error_recoveries")
        if dirty:
            self.stats.add("soft_error_data_loss")
        channel = obs_trace.RESILIENCE
        if channel is not None:
            channel.emit("recovery", cache=self.name, line=line_address,
                         policy=policy, during=during, dirty=dirty,
                         bit=bit)
        return ReadResult(False, self.base_latency_cycles
                          + self.decompression_cycles)

    def fill(self, address: int, data: bytes) -> FillResult:
        self.stats.add("fills")
        return self._insert(address, check_line(data), dirty=False)

    def writeback(self, address: int, data: bytes) -> FillResult:
        self.stats.add("writebacks_in")
        return self._insert(address, check_line(data), dirty=True)

    def contains(self, address: int) -> bool:
        return self._locate(address // self.geometry.line_size) is not None

    def compression_ratio(self) -> float:
        resident = sum(len(entry.lines) for way in self._ways
                       for entry in way)
        return resident / self.geometry.n_lines

    # -- insertion ------------------------------------------------------------

    def _insert(self, address: int, data: bytes, dirty: bool) -> FillResult:
        result = FillResult()
        line_address = address // self.geometry.line_size
        existing = self._locate(line_address)
        if existing is not None:
            # In-place update only if the new size still fits the class;
            # otherwise the line migrates (old copy invalidated).
            entry, _ = existing
            was_dirty = entry.lines[line_address][1]
            dirty = dirty or was_dirty
            del entry.lines[line_address]
            entry.poisoned.pop(line_address, None)
        size = self.compressor.compress(data)
        self.stats.add("compressions")
        if self._verify:
            res_verify.verify_intraline_roundtrip(self.compressor, data,
                                                  self.name)
        blocks = size_class(size.size_bytes)
        if self._raw_fallback and line_address in self._raw_fallback:
            blocks = 1  # stored uncompressed: one line per 64B entry
        superblock = line_address // SUPERBLOCK_LINES
        target = self._find_target(superblock, blocks, result)
        target.superblock = superblock
        target.blocks = blocks
        target.lines[line_address] = (data, dirty)
        target.last_use = self._tick()
        if self._injector is not None and blocks > 1:
            # blocks == 1 entries are stored raw (assumed ECC-protected)
            flip = self._injector.flip_for(size.size_bits)
            if flip is not None:
                target.poisoned[line_address] = flip
                self.stats.add("soft_errors_injected")
                res_channel = obs_trace.RESILIENCE
                if res_channel is not None:
                    res_channel.emit("soft_error", cache=self.name,
                                     line=line_address, bit=flip,
                                     bits=size.size_bits)
        channel = obs_trace.LLC
        if channel is not None:
            channel.emit("insert", cache=self.name, dirty=dirty,
                         bits=size.size_bits, size_class=blocks)
        return result

    def _find_target(self, superblock: int, blocks: int,
                     result: FillResult) -> _Entry:
        candidates = [self._ways[way][self._index(way, superblock, blocks)]
                      for way in range(self.n_ways)]
        # 1. an entry already holding this (superblock, class) with room
        for entry in candidates:
            if (entry.valid and entry.superblock == superblock
                    and entry.blocks == blocks
                    and len(entry.lines) < blocks):
                return entry
        # 2. any empty entry
        for entry in candidates:
            if not entry.valid:
                return entry
        # 3. evict the least-recently-used candidate entry wholesale
        victim = min(candidates, key=lambda e: e.last_use)
        self._evict(victim, result)
        return victim

    def _evict(self, entry: _Entry, result: FillResult) -> None:
        channel = obs_trace.LLC
        for line_address, (data, dirty) in entry.lines.items():
            self.stats.add("evictions")
            if channel is not None:
                channel.emit("evict", cache=self.name,
                             reason="skew_conflict", dirty=dirty,
                             size_class=entry.blocks)
            if dirty:
                if line_address in entry.poisoned:
                    # Dirty victim cannot be decompressed for write-back.
                    policy = settings.current().soft_error_policy
                    self.stats.add("soft_errors_detected")
                    if policy == "failstop":
                        raise PoisonedLineError(
                            self.name, line_address, "dirty eviction",
                            bit=entry.poisoned[line_address])
                    self.stats.add("soft_error_data_loss")
                    res_channel = obs_trace.RESILIENCE
                    if res_channel is not None:
                        res_channel.emit(
                            "recovery", cache=self.name,
                            line=line_address, policy=policy,
                            during="evict", dirty=True,
                            bit=entry.poisoned[line_address])
                    continue
                self.stats.add("dirty_evictions")
                self.stats.add("decompressions")
                self.stats.add("decompressed_lines")
                result.writebacks.append(
                    (line_address * self.geometry.line_size, data))
        entry.clear()
