"""Set-associative LLC models: uncompressed baseline and the three
compressed prior-work schemes (Adaptive, Decoupled, SC2).

All three compressed baselines share the same skeleton (paper §6): a
conventional set layout whose data store is divided into 8-byte segments,
with the tag array over-provisioned to hold more (compressed) lines than
the uncompressed capacity:

- **Adaptive** (Alameldeen & Wood): 2x tags, compressed lines occupy
  *contiguous* segments — internal fragmentation is the ceil-to-segment
  rounding; expansions on write-back force re-fitting (the defragmentation
  cost the paper discusses).
- **Decoupled** (Sardashti & Wood): 4x tags (super-tags), segments are
  individually pointed-to so no contiguity is needed; same segment
  rounding, no defragmentation.
- **SC2** (Arelakis & Stenström): Adaptive-like layout with 4x tags, but
  lines are Huffman-coded against a shared sampled dictionary
  (:class:`repro.compression.sc2dict.Sc2Dictionary`).

The paper evaluates all of them with perfect LRU and a fixed +4-cycle
decompression latency on loads; both choices are reproduced here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.common.config import CacheGeometry
from repro.common import settings
from repro.common.errors import PoisonedLineError
from repro.common.stats import StatGroup
from repro.common.words import check_line
from repro.obs import trace as obs_trace
from repro.resilience import verify as res_verify
from repro.resilience.faults import make_injector
from repro.cache.base import FillResult, LLCInterface, ReadResult
from repro.cache.replacement import LruPolicy
from repro.compression.base import IntraLineCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.sc2dict import Sc2Dictionary

SEGMENT_BYTES = 8


@dataclass
class _Line:
    address: int
    data: bytes
    dirty: bool
    segments: int
    #: stored bit flipped by an injected soft error, or None when clean
    poison_bit: Optional[int] = None


class _Set:
    """One cache set: a tag-limited, segment-budgeted pool of lines."""

    __slots__ = ("lines", "lru", "used_segments")

    def __init__(self) -> None:
        self.lines: Dict[int, _Line] = {}
        self.lru = LruPolicy()
        self.used_segments = 0


class SetAssociativeCache(LLCInterface):
    """Generic segmented, tag-over-provisioned, LRU set cache."""

    name = "SetAssociative"

    def __init__(self, geometry: CacheGeometry, tag_factor: int = 1,
                 compressor: Optional[object] = None,
                 decompression_cycles: int = 0,
                 base_latency_cycles: int = 14,
                 name: Optional[str] = None) -> None:
        self.geometry = geometry
        self.tags_per_set = geometry.ways * tag_factor
        self.segments_per_set = (geometry.ways * geometry.line_size
                                 // SEGMENT_BYTES)
        self.compressor = compressor
        self.decompression_cycles = decompression_cycles
        self.base_latency_cycles = base_latency_cycles
        if name:
            self.name = name
        self._sets = [_Set() for _ in range(geometry.n_sets)]
        self.stats = StatGroup(self.name)
        # Resilience hooks (repro/resilience): inert on a clean run.
        self._injector = make_injector()
        self._raw_fallback: set = set()
        self._verify = res_verify.verification_enabled()
        self._full_segments = geometry.line_size // SEGMENT_BYTES

    # -- helpers ------------------------------------------------------------

    def _set_for(self, address: int) -> _Set:
        return self._sets[self.geometry.set_index(address)]

    def _line_segments(self, data: bytes) -> int:
        if self.compressor is None:
            return self.geometry.line_size // SEGMENT_BYTES
        size = self.compressor.compress(data)
        self.stats.add("compressions")
        self.stats.add("compressed_bits", size.size_bits)
        return min(size.segments(SEGMENT_BYTES),
                   self.geometry.line_size // SEGMENT_BYTES)

    # -- LLCInterface ---------------------------------------------------------

    def read(self, address: int) -> ReadResult:
        cache_set = self._set_for(address)
        line_address = address // self.geometry.line_size
        line = cache_set.lines.get(line_address)
        if line is None:
            self.stats.add("read_misses")
            return ReadResult(False, self.base_latency_cycles)
        if line.poison_bit is not None:
            return self._recover(cache_set, line, during="read")
        cache_set.lru.touch(line_address)
        self.stats.add("read_hits")
        latency = self.base_latency_cycles
        if self.compressor is not None:
            latency += self.decompression_cycles
            self.stats.add("decompressions")
            self.stats.add("decompressed_lines")
        return ReadResult(True, latency, data=line.data)

    def fill(self, address: int, data: bytes) -> FillResult:
        self.stats.add("fills")
        return self._insert(address, check_line(data), dirty=False)

    def writeback(self, address: int, data: bytes) -> FillResult:
        self.stats.add("writebacks_in")
        data = check_line(data)
        cache_set = self._set_for(address)
        line_address = address // self.geometry.line_size
        line = cache_set.lines.get(line_address)
        if line is None:
            return self._insert(address, data, dirty=True)
        # In-place update: re-fit if the compressed size grew (Adaptive's
        # expansion/defragmentation case).
        new_segments = self._line_segments(data)
        if self._raw_fallback and line_address in self._raw_fallback:
            new_segments = self._full_segments
        if self._verify and self.compressor is not None:
            res_verify.verify_intraline_roundtrip(self.compressor, data,
                                                  self.name)
        result = FillResult()
        if new_segments > line.segments:
            self.stats.add("expansions")
            growth = new_segments - line.segments
            self._make_room(cache_set, growth, 0, result,
                            protect=line_address, reason="expansion")
        cache_set.used_segments += new_segments - line.segments
        line.segments = new_segments
        line.data = data
        line.dirty = True
        line.poison_bit = None  # the rewrite stores fresh bits
        cache_set.lru.touch(line_address)
        self._maybe_poison(line)
        return result

    def contains(self, address: int) -> bool:
        line_address = address // self.geometry.line_size
        return line_address in self._set_for(address).lines

    def compression_ratio(self) -> float:
        resident = sum(len(s.lines) for s in self._sets)
        return resident / self.geometry.n_lines

    # -- soft-error detection and recovery ------------------------------------

    def _recover(self, cache_set: _Set, line: _Line,
                 during: str) -> ReadResult:
        """A poisoned line was touched: detect, recover per policy."""
        policy = settings.current().soft_error_policy
        self.stats.add("soft_errors_detected")
        latency = self.base_latency_cycles + self.decompression_cycles
        if self.compressor is not None:
            # The decoder ran over the stored payload before failing.
            self.stats.add("decompressions")
            self.stats.add("decompressed_lines")
        if policy == "failstop":
            raise PoisonedLineError(
                self.name, line.address,
                f"set {self.geometry.set_index(line.address * self.geometry.line_size)}",
                bit=line.poison_bit)
        if policy == "raw":
            self._raw_fallback.add(line.address)
            self.stats.add("raw_fallbacks")
        bit = line.poison_bit
        dirty = line.dirty
        cache_set.lines.pop(line.address)
        cache_set.lru.remove(line.address)
        cache_set.used_segments -= line.segments
        self.stats.add("soft_error_recoveries")
        if dirty:
            self.stats.add("soft_error_data_loss")
        channel = obs_trace.RESILIENCE
        if channel is not None:
            channel.emit("recovery", cache=self.name, line=line.address,
                         policy=policy, during=during, dirty=dirty,
                         bit=bit)
        return ReadResult(False, latency)

    def _maybe_poison(self, line: _Line) -> None:
        """Run the injector over one freshly stored compressed payload."""
        if self._injector is None or self.compressor is None:
            return
        if line.segments >= self._full_segments:
            return  # stored raw: assumed ECC-protected
        flip = self._injector.flip_for(line.segments * SEGMENT_BYTES * 8)
        if flip is None:
            return
        line.poison_bit = flip
        self.stats.add("soft_errors_injected")
        channel = obs_trace.RESILIENCE
        if channel is not None:
            channel.emit("soft_error", cache=self.name, line=line.address,
                         bit=flip,
                         bits=line.segments * SEGMENT_BYTES * 8)

    # -- internals ------------------------------------------------------------

    def _insert(self, address: int, data: bytes, dirty: bool) -> FillResult:
        cache_set = self._set_for(address)
        line_address = address // self.geometry.line_size
        existing = cache_set.lines.pop(line_address, None)
        if existing is not None:
            # Refilling a resident line: release its old footprint first.
            cache_set.lru.remove(line_address)
            cache_set.used_segments -= existing.segments
            dirty = dirty or existing.dirty
        segments = self._line_segments(data)
        if self._raw_fallback and line_address in self._raw_fallback:
            segments = self._full_segments
        if self._verify and self.compressor is not None:
            res_verify.verify_intraline_roundtrip(self.compressor, data,
                                                  self.name)
        result = FillResult()
        need_tags = 0 if len(cache_set.lines) < self.tags_per_set else 1
        self._make_room(cache_set, segments, need_tags, result)
        new_line = _Line(line_address, data, dirty, segments)
        cache_set.lines[line_address] = new_line
        cache_set.lru.insert(line_address)
        cache_set.used_segments += segments
        self._maybe_poison(new_line)
        channel = obs_trace.LLC
        if channel is not None:
            channel.emit("insert", cache=self.name, dirty=dirty,
                         bits=segments * SEGMENT_BYTES * 8)
        return result

    def _make_room(self, cache_set: _Set, segments_needed: int,
                   tags_needed: int, result: FillResult,
                   protect: Optional[int] = None,
                   reason: str = "capacity") -> None:
        """Evict LRU lines until the set can absorb the new line."""
        while ((cache_set.used_segments + segments_needed
                > self.segments_per_set)
               or len(cache_set.lines) + tags_needed > self.tags_per_set):
            victim_key = self._pick_victim(cache_set, protect)
            if victim_key is None:
                break
            self._evict(cache_set, victim_key, result, reason=reason)
            if tags_needed:
                tags_needed = (0 if len(cache_set.lines) < self.tags_per_set
                               else 1)

    @staticmethod
    def _pick_victim(cache_set: _Set, protect: Optional[int]) -> Optional[int]:
        for key in cache_set.lru._order:  # LRU order, oldest first
            if key != protect:
                return key
        return None

    def _evict(self, cache_set: _Set, line_address: int,
               result: FillResult, reason: str = "capacity") -> None:
        line = cache_set.lines.pop(line_address)
        cache_set.lru.remove(line_address)
        cache_set.used_segments -= line.segments
        self.stats.add("evictions")
        channel = obs_trace.LLC
        if channel is not None:
            channel.emit("evict", cache=self.name, reason=reason,
                         dirty=line.dirty,
                         bits=line.segments * SEGMENT_BYTES * 8)
        if line.dirty:
            if line.poison_bit is not None:
                # The dirty victim cannot be decompressed for write-back:
                # detection fires here, and the write is lost (or the
                # run stops under failstop).
                policy = settings.current().soft_error_policy
                self.stats.add("soft_errors_detected")
                if policy == "failstop":
                    raise PoisonedLineError(
                        self.name, line_address, "dirty eviction",
                        bit=line.poison_bit)
                self.stats.add("soft_error_data_loss")
                channel = obs_trace.RESILIENCE
                if channel is not None:
                    channel.emit("recovery", cache=self.name,
                                 line=line_address, policy=policy,
                                 during="evict", dirty=True,
                                 bit=line.poison_bit)
                return
            self.stats.add("dirty_evictions")
            if self.compressor is not None:
                self.stats.add("decompressions")
                self.stats.add("decompressed_lines")
            result.writebacks.append(
                (line_address * self.geometry.line_size, line.data))


class UncompressedCache(SetAssociativeCache):
    """The paper's baseline: plain 8-way LLC, no compression."""

    def __init__(self, geometry: CacheGeometry,
                 base_latency_cycles: int = 14) -> None:
        super().__init__(geometry, tag_factor=1, compressor=None,
                         base_latency_cycles=base_latency_cycles,
                         name="Uncompressed")


class AdaptiveCache(SetAssociativeCache):
    """Adaptive cache compression: 2x tags, contiguous 8B segments, C-Pack.

    What makes the scheme *adaptive* (Alameldeen & Wood §3): a global
    saturating counter predicts whether compression currently pays.  On
    every hit the cache classifies the access — a hit on a line that
    only fits because of compression (its LRU stack depth exceeds the
    uncompressed associativity) *benefits* by an avoided memory access;
    a hit on a compressed line within the uncompressed top-``ways`` is
    *penalised* by the decompression latency.  The counter biases
    whether new fills are stored compressed.
    """

    #: counter saturation bound; benefit adds the (large) memory penalty,
    #: a penalised hit subtracts the (small) decompression latency — the
    #: same asymmetric weighting as the original design.
    COUNTER_MAX = 1 << 20

    def __init__(self, geometry: CacheGeometry,
                 base_latency_cycles: int = 14,
                 decompression_cycles: int = 4,
                 memory_penalty_cycles: int = 400) -> None:
        super().__init__(geometry, tag_factor=2,
                         compressor=CPackCompressor(),
                         decompression_cycles=decompression_cycles,
                         base_latency_cycles=base_latency_cycles,
                         name="Adaptive")
        self.memory_penalty_cycles = memory_penalty_cycles
        self._predictor = 0  # positive -> compress

    def _classify_hit(self, cache_set: _Set, line_address: int) -> None:
        """Update the predictor from this hit's LRU stack depth."""
        depth = list(cache_set.lru._order).index(line_address)
        stack_position = len(cache_set.lines) - depth  # 1 = MRU
        line = cache_set.lines[line_address]
        compressed = line.segments < (self.geometry.line_size
                                      // SEGMENT_BYTES)
        if stack_position > self.geometry.ways:
            # Only resident because compression stretched the set.
            self._predictor = min(self.COUNTER_MAX, self._predictor
                                  + self.memory_penalty_cycles)
            self.stats.add("predictor_benefits")
        elif compressed:
            self._predictor = max(-self.COUNTER_MAX, self._predictor
                                  - self.decompression_cycles)
            self.stats.add("predictor_penalties")

    @property
    def compression_predicted_beneficial(self) -> bool:
        return self._predictor >= 0

    def read(self, address: int) -> ReadResult:
        cache_set = self._set_for(address)
        line_address = address // self.geometry.line_size
        if line_address in cache_set.lines:
            self._classify_hit(cache_set, line_address)
        return super().read(address)

    def _line_segments(self, data: bytes) -> int:
        if not self.compression_predicted_beneficial:
            self.stats.add("uncompressed_fills")
            return self.geometry.line_size // SEGMENT_BYTES
        return super()._line_segments(data)


class DecoupledCache(SetAssociativeCache):
    """Decoupled compressed cache: 4x super-tags, decoupled segments, C-Pack."""

    def __init__(self, geometry: CacheGeometry,
                 base_latency_cycles: int = 14,
                 decompression_cycles: int = 4) -> None:
        super().__init__(geometry, tag_factor=4,
                         compressor=CPackCompressor(),
                         decompression_cycles=decompression_cycles,
                         base_latency_cycles=base_latency_cycles,
                         name="Decoupled")


class _Sc2LineCompressor(IntraLineCompressor):
    """Adapter: SC2's shared dictionary as a per-line compressor.

    Every compressed line first feeds the value sampler, mirroring SC2
    training on fill traffic.
    """

    name = "sc2"

    def __init__(self, dictionary: Sc2Dictionary) -> None:
        self.dictionary = dictionary

    def compress(self, line: bytes):
        self.dictionary.observe(line)
        return self.dictionary.compress(line)

    def compress_tokens(self, line: bytes):
        raise NotImplementedError("SC2 sizes lines; tokens are not modelled")

    def decompress_tokens(self, tokens) -> bytes:
        raise NotImplementedError("SC2 sizes lines; tokens are not modelled")


class Sc2Cache(SetAssociativeCache):
    """SC2: 4x tags + system-wide sampled Huffman dictionary."""

    def __init__(self, geometry: CacheGeometry,
                 dictionary: Optional[Sc2Dictionary] = None,
                 base_latency_cycles: int = 14,
                 decompression_cycles: int = 4) -> None:
        # SC2 retrains its dictionary through software procedures over
        # time (paper §6); periodic retraining keeps it tracking phase
        # changes at the cost of staleness between retrainings.
        self.dictionary = dictionary or Sc2Dictionary(
            retrain_interval=4096)
        super().__init__(geometry, tag_factor=4,
                         compressor=_Sc2LineCompressor(self.dictionary),
                         decompression_cycles=decompression_cycles,
                         base_latency_cycles=base_latency_cycles,
                         name="SC2")
