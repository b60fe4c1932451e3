"""Soft errors in compressed cache payloads: injection, detection, recovery.

The injector models bit-flips in the physical arrays that hold
*compressed* data — the interesting case, because one flipped bit can
corrupt every line that decodes through the shared dictionary state
behind it.  Uncompressed copies are assumed ECC-protected and are not
targeted, which is also what makes the ``raw`` fallback policy a real
recovery strategy rather than a coin flip.

Determinism contract: no RNG.  Rate mode uses an error-diffusion
accumulator — every payload adds ``payload_bits * rate``; when the
accumulator crosses 1.0 a flip fires and the accumulator keeps the
remainder — so a run injects ``round(total_bits * rate)`` flips at
reproducible insert positions.  The flipped bit offset is derived from
``sha256(seed:ordinal)``, so changing ``REPRO_SOFT_ERROR_SEED`` moves
the flips without touching how many fire.  ``@N``/``@N:B`` mode poisons
exactly the ``N``-th compressed insert seen by the injector.

Faults are *logical*: the cache records which stored bit of an entry's
payload flipped (``poison_bit``) instead of mutating the bytes, and the
read path treats a poisoned entry as a detected decode failure.  That
keeps injection O(1), makes detection exact (the model stands in for a
checksum/decoder-failure detector), and lets tests assert on the precise
bit reported.

Each cache holds one :class:`SoftErrors` (or ``None`` on a clean run)
and calls it at its three hooks: :meth:`SoftErrors.poison` when a
compressed payload is stored, :meth:`SoftErrors.stored_raw` when sizing
an insert, and :meth:`SoftErrors.detect` wherever a poisoned payload is
decoded.  The recovery policy lives only here, so every scheme and every
detection point handles a flip the same way; the caches keep what is
specific to them (latency, decompression counters, unlinking the line).
"""

from __future__ import annotations

import hashlib
from typing import Optional, Set

from repro.common import settings
from repro.common.errors import PoisonedLineError
from repro.common.stats import StatGroup
from repro.obs import trace as obs_trace


class SoftErrorInjector:
    """Deterministic per-cache bit-flip source.

    Each cache's :class:`SoftErrors` is one, so the insert ordinal
    stream (and therefore ``@N`` targeting) is per cache, not global.
    """

    __slots__ = ("_rate", "_index", "_bit", "_seed", "_acc", "_ordinal",
                 "soft_errors_injected")

    def __init__(self, rate: float, index: Optional[int],
                 bit: Optional[int], seed: int) -> None:
        self._rate = rate
        self._index = index
        self._bit = bit
        self._seed = seed
        self._acc = 0.0
        self._ordinal = 0
        self.soft_errors_injected = 0

    def flip_for(self, payload_bits: int) -> Optional[int]:
        """Bit offset to poison in this insert's payload, or ``None``.

        Must be called exactly once per compressed insert; the call
        advances the ordinal/accumulator state even when no flip fires.
        """
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        if payload_bits <= 0:
            return None
        if self._index is not None:
            if ordinal != self._index:
                return None
            bit = self._bit
            if bit is None:
                bit = self._derive_bit(ordinal, payload_bits)
            self.soft_errors_injected += 1
            return bit % payload_bits
        self._acc += payload_bits * self._rate
        if self._acc < 1.0:
            return None
        self._acc -= 1.0
        self.soft_errors_injected += 1
        return self._derive_bit(ordinal, payload_bits)

    def _derive_bit(self, ordinal: int, payload_bits: int) -> int:
        digest = hashlib.sha256(
            f"{self._seed}:{ordinal}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % payload_bits


class SoftErrors(SoftErrorInjector):
    """One cache's soft-error model: injector, policy and raw-fallback set.

    The policy (``REPRO_SOFT_ERROR_POLICY``) is read once, at
    construction:

    - ``refetch`` — the cache drops the poisoned copy; a read reports a
      miss, so the core refetches through the memory controller;
    - ``raw`` — as ``refetch``, and every later insert of that line
      address is stored uncompressed (:meth:`stored_raw`);
    - ``failstop`` — :meth:`detect` raises
      :class:`~repro.common.errors.PoisonedLineError` naming the line.

    Under ``refetch`` and ``raw`` every detection is a recovery, so
    ``soft_error_recoveries == soft_errors_detected``.
    """

    __slots__ = ("cache", "stats", "policy", "raw_lines")

    def __init__(self, cache: str, stats: StatGroup, rate: float,
                 index: Optional[int], bit: Optional[int], seed: int,
                 policy: str) -> None:
        super().__init__(rate, index, bit, seed)
        self.cache = cache
        self.stats = stats
        self.policy = policy
        self.raw_lines: Set[int] = set()

    def poison(self, line_address: int, payload_bits: int,
               **where) -> Optional[int]:
        """Bit flipped in a freshly stored compressed payload, or ``None``.

        Call once per compressed store: it advances the injector even
        when no flip fires.  ``where`` (e.g. ``log=3``) joins the
        ``soft_error`` event.
        """
        flip = self.flip_for(payload_bits)
        if flip is not None:
            self.stats.add("soft_errors_injected")
            channel = obs_trace.RESILIENCE
            if channel is not None:
                channel.emit("soft_error", cache=self.cache,
                             line=line_address, **where, bit=flip,
                             bits=payload_bits)
        return flip

    def stored_raw(self, line_address: int) -> bool:
        """True when the ``raw`` policy forces this line uncompressed."""
        return line_address in self.raw_lines

    def detect(self, line_address: int, bit: int, dirty: bool,
               during: str, location: str) -> None:
        """A poisoned payload was decoded: count it and apply the policy.

        ``during`` is ``"read"``, ``"evict"`` (a dirty eviction) or
        ``"flush"`` (a MORC log flush); ``location`` says where the line
        lived, for the failstop error.  On return the caller drops the
        poisoned copy and writes nothing back: a dirty line's write is
        lost (``soft_error_data_loss``).
        """
        stats = self.stats
        stats.add("soft_errors_detected")
        if self.policy == "failstop":
            raise PoisonedLineError(self.cache, line_address, location,
                                    bit=bit)
        stats.add("soft_error_recoveries")
        if dirty:
            stats.add("soft_error_data_loss")
        if self.policy == "raw":
            self.raw_lines.add(line_address)
            stats.add("raw_fallbacks")
        channel = obs_trace.RESILIENCE
        if channel is not None:
            channel.emit("recovery", cache=self.cache, line=line_address,
                         policy=self.policy, during=during, dirty=dirty,
                         bit=bit)


def soft_errors(cache: str, stats: StatGroup) -> Optional[SoftErrors]:
    """A cache's soft-error model per the current settings, or ``None``.

    ``None`` on a clean run (rate 0 and no ``@N`` index): caches guard
    every hook with ``is not None``, so a clean run makes no call here.
    """
    current = settings.current()
    rate, index, bit = current.soft_errors
    if rate <= 0.0 and index is None:
        return None
    return SoftErrors(cache, stats, rate, index, bit,
                      current.soft_error_seed, current.soft_error_policy)
