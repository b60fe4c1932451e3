"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError` so
callers can catch library failures without catching unrelated bugs.

:class:`CellError` is not an exception: it is the structured *record* of
a failed experiment-engine cell (see
:mod:`repro.experiments.parallel`), returned in the cell's result slot
when the engine runs with ``on_error="skip"`` so one
poisoned cell cannot throw away the rest of a grid.
"""

from dataclasses import dataclass


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration value was supplied."""


class CompressionError(ReproError):
    """A compression or decompression stream was malformed."""


class CorruptBitstreamError(CompressionError):
    """A compressed bitstream failed to decode.

    Raised by the hardened decoders (LBE, C-Pack, FPC, SC2/Huffman) and
    by :class:`repro.common.bitio.BitReader` instead of a bare
    ``IndexError`` or a garbage decode.  Carries where and why:

    - ``codec`` — which decoder rejected the stream (``None`` for a raw
      bit-level underflow);
    - ``offset`` — bit position at which decoding failed;
    - ``reason`` — human-readable cause (underflow, unrecognised prefix,
      dangling dictionary pointer, ...).
    """

    def __init__(self, reason: str, codec: "str | None" = None,
                 offset: "int | None" = None) -> None:
        self.reason = reason
        self.codec = codec
        self.offset = offset
        where = f" [codec={codec}]" if codec else ""
        at = f" at bit {offset}" if offset is not None else ""
        super().__init__(f"corrupt bitstream{where}{at}: {reason}")


class CacheError(ReproError):
    """A cache operation violated an internal invariant."""


class PoisonedLineError(CacheError):
    """A soft error was detected under the ``failstop`` recovery policy.

    Names the poisoned line so the failure is actionable: which cache,
    which line address, where it lived, and which stored bit flipped.
    """

    def __init__(self, cache: str, line_address: int, location: str,
                 bit: "int | None" = None) -> None:
        self.cache = cache
        self.line_address = line_address
        self.location = location
        self.bit = bit
        flipped = f", flipped bit {bit}" if bit is not None else ""
        super().__init__(
            f"{cache}: soft error detected in line 0x{line_address:x} "
            f"({location}{flipped}); policy=failstop")


class VerificationError(CacheError):
    """The self-verification layer found a broken invariant or a line
    that failed its decompress-and-compare round-trip (``REPRO_VERIFY``).

    ``violations`` lists every failed check."""

    def __init__(self, subject: str, violations: "list[str]") -> None:
        self.subject = subject
        self.violations = list(violations)
        detail = "; ".join(self.violations) or "unknown violation"
        super().__init__(f"{subject}: verification failed: {detail}")


class TraceError(ReproError):
    """A workload trace was malformed or exhausted unexpectedly."""


@dataclass(frozen=True)
class CellError:
    """Structured record of one failed experiment-engine cell.

    Occupies the failed cell's slot in the grid's result list, so
    callers can tell exactly which (benchmark, scheme) cells failed
    while every other cell's result is intact.  ``kind`` is ``"error"``
    for a captured worker exception and ``"timeout"`` when the cell
    exceeded ``REPRO_CELL_TIMEOUT``.
    """

    label: str
    exception: str
    traceback: str
    kind: str = "error"

    def summary(self) -> str:
        return f"{self.label}: {self.kind}: {self.exception}"


class CellFailedError(ReproError):
    """A grid cell failed and the engine ran with ``on_error="raise"``.

    Carries the :class:`CellError` record (including the worker-side
    traceback) as ``.cell``.
    """

    def __init__(self, cell: CellError) -> None:
        super().__init__(cell.summary() + "\n" + cell.traceback)
        self.cell = cell
