"""Cross-model conformance harness.

Executable *golden reference models* — brute-force, dictionary-and-list
implementations of the simulator's caches, channels and metrics written
straight from their definitions — plus a differential driver that replays
shared deterministic access/value streams through the production
implementation and the reference side-by-side, diffing hits, misses,
evictions, latencies and bits at every step.

The references trade every optimisation for obviousness: occupancies are
recomputed by summation, victims by linear scan, FCFS scheduling from the
full event history.  Agreement with them is the correctness floor the
ROADMAP's perf work refactors against.  The codec kernels' references
live in :mod:`repro.conformance.codecs`, and the deterministic cache-line
corpora they are checked on in :mod:`repro.conformance.corpus`.

Entry points: ``repro check [--quick|--deep] [--seed N]`` (CLI) and the
``tests/test_conformance_*.py`` pytest suite (marker ``conformance``).
"""

from repro.conformance.driver import (
    ConformanceReport,
    Divergence,
    run_check,
)
from repro.conformance.streams import STREAM_MIXES, make_stream

__all__ = [
    "ConformanceReport",
    "Divergence",
    "run_check",
    "STREAM_MIXES",
    "make_stream",
]
