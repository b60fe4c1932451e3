"""Performance subsystem: test corpora and timing capture.

The simulator's throughput is part of the reproduction's fidelity story
(the paper sweeps ~26 benchmarks x 4 schemes x several configs); this
package holds what measures it without changing a single output bit:

- :mod:`repro.perf.corpus` — deterministic cache-line corpora spanning
  the data archetypes (zero-, duplicate-, pointer-, text-, random-heavy)
  used by the golden tests and ``benchmarks/bench_perf.py``;
- :mod:`repro.perf.timing` — experiment/cell timing capture feeding the
  ``BENCH_perf.json`` trajectory.

The straight-line kernels the optimised codecs are checked against live
with the other golden models, in :mod:`repro.conformance.codecs`.
"""

from repro.perf.timing import (
    ExperimentTiming,
    clear_timings,
    timed_experiment,
    timings,
)

__all__ = [
    "ExperimentTiming",
    "clear_timings",
    "timed_experiment",
    "timings",
]
