"""``repro.obs`` — observability: event tracing and engine profiling.

Off by default (``REPRO_OBS=0``) so the simulator pays nothing and stays
bit-identical when unobserved:

- :mod:`repro.obs.trace` — per-category JSONL event tracing (``llc``,
  ``compression``, ``mem``, ``run``, ``engine``, ``resilience``),
  summarised by ``python -m repro obs <trace>``;
- :mod:`repro.obs.profiling` — worker utilization / queue-wait / peak
  RSS for the parallel experiment engine.

:mod:`repro.obs.reservoir` is the always-on exception: its bounded
:class:`~repro.obs.reservoir.MissSeries` backs ``RunMetrics`` miss
streams regardless of ``REPRO_OBS`` because it is a memory-safety fix,
not an instrument.

The knobs live in :mod:`repro.common.settings`; tests switch tracing on
for a block with::

    from repro.common import settings
    with settings.override(obs=True, obs_trace="/tmp/t.jsonl",
                           obs_categories=frozenset({"llc", "mem"})):
        ...
"""

from repro.obs.reservoir import MissSeries, Reservoir

__all__ = ["MissSeries", "Reservoir"]
