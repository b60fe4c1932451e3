"""``repro.resilience`` — soft-error injection, recovery, verification.

Two modules, both inert by default so a clean run stays bit-identical:

- :mod:`repro.resilience.faults` — the one soft-error model every LLC
  shares.  Each cache holds a :class:`SoftErrors` (``None`` on a clean
  run) that injects deterministic bit-flips into compressed payloads
  (``REPRO_SOFT_ERRORS=<rate|@index[:bit]>``) and applies the recovery
  policy (``REPRO_SOFT_ERROR_POLICY=refetch|raw|failstop``) wherever a
  cache decodes a poisoned payload.  Refetch cost is carried by the
  ordinary miss path through the memory controller and energy model:

  - ``refetch`` — drop the poisoned copy and report a miss, so the
    core refetches through the memory controller;
  - ``raw`` — refetch, plus all future inserts of that line address
    fall back to uncompressed storage;
  - ``failstop`` — raise :class:`repro.common.errors.PoisonedLineError`
    naming the poisoned line;

- :mod:`repro.resilience.verify` — opt-in round-trip verification and
  cache invariant audits (``REPRO_VERIFY=1``).

Events (``soft_error``/``recovery``/``verify_fail``) flow through the
``resilience`` category of :mod:`repro.obs.trace` and surface in
``python -m repro obs``.  The knobs live in
:mod:`repro.common.settings`; caches build their :class:`SoftErrors` at
construction, so a ``settings.override(...)`` block must enclose the
cache under test.
"""

from repro.resilience.faults import SoftErrorInjector, SoftErrors, soft_errors
from repro.resilience.verify import audit, verification_enabled

__all__ = [
    "SoftErrorInjector", "SoftErrors", "audit", "soft_errors",
    "verification_enabled",
]
