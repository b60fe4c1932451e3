"""Every ``REPRO_*`` environment knob, resolved once into :class:`Settings`.

This is the only module that reads the environment.  Three pieces:

- :func:`from_env` parses every knob into a frozen :class:`Settings`,
  raising :class:`~repro.common.errors.ConfigError` on a bad value;
- :func:`current` returns the process's settings, parsed at import;
- :func:`override` swaps them for the duration of a ``with`` block.  It
  is the one runtime setter: tests use it, and experiment workers use
  it to adopt the snapshot their grid was started under.

Each field's metadata names its variable, its default as written in the
environment, what it does, and whether it can change a simulated result.
``repro list`` prints its knob table from that metadata, and the
experiment engine hashes the result-affecting fields
(:meth:`Settings.result_key`) into checkpoint keys.

Only the standard library is imported (``repro.common.errors`` is itself
stdlib-only), since every process pays for this module at start-up.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from typing import (Callable, Dict, FrozenSet, Iterator, List, Mapping,
                    Optional, Tuple)

from repro.common.errors import ConfigError

#: every event category the tracer knows
ALL_CATEGORIES: Tuple[str, ...] = ("llc", "compression", "mem", "run",
                                   "engine", "resilience")

#: what a detected soft error does (``REPRO_SOFT_ERROR_POLICY``)
RECOVERY_POLICIES = ("refetch", "raw", "failstop")

_FALSY = ("", "0", "false", "no", "off")


def _knob(env: str, default: str, text: str, result: bool = False) -> dict:
    return {"env": env, "default": default, "help": text, "result": result}


@dataclass(frozen=True)
class Settings:
    """One immutable snapshot of every knob."""

    obs: bool = field(default=False, metadata=_knob(
        "REPRO_OBS", "0", "enable event tracing"))
    obs_trace: str = field(default="repro_obs.jsonl", metadata=_knob(
        "REPRO_OBS_TRACE", "repro_obs.jsonl", "trace output path"))
    obs_categories: FrozenSet[str] = field(
        default=frozenset(ALL_CATEGORIES), metadata=_knob(
            "REPRO_OBS_CATEGORIES", "all",
            "comma-separated category filter"))
    #: ``None`` = one worker per CPU
    jobs: Optional[int] = field(default=None, metadata=_knob(
        "REPRO_JOBS", "cpu count", "experiment worker processes"))
    scale: float = field(default=1.0, metadata=_knob(
        "REPRO_SCALE", "1", "scale factor for default instruction counts"))
    cell_timeout: float = field(default=0.0, metadata=_knob(
        "REPRO_CELL_TIMEOUT", "0 = off", "per-cell wall-clock timeout "
        "seconds, pool mode"))
    #: ``(rate, index, bit)`` from :func:`parse_soft_errors`
    soft_errors: Tuple[float, Optional[int], Optional[int]] = field(
        default=(0.0, None, None), metadata=_knob(
            "REPRO_SOFT_ERRORS", "0 = off", "soft-error model: flip rate "
            "per stored bit or @index[:bit]", result=True))
    soft_error_policy: str = field(default="refetch", metadata=_knob(
        "REPRO_SOFT_ERROR_POLICY", "refetch", "detected-error recovery: "
        "refetch, raw or failstop", result=True))
    soft_error_seed: int = field(default=0, metadata=_knob(
        "REPRO_SOFT_ERROR_SEED", "0", "seed for deterministic flip "
        "offsets", result=True))
    verify: bool = field(default=False, metadata=_knob(
        "REPRO_VERIFY", "0", "round-trip + invariant self-verification"))

    def result_key(self) -> str:
        """The fields that can change a simulated result, as a stable
        string for checkpoint keys."""
        return repr(tuple(getattr(self, knob.name) for knob in fields(self)
                          if knob.metadata["result"]))

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready values keyed by variable name (run provenance)."""
        return {knob.metadata["env"]: _plain(getattr(self, knob.name))
                for knob in fields(self)}


def _plain(value: object) -> object:
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value


# -- parsing --------------------------------------------------------------


def _flag(raw: Optional[str]) -> bool:
    return (raw or "").strip().lower() not in _FALSY


def _choice(name: str, raw: str, choices: Tuple[str, ...]) -> str:
    value = raw.strip().lower()
    if value not in choices:
        raise ConfigError(f"{name} must be one of {list(choices)}, "
                          f"got {value!r}")
    return value


def _timeout(raw: str) -> float:
    if not raw.strip():
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_CELL_TIMEOUT must be numeric, got {raw!r}")
    if value < 0:
        raise ConfigError(f"REPRO_CELL_TIMEOUT must be >= 0, got {raw!r}")
    return value


def _categories(raw: str) -> FrozenSet[str]:
    names = frozenset(part.strip() for part in raw.split(",")
                      if part.strip())
    unknown = names - frozenset(ALL_CATEGORIES)
    if unknown:
        raise ConfigError(
            f"REPRO_OBS_CATEGORIES has unknown categories "
            f"{sorted(unknown)}; choose from {list(ALL_CATEGORIES)}")
    return names or frozenset(ALL_CATEGORIES)


def _jobs(raw: Optional[str]) -> Optional[int]:
    if raw is None:
        return None
    try:
        jobs = int(raw)
    except ValueError:
        raise ConfigError(f"REPRO_JOBS must be an integer, got {raw!r}")
    if jobs < 1:
        raise ConfigError(f"REPRO_JOBS must be >= 1, got {jobs}")
    return jobs


def _scale(raw: str) -> float:
    try:
        scale = float(raw)
    except ValueError:
        raise ConfigError(f"REPRO_SCALE must be numeric, got {raw!r}")
    if scale <= 0:
        raise ConfigError(f"REPRO_SCALE must be positive, got {raw!r}")
    return scale


def _seed(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_SOFT_ERROR_SEED must be an integer, got {raw!r}")


def parse_soft_errors(
        raw: Optional[str],
) -> Tuple[float, Optional[int], Optional[int]]:
    """Parse a ``REPRO_SOFT_ERRORS`` spec into (rate, index, bit).

    - a float rate like ``1e-4`` — expected bit-flips per stored
      compressed payload *bit*;
    - ``@N`` — poison exactly the ``N``-th compressed insert (0-based,
      counted per cache);
    - ``@N:B`` — same, flipping stored bit ``B`` of that payload.
    """
    if raw is None:
        return 0.0, None, None
    raw = str(raw).strip()
    if raw.lower() in _FALSY:
        return 0.0, None, None
    if raw.startswith("@"):
        index_part, sep, bit_part = raw[1:].partition(":")
        try:
            index = int(index_part)
            if sep and not bit_part:
                raise ValueError("empty bit field")
            bit = int(bit_part) if bit_part else None
        except ValueError:
            raise ConfigError(
                f"REPRO_SOFT_ERRORS index spec must be @N or @N:B, "
                f"got {raw!r}")
        if index < 0 or (bit is not None and bit < 0):
            raise ConfigError(
                f"REPRO_SOFT_ERRORS index/bit must be >= 0, got {raw!r}")
        return 0.0, index, bit
    try:
        rate = float(raw)
    except ValueError:
        raise ConfigError(
            f"REPRO_SOFT_ERRORS must be a flip rate or @index[:bit], "
            f"got {raw!r}")
    if rate < 0.0 or rate > 1.0:
        raise ConfigError(
            f"REPRO_SOFT_ERRORS rate must be in [0, 1], got {rate}")
    return rate, None, None


def from_env(environ: Optional[Mapping[str, str]] = None) -> Settings:
    """Parse every knob from ``environ`` (default: the process's)."""
    env = os.environ if environ is None else environ
    return Settings(
        obs=_flag(env.get("REPRO_OBS")),
        obs_trace=env.get("REPRO_OBS_TRACE", "repro_obs.jsonl"),
        obs_categories=_categories(env.get("REPRO_OBS_CATEGORIES", "")),
        jobs=_jobs(env.get("REPRO_JOBS")),
        scale=_scale(env.get("REPRO_SCALE", "1")),
        cell_timeout=_timeout(env.get("REPRO_CELL_TIMEOUT", "")),
        soft_errors=parse_soft_errors(env.get("REPRO_SOFT_ERRORS")),
        soft_error_policy=_choice(
            "REPRO_SOFT_ERROR_POLICY",
            env.get("REPRO_SOFT_ERROR_POLICY", "refetch"),
            RECOVERY_POLICIES),
        soft_error_seed=_seed(env.get("REPRO_SOFT_ERROR_SEED", "0")),
        verify=_flag(env.get("REPRO_VERIFY")))


# -- the process's settings -------------------------------------------------

_current: Settings = from_env()
_listeners: List[Callable[[], None]] = []


def current() -> Settings:
    """The settings this process runs under."""
    return _current


def on_change(callback: Callable[[], None]) -> None:
    """Call ``callback`` after every change of :func:`current` (the
    tracer rebinds its category channels this way)."""
    _listeners.append(callback)


def _install(settings: Settings) -> None:
    global _current
    if settings != _current:
        _current = settings
        for callback in _listeners:
            callback()


@contextmanager
def override(base: Optional[Settings] = None,
             **changes: object) -> Iterator[Settings]:
    """Run a block under ``base`` (default: the current settings) with
    ``changes`` applied, restoring the previous settings afterwards.

    Installing settings equal to the current ones is free, so a worker
    can wrap every cell in its grid's snapshot.  Caches capture their
    soft-error injector at construction: build them inside the block.
    """
    previous = _current
    updated = replace(base or previous, **changes)
    _install(updated)
    try:
        yield updated
    finally:
        _install(previous)
