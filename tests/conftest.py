"""Shared pytest configuration for the test suite."""

import contextlib
import os

import pytest
from hypothesis import HealthCheck, settings

from repro.common import settings as repro_settings

# Simulation-backed property tests legitimately take longer than
# hypothesis' default deadline; register a uniform profile.
settings.register_profile(
    "repro",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


class ReproEnv:
    """Sets environment variables and re-resolves the settings from them,
    so a test drives ``REPRO_*`` knobs through the real parser."""

    def __init__(self, monkeypatch, stack: contextlib.ExitStack) -> None:
        self._monkeypatch = monkeypatch
        self._stack = stack

    def set(self, **env) -> None:
        """Set each variable (``None`` unsets it), then install
        ``from_env()`` until the test ends."""
        for name, value in env.items():
            if value is None:
                self._monkeypatch.delenv(name, raising=False)
            else:
                self._monkeypatch.setenv(name, value)
        self._stack.enter_context(
            repro_settings.override(repro_settings.from_env()))


@pytest.fixture
def repro_env(monkeypatch):
    """A :class:`ReproEnv` starting from no ``REPRO_*`` variables; the
    settings and environment are restored at teardown."""
    with contextlib.ExitStack() as stack:
        env = ReproEnv(monkeypatch, stack)
        env.set(**{name: None for name in os.environ
                   if name.startswith("REPRO_")})
        yield env
