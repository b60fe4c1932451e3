"""Grid checkpoint journal: crash-safe persistence of completed cells.

The parallel engine (:mod:`repro.experiments.parallel`) journals every
finished cell — success or structured failure — to a checkpoint file so
a killed or crashed sweep can resume with only the missing/failed cells
re-run.  The format is a sequence of pickle frames appended to one
file::

    (key, {"status": "ok"|"error", "label": ..., "result": ...,
           "timing": CellTiming})

``key`` is a stable hash of the cell's position, label, spec repr,
worker function and the result-affecting settings (:func:`spec_key`),
so a resume run matches journal entries to grid cells even across
processes.  A cell is replayed only into a grid that would compute the
same result for it: change the spec, the worker or a setting that moves
simulated bits (the soft-error model) and the cell re-runs.  Settings
that cannot change a result (worker count, tracing, verification, the
engine's fault/retry/timeout knobs) are left out of the key on purpose,
so a sweep crashed by injected faults still resumes clean.  What the key
cannot see — the simulator's own code — is on the user: a checkpoint
resumed after the code changed replays the old code's cells.

Appends are flushed and fsynced per frame; a run killed mid-append
leaves at most one torn trailing frame, which :meth:`GridCheckpoint.load`
drops (like the JSONL trace reader tolerates a torn final line).

Pickle rather than JSONL because cell results are arbitrary result
dataclasses (:class:`~repro.sim.system.SingleRunResult` and friends);
the checkpoint is a local scratch artefact consumed only by the process
that wrote it or its resume successor, not an interchange format.
"""

from __future__ import annotations

import hashlib
import os
import pickle
from typing import Any, BinaryIO, Dict, Optional

#: bumped whenever the journal frame layout or the key's inputs change,
#: so an old checkpoint can never be misread as a new one (it hashes
#: into keys)
SCHEMA_VERSION = 2


def spec_key(index: int, label: str, item: Any, worker: str = "",
             settings: str = "") -> str:
    """Stable identity of one grid cell.

    Hashes the cell's grid position, timing label, the spec's repr
    (specs are frozen dataclasses of primitives, so their reprs are
    deterministic across processes and runs), the worker function's
    identity, so a checkpoint for one grid function is never replayed
    into another that happens to share items, and ``settings`` — the
    grid's :meth:`~repro.common.settings.Settings.result_key`.
    """
    blob = f"{SCHEMA_VERSION}|{worker}|{settings}|{index}|{label}|{item!r}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:20]


class GridCheckpoint:
    """Append-only journal of finished cells, keyed by :func:`spec_key`."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle: Optional[BinaryIO] = None

    def load(self) -> Dict[str, dict]:
        """All readable records (later frames win), tolerating a torn
        tail from a killed writer and a missing file on first run."""
        records: Dict[str, dict] = {}
        try:
            handle = open(self.path, "rb")
        except FileNotFoundError:
            return records
        with handle:
            while True:
                try:
                    key, record = pickle.load(handle)
                except EOFError:
                    break
                except Exception:
                    # torn trailing frame from a killed run — everything
                    # before it is intact, so stop here and keep that
                    break
                if isinstance(key, str) and isinstance(record, dict):
                    records[key] = record
        return records

    def append(self, key: str, record: dict) -> None:
        """Durably journal one finished cell."""
        if self._handle is None:
            self._handle = open(self.path, "ab")
        pickle.dump((key, record), self._handle,
                    protocol=pickle.HIGHEST_PROTOCOL)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None
