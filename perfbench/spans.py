"""Span tracing of the simulator's layers, from outside ``src/``.

:class:`SpanTracer` wraps the public entry points of each layer for the
duration of a ``with`` block and records one span per call: layer name,
start, end, parent span, cell and an outcome flag (hit/miss for
lookups).  Spans live in flat arrays and are written to one ``.npz``
file when the run ends; :func:`ledger` turns them into per-layer counts
and self times.
"""

from __future__ import annotations

import gc
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.cache.l1 import L1Cache
from repro.cache.set_assoc import (AdaptiveCache, DecoupledCache, Sc2Cache,
                                   UncompressedCache)
from repro.common.config import SystemConfig
from repro.compression.cpack import CPackCompressor
from repro.compression.lbe import LbeCompressor
from repro.compression.sc2dict import Sc2Dictionary
from repro.compression.tag_compression import TagCompressor
from repro.mem.controller import MemoryChannel
from repro.morc.cache import MorcCache
from repro.sim import system
from repro.sim.core import CoreSimulator
from repro.workloads.trace import SyntheticTrace

#: root span of one cell; its self time is what no layer span covers
CELL = "cell"


def _read_flag(result) -> int:
    return int(result.hit)


#: (class, method, span name, outcome flag or None)
ENTRY_POINTS: Tuple[Tuple[type, str, str, Optional[Callable]], ...] = (
    (CoreSimulator, "run", "sim.core.run", None),
    (CoreSimulator, "step", "sim.core", None),
    (L1Cache, "lookup", "cache.l1.lookup", int),  # returns hit as a bool
    (L1Cache, "fill", "cache.l1.fill", None),
    *((cls, method, f"cache.set_assoc.{scheme}.{method}",
       _read_flag if method == "read" else None)
      for cls, scheme in ((UncompressedCache, "Uncompressed"),
                          (AdaptiveCache, "Adaptive"),
                          (DecoupledCache, "Decoupled"),
                          (Sc2Cache, "SC2"))
      for method in ("read", "fill", "writeback")),
    (MorcCache, "read", "morc.read", _read_flag),
    (MorcCache, "fill", "morc.insert", None),
    (MorcCache, "writeback", "morc.insert", None),
    (LbeCompressor, "measure", "compression.lbe.measure", None),
    (LbeCompressor, "compress", "compression.lbe.compress", None),
    (TagCompressor, "measure", "compression.tag", None),
    (TagCompressor, "append", "compression.tag", None),
    (CPackCompressor, "compress", "compression.cpack", None),
    (Sc2Dictionary, "observe", "compression.sc2", None),
    (Sc2Dictionary, "compress", "compression.sc2", None),
    (MemoryChannel, "read", "mem.read", None),
    (MemoryChannel, "write", "mem.write", None),
)

WORKLOADS_SPAN = "workloads"
#: the interpreter's cyclic garbage collector, run by whatever allocated
GC_SPAN = "gc"


class SpanTracer:
    """Records spans while active; restores every wrapped method on exit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.cell = array("h")
        self.flag = array("b")
        self.current = -1
        self.cell_index = -1
        #: per cell: span count when its warm-up ended
        self.warmup_marks: Dict[int, int] = {}
        #: every memory channel the traced cells built
        self.channels: List[MemoryChannel] = []
        self._restore: List[Tuple[type, str, object]] = []
        self._gc_span: Optional[Tuple[int, int]] = None

    # -- recording -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, parent: int) -> int:
        """Append a span, make it current, and start its clock last."""
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(parent)
        self.cell.append(self.cell_index)
        self.flag.append(-1)
        self.end.append(0.0)
        self.current = index
        self.start.append(time.perf_counter())
        return index

    def _on_gc(self, phase: str, info: dict) -> None:
        """Time each garbage collection as a ``gc`` span under whatever
        span triggered it, so its pause is not charged to that span."""
        if phase == "start":
            parent = self.current
            self._gc_span = (self._open(self._id(GC_SPAN), parent), parent)
        elif self._gc_span is not None:
            index, parent = self._gc_span
            self.end[index] = time.perf_counter()
            self.current = parent
            self._gc_span = None

    def _timed(self, fn: Callable, name: str,
               outcome: Optional[Callable]) -> Callable:
        nid = self._id(name)
        clock = time.perf_counter

        def timed(*args, **kwargs):
            parent = self.current
            index = self._open(nid, parent)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self.current = parent
            if outcome is not None:
                self.flag[index] = outcome(result)
            return result

        return timed

    def _timed_iter(self, iterator):
        """One ``workloads`` span per record the trace generator yields."""
        step = self._timed(iterator.__next__, WORKLOADS_SPAN,
                           lambda record: 1)
        while True:
            try:
                yield step()
            except StopIteration:
                return

    # -- patching --------------------------------------------------------

    def _patch(self, owner: type, attr: str, replacement: object) -> None:
        self._restore.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "SpanTracer":
        for owner, method, name, outcome in ENTRY_POINTS:
            self._patch(owner, method,
                        self._timed(getattr(owner, method), name, outcome))
        tracer = self
        run_single = system.run_single_program
        timed_cell = self._timed(run_single, CELL, None)

        def cell(*args, **kwargs):
            tracer.cell_index += 1
            return timed_cell(*args, **kwargs)

        self._patch(system, "run_single_program", cell)
        trace_iter = SyntheticTrace.__iter__
        self._patch(SyntheticTrace, "__iter__",
                    lambda trace: tracer._timed_iter(trace_iter(trace)))
        reset = CoreSimulator.reset_measurement

        def reset_measurement(core):
            tracer.warmup_marks[tracer.cell_index] = len(tracer.start)
            return reset(core)

        self._patch(CoreSimulator, "reset_measurement", reset_measurement)
        channel_init = MemoryChannel.__init__

        def init_channel(channel, *args, **kwargs):
            tracer.channels.append(channel)
            channel_init(channel, *args, **kwargs)

        self._patch(MemoryChannel, "__init__", init_channel)
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- output ----------------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.uint16),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "cell": np.frombuffer(self.cell, dtype=np.int16),
                "flag": np.frombuffer(self.flag, dtype=np.int8)}

    def save(self, path: str, cell_labels: List[str]) -> None:
        """Write every span, with the name and cell tables, to ``path``."""
        np.savez_compressed(path, names=np.array(self.names),
                            cells=np.array(cell_labels), **self.arrays())


def self_times(arrays: Dict[str, np.ndarray]) -> np.ndarray:
    """Each span's duration minus its direct children's durations."""
    duration = arrays["end"] - arrays["start"]
    children = np.zeros_like(duration)
    parent = arrays["parent"]
    nested = parent >= 0
    np.add.at(children, parent[nested], duration[nested])
    return duration - children


def ledger(tracer: SpanTracer, cell_seconds: List[float]) -> Dict[str, object]:
    """Per-layer counts, self times and ratios of one traced pass.

    ``by_layer`` maps each span name to ``(calls, self_s, hits)`` (hits
    is -1 where the entry point has no outcome); ``coverage`` is, per
    cell, the share of its wall time that layer spans account for;
    ``warmup_inserts`` the LLC fill and write-back calls made before the
    cell's warm-up ended.
    """
    arrays = tracer.arrays()
    own = self_times(arrays)
    names = arrays["name"]
    by_layer: Dict[str, Tuple[int, float, int]] = {}
    for nid, name in enumerate(tracer.names):
        mask = names == nid
        flags = arrays["flag"][mask]
        hits = int((flags == 1).sum()) if (flags >= 0).any() else -1
        by_layer[name] = (int(mask.sum()), float(own[mask].sum()), hits)
    cell_id = tracer._ids.get(CELL, -1)
    layered = names != cell_id
    cells = arrays["cell"]
    coverage = [float(own[layered & (cells == index)].sum()) / seconds
                for index, seconds in enumerate(cell_seconds)]
    inserts = [nid for nid, name in enumerate(tracer.names)
               if name == "morc.insert"
               or (name.startswith("cache.set_assoc.")
                   and name.endswith((".fill", ".writeback")))]
    is_insert = np.isin(names, inserts)
    positions = np.arange(len(names))
    warmup_inserts = [int((is_insert & (cells == index)
                           & (positions < tracer.warmup_marks.get(index, 0))
                           ).sum())
                      for index in range(len(cell_seconds))]
    queue_wait = sum(channel.stats.get("queue_wait_cycles")
                     for channel in tracer.channels)
    mem_reads = sum(channel.stats.get("reads") for channel in tracer.channels)
    return {"by_layer": by_layer, "coverage": coverage,
            "warmup_inserts": warmup_inserts,
            "queue_wait_per_read": queue_wait / max(1.0, mem_reads)}


def llc_lines() -> int:
    """Line capacity of the default single-program LLC."""
    config = SystemConfig()
    return (config.llc_per_core.size_bytes * config.n_cores
            // config.llc_per_core.line_size)


def span_cost(calls: int = 200_000) -> Tuple[float, float]:
    """Host seconds one span adds to a call, and the part of that which
    falls outside the span's own start and end.

    Times an empty function bare and wrapped.  The outside part (the
    wrapper's bookkeeping before its clock starts and after it stops)
    is charged to the enclosing span's self time.
    """
    def empty():
        return None

    tracer = SpanTracer()
    wrapped = tracer._timed(empty, "empty", None)
    clock = time.perf_counter
    started = clock()
    for _ in range(calls):
        empty()
    bare = clock() - started
    started = clock()
    for _ in range(calls):
        wrapped()
    total = clock() - started
    inside = float((np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
                    ).sum())
    added = (total - bare) / calls
    return added, (total - inside) / calls - bare / calls
