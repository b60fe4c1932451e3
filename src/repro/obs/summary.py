"""Trace summariser behind the ``repro obs`` CLI subcommand.

Reads a JSONL observability trace (:mod:`repro.obs.reader`) and renders
the three views the MORC evaluation keeps needing:

- **top eviction causes** — which mechanism (LMT conflict, log flush,
  set-capacity, skew conflict, ...) is actually churning each cache;
- **compression-ratio distributions per run** — the per-interval ratio
  samples behind every mean the figures report, including a
  reconstruction cross-check: the mean of the traced samples must match
  the experiment's reported ratio;
- **bandwidth/queue timeline** — memory-channel occupancy samples
  binned over simulated time, showing when a run is starved.

Everything is computed from the event stream alone, which is the point:
a figure's number can be audited without rerunning the experiment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.experiments.report import format_table
from repro.obs.reader import read_events

_HISTOGRAM_BUCKETS = 8
_TIMELINE_BINS = 12
_BAR = "#"


@dataclass
class RunDigest:
    """Per-run reconstruction state keyed by the trace's run id."""

    run_id: str
    benchmark: str = "?"
    scheme: str = "?"
    ratio_samples: List[float] = field(default_factory=list)
    reported_ratio: Optional[float] = None
    mem_samples: List[Tuple[float, float]] = field(default_factory=list)

    @property
    def label(self) -> str:
        return f"{self.benchmark}/{self.scheme}"

    @property
    def reconstructed_ratio(self) -> Optional[float]:
        if not self.ratio_samples:
            return None
        return sum(self.ratio_samples) / len(self.ratio_samples)


@dataclass
class TraceSummary:
    """Everything ``repro obs`` renders, parsed once."""

    path: str
    n_events: int = 0
    n_malformed: int = 0
    events_by_category: Counter = field(default_factory=Counter)
    #: (cache, reason) -> [total, dirty]
    eviction_causes: Dict[Tuple[str, str], List[int]] = field(
        default_factory=dict)
    #: algo -> [attempts, total_bits]
    compression: Dict[str, List[float]] = field(default_factory=dict)
    #: (algo, entropy class) -> attempts
    compression_entropy: Counter = field(default_factory=Counter)
    runs: Dict[str, RunDigest] = field(default_factory=dict)
    #: (cache, event kind) -> count, from the resilience category
    resilience_counts: Counter = field(default_factory=Counter)
    #: (cache, recovery policy) -> [recoveries, dirty/data-loss]
    recovery_by_policy: Dict[Tuple[str, str], List[int]] = field(
        default_factory=dict)
    verify_failures: List[dict] = field(default_factory=list)
    engine_cells: List[dict] = field(default_factory=list)
    engine_workers: List[dict] = field(default_factory=list)
    engine_errors: List[dict] = field(default_factory=list)
    engine_resumes: List[dict] = field(default_factory=list)


def _digest(summary: TraceSummary, event: dict) -> RunDigest:
    run_id = str(event.get("run", "?"))
    digest = summary.runs.get(run_id)
    if digest is None:
        digest = summary.runs[run_id] = RunDigest(run_id)
    if "benchmark" in event:
        digest.benchmark = str(event["benchmark"])
    if "scheme" in event:
        digest.scheme = str(event["scheme"])
    return digest


def summarize(path: str) -> TraceSummary:
    """Parse one trace file into a :class:`TraceSummary`.

    Streams the trace (:func:`~repro.obs.reader.read_events`) rather
    than materialising it — full bench grids produce hundreds of
    thousands of events.
    """
    summary = TraceSummary(path=path)

    def count_malformed(_line: str) -> None:
        summary.n_malformed += 1

    for event in read_events(path, count_malformed):
        summary.n_events += 1
        category = event.get("cat", "?")
        kind = event.get("ev", "?")
        summary.events_by_category[category] += 1
        if category == "llc":
            if kind == "evict":
                key = (str(event.get("cache", "?")),
                       str(event.get("reason", "?")))
                cell = summary.eviction_causes.setdefault(key, [0, 0])
                cell[0] += 1
                cell[1] += 1 if event.get("dirty") else 0
            elif kind == "ratio_sample":
                _digest(summary, event).ratio_samples.append(
                    float(event.get("ratio", 0.0)))
        elif category == "compression" and kind == "compress":
            algo = str(event.get("algo", "?"))
            cell = summary.compression.setdefault(algo, [0, 0.0])
            cell[0] += 1
            cell[1] += float(event.get("bits", 0.0))
            summary.compression_entropy[
                (algo, str(event.get("entropy", "?")))] += 1
        elif category == "mem" and kind == "queue_sample":
            _digest(summary, event).mem_samples.append(
                (float(event.get("now", 0.0)),
                 float(event.get("wait", 0.0))))
        elif category == "run":
            digest = _digest(summary, event)
            if kind == "measure_start":
                # Warm-up boundary: samples before it are not measured.
                digest.ratio_samples.clear()
                digest.mem_samples.clear()
            elif kind == "run_end" and "ratio" in event:
                digest.reported_ratio = float(event["ratio"])
        elif category == "resilience":
            cache = str(event.get("cache", "?"))
            summary.resilience_counts[(cache, kind)] += 1
            if kind == "recovery":
                key = (cache, str(event.get("policy", "?")))
                cell = summary.recovery_by_policy.setdefault(key, [0, 0])
                cell[0] += 1
                cell[1] += 1 if event.get("dirty") else 0
            elif kind == "verify_fail":
                summary.verify_failures.append(event)
        elif category == "engine":
            if kind == "cell":
                summary.engine_cells.append(event)
            elif kind == "worker":
                summary.engine_workers.append(event)
            elif kind == "cell_error":
                summary.engine_errors.append(event)
            elif kind == "resume":
                summary.engine_resumes.append(event)
    return summary


def _bar(value: float, peak: float, width: int = 24) -> str:
    if peak <= 0:
        return ""
    return _BAR * max(1, round(width * value / peak)) if value else ""


def _histogram_rows(values: List[float]) -> List[str]:
    low, high = min(values), max(values)
    if high <= low:
        return [f"  [{low:8.3f}           ] {_BAR * 24} {len(values)}"]
    span = (high - low) / _HISTOGRAM_BUCKETS
    counts = [0] * _HISTOGRAM_BUCKETS
    for value in values:
        index = min(_HISTOGRAM_BUCKETS - 1, int((value - low) / span))
        counts[index] += 1
    peak = max(counts)
    rows = []
    for index, count in enumerate(counts):
        left = low + index * span
        right = left + span
        rows.append(f"  [{left:8.3f}, {right:8.3f}) "
                    f"{_bar(count, peak):24s} {count}")
    return rows


def _render_evictions(summary: TraceSummary, top: int) -> str:
    ranked = sorted(summary.eviction_causes.items(),
                    key=lambda item: -item[1][0])[:top]
    rows = [[f"{cache}:{reason}", total, dirty,
             100.0 * dirty / total if total else 0.0]
            for (cache, reason), (total, dirty) in ranked]
    return format_table(["cause", "evictions", "dirty", "dirty%"], rows,
                        title="Top eviction causes", precision=1)


def _render_ratios(summary: TraceSummary, top: int) -> str:
    digests = [d for d in summary.runs.values() if d.ratio_samples]
    digests.sort(key=lambda d: d.label)
    rows = []
    for digest in digests:
        reconstructed = digest.reconstructed_ratio
        reported = digest.reported_ratio
        delta = ("-" if reported in (None, 0.0) or reconstructed is None
                 else f"{100.0 * (reconstructed / reported - 1.0):+.2f}%")
        rows.append([digest.label, len(digest.ratio_samples),
                     reconstructed or 0.0,
                     reported if reported is not None else 0.0, delta])
    table = format_table(
        ["run", "samples", "mean(trace)", "reported", "delta"], rows,
        title="Compression ratio per run (reconstructed from "
              "ratio_sample events)", precision=4)
    blocks = [table]
    for digest in digests[:top]:
        blocks.append(f"\n{digest.label}: ratio distribution "
                      f"({len(digest.ratio_samples)} samples)")
        blocks.extend(_histogram_rows(digest.ratio_samples))
    return "\n".join(blocks)


def _render_compression(summary: TraceSummary) -> str:
    entropy_classes = sorted({entropy for _, entropy
                              in summary.compression_entropy})
    rows = []
    for algo in sorted(summary.compression):
        attempts, total_bits = summary.compression[algo]
        row = [algo, int(attempts),
               total_bits / attempts if attempts else 0.0]
        row.extend(int(summary.compression_entropy.get((algo, entropy), 0))
                   for entropy in entropy_classes)
        rows.append(row)
    return format_table(["codec", "attempts", "mean bits"]
                        + [f"{e}-entropy" for e in entropy_classes],
                        rows, title="Compression attempts per codec",
                        precision=1)


def _render_timeline(summary: TraceSummary, top: int) -> str:
    digests = [d for d in summary.runs.values() if d.mem_samples]
    digests.sort(key=lambda d: -len(d.mem_samples))
    blocks = ["Memory-channel queue-wait timeline (cycles, binned over "
              "simulated time)"]
    for digest in digests[:top]:
        samples = sorted(digest.mem_samples)
        low, high = samples[0][0], samples[-1][0]
        span = (high - low) / _TIMELINE_BINS or 1.0
        bins: List[List[float]] = [[] for _ in range(_TIMELINE_BINS)]
        for now, wait in samples:
            index = min(_TIMELINE_BINS - 1, int((now - low) / span))
            bins[index].append(wait)
        means = [sum(b) / len(b) if b else 0.0 for b in bins]
        peak = max(means)
        blocks.append(f"\n{digest.label}: {len(samples)} samples, "
                      f"cycles [{low:.0f}, {high:.0f}]")
        for index, mean in enumerate(means):
            start = low + index * span
            blocks.append(f"  t={start:12.0f} {_bar(mean, peak):24s} "
                          f"{mean:9.1f}")
    return "\n".join(blocks)


def _render_engine(summary: TraceSummary) -> str:
    rows = [[w.get("pid", "?"), int(w.get("cells", 0)),
             float(w.get("busy_s", 0.0)),
             float(w.get("queue_wait_s", 0.0)),
             100.0 * float(w.get("utilization", 0.0)),
             int(w.get("rss_kb", 0))]
            for w in summary.engine_workers]
    return format_table(
        ["worker pid", "cells", "busy s", "queue wait s", "util %",
         "peak RSS KiB"],
        rows, title="Experiment-engine workers", precision=2)


def _render_faults(summary: TraceSummary, top: int) -> str:
    blocks = []
    for resume in summary.engine_resumes:
        blocks.append(f"Resumed from {resume.get('checkpoint', '?')}: "
                      f"{int(resume.get('loaded', 0))} cells loaded, "
                      f"{int(resume.get('remaining', 0))} re-run")
    if summary.engine_errors:
        rows = [[str(event.get("label", "?")),
                 str(event.get("kind", "error")),
                 str(event.get("error", "?"))[:60]]
                for event in summary.engine_errors[:top]]
        blocks.append(format_table(["cell", "kind", "error"],
                                   rows,
                                   title=f"Cell failures "
                                         f"({len(summary.engine_errors)})"))
    return "\n\n".join(blocks)


def _render_resilience(summary: TraceSummary, top: int) -> str:
    caches = sorted({cache for cache, _ in summary.resilience_counts})
    rows = [[cache,
             int(summary.resilience_counts.get((cache, "soft_error"), 0)),
             int(summary.resilience_counts.get((cache, "recovery"), 0)),
             int(summary.resilience_counts.get((cache, "verify_fail"),
                                               0))]
            for cache in caches]
    blocks = [format_table(
        ["cache", "soft errors", "recoveries", "verify fails"], rows,
        title="Resilience events (soft_error / recovery / verify_fail)")]
    if summary.recovery_by_policy:
        rows = [[f"{cache}:{policy}", total, lost]
                for (cache, policy), (total, lost)
                in sorted(summary.recovery_by_policy.items())]
        blocks.append(format_table(
            ["cache:policy", "recoveries", "dirty (write lost)"], rows,
            title="Recoveries by policy"))
    if summary.verify_failures:
        rows = [[str(event.get("cache", "?")),
                 str(event.get("kind", "?")),
                 str(event.get("detail", "?"))[:60]]
                for event in summary.verify_failures[:top]]
        blocks.append(format_table(
            ["cache", "kind", "detail"], rows,
            title=f"Verification failures "
                  f"({len(summary.verify_failures)})"))
    return "\n\n".join(blocks)


def render(summary: TraceSummary, top: int = 8) -> str:
    """Render the summary as concatenated text tables."""
    header = (f"{summary.path}: {summary.n_events} events "
              f"({summary.n_malformed} malformed) — "
              + ", ".join(f"{cat}={count}" for cat, count
                          in sorted(summary.events_by_category.items())))
    blocks = [header]
    if summary.eviction_causes:
        blocks.append(_render_evictions(summary, top))
    if any(d.ratio_samples for d in summary.runs.values()):
        blocks.append(_render_ratios(summary, top))
    if summary.compression:
        blocks.append(_render_compression(summary))
    if any(d.mem_samples for d in summary.runs.values()):
        blocks.append(_render_timeline(summary, top))
    if summary.resilience_counts:
        blocks.append(_render_resilience(summary, top))
    if summary.engine_workers:
        blocks.append(_render_engine(summary))
    if summary.engine_errors or summary.engine_resumes:
        blocks.append(_render_faults(summary, top))
    if len(blocks) == 1:
        blocks.append("no recognised events — was the trace produced "
                      "with REPRO_OBS=1?")
    return "\n\n".join(blocks)
