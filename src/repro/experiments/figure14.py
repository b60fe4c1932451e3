"""Figure 14: distribution of MORC access latencies.

MORC must decompress a log from its start, so a hit's latency depends on
how deep in the log the line sits.  The histogram bins hits by the bytes
decompressed to reach them (16B/cycle output); the paper observes a
fairly even spread — a line's usefulness is position-independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import format_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_BENCHMARKS,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)

#: (label, inclusive upper bound in decompressed bytes)
BINS: Tuple[Tuple[str, float], ...] = (
    ("<64", 64), ("65-128", 128), ("129-196", 196), ("197-256", 256),
    ("257-320", 320), ("321-384", 384), ("385-448", 448),
    ("449-512", 512), (">512", float("inf")),
)


@dataclass
class LatencyDistribution:
    """One benchmark's normalized latency histogram."""

    benchmark: str
    fractions: Dict[str, float]


def bin_histogram(histogram: Dict[int, int]) -> Dict[str, float]:
    """Normalize a raw bytes->count histogram into the figure's bins."""
    binned = {label: 0.0 for label, _ in BINS}
    total = sum(histogram.values())
    if total == 0:
        return binned
    for output_bytes, count in histogram.items():
        for label, upper in BINS:
            if output_bytes <= upper:
                binned[label] += count / total
                break
    return binned


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        engine: Optional[EngineOptions] = None) -> List[LatencyDistribution]:
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS)
    specs = [RunSpec(benchmark, "MORC", config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions))
             for benchmark in benchmarks]
    return [LatencyDistribution(benchmark,
                                bin_histogram(run_result.latency_histogram))
            for benchmark, run_result
            in zip(benchmarks, run_cells(specs, engine=engine))]


def render(distributions: List[LatencyDistribution]) -> str:
    headers = ["workload"] + [label for label, _ in BINS]
    rows = []
    for dist in distributions:
        rows.append([dist.benchmark]
                    + [f"{dist.fractions[label]:.2f}" for label, _ in BINS])
    return format_table(
        headers, rows,
        title="Figure 14: distribution of MORC hit latencies "
              "(fraction of hits by decompressed bytes, 16B/cycle)")
