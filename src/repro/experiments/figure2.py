"""Figure 2: compression ratio and bandwidth reduction of *ideal*
intra-line vs inter-line compression.

The paper's motivating limit study (see :mod:`repro.compression.oracle`):
512-byte sets, 4-byte-word dedup + significance compression, no metadata.
Intra dedups within a line, inter across the whole cache.  Bandwidth
reduction compares each oracle's miss count against an uncompressed cache
driven by the identical trace.

The paper reports intra averaging ~2x / ~20% bandwidth savings and inter
a far larger ratio (tens of x, capped here by working-set residency) with
up to ~80% bandwidth reduction; the reproduction targets that ordering
and the 'inter >> intra' gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.compression.oracle import OracleCache
from repro.experiments.parallel import EngineOptions, parallel_map
from repro.experiments.report import series_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_BENCHMARKS,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)
from repro.workloads.spec import make_trace

SAMPLE_EVERY = 4096  # accesses between compression-ratio samples


@dataclass
class OracleOutcome:
    """One benchmark's oracle results."""

    benchmark: str
    intra_ratio: float
    inter_ratio: float
    intra_bandwidth_reduction_pct: float
    inter_bandwidth_reduction_pct: float


def _run_oracle(trace_name: str, n_instructions: int,
                cache: OracleCache) -> tuple:
    """Drive a trace through an oracle cache; returns (mean ratio, misses)."""
    trace = make_trace(trace_name, n_instructions)
    ratio_sum = 0.0
    samples = 0
    accesses = 0
    for record in trace:
        cache.access(record.address, record.data, record.is_write)
        accesses += 1
        if accesses % SAMPLE_EVERY == 0:
            ratio_sum += cache.compression_ratio()
            samples += 1
    ratio_sum += cache.compression_ratio()
    samples += 1
    return ratio_sum / samples, cache.stats.get("misses")


#: oracle variants per benchmark, in cell order
_MODES = ("base", "intra", "inter")


def _oracle_cell(cell: tuple) -> tuple:
    """One (benchmark, mode) oracle run — module-level for the pool."""
    benchmark, n_instructions, mode = cell
    if mode == "base":
        cache = OracleCache(compress=False)
    elif mode == "intra":
        cache = OracleCache(inter=False)
    else:
        cache = OracleCache(inter=True)
    return _run_oracle(benchmark, n_instructions, cache)


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        engine: Optional[EngineOptions] = None) -> List[OracleOutcome]:
    """Run the Figure 2 limit study (3 oracle cells per benchmark)."""
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS)
    cells = [(benchmark, instructions_for(benchmark, n_instructions), mode)
             for benchmark in benchmarks for mode in _MODES]
    results = iter(parallel_map(_oracle_cell, cells, label="oracle",
                                engine=engine))
    outcomes: List[OracleOutcome] = []
    for benchmark in benchmarks:
        _, base_misses = next(results)
        intra_ratio, intra_misses = next(results)
        inter_ratio, inter_misses = next(results)
        outcomes.append(OracleOutcome(
            benchmark=benchmark,
            intra_ratio=intra_ratio,
            inter_ratio=inter_ratio,
            intra_bandwidth_reduction_pct=_reduction(intra_misses,
                                                     base_misses),
            inter_bandwidth_reduction_pct=_reduction(inter_misses,
                                                     base_misses),
        ))
    return outcomes


def _reduction(misses: float, baseline: float) -> float:
    if baseline == 0:
        return 0.0
    return max(0.0, (1.0 - misses / baseline) * 100.0)


def render(outcomes: List[OracleOutcome]) -> str:
    names = [o.benchmark for o in outcomes]
    ratio_series: Dict[str, List[float]] = {
        "Oracle-Intra": [o.intra_ratio for o in outcomes],
        "Oracle-Inter": [o.inter_ratio for o in outcomes],
    }
    bw_series: Dict[str, List[float]] = {
        "Oracle-Intra %": [o.intra_bandwidth_reduction_pct for o in outcomes],
        "Oracle-Inter %": [o.inter_bandwidth_reduction_pct for o in outcomes],
    }
    return "\n\n".join([
        series_table("Figure 2a: oracle compression ratio (x)",
                     names, ratio_series),
        series_table("Figure 2b: oracle bandwidth reduction (%)",
                     names, bw_series, precision=1),
    ])
