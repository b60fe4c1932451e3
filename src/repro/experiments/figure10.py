"""Figure 10: normalized IPC and throughput across bandwidth availability.

Sweeps the per-thread bandwidth cap (1600 / 400 / 100 / 12.5 MB/s) and
reports geomean IPC and 4-thread throughput normalized to the
uncompressed baseline *at the same bandwidth*.  The paper's finding: with
abundant bandwidth MORC's long decompressions hurt single-stream IPC
(~-7% at 1600 MB/s), but multithreading hides them (no throughput loss),
and at extreme starvation (12.5 MB/s — a projected 2020 manycore design
point) MORC's savings dominate (+63% throughput).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import series_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_INSTRUCTIONS,
    geomean,
    scale_instructions,
)
from repro.sim.throughput import coarse_grain_throughput

SCHEMES = ("Adaptive", "Decoupled", "SC2", "MORC")
BANDWIDTHS_MB_S = (1600.0, 400.0, 100.0, 12.5)

#: a bandwidth-sensitive subset keeps the 4-point x 5-scheme sweep
#: tractable (the full Figure 6 list multiplies runtime ~7x)
SWEEP_BENCHMARKS = ("gcc", "mcf", "soplex", "sphinx3")


@dataclass
class FigureTenResult:
    """Normalized IPC/throughput per scheme per bandwidth point."""

    bandwidths_mb_s: List[float]
    normalized_ipc: Dict[str, List[float]] = field(default_factory=dict)
    normalized_throughput: Dict[str, List[float]] = field(
        default_factory=dict)


def run(benchmarks: Optional[Sequence[str]] = None,
        bandwidths_mb_s: Sequence[float] = BANDWIDTHS_MB_S,
        n_instructions: Optional[int] = None,
        schemes: Sequence[str] = SCHEMES,
        engine: Optional[EngineOptions] = None) -> FigureTenResult:
    benchmarks = list(benchmarks or SWEEP_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS // 2)
    # Flatten the whole bandwidth x (baseline + schemes) x benchmark grid
    # into one spec list so the pool sees every cell at once.
    all_schemes = ("Uncompressed",) + tuple(schemes)
    specs = [RunSpec(benchmark, scheme,
                     config=SystemConfig().with_bandwidth(bandwidth * 1e6),
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions),
                     label=f"{benchmark}/{scheme}@{bandwidth:g}MB/s")
             for bandwidth in bandwidths_mb_s
             for scheme in all_schemes
             for benchmark in benchmarks]
    runs = iter(run_cells(specs, engine=engine))
    result = FigureTenResult(bandwidths_mb_s=list(bandwidths_mb_s))
    for scheme in schemes:
        result.normalized_ipc[scheme] = []
        result.normalized_throughput[scheme] = []
    for _ in bandwidths_mb_s:
        baselines = [next(runs) for _ in benchmarks]
        for scheme in schemes:
            scheme_runs = [next(runs) for _ in benchmarks]
            ipc_ratios = [run.ipc / base.ipc if base.ipc else 1.0
                          for run, base in zip(scheme_runs, baselines)]
            tp_ratios = [
                coarse_grain_throughput(run.metrics)
                / max(coarse_grain_throughput(base.metrics), 1e-12)
                for run, base in zip(scheme_runs, baselines)]
            result.normalized_ipc[scheme].append(geomean(ipc_ratios))
            result.normalized_throughput[scheme].append(geomean(tp_ratios))
    return result


def render(result: FigureTenResult) -> str:
    names = [f"{bw:g}MB/s" for bw in result.bandwidths_mb_s]
    return "\n\n".join([
        series_table("Figure 10a: normalized IPC (geomean)", names,
                     result.normalized_ipc, means=False),
        series_table("Figure 10b: normalized throughput (geomean)", names,
                     result.normalized_throughput, means=False),
    ])
