"""Seed-sensitivity analysis of the headline metrics.

The surrogate workloads are stochastic, so a claim like "MORC > SC2 on
compression ratio" should hold across access-stream seeds, not just the
default one.  This experiment reruns (benchmark, scheme) pairs over
several seeds and reports mean +/- standard deviation, plus whether the
MORC-over-SC2 ordering held in every replicate — the reproduction's
statistical footing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import format_table
from repro.experiments.runner import (
    DEFAULT_INSTRUCTIONS,
    instructions_for,
    scale_instructions,
)

VARIANCE_BENCHMARKS = ("gcc", "mcf", "h264ref", "soplex")
SCHEMES = ("SC2", "MORC")
DEFAULT_SEEDS = 3


@dataclass
class VarianceResult:
    """Mean/stdev of compression ratio per (benchmark, scheme)."""

    benchmarks: List[str]
    n_seeds: int
    #: (benchmark, scheme) -> list of per-seed ratios
    samples: Dict[Tuple[str, str], List[float]] = field(
        default_factory=dict)

    def mean(self, benchmark: str, scheme: str) -> float:
        values = self.samples[(benchmark, scheme)]
        return sum(values) / len(values)

    def stdev(self, benchmark: str, scheme: str) -> float:
        values = self.samples[(benchmark, scheme)]
        if len(values) < 2:
            return 0.0
        mu = self.mean(benchmark, scheme)
        return math.sqrt(sum((v - mu) ** 2 for v in values)
                         / (len(values) - 1))

    def ordering_holds_everywhere(self, better: str = "MORC",
                                  worse: str = "SC2") -> bool:
        """True if ``better`` beat ``worse`` in every (benchmark, seed)."""
        for benchmark in self.benchmarks:
            best = self.samples[(benchmark, better)]
            rest = self.samples[(benchmark, worse)]
            for seed_index in range(len(best)):
                if best[seed_index] < rest[seed_index] * 0.95:
                    return False
        return True


def run(benchmarks: Optional[Sequence[str]] = None,
        n_seeds: int = DEFAULT_SEEDS,
        n_instructions: Optional[int] = None,
        schemes: Sequence[str] = SCHEMES,
        engine: Optional[EngineOptions] = None) -> VarianceResult:
    benchmarks = list(benchmarks or VARIANCE_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS // 2)
    specs = [RunSpec(benchmark, scheme,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions),
                     seed_offset=seed * 7919,
                     label=f"{benchmark}/{scheme}/seed{seed}")
             for benchmark in benchmarks
             for scheme in schemes
             for seed in range(n_seeds)]
    runs = iter(run_cells(specs, engine=engine))
    result = VarianceResult(benchmarks=benchmarks, n_seeds=n_seeds)
    for benchmark in benchmarks:
        for scheme in schemes:
            result.samples[(benchmark, scheme)] = [
                next(runs).compression_ratio for _ in range(n_seeds)]
    return result


def render(result: VarianceResult) -> str:
    headers = ["workload"] + [f"{scheme} (mean±sd)" for scheme in
                              sorted({s for _, s in result.samples})]
    schemes = sorted({s for _, s in result.samples})
    rows = []
    for benchmark in result.benchmarks:
        row = [benchmark]
        for scheme in schemes:
            row.append(f"{result.mean(benchmark, scheme):.2f}"
                       f"±{result.stdev(benchmark, scheme):.2f}")
        rows.append(row)
    table = format_table(headers, rows,
                         title=f"Seed sensitivity ({result.n_seeds} "
                               f"access-stream seeds)")
    verdict = ("MORC >= SC2 in every replicate: "
               + ("yes" if result.ordering_holds_everywhere() else "NO"))
    return table + "\n" + verdict
