"""Figure 9: memory-subsystem energy and its normalized breakdown.

Figure 9a compares total memory-system energy of each scheme at 128KB,
plus two uncompressed baselines (128KB and 8x = 1MB, the latter paying
8x the LLC static power).  Figure 9b breaks MORC's energy down against
the 128KB baseline: static (L1+LLC), DRAM, SRAM dynamic, compression and
decompression.  The paper's result: MORC cuts ~17% of memory-system
energy because removed DRAM accesses dwarf the added decompression
energy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import format_table, series_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_BENCHMARKS,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)
from repro.sim.energy import EnergyBreakdown
from repro.sim.system import SingleRunResult

SCHEMES = ("Uncompressed", "Uncompressed8x", "Adaptive", "Decoupled",
           "SC2", "MORC")


@dataclass
class FigureNineResult:
    """Energy totals per scheme plus MORC-vs-baseline breakdowns."""

    benchmarks: List[str]
    runs: Dict[str, List[SingleRunResult]] = field(default_factory=dict)

    def energy_series(self) -> Dict[str, List[float]]:
        return {scheme: [run.energy.total_j for run in self.runs[scheme]]
                for scheme in self.runs}

    def morc_breakdowns(self) -> List[EnergyBreakdown]:
        """MORC's per-benchmark energy normalized to the baseline total."""
        baseline = self.runs["Uncompressed"]
        return [run.energy.normalized_to(base.energy)
                for run, base in zip(self.runs["MORC"], baseline)]

    def mean_saving_pct(self, scheme: str = "MORC") -> float:
        baseline = self.runs["Uncompressed"]
        savings = [(1.0 - run.energy.total_j / base.energy.total_j) * 100.0
                   for run, base in zip(self.runs[scheme], baseline)
                   if base.energy.total_j > 0]
        return sum(savings) / len(savings) if savings else 0.0


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        schemes: Sequence[str] = SCHEMES,
        engine: Optional[EngineOptions] = None) -> FigureNineResult:
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS)
    config = config or SystemConfig()
    specs = [RunSpec(benchmark, scheme, config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions))
             for scheme in schemes for benchmark in benchmarks]
    runs = run_cells(specs, engine=engine)
    result = FigureNineResult(benchmarks=benchmarks)
    for index, scheme in enumerate(schemes):
        result.runs[scheme] = runs[index * len(benchmarks):
                                   (index + 1) * len(benchmarks)]
    return result


def render(result: FigureNineResult) -> str:
    energy = series_table(
        "Figure 9a: memory-subsystem energy (J)", result.benchmarks,
        result.energy_series(), precision=4)
    rows = []
    for benchmark, breakdown in zip(result.benchmarks,
                                    result.morc_breakdowns()):
        rows.append([benchmark, breakdown.static_j, breakdown.dram_j,
                     breakdown.sram_j, breakdown.compression_j,
                     breakdown.decompression_j, breakdown.total_j])
    breakdown_table = format_table(
        ["workload", "static", "DRAM", "SRAM", "comp", "decomp", "total"],
        rows, title="Figure 9b: MORC energy normalized to the "
                    "uncompressed baseline (=1.0)", precision=3)
    summary = (f"Mean MORC memory-energy saving: "
               f"{result.mean_saving_pct():.1f}% (paper: 17.0%)")
    return "\n\n".join([energy, breakdown_table, summary])
