"""Figure 12: write-back-induced invalid lines — inclusive vs non-inclusive.

Logs cannot be modified in place, so every write-back appends a fresh
copy and deadens the old one.  The paper disables compression to
accentuate the effect and compares the *inclusive* policy (write misses
also fill the LLC) with the evaluated *non-inclusive* one (write misses
fill only the L1); non-inclusion sharply reduces dead-line occupancy,
which is why MORC needs no in-place-update fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import series_table
from repro.experiments.runner import (
    instructions_for,
    DEFAULT_BENCHMARKS,
    DEFAULT_INSTRUCTIONS,
    scale_instructions,
)


@dataclass
class InvalidRatioOutcome:
    """One benchmark's invalid-line percentages."""

    benchmark: str
    inclusive_pct: float
    non_inclusive_pct: float


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        config: Optional[SystemConfig] = None,
        engine: Optional[EngineOptions] = None) -> List[InvalidRatioOutcome]:
    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS)
    specs = [RunSpec(benchmark, "MORC", config=config,
                     n_instructions=instructions_for(benchmark,
                                                     n_instructions),
                     inclusive_writes=inclusive,
                     compression_enabled=False,
                     label=f"{benchmark}/inclusive={inclusive}")
             for benchmark in benchmarks
             for inclusive in (True, False)]
    runs = run_cells(specs, engine=engine)
    return [InvalidRatioOutcome(
                benchmark=benchmark,
                inclusive_pct=runs[2 * index].invalid_fraction * 100.0,
                non_inclusive_pct=runs[2 * index + 1].invalid_fraction
                * 100.0)
            for index, benchmark in enumerate(benchmarks)]


def render(outcomes: List[InvalidRatioOutcome]) -> str:
    names = [o.benchmark for o in outcomes]
    series: Dict[str, List[float]] = {
        "Inclusive": [o.inclusive_pct for o in outcomes],
        "Non-Inclusive": [o.non_inclusive_pct for o in outcomes],
    }
    return series_table(
        "Figure 12: write-back-induced invalid cache lines (%), "
        "compression disabled", names, series, precision=1)
