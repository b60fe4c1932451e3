"""Ablations of MORC's individual design choices.

The paper motivates several mechanisms without isolating each one; these
ablations do, using the same harness as the main figures:

- **LBE vs C-Pack inside MORC** (§3.2.5's motivation): swap the stream
  codec for per-line C-Pack in the identical log organisation — the
  inter-line matches are what LBE adds.
- **Content-aware placement** (§3.2.3): fudge factor 0 (always best log)
  vs the paper's 5% vs 1.0 (pure least-used round-robin).
- **Tag bases** (§3.2.4): one vs two tracked bases.
- **LMT associativity** (§3.2.2): direct-mapped vs column-associative
  2-way, measured by LMT-conflict eviction rate — the paper reports the
  2-way LMT cuts LMT-induced evictions from ~20% to under 5%.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.common.config import SystemConfig
from repro.experiments.parallel import EngineOptions, RunSpec, run_cells
from repro.experiments.report import series_table
from repro.experiments.runner import (
    DEFAULT_INSTRUCTIONS,
    instructions_for,
    scale_instructions,
)

ABLATION_BENCHMARKS = ("gcc", "mcf", "cactusADM", "h264ref", "soplex")


@dataclass
class AblationResult:
    """Ratio (or rate) series per ablation arm."""

    benchmarks: List[str]
    algorithm_ratio: Dict[str, List[float]] = field(default_factory=dict)
    fudge_ratio: Dict[str, List[float]] = field(default_factory=dict)
    tag_bases_ratio: Dict[str, List[float]] = field(default_factory=dict)
    lmt_conflict_rate: Dict[str, List[float]] = field(default_factory=dict)


def run(benchmarks: Optional[Sequence[str]] = None,
        n_instructions: Optional[int] = None,
        engine: Optional[EngineOptions] = None) -> AblationResult:
    benchmarks = list(benchmarks or ABLATION_BENCHMARKS)
    n_instructions = n_instructions or scale_instructions(
        DEFAULT_INSTRUCTIONS)
    result = AblationResult(benchmarks=benchmarks)

    def specs_for(scheme: str, config: Optional[SystemConfig] = None,
                  budget_divisor: int = 1) -> list:
        return [RunSpec(b, scheme, config=config,
                        n_instructions=instructions_for(
                            b, n_instructions // budget_divisor))
                for b in benchmarks]

    # Every arm flattened into one grid; regrouped in order below.
    # (LZ runs at a reduced budget: the greedy matcher is an order of
    # magnitude slower than LBE in this simulator.)
    arms = [("MORC (LBE)", specs_for("MORC")),
            ("MORC (C-Pack)", specs_for("MORC-CPack")),
            ("MORC (LZ)", specs_for("MORC-LZ", budget_divisor=3))]
    for fudge, label in ((0.0, "fudge=0 (best only)"),
                         (0.05, "fudge=5% (paper)"),
                         (0.99, "fudge=99% (least-used)")):
        arms.append((label, specs_for(
            "MORC", SystemConfig().with_morc(fudge_factor=fudge))))
    for bases in (1, 2):
        arms.append((f"{bases} base(s)", specs_for(
            "MORC", SystemConfig().with_morc(tag_bases=bases))))
    for ways in (1, 2):
        arms.append((f"{ways}-way LMT", specs_for(
            "MORC", SystemConfig().with_morc(lmt_ways=ways))))

    runs = iter(run_cells([spec for _, specs in arms
                           for spec in specs], engine=engine))
    by_arm = {label: [next(runs) for _ in specs] for label, specs in arms}

    def ratios(label: str) -> List[float]:
        return [r.compression_ratio for r in by_arm[label]]

    result.algorithm_ratio = {label: ratios(label) for label, _ in arms[:3]}
    result.fudge_ratio = {label: ratios(label) for label, _ in arms[3:6]}
    result.tag_bases_ratio = {label: ratios(label)
                              for label, _ in arms[6:8]}
    # LMT associativity -> conflict-eviction rate (% of fills)
    for label, _ in arms[8:10]:
        rates = []
        for run_result in by_arm[label]:
            stats = run_result.llc_stats
            fills = stats.get("fills", 0) + stats.get("writebacks_in", 0)
            conflicts = stats.get("lmt_conflict_evictions", 0)
            rates.append(100.0 * conflicts / fills if fills else 0.0)
        result.lmt_conflict_rate[label] = rates
    return result


def render(result: AblationResult) -> str:
    names = result.benchmarks
    return "\n\n".join([
        series_table("Ablation: data codec inside MORC (ratio)",
                     names, result.algorithm_ratio),
        series_table("Ablation: placement fudge factor (ratio)",
                     names, result.fudge_ratio),
        series_table("Ablation: tag-compression bases (ratio)",
                     names, result.tag_bases_ratio),
        series_table("Ablation: LMT-conflict evictions (% of fills)",
                     names, result.lmt_conflict_rate, precision=2),
    ])
