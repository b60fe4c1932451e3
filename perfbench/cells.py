"""Workload cells, per-cell output checks and the statistics digest.

Imported by ``run.py`` after it has put the checkout's ``src`` on
``sys.path``, so ``repro`` here is always the code under test.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from typing import Dict, List, Sequence, Tuple

from repro.common.errors import CellError
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import instructions_for
from repro.obs.reservoir import series_total
from repro.sim.system import ALL_SCHEMES
from repro.workloads.spec import make_trace

#: base instruction budget; each cell measures
#: ``instructions_for(benchmark, BASE_INSTRUCTIONS)`` instructions, the
#: per-benchmark scaling the figure modules apply to their own budget,
#: after stepping the first WARMUP_FRACTION of its trace with empty
#: caches (RunSpec's default)
BASE_INSTRUCTIONS = 40_000
WARMUP_FRACTION = 0.4

#: workload -> ((benchmark, schemes), ...); why each is here: README.md
WORKLOADS: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "fig6-row": (("gcc", ALL_SCHEMES), ("h264ref", ALL_SCHEMES)),
    "morc-fill": (("mcf", ("MORC",)), ("cactusADM", ("MORC",))),
    "stream-wb": (("lbm", ("Uncompressed", "MORC")),),
}

MORC_SCHEMES = ("MORC",)
BASELINE_SCHEMES = ("Uncompressed", "Adaptive", "Decoupled", "SC2")


def build_specs(workload: str, seed: int,
                base: int = BASE_INSTRUCTIONS) -> List[RunSpec]:
    """The cells of one workload, in run order."""
    return [RunSpec(benchmark, scheme,
                    n_instructions=instructions_for(benchmark, base),
                    warmup_fraction=WARMUP_FRACTION, seed_offset=seed)
            for benchmark, schemes in WORKLOADS[workload]
            for scheme in schemes]


@functools.lru_cache(maxsize=None)
def _walk(benchmark: str, length: int, seed_offset: int) -> Tuple[int, int]:
    stepped = largest = 0
    for record in make_trace(benchmark, length, seed_offset=seed_offset):
        stepped += 1 + record.gap
        largest = max(largest, 1 + record.gap)
    return stepped, largest


def trace_instructions(spec: RunSpec) -> Tuple[int, int]:
    """Instructions the cell steps in all, warm-up included, and the
    most that one trace record steps.

    Every record goes through ``CoreSimulator.step``.  The trace is
    ``n / (1 - warmup)`` instructions long, as ``run_single_program``
    builds it; the total only sizes ``kips``, so a change there moves
    ``kips`` but fails no check.
    """
    length = int(spec.n_instructions
                 / max(1e-9, 1.0 - spec.warmup_fraction))
    return _walk(spec.benchmark, length, spec.seed_offset)


def cell_statistics(result) -> Dict[str, object]:
    """Every simulated statistic of one ``SingleRunResult``."""
    metrics = result.metrics
    scalars = {field.name: getattr(metrics, field.name)
               for field in dataclasses.fields(metrics)
               if field.name not in ("miss_latencies", "miss_gaps")}
    series = {name: [len(values), series_total(values), list(values)]
              for name, values in (("miss_latencies", metrics.miss_latencies),
                                   ("miss_gaps", metrics.miss_gaps))}
    return {
        "benchmark": result.benchmark, "scheme": result.scheme,
        "metrics": scalars, "series": series,
        "compression_ratio": result.compression_ratio,
        "llc_stats": result.llc_stats,
        "energy": dataclasses.asdict(result.energy),
        "latency_histogram": sorted(result.latency_histogram.items()),
        "invalid_fraction": result.invalid_fraction,
        "symbol_counters": result.symbol_counters,
        "symbol_zero_counters": result.symbol_zero_counters,
    }


def cell_digest(result) -> str:
    """sha256 of :func:`cell_statistics`, floats at full precision
    ("" for a cell that raised)."""
    if isinstance(result, CellError):
        return ""
    text = json.dumps(cell_statistics(result), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def workload_digest(digests: Sequence[str]) -> str:
    return hashlib.sha256("".join(digests).encode("ascii")).hexdigest()


def check_cells(specs: Sequence[RunSpec], results: Sequence[object],
                largest: Sequence[int],
                reference: Sequence[str] = ()) -> List[str]:
    """Problems per cell ("" when the cell passed), in spec order.

    A cell fails if it raised, breaks miss accounting, measures more
    than its largest trace record (``largest``, see
    :func:`trace_instructions`) away from its budget (the warm-up and
    the trace end on record boundaries), reports an Uncompressed ratio
    above 1, sees a different front end than the other schemes on its
    benchmark, or (given ``reference`` digests from an earlier run)
    changed any simulated statistic.
    """
    problems = [""] * len(specs)
    fronts: Dict[str, set] = {}
    for index, (spec, result) in enumerate(zip(specs, results)):
        if isinstance(result, CellError):
            problems[index] = f"raised {result.exception}"
            continue
        m = result.metrics
        found = []
        if m.l1_misses != m.llc_hits + m.llc_misses:
            found.append("l1_misses != llc_hits + llc_misses")
        if m.memory_reads != m.llc_misses:
            found.append("memory_reads != llc_misses")
        if abs(m.instructions - spec.n_instructions) > largest[index]:
            found.append(f"measured {m.instructions} instructions for a "
                         f"budget of {spec.n_instructions}")
        if spec.scheme == "Uncompressed" and result.compression_ratio > 1:
            found.append(f"Uncompressed ratio {result.compression_ratio}")
        if reference and cell_digest(result) != reference[index]:
            found.append("statistics differ from the first run")
        problems[index] = "; ".join(found)
        fronts.setdefault(spec.benchmark, set()).add(
            (m.instructions, m.l1_accesses, m.l1_misses))
    for index, spec in enumerate(specs):
        if len(fronts.get(spec.benchmark, ())) > 1 and not problems[index]:
            problems[index] = "front end differs across schemes"
    return problems
