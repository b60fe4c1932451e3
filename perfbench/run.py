"""Host-time throughput benchmark of the MORC simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig6-row --seed 0 --trace 0

The workload's cells run serially through
``repro.experiments.parallel.run_cells(specs, jobs=1)``, pass after
pass, until ``--seconds`` have gone by (at least two passes, so every
cell is checked against its own repeat).  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` adds one traced pass and prints the
per-layer metrics.  Times are reference seconds: host seconds corrected
for the host's speed, sampled during each pass (:class:`HostSpeed`).
The last stdout line is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2
#: fresh processes timed for ``setup_s``; the median is reported
SETUP_SAMPLES = 7
#: iterations of the reference loop timed for ``setup_s`` (about 0.2 s)
REF_ITERATIONS = 400_000
#: during a pass the loop runs for REF_SAMPLE_ITERATIONS (about 20 ms)
#: every REF_PERIOD seconds, from a timer signal, so it samples the
#: host's speed while the cells run, on their vCPU (the other vCPU's
#: speed did not follow it)
REF_PERIOD = 0.5
REF_SAMPLE_ITERATIONS = 40_000
#: reference-loop iterations per reference second: a round figure inside
#: the loop's range on a shared 2 GHz Xeon vCPU under Python 3.11
#: (1.0-3.0 million/s as other tenants' load came and went)
REF_RATE = 2_000_000
#: how strongly the simulator's speed follows the loop's: the slope of
#: log pass speed on log loop speed was 0.38-0.71 over 10-run samples
#: on that vCPU, and 0.5 left the least pass-to-pass spread
#: (correcting in full over-corrects)
REF_ELASTICITY = 0.5


@dataclass
class Pass:
    """One serial pass over a workload's cells."""

    #: host seconds of the whole pass and of each cell, loop samples
    #: taken out
    wall: float
    cell_seconds: List[float]
    #: reference seconds per host second, per cell and for the pass
    cell_factors: List[float]
    factor: float
    #: median reference-loop rate during the pass (iterations/s)
    rate: float
    problems: List[str] = field(default_factory=list)


def reference_factor(rate: float) -> float:
    """Reference seconds per host second at loop speed ``rate``."""
    return (rate / REF_RATE) ** REF_ELASTICITY


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--instructions", type=int, default=None,
                        help="base budget per cell (default: the "
                        "benchmark's; the figures use 120000)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else.

    ``REPRO_*`` knobs are dropped first so the benchmark always measures
    the default settings, whatever the caller's environment holds.
    """
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no simulator source at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__},"
                         f" not from {SRC}")


def reference_rate(iterations: int = REF_ITERATIONS) -> float:
    """Iterations per host second of a fixed pure-Python loop.

    On a shared 2 GHz Xeon vCPU, other tenants slowed the simulator by
    up to 2x, in dips of a second or two and for minutes at a time.
    The loop does the simulator's kind of work (dict updates, bytes
    slices, integer ops) but none of its code, so host seconds scaled by
    its speed ("reference seconds", :func:`reference_factor`) lose most of
    that drift and keep every change to ``src``.
    """
    table = {key: 0 for key in range(4096)}
    blob = bytes(range(256)) * 8
    acc = 0
    started = time.perf_counter()
    for i in range(iterations):
        key = (i * 2654435761) & 0xFFF
        table[key] = table[key] + 1
        acc += blob[(key & 0x3FF):(key & 0x3FF) + 16][3] ^ (i & 7)
    return iterations / (time.perf_counter() - started)


class HostSpeed:
    """Times the reference loop every REF_PERIOD seconds while active.

    The timer signal's handler runs between two bytecodes of whatever
    the simulator is doing, on the same vCPU, so the samples follow the
    host's speed through the pass.  Each sample is ``(start, seconds,
    rate)``; its seconds are taken out of the pass's host time.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float, float]] = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        rate = reference_rate(REF_SAMPLE_ITERATIONS)
        self.samples.append((started, time.perf_counter() - started, rate))

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD, REF_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def measure_setup(args) -> float:
    """Median reference seconds from a fresh process's start to its
    first cell."""
    command = [sys.executable, str(HERE / "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--instructions", str(args.instructions), "--setup-probe"]
    samples = []
    before = reference_rate()
    for _ in range(SETUP_SAMPLES):
        started = time.monotonic()
        probe = subprocess.run(command, cwd=ROOT, capture_output=True,
                               text=True, timeout=120, check=True)
        samples.append(float(probe.stdout.split()[-1]) - started)
    rate = (before + reference_rate()) / 2
    return statistics.median(samples) * reference_factor(rate)


def run_pass(specs, engine, sample: bool = True):
    """Run every cell once, serially; returns the pass and its results.

    With ``sample``, the host's speed is sampled during the pass
    (:class:`HostSpeed`); the cells ran back to back, so each sample
    belongs to the cell whose span of the pass it started in.
    """
    from repro.experiments.parallel import last_timings, run_cells
    speed = HostSpeed()
    started = time.perf_counter()
    if sample:
        with speed:
            results = run_cells(specs, jobs=1, engine=engine)
    else:
        results = run_cells(specs, jobs=1, engine=engine)
    wall = time.perf_counter() - started
    seconds = {timing.label: timing.seconds for timing in last_timings()}
    cell_seconds = [seconds.get(spec.timing_label(), 0.0) for spec in specs]
    rates = [rate for _, _, rate in speed.samples]
    rate = statistics.median(rates) if rates else REF_RATE
    host, factors = [], []
    cell_start = started
    for cell in cell_seconds:
        inside = [(spent, sampled) for at, spent, sampled in speed.samples
                  if cell_start <= at < cell_start + cell]
        host.append(cell - sum(spent for spent, _ in inside))
        cell_rate = (statistics.median(sampled for _, sampled in inside)
                     if inside else rate)
        factors.append(reference_factor(cell_rate))
        cell_start += cell
    wall -= sum(spent for _, spent, _ in speed.samples)
    factor = (sum(h * f for h, f in zip(host, factors)) / sum(host)
              if sum(host) else 1.0)
    return Pass(wall, host, factors, factor, rate), results


def kips(instructions, passes, cells=None, host=False) -> float:
    """Median over passes of kilo-instructions per reference second (per
    host second with ``host``); over the whole pass, or over the
    ``cells`` indices only."""
    def one(run: Pass) -> float:
        if cells is None:
            seconds = run.wall * (1.0 if host else run.factor)
            count = sum(instructions)
        else:
            seconds = sum(run.cell_seconds[i]
                          * (1.0 if host else run.cell_factors[i])
                          for i in cells)
            count = sum(instructions[i] for i in cells)
        return count / seconds
    return statistics.median(one(run) for run in passes) / 1000.0


def main(argv=None) -> int:
    args = parse_args(argv)
    import_repro()
    import cells
    from repro.experiments.parallel import EngineOptions
    if args.workload not in cells.WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}; "
                         f"choose from {sorted(cells.WORKLOADS)}")
    if args.instructions is None:
        args.instructions = cells.BASE_INSTRUCTIONS
    specs = cells.build_specs(args.workload, args.seed, args.instructions)
    if args.setup_probe:
        print(repr(time.monotonic()))
        return 0

    setup_s = None if args.trace else measure_setup(args)
    instructions, largest = zip(*map(cells.trace_instructions, specs))
    engine = EngineOptions(on_error="skip")
    labels = [spec.timing_label() for spec in specs]
    morc = [i for i, spec in enumerate(specs)
            if spec.scheme in cells.MORC_SCHEMES]
    baseline = [i for i, spec in enumerate(specs)
                if spec.scheme in cells.BASELINE_SCHEMES]

    passes: List[Pass] = []
    reference: List[str] = []
    started = time.perf_counter()
    # run a pass if it should end less than half a pass past --seconds
    while (len(passes) < MIN_PASSES
           or time.perf_counter() - started + passes[-1].wall / 2
           <= args.seconds):
        run, results = run_pass(specs, engine)
        if not passes:
            reference = [cells.cell_digest(result) for result in results]
        run.problems = cells.check_cells(specs, results, largest,
                                         reference if passes else ())
        passes.append(run)
        del results  # one pass's results in memory, however many passes
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{len(passes)} passes: " + " ".join(
        f"{run.wall:.3f}s" for run in passes) + "; reference loop "
        + " ".join(f"{run.rate / 1e6:.3f}M/s" for run in passes)
        + "; reference s per host s "
        + " ".join(f"{run.factor:.3f}" for run in passes))

    if args.trace:
        from spans import SpanTracer, ledger, llc_lines, span_cost
        with SpanTracer() as tracer:
            traced, results = run_pass(specs, engine, sample=False)
        traced.problems = cells.check_cells(specs, results, largest,
                                            reference)
        # an untraced pass right after, so each traced cell is compared
        # with the same cell just before and just after it
        after, after_results = run_pass(specs, engine)
        after.problems = cells.check_cells(specs, after_results, largest,
                                           reference)
        del after_results
        passes_checked = passes + [traced, after]
        untraced = [(before + later) / 2 for before, later in
                    zip(passes[-1].cell_seconds, after.cell_seconds)]
        report = ledger(tracer, traced.cell_seconds)
        OUT.mkdir(exist_ok=True)
        tracer.save(str(OUT / f"spans-{args.workload}-seed{args.seed}.npz"),
                    labels)
        metrics = layer_metrics(report, traced, results, passes, untraced,
                                llc_lines())
        print_ledger(report, labels, traced.cell_seconds, untraced,
                     llc_lines())
        added, outside = span_cost()
        spans = len(tracer.start)
        print(f"span cost: {added * 1e6:.3f} us per call, "
              f"{outside * 1e6:.3f} us of it outside the span's own clock "
              f"(charged to the enclosing span's self time); "
              f"{spans} spans ~ {spans * outside:.3f} s charged to parents, "
              f"{spans * added:.3f} s added in all")
    else:
        passes_checked = passes
        metrics = {
            "kips": (kips(instructions, passes), "kinstr/ref-s"),
            "kips.morc": (kips(instructions, passes, morc), "kinstr/ref-s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        print(f"host-time kips {kips(instructions, passes, host=True)!r} "
              f"kips.morc {kips(instructions, passes, morc, host=True)!r}"
              f" kinstr/s")
        if baseline:
            print(f"kips.baseline "
                  f"{kips(instructions, passes, baseline):.3f} kinstr/ref-s")

    attempted = sum(len(run.problems) for run in passes_checked)
    failed = 0
    for run in passes_checked:
        for label, problem in zip(labels, run.problems):
            if problem:
                failed += 1
                print(f"FAIL {label}: {problem}")
    print(f"workload {args.workload} seed {args.seed}: "
          f"fail_rate {failed}/{attempted}")
    print(f"digest {args.workload} seed {args.seed} "
          f"{cells.workload_digest(reference)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def layer_metrics(report, traced: Pass, results, passes: List[Pass],
                  untraced: List[float], lines: int):
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    from repro.common.errors import CellError
    layers = report["by_layer"]

    def total(*names, column=0):
        return sum(layers.get(name, (0, 0.0, 0))[column] for name in names)

    def rate(name):
        calls, _, hits = layers.get(name, (0, 0.0, -1))
        return hits / calls if calls and hits >= 0 else 0.0

    flushes = sum(result.llc_stats.get("flush_writebacks", 0.0)
                  for result in results if not isinstance(result, CellError))
    warmup_fill = statistics.mean(inserts / lines
                                  for inserts in report["warmup_inserts"])
    engine_overhead = statistics.median(run.wall - sum(run.cell_seconds)
                                        for run in passes)
    l1 = ("cache.l1.lookup", "cache.l1.fill")
    mem = ("mem.read", "mem.write")
    return {
        "workloads.records": (layers["workloads"][2], "count"),
        "workloads.self_s": (total("workloads", column=1), "s"),
        "sim.core.steps": (total("sim.core"), "count"),
        "sim.core.self_s": (total("sim.core", "sim.core.run", column=1),
                            "s"),
        "cache.l1.calls": (total(*l1), "count"),
        "cache.l1.self_s": (total(*l1, column=1), "s"),
        "cache.l1.hit_rate": (rate("cache.l1.lookup"), "ratio"),
        "morc.read.calls": (total("morc.read"), "count"),
        "morc.read.self_s": (total("morc.read", column=1), "s"),
        "morc.insert.calls": (total("morc.insert"), "count"),
        "morc.insert.self_s": (total("morc.insert", column=1), "s"),
        "morc.hit_rate": (rate("morc.read"), "ratio"),
        "morc.trial_yield": (total("compression.lbe.compress")
                             / max(1, total("compression.lbe.measure")),
                             "ratio"),
        "morc.flush_writebacks": (flushes, "count"),
        "compression.lbe.measure.calls": (total("compression.lbe.measure"),
                                          "count"),
        "compression.lbe.measure.self_s": (
            total("compression.lbe.measure", column=1), "s"),
        "compression.lbe.compress.calls": (total("compression.lbe.compress"),
                                           "count"),
        "compression.lbe.compress.self_s": (
            total("compression.lbe.compress", column=1), "s"),
        "compression.tag.calls": (total("compression.tag"), "count"),
        "compression.tag.self_s": (total("compression.tag", column=1), "s"),
        "mem.calls": (total(*mem), "count"),
        "mem.self_s": (total(*mem, column=1), "s"),
        "mem.write_frac": (total("mem.write") / max(1, total(*mem)),
                           "ratio"),
        "mem.queue_wait_cycles": (report["queue_wait_per_read"], "cycles"),
        "sim.warmup_fill": (warmup_fill, "ratio"),
        "experiments.engine_overhead_s": (engine_overhead, "s"),
        "trace.overhead_pct": (
            (sum(traced.cell_seconds) / sum(untraced) - 1) * 100, "%"),
        "trace.coverage_pct": (min(report["coverage"]) * 100, "%"),
    }


def print_ledger(report, labels, cell_seconds, untraced, lines) -> None:
    """Human-readable per-layer table of the traced pass."""
    traced_total = sum(cell_seconds)
    print(f"{'layer':34s} {'calls':>9s} {'self_s':>9s} {'share':>7s} "
          f"{'hit_rate':>8s}")
    for name, (calls, self_s, hits) in sorted(
            report["by_layer"].items(), key=lambda item: -item[1][1]):
        if not calls:
            continue
        hit_rate = f"{hits / calls:.4f}" if hits >= 0 and calls else "-"
        print(f"{name:34s} {calls:9d} {self_s:9.4f} "
              f"{100 * self_s / traced_total:6.2f}% {hit_rate:>8s}")
    for label, coverage, inserts, traced, plain in zip(
            labels, report["coverage"], report["warmup_inserts"],
            cell_seconds, untraced):
        print(f"cell {label:24s} coverage {100 * coverage:6.2f}%  "
              f"tracing {100 * (traced / plain - 1):+6.1f}%  "
              f"warm-up LLC inserts {inserts} = {inserts / lines:.3f} x "
              f"{lines} lines")


if __name__ == "__main__":
    sys.exit(main())
