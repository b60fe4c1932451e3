"""Command-line interface: ``python -m repro <command> [options]``.

Commands mirror the paper's evaluation:

- ``run`` — one (benchmark, scheme) simulation with a summary line
- ``figure2`` / ``figure6`` / ... / ``figure15`` / ``table1`` /
  ``table4`` / ``ablations`` — regenerate a table or figure
- ``check`` — differential conformance sweep against the golden
  reference models (``docs/verification.md``)
- ``list`` — available benchmarks, schemes, experiments and env knobs
- ``obs`` — summarise an observability trace (``REPRO_OBS=1`` runs)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

from repro.experiments import (
    ablations,
    extensions,
    microbench,
    variance,
    figure2,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    table1,
    table4,
)
from repro.sim.system import ALL_SCHEMES, run_single_program
from repro.sim.throughput import coarse_grain_throughput
from repro.workloads.mixes import ALL_MULTI_WORKLOADS
from repro.workloads.spec import ALL_SINGLE_PROGRAMS

EXPERIMENTS = {
    "table1": table1,
    "table4": table4,
    "figure2": figure2,
    "figure6": figure6,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "figure10": figure10,
    "figure11": figure11,
    "figure12": figure12,
    "figure13": figure13,
    "figure14": figure14,
    "figure15": figure15,
    "ablations": ablations,
    "extensions": extensions,
    "microbench": microbench,
    "variance": variance,
}

RUNNABLE_SCHEMES = ALL_SCHEMES + ("Skewed", "MORCMerged", "MORC-CPack",
                                  "MORC-LZ", "Uncompressed8x")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of MORC (MICRO 2015)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="simulate one benchmark under one scheme")
    run_parser.add_argument("benchmark")
    run_parser.add_argument("scheme", choices=RUNNABLE_SCHEMES)
    run_parser.add_argument("-n", "--instructions", type=int,
                            default=120_000)
    run_parser.add_argument("--bandwidth-mb", type=float, default=100.0,
                            help="per-thread bandwidth cap (MB/s)")
    run_parser.add_argument("--llc-kb", type=int, default=128,
                            help="per-core LLC capacity (KB)")

    for name, module in EXPERIMENTS.items():
        experiment_parser = subparsers.add_parser(
            name, help=(module.__doc__ or "").strip().splitlines()[0])
        experiment_parser.add_argument("-b", "--benchmarks", nargs="*",
                                       default=None)
        experiment_parser.add_argument("-n", "--instructions", type=int,
                                       default=None)
        experiment_parser.add_argument(
            "--checkpoint", default=None, metavar="PATH",
            help="journal every finished cell to PATH so a killed "
                 "sweep can be resumed")
        experiment_parser.add_argument(
            "--resume", default=None, metavar="PATH",
            help="resume from checkpoint PATH, re-running only "
                 "missing/failed cells (implies --checkpoint PATH)")
        experiment_parser.add_argument(
            "--on-error", dest="on_error", default="raise",
            choices=("raise", "skip"),
            help="what a failed cell does to the grid: abort it "
                 "(raise, the default) or leave a failure in its slot "
                 "(skip)")

    report_parser = subparsers.add_parser(
        "report", help="run the full evaluation and write a markdown "
                       "report")
    report_parser.add_argument("-o", "--output", default="report.md")
    report_parser.add_argument("-b", "--benchmarks", nargs="*",
                               default=None)
    report_parser.add_argument("-n", "--instructions", type=int,
                               default=None)
    report_parser.add_argument("--fast", action="store_true",
                               help="skip the slow multi-program and "
                                    "sweep sections")

    anatomy_parser = subparsers.add_parser(
        "anatomy", help="decompose MORC's compression ratio on a benchmark")
    anatomy_parser.add_argument("benchmark")
    anatomy_parser.add_argument("-n", "--instructions", type=int,
                                default=120_000)

    trace_parser = subparsers.add_parser(
        "trace", help="export a synthetic benchmark trace to a file")
    trace_parser.add_argument("benchmark")
    trace_parser.add_argument("path",
                              help="output file (.trc or .trc.gz)")
    trace_parser.add_argument("-n", "--instructions", type=int,
                              default=120_000)

    check_parser = subparsers.add_parser(
        "check", help="replay deterministic streams through production "
                      "models and their golden references, diffing "
                      "every step")
    depth = check_parser.add_mutually_exclusive_group()
    depth.add_argument("--quick", action="store_true",
                       help="2 stream mixes, short replays (default)")
    depth.add_argument("--deep", action="store_true",
                       help="all 4 mixes, longer replays, extra MORC "
                            "variants")
    check_parser.add_argument("--seed", type=int, action="append",
                              default=None, metavar="N",
                              help="replay seed; repeat for several "
                                   "(default 0 1 2)")
    check_parser.add_argument("-c", "--component", action="append",
                              default=None, dest="components",
                              help="restrict to a component (repeatable): "
                                   "policies, set-caches, morc, "
                                   "channels, metrics")

    obs_parser = subparsers.add_parser(
        "obs", help="summarise a JSONL observability trace")
    obs_parser.add_argument("trace_path",
                            help="trace file (REPRO_OBS_TRACE output)")
    obs_parser.add_argument("--top", type=int, default=8,
                            help="rows per ranking table")

    subparsers.add_parser("list", help="list benchmarks and schemes")
    return parser


def _command_run(args: argparse.Namespace) -> int:
    from repro.common.config import SystemConfig
    config = SystemConfig().with_llc_size(args.llc_kb * 1024)
    config = config.with_bandwidth(args.bandwidth_mb * 1e6)
    result = run_single_program(args.benchmark, args.scheme, config=config,
                                n_instructions=args.instructions)
    throughput = coarse_grain_throughput(result.metrics)
    print(f"{args.benchmark} / {args.scheme}: "
          f"ratio={result.compression_ratio:.2f}x  "
          f"bw={result.bandwidth_gb:.2f}GB/1e9  "
          f"ipc={result.ipc:.4f}  throughput={throughput:.4f}  "
          f"energy={result.energy.total_j * 1e3:.3f}mJ")
    return 0


def _command_experiment(name: str, args: argparse.Namespace) -> int:
    module = EXPERIMENTS[name]
    kwargs = {}
    if name in ("table1", "table4"):
        print(module.render(module.run()))
        return 0
    if getattr(args, "benchmarks", None):
        key = {"figure8": "mixes", "microbench": "micros"}.get(
            name, "benchmarks")
        kwargs[key] = args.benchmarks
    if getattr(args, "instructions", None):
        key = ("n_instructions_each" if name == "figure8"
               else "n_instructions")
        kwargs[key] = args.instructions
    checkpoint = (getattr(args, "resume", None)
                  or getattr(args, "checkpoint", None))
    on_error = getattr(args, "on_error", "raise")
    if checkpoint or on_error != "raise":
        from repro.experiments.parallel import EngineOptions
        kwargs["engine"] = EngineOptions(
            on_error=on_error, checkpoint=checkpoint,
            resume=bool(getattr(args, "resume", None)))
    result = module.run(**kwargs)
    from repro.experiments import parallel
    errors = parallel.last_errors()
    if errors:
        # Under --on-error skip the grid completed around the
        # failed cells, but the table math can't aggregate CellError
        # slots — report the failures instead of a traceback.
        print(f"{len(errors)} cell(s) failed; partial results "
              "not rendered:", file=sys.stderr)
        for cell in errors:
            print(f"  {cell.summary()}", file=sys.stderr)
        if checkpoint:
            print(f"finished cells are journaled; re-run with "
                  f"--resume {checkpoint} to complete the grid",
                  file=sys.stderr)
        return 1
    print(module.render(result))
    return 0


def _command_list() -> int:
    print("schemes:")
    for scheme in RUNNABLE_SCHEMES:
        print(f"  {scheme}")
    print("\nexperiments:")
    for name in EXPERIMENTS:
        print(f"  {name}")
    print("\nmulti-program mixes:")
    print("  " + " ".join(ALL_MULTI_WORKLOADS))
    print("\nbenchmarks:")
    for name in ALL_SINGLE_PROGRAMS:
        print(f"  {name}")
    from repro.common.settings import ALL_CATEGORIES, Settings
    print("\nobservability categories (REPRO_OBS_CATEGORIES):")
    print("  " + " ".join(ALL_CATEGORIES))
    from repro.conformance.driver import ALL_COMPONENTS
    from repro.conformance.streams import STREAM_MIXES
    print("\nconformance components (repro check -c):")
    print("  " + " ".join(ALL_COMPONENTS))
    print("\nconformance stream mixes:")
    print("  " + " ".join(STREAM_MIXES))
    print("\nenvironment knobs:")
    for knob in fields(Settings):
        print(f"  {knob.metadata['env']:<26}{knob.metadata['help']} "
              f"(default {knob.metadata['default']})")
    return 0


def _command_check(args: argparse.Namespace) -> int:
    from repro.conformance import run_check
    from repro.conformance.driver import ALL_COMPONENTS
    if args.components:
        unknown = set(args.components) - set(ALL_COMPONENTS)
        if unknown:
            print(f"unknown component(s): {', '.join(sorted(unknown))}; "
                  f"choose from {', '.join(ALL_COMPONENTS)}",
                  file=sys.stderr)
            return 2
    report = run_check(deep=args.deep, seeds=args.seed,
                       components=args.components)
    print(report.render())
    return 0 if report.passed else 1


def _command_obs(args: argparse.Namespace) -> int:
    from repro.obs.summary import render, summarize
    try:
        summary = summarize(args.trace_path)
    except OSError as error:
        print(f"cannot read trace: {error}", file=sys.stderr)
        return 1
    print(render(summary, top=args.top))
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.workloads.io import write_trace
    from repro.workloads.spec import make_trace
    trace = make_trace(args.benchmark, args.instructions)
    count = write_trace(args.path, trace)
    print(f"wrote {count} records ({args.instructions:,} instructions) "
          f"to {args.path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _command_run(args)
    if args.command == "list":
        return _command_list()
    if args.command == "check":
        return _command_check(args)
    if args.command == "obs":
        return _command_obs(args)
    if args.command == "trace":
        return _command_trace(args)
    if args.command == "anatomy":
        from repro.morc.anatomy import analyze_benchmark, render
        print(render(args.benchmark, analyze_benchmark(
            args.benchmark, n_instructions=args.instructions)))
        return 0
    if args.command == "report":
        from repro.experiments.full_report import generate
        text = generate(benchmarks=args.benchmarks,
                        n_instructions=args.instructions,
                        include_slow=not args.fast)
        with open(args.output, "w") as handle:
            handle.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
        return 0
    return _command_experiment(args.command, args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
