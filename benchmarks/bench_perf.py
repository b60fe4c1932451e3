"""Performance-trajectory harness: kernel speedups and engine legs.

Times the optimised compression kernels against their reference
implementations (``repro.conformance.codecs``), plus an observability
leg (``REPRO_OBS`` off vs on) and a verification leg (``REPRO_VERIFY``
and soft errors), then writes the measurements, with the resolved
``REPRO_*`` settings they ran under, to ``BENCH_perf.json``.  End-to-end
simulator speed is measured by ``perfbench/run.py``.

Every optimisation is bit-exact (enforced by
``tests/test_perf_equivalence.py``), so these numbers are pure speed:

    python benchmarks/bench_perf.py --quick     # CI-friendly, <60s
    python benchmarks/bench_perf.py             # full trajectory

The figure legs run in subprocesses so their ``REPRO_*`` knobs are set
before any module import.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.common import settings                         # noqa: E402
from repro.common.bitio import BitWriter                   # noqa: E402
from repro.compression.cpack import CPackCompressor        # noqa: E402
from repro.compression.fpc import FpcCompressor            # noqa: E402
from repro.compression.lbe import LbeCompressor, LbeDictionary  # noqa: E402
from repro.conformance.codecs import (                     # noqa: E402
    ReferenceBitWriter,
    reference_cpack_bits,
    reference_fpc_bits,
    reference_lbe_measure,
)
from repro.conformance.corpus import mixed_stream          # noqa: E402

#: active logs trialled per fill in the MORC cache (morc/cache.py)
TRIAL_LOGS = 8


def _timeit(fn, repeats: int = 3) -> float:
    """Best-of-N wall clock of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _trial_dictionaries(lines) -> list:
    """Dictionaries shaped like the cache's active logs mid-run: the
    lines are striped across them so each holds a partial view."""
    compressor = LbeCompressor()
    dictionaries = [LbeDictionary() for _ in range(TRIAL_LOGS)]
    for index, line in enumerate(lines):
        compressor.compress(line, dictionaries[index % TRIAL_LOGS],
                            commit=True)
    return dictionaries


def bench_lbe_measure(lines) -> dict:
    """The dominant hot path: trial placement measures every line
    against every active log's dictionary (8 measures per fill)."""
    dictionaries = _trial_dictionaries(lines)
    compressor = LbeCompressor()

    def reference() -> None:
        for line in lines:
            for dictionary in dictionaries:
                reference_lbe_measure(line, dictionary)

    def fast() -> None:
        for line in lines:
            for dictionary in dictionaries:
                compressor.measure(line, dictionary)

    reference_s = _timeit(reference)
    fast()  # warm the per-dictionary memos once, as a live run would
    fast_s = _timeit(fast)
    return {"reference_s": reference_s, "fast_s": fast_s,
            "speedup": reference_s / fast_s if fast_s else float("inf")}


def bench_line_codec(lines, compressor, reference_bits) -> dict:
    def reference() -> None:
        for line in lines:
            reference_bits(line)

    def fast() -> None:
        for line in lines:
            compressor.compress(line)

    reference_s = _timeit(reference)
    fast()
    fast_s = _timeit(fast)
    return {"reference_s": reference_s, "fast_s": fast_s,
            "speedup": reference_s / fast_s if fast_s else float("inf")}


def bench_bitio(n_fields: int) -> dict:
    """Many small writes — the shape every codec produces."""

    def run_writer(writer_cls) -> None:
        writer = writer_cls()
        for index in range(n_fields):
            writer.write(index & 0x1F, 7)
        writer.to_bytes()

    reference_s = _timeit(lambda: run_writer(ReferenceBitWriter))
    fast_s = _timeit(lambda: run_writer(BitWriter))
    return {"reference_s": reference_s, "fast_s": fast_s,
            "speedup": reference_s / fast_s if fast_s else float("inf")}


_FIGURE_SNIPPET = """\
import json, sys, time
sys.path.insert(0, {src!r})
from repro.experiments import figure6
started = time.perf_counter()
result = figure6.run(benchmarks={benchmarks!r},
                     n_instructions={n_instructions},
                     schemes={schemes!r})
elapsed = time.perf_counter() - started
ratios = {{scheme: [round(r.compression_ratio, 6) for r in runs]
          for scheme, runs in result.runs.items()}}
print(json.dumps({{"elapsed_s": elapsed, "ratios": ratios}}))
"""


def _figure_leg(benchmarks, n_instructions, schemes, jobs: int,
                obs_trace: str = "", extra_env: dict = None) -> dict:
    env = dict(os.environ)
    env["REPRO_JOBS"] = str(jobs)
    if obs_trace:
        env["REPRO_OBS"] = "1"
        env["REPRO_OBS_TRACE"] = obs_trace
    else:
        env["REPRO_OBS"] = "0"
    for knob in ("REPRO_SOFT_ERRORS", "REPRO_SOFT_ERROR_POLICY",
                 "REPRO_VERIFY"):
        env.pop(knob, None)
    if extra_env:
        env.update(extra_env)
    snippet = _FIGURE_SNIPPET.format(
        src=str(SRC), benchmarks=list(benchmarks),
        n_instructions=n_instructions, schemes=tuple(schemes))
    output = subprocess.run(
        [sys.executable, "-c", snippet], env=env, check=True,
        capture_output=True, text=True).stdout
    return json.loads(output.strip().splitlines()[-1])


def bench_verify(benchmarks, n_instructions, schemes) -> dict:
    """Cost of the data-plane resilience features on a figure-6 grid.

    Three serial legs: the default, ``REPRO_VERIFY=1``
    (round-trip + invariant checks on every insert/sample), and soft
    errors injected at 1e-4 per stored bit with the refetch policy.
    Verification observes without perturbing, so its leg must stay
    bit-identical to the baseline; the injection leg changes behaviour
    by design (lines are refetched) and only has to complete.
    """
    base = _figure_leg(benchmarks, n_instructions, schemes, jobs=1)
    verified = _figure_leg(benchmarks, n_instructions, schemes, jobs=1,
                           extra_env={"REPRO_VERIFY": "1"})
    if base["ratios"] != verified["ratios"]:
        raise AssertionError("REPRO_VERIFY changed simulation results: "
                             "verification must only observe")
    injected = _figure_leg(
        benchmarks, n_instructions, schemes, jobs=1,
        extra_env={"REPRO_SOFT_ERRORS": "1e-4",
                   "REPRO_SOFT_ERROR_POLICY": "refetch"})
    verify_overhead = verified["elapsed_s"] / base["elapsed_s"] - 1.0
    inject_overhead = injected["elapsed_s"] / base["elapsed_s"] - 1.0
    return {
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "n_instructions": n_instructions,
        "base_s": base["elapsed_s"],
        "verify_s": verified["elapsed_s"],
        "verify_overhead_pct": verify_overhead * 100.0,
        "soft_errors_s": injected["elapsed_s"],
        "soft_errors_overhead_pct": inject_overhead * 100.0,
        "soft_error_rate": 1e-4,
        "bit_exact": True,
    }


def bench_observability(benchmarks, n_instructions, schemes) -> dict:
    """Tracing-off vs tracing-on cost of the same grid.

    Both legs run serial so the only difference is ``REPRO_OBS``;
    results must stay bit-identical either way (the tracer observes,
    never perturbs), and the off leg's overhead versus a default run is
    what the <5% acceptance bound measures.
    """
    import tempfile
    off = _figure_leg(benchmarks, n_instructions, schemes, jobs=1)
    handle, trace_path = tempfile.mkstemp(suffix=".jsonl",
                                          prefix="repro_obs_bench_")
    os.close(handle)
    try:
        on = _figure_leg(benchmarks, n_instructions, schemes, jobs=1,
                         obs_trace=trace_path)
        with open(trace_path, "rb") as stream:
            events = sum(1 for _ in stream)
    finally:
        os.unlink(trace_path)
    if off["ratios"] != on["ratios"]:
        raise AssertionError("tracing changed simulation results: "
                             "the tracer must only observe")
    overhead = on["elapsed_s"] / off["elapsed_s"] - 1.0
    return {
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "n_instructions": n_instructions,
        "obs_off_s": off["elapsed_s"],
        "obs_on_s": on["elapsed_s"],
        "overhead_pct": overhead * 100.0,
        "events": events,
        "bit_exact": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized corpora and grid (<60s)")
    parser.add_argument("-o", "--output",
                        default=str(REPO_ROOT / "BENCH_perf.json"),
                        help="where to write the JSON trajectory")
    args = parser.parse_args(argv)

    if args.quick:
        corpus = mixed_stream(200)
        bitio_fields = 50_000
        grid = dict(benchmarks=("gcc", "hmmer"), n_instructions=15_000,
                    schemes=("Uncompressed", "MORC"))
    else:
        corpus = mixed_stream(1_000)
        bitio_fields = 200_000
        # MORC-family schemes: every cell exercises the optimised
        # kernels, so the single-core leg shows the kernel gains and the
        # pool multiplies them on multi-core hosts (12 cells).
        grid = dict(benchmarks=("gcc", "hmmer", "mcf", "soplex"),
                    n_instructions=60_000,
                    schemes=("MORC", "MORCMerged", "MORC-CPack"))

    print(f"kernel corpora: {len(corpus)} lines"
          f" ({'quick' if args.quick else 'full'} mode)")
    kernels = {}
    kernels["lbe_measure_trial_placement"] = bench_lbe_measure(corpus)
    kernels["cpack_compress"] = bench_line_codec(
        corpus, CPackCompressor(), reference_cpack_bits)
    kernels["fpc_compress"] = bench_line_codec(
        corpus, FpcCompressor(), reference_fpc_bits)
    kernels["bitwriter"] = bench_bitio(bitio_fields)
    for name, numbers in kernels.items():
        print(f"  {name:32s} {numbers['reference_s']:.3f}s -> "
              f"{numbers['fast_s']:.3f}s  ({numbers['speedup']:.2f}x)")

    print(f"figure6 grid: {grid['benchmarks']} x "
          f"{grid['schemes']} @ {grid['n_instructions']} instructions")
    observability = bench_observability(**grid)
    print(f"  obs off {observability['obs_off_s']:.2f}s -> "
          f"obs on {observability['obs_on_s']:.2f}s  "
          f"({observability['overhead_pct']:+.1f}%, "
          f"{observability['events']} events, bit-exact)")

    verify = bench_verify(**grid)
    print(f"  verify on {verify['verify_s']:.2f}s "
          f"({verify['verify_overhead_pct']:+.1f}%, bit-exact), "
          f"soft errors@1e-4 {verify['soft_errors_s']:.2f}s "
          f"({verify['soft_errors_overhead_pct']:+.1f}%)")

    payload = {
        "mode": "quick" if args.quick else "full",
        "host_cpus": os.cpu_count(),
        # the harness's resolved knobs; each figure leg's subprocess
        # then sets its own REPRO_JOBS/REPRO_OBS/REPRO_VERIFY/soft errors
        "settings": settings.current().as_dict(),
        "kernels": kernels,
        "observability": observability,
        "verify": verify,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
