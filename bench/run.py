"""Benchmark of chorrev: three workloads, end-to-end metrics and a traced run.

    python3 bench/run.py --workload check-travel --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

``--trace 0`` measures the end-to-end metrics with chorrev untouched.
``--trace 1`` runs block 0 of the workload twice in one process, first
untouched and then with every public layer function wrapped, and reports
per-layer self times and exact counts; spans are written to
``.bench_out/``.  ``--smoke`` shrinks every workload to a few operations.
``--workload all`` runs the three workloads, each in its own process, and
prints every end-to-end metric.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
1 when an output check failed and 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 5  # per block

# Every workload reports every end-to-end metric; what each one means on a
# workload is printed beside it.
UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms", "peak_rss_mb": "MB"}
ALIASES = {
    "check-travel": {"ops_per_s": "verdicts_per_s", "op_p50_ms": "verdict_s, in ms", "op_tail_ms": "slowest verdict"},
    "walk-travel": {"ops_per_s": "walk_steps_per_s", "op_p50_ms": "step_p50_ms", "op_tail_ms": "step_p90_ms"},
    "compile-mix": {"ops_per_s": "compile_per_s", "op_p50_ms": "compile_p50_ms", "op_tail_ms": "compile_p90_ms"},
}


def fresh_import():
    """Import chorrev from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "chorrev" or n.startswith("chorrev.")]:
        del sys.modules[name]
    return importlib.import_module("chorrev")


def tail(samples: list[float], workload: str) -> float:
    """The tail the workload reports: p90 of its steps or protocols, or the slowest verdict."""
    if workload == "check-travel":
        return max(samples)
    return statistics.quantiles(samples, n=10)[8]


def measure(workload: str, seed: int, seconds: float, smoke: bool):
    """Repeat set-up and blocks until ``seconds`` have passed.

    Each block is preceded by ``SETUP_REPS`` set-ups, and runs on the last
    of them; spreading the set-ups over the run, rather than doing them all
    first, samples the machine's speed the same way the blocks do.  A new
    block starts only while its expected end is less than half a block past
    ``seconds``.
    """
    prepare, block = W.WORKLOADS[workload]
    setups = []
    outcome = W.Outcome()
    start = time.perf_counter()
    index = 0
    while index == 0 or (time.perf_counter() - start) * (1 + 0.5 / index) < seconds:
        for _ in range(SETUP_REPS):
            gc.collect()
            t = time.perf_counter()
            ch = fresh_import()
            state = prepare(ch, ch.causality.CausalityAnalyzer)
            setups.append(time.perf_counter() - t)
        done = block(ch, state, ch.causality.CausalityAnalyzer, seed, index, smoke)
        outcome.add(done)
        index += 1
    s = outcome.samples
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": len(s) / sum(s),
        "op_p50_ms": statistics.median(s) * 1000,
        "op_tail_ms": tail(s, workload) * 1000,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    outcome.counts["blocks"] = index
    outcome.counts["samples"] = len(s)
    report = [f"{workload} seed {seed}: {index} block(s), {len(s)} timed operations; counts are block 0's"]
    aliases = ALIASES[workload]
    for name, value in metrics.items():
        alias = f"  ({aliases[name]})" if name in aliases else ""
        report.append(f"  {name} = {value:.6g} {UNITS[name]}{alias}")
    report.append(f"  error_rate = {outcome.failed / outcome.attempted:.6g} ratio  ({outcome.failed}/{outcome.attempted})")
    return outcome, metrics, UNITS, report


def traced(workload: str, seed: int, smoke: bool):
    prepare, block = W.WORKLOADS[workload]
    ch = fresh_import()
    t = time.perf_counter()
    plain = ch.causality.CausalityAnalyzer
    block(ch, prepare(ch, plain), plain, seed, 0, smoke)
    untraced = time.perf_counter() - t

    spans = tracer.Tracer()
    timed = spans.install(ch)
    t = time.perf_counter()
    outcome = block(ch, prepare(ch, timed), timed, seed, 0, smoke)
    traced_wall = time.perf_counter() - t
    metrics = spans.metrics(traced_wall, untraced)
    path = OUT / f"{workload}-seed{seed}.spans.tsv.gz"
    spans.write(path)
    units = {name: tracer.unit(name) for name in metrics}
    report = [f"{workload} seed {seed}: traced block 0, {len(spans.start)} spans written to {path.relative_to(ROOT)}"]
    report += [f"  {name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    return outcome, metrics, units, report


def run_all(args) -> int:
    """Each workload in its own process; print their reports and a combined result."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{workload} did not finish (exit {proc.returncode})", file=sys.stderr)
            return 2
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="a few operations per workload")
    args = parser.parse_args(argv)

    if not (SRC / "chorrev" / "__init__.py").is_file() or not W.TRAVEL.is_file():
        print(f"chorrev sources or test data not found under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    W.golden()  # benchmark data, loaded before anything is timed
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        outcome, metrics, units, report = traced(args.workload, args.seed, args.smoke)
    else:
        outcome, metrics, units, report = measure(args.workload, args.seed, args.seconds, args.smoke)
    counts = ", ".join(f"{k}={v}" for k, v in sorted(outcome.counts.items()))
    print("\n".join(report + [f"  counts: {counts}"]))
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
