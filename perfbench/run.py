"""kmse benchmark: closed-loop workloads through the public CLI entry point.

    python3 perfbench/run.py --workload mc_risk --seed 0 --seconds 30 --trace 0

Runs one workload from BENCHMARK.json in this process, one operation at a
time, for at least ``--seconds`` seconds of whole cycles, checks every
operation's output against perfbench/reference.json, and prints a detail
line (provenance, tail percentile, failures) followed by the result line
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced cycles with cycles
under the layer tracer and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl
from tracing import ROOT_SPAN, Tracer

SETUP_REPEATS = 9
TAIL_BEYOND = 10
IMPORT_SNIPPET = "import sys; sys.path.insert(0, sys.argv[1]); import kmse.cli"


@dataclass
class Sample:
    name: str
    wall: float
    cpu: float
    units: int
    ok: bool


@dataclass
class Phase:
    samples: list[Sample] = field(default_factory=list)
    cycle_walls: list[float] = field(default_factory=list)


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (wl.ROOT / ".git").exists() and shutil.which("git"):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(wl.ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, env=env,
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or None
    sources = hashlib.sha256()
    for path in sorted((wl.ROOT / "src" / "kmse").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "kmse_sources_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "KMSE_THREADS": os.environ.get("KMSE_THREADS"),
    }


def setup_once(name, size, input_seed, workdir) -> float:
    """Import kmse in a fresh interpreter and write the inputs; seconds taken."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT_SNIPPET, str(wl.ROOT / "src")],
                   cwd=wl.ROOT, check=True)
    wl.make_inputs(name, size, input_seed, workdir)
    return time.perf_counter() - start


def run_op(main, op, expected, tracer, op_id) -> Sample:
    op.output.unlink(missing_ok=True)  # never check the previous cycle's output
    wall0, cpu0 = time.perf_counter(), time.process_time()
    try:
        rc = tracer.root(op_id, main, list(op.argv)) if tracer else main(list(op.argv))
    except Exception:  # a crash is one failed operation; keep measuring
        traceback.print_exc()
        rc = None
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    try:
        problem = f"{op.name}: exit code {rc}" if rc != 0 else wl.mismatch(op, expected)
    except (OSError, ValueError, KeyError) as exc:
        problem = f"{op.name}: unreadable output ({exc!r})"
    if problem:
        print(f"perfbench: FAIL {problem}", file=sys.stderr)
    return Sample(op.name, wall, cpu, op.units, problem is None)


def run_cycle(main, workload, expected, phase: Phase, tracer=None) -> None:
    start = time.perf_counter()
    for op in workload.cycle:
        op_id = f"{len(phase.samples) + 1}:{op.name}"
        phase.samples.append(run_op(main, op, expected[op.name], tracer, op_id))
    phase.cycle_walls.append(time.perf_counter() - start)


def run_cycles(main, workload, expected, seconds) -> Phase:
    """Run whole cycles, at least one, until ``seconds`` have passed."""
    phase = Phase()
    start = time.perf_counter()
    while True:
        run_cycle(main, workload, expected, phase)
        if time.perf_counter() - start >= seconds:
            return phase


def run_traced(main, workload, expected, seconds, tracer) -> tuple[Phase, Phase]:
    """Alternate untraced and traced cycles, so both see the same machine."""
    untraced, traced = Phase(), Phase()
    start = time.perf_counter()
    while True:
        run_cycle(main, workload, expected, untraced)
        tracer.install()
        try:
            run_cycle(main, workload, expected, traced, tracer)
        finally:
            tracer.uninstall()
        if time.perf_counter() - start >= seconds:
            return untraced, traced


def tail(latencies: list[float]) -> dict:
    """Highest percentile with at least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:  # too few samples for a tail: report the maximum
        return {"value": ordered[-1], "percentile": 100.0, "samples": count}
    return {"value": ordered[count - 1 - TAIL_BEYOND],
            "percentile": 100.0 * (count - TAIL_BEYOND) / count, "samples": count}


def end_to_end(phase: Phase, cycle_len: int, setup_times: list[float]) -> tuple[dict, dict]:
    """Medians over whole cycles, so a burst of machine noise moves them little."""
    samples = phase.samples
    cycles = [samples[i:i + cycle_len] for i in range(0, len(samples), cycle_len)]
    latencies = [s.wall * 1e3 for s in samples]
    op_tail = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (statistics.median(
            sum(s.units for s in c) / sum(s.wall for s in c) for c in cycles), "1/s"),
        "op_ms_p50": (statistics.median(latencies), "ms"),
        "op_ms_tail": (op_tail["value"], "ms"),
        "cpu_ms_per_op": (statistics.median(
            1e3 * sum(s.cpu for s in c) / sum(s.units for s in c) for c in cycles), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"op_ms_tail": op_tail, "setup_s_all": setup_times}


def per_layer(untraced: Phase, traced: Phase, tracer: Tracer, replications: int) -> dict:
    units = sum(s.units for s in traced.samples)
    cycles = len(traced.cycle_walls)
    op_wall = tracer.inclusive[ROOT_SPAN]

    def per_op(name: str, table=tracer.self_time) -> float:
        return 1e3 * table[name] / units

    metrics = {
        "synthetic.draw_params_ms": (per_op("synthetic.draw_params"), "ms"),
        "synthetic.sample_ms": (per_op("synthetic.sample"), "ms"),
        "risk.truth_ms": (per_op("risk.truth"), "ms"),
        "risk.harness_ms": (per_op("risk.harness"), "ms"),
    }
    for est in wl.ESTIMATORS:
        total = tracer.inclusive[f"risk.fit.{est}"]
        value = 1e3 * total / (cycles * replications) if replications else 0.0
        metrics[f"risk.fit_ms.{est}"] = (value, "ms")
    selection = tracer.inclusive["selection.loocv"] + tracer.inclusive["selection.gcv"]
    untraced_cycle = statistics.median(untraced.cycle_walls)
    traced_cycle = statistics.median(traced.cycle_walls)
    metrics.update({
        "selection.loocv_ms": (per_op("selection.loocv", tracer.inclusive), "ms"),
        "selection.gcv_ms": (per_op("selection.gcv", tracer.inclusive), "ms"),
        "selection.share": (selection / op_wall, "ratio"),
        "linalg.eigh_calls": (tracer.calls["linalg.eigh"] // cycles, "count"),
        "linalg.eigh_n3_sum": (tracer.cubes["linalg.eigh"] // cycles, "count"),
        "linalg.eigh_ms": (per_op("linalg.eigh"), "ms"),
        "kernels.gram_ms": (per_op("kernels.gram"), "ms"),
        "kernels.normalize_ms": (per_op("kernels.normalize"), "ms"),
        "kernels.median_ms": (per_op("kernels.median"), "ms"),
        "kernels.gram_calls": (tracer.calls["kernels.gram"] // cycles, "count"),
        "estimators.apply_ms": (per_op("estimators.apply"), "ms"),
        "data.load_csv_ms": (per_op("data.load_csv"), "ms"),
        "cli.self_ms": (per_op(ROOT_SPAN), "ms"),
        "trace.overhead_pct": (100.0 * (traced_cycle / untraced_cycle - 1.0), "%"),
    })
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(wl.REFERENCE),
                        help="recorded outputs; their size sets the problem shapes")
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    kmse = wl.import_kmse()
    reference = wl.load_reference(Path(args.reference))
    size = wl.SIZES[reference["size"]]
    input_seed = wl.input_seed_for(args.seed, reference)
    expected = reference["workloads"][args.workload][str(input_seed)]
    workdir = wl.WORK / f"{args.workload}-{os.getpid()}"
    workload = wl.build(args.workload, size, input_seed, workdir)
    cli_main = kmse.cli.main
    try:
        repeats = SETUP_REPEATS if args.trace == 0 else 1
        setup_times = [setup_once(args.workload, size, input_seed, workdir)
                       for _ in range(repeats)]
        warm = run_cycles(cli_main, workload, expected, 0.0)  # one untimed cycle
        if args.trace == 0:
            phase = run_cycles(cli_main, workload, expected, args.seconds)
            metrics, extra = end_to_end(phase, len(workload.cycle), setup_times)
            attempted = warm.samples + phase.samples
        else:
            tracer = Tracer()
            untraced, traced = run_traced(cli_main, workload, expected, args.seconds, tracer)
            metrics = per_layer(untraced, traced, tracer, workload.replications)
            spans = wl.WORK / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.dump(spans)
            extra = {"spans": str(spans.relative_to(wl.ROOT)),
                     "span_count": len(tracer.spans),
                     "traced_threads": len(tracer.threads)}
            attempted = warm.samples + untraced.samples + traced.samples
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    total = sum(s.units for s in attempted)
    failed = sum(s.units for s in attempted if not s.ok)
    per_name = {}
    for s in attempted:
        per_name.setdefault(s.name, []).append(s.wall * 1e3)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "input_seed": input_seed,
        "trace": args.trace,
        "size": reference["size"],
        "fail_frac": failed / total,
        "operations": len(attempted),
        "op_ms_p50_by_name": {k: statistics.median(v) for k, v in per_name.items()},
        "provenance": provenance(),
        **extra,
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0,
        "attempted": total,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
