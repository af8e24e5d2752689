"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload loocv_fit --seeds 0-9 [--trace 0] [--out FILE]

For every metric it prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the interquartile range as a share
of the median, next to the metric's bound from BENCHMARK.json. With
``--trace 1`` it also reports whether each count metric repeated exactly.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as wl


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="JSON file to add this summary to, keyed by workload")
    args = parser.parse_args(argv)
    declared = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(wl.HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=wl.ROOT, capture_output=True, text=True, check=False)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"seed {seed}: exit code {done.returncode}")
        *_, detail, last = done.stdout.strip().splitlines()
        result = json.loads(last)
        if not result["correct"]:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"seed {seed}: {result['failed']} failed operations")
        runs.append(result["metrics"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    summary = {"seeds": args.seeds, "seconds": spec["run_seconds"],
               "provenance": json.loads(detail)["provenance"], "metrics": {}}
    for name in bounds:
        values = [run[name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        entry = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                 "unit": runs[0][name]["unit"]}
        if bounds[name] is not None:
            entry["bound"] = bounds[name]
        if entry["unit"] == "count":
            entry["repeats_exactly"] = len(set(values)) == 1
        summary["metrics"][name] = entry
        print(f"{name:28s} median {median:12.6g}  spread {spread:7.4f}"
              + (f"  bound/3 {bounds[name] / 3:.4f}" if bounds[name] is not None else "")
              + ("  exact" if entry.get("repeats_exactly") else ""))
    if args.out:
        path = Path(args.out)
        table = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        table[args.workload + (" --trace 1" if args.trace else "")] = summary
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
