"""Self-test of the benchmark; exits 0 when every check passes.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps to the limits of its format.
2. A tiny run of every workload, traced and untraced, prints every declared
   metric with its declared unit and no failed operation.
3. A corrupted reference (a CSV digest, a selected parameter, a weight
   projection) makes operations fail, so fail_frac rises above 0.
4. A traced run with KMSE_THREADS=2 leaves no layer span without a parent.
5. A copy holding only BENCHMARK.json and perfbench/ (no sources) exits
   non-zero without printing a result.
6. The repository README's ``kmse benchmark`` command (``--reps 200``) still
   writes the CSV recorded in reference.json. The timed runs use ``--reps 2``,
   so this is the check that covers the 200-replication CSV. It takes about
   40 seconds.
"""

from __future__ import annotations

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import workloads as wl
from tracing import ROOT_SPAN

SELF = wl.WORK / "selftest"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
FAILURES: list[str] = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        FAILURES.append(what)


def run_bench(workload, trace, reference, cwd=wl.ROOT, script=wl.HERE / "run.py", env=None):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "0.5", "--trace", str(trace), "--reference", str(reference)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180,
                          check=False, env=env)


def result_of(done) -> dict | None:
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}, "BENCHMARK.json has exactly the required keys")
    names = [w["name"] for w in spec["workloads"]]
    check(sorted(names) == sorted(wl.WORKLOADS), "declared workloads match workloads.py")
    check(all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"]),
          "every workload 'why' is one line of at most 200 characters")
    metrics = spec["end_to_end"] + spec["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    check(all(NAME.match(n) for n in all_names) and len(set(all_names)) == len(all_names),
          "names are well formed and unique")
    check(all(UNIT.match(m["unit"]) for m in metrics), "units are well formed")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds within (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    check(bool(setup) and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
          "setup_s is declared with the largest bound")


def main() -> int:
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_spec(spec)
    shutil.rmtree(SELF, ignore_errors=True)
    SELF.mkdir(parents=True)
    kmse = wl.import_kmse()
    reference = wl.record(kmse.cli.main, "tiny", 2, SELF / "record")
    good = SELF / "reference.json"
    good.write_text(json.dumps(reference), encoding="utf-8")

    for workload in wl.WORKLOADS:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            done = run_bench(workload, trace, good)
            result = result_of(done)
            label = f"{workload} --trace {trace}"
            check(done.returncode == 0 and result is not None, f"{label} exits 0 with a result")
            if result is None:
                sys.stderr.write(done.stderr)
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{label} result has exactly the required keys")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label} checks pass with fail_frac 0")
            expected = {m["name"]: m["unit"] for m in declared}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == expected, f"{label} emits every declared metric with its unit")

    corrupt = copy.deepcopy(reference)
    for seed in corrupt["workloads"]["mc_risk"].values():
        seed["benchmark"]["sha256"] = "0" * 64
    for seed in corrupt["workloads"]["loocv_fit"].values():
        seed["tikhonov"]["shrinkage"]["lam"] *= 2.0
    for seed in corrupt["workloads"]["spectral_fit"].values():
        seed["tikhonov-fixed"]["probes"][0] += 1e-6 * seed["tikhonov-fixed"]["norm"]
    bad = SELF / "corrupt.json"
    bad.write_text(json.dumps(corrupt), encoding="utf-8")
    for workload in wl.WORKLOADS:
        result = result_of(run_bench(workload, 0, bad))
        check(result is not None and not result["correct"] and result["failed"] > 0,
              f"{workload} against a corrupted reference reports fail_frac > 0")

    threaded = run_bench("mc_risk", 1, good, env=dict(os.environ, KMSE_THREADS="2"))
    lines = threaded.stdout.strip().splitlines()
    if threaded.returncode == 0 and len(lines) >= 2:
        detail = json.loads(lines[-2])
        spans = (wl.ROOT / detail["spans"]).read_text(encoding="utf-8").splitlines()
        orphans = [s for s in map(json.loads, spans) if s[1] is None and s[3] != ROOT_SPAN]
        check(result_of(threaded)["correct"] and detail["traced_threads"] > 1
              and not orphans, "with KMSE_THREADS=2 the CSV matches and every "
              "worker-thread span has a parent")
    else:
        sys.stderr.write(threaded.stderr)
        check(False, "mc_risk --trace 1 with KMSE_THREADS=2 exits 0 with a result")

    bare = SELF / "bare"
    bare.mkdir()
    shutil.copy(wl.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    shutil.copytree(wl.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = run_bench("mc_risk", 0, bare / "perfbench" / "reference.json", cwd=bare,
                     script=bare / "perfbench" / "run.py")
    check(done.returncode != 0 and result_of(done) is None,
          "a copy without sources exits non-zero and prints no result")
    problem = wl.readme_mismatch(kmse.cli.main, wl.load_reference(wl.REFERENCE),
                                 SELF / "readme")
    check(problem is None, "the README-shape mc_risk CSV (--reps 200) matches reference.json"
          + (f" ({problem})" if problem else ""))
    shutil.rmtree(SELF, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
