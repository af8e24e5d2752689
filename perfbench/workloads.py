"""Workload definitions for the kmse benchmark: inputs, operations, checks.

Every operation is one call of ``kmse.cli.main`` with the argv a user would
type. Inputs are made here from the benchmark's own seed with plain numpy,
so a change inside ``kmse`` (``kmse.synthetic`` included) cannot change what
the fit workloads are fed. Each operation's output is checked against
``reference.json``, recorded with ``record.py`` at the commit that defined
the benchmark.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

# Weights are compared through fixed random projections: for each probe p,
# |p.w - p.w_ref| <= WEIGHT_RTOL * ||p|| * ||w_ref||. A change to w of relative
# size above the tolerance moves some projection past it with probability ~1.
WEIGHT_RTOL = 1e-9
PROBE_COUNT = 8
PROBE_SEED = 14110900


def import_kmse():
    """Import kmse from ``src/`` of this checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "kmse" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no kmse sources under {src}")
    sys.path.insert(0, str(src))
    kmse = importlib.import_module("kmse")
    if Path(kmse.__file__).resolve().parent != (src / "kmse").resolve():
        raise SystemExit(f"perfbench: imported kmse from {kmse.__file__}, not {src}")
    importlib.import_module("kmse.cli")
    return kmse


@dataclass(frozen=True)
class Size:
    """Problem shapes; ``FULL`` is the benchmark, ``TINY`` the self-test.

    ``mc_reps`` is 2, the fewest replications ``kmse benchmark`` accepts, so a
    run has many calls to take latency percentiles from. The README shape
    (``README_REPS``, ``README_SEED``) is checked by the self-test, outside
    any timed run.
    """

    mc_n: int
    mc_d: int
    mc_reps: int
    loocv_n: int
    spectral_n: int
    dim: int
    iters: int


FULL = Size(mc_n=50, mc_d=20, mc_reps=2, loocv_n=200, spectral_n=2000, dim=5, iters=50)
TINY = Size(mc_n=12, mc_d=2, mc_reps=2, loocv_n=16, spectral_n=40, dim=2, iters=5)
SIZES = {"full": FULL, "tiny": TINY}
# the repository README's command: kmse benchmark --n 50 --d 20 --reps 200 --seed 42
README_REPS = 200
README_SEED = 42

ESTIMATORS = ("kme", "skmse", "tikhonov", "landweber", "nu", "itik", "tsvd")


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: a CLI call and how to check its output."""

    name: str
    argv: tuple[str, ...]
    output: Path
    units: int  # operations it counts for: estimator-replications or 1 fit
    kind: str  # "csv" (compare a digest) or "weights"


@dataclass(frozen=True)
class Workload:
    cycle: tuple[Op, ...]
    replications: int  # per estimator per cycle; 0 when the harness is not run


def sample_rows(seed: int, stream: int, n: int, d: int) -> np.ndarray:
    """Three-component Gaussian mixture with random means and scales."""
    rng = np.random.default_rng([seed, stream])
    k = 3
    means = rng.uniform(-4.0, 4.0, size=(k, d))
    scales = rng.uniform(0.5, 1.5, size=k)
    comp = rng.integers(0, k, size=n)
    return means[comp] + scales[comp, None] * rng.standard_normal((n, d))


def write_csv(path: Path, rows: np.ndarray) -> None:
    lines = [",".join(f"x{j}" for j in range(rows.shape[1]))]
    lines += [",".join(format(v, ".17g") for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _estimate(workdir: Path, csv: Path, name: str, *flags: str) -> Op:
    out = workdir / f"{name}.json"
    argv = ("estimate", "--input", str(csv), "--output", str(out)) + flags
    return Op(name, argv, out, 1, "weights")


def mc_risk_op(size: Size, reps: int, input_seed: int, workdir: Path) -> Op:
    out = workdir / "risk.csv"
    argv = (
        "benchmark", "--n", str(size.mc_n), "--d", str(size.mc_d),
        "--filters", "all", "--reps", str(reps),
        "--seed", str(input_seed), "--out", str(out),
        "--json", str(workdir / "risk.json"),
    )
    return Op("benchmark", argv, out, reps * len(ESTIMATORS), "csv")


def build(name: str, size: Size, input_seed: int, workdir: Path) -> Workload:
    """The workload's operation cycle; inputs are written by ``make_inputs``."""
    if name == "mc_risk":
        return Workload((mc_risk_op(size, size.mc_reps, input_seed, workdir),), size.mc_reps)
    if name == "loocv_fit":
        csv = workdir / "loocv.csv"
        cycle = tuple(
            _estimate(workdir, csv, f, "--filter", f, "--select", "loocv",
                      "--iters", str(size.iters))
            for f in ("tikhonov", "skmse", "itik", "landweber", "nu")
        )
        return Workload(cycle, 0)
    if name == "spectral_fit":
        csv = workdir / "spectral.csv"
        cycle = (
            _estimate(workdir, csv, "tikhonov-fixed", "--filter", "tikhonov",
                      "--lambda", "0.05"),
            _estimate(workdir, csv, "landweber-fixed", "--filter", "landweber",
                      "--iters", str(size.iters)),
            _estimate(workdir, csv, "tsvd-gcv", "--filter", "tsvd", "--select", "gcv"),
            _estimate(workdir, csv, "kme", "--filter", "kme"),
        )
        return Workload(cycle, 0)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("mc_risk", "loocv_fit", "spectral_fit")


def make_inputs(name: str, size: Size, input_seed: int, workdir: Path) -> None:
    """Write the workload's input files; mc_risk needs only its --seed."""
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "loocv_fit":
        write_csv(workdir / "loocv.csv", sample_rows(input_seed, 1, size.loocv_n, size.dim))
    elif name == "spectral_fit":
        write_csv(workdir / "spectral.csv",
                  sample_rows(input_seed, 2, size.spectral_n, size.dim))


# ---------------------------------------------------------------------------
# Output summaries and checks
# ---------------------------------------------------------------------------


def _probes(n: int) -> np.ndarray:
    return np.random.default_rng(PROBE_SEED).standard_normal((PROBE_COUNT, n))


def summarize(op: Op) -> dict:
    """What the reference keeps of an operation's output."""
    if op.kind == "csv":
        return {"sha256": hashlib.sha256(op.output.read_bytes()).hexdigest()}
    payload = json.loads(op.output.read_text(encoding="utf-8"))
    w = np.asarray(payload["weights"], dtype=float)
    return {
        "shrinkage": payload["shrinkage"],
        "n": int(w.size),
        "norm": float(np.linalg.norm(w)),
        "probes": [float(v) for v in _probes(w.size) @ w],
    }


def mismatch(op: Op, expected: dict) -> str | None:
    """None when the output matches the reference, else the reason."""
    got = summarize(op)
    if op.kind == "csv":
        if got["sha256"] != expected["sha256"]:
            return f"{op.name}: CSV digest {got['sha256'][:12]} != {expected['sha256'][:12]}"
        return None
    if got["shrinkage"] != expected["shrinkage"]:
        return f"{op.name}: selected {got['shrinkage']} != {expected['shrinkage']}"
    if got["n"] != expected["n"]:
        return f"{op.name}: {got['n']} weights != {expected['n']}"
    probe_norms = np.linalg.norm(_probes(got["n"]), axis=1)
    limit = WEIGHT_RTOL * expected["norm"] * probe_norms
    diff = np.abs(np.asarray(got["probes"]) - np.asarray(expected["probes"]))
    if not (np.all(diff <= limit) and math.isclose(got["norm"], expected["norm"],
                                                   rel_tol=WEIGHT_RTOL)):
        worst = float(np.max(diff / (expected["norm"] * probe_norms)))
        return f"{op.name}: weights differ by {worst:.3g} relative (tolerance {WEIGHT_RTOL})"
    return None


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def input_seed_for(seed: int, reference: dict) -> int:
    """Inputs cycle through the seeds the reference covers."""
    return seed % reference["seeds"]


def _run_checked(main, op: Op, input_seed: int) -> None:
    op.output.unlink(missing_ok=True)
    rc = main(list(op.argv))
    if rc != 0:
        raise SystemExit(f"perfbench: {op.name} exited {rc} for seed {input_seed}")


def readme_mismatch(main, reference: dict, workdir: Path) -> str | None:
    """Run mc_risk in the README shape (``--reps README_REPS``); None if it matches."""
    expected = reference["readme_shape"]
    op = mc_risk_op(SIZES[reference["size"]], README_REPS, expected["seed"], workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    _run_checked(main, op, expected["seed"])
    return mismatch(op, expected)


def record(main, size_name: str, seeds: int, workdir: Path) -> dict:
    """Run every operation once per input seed and keep its output summary."""
    size = SIZES[size_name]
    table: dict = {name: {} for name in WORKLOADS}
    for input_seed in range(seeds):
        for name in WORKLOADS:
            wdir = workdir / name
            make_inputs(name, size, input_seed, wdir)
            ops = {}
            for op in build(name, size, input_seed, wdir).cycle:
                _run_checked(main, op, input_seed)
                ops[op.name] = summarize(op)
            table[name][str(input_seed)] = ops
    op = mc_risk_op(size, README_REPS, README_SEED, workdir / "mc_risk")
    _run_checked(main, op, README_SEED)
    return {
        "size": size_name,
        "seeds": seeds,
        "workloads": table,
        "readme_shape": {"seed": README_SEED, **summarize(op)},
    }
