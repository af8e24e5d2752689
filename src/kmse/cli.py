"""Command-line front end: estimation, benchmarking, rate experiments,
admissibility reports, density fits, and theory verification.

Every run echoes its fully resolved configuration into the output artifact,
and identical (argv, seed) pairs produce byte-identical outputs. Exit codes:
0 success, 1 input/usage error, 2 internal or convergence error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys

import numpy as np

from . import density, risk, theory
from .data import load_csv, split_train_test, standardize, standardize_like
from .errors import InputError, KmseError, ReplicationError
from .estimators import ESTIMATORS
from .filters import FilterSpec, check_admissibility
from .kernels import (
    GaussianRBF,
    gram_matrix,
    linear_spec_for,
    median_heuristic_bandwidth,
    normalize_gram,
)
from .synthetic import RngStream


class _Parser(argparse.ArgumentParser):
    # usage problems must exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message)


def _json_dump(payload, path: str | None) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path is None or path == "-":
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _spec_payload(spec: FilterSpec) -> dict:
    out = dataclasses.asdict(spec)
    out["kind"] = type(spec).__name__
    return out


def _estimator_config(args, selection: str) -> risk.EstimatorConfig:
    """The config of ``--filter`` with ``--lambda``, ``--iters`` and ``--nu``."""
    return risk.EstimatorConfig(
        name=args.filter,
        selection=selection,
        lam=args.lam,
        iters=args.iters,
        itik_iters=args.iters,
        t_max=args.iters,
        nu=args.nu,
    )


def _parse_bandwidth(text: str) -> float | None:
    """The squared bandwidth given on the command line; None for 'median'."""
    if text == "median":
        return None
    try:
        value = float(text)
    except ValueError:
        raise InputError(f"--bandwidth must be 'median' or a number, got {text!r}") from None
    if value <= 0:
        raise InputError("bandwidth must be positive")
    return value


def _resolve_kernel(args, rows):
    if args.kernel == "linear":
        return linear_spec_for(rows), None
    sigma_sq = _parse_bandwidth(args.bandwidth)
    if sigma_sq is None:
        sigma_sq = median_heuristic_bandwidth(rows)
    return GaussianRBF(sigma_sq), sigma_sq


def _cmd_estimate(args) -> int:
    config = _estimator_config(args, args.select)
    rows = load_csv(args.input).rows
    kspec, sigma_sq = _resolve_kernel(args, rows)
    wv = risk.fit_weights(config, rows, kspec)
    payload = {
        "estimator_id": wv.estimator_id,
        "weights": [float(w) for w in wv.weights],
        "shrinkage": _spec_payload(wv.shrinkage) if wv.shrinkage else None,
        "config": {
            "input": args.input,
            "kernel": args.kernel,
            "bandwidth_sq": sigma_sq,
            "filter": args.filter,
            "select": args.select,
            "n": rows.shape[0],
            "d": rows.shape[1],
        },
    }
    _json_dump(payload, args.output)
    return 0


def _cmd_benchmark(args) -> int:
    names = tuple(ESTIMATORS) if args.filters == "all" else tuple(args.filters.split(","))
    configs = [risk.EstimatorConfig(name=name, selection=args.select) for name in names]
    bandwidth = _parse_bandwidth(args.bandwidth)
    reports = risk.risk_estimate(
        configs,
        n=args.n,
        d=args.d,
        m=args.reps,
        seed=args.seed,
        redraw_params=args.redraw_params,
        bandwidth=bandwidth,
    )
    base = next((r for r in reports if r.estimator_id == "kme"), None)
    rows = []
    for report in reports:
        row = {
            "estimator": report.estimator_id,
            "n": args.n,
            "d": args.d,
            "m": args.reps,
            "seed": args.seed,
            "mean_loss": report.mean_loss,
            "stderr": report.stderr,
        }
        if base is not None and report is not base:
            row["improvement_pct"] = risk.improvement_percent(
                base.mean_loss, report.mean_loss
            )
        rows.append(row)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["estimator", "n", "d", "m", "seed", "mean_loss", "stderr"])
            for row in rows:
                writer.writerow(
                    [
                        row["estimator"],
                        row["n"],
                        row["d"],
                        row["m"],
                        row["seed"],
                        repr(row["mean_loss"]),
                        repr(row["stderr"]),
                    ]
                )
    payload = {
        "config": {
            "n": args.n,
            "d": args.d,
            "reps": args.reps,
            "seed": args.seed,
            "filters": list(names),
            "select": args.select,
            "kernel": "rbf",
            "bandwidth": "median" if bandwidth is None else bandwidth,
            "redraw_params": args.redraw_params,
        },
        "results": rows,
    }
    _json_dump(payload, args.json)
    return 0


def _cmd_rates(args) -> int:
    try:
        n_grid = tuple(int(v) for v in args.n_grid.split(","))
    except ValueError:
        raise InputError(f"--n-grid must be comma-separated integers, got {args.n_grid!r}") from None
    config = theory.RateExperimentConfig(
        c=args.c,
        smoothness_exponent=args.beta,
        n_grid=n_grid,
        replications=args.reps,
        kernel=args.kernel,
        d=args.d,
        seed=args.seed,
    )
    result = theory.rate_experiment(config)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["n", "risk", "stderr", "kme_risk"])
            for point in result.points:
                writer.writerow(
                    [point.n, repr(point.risk), repr(point.stderr), repr(point.kme_risk)]
                )
    payload = {
        "config": dataclasses.asdict(config),
        "slope": result.slope,
        "points": [dataclasses.asdict(p) for p in result.points],
    }
    _json_dump(payload, args.json)
    return 0


def _cmd_admissibility(args) -> int:
    spec = ESTIMATORS[args.filter].fixed(_estimator_config(args, "none"), 1.0)
    report = check_admissibility(
        spec, args.grid_size, [1.0, 2.0, 4.0], kappa_sq=1.0
    )
    payload = {
        "filter": _spec_payload(spec),
        "grid_size": report.grid_size,
        "sup_gamma_g": report.sup_gamma_g,
        "sup_residual": report.sup_residual,
        "residual_eta_bounds": [
            {"eta": eta, "bound": bound} for eta, bound in report.residual_eta_bounds
        ],
    }
    _json_dump(payload, args.output)
    return 0


def _cmd_density_fit(args) -> int:
    config = risk.EstimatorConfig(name=args.target, t_max=args.iters, nu=args.nu)
    dataset = load_csv(args.input)
    rng = RngStream(args.seed, 0).generator()
    train_raw, test_raw = split_train_test(dataset, args.test_frac, rng)
    train = standardize(train_raw)
    test = standardize_like(test_raw, train)
    sigma_sq = median_heuristic_bandwidth(train.rows)
    wv = risk.fit_weights(config, train.rows, GaussianRBF(sigma_sq))
    model = density.kmm_fit(
        train.rows,
        wv,
        args.components,
        sigma_sq,
        density.KmmFitConfig(seed=args.seed),
    )
    payload = {
        "dataset": args.input,
        "target_estimator": wv.estimator_id,
        "seed": args.seed,
        "nll_train": density.nll(model, train.rows),
        "nll_test": density.nll(model, test.rows),
        "model": {
            "weights": [float(w) for w in model.weights],
            "means": [[float(v) for v in row] for row in model.means],
            "variances": [float(v) for v in model.variances],
        },
        "config": {
            "components": args.components,
            "test_frac": args.test_frac,
            "bandwidth_sq": sigma_sq,
            "target": args.target,
            "n_train": train.n,
            "n_test": test.n,
        },
    }
    _json_dump(payload, args.output)
    return 0


def _cmd_verify(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.check == "prop1":
        worst = 0.0
        for _ in range(20):
            rows = rng.standard_normal((25, 4))
            kbar = normalize_gram(
                gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
            )
            for algo, t in (("landweber", 30), ("nu", 15), ("itik", 3)):
                worst = max(worst, theory.verify_spectral_equivalence(kbar, algo, t))
        verdict = {"check": "prop1", "pass": worst <= 1e-8, "metric": worst,
                   "threshold": 1e-8}
    elif args.check == "prop2":
        worst = 0.0
        for _ in range(20):
            rows = rng.standard_normal((40, 5))
            for lam in (0.1, 1.0):
                worst = max(worst, theory.verify_operator_equivalence(rows, lam))
        verdict = {"check": "prop2", "pass": worst <= 1e-8, "metric": worst,
                   "threshold": 1e-8}
    elif args.check == "thm1":
        bound = theory.theorem1_admissibility_bound(args.c, args.beta)
        brute = theory.risk_ratio_infimum(args.c, args.beta)
        gap = abs(bound - brute)
        verdict = {"check": "thm1", "pass": gap <= 1e-6, "metric": gap,
                   "threshold": 1e-6, "bound": bound}
    elif args.check == "thm2":
        worst = 0.0
        ok = True
        for _ in range(2000):
            delta = float(rng.uniform(0.01, 5.0))
            f_star = float(rng.uniform(-3.0, 3.0))
            mu = float(rng.uniform(-3.0, 3.0))
            upper = theory.component_shrinkage_upper(delta, f_star, mu)
            inside = float(rng.uniform(1e-6, 1.0 - 1e-6)) * upper
            outside = upper * (1.0 + float(rng.uniform(1e-6, 1.0)))
            value_in = theory.component_risk_difference(inside, delta, f_star, mu)
            value_out = theory.component_risk_difference(outside, delta, f_star, mu)
            ok = ok and value_in < 0 < value_out
            worst = max(worst, value_in)
        verdict = {"check": "thm2", "pass": ok, "metric": worst, "threshold": 0.0}
    elif args.check == "rates":
        config = theory.RateExperimentConfig(
            c=args.c, smoothness_exponent=args.beta,
            n_grid=(1000, 10000, 100000), kernel="linear",
        )
        slope = theory.rate_experiment(config).slope
        verdict = {"check": "rates", "pass": abs(slope + 1.0) <= 0.05,
                   "metric": slope, "threshold": "-1 +/- 0.05"}
    else:
        raise InputError(f"unknown check {args.check!r}")
    _json_dump(verdict, args.output)
    return 0 if verdict["pass"] else 2


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kmse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fit shrinkage weights on a CSV sample")
    est.add_argument("--input", required=True)
    est.add_argument("--output", default=None)
    est.add_argument("--kernel", choices=("rbf", "linear"), default="rbf")
    est.add_argument("--bandwidth", default="median")
    est.add_argument("--filter", choices=tuple(ESTIMATORS), default="tikhonov")
    est.add_argument("--lambda", dest="lam", type=float, default=0.1)
    est.add_argument("--iters", type=int, default=10)
    est.add_argument("--nu", type=float, default=1.0)
    est.add_argument("--select", choices=("loocv", "gcv", "none"), default="none")
    est.set_defaults(func=_cmd_estimate)

    bench = sub.add_parser("benchmark", help="Monte-Carlo risk of the estimators")
    bench.add_argument("--n", type=int, default=50)
    bench.add_argument("--d", type=int, default=20)
    bench.add_argument("--reps", type=int, default=200)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--filters", default="all")
    bench.add_argument("--bandwidth", default="median")
    bench.add_argument("--select", choices=("default", "loocv", "gcv", "none", "oracle"),
                       default="default")
    bench.add_argument("--redraw-params", action="store_true")
    bench.add_argument("--out", default=None, help="CSV output path")
    bench.add_argument("--json", default=None, help="JSON output path (default stdout)")
    bench.set_defaults(func=_cmd_benchmark)

    rates = sub.add_parser("rates", help="risk decay under lambda = c n^-beta")
    rates.add_argument("--c", type=float, default=1.0)
    rates.add_argument("--beta", type=float, default=1.0)
    rates.add_argument("--n-grid", default="1000,10000,100000")
    rates.add_argument("--reps", type=int, default=100)
    rates.add_argument("--kernel", choices=("linear", "rbf"), default="linear")
    rates.add_argument("--d", type=int, default=3)
    rates.add_argument("--seed", type=int, default=0)
    rates.add_argument("--out", default=None, help="CSV output path")
    rates.add_argument("--json", default=None, help="JSON output path (default stdout)")
    rates.set_defaults(func=_cmd_rates)

    adm = sub.add_parser("admissibility", help="numeric filter admissibility report")
    adm.add_argument(
        "--filter",
        choices=[name for name, kind in ESTIMATORS.items() if kind.spec_type],
        default="tikhonov",
    )
    adm.add_argument("--lambda", dest="lam", type=float, default=0.1)
    adm.add_argument("--iters", type=int, default=10)
    adm.add_argument("--nu", type=float, default=1.0)
    adm.add_argument("--grid-size", type=int, default=10000)
    adm.add_argument("--output", default=None)
    adm.set_defaults(func=_cmd_admissibility)

    dens = sub.add_parser("density-fit", help="kernel-mean-matching mixture fit")
    dens.add_argument("--input", required=True)
    dens.add_argument("--target", choices=tuple(ESTIMATORS), default="tikhonov")
    dens.add_argument("--components", type=int, default=5)
    dens.add_argument("--test-frac", type=float, default=0.25)
    dens.add_argument("--iters", type=int, default=50)
    dens.add_argument("--nu", type=float, default=1.0)
    dens.add_argument("--seed", type=int, default=0)
    dens.add_argument("--output", default=None)
    dens.set_defaults(func=_cmd_density_fit)

    ver = sub.add_parser("verify", help="numeric verification checks")
    ver.add_argument("--check", choices=("prop1", "prop2", "thm1", "thm2", "rates"),
                     required=True)
    ver.add_argument("--c", type=float, default=1.0)
    ver.add_argument("--beta", type=float, default=2.0)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--output", default=None)
    ver.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except KmseError as exc:
        # a replication that failed on bad input is still a usage error
        cause = exc.cause if isinstance(exc, ReplicationError) else exc
        if isinstance(cause, InputError):
            sys.stderr.write(f"error: {exc}\n")
            return 1
        sys.stderr.write(f"internal error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
