import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kmse.cli import main
from kmse.estimators import ESTIMATORS


def write_sample_csv(path, seed=0, n=25, d=2):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(f"{v:.8f}" for v in row) + "\n")
    return rows


def count_calls(monkeypatch, name):
    """Record each call of ``kmse.linalg.<name>`` made through any module of
    the package that binds it."""
    from kmse import linalg

    original = getattr(linalg, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name == "kmse" or module_name.startswith("kmse."):
            for binding, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, binding, counting)
    return calls


class TestEstimateCommand:
    def test_fixed_tikhonov_weights(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "weights.json"
        write_sample_csv(data)
        code = main(
            [
                "estimate",
                "--input", str(data),
                "--filter", "tikhonov",
                "--lambda", "0.1",
                "--bandwidth", "median",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["estimator_id"] == "tikhonov"
        assert len(payload["weights"]) == 25
        assert payload["config"]["bandwidth_sq"] > 0

    def test_loocv_selection_runs(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "weights.json"
        write_sample_csv(data, seed=1)
        code = main(
            [
                "estimate",
                "--input", str(data),
                "--filter", "landweber",
                "--select", "loocv",
                "--iters", "15",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["shrinkage"]["kind"] == "Landweber"

    def test_missing_file_is_input_error(self, tmp_path):
        code = main(["estimate", "--input", str(tmp_path / "nope.csv")])
        assert code == 1

    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_input_exits_one_naming_the_line(self, tmp_path, capsys, cell):
        data = tmp_path / "data.csv"
        write_sample_csv(data, n=6)
        lines = data.read_text().splitlines()
        lines[3] = f"{cell},0.5"
        data.write_text("\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["estimate", "--input", str(data), "--output", str(tmp_path / "w.json")])
        assert code == 1
        assert "line 4: non-finite cell" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["estimate", "--bogus", "x"]) == 1

    @pytest.mark.parametrize("name,rule", [("tsvd", "loocv"), ("kme", "loocv"), ("tikhonov", "gcv")])
    def test_invalid_pair_exits_one_before_reading_input(self, tmp_path, capsys, name, rule):
        missing = tmp_path / "nope.csv"
        code = main(["estimate", "--input", str(missing), "--filter", name, "--select", rule])
        assert code == 1
        assert f"selection {rule!r} is not available for {name}" in capsys.readouterr().err

    def test_kme_builds_no_gram_matrix(self, tmp_path, monkeypatch):
        from kmse import kernels, risk

        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernels.gram_matrix(*args, **kwargs)

        monkeypatch.setattr(risk, "gram_matrix", counting)
        data = tmp_path / "data.csv"
        out = tmp_path / "weights.json"
        write_sample_csv(data)
        assert main(["estimate", "--input", str(data), "--filter", "kme",
                     "--output", str(out)]) == 0
        assert calls == []
        assert json.loads(out.read_text())["weights"] == [1.0 / 25] * 25

    @pytest.mark.parametrize(
        "flags,eigh_calls,spd_calls",
        [([], 0, 1), (["--select", "loocv"], 1, 0), (["--lambda", "1e-6"], 1, 0)],
        ids=["defaults", "loocv", "below-floor"],
    )
    def test_factorizations_of_a_tikhonov_fit(self, tmp_path, monkeypatch, flags,
                                               eigh_calls, spd_calls):
        # the default fit (tikhonov, lambda 0.1, select none) is one Cholesky
        # solve; a selected fit and one below the floor use the spectrum
        eigh = count_calls(monkeypatch, "sym_eigendecompose")
        spd = count_calls(monkeypatch, "spd_factor")
        data = tmp_path / "data.csv"
        write_sample_csv(data, n=300)
        assert main(["estimate", "--input", str(data), "--output", str(tmp_path / "w.json")]
                    + flags) == 0
        assert (len(eigh), len(spd)) == (eigh_calls, spd_calls)

    @pytest.mark.parametrize(
        "flags",
        [["--filter", "nu", "--nu", "-0.25"], ["--filter", "landweber", "--iters", "0"],
         ["--filter", "itik", "--iters", "0"], ["--filter", "tsvd", "--lambda", "0"]],
    )
    def test_bad_fixed_parameter_exits_one(self, tmp_path, flags):
        data = tmp_path / "data.csv"
        write_sample_csv(data)
        assert main(["estimate", "--input", str(data), *flags]) == 1

    def test_nan_skmse_lambda_named_before_fitting(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        write_sample_csv(data)
        argv = ["estimate", "--input", str(data), "--filter", "skmse", "--lambda", "nan"]
        assert main(argv) == 1
        assert "SKMSE lam must be non-negative and finite, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--filter", "nu", "--nu", "inf"], "NuMethod nu"),
            (["--filter", "nu", "--nu", "inf", "--select", "loocv"], "NuMethod nu"),
            (["--filter", "itik", "--lambda", "inf"], "IteratedTikhonov lam"),
            (["--filter", "tikhonov", "--lambda", "inf"], "Tikhonov lam"),
            (["--filter", "tsvd", "--lambda", "inf"], "TSVD threshold"),
            (["--filter", "skmse", "--lambda", "inf"], "SKMSE lam"),
        ],
    )
    def test_infinite_parameter_exits_one_naming_it(self, tmp_path, capsys, flags, message):
        data = tmp_path / "data.csv"
        out = tmp_path / "weights.json"
        write_sample_csv(data)
        assert main(["estimate", "--input", str(data), *flags, "--output", str(out)]) == 1
        condition = "non-negative" if message == "SKMSE lam" else "positive"
        assert f"{message} must be {condition} and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "1e400"])
    def test_infinite_bandwidth_exits_one_naming_it(self, tmp_path, capsys, value):
        data = tmp_path / "data.csv"
        out = tmp_path / "weights.json"
        write_sample_csv(data)
        argv = ["estimate", "--input", str(data), "--bandwidth", value, "--output", str(out)]
        assert main(argv) == 1
        assert "bandwidth_sq must be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("nu", ["-0.25", "-1"])
    def test_bad_nu_under_loocv_exits_one(self, tmp_path, capsys, nu):
        data = tmp_path / "data.csv"
        write_sample_csv(data)
        argv = ["estimate", "--input", str(data), "--filter", "nu", "--select", "loocv",
                "--nu", nu]
        assert main(argv) == 1
        assert "nu must be positive" in capsys.readouterr().err


class TestEstimateThreadIndependence:
    # scipy's threaded potrf gives other bits from n = 128 on; the Cholesky
    # fits must write the same bytes at any OPENBLAS_NUM_THREADS
    FITS = (
        ["--filter", "itik", "--select", "loocv", "--iters", "50"],
        ["--filter", "tikhonov", "--lambda", "0.05"],
        ["--filter", "itik", "--lambda", "0.05"],
    )
    # the linear kernel's kappa^2 is the largest K_ii of a BLAS-built X X^T,
    # and Landweber and nu step at 1/kappa^2
    LINEAR_FITS = (
        ["--kernel", "linear", "--filter", "landweber", "--iters", "50"],
        ["--kernel", "linear", "--filter", "nu", "--iters", "50"],
    )

    def test_cholesky_fits_independent_of_blas_threads(self, tmp_path):
        outputs = self.outputs_per_thread_count(tmp_path, self.FITS)
        assert outputs["1"] == outputs["2"]

    def test_linear_iteration_fits_independent_of_blas_threads(self, tmp_path):
        outputs = self.outputs_per_thread_count(tmp_path, self.LINEAR_FITS)
        assert outputs["1"] == outputs["2"]

    @staticmethod
    def outputs_per_thread_count(tmp_path, fits):
        data = tmp_path / "data.csv"
        write_sample_csv(data, seed=3, n=200, d=5)
        src = Path(__file__).resolve().parent.parent / "src"
        outputs = {}
        for blas in ("1", "2"):
            argvs = [
                ["estimate", "--input", str(data),
                 "--output", str(tmp_path / f"fit_{blas}_{i}.json")] + fit
                for i, fit in enumerate(fits)
            ]
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas)
            env["PYTHONPATH"] = os.pathsep.join(
                [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
            )
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from kmse.cli import main\n"
                 f"for argv in {argvs!r}:\n"
                 "    assert main(argv) == 0, argv"],
                env=env, check=True, capture_output=True,
            )
            outputs[blas] = [(tmp_path / f"fit_{blas}_{i}.json").read_bytes()
                             for i in range(len(fits))]
        return outputs


class TestEstimateLinearKernel:
    # on these rows ||x||^2 summed row by row and the K_ii of the BLAS-built
    # X X^T can differ by one ulp; kappa^2 is max K_ii, so every fit runs
    @staticmethod
    def write_scaled_sample(path):
        rows = np.random.default_rng(1).standard_normal((40, 3)) * 2000
        np.savetxt(path, rows, fmt="%.17g", delimiter=",")
        return rows

    @pytest.mark.parametrize("name", list(ESTIMATORS))
    def test_scaled_sample_fits_with_every_filter(self, tmp_path, name):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        self.write_scaled_sample(data)
        argv = ["estimate", "--input", str(data), "--kernel", "linear", "--filter", name,
                "--output", str(out)]
        assert main(argv) == 0
        payload = json.loads(out.read_text())
        assert payload["config"]["kernel"] == "linear"
        assert payload["config"]["bandwidth_sq"] is None
        assert np.all(np.isfinite(payload["weights"]))

    @pytest.mark.parametrize("name,field", [("landweber", "eta"), ("nu", "eta_bar")])
    def test_step_is_one_over_the_largest_diagonal_entry(self, tmp_path, name, field):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        rows = self.write_scaled_sample(data)
        assert main(["estimate", "--input", str(data), "--kernel", "linear",
                     "--filter", name, "--output", str(out)]) == 0
        K = rows @ rows.T
        assert json.loads(out.read_text())["shrinkage"][field] == 1.0 / K.diagonal().max()


class TestBenchmarkCommand:
    def test_csv_independent_of_thread_counts(self, tmp_path):
        # BLAS threads and harness workers must not change a single byte
        src = Path(__file__).resolve().parent.parent / "src"
        digests = {}
        for blas in ("1", "2"):
            for workers in ("1", "4"):
                out = tmp_path / f"risk_{blas}_{workers}.csv"
                env = dict(os.environ, OPENBLAS_NUM_THREADS=blas, KMSE_THREADS=workers)
                env["PYTHONPATH"] = os.pathsep.join(
                    [str(src)] + [p for p in [env.get("PYTHONPATH")] if p]
                )
                subprocess.run(
                    [sys.executable, "-m", "kmse.cli", "benchmark", "--n", "30",
                     "--d", "3", "--reps", "6", "--seed", "5", "--filters", "all",
                     "--out", str(out)],
                    env=env, check=True, capture_output=True,
                )
                digests[blas, workers] = out.read_bytes()
        assert len(set(digests.values())) == 1

    def test_csv_schema_and_determinism(self, tmp_path):
        out_a = tmp_path / "risk_a.csv"
        out_b = tmp_path / "risk_b.csv"
        args = [
            "benchmark",
            "--n", "20",
            "--d", "3",
            "--reps", "3",
            "--seed", "7",
            "--filters", "kme,skmse",
            "--select", "none",
            "--json", str(tmp_path / "bench.json"),
        ]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        with open(out_a, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["estimator", "n", "d", "m", "seed", "mean_loss", "stderr"]
        assert [r[0] for r in rows[1:]] == ["kme", "skmse"]
        payload = json.loads((tmp_path / "bench.json").read_text())
        assert payload["config"]["seed"] == 7
        assert "improvement_pct" in payload["results"][1]

    def test_unknown_estimator_rejected(self, tmp_path):
        code = main(
            ["benchmark", "--filters", "kme,bogus", "--reps", "2", "--n", "10",
             "--d", "2", "--json", str(tmp_path / "x.json")]
        )
        assert code == 1

    @pytest.mark.parametrize("filters,rule", [("tikhonov", "gcv"), ("all", "loocv")])
    def test_invalid_pair_rejected(self, tmp_path, filters, rule):
        code = main(
            ["benchmark", "--filters", filters, "--select", rule, "--reps", "2",
             "--n", "10", "--d", "2", "--json", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert not (tmp_path / "x.json").exists()

    def test_usage_error_inside_replication_exits_one(self, tmp_path, capsys):
        # n = 2 passes the harness but LOOCV needs three points
        code = main(
            ["benchmark", "--n", "2", "--d", "2", "--reps", "2", "--filters", "tikhonov",
             "--json", str(tmp_path / "x.json")]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: replication 1 failed (tikhonov):")

    def test_infinite_bandwidth_exits_one_naming_it(self, tmp_path, capsys):
        argv = ["benchmark", "--n", "20", "--d", "2", "--reps", "2",
                "--filters", "kme,tikhonov", "--bandwidth", "inf",
                "--json", str(tmp_path / "x.json")]
        assert main(argv) == 1
        assert "bandwidth_sq must be positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_failing_estimator_named_after_others_fit(self, tmp_path, capsys):
        # kme fits on two points; nu is the first estimator that cannot
        code = main(
            ["benchmark", "--n", "2", "--d", "2", "--reps", "2", "--filters", "kme,nu,tikhonov",
             "--json", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: replication 1 failed (nu):")

    @pytest.mark.parametrize("raw", ["abc", "0"])
    def test_bad_thread_count_exits_one(self, tmp_path, capsys, monkeypatch, raw):
        monkeypatch.setenv("KMSE_THREADS", raw)
        code = main(
            ["benchmark", "--n", "10", "--d", "2", "--reps", "2", "--filters", "kme",
             "--json", str(tmp_path / "x.json")]
        )
        assert code == 1
        assert f"KMSE_THREADS must be a positive integer, got {raw!r}" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_readme_command_matches_recorded_digest(self, tmp_path):
        # the README's benchmark command, checked against the digest the
        # benchmark suite recorded for it (the file is only read)
        reference = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
        expected = json.loads(reference.read_text(encoding="utf-8"))["readme_shape"]
        out = tmp_path / "risk.csv"
        code = main(
            ["benchmark", "--n", "50", "--d", "20", "--reps", "200",
             "--seed", str(expected["seed"]), "--filters", "all",
             "--out", str(out), "--json", str(tmp_path / "risk.json")]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected["sha256"]

    def test_oracle_command_matches_recorded_digest(self, tmp_path):
        # every shrinkage family under the oracle rule; the digest is that of
        # the CSV written when each candidate was fitted and then scored
        out = tmp_path / "oracle.csv"
        code = main(
            ["benchmark", "--n", "50", "--d", "20", "--reps", "20", "--seed", "42",
             "--filters", "skmse,tikhonov,landweber,nu,itik,tsvd", "--select", "oracle",
             "--out", str(out), "--json", str(tmp_path / "oracle.json")]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "edaea23b47b2ac5e65d5b2f945a4fa9f1ce13c255c29bef15da79112b9ffa521"
        )


class TestRatesCommand:
    def test_exact_linear_rates(self, tmp_path):
        out = tmp_path / "rates.csv"
        js = tmp_path / "rates.json"
        code = main(
            [
                "rates",
                "--kernel", "linear",
                "--c", "1.0",
                "--beta", "1.0",
                "--n-grid", "1000,10000,100000",
                "--out", str(out),
                "--json", str(js),
            ]
        )
        assert code == 0
        payload = json.loads(js.read_text())
        assert abs(payload["slope"] + 1.0) <= 0.05
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["n", "risk", "stderr", "kme_risk"]
        assert len(rows) == 4

    @pytest.mark.parametrize("grid,value", [("0,10", "0"), ("-5,10", "-5")])
    def test_sample_size_below_one_exits_one(self, capsys, grid, value):
        assert main(["rates", "--kernel", "linear", f"--n-grid={grid}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"got {value}" in err

    @pytest.mark.parametrize(
        "flag,message", [("--c", "c must"), ("--beta", "the decay exponent b must")]
    )
    def test_infinite_parameter_exits_one_naming_it(self, tmp_path, capsys, flag, message):
        out = tmp_path / "rates.json"
        assert main(["rates", flag, "inf", "--json", str(out)]) == 1
        assert f"{message} be positive and finite, got inf" in capsys.readouterr().err
        assert not out.exists()


class TestAdmissibilityCommand:
    def test_tikhonov_report(self, tmp_path):
        out = tmp_path / "adm.json"
        code = main(
            ["admissibility", "--filter", "tikhonov", "--lambda", "0.1",
             "--grid-size", "2000", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["sup_gamma_g"] <= 1.0
        assert payload["sup_residual"] <= 1.0
        assert len(payload["residual_eta_bounds"]) == 3

    @pytest.mark.parametrize(
        "name,expected",
        [
            ("skmse", {"kind": "SKMSE", "lam": 0.3}),
            ("tikhonov", {"kind": "Tikhonov", "lam": 0.3}),
            ("landweber", {"kind": "Landweber", "iters": 7, "eta": 1.0}),
            ("nu", {"kind": "NuMethod", "iters": 7, "nu": 2.5, "eta_bar": 1.0}),
            ("itik", {"kind": "IteratedTikhonov", "iters": 7, "lam": 0.3}),
            ("tsvd", {"kind": "TSVD", "threshold": 0.3}),
        ],
    )
    def test_filter_payload_of_every_filter(self, tmp_path, name, expected):
        out = tmp_path / "adm.json"
        code = main(
            ["admissibility", "--filter", name, "--lambda", "0.3", "--iters", "7",
             "--nu", "2.5", "--grid-size", "200", "--output", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["filter"] == expected

    def test_zero_shrinkage_exits_one_without_output(self, tmp_path, capsys):
        out = tmp_path / "adm.json"
        code = main(
            ["admissibility", "--filter", "skmse", "--lambda", "0",
             "--grid-size", "200", "--output", str(out)]
        )
        assert code == 1
        assert "positive shrinkage parameter" in capsys.readouterr().err
        assert not out.exists()


class TestDensityFitCommand:
    def test_full_workflow(self, tmp_path):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        write_sample_csv(data, seed=3, n=40, d=2)
        code = main(
            [
                "density-fit",
                "--input", str(data),
                "--target", "kme",
                "--components", "2",
                "--test-frac", "0.25",
                "--seed", "5",
                "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["target_estimator"] == "kme"
        assert payload["shrinkage"] is None
        assert payload["config"]["n_train"] == 30
        assert payload["config"]["n_test"] == 10
        assert np.isfinite(payload["nll_test"])
        assert len(payload["model"]["weights"]) == 2

    @pytest.mark.parametrize("target", ["tikhonov", "landweber", "tsvd"])
    def test_selected_targets(self, tmp_path, target):
        data = tmp_path / "data.csv"
        out = tmp_path / "fit.json"
        write_sample_csv(data, seed=4, n=40, d=2)
        code = main(
            ["density-fit", "--input", str(data), "--target", target, "--components", "2",
             "--iters", "20", "--seed", "1", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["target_estimator"] == target
        kind = {"tikhonov": "Tikhonov", "landweber": "Landweber", "tsvd": "TSVD"}[target]
        assert payload["shrinkage"]["kind"] == kind
        assert payload["config"]["target"] == target
        assert np.isfinite(payload["nll_train"]) and np.isfinite(payload["nll_test"])


    @pytest.mark.parametrize("nu", ["-0.25", "-1"])
    def test_bad_nu_target_exits_one(self, tmp_path, capsys, nu):
        data = tmp_path / "data.csv"
        write_sample_csv(data, seed=4, n=40, d=2)
        argv = ["density-fit", "--input", str(data), "--target", "nu", "--nu", nu,
                "--iters", "5", "--output", str(tmp_path / "fit.json")]
        assert main(argv) == 1
        assert "nu must be positive" in capsys.readouterr().err


class TestVerifyCommand:
    @pytest.mark.parametrize("check", ["prop1", "prop2", "thm1", "thm2", "rates"])
    def test_checks_pass(self, tmp_path, check):
        out = tmp_path / f"{check}.json"
        code = main(["verify", "--check", check, "--output", str(out)])
        payload = json.loads(out.read_text())
        assert payload["check"] == check
        assert payload["pass"] is True
        assert code == 0

    def test_verdict_schema(self, tmp_path):
        out = tmp_path / "v.json"
        main(["verify", "--check", "prop1", "--output", str(out)])
        payload = json.loads(out.read_text())
        assert set(payload) >= {"check", "pass", "metric", "threshold"}

    @pytest.mark.parametrize(
        "flag, value, message", [("--beta", "inf", "b = inf"), ("--beta", "nan", "b = nan")]
    )
    def test_thm1_non_finite_parameter_exits_one(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "v.json"
        code = main(["verify", "--check", "thm1", flag, value, "--output", str(out)])
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_thm1_non_finite_c_exits_one(self, tmp_path, capsys, value):
        out = tmp_path / "v.json"
        code = main(["verify", "--check", "thm1", "--c", value, "--output", str(out)])
        assert code == 1
        assert f"c must be positive and finite, got {value}" in capsys.readouterr().err
        assert not out.exists()


def strict_json(text):
    """json.loads that refuses NaN and Infinity, which json.dumps writes but
    strict JSON parsers reject."""

    def refuse(constant):
        raise ValueError(f"non-finite number {constant} in a JSON artifact")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("where,reason", [("missing/out", "No such file or directory"),
                                          ("", "Is a directory")])  # "" names tmp_path
@pytest.mark.parametrize("command,flag", [("estimate", "--output"), ("benchmark", "--out"),
                                          ("benchmark", "--json")])
def test_unwritable_output_exits_one_naming_it(tmp_path, capsys, command, flag, where, reason):
    data, out = tmp_path / "data.csv", tmp_path / where
    write_sample_csv(data)
    args = (["--input", str(data)] if command == "estimate" else
            ["--n", "10", "--d", "2", "--reps", "2", "--filters", "kme"])
    assert main([command, *args, flag, str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"



def never_reached(*args, **kwargs):
    raise AssertionError("the run started before its output path was checked")


@pytest.mark.parametrize("command,flag", [("estimate", "--output"), ("benchmark", "--out"),
                                          ("benchmark", "--json")])
@pytest.mark.parametrize("where,reason", [("missing/out", "No such file or directory"),
                                          ("", "Is a directory"),
                                          ("locked/out", "Permission denied")])
def test_unwritable_output_refused_before_the_run(tmp_path, capsys, monkeypatch, command, flag,
                                                  where, reason):
    from kmse import cli, risk

    monkeypatch.setattr(risk, "fit_weights", never_reached)
    monkeypatch.setattr(risk, "risk_estimate", never_reached)
    (tmp_path / "locked").mkdir()
    access = os.access  # root may write anywhere, so "locked" is made unwritable here
    monkeypatch.setattr(cli.os, "access", lambda path, mode: access(path, mode)
                        and not path.endswith("locked"))
    data, out = tmp_path / "data.csv", tmp_path / where
    write_sample_csv(data)
    args = (["--input", str(data)] if command == "estimate" else
            ["--n", "10", "--d", "2", "--reps", "2", "--filters", "kme"])
    assert main([command, *args, flag, str(out)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {out}: {reason}\n"
    assert not os.path.exists(tmp_path / "missing") and os.listdir(tmp_path / "locked") == []


def test_output_checked_without_creating_or_truncating_it(tmp_path, capsys):
    out = tmp_path / "weights.json"
    out.write_text("kept\n", encoding="utf-8")
    # the input is missing, so the run fails after the path check passed
    assert main(["estimate", "--input", str(tmp_path / "none.csv"), "--output", str(out)]) == 1
    assert out.read_text(encoding="utf-8") == "kept\n"
    assert main(["estimate", "--input", str(tmp_path / "none.csv"),
                 "--output", str(tmp_path / "new.json")]) == 1
    assert not (tmp_path / "new.json").exists()
    capsys.readouterr()


def test_dash_output_is_stdout(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_sample_csv(data)
    assert main(["estimate", "--input", str(data), "--output", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["estimator_id"] == "tikhonov"


def test_dash_csv_is_stdout(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    js = tmp_path / "rates.json"
    assert main(["rates", "--n-grid", "10,20", "--out", "-", "--json", str(js)]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["n", "risk", "stderr", "kme_risk"]
    assert [int(row[0]) for row in rows[1:]] == [10, 20]
    assert sorted(os.listdir(tmp_path)) == ["rates.json"]


def test_one_parser_per_process(tmp_path, capsys, monkeypatch):
    from kmse import cli

    built = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "kmse":
                built.append(self)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    try:
        data = tmp_path / "data.csv"
        write_sample_csv(data)
        argv = ["estimate", "--input", str(data), "--output", str(tmp_path / "w.json")]
        assert main(argv) == 0 and main(argv) == 0
        assert len(built) == 1
        # a usage error after a successful call still exits 1
        assert main(["estimate", "--filter", "ridge", "--input", str(data)]) == 1
        assert main(["estimate"]) == 1
        assert "invalid choice: 'ridge'" in capsys.readouterr().err
    finally:
        cli.build_parser.cache_clear()


class TestStrictJsonArtifacts:
    """Every command's JSON artifact is strict JSON: no NaN or Infinity."""

    COMMANDS = {
        "estimate": ["estimate", "--input", "{data}", "--output", "{out}"],
        "estimate-loocv": ["estimate", "--input", "{data}", "--filter", "itik",
                           "--select", "loocv", "--iters", "5", "--output", "{out}"],
        "estimate-gcv": ["estimate", "--input", "{data}", "--filter", "tsvd",
                         "--select", "gcv", "--output", "{out}"],
        "estimate-linear": ["estimate", "--input", "{data}", "--kernel", "linear",
                            "--output", "{out}"],
        "benchmark": ["benchmark", "--n", "20", "--d", "2", "--reps", "2", "--json", "{out}"],
        "rates-linear": ["rates", "--json", "{out}"],
        "rates-rbf": ["rates", "--kernel", "rbf", "--n-grid", "10,20", "--reps", "2",
                      "--d", "2", "--json", "{out}"],
        "admissibility": ["admissibility", "--filter", "nu", "--grid-size", "200",
                          "--output", "{out}"],
        "admissibility-huge-lambda": ["admissibility", "--filter", "tikhonov",
                                      "--lambda", "1e200", "--grid-size", "200",
                                      "--output", "{out}"],
        "density-fit": ["density-fit", "--input", "{data}", "--components", "2",
                        "--iters", "5", "--output", "{out}"],
        **{f"verify-{check}": ["verify", "--check", check, "--output", "{out}"]
           for check in ("prop1", "prop2", "thm1", "thm2", "rates")},
    }

    @pytest.mark.parametrize("name", list(COMMANDS))
    def test_output_parses_strictly(self, tmp_path, name):
        data = tmp_path / "data.csv"
        out = tmp_path / "out.json"
        write_sample_csv(data, n=40)
        argv = [arg.format(data=data, out=out) for arg in self.COMMANDS[name]]
        assert main(argv) == 0
        assert isinstance(strict_json(out.read_text(encoding="utf-8")), dict)

    def test_underflowing_lambda_power_exits_one(self, tmp_path, capsys):
        # lambda**eta underflows to 0 for eta = 2, so the D bound there is 0/0
        out = tmp_path / "out.json"
        argv = ["admissibility", "--filter", "tikhonov", "--lambda", "1e-320",
                "--grid-size", "200", "--output", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "eta = 2.0" in err and "lambda = 1e-320" in err
        assert not out.exists()
