import csv
import hashlib
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kmse.cli import main


def write_sample_csv(path, seed=0, n=25, d=2):
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((n, d))
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(",".join(f"{v:.8f}" for v in row) + "\n")
    return rows


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
        assert "SKMSE lambda must be non-negative, got nan" in capsys.readouterr().err

    @pytest.mark.parametrize("nu", ["-0.25", "-1"])
    def test_bad_nu_under_loocv_exits_one(self, tmp_path, capsys, nu):
        data = tmp_path / "data.csv"
        write_sample_csv(data)
        argv = ["estimate", "--input", str(data), "--filter", "nu", "--select", "loocv",
                "--nu", nu]
        assert main(argv) == 1
        assert "nu must be positive" in capsys.readouterr().err


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
