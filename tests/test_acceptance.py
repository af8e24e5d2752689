"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured metrics. Every tolerance is fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from kmse.data import standardize, standardize_like
from kmse.density import KmmFitConfig, MixtureModel, kmm_fit, nll
from kmse.density import _beta_quad, _pack, _value_and_grad
from kmse.estimators import (
    empirical_kme_weights,
    landweber_weights,
    spectral_weights,
)
from kmse.filters import TSVD, Tikhonov, check_admissibility
from kmse.kernels import (
    GaussianRBF,
    gram_matrix,
    median_heuristic_bandwidth,
    normalize_gram,
)
from kmse.risk import (
    EstimatorConfig,
    improvement_percent,
    kernel_mean_inner,
    mixture_mean_sq_norm,
    replication_losses,
)
from kmse.selection import loocv_select_lambda
from kmse.synthetic import (
    MixtureParams,
    RngStream,
    draw_mixture_params,
    effective_components,
    sample_mixture,
)
from kmse.theory import (
    RateExperimentConfig,
    component_risk_difference,
    component_shrinkage_upper,
    rate_experiment,
    risk_ratio_infimum,
    shrinkage_helps,
    skmse_risk_difference_exact,
    theorem1_admissibility_bound,
    verify_spectral_equivalence,
    verify_operator_equivalence,
)

SEED = 20250809


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance] criterion {number:2d}: {status} - {detail}")


def random_normalized_gram(rng, n=30, d=4):
    rows = rng.standard_normal((n, d))
    return normalize_gram(
        gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
    )


def test_criterion_01_iterative_equals_spectral():
    """Landweber (t <= 50), accelerated (t <= 20), iterated Tikhonov (t = 3):
    iterative and spectral coefficient paths agree to 1e-8 on 100 random
    normalized Gram matrices of size 30. Budget: 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(100):
        kbar = random_normalized_gram(rng)
        for t in range(1, 51):
            worst = max(worst, verify_spectral_equivalence(kbar, "landweber", t))
        for t in range(1, 21):
            worst = max(worst, verify_spectral_equivalence(kbar, "nu", t))
        for lam in (1e-3, 1e-2, 1e-1, 1.0):
            worst = max(worst, verify_spectral_equivalence(kbar, "itik", 3, lam=lam))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report(1, ok, f"max |iterative - spectral| = {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 10.0


def test_criterion_02_gram_equals_operator():
    """Linear kernel, d = 5, n = 40, lambda in {0.1, 1}: Gram-side and
    covariance-side estimates agree pointwise to 1e-8 over 20 seeds.
    Budget: 5 s."""
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rows = np.random.default_rng(SEED + seed).standard_normal((40, 5))
        for lam in (0.1, 1.0):
            worst = max(worst, verify_operator_equivalence(rows, lam))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 5.0
    report(2, ok, f"max pointwise difference = {worst:.3e} in {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 5.0


def test_criterion_03_admissibility_constants():
    """Tikhonov: sup gamma*g <= 1, sup r <= 1, sup r*gamma <= lambda;
    truncation filter: sup r gamma^eta <= lambda^eta for eta in {1, 2, 4};
    10^4-point grids, lambda in {1e-4 .. 1}. Budget: 5 s."""
    start = time.perf_counter()
    lambdas = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
    worst_b = worst_c = worst_d = 0.0
    for lam in lambdas:
        rep = check_admissibility(Tikhonov(lam), 10_000, [1.0], kappa_sq=1.0)
        worst_b = max(worst_b, rep.sup_gamma_g)
        worst_c = max(worst_c, rep.sup_residual)
        worst_d = max(worst_d, rep.residual_eta_bounds[0][1])
    worst_tsvd = 0.0
    for lam in lambdas:
        rep = check_admissibility(TSVD(lam), 10_000, [1.0, 2.0, 4.0], kappa_sq=1.0)
        worst_tsvd = max(worst_tsvd, max(b for _, b in rep.residual_eta_bounds))
    elapsed = time.perf_counter() - start
    tol = 1.0 + 1e-12
    ok = max(worst_b, worst_c, worst_d, worst_tsvd) <= tol and elapsed < 5.0
    report(
        3,
        ok,
        f"tikhonov B={worst_b:.6f} C={worst_c:.6f} D={worst_d:.6f}, "
        f"tsvd D(eta<=4)={worst_tsvd:.6f} in {elapsed:.1f}s",
    )
    assert worst_b <= tol and worst_c <= tol and worst_d <= tol
    assert worst_tsvd <= tol
    assert elapsed < 5.0


def test_criterion_04_uniform_shrinkage_risk_formula():
    """Sign of the exact uniform-shrinkage risk difference matches the
    closed-form inequality on 10^4 admissible tuples; the admissibility
    threshold at (c=1, b=2) equals 2*sqrt(2)/(2*sqrt(2)+1) = 0.7387961250
    (hand evaluation of the formula) and matches the brute-force infimum
    to 1e-6. Budget: 10 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    mismatches = 0
    for _ in range(10_000):
        c = float(rng.uniform(0.05, 5.0))
        b = float(rng.uniform(1.01, 4.0))
        n = int(rng.integers(1, 10_000))
        kd = float(rng.uniform(0.1, 5.0))
        msq = float(rng.uniform(0.0, 1.0)) * kd
        value = skmse_risk_difference_exact(c, b, n, msq, kd)
        if value != 0.0 and (value < 0) != shrinkage_helps(c, b, n, msq, kd):
            mismatches += 1
    bound = theorem1_admissibility_bound(1.0, 2.0)
    hand = 2.0 * np.sqrt(2.0) / (2.0 * np.sqrt(2.0) + 1.0)
    brute_gap = abs(bound - risk_ratio_infimum(1.0, 2.0))
    elapsed = time.perf_counter() - start
    ok = (
        mismatches == 0
        and abs(bound - hand) <= 1e-5
        and brute_gap <= 1e-6
        and elapsed < 10.0
    )
    report(
        4,
        ok,
        f"sign mismatches {mismatches}/10000, A(1,2)={bound:.10f} "
        f"(|A - brute force| = {brute_gap:.2e}) in {elapsed:.1f}s",
    )
    assert mismatches == 0
    assert abs(bound - hand) <= 1e-5
    assert brute_gap <= 1e-6
    assert elapsed < 10.0


def test_criterion_05_componentwise_shrinkage_condition():
    """Per-component risk difference is <= 0 on the closed helpful interval
    and > 0 outside it, on 10^4 random tuples to sign precision. Budget: 5 s."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    violations = 0
    for _ in range(10_000):
        delta = float(rng.uniform(0.01, 5.0))
        f_star = float(rng.uniform(-3.0, 3.0))
        mu = float(rng.uniform(-3.0, 3.0))
        upper = component_shrinkage_upper(delta, f_star, mu)
        scale = delta + (f_star - mu) ** 2
        inside = float(rng.uniform(1e-6, 1.0 - 1e-6)) * upper
        if not component_risk_difference(inside, delta, f_star, mu) < 0:
            violations += 1
        if component_risk_difference(0.0, delta, f_star, mu) != 0.0:
            violations += 1
        # right endpoint is a root; sign precision = zero up to rounding
        if not component_risk_difference(upper, delta, f_star, mu) <= 1e-12 * scale:
            violations += 1
        above = upper * (1.0 + float(rng.uniform(1e-6, 1.0)))
        below = -float(rng.uniform(1e-6, 1.0))
        if not component_risk_difference(above, delta, f_star, mu) > 0:
            violations += 1
        if not component_risk_difference(below, delta, f_star, mu) > 0:
            violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 5.0
    report(5, ok, f"sign violations {violations}/50000 checks in {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 5.0


def test_criterion_06_closed_form_loss_gate():
    """The two Gaussian-integral closed forms match 10^6-sample Monte-Carlo
    oracles within 3 standard errors on 20 random configurations (d <= 5).
    Budget: 2 min."""
    start = time.perf_counter()
    rng = np.random.default_rng(SEED)
    failures = []
    for config in range(10):
        d = int(rng.integers(1, 6))
        a = rng.standard_normal((d, d))
        sigma = a @ a.T * float(rng.uniform(0.2, 2.0))
        theta = rng.uniform(-3, 3, size=d)
        x = rng.uniform(-3, 3, size=d)
        sigma_sq = float(rng.uniform(0.5, 5.0))
        closed = kernel_mean_inner(x, theta, sigma, sigma_sq)
        chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(d))
        draws = theta + rng.standard_normal((1_000_000, d)) @ chol.T
        vals = np.exp(-((draws - x) ** 2).sum(axis=1) / (2.0 * sigma_sq))
        gap = abs(closed - vals.mean())
        limit = 3.0 * vals.std(ddof=1) / 1000.0
        if gap > limit:
            failures.append(("inner", config, gap, limit))
    for config in range(10):
        d = int(rng.integers(1, 6))
        params = effective_components(
            draw_mixture_params(d, RngStream(SEED + config, 0))
        )
        sigma_sq = float(rng.uniform(0.5, 5.0))
        closed = mixture_mean_sq_norm(params, sigma_sq)
        a = sample_mixture(params, 1_000_000, RngStream(SEED + config, 1)).rows
        b = sample_mixture(params, 1_000_000, RngStream(SEED + config, 2)).rows
        vals = np.exp(-((a - b) ** 2).sum(axis=1) / (2.0 * sigma_sq))
        gap = abs(closed - vals.mean())
        limit = 3.0 * vals.std(ddof=1) / 1000.0
        if gap > limit:
            failures.append(("norm", config, gap, limit))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 120.0
    report(6, ok, f"{20 - len(failures)}/20 configs within 3 stderr in {elapsed:.1f}s")
    assert not failures, failures
    assert elapsed < 120.0


def test_criterion_07_synthetic_improvement_ordering():
    """n=50, d=20, m=200: every spectral estimator with oracle-selected
    parameter improves on the empirical estimator (paired one-sided test at
    3 stderr), and the Tikhonov/gradient/accelerated improvements exceed the
    uniform-shrinkage estimator's improvement (the latter under its own
    LOOCV selection, which is how that estimator is defined here).
    Budget: 5 min."""
    start = time.perf_counter()
    n, d, m = 50, 20, 200
    spectral = ("tikhonov", "landweber", "nu", "itik", "tsvd")
    configs = (
        [EstimatorConfig("kme")]
        + [EstimatorConfig(name, selection="oracle") for name in spectral]
        + [EstimatorConfig("skmse", selection="loocv")]
    )
    # one batched call: every column is fitted on the same replications
    base, *oracle, skmse = replication_losses(configs, n, d, m, SEED).T
    improvements = {}
    paired_ok = {}
    for name, est in zip(spectral, oracle):
        diff = base - est
        improvements[name] = improvement_percent(base.mean(), est.mean())
        paired_ok[name] = diff.mean() > 3.0 * diff.std(ddof=1) / np.sqrt(m)
    skmse_improvement = improvement_percent(base.mean(), skmse.mean())
    ordering = all(
        improvements[name] > skmse_improvement
        for name in ("tikhonov", "landweber", "nu")
    )
    elapsed = time.perf_counter() - start
    ok = all(improvements[k] > 0 for k in spectral) and all(paired_ok.values()) and ordering
    detail = ", ".join(f"{k}={improvements[k]:.2f}%" for k in spectral)
    report(
        7,
        ok and elapsed < 300.0,
        f"{detail}; skmse(loocv)={skmse_improvement:.2f}% in {elapsed:.1f}s",
    )
    for name in spectral:
        assert improvements[name] > 0.0, name
        assert paired_ok[name], name
    assert ordering
    assert elapsed < 300.0


def test_criterion_08_decay_rate_exact():
    """Linear-kernel exact risk with lambda = n^-1: log-log slope -1 +/- 0.05
    over n in {1e3, 1e4, 1e5}; at c = 1e-12 the shrinkage risk curve and the
    empirical risk curve coincide within 1e-10. Budget: 1 s."""
    start = time.perf_counter()
    slope = rate_experiment(
        RateExperimentConfig(
            c=1.0, smoothness_exponent=1.0, n_grid=(1_000, 10_000, 100_000), d=3
        )
    ).slope
    tiny_c = rate_experiment(
        RateExperimentConfig(
            c=1e-12, smoothness_exponent=1.0, n_grid=(1_000, 10_000, 100_000), d=3
        )
    )
    coincide = max(abs(p.risk - p.kme_risk) for p in tiny_c.points)
    elapsed = time.perf_counter() - start
    ok = abs(slope + 1.0) <= 0.05 and coincide <= 1e-10 and elapsed < 1.0
    report(8, ok, f"slope={slope:.4f}, |risk - kme| at c=1e-12: {coincide:.2e} in {elapsed:.2f}s")
    assert abs(slope + 1.0) <= 0.05
    assert coincide <= 1e-10
    assert elapsed < 1.0


def test_criterion_09_selection_sanity():
    """100 replications at n=50, d=20: LOOCV-selected iteration count beats
    one gradient step in >= 90% of replications; GCV-selected truncation
    yields true risk <= the empirical estimator's in >= 60%. Budget: 5 min.

    Known red: the GCV residual here has no noise floor (the projected
    target's spectral coefficients decay exponentially), so the selected
    truncation sits at the numerical-rank cutoff and the risk comparison
    against the empirical estimator degenerates to a coin flip at the 1e-8
    level (measured 41-54% across seeds, never near 60%; oracle truncation
    by contrast picks 2-6 components and improves risk by ~6%). The bound
    is asserted anyway to keep the defect visible.
    """
    start = time.perf_counter()
    n, d, m = 50, 20, 100
    configs = [
        EstimatorConfig("landweber", selection="loocv", t_max=50),
        EstimatorConfig("landweber", selection="none", iters=1),
        EstimatorConfig("tsvd", selection="gcv"),
        EstimatorConfig("kme"),
    ]
    lw_sel, lw_one, tsvd, kme = replication_losses(configs, n, d, m, SEED).T
    lw_rate = float(np.mean(lw_sel <= lw_one))
    tsvd_rate = float(np.mean(tsvd <= kme))
    elapsed = time.perf_counter() - start
    ok = lw_rate >= 0.90 and tsvd_rate >= 0.60 and elapsed < 300.0
    report(
        9,
        ok,
        f"landweber selected-t beats t=1 in {100 * lw_rate:.0f}% (need >= 90%); "
        f"gcv-tsvd beats kme in {100 * tsvd_rate:.0f}% (need >= 60%) in {elapsed:.1f}s",
    )
    assert lw_rate >= 0.90
    assert tsvd_rate >= 0.60
    assert elapsed < 300.0


def _density_seed_trial(seed, n_train=50, n_test=1000):
    gen = RngStream(seed, 0).generator()
    means = gen.uniform(-4.0, 4.0, size=(2, 2))
    variances = gen.uniform(0.5, 1.5, size=2)
    truth = MixtureParams(
        weights=np.array([0.5, 0.5]),
        means=means,
        covariances=np.stack([v * np.eye(2) for v in variances]),
        noise_var=0.0,
    )
    train = standardize(sample_mixture(truth, n_train, RngStream(seed, 1)))
    test = standardize_like(sample_mixture(truth, n_test, RngStream(seed, 2)), train)
    sigma_sq = median_heuristic_bandwidth(train.rows)
    kspec = GaussianRBF(sigma_sq)
    kbar = normalize_gram(gram_matrix(train.rows, kspec))
    ladder = tuple(Tikhonov(float(lam)) for lam in np.geomspace(1e-6, 1e2, 30))
    chosen = loocv_select_lambda(kbar, ladder).chosen
    config = KmmFitConfig(seed=seed, restarts=20, max_iters=800)
    model_tik = kmm_fit(train.rows, spectral_weights(kbar, chosen), 2, sigma_sq, config)
    model_kme = kmm_fit(train.rows, empirical_kme_weights(n_train), 2, sigma_sq, config)
    return nll(model_tik, test.rows), nll(model_kme, test.rows)


def test_criterion_10_density_fit_direction():
    """Synthetic 2-d two-component mixtures, 10 seeds: fitting to the
    LOOCV-Tikhonov target gives held-out NLL <= the empirical-target fit in
    at least 6 of 10 seeds; the matching-objective gradient passes a central
    finite-difference check at 1e-5 relative. Budget: 3 min."""
    start = time.perf_counter()
    wins = 0
    for seed in range(10):
        nll_tik, nll_kme = _density_seed_trial(seed)
        wins += nll_tik <= nll_kme
    rng = np.random.default_rng(SEED)
    worst_rel = 0.0
    for _ in range(20):
        n_pts = int(rng.integers(6, 20))
        d = int(rng.integers(1, 4))
        r = int(rng.integers(1, 4))
        rows = rng.standard_normal((n_pts, d))
        beta = rng.standard_normal(n_pts) * 0.2
        sigma_sq = float(rng.uniform(0.5, 3.0))
        model = MixtureModel(
            weights=np.full(r, 1.0 / r),
            means=rng.standard_normal((r, d)),
            variances=rng.uniform(0.3, 2.0, size=r),
        )
        vec = _pack(model)
        quad = _beta_quad(rows, beta, sigma_sq)
        _, grad = _value_and_grad(vec, rows, beta, sigma_sq, r, d, quad)
        fd = np.zeros_like(vec)
        h = 1e-6
        for i in range(vec.size):
            e = np.zeros_like(vec)
            e[i] = h
            up, _ = _value_and_grad(vec + e, rows, beta, sigma_sq, r, d, quad)
            dn, _ = _value_and_grad(vec - e, rows, beta, sigma_sq, r, d, quad)
            fd[i] = (up - dn) / (2.0 * h)
        worst_rel = max(
            worst_rel, np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-10)
        )
    elapsed = time.perf_counter() - start
    ok = wins >= 6 and worst_rel <= 1e-5 and elapsed < 180.0
    report(
        10,
        ok,
        f"shrinkage target wins {wins}/10 seeds; worst gradient error "
        f"{worst_rel:.2e} in {elapsed:.1f}s",
    )
    assert wins >= 6
    assert worst_rel <= 1e-5
    assert elapsed < 180.0


def test_criterion_11_runtime_ordering():
    """At n = 2000, fifty gradient-descent steps (iterative path) run faster
    than the eigendecomposition-backed Tikhonov path, by median of 5 runs."""
    rng = np.random.default_rng(SEED)
    rows = rng.standard_normal((2000, 5))
    gram = gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))

    def once_landweber():
        kbar = normalize_gram(gram)  # fresh object: no cached spectrum
        begin = time.perf_counter()
        landweber_weights(kbar, 50)
        return time.perf_counter() - begin

    def once_tikhonov():
        kbar = normalize_gram(gram)
        begin = time.perf_counter()
        spectral_weights(kbar, Tikhonov(0.1))
        return time.perf_counter() - begin

    lw = float(np.median([once_landweber() for _ in range(5)]))
    tik = float(np.median([once_tikhonov() for _ in range(5)]))
    ok = lw < tik
    report(11, ok, f"landweber t=50: {lw:.3f}s vs tikhonov spectral: {tik:.3f}s")
    assert lw < tik
