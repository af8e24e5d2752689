import numpy as np
import pytest

from kmse.errors import InputError
from kmse.kernels import GaussianRBF, gram_matrix, median_heuristic_bandwidth, normalize_gram
from kmse.synthetic import MixtureParams, RngStream
from kmse.theory import (
    RateExperimentConfig,
    component_risk_difference,
    component_shrinkage_upper,
    rate_experiment,
    risk_ratio_infimum,
    shrinkage_helps,
    skmse_risk_difference_exact,
    standard_gaussian_params,
    theorem1_admissibility_bound,
    verify_operator_equivalence,
    verify_spectral_equivalence,
)


class TestUniformShrinkageRisk:
    def test_point_mass_regime_positive(self):
        # ||mu||^2 = int k dP: shrinkage always hurts, by n c^2 ||mu||^2 / (n (n^b + c)^2)
        c, b, n, v = 1.3, 2.0, 12, 0.8
        got = skmse_risk_difference_exact(c, b, n, v, v)
        want = n * c * c * v / (n * (n**b + c) ** 2)
        np.testing.assert_allclose(got, want, rtol=1e-12)
        assert got > 0

    def test_zero_mean_always_helps(self):
        for n in (1, 10, 1000):
            assert skmse_risk_difference_exact(2.0, 1.5, n, 0.0, 1.0) < 0

    def test_hand_checked_example(self):
        # c=1, b=2, n=10: negative iff ratio < 201/211; here 0.2 < 0.9526
        assert skmse_risk_difference_exact(1.0, 2.0, 10, 0.2, 1.0) < 0

    def test_precondition_enforced(self):
        with pytest.raises(InputError):
            skmse_risk_difference_exact(1.0, 2.0, 5, 1.5, 1.0)

    def test_sign_matches_inequality(self):
        rng = np.random.default_rng(0)
        for _ in range(10_000)[:2000]:
            c = float(rng.uniform(0.05, 5.0))
            b = float(rng.uniform(1.01, 4.0))
            n = int(rng.integers(1, 10_000))
            kd = float(rng.uniform(0.1, 5.0))
            msq = float(rng.uniform(0.0, 1.0)) * kd
            value = skmse_risk_difference_exact(c, b, n, msq, kd)
            helps = shrinkage_helps(c, b, n, msq, kd)
            assert (value < 0) == helps or value == 0.0


class TestAdmissibilityBound:
    def test_known_value(self):
        # 2 sqrt(2) / (2 sqrt(2) + 1)
        got = theorem1_admissibility_bound(1.0, 2.0)
        np.testing.assert_allclose(got, 2 * np.sqrt(2) / (2 * np.sqrt(2) + 1), rtol=1e-14)

    def test_small_c_toward_one(self):
        assert theorem1_admissibility_bound(1e-8, 2.0) > 0.999

    def test_large_b_limit_is_one_half(self):
        # denominator ~ 2^(1/b) b + (b-1) for large b, so A -> 1/2 from above
        # (confirmed by the brute-force infimum; the commonly quoted
        # "A approaches one for large b" holds only in the c -> 0 direction)
        a50 = theorem1_admissibility_bound(1.0, 50.0)
        assert abs(a50 - risk_ratio_infimum(1.0, 50.0)) <= 1e-6
        assert 0.5 < a50 < 0.55
        assert theorem1_admissibility_bound(1.0, 500.0) < a50

    def test_in_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = theorem1_admissibility_bound(
                float(rng.uniform(0.01, 10)), float(rng.uniform(1.01, 8.0))
            )
            assert 0.0 < a < 1.0

    def test_matches_brute_force_infimum(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            c = float(rng.uniform(0.05, 5.0))
            b = float(rng.uniform(1.05, 5.0))
            assert abs(theorem1_admissibility_bound(c, b) - risk_ratio_infimum(c, b)) <= 1e-6

    def test_requires_b_above_one(self):
        with pytest.raises(InputError):
            theorem1_admissibility_bound(1.0, 1.0)


class TestComponentRisk:
    def test_no_shrinkage_is_zero(self):
        assert component_risk_difference(0.0, 1.3, 0.5, 0.2) == 0.0

    def test_boundary_root(self):
        delta, f_star, mu = 0.7, 0.4, -0.3
        upper = component_shrinkage_upper(delta, f_star, mu)
        assert abs(component_risk_difference(upper, delta, f_star, mu)) <= 1e-12

    def test_hand_value(self):
        assert component_risk_difference(1.0, 1.0, 0.5, 0.5) == -1.0

    def test_sign_structure_random(self):
        rng = np.random.default_rng(3)
        for _ in range(2000):
            delta = float(rng.uniform(0.01, 5.0))
            f_star = float(rng.uniform(-2, 2))
            mu = float(rng.uniform(-2, 2))
            upper = component_shrinkage_upper(delta, f_star, mu)
            inside = float(rng.uniform(1e-6, 1 - 1e-6)) * upper
            assert component_risk_difference(inside, delta, f_star, mu) < 0
            above = upper * (1 + float(rng.uniform(1e-6, 2.0)))
            assert component_risk_difference(above, delta, f_star, mu) > 0
            below = -float(rng.uniform(1e-6, 2.0))
            assert component_risk_difference(below, delta, f_star, mu) > 0


class TestEquivalences:
    def test_zero_iterations_trivial(self):
        rows = np.random.default_rng(4).standard_normal((10, 2))
        kbar = normalize_gram(
            gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
        )
        assert verify_spectral_equivalence(kbar, "landweber", 0) == 0.0

    def test_iterative_matches_spectral(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = rng.standard_normal((20, 4))
            kbar = normalize_gram(
                gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
            )
            assert verify_spectral_equivalence(kbar, "landweber", 10) <= 1e-8
            assert verify_spectral_equivalence(kbar, "nu", 8) <= 1e-8
            assert verify_spectral_equivalence(kbar, "itik", 3, lam=0.2) <= 1e-8

    def test_operator_equivalence_scalar_case(self):
        # single point x = 1, lambda = 1: operator side (1/(1+1)) * 1 = 0.5
        diff = verify_operator_equivalence(np.array([[1.0]]), 1.0)
        assert diff <= 1e-12
        from kmse.estimators import spectral_weights
        from kmse.filters import Tikhonov
        from kmse.kernels import linear_spec_for

        rows = np.array([[1.0]])
        kbar = normalize_gram(gram_matrix(rows, linear_spec_for(rows)))
        beta = spectral_weights(kbar, Tikhonov(1.0)).weights
        value = float(((rows @ rows.T) @ beta)[0])
        np.testing.assert_allclose(value, 0.5, atol=1e-14)

    def test_operator_equivalence_random(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rows = rng.standard_normal((40, 5))
            for lam in (0.1, 1.0):
                assert verify_operator_equivalence(rows, lam) <= 1e-8

    def test_operator_equivalence_small_lambda_limit(self):
        rows = np.random.default_rng(7).standard_normal((30, 4))
        assert verify_operator_equivalence(rows, 1e-10) <= 1e-8

    def test_operator_equivalence_requires_small_problem(self):
        with pytest.raises(InputError):
            verify_operator_equivalence(np.zeros((201, 2)) + 1.0, 0.1)


class TestRateExperiment:
    def test_exact_slope_minus_one(self):
        config = RateExperimentConfig(
            c=1.0, smoothness_exponent=1.0, n_grid=(1000, 10000, 100000), d=3
        )
        result = rate_experiment(config)
        assert abs(result.slope + 1.0) <= 0.05

    def test_tiny_c_matches_empirical_estimator(self):
        config = RateExperimentConfig(
            c=1e-12, smoothness_exponent=1.0, n_grid=(10, 100, 1000), d=3
        )
        result = rate_experiment(config)
        for point in result.points:
            assert abs(point.risk - point.kme_risk) <= 1e-10

    def test_large_b_matches_empirical_estimator(self):
        # lambda = n^-8 leaves a relative gap of about 2/n^8: 6e-9 at n=10,
        # then far below measurement relevance
        config = RateExperimentConfig(
            c=1.0, smoothness_exponent=8.0, n_grid=(10, 100, 1000), d=3
        )
        result = rate_experiment(config)
        for point in result.points:
            assert abs(point.risk - point.kme_risk) <= 1e-7 * point.kme_risk
        assert abs(result.points[-1].risk - result.points[-1].kme_risk) <= 1e-10

    def test_standard_gaussian_exact_values(self):
        # d=3 standard normal, linear kernel: ||mu||^2 = 0, int k dP = 3
        config = RateExperimentConfig(
            c=1.0, smoothness_exponent=1.0, n_grid=(10, 100), d=3
        )
        result = rate_experiment(config, standard_gaussian_params(3))
        for point in result.points:
            n = point.n
            want = (n / (n + 1.0)) ** 2 * 3.0 / n
            np.testing.assert_allclose(point.risk, want, rtol=1e-12)
            np.testing.assert_allclose(point.kme_risk, 3.0 / n, rtol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(InputError):
            RateExperimentConfig(c=1.0, smoothness_exponent=1.0, n_grid=(10,))
        with pytest.raises(InputError):
            RateExperimentConfig(c=1.0, smoothness_exponent=1.0, n_grid=(10, 10))
        with pytest.raises(InputError, match="at least 1, got 0"):
            RateExperimentConfig(c=1.0, smoothness_exponent=1.0, n_grid=(0, 10))

    def test_monte_carlo_path_runs(self):
        config = RateExperimentConfig(
            c=1.0,
            smoothness_exponent=1.0,
            n_grid=(10, 20),
            replications=5,
            kernel="rbf",
            d=2,
            seed=3,
        )
        result = rate_experiment(config)
        assert len(result.points) == 2
        assert all(p.stderr > 0 for p in result.points)
