import numpy as np
import pytest

from kmse.errors import ConfigurationError, InputError
from kmse.estimators import (
    DIVERGENCE_FACTOR,
    RESOLVENT_MIN_LAMBDA,
    _guard,
    empirical_kme_weights,
    evaluate_estimate,
    fit_fixed,
    fit_spec,
    iterated_tikhonov_weights,
    landweber_weights,
    nu_method_weights,
    skmse_weights,
    spectral_weights,
    tsvd_weights,
    two_term_path,
)
from kmse.filters import (
    IteratedTikhonov,
    Landweber,
    NuMethod,
    SKMSE,
    TSVD,
    Tikhonov,
    two_term_iterates,
    two_term_steps,
)
from kmse.kernels import (
    GaussianRBF,
    Linear,
    NormalizedGram,
    gram_matrix,
    median_heuristic_bandwidth,
    normalize_gram,
)
from kmse.linalg import SymMatrix


def random_kbar(rng, n=12, d=3):
    rows = rng.standard_normal((n, d))
    return normalize_gram(
        gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
    ), rows


def duplicate_point_kbar():
    gram = gram_matrix(np.array([[1.5], [1.5]]), GaussianRBF(1.0))
    return normalize_gram(gram)


class TestUniformWeights:
    def test_kme_single(self):
        np.testing.assert_allclose(empirical_kme_weights(1).weights, [1.0])

    def test_kme_four(self):
        np.testing.assert_allclose(empirical_kme_weights(4).weights, np.full(4, 0.25))

    def test_kme_sums_to_one(self):
        for n in (2, 7, 31):
            assert empirical_kme_weights(n).weights.sum() == pytest.approx(1.0)

    def test_kme_rejects_zero(self):
        with pytest.raises(InputError):
            empirical_kme_weights(0)

    def test_skmse_no_shrinkage(self):
        np.testing.assert_allclose(
            skmse_weights(5, 0.0).weights, empirical_kme_weights(5).weights
        )

    def test_skmse_halves_at_lambda_one(self):
        np.testing.assert_allclose(skmse_weights(2, 1.0).weights, [0.25, 0.25])

    def test_skmse_large_lambda_shrinks_to_zero(self):
        assert np.abs(skmse_weights(3, 1e12).weights).max() < 1e-12


class TestSpectralWeights:
    def test_tiny_lambda_recovers_uniform(self):
        # well-conditioned normalized Gram: far-apart points, K ~ I
        rows = np.array([[0.0], [50.0], [100.0], [150.0]])
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(1.0)))
        beta = spectral_weights(kbar, Tikhonov(1e-10)).weights
        assert np.abs(beta - 0.25).max() <= 1e-6

    def test_duplicate_points_match_uniform_shrinkage(self):
        # rank-1 all-ones Gram: filtering on K/n reproduces mu_hat / (1 + lambda)
        kbar = duplicate_point_kbar()
        beta = spectral_weights(kbar, Tikhonov(1.0)).weights
        np.testing.assert_allclose(beta, [0.25, 0.25], atol=1e-12)

    def test_tsvd_threshold_above_spectrum_gives_zero(self):
        kbar, _ = random_kbar(np.random.default_rng(0))
        beta = spectral_weights(kbar, TSVD(kbar.kappa_sq * 2.0)).weights
        np.testing.assert_allclose(beta, 0.0)

    def test_skmse_filter_path_matches_direct_weights(self):
        kbar, _ = random_kbar(np.random.default_rng(1))
        via_filter = spectral_weights(kbar, SKMSE(0.8)).weights
        direct = skmse_weights(kbar.n, 0.8).weights
        np.testing.assert_allclose(via_filter, direct, atol=1e-10)

    def test_landweber_step_size_validated(self):
        kbar, _ = random_kbar(np.random.default_rng(2))
        with pytest.raises(ConfigurationError):
            spectral_weights(kbar, Landweber(5, eta=2.0 / kbar.kappa_sq))


class TestIterativePaths:
    def test_landweber_first_step(self):
        kbar, _ = random_kbar(np.random.default_rng(3))
        got = landweber_weights(kbar, 1).weights
        want = kbar.matrix.values @ np.full(kbar.n, 1.0 / kbar.n)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_landweber_converges_to_uniform(self):
        rows = np.array([[0.0], [40.0], [80.0]])
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(1.0)))
        got = landweber_weights(kbar, 4000).weights
        assert np.abs(got - 1.0 / 3.0).max() < 1e-8

    def test_landweber_equals_spectral_path(self):
        rng = np.random.default_rng(4)
        for _ in range(100):
            kbar, _ = random_kbar(rng, n=int(rng.integers(3, 30)))
            t = int(rng.integers(1, 40))
            iterative = landweber_weights(kbar, t).weights
            spectral = spectral_weights(kbar, Landweber(t, 1.0 / kbar.kappa_sq)).weights
            assert np.abs(iterative - spectral).max() <= 1e-8

    def test_nu_first_step(self):
        kbar, _ = random_kbar(np.random.default_rng(5))
        got = nu_method_weights(kbar, 1).weights
        kappa1 = (4.0 + 2.0) / (4.0 + 1.0)
        want = kappa1 * kbar.matrix.values @ np.full(kbar.n, 1.0 / kbar.n)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_nu_equals_spectral_path(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            kbar, _ = random_kbar(rng, n=20)
            t = int(rng.integers(1, 21))
            iterative = nu_method_weights(kbar, t).weights
            spectral = spectral_weights(
                kbar, NuMethod(t, 1.0, 1.0 / kbar.kappa_sq)
            ).weights
            assert np.abs(iterative - spectral).max() <= 1e-8

    def test_nu_accelerates_landweber(self):
        # the accelerated residual ||Kbar beta - Kbar 1_n|| oscillates while
        # descending, so the comparison uses its running minimum: by t = 15 it
        # is below the plain-gradient residual, and by t = 30 well below it
        from kmse.estimators import landweber_path, nu_method_path

        rng = np.random.default_rng(7)
        for _ in range(20):
            kbar, _ = random_kbar(rng, n=15)
            kv = kbar.matrix.values
            target = kv @ np.full(kbar.n, 1.0 / kbar.n)
            res_lw = np.linalg.norm(landweber_path(kv, 30, 1.0) @ kv - target, axis=1)
            res_nu = np.linalg.norm(nu_method_path(kv, 30, 1.0, 1.0) @ kv - target, axis=1)
            best_nu = np.minimum.accumulate(res_nu)
            assert best_nu[14] <= res_lw[14] + 1e-15
            assert best_nu[29] <= 0.75 * res_lw[29]

    @pytest.mark.parametrize("spec", [Landweber(10, 1.0), NuMethod(10, 1.0, 1.0)])
    def test_two_term_path_applies_kbar_once_per_step_but_the_last(self, spec):
        # beta^T is the last weight vector; K/n beta^T would only feed a step
        # the path does not take
        kbar, _ = random_kbar(np.random.default_rng(16))
        kv = kbar.matrix.values

        class CountingKbar:
            shape = kv.shape
            products = 0

            def mean(self, axis):
                return kv.mean(axis=axis)

            def __matmul__(self, x):
                CountingKbar.products += 1
                return kv @ x

        steps = two_term_steps(spec)
        path = two_term_path(CountingKbar(), steps)
        assert CountingKbar.products == 9
        every_iterate = list(two_term_iterates(steps, kv.mean(axis=1), kv.__matmul__))
        assert np.array_equal(path, np.array(every_iterate))

    def test_fit_spec_runs_nu_at_its_step(self):
        kbar, _ = random_kbar(np.random.default_rng(14))
        spec = NuMethod(5, 1.0, 0.25 / kbar.kappa_sq)
        fitted = fit_spec(kbar, spec)
        assert fitted.shrinkage == spec
        np.testing.assert_allclose(
            fitted.weights, spectral_weights(kbar, spec).weights, rtol=1e-10, atol=1e-14
        )

    def test_fit_spec_rejects_nu_step_above_bound(self):
        kbar, _ = random_kbar(np.random.default_rng(15))
        with pytest.raises(ConfigurationError, match="accelerated step scale"):
            fit_spec(kbar, NuMethod(5, 1.0, 5.0 / kbar.kappa_sq))

    def test_itik_single_step_is_tikhonov(self):
        kbar, _ = random_kbar(np.random.default_rng(8))
        got = iterated_tikhonov_weights(kbar, 1, 0.4).weights
        want = spectral_weights(kbar, Tikhonov(0.4)).weights
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_itik_two_by_two_by_hand(self):
        # (Kbar + 0.5 I) beta = Kbar 1_n with Kbar = [[.5,.25],[.25,.5]] -> (0.3, 0.3)
        kbar = NormalizedGram(SymMatrix([[0.5, 0.25], [0.25, 0.5]]), kappa_sq=1.0)
        got = iterated_tikhonov_weights(kbar, 1, 0.5).weights
        np.testing.assert_allclose(got, [0.3, 0.3], atol=1e-14)

    def test_itik_three_steps_equal_spectral(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            kbar, _ = random_kbar(rng, n=int(rng.integers(3, 30)))
            lam = float(rng.uniform(0.01, 1.0))
            iterative = iterated_tikhonov_weights(kbar, 3, lam).weights
            spectral = spectral_weights(kbar, IteratedTikhonov(3, lam)).weights
            assert np.abs(iterative - spectral).max() <= 1e-10


def kbar_with_duplicates(kernel, n, seed=0):
    """K/n of n standard normal rows in 3-d whose last row repeats the first."""
    rows = np.random.default_rng(seed).standard_normal((n, 3))
    rows[-1] = rows[0]
    spec = GaussianRBF(median_heuristic_bandwidth(rows)) if kernel == "rbf" else Linear()
    return normalize_gram(gram_matrix(rows, spec))


class TestFitFixed:
    """A fixed Tikhonov fit above the floor is one Cholesky solve of
    (K/n + lam I) beta = (K/n) 1_n and equals the spectral path to 1e-10.

    Relative L2 distance of that solve from ``spectral_weights`` on the
    n=2000, d=5 ``spectral_fit`` benchmark input (seed 5):

    | lam / kappa^2 | RBF     | linear (kappa^2 = 73) |
    | ------------- | ------- | --------------------- |
    | 10            | 9.5e-16 | 1.3e-15               |
    | 0.1           | 2.9e-15 | 1.2e-15               |
    | 0.05          | 6.3e-15 | 1.6e-15               |
    | 1e-2          | 5.1e-14 | 7.9e-15               |
    | 1e-3 (floor)  | 5.7e-13 | 1.0e-13               |
    | 1e-6          | 5.4e-10 | 1.1e-10               |
    | 1e-12         | 4.4e-4  | 1.1e-4                |
    | 1e-15         | 0.35    | 0.10                  |

    The error grows like 1/lam, and on the linear kernel an absolute lam of
    1e-15 makes the Cholesky factorization raise ``DefinitenessError``. Below
    the floor a fixed fit therefore stays on the spectral path.
    """

    @pytest.mark.parametrize("n", [3, 50, 300])
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("ratio", [RESOLVENT_MIN_LAMBDA, 1e-2, 0.1, 1.0, 10.0])
    def test_resolvent_equals_spectral(self, kernel, n, ratio):
        kbar = kbar_with_duplicates(kernel, n)
        spec = Tikhonov(ratio * kbar.kappa_sq)
        got = fit_fixed(kbar, spec)
        assert kbar._spectrum is None  # no eigendecomposition was made
        want = spectral_weights(kbar, spec)
        error = np.linalg.norm(got.weights - want.weights) / np.linalg.norm(want.weights)
        assert error <= 1e-10
        assert (got.estimator_id, got.shrinkage) == ("tikhonov", spec)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("ratio", [RESOLVENT_MIN_LAMBDA * 0.999, 1e-6, 1e-12])
    def test_below_the_floor_stays_spectral(self, kernel, ratio):
        kbar = kbar_with_duplicates(kernel, 50)
        spec = Tikhonov(ratio * kbar.kappa_sq)
        got = fit_fixed(kbar, spec)
        want = fit_spec(kbar, spec)
        assert np.array_equal(got.weights, want.weights)
        assert (got.estimator_id, got.shrinkage) == (want.estimator_id, want.shrinkage)

    @pytest.mark.parametrize("fit", [fit_fixed, fit_spec])
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    @pytest.mark.parametrize("t", [1, 3])
    @pytest.mark.parametrize("ratio", [RESOLVENT_MIN_LAMBDA * 0.999, 1e-6, 1e-12])
    def test_iterated_tikhonov_below_the_floor_is_spectral(self, kernel, t, ratio, fit):
        # the t Cholesky solves lose digits like 1/lam: on 303 normal rows in
        # 5-d with the linear kernel and lam = 1e-15 they missed the spectral
        # weights by 59% (t=1) and 153% (t=3), relative L2; the floor, not
        # the selection rule, picks the path
        kbar = kbar_with_duplicates(kernel, 50)
        spec = IteratedTikhonov(t, ratio * kbar.kappa_sq)
        got = fit(kbar, spec)
        want = spectral_weights(kbar, spec)
        assert np.array_equal(got.weights, want.weights)
        assert (got.estimator_id, got.shrinkage) == ("itik", spec)

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_other_specs_equal_fit_spec(self, kernel):
        kbar = kbar_with_duplicates(kernel, 50)
        eta = 1.0 / kbar.kappa_sq
        for spec in (SKMSE(0.3), Landweber(7, eta), NuMethod(5, 1.5, eta),
                     IteratedTikhonov(3, 0.2 * kbar.kappa_sq), TSVD(0.01 * kbar.kappa_sq)):
            got = fit_fixed(kbar, spec)
            want = fit_spec(kbar, spec)
            assert np.array_equal(got.weights, want.weights), spec
            assert (got.estimator_id, got.shrinkage) == (want.estimator_id, want.shrinkage)

    def test_floor_scales_with_kappa_sq(self):
        # the same lam is above the floor at kappa^2 = 1 and below it at 1e4
        kbar = kbar_with_duplicates("rbf", 20)
        wide = NormalizedGram(kbar.matrix, kappa_sq=1e4)
        fit_fixed(kbar, Tikhonov(2.0 * RESOLVENT_MIN_LAMBDA))
        assert kbar._spectrum is None
        fit_fixed(wide, Tikhonov(2.0 * RESOLVENT_MIN_LAMBDA))
        assert wide._spectrum is not None


class TestDivergenceGuard:
    """No column of the iterate may have a norm above DIVERGENCE_FACTOR/sqrt(n)."""

    N = 4
    BOUND = DIVERGENCE_FACTOR / np.sqrt(N)

    def column(self, scale):
        # norm BOUND * scale, spread over every entry so the sum of squares counts
        return np.full(self.N, self.BOUND * scale / np.sqrt(self.N))

    @pytest.mark.parametrize("scale", [1.0 + 1e-9, np.inf])
    def test_over_the_bound_raises(self, scale):
        col = self.column(scale)
        matrix = np.column_stack([np.zeros(self.N), col, np.ones(self.N)])
        for beta in (col, matrix):
            with pytest.raises(ConfigurationError, match="diverged"):
                _guard(beta, self.N)

    def test_just_under_the_bound_passes(self):
        col = self.column(1.0 - 1e-9)
        _guard(col, self.N)
        _guard(np.column_stack([col, -col, np.zeros(self.N)]), self.N)


class TestTsvdWeights:
    def test_threshold_below_spectrum_recovers_uniform(self):
        rows = np.array([[0.0], [60.0], [120.0]])
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(1.0)))
        gamma_min = np.clip(kbar.spectrum.eigenvalues, 0, None).min()
        beta = tsvd_weights(kbar, gamma_min * 0.5).weights
        np.testing.assert_allclose(beta, 1.0 / 3.0, atol=1e-10)

    def test_threshold_above_spectrum_gives_zero(self):
        kbar, _ = random_kbar(np.random.default_rng(10))
        np.testing.assert_allclose(tsvd_weights(kbar, 2.0).weights, 0.0)

    def test_rank_one_duplicate_keeps_uniform(self):
        # all-ones 2x2 Gram: spectrum {1, 0}; threshold 0.5 keeps the range
        # component, and 1_n lies entirely inside it
        kbar = duplicate_point_kbar()
        beta = tsvd_weights(kbar, 0.5).weights
        np.testing.assert_allclose(beta, [0.5, 0.5], atol=1e-12)


class TestEvaluateEstimate:
    def test_kme_far_apart_points(self):
        rows = np.array([[0.0], [100.0], [200.0]])
        value = evaluate_estimate(
            rows, empirical_kme_weights(3), GaussianRBF(1.0), [0.0]
        )
        np.testing.assert_allclose(value, 1.0 / 3.0, atol=1e-12)

    def test_zero_weights(self):
        rows = np.array([[0.0], [1.0]])
        beta = np.zeros(2)
        assert evaluate_estimate(rows, beta, GaussianRBF(1.0), [0.3]) == 0.0

    def test_symmetric_pair_average(self):
        rows = np.array([[-1.0], [1.0]])
        got = evaluate_estimate(rows, np.array([0.5, 0.5]), GaussianRBF(2.0), [0.0])
        np.testing.assert_allclose(got, np.exp(-0.25), rtol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            evaluate_estimate(np.eye(2), np.full(2, 0.5), GaussianRBF(1.0), [1.0, 2.0, 3.0])


class TestStructuralInvariants:
    def test_tikhonov_norm_non_increasing_in_lambda(self):
        rng = np.random.default_rng(11)
        kbar, rows = random_kbar(rng, n=20)
        K = kbar.matrix.values * kbar.n
        lams = np.geomspace(1e-6, 1e2, 30)
        norms = []
        for lam in lams:
            beta = spectral_weights(kbar, Tikhonov(float(lam))).weights
            norms.append(float(np.sqrt(beta @ K @ beta)))
        assert np.all(np.diff(norms) <= 1e-12)

    def test_no_shrinkage_limits_sup_norm(self):
        rows = np.array([[0.0], [30.0], [60.0], [90.0]])
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(1.0)))
        uniform = np.full(4, 0.25)
        devs = [
            np.abs(spectral_weights(kbar, Tikhonov(float(lam))).weights - uniform).max()
            for lam in (1e-2, 1e-4, 1e-6, 1e-8)
        ]
        assert np.all(np.diff(devs) <= 1e-15)
        assert devs[-1] < 1e-7

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(12)
        rows = rng.standard_normal((14, 3))
        sigma_sq = median_heuristic_bandwidth(rows)
        perm = rng.permutation(14)
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(sigma_sq)))
        kbar_p = normalize_gram(gram_matrix(rows[perm], GaussianRBF(sigma_sq)))
        gammas = np.clip(kbar.spectrum.eigenvalues, 0.0, None)
        safe_threshold = float((gammas[2] + gammas[3]) / 2)  # between eigenvalues
        for fit in (
            lambda kb: spectral_weights(kb, Tikhonov(0.1)).weights,
            lambda kb: landweber_weights(kb, 8).weights,
            lambda kb: iterated_tikhonov_weights(kb, 3, 0.1).weights,
            lambda kb: nu_method_weights(kb, 6).weights,
            lambda kb: tsvd_weights(kb, safe_threshold).weights,
            lambda kb: skmse_weights(kb.n, 0.3).weights,
        ):
            direct = fit(kbar)[perm]
            permuted = fit(kbar_p)
            assert np.abs(direct - permuted).max() <= 1e-10
