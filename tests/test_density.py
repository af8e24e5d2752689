import numpy as np
import pytest

from kmse.data import standardize
from kmse.density import (
    KmmFitConfig,
    MixtureModel,
    _beta_quad,
    _pack,
    _value_and_grad,
    kmeans_init,
    kmm_fit,
    kmm_objective,
    kmm_objective_grad,
    nll,
)
from kmse.errors import InputError
from kmse.estimators import empirical_kme_weights
from kmse.kernels import GaussianRBF, cross_kernel, median_heuristic_bandwidth
from kmse.synthetic import MixtureParams, RngStream, sample_mixture


def two_blob_rows(seed=0, n=60, gap=8.0):
    rng = RngStream(seed, 0).generator()
    a = rng.standard_normal((n // 2, 2)) * 0.5
    b = rng.standard_normal((n - n // 2, 2)) * 0.5 + gap
    return np.vstack([a, b])


def random_model(rng, r=3, d=2):
    logits = rng.standard_normal(r)
    w = np.exp(logits) / np.exp(logits).sum()
    return MixtureModel(
        weights=w,
        means=rng.standard_normal((r, d)) * 2,
        variances=rng.uniform(0.3, 2.0, size=r),
    )


class TestKmeansInit:
    def test_single_cluster_moments(self):
        rng = np.random.default_rng(0)
        rows = rng.standard_normal((50, 3)) * 2 + 1
        model = kmeans_init(rows, 1, 1, RngStream(0, 0))
        np.testing.assert_allclose(model.means[0], rows.mean(axis=0), atol=1e-12)
        want_var = ((rows - rows.mean(axis=0)) ** 2).sum(axis=1).mean() / 3
        np.testing.assert_allclose(model.variances[0], want_var, rtol=1e-12)
        assert model.weights[0] == 1.0

    def test_two_separated_blobs(self):
        for seed in range(10):
            rows = two_blob_rows(seed)
            model = kmeans_init(rows, 2, 5, RngStream(seed, 1))
            centers = model.means[np.argsort(model.means[:, 0])]
            true_a = rows[rows[:, 0] < 4].mean(axis=0)
            true_b = rows[rows[:, 0] >= 4].mean(axis=0)
            assert np.linalg.norm(centers[0] - true_a) < 0.1
            assert np.linalg.norm(centers[1] - true_b) < 0.1

    def test_more_restarts_never_worse(self):
        rng = np.random.default_rng(5)
        rows = rng.standard_normal((40, 2))

        def wcss(model):
            d2 = ((rows[:, None, :] - model.means[None]) ** 2).sum(axis=2)
            return d2.min(axis=1).sum()

        one = kmeans_init(rows, 3, 1, RngStream(7, 0))
        many = kmeans_init(rows, 3, 50, RngStream(7, 0))
        assert wcss(many) <= wcss(one) + 1e-9

    def test_needs_enough_rows(self):
        with pytest.raises(InputError):
            kmeans_init(np.zeros((2, 2)), 3, 1, RngStream(0, 0))


class TestKmmObjective:
    def test_point_mass_limit_is_zero(self):
        # components glued to the data with tiny variances and matching
        # weights reproduce the target estimate
        rows = np.array([[0.0, 0.0], [4.0, 4.0]])
        beta = np.full(2, 0.5)
        model = MixtureModel(
            weights=np.full(2, 0.5),
            means=rows.copy(),
            variances=np.full(2, 1e-6),
        )
        value = kmm_objective(model, beta, rows, 1.0)
        assert abs(value) < 1e-3

    def test_zero_target_gives_model_norm(self):
        rng = np.random.default_rng(1)
        rows = rng.standard_normal((10, 2))
        model = random_model(rng)
        value = kmm_objective(model, np.zeros(10), rows, 1.0)
        assert value > 0.0

    def test_equals_squared_mmd_against_empirical(self):
        # with uniform target weights the objective is the squared MMD
        # between the model and the empirical measure; cross-check by a
        # direct double-sum evaluation of all three terms
        rng = np.random.default_rng(2)
        rows = rng.standard_normal((20, 2))
        sigma_sq = float(median_heuristic_bandwidth(rows))
        model = random_model(rng)
        beta = empirical_kme_weights(20)
        got = kmm_objective(model, beta, rows, sigma_sq)

        def inner_iso(x, theta, s2):
            pref = (sigma_sq / (s2 + sigma_sq)) ** (rows.shape[1] / 2)
            return pref * np.exp(-((x - theta) ** 2).sum() / (2 * (s2 + sigma_sq)))

        qq = 0.0
        for j in range(model.r):
            for l in range(model.r):
                s = model.variances[j] + model.variances[l] + sigma_sq
                pref = (sigma_sq / s) ** (rows.shape[1] / 2)
                qq += (
                    model.weights[j]
                    * model.weights[l]
                    * pref
                    * np.exp(-((model.means[j] - model.means[l]) ** 2).sum() / (2 * s))
                )
        qx = sum(
            model.weights[j] * inner_iso(x, model.means[j], model.variances[j])
            for x in rows
            for j in range(model.r)
        ) / 20
        K = np.exp(
            -((rows[:, None, :] - rows[None]) ** 2).sum(axis=2) / (2 * sigma_sq)
        )
        xx = K.mean()
        np.testing.assert_allclose(got, qq - 2 * qx + xx, rtol=1e-10)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(5, 25))
            d = int(rng.integers(1, 4))
            r = int(rng.integers(1, 4))
            rows = rng.standard_normal((n, d))
            beta = rng.standard_normal(n) * 0.2
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
                fd[i] = (up - dn) / (2 * h)
            denom = max(np.linalg.norm(grad), 1e-10)
            assert np.linalg.norm(grad - fd) / denom <= 1e-5


class TestKmmInputs:
    """The objective, its gradient and the fit reject the same bad inputs."""

    ROWS = np.random.default_rng(7).standard_normal((6, 2))
    MODEL = MixtureModel(
        weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0])
    )

    @pytest.mark.parametrize(
        "call",
        [
            lambda rows, beta: kmm_objective(TestKmmInputs.MODEL, beta, rows, 1.0),
            lambda rows, beta: kmm_objective_grad(TestKmmInputs.MODEL, beta, rows, 1.0),
            lambda rows, beta: kmm_fit(rows, beta, 1, 1.0, KmmFitConfig(restarts=1)),
        ],
        ids=["objective", "grad", "fit"],
    )
    def test_weight_count_must_match_rows(self, call):
        with pytest.raises(InputError, match="for 6 points"):
            call(self.ROWS, np.full(5, 0.2))

    @pytest.mark.parametrize("function", [kmm_objective, kmm_objective_grad])
    def test_model_dimension_must_match_data(self, function):
        with pytest.raises(InputError, match="model dimension 2 != data dimension 3"):
            function(self.MODEL, np.full(6, 1 / 6), np.zeros((6, 3)), 1.0)

    def test_beta_quad_is_the_rbf_gram_form(self):
        beta = np.linspace(-1.0, 1.0, 6)
        gram = cross_kernel(GaussianRBF(0.7), self.ROWS, self.ROWS)
        assert _beta_quad(self.ROWS, beta, 0.7) == float(beta @ gram @ beta)


class TestKmmFit:
    def test_single_gaussian_recovers_mean(self):
        rng = RngStream(11, 0).generator()
        rows = rng.standard_normal((80, 2)) * 0.8 + np.array([1.5, -0.5])
        data = standardize(rows)
        sigma_sq = float(median_heuristic_bandwidth(data.rows))
        beta = empirical_kme_weights(80)
        model = kmm_fit(data.rows, beta, 1, sigma_sq, KmmFitConfig(restarts=5, seed=1))
        assert np.linalg.norm(model.means[0] - data.rows.mean(axis=0)) < 0.1

    def test_descent_from_initialization(self):
        rows = two_blob_rows(2)
        sigma_sq = float(median_heuristic_bandwidth(rows))
        beta = empirical_kme_weights(rows.shape[0])
        init = kmeans_init(rows, 2, 5, RngStream(3, 0))
        fitted = kmm_fit(rows, beta, 2, sigma_sq, KmmFitConfig(restarts=5, seed=3))
        assert kmm_objective(fitted, beta, rows, sigma_sq) <= kmm_objective(
            init, beta, rows, sigma_sq
        ) + 1e-12

    def test_weights_stay_on_simplex(self):
        rows = two_blob_rows(4)
        sigma_sq = float(median_heuristic_bandwidth(rows))
        model = kmm_fit(
            rows,
            empirical_kme_weights(rows.shape[0]),
            3,
            sigma_sq,
            KmmFitConfig(restarts=3, seed=4, max_iters=300),
        )
        assert abs(model.weights.sum() - 1.0) <= 1e-12
        assert model.weights.min() >= 0.0
        assert model.variances.min() >= 1e-6 * (1 - 1e-12)


class TestNll:
    def test_standard_normal_at_origin(self):
        model = MixtureModel(
            weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0])
        )
        np.testing.assert_allclose(
            nll(model, np.zeros((1, 2))), np.log(2 * np.pi), rtol=1e-12
        )

    def test_duplicate_far_component_unchanged(self):
        base = MixtureModel(
            weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0])
        )
        split = MixtureModel(
            weights=np.array([0.5, 0.5]),
            means=np.zeros((2, 2)),
            variances=np.array([1.0, 1.0]),
        )
        test = np.random.default_rng(5).standard_normal((20, 2))
        np.testing.assert_allclose(nll(base, test), nll(split, test), atol=1e-12)

    def test_true_generator_beats_miscentered(self):
        params = MixtureParams(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            covariances=np.eye(2)[None],
            noise_var=0.0,
        )
        test = sample_mixture(params, 4000, RngStream(6, 0)).rows
        true_model = MixtureModel(
            weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0])
        )
        shifted = MixtureModel(
            weights=np.array([1.0]),
            means=np.array([[2.0, 2.0]]),
            variances=np.array([1.0]),
        )
        assert nll(true_model, test) < nll(shifted, test)

    def test_empty_test_rejected(self):
        model = MixtureModel(
            weights=np.array([1.0]), means=np.zeros((1, 2)), variances=np.array([1.0])
        )
        with pytest.raises(InputError):
            nll(model, np.zeros((0, 2)))
