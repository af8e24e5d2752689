import gc

import numpy as np
import pytest
import scipy.linalg

from kmse.errors import ConfigurationError, InputError, ReplicationError
from kmse.estimators import (
    ESTIMATORS,
    RESOLVENT_MIN_LAMBDA,
    EstimatorConfig,
    WeightVector,
    empirical_kme_weights,
    evaluate_estimate,
    fit_weights,
    iterated_tikhonov_weights,
    landweber_path,
    landweber_weights,
    nu_method_path,
    nu_method_weights,
    skmse_weights,
    spectral_weights,
    tsvd_ladder,
)
from kmse.filters import SKMSE, TSVD, IteratedTikhonov, Landweber, NuMethod, Tikhonov
from kmse.kernels import (
    GaussianRBF,
    NormalizedGram,
    gram_matrix,
    median_heuristic_bandwidth,
    normalize_gram,
)
from kmse.linalg import SymMatrix
from kmse.risk import (
    _rkhs_loss,
    component_mean_inners,
    improvement_percent,
    kernel_mean_inner,
    loss,
    mixture_mean_inners,
    mixture_mean_sq_norm,
    replication_losses,
    risk_estimate,
)
from kmse import risk
from kmse.selection import gcv_select_tsvd, loocv_select_iterations, loocv_select_lambda
from kmse.synthetic import (
    MixtureParams,
    RngStream,
    draw_mixture_params,
    effective_components,
    sample_mixture,
)


def point_mass(theta, d):
    return MixtureParams(
        weights=np.array([1.0]),
        means=np.asarray(theta, float).reshape(1, d),
        covariances=np.zeros((1, d, d)),
        noise_var=0.0,
    )


def two_gaussians(delta, var=0.0):
    covs = np.stack([var * np.eye(1), var * np.eye(1)])
    return MixtureParams(
        weights=np.array([0.5, 0.5]),
        means=np.array([[0.0], [delta]]),
        covariances=covs,
        noise_var=0.0,
    )


class TestKernelMeanInner:
    def test_point_mass_at_query(self):
        assert kernel_mean_inner([1.0, 2.0], [1.0, 2.0], np.zeros((2, 2)), 1.0) == 1.0

    def test_unit_gaussian_hand_value(self):
        # d=1, Sigma = sigma^2 = 1, x = theta: (1)^(1/2) (2)^(-1/2) = 1/sqrt(2)
        got = kernel_mean_inner([0.0], [0.0], np.eye(1), 1.0)
        np.testing.assert_allclose(got, 1.0 / np.sqrt(2.0), rtol=1e-14)

    def test_always_in_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            d = int(rng.integers(1, 5))
            sigma = rng.standard_normal((d, d))
            sigma = sigma @ sigma.T
            got = kernel_mean_inner(
                rng.standard_normal(d), rng.standard_normal(d), sigma,
                float(rng.uniform(0.1, 5.0)),
            )
            assert 0.0 < got <= 1.0

    def test_non_psd_covariance_rejected_at_psd_tolerance(self):
        # smallest eigenvalue -1e-9 relative to the largest: within 1e-8, beyond 1e-10
        with pytest.raises(InputError, match="not positive semidefinite"):
            kernel_mean_inner([0.0, 0.0], [0.0, 0.0], np.diag([1.0, -1e-9]), 1.0)

    def test_monte_carlo_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((d, d))
            sigma = a @ a.T
            theta = rng.standard_normal(d)
            x = rng.standard_normal(d)
            sigma_sq = float(rng.uniform(0.5, 3.0))
            closed = kernel_mean_inner(x, theta, sigma, sigma_sq)
            chol = np.linalg.cholesky(sigma + 1e-12 * np.eye(d))
            draws = theta + rng.standard_normal((200000, d)) @ chol.T
            vals = np.exp(-((draws - x) ** 2).sum(axis=1) / (2 * sigma_sq))
            stderr = vals.std(ddof=1) / np.sqrt(vals.size)
            assert abs(closed - vals.mean()) <= 3 * stderr


class TestMixtureMeanInners:
    def test_mixes_the_component_integrals(self):
        # z from the mixture's stored factors equals the per-component
        # integrals, each factoring its covariance afresh
        params = effective_components(draw_mixture_params(6, RngStream(21, 0)))
        X = sample_mixture(params, 30, RngStream(21, 1)).rows
        want = np.zeros(30)
        for pi_j, theta, sigma in zip(params.weights, params.means, params.covariances):
            want += pi_j * component_mean_inners(X, theta, sigma, 2.5)
        np.testing.assert_array_equal(mixture_mean_inners(X, params, 2.5), want)

    @pytest.mark.parametrize("sigma_sq", [0.0, -1.0, float("nan")])
    def test_bandwidth_must_be_positive(self, sigma_sq):
        with pytest.raises(InputError, match="sigma_sq must be positive"):
            mixture_mean_inners(np.zeros((2, 1)), point_mass([0.0], 1), sigma_sq)

    @pytest.mark.parametrize(
        "inner",
        [
            lambda s: kernel_mean_inner(np.zeros(2), np.zeros(2), np.eye(2), s),
            lambda s: component_mean_inners(np.zeros((3, 2)), np.zeros(2), np.eye(2), s),
        ],
    )
    def test_infinite_bandwidth_refused(self, inner):
        # inf passes a bare sigma_sq > 0 test and gives NaN with a RuntimeWarning
        with pytest.raises(InputError, match="sigma_sq must be positive and finite, got inf"):
            inner(float("inf"))

    def test_unfolded_noise_rejected(self):
        # the noise widens every component; ignoring it gave a z that disagreed
        # with ||mu_P||^2 (0.005281 against 0.005505 at x = 0 here)
        params = draw_mixture_params(2, RngStream(1, 0))
        assert params.noise_var > 0
        with pytest.raises(InputError, match="fold the noise"):
            mixture_mean_inners(np.zeros((1, 2)), params, 1.0)
        z = mixture_mean_inners(np.zeros((1, 2)), effective_components(params), 1.0)
        np.testing.assert_allclose(z, 0.005505, rtol=1e-3)


class TestMixtureMeanSqNorm:
    def test_point_mass_norm_is_one(self):
        assert mixture_mean_sq_norm(point_mass([3.0], 1), 2.0) == pytest.approx(1.0)

    def test_two_equal_components_same_as_one(self):
        single = point_mass([1.0], 1)
        double = MixtureParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[1.0], [1.0]]),
            covariances=np.zeros((2, 1, 1)),
            noise_var=0.0,
        )
        np.testing.assert_allclose(
            mixture_mean_sq_norm(double, 1.5),
            mixture_mean_sq_norm(single, 1.5),
            rtol=1e-14,
        )

    def test_two_point_masses_hand_expansion(self):
        # 1/2 + 1/2 exp(-delta^2 / 2) for sigma^2 = 1
        delta = 1.7
        got = mixture_mean_sq_norm(two_gaussians(delta), 1.0)
        np.testing.assert_allclose(got, 0.5 + 0.5 * np.exp(-(delta**2) / 2.0), rtol=1e-14)

    def test_requires_folded_noise(self):
        params = MixtureParams(
            weights=np.array([1.0]),
            means=np.zeros((1, 1)),
            covariances=np.zeros((1, 1, 1)),
            noise_var=0.1,
        )
        with pytest.raises(InputError):
            mixture_mean_sq_norm(params, 1.0)

    def test_pairwise_factors_are_kept_and_give_the_same_bits(self):
        # the pairwise sums are factored once per parameter set; the norm is
        # the same bits as factoring them afresh on every call
        from kmse.risk import _gaussian_inners
        from kmse.synthetic import psd_eigh

        params = effective_components(draw_mixture_params(3, RngStream(8, 0)))
        w, mu, cov = params.weights, params.means, params.covariances
        for sigma_sq in (0.5, 2.0, 9.0):
            want = 0.0
            for j in range(params.k):
                for l in range(j, params.k):
                    factor = psd_eigh(cov[j] + cov[l])
                    term = w[j] * w[l] * _gaussian_inners(mu[j : j + 1], mu[l], factor, sigma_sq)[0]
                    want += term if j == l else 2.0 * term
            assert mixture_mean_sq_norm(params, sigma_sq) == want
        assert params.pair_factors is params.pair_factors
        assert sorted(params.pair_factors) == [(j, l) for j in range(4) for l in range(j, 4)]

    def test_monte_carlo_agreement(self):
        from kmse.synthetic import draw_mixture_params, sample_mixture

        params = effective_components(draw_mixture_params(2, RngStream(3, 0)))
        sigma_sq = 4.0
        closed = mixture_mean_sq_norm(params, sigma_sq)
        a = sample_mixture(params, 300000, RngStream(3, 1)).rows
        b = sample_mixture(params, 300000, RngStream(3, 2)).rows
        vals = np.exp(-((a - b) ** 2).sum(axis=1) / (2 * sigma_sq))
        stderr = vals.std(ddof=1) / np.sqrt(vals.size)
        assert abs(closed - vals.mean()) <= 3 * stderr


class TestLoss:
    def test_zero_weights_give_norm(self):
        params = two_gaussians(2.0)
        X = np.array([[0.3], [1.1]])
        got = loss(np.zeros(2), X, params, GaussianRBF(1.0))
        np.testing.assert_allclose(got, mixture_mean_sq_norm(params, 1.0), rtol=1e-14)

    def test_exact_recovery_of_point_mass(self):
        params = point_mass([0.7], 1)
        got = loss(np.array([1.0]), np.array([[0.7]]), params, GaussianRBF(1.0))
        assert abs(got) <= 1e-12

    def test_hand_expanded_tiny_case(self):
        # n = 2, single point-mass component: expand b^T K b - 2 b^T z + 1 by hand
        params = point_mass([0.0], 1)
        X = np.array([[0.0], [1.0]])
        beta = np.array([0.25, 0.5])
        s = np.exp(-0.5)
        k12 = np.exp(-0.5)
        by_hand = (
            0.25**2 + 0.5**2 + 2 * 0.25 * 0.5 * k12
            - 2 * (0.25 * 1.0 + 0.5 * s)
            + 1.0
        )
        got = loss(beta, X, params, GaussianRBF(1.0))
        np.testing.assert_allclose(got, by_hand, rtol=1e-14)

    def test_non_negative_on_random_cases(self):
        from kmse.synthetic import draw_mixture_params, sample_mixture

        rng = np.random.default_rng(4)
        params = effective_components(draw_mixture_params(3, RngStream(4, 0)))
        for r in range(10):
            X = sample_mixture(params, 15, RngStream(4, r + 1)).rows
            beta = rng.standard_normal(15) * 0.1
            assert loss(beta, X, params, GaussianRBF(2.0)) >= -1e-10

    def test_kme_minus_zero_weights_identity(self):
        # L(1_n) - L(0) = 1_n^T K 1_n - 2 mean(z): check the quadratic and
        # cross terms separately against a direct double-sum expansion
        params = two_gaussians(1.3)
        X = np.array([[0.2], [0.9], [1.6]])
        spec = GaussianRBF(1.0)
        kme = np.full(3, 1.0 / 3.0)
        diff = loss(kme, X, params, spec) - loss(np.zeros(3), X, params, spec)
        quad = sum(
            np.exp(-((a - b) ** 2).sum() / 2.0) for a in X for b in X
        ) / 9.0
        cross = sum(
            0.5 * np.exp(-((x - t) ** 2).sum() / 2.0) / np.sqrt(1.0)
            for x in X
            for t in ([0.0], [1.3])
        ) / 3.0
        np.testing.assert_allclose(diff, quad - 2.0 * cross, rtol=1e-12)

    @pytest.mark.parametrize(
        "weigh",
        [
            lambda beta, X: loss(beta, X, point_mass([0.0], 1), GaussianRBF(1.0)),
            lambda beta, X: evaluate_estimate(X, beta, GaussianRBF(1.0), [0.0]),
        ],
        ids=["loss", "evaluate_estimate"],
    )
    def test_two_d_weights_rejected(self, weigh):
        X = np.array([[0.0], [1.0]])
        with pytest.raises(InputError, match=r"weights of shape \(2, 1\) for 2 points"):
            weigh(np.full((2, 1), 0.5), X)

    def test_monte_carlo_agreement(self):
        from kmse.synthetic import draw_mixture_params, sample_mixture

        params = effective_components(draw_mixture_params(2, RngStream(5, 0)))
        X = sample_mixture(params, 8, RngStream(5, 1)).rows
        beta = np.full(8, 1.0 / 8)
        sigma_sq = 3.0
        closed = loss(beta, X, params, GaussianRBF(sigma_sq))
        # Monte-Carlo: ||sum_i beta_i k(x_i,.)||^2 - 2 <est, mu> + ||mu||^2
        draws_a = sample_mixture(params, 400000, RngStream(5, 2)).rows
        draws_b = sample_mixture(params, 400000, RngStream(5, 3)).rows
        cross = np.exp(
            -((draws_a[:, None, :] - X[None]) ** 2).sum(axis=2) / (2 * sigma_sq)
        ) @ beta
        pair = np.exp(-((draws_a - draws_b) ** 2).sum(axis=1) / (2 * sigma_sq))
        K = np.exp(-((X[:, None, :] - X[None]) ** 2).sum(axis=2) / (2 * sigma_sq))
        samples = float(beta @ K @ beta) - 2 * cross + pair
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert abs(closed - samples.mean()) <= 3 * stderr


class TestRiskHarness:
    def test_reproducible_losses(self):
        a = replication_losses([EstimatorConfig("kme")], 20, 3, 4, seed=11)
        b = replication_losses([EstimatorConfig("kme")], 20, 3, 4, seed=11)
        np.testing.assert_array_equal(a, b)

    def test_kme_risk_matches_exact_delta(self):
        # E||mu_hat - mu||^2 = (E k(x,x) - ||mu||^2) / n with E k(x,x) = 1,
        # at a fixed bandwidth so the analytic value is well defined
        from kmse.synthetic import draw_mixture_params

        d, n, m, seed, bw = 3, 40, 300, 17, 8.0
        params = effective_components(draw_mixture_params(d, RngStream(seed, 0)))
        delta = (1.0 - mixture_mean_sq_norm(params, bw)) / n
        losses = replication_losses([EstimatorConfig("kme")], n, d, m, seed, bandwidth=bw)[:, 0]
        stderr = losses.std(ddof=1) / np.sqrt(m)
        assert abs(losses.mean() - delta) <= 3 * stderr

    def test_kme_risk_halves_with_double_n(self):
        d, m, seed, bw = 3, 400, 19, 8.0
        kme = [EstimatorConfig("kme")]
        small = replication_losses(kme, 25, d, m, seed, bandwidth=bw)[:, 0]
        large = replication_losses(kme, 50, d, m, seed, bandwidth=bw)[:, 0]
        ratio = large.mean() / small.mean()
        spread = 3 * (large.std(ddof=1) / np.sqrt(m)) / small.mean()
        assert abs(ratio - 0.5) <= spread + 0.02

    def test_risk_report_stderr_is_non_negative(self):
        (report,) = risk_estimate([EstimatorConfig("kme")], 15, 2, 3, seed=23)
        assert report.stderr >= 0.0

    def test_one_report_per_config_in_order(self):
        configs = [EstimatorConfig("tsvd"), EstimatorConfig("kme"), EstimatorConfig("skmse")]
        reports = risk_estimate(configs, 15, 2, 3, seed=23)
        assert [r.estimator_id for r in reports] == ["tsvd", "kme", "skmse"]
        losses = replication_losses(configs, 15, 2, 3, seed=23)
        assert losses.shape == (3, 3)
        for report, column in zip(reports, losses.T):
            assert report.mean_loss == float(column.mean())

    def test_improvement_percent(self):
        assert improvement_percent(2.0, 1.0) == 50.0

    def test_replication_failure_carries_index(self):
        from kmse.errors import ReplicationError

        with pytest.raises(InputError):
            risk_estimate([EstimatorConfig("kme")], 10, 2, 1, seed=0)  # m < 2
        with pytest.raises(ReplicationError) as info:
            # n = 1 makes the median heuristic fail inside replication 1
            replication_losses([EstimatorConfig("kme")], 1, 2, 2, seed=0)
        assert info.value.index == 1
        # a shared step failed, so no estimator is named
        assert info.value.estimator is None
        assert str(info.value).startswith("replication 1 failed: ")

    def test_replication_failure_names_the_estimator(self):
        from kmse.errors import ReplicationError

        # n = 2: kme fits, tikhonov's LOOCV needs three points
        configs = [EstimatorConfig("kme"), EstimatorConfig("tikhonov")]
        with pytest.raises(ReplicationError) as info:
            replication_losses(configs, 2, 2, 2, seed=0)
        assert info.value.index == 1
        assert info.value.estimator == "tikhonov"
        assert isinstance(info.value.cause, InputError)
        assert str(info.value).startswith("replication 1 failed (tikhonov): ")

    def test_thread_workers_deterministic(self, monkeypatch):
        configs = [EstimatorConfig("tikhonov", selection="none")] + [
            EstimatorConfig(name, selection="loocv", t_max=20)
            for name in ("skmse", "tikhonov", "landweber", "nu", "itik")
        ]
        serial = replication_losses(configs, 20, 3, 6, seed=29)
        monkeypatch.setenv("KMSE_THREADS", "4")
        threaded = replication_losses(configs, 20, 3, 6, seed=29)
        for config, one, many in zip(configs, serial.T, threaded.T):
            np.testing.assert_array_equal(one, many, err_msg=config.name)

    @pytest.mark.parametrize("raw", ["abc", "0", "-2", "1.5", ""])
    def test_bad_thread_count_rejected(self, monkeypatch, raw):
        monkeypatch.setenv("KMSE_THREADS", raw)
        with pytest.raises(InputError, match="KMSE_THREADS"):
            replication_losses([EstimatorConfig("kme")], 10, 2, 2, seed=0)

    def test_redraw_params_changes_mixtures(self):
        kme = [EstimatorConfig("kme")]
        fixed = replication_losses(kme, 15, 2, 4, seed=31)
        redrawn = replication_losses(kme, 15, 2, 4, seed=31, redraw_params=True)
        assert not np.allclose(fixed, redrawn)


class TestChunks:
    """Replications run in chunks of ``risk._CHUNK_DOUBLES``; the Landweber and
    nu-method fits of a chunk are stacked. The chunk size moves no loss and no
    error."""

    @pytest.mark.parametrize("rule", ["default", "oracle", "none"])
    def test_losses_independent_of_chunk_size(self, monkeypatch, rule):
        configs = [EstimatorConfig(name, selection=rule) for name, kind in ESTIMATORS.items()
                   if rule == "default" or rule in kind.selections]
        n, m = 50, 11
        losses = {}
        for size in (1, 2, 8):
            monkeypatch.setattr(risk, "_CHUNK_DOUBLES", size * n * n)
            losses[size] = replication_losses(configs, n, 20, m, seed=53)
        assert losses[1].shape == (m, len(configs))
        for size in (2, 8):
            np.testing.assert_array_equal(losses[size], losses[1], err_msg=f"chunk {size}")

    def test_leaves_no_reference_cycles(self):
        # a cycle would hold the mixture's arrays until a full collection, so
        # the peak memory of a long run would grow with its operation count
        configs = [EstimatorConfig(name) for name in ESTIMATORS]
        replication_losses(configs, 15, 3, 3, seed=1)
        gc.collect()
        gc.disable()
        try:
            replication_losses(configs, 15, 3, 3, seed=1)
            assert gc.collect() == 0
        finally:
            gc.enable()

    @pytest.mark.parametrize("size", [1, 8])
    def test_guard_failure_names_its_replication_and_estimator(self, monkeypatch, size):
        # replication 2's K/n is scaled 1e4 times past kappa^2 = 1, so its
        # Landweber and nu-method iterations diverge; kme and Tikhonov still fit
        drawn = []
        normalize = risk.normalize_gram

        def stream(seed, index):
            drawn.append(index)
            return RngStream(seed, index)

        def normalized(gram):
            kbar = normalize(gram)
            if drawn[-1] != 2:
                return kbar
            return NormalizedGram(SymMatrix(kbar.matrix.values * 1e4), kappa_sq=kbar.kappa_sq)

        monkeypatch.setattr(risk, "RngStream", stream)
        monkeypatch.setattr(risk, "normalize_gram", normalized)
        monkeypatch.setattr(risk, "_CHUNK_DOUBLES", size * 20 * 20)
        configs = [EstimatorConfig("kme"), EstimatorConfig("tikhonov"),
                   EstimatorConfig("nu", t_max=20), EstimatorConfig("landweber", t_max=20)]
        with pytest.raises(ReplicationError) as info:
            replication_losses(configs, 20, 3, 4, seed=61)
        assert info.value.index == 2
        assert info.value.estimator == "nu"
        assert isinstance(info.value.cause, ConfigurationError)
        assert str(info.value).startswith("replication 2 failed (nu): iteration diverged")


# every valid (estimator, selection) pair, oracle included
ALL_PAIRS = [
    EstimatorConfig(name, selection=rule, t_max=20)
    for name, kind in ESTIMATORS.items()
    for rule in kind.selections
]


class TestSharedReplication:
    """Fitting several estimators per replication changes no estimator's loss."""

    @pytest.mark.parametrize("workers", ["1", "4"])
    @pytest.mark.parametrize(
        "bandwidth,redraw", [(None, False), (6.0, False), (None, True)]
    )
    def test_each_column_equals_a_lone_run(self, monkeypatch, workers, bandwidth, redraw):
        monkeypatch.setenv("KMSE_THREADS", workers)
        args = (15, 3, 3)
        kwargs = dict(seed=37, redraw_params=redraw, bandwidth=bandwidth)
        shared = replication_losses(ALL_PAIRS, *args, **kwargs)
        assert shared.shape == (3, len(ALL_PAIRS))
        for j, config in enumerate(ALL_PAIRS):
            alone = replication_losses([config], *args, **kwargs)[:, 0]
            np.testing.assert_array_equal(
                shared[:, j], alone, err_msg=f"{config.name}/{config.selection}"
            )

    @pytest.mark.parametrize("redraw", [False, True])
    def test_noise_folded_once_per_parameter_set(self, monkeypatch, redraw):
        from kmse import risk

        calls = []

        def counting(params):
            calls.append(params)
            return effective_components(params)

        monkeypatch.setattr(risk, "effective_components", counting)
        m = 3
        replication_losses(ALL_PAIRS[:2], 15, 3, m, seed=43, redraw_params=redraw)
        assert len(calls) == (m if redraw else 1)

    def test_one_gram_and_one_eigendecomposition_per_replication(self, monkeypatch):
        from kmse import kernels, risk

        calls = {"gram": 0, "eigh": 0}

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(risk, "gram_matrix", counted("gram", kernels.gram_matrix))
        monkeypatch.setattr(
            kernels, "sym_eigendecompose", counted("eigh", kernels.sym_eigendecompose)
        )
        m = 3
        replication_losses(ALL_PAIRS, 15, 3, m, seed=41)
        assert calls == {"gram": m, "eigh": m}

    def test_ground_truth_factors_only_the_pairwise_sums(self, monkeypatch):
        # per replication: one eigh, for the K/n spectrum; the components and
        # the pairwise sums Sigma_j + Sigma_l are factored once per parameter
        # set, when the mixture is built and on the first ||mu_P||^2
        calls = []
        eigh = np.linalg.eigh

        def counting(matrix):
            calls.append(matrix.shape)
            return eigh(matrix)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        counts = {}
        for m in (2, 6):
            calls.clear()
            replication_losses(ALL_PAIRS, 15, 3, m, seed=47)
            counts[m] = len(calls)
        assert counts[6] - counts[2] == 4 * 1


LAMBDA_AND_ITERATION = ("skmse", "tikhonov", "landweber", "nu", "itik")
VALID_PAIRS = {("kme", "none"), ("tsvd", "none"), ("tsvd", "gcv"), ("tsvd", "oracle")} | {
    (name, rule) for name in LAMBDA_AND_ITERATION for rule in ("none", "loocv", "oracle")
}
DEFAULT_RULE = {"kme": "none", "tsvd": "gcv", **{n: "loocv" for n in LAMBDA_AND_ITERATION}}


class TestEstimatorConfig:
    @pytest.mark.parametrize("rule", ["default", "none", "loocv", "gcv", "oracle", "bogus"])
    @pytest.mark.parametrize("name", ["kme", *LAMBDA_AND_ITERATION, "tsvd"])
    def test_only_valid_pairs_construct(self, name, rule):
        if rule == "default":
            assert EstimatorConfig(name).selection == DEFAULT_RULE[name]
        elif (name, rule) in VALID_PAIRS:
            assert EstimatorConfig(name, selection=rule).selection == rule
        else:
            with pytest.raises(InputError, match=name):
                EstimatorConfig(name, selection=rule)

    def test_unknown_estimator(self):
        with pytest.raises(InputError, match="unknown estimator"):
            EstimatorConfig("ridge")


def reference_fit(config, X, kspec, kbar, truth):
    """fit_weights written out from the public primitives, rule by rule; the
    oracle fits every candidate and scores its weights against ``truth``."""
    name, rule, n = config.name, config.selection, kbar.n
    K = gram_matrix(X, kspec).values

    def oracle_argmin(candidates):
        return candidates[int(np.argmin([_rkhs_loss(c.weights, K, *truth) for c in candidates]))]

    lambda_fit = {
        "skmse": lambda lam: skmse_weights(n, lam),
        "tikhonov": lambda lam: spectral_weights(kbar, Tikhonov(lam)),
        # Cholesky solves at the floor and above, the spectrum below it
        "itik": lambda lam: (
            iterated_tikhonov_weights(kbar, config.itik_iters, lam)
            if lam >= RESOLVENT_MIN_LAMBDA * kbar.kappa_sq
            else spectral_weights(kbar, IteratedTikhonov(config.itik_iters, lam))),
    }
    lambda_spec = {
        "skmse": SKMSE,
        "tikhonov": Tikhonov,
        "itik": lambda lam: IteratedTikhonov(config.itik_iters, lam),
    }
    eta = 1.0 / kbar.kappa_sq
    if name == "kme":
        return empirical_kme_weights(n)
    if name in lambda_fit:
        if rule == "none":
            if name == "tikhonov" and config.lam >= RESOLVENT_MIN_LAMBDA * kbar.kappa_sq:
                # above the floor a fixed Tikhonov fit is one resolvent solve:
                # iterated Tikhonov with a single step
                beta = iterated_tikhonov_weights(kbar, 1, config.lam).weights
                return WeightVector(beta, Tikhonov(config.lam))
            return lambda_fit[name](config.lam)
        if rule == "loocv":
            ladder = tuple(lambda_spec[name](float(lam)) for lam in config.lambda_grid)
            return lambda_fit[name](loocv_select_lambda(kbar, ladder).chosen.lam)
        return oracle_argmin([lambda_fit[name](float(lam)) for lam in config.lambda_grid])
    if name in ("landweber", "nu"):
        counts = range(1, config.t_max + 1)
        if name == "landweber":
            specs = [Landweber(t, eta) for t in counts]
        else:
            specs = [NuMethod(t, config.nu, eta) for t in counts]
        if rule == "none":
            t = config.iters
        elif rule == "loocv":
            t = loocv_select_iterations(kbar, tuple(specs)).chosen.iters
        else:
            # a stack of t_max copies of K/n, copy t stopped at t
            values = np.broadcast_to(kbar.matrix.values, (config.t_max, n, n))
            if name == "landweber":
                path = landweber_path(values, counts, eta)
            else:
                path = nu_method_path(values, counts, config.nu, eta)
            return oracle_argmin([WeightVector(row, spec) for row, spec in zip(path, specs)])
        if name == "landweber":
            return landweber_weights(kbar, t)
        return nu_method_weights(kbar, t, config.nu)
    # tsvd
    if rule == "none":
        return spectral_weights(kbar, TSVD(config.lam))
    if rule == "gcv":
        return spectral_weights(kbar, gcv_select_tsvd(kbar, tsvd_ladder(kbar)).chosen)
    gammas = kbar.spectrum.eigenvalues
    thresholds = dict.fromkeys(float(g) for g in gammas if g > 0)
    return oracle_argmin([spectral_weights(kbar, TSVD(g)) for g in thresholds])


class TestFitWeights:
    """Every (estimator, selection) pair fits exactly the reference weights."""

    @staticmethod
    def sample(seed):
        gen = RngStream(seed, 1).generator()
        params = draw_mixture_params(3, RngStream(seed, 0))
        X = sample_mixture(params, 18, gen).rows
        kspec = GaussianRBF(median_heuristic_bandwidth(X))
        folded = effective_components(params)
        truth = (mixture_mean_inners(X, folded, kspec.bandwidth_sq),
                 mixture_mean_sq_norm(folded, kspec.bandwidth_sq))
        return X, kspec, normalize_gram(gram_matrix(X, kspec)), truth

    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize(
        "config", ALL_PAIRS, ids=lambda c: f"{c.name}-{c.selection}"
    )
    def test_bit_identical_to_reference(self, config, seed):
        X, kspec, kbar, truth = self.sample(seed)
        got = fit_weights(config, X, kspec, kbar, truth=truth)
        want = reference_fit(config, X, kspec, kbar, truth)
        assert np.array_equal(got.weights, want.weights)
        assert got.estimator_id == want.estimator_id == config.name
        assert got.shrinkage == want.shrinkage

    @pytest.mark.parametrize("seed", [5, 23])
    @pytest.mark.parametrize("t", [1, 3])
    def test_itik_bit_identical_to_identity_shift(self, seed, t):
        # the formula itik used before the shared resolvent: K/n + lam * eye(n),
        # symmetrized, then a Cholesky factor of a C-ordered copy
        _, _, kbar, _ = self.sample(seed)
        values = kbar.matrix.values
        for lam in (1e-6, 0.1, 7.0):
            factor = scipy.linalg.cho_factor(
                SymMatrix(values + lam * np.eye(kbar.n)).values, lower=True, check_finite=False
            )
            want = np.zeros(kbar.n)
            for _ in range(t):
                want = scipy.linalg.cho_solve(factor, values.mean(axis=1) + lam * want,
                                              check_finite=False)
            assert np.array_equal(iterated_tikhonov_weights(kbar, t, lam).weights, want)

    @pytest.mark.parametrize("seed", [5, 23])
    def test_ladders_list_candidates_in_order(self, seed):
        _, _, kbar, _ = self.sample(seed)
        config = {name: EstimatorConfig(name, t_max=6, nu=2.0, itik_iters=4)
                  for name in ESTIMATORS}
        grid = config["skmse"].lambda_grid
        eta = 1.0 / kbar.kappa_sq
        gammas = kbar.spectrum.eigenvalues
        expected = {
            "skmse": [SKMSE(lam) for lam in grid],
            "tikhonov": [Tikhonov(lam) for lam in grid],
            "itik": [IteratedTikhonov(4, lam) for lam in grid],
            "landweber": [Landweber(t, eta) for t in range(1, 7)],
            "nu": [NuMethod(t, 2.0, eta) for t in range(1, 7)],
            "tsvd": [TSVD(float(g)) for g in np.unique(gammas[gammas > 0])[::-1]],
        }
        for name, specs in expected.items():
            assert list(ESTIMATORS[name].ladder(config[name], kbar)) == specs, name
        assert ESTIMATORS["kme"].ladder is None

    @pytest.mark.parametrize("name", [n for n in ESTIMATORS if n != "kme"])
    def test_fixed_rule_builds_no_ladder(self, name, monkeypatch):
        def no_ladder(*args):
            raise AssertionError("ladder built under selection 'none'")

        monkeypatch.setitem(ESTIMATORS, name, ESTIMATORS[name]._replace(ladder=no_ladder))
        X, kspec, kbar, _ = self.sample(5)
        fit_weights(EstimatorConfig(name, selection="none"), X, kspec, kbar)

    @pytest.mark.parametrize(
        "config,zero_gram,message",
        [
            (EstimatorConfig("tikhonov", selection="oracle", lambda_grid=()), False,
             "lambda grid is empty"),
            (EstimatorConfig("landweber", selection="oracle", t_max=0), False,
             "t_max must be at least 1"),
            (EstimatorConfig("tsvd", selection="oracle"), True, "no positive eigenvalues"),
        ],
        ids=["empty-grid", "t-max-0", "zero-spectrum"],
    )
    def test_empty_ladder_rejected_under_oracle(self, config, zero_gram, message):
        X, kspec, kbar, truth = self.sample(5)
        if zero_gram:
            kbar = NormalizedGram(SymMatrix(np.zeros((kbar.n, kbar.n))), kappa_sq=1.0)
        with pytest.raises(InputError, match=message):
            fit_weights(config, X, kspec, kbar, truth=truth)
