import numpy as np
import pytest
from scipy.stats import ks_2samp

from kmse.errors import InputError
from kmse.synthetic import (
    MixtureParams,
    RngStream,
    draw_mixture_params,
    effective_components,
    psd_eigh,
    sample_mixture,
    wishart_sample,
)


class TestRngStream:
    def test_determinism(self):
        a = RngStream(123, 7).generator().standard_normal(5)
        b = RngStream(123, 7).generator().standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(123, 0).generator().standard_normal(5)
        b = RngStream(123, 1).generator().standard_normal(5)
        assert not np.allclose(a, b)

    @pytest.mark.parametrize("seed,stream_id", [(-1, 0), (0, -1)])
    def test_negative_seed_or_stream_refused(self, seed, stream_id):
        with pytest.raises(InputError, match="must be non-negative"):
            RngStream(seed, stream_id)


class TestWishart:
    def test_one_dim_is_scaled_chi_square(self):
        # scale I_1, df=2: mean of z1^2 + z2^2 is 2
        gen = RngStream(0, 0).generator()
        draws = np.array([wishart_sample(np.eye(1), 2, gen)[0, 0] for _ in range(20000)])
        stderr = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - 2.0) <= 3 * stderr

    def test_expectation_is_df_times_scale(self):
        gen = RngStream(1, 0).generator()
        scale = np.array([[2.0, 0.6], [0.6, 1.0]])
        df = 5
        draws = np.stack([wishart_sample(scale, df, gen) for _ in range(10000)])
        mean = draws.mean(axis=0)
        stderr = draws.std(axis=0, ddof=1) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(mean - df * scale) <= 3 * stderr)

    def test_output_symmetric_psd(self):
        gen = RngStream(2, 0).generator()
        for _ in range(20):
            w = wishart_sample(3.0 * np.eye(4), 7, gen)
            assert np.array_equal(w, w.T)
            assert np.linalg.eigvalsh(w).min() >= -1e-10

    def test_non_psd_scale_rejected(self):
        with pytest.raises(InputError):
            wishart_sample(np.array([[1.0, 2.0], [2.0, 1.0]]), 3, RngStream(0, 0))


def one_component(**overrides):
    fields = dict(
        weights=np.array([1.0]),
        means=np.zeros((1, 2)),
        covariances=np.eye(2)[None],
        noise_var=0.1,
    )
    fields.update(overrides)
    return MixtureParams(**fields)


class TestPsdEigh:
    def test_ascending_clamped_factor_of_symmetrized_matrix(self):
        sym = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, -1e-14]])  # rank 1
        skew = np.array([[0.0, 2e-3, 0.0], [-2e-3, 0.0, 0.0], [0.0, 0.0, 0.0]])
        evals, evecs = psd_eigh(sym + skew)
        assert np.all(np.diff(evals) >= 0)
        assert evals.min() == 0.0
        np.testing.assert_allclose(evecs @ np.diag(evals) @ evecs.T, sym, atol=1e-13)

    def test_bit_equal_to_eigh_on_psd_input(self):
        gen = RngStream(3, 0).generator()
        cov = wishart_sample(np.eye(5), 3, gen)  # rank 3
        evals, evecs = psd_eigh(cov)
        want_vals, want_vecs = np.linalg.eigh((cov + cov.T) / 2.0)
        np.testing.assert_array_equal(evals, np.clip(want_vals, 0.0, None))
        np.testing.assert_array_equal(evecs, want_vecs)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite"):
            psd_eigh(np.array([[1.0, bad], [bad, 1.0]]))

    def test_tolerance_is_relative_to_the_largest_eigenvalue(self):
        psd_eigh(np.diag([1e4, -1e-7]))  # -1e-11 relative: rounding
        with pytest.raises(InputError, match="not positive semidefinite"):
            psd_eigh(np.diag([1.0, -1e-9]))


class TestMixtureParamsValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("weights", np.array([np.nan])),
            ("means", np.array([[np.nan, 0.0]])),
            ("covariances", np.array([[[np.nan, 0.0], [0.0, 1.0]]])),
            ("covariances", np.array([[[np.inf, 0.0], [0.0, 1.0]]])),
            ("noise_var", np.nan),
            ("noise_var", np.inf),
        ],
    )
    def test_non_finite_field_named_before_any_factorization(self, monkeypatch, field, value):
        from kmse import synthetic

        def unreachable(matrix):
            raise AssertionError("factored before the fields were checked")

        monkeypatch.setattr(synthetic, "psd_eigh", unreachable)
        with pytest.raises(InputError, match=f"mixture {field} must be finite"):
            one_component(**{field: value})

    def test_non_psd_covariance_rejected(self):
        with pytest.raises(InputError, match="not positive semidefinite"):
            one_component(covariances=np.array([[[1.0, 2.0], [2.0, 1.0]]]))

    def test_factors_are_psd_eigh_of_each_covariance(self):
        params = draw_mixture_params(4, RngStream(15, 0))
        assert len(params.factors) == params.k
        for cov, (evals, evecs) in zip(params.covariances, params.factors):
            want_vals, want_vecs = psd_eigh(cov)
            np.testing.assert_array_equal(evals, want_vals)
            np.testing.assert_array_equal(evecs, want_vecs)

    def test_factors_is_not_an_init_argument(self):
        with pytest.raises(TypeError):
            one_component(factors=())

    def test_folding_refactors_the_covariances(self):
        folded = effective_components(one_component())
        evals, _ = folded.factors[0]
        np.testing.assert_allclose(evals, [1.1, 1.1], rtol=1e-15)


class TestDrawMixtureParams:
    def test_fixed_weights_and_noise(self):
        params = draw_mixture_params(3, RngStream(5, 0))
        np.testing.assert_allclose(params.weights, [0.05, 0.3, 0.4, 0.25])
        assert params.noise_var == 0.2

    def test_rank_deficient_covariances_in_high_dim(self):
        # d = 20 with 7 Wishart degrees of freedom: rank at most 7
        params = draw_mixture_params(20, RngStream(6, 0))
        for cov in params.covariances:
            assert np.linalg.matrix_rank(cov, tol=1e-8) <= 7

    def test_means_within_range(self):
        params = draw_mixture_params(10, RngStream(7, 0))
        assert np.all(np.abs(params.means) <= 10.0)

    def test_seed_determinism(self):
        a = draw_mixture_params(4, RngStream(8, 3))
        b = draw_mixture_params(4, RngStream(8, 3))
        np.testing.assert_array_equal(a.means, b.means)
        np.testing.assert_array_equal(a.covariances, b.covariances)


class TestSampleMixture:
    def test_degenerate_single_component(self):
        params = MixtureParams(
            weights=np.array([1.0]),
            means=np.array([[2.0, -1.0]]),
            covariances=np.zeros((1, 2, 2)),
            noise_var=0.0,
        )
        rows = sample_mixture(params, 5, RngStream(9, 0)).rows
        np.testing.assert_allclose(rows, np.tile([2.0, -1.0], (5, 1)))

    def test_component_frequencies(self):
        # well-separated components so nearest-mean assignment is exact
        weights = np.array([0.05, 0.3, 0.4, 0.25])
        means = np.array([[0.0], [100.0], [200.0], [300.0]])
        params = MixtureParams(
            weights=weights,
            means=means,
            covariances=np.full((4, 1, 1), 0.04),
            noise_var=0.0,
        )
        rows = sample_mixture(params, 100000, RngStream(10, 1)).rows
        dist = ((rows[:, None, :] - means[None]) ** 2).sum(axis=2)
        freq = np.bincount(dist.argmin(axis=1), minlength=4) / rows.shape[0]
        stderr = np.sqrt(weights * (1 - weights) / rows.shape[0])
        assert np.all(np.abs(freq - weights) <= 3 * stderr)

    def test_single_component_covariance(self):
        gen = RngStream(11, 0).generator()
        cov = wishart_sample(np.eye(3), 5, gen)
        params = MixtureParams(
            weights=np.array([1.0]),
            means=np.zeros((1, 3)),
            covariances=cov[None],
            noise_var=0.2,
        )
        rows = sample_mixture(params, 200000, RngStream(11, 1)).rows
        sample_cov = np.cov(rows.T)
        want = cov + 0.2 * np.eye(3)
        assert np.abs(sample_cov - want).max() <= 0.05 * max(1.0, np.abs(want).max())

    def test_sampling_factors_nothing(self, monkeypatch):
        params = draw_mixture_params(5, RngStream(16, 0))

        def no_eigh(matrix):
            raise AssertionError("sampling factored a covariance")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        rows = sample_mixture(params, 200, RngStream(16, 1)).rows
        assert rows.shape == (200, 5)

    def test_rank_deficient_sampling_never_fails(self):
        params = draw_mixture_params(20, RngStream(12, 0))
        rows = sample_mixture(params, 500, RngStream(12, 1)).rows
        assert np.all(np.isfinite(rows))


class TestEffectiveComponents:
    def test_zero_noise_is_identity(self):
        params = draw_mixture_params(3, RngStream(13, 0))
        folded_once = effective_components(params)
        folded_twice = effective_components(folded_once)
        assert folded_once is folded_twice

    def test_point_mass_becomes_isotropic(self):
        params = MixtureParams(
            weights=np.array([1.0]),
            means=np.zeros((1, 2)),
            covariances=np.zeros((1, 2, 2)),
            noise_var=0.2,
        )
        folded = effective_components(params)
        np.testing.assert_allclose(folded.covariances[0], 0.2 * np.eye(2))
        assert folded.noise_var == 0.0

    def test_folded_sampling_same_distribution(self):
        params = draw_mixture_params(2, RngStream(14, 0))
        folded = effective_components(params)
        a = sample_mixture(params, 20000, RngStream(14, 1)).rows
        b = sample_mixture(folded, 20000, RngStream(14, 2)).rows
        for dim in range(2):
            stat = ks_2samp(a[:, dim], b[:, dim])
            assert stat.pvalue > 0.001
