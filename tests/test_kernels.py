import numpy as np
import pytest

from kmse.errors import DegenerateBandwidthError, InputError
from kmse.estimators import fit_spec
from kmse.filters import Landweber
from kmse.kernels import (
    GaussianRBF,
    Linear,
    gram_matrix,
    kernel_eval,
    median_heuristic_bandwidth,
    normalize_gram,
)
from kmse.linalg import SymMatrix, sym_eigendecompose


class TestKernelEval:
    def test_rbf_zero_distance(self):
        assert kernel_eval(GaussianRBF(1.0), [1.0, 2.0], [1.0, 2.0]) == 1.0

    def test_rbf_direct_value(self):
        # sigma^2 = 2, squared distance 4 -> exp(-1)
        got = kernel_eval(GaussianRBF(2.0), [0.0], [2.0])
        np.testing.assert_allclose(got, np.exp(-1.0), rtol=1e-12)

    def test_linear_dot(self):
        assert kernel_eval(Linear(), [1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            kernel_eval(GaussianRBF(1.0), [1.0], [1.0, 2.0])

    def test_invalid_bandwidth(self):
        with pytest.raises(InputError):
            GaussianRBF(0.0)

    @pytest.mark.parametrize("value", [float("inf"), 1e400, float("nan"), -1.0])
    def test_non_finite_or_non_positive_parameter_named(self, value):
        with pytest.raises(InputError, match="bandwidth_sq must be positive and finite"):
            GaussianRBF(value)


class TestGram:
    def test_single_point(self):
        gram = gram_matrix(np.array([[3.0]]), GaussianRBF(1.0))
        np.testing.assert_allclose(gram.values, [[1.0]])

    def test_duplicate_points_all_ones(self):
        gram = gram_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]), GaussianRBF(0.7))
        np.testing.assert_allclose(gram.values, np.ones((2, 2)))

    def test_three_points_on_line(self):
        # points 0, 1, 2 with sigma^2 = 0.5: K13 = exp(-4 / (2 * 0.5)) = e^-4
        gram = gram_matrix(np.array([[0.0], [1.0], [2.0]]), GaussianRBF(0.5))
        np.testing.assert_allclose(gram.values[0, 2], np.exp(-4.0), rtol=1e-12)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InputError):
            gram_matrix(np.zeros((0, 2)), GaussianRBF(1.0))

    def test_rbf_gram_is_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(2, 40))
            d = int(rng.integers(1, 6))
            rows = rng.standard_normal((n, d))
            gram = gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
            evals = np.linalg.eigvalsh(gram.values)
            assert evals.min() >= -1e-10

    @pytest.mark.parametrize("n", [1, 2, 50, 2000])
    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_built_exactly_symmetric(self, kernel, n):
        # gram_matrix skips the (K + K^T)/2 pass, so K must equal it as built
        rows = np.random.default_rng(n).standard_normal((n, 5))
        rows[n // 2:] = rows[: n - n // 2]  # the second half repeats the first
        spec = GaussianRBF(2.5) if kernel == "rbf" else Linear()
        K = gram_matrix(rows, spec).values
        assert np.array_equal(K, K.T)
        assert np.array_equal(K, SymMatrix(K).values)

    def test_strided_rows_built_exactly_symmetric(self):
        # X X^T of a strided view comes from a general matrix product, which
        # need not be symmetric; gram_matrix makes the rows contiguous first
        wide = np.random.default_rng(4).standard_normal((300, 10))
        rows = wide[:, ::2]
        K = gram_matrix(rows, Linear()).values
        assert np.array_equal(K, K.T)


class TestMedianHeuristic:
    def test_single_pair(self):
        assert median_heuristic_bandwidth(np.array([[0.0], [1.0]])) == 1.0

    def test_three_points(self):
        # pairwise squared distances {1, 9, 4} -> lower median 4
        got = median_heuristic_bandwidth(np.array([[0.0], [1.0], [3.0]]))
        assert got == 4.0

    def test_duplicate_pair_excluded_from_diagonal(self):
        # pairwise {0, 1, 1} -> lower median 1
        got = median_heuristic_bandwidth(np.array([[0.0], [0.0], [1.0]]))
        assert got == 1.0

    def test_all_identical_raises(self):
        with pytest.raises(DegenerateBandwidthError):
            median_heuristic_bandwidth(np.ones((4, 2)))

    def test_minority_duplicates_stay_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(6, 30))
            rows = rng.standard_normal((n, 3))
            dup = rows[rng.integers(0, n, size=n // 3)]
            got = median_heuristic_bandwidth(np.vstack([rows, dup]))
            assert got > 0.0

    def test_needs_two_points(self):
        with pytest.raises(InputError):
            median_heuristic_bandwidth(np.array([[1.0]]))


class TestNormalizeGram:
    def test_duplicate_point_spectrum(self):
        gram = gram_matrix(np.array([[2.0], [2.0]]), GaussianRBF(1.0))
        kbar = normalize_gram(gram)
        np.testing.assert_allclose(kbar.matrix.values, np.full((2, 2), 0.5))
        np.testing.assert_allclose(kbar.spectrum.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_far_apart_points_spectrum(self):
        # far-apart points give K ~ I; K/n then has eigenvalues ~ 1/3
        rows = np.array([[0.0], [100.0], [200.0]])
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(1.0)))
        np.testing.assert_allclose(kbar.spectrum.eigenvalues, np.full(3, 1 / 3), atol=1e-12)

    def test_spectrum_within_kappa_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rows = rng.standard_normal((int(rng.integers(2, 40)), 4))
            kbar = normalize_gram(
                gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
            )
            assert kbar.spectrum.eigenvalues.max() <= kbar.kappa_sq + 1e-10
            assert kbar.spectrum.eigenvalues.min() >= 0.0

    def test_spectrum_is_clamped_at_zero(self):
        # 30 points in the plane: rank 2, and eigh rounds about half the
        # null eigenvalues of K/n below zero
        rows = np.random.default_rng(0).standard_normal((30, 2))
        kbar = normalize_gram(gram_matrix(rows, Linear()))
        raw = sym_eigendecompose(kbar.matrix)
        assert raw.eigenvalues.min() < 0.0
        assert np.array_equal(kbar.spectrum.eigenvalues, np.clip(raw.eigenvalues, 0.0, None))
        assert np.array_equal(kbar.spectrum.eigenvectors, raw.eigenvectors)
        assert not kbar.spectrum.eigenvalues.flags.writeable

    def test_spectrum_is_cached(self):
        rows = np.random.default_rng(9).standard_normal((8, 2))
        kbar = normalize_gram(gram_matrix(rows, GaussianRBF(1.0)))
        assert kbar.spectrum is kbar.spectrum

    @pytest.mark.parametrize("kernel", ["rbf", "linear"])
    def test_matrix_is_k_over_n_without_a_second_symmetrization(self, kernel):
        rows = np.random.default_rng(11).standard_normal((40, 3))
        spec = (GaussianRBF(median_heuristic_bandwidth(rows)) if kernel == "rbf"
                else Linear())
        gram = gram_matrix(rows, spec)
        values = normalize_gram(gram).matrix.values
        assert np.array_equal(values, SymMatrix(gram.values / gram.dim).values)
        assert not values.flags.writeable
        assert not np.shares_memory(values, gram.values)


class TestMeasuredKappaSq:
    """kappa^2 is the largest K_ii of the Gram matrix, 1.0 when every K_ii is 0."""

    def test_kernel_specs_declare_no_kappa_sq(self):
        assert not hasattr(GaussianRBF(1.0), "kappa_sq")
        assert not hasattr(Linear(), "kappa_sq")

    def test_linear_kappa_sq_is_the_largest_squared_norm(self):
        rows = np.array([[3.0, 0.0], [0.0, 1.0]])
        assert normalize_gram(gram_matrix(rows, Linear())).kappa_sq == 9.0

    def test_scaled_linear_samples_take_the_built_diagonal(self):
        # ||x||^2 summed row by row can differ by one ulp from the K_ii the
        # matrix product builds; kappa^2 is the latter, so the step 1/kappa^2
        # is always admissible on the K/n it is applied to
        rng = np.random.default_rng(2024)
        for _ in range(40):
            n, d = int(rng.integers(5, 301)), int(rng.integers(1, 31))
            rows = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(0.0, 6.0)
            gram = gram_matrix(rows, Linear())
            kbar = normalize_gram(gram)
            assert kbar.kappa_sq == gram.values.diagonal().max()
            weights = fit_spec(kbar, Landweber(10, 1.0 / kbar.kappa_sq)).weights
            assert np.all(np.isfinite(weights))

    def test_rbf_kappa_sq_is_exactly_one(self):
        rows = np.random.default_rng(6).standard_normal((30, 4)) * 50.0
        rows[-10:] = rows[:10]
        for bandwidth_sq in (1e-3, 1.0, median_heuristic_bandwidth(rows), 1e6):
            assert normalize_gram(gram_matrix(rows, GaussianRBF(bandwidth_sq))).kappa_sq == 1.0

    def test_all_zero_linear_rows_give_one(self):
        assert normalize_gram(gram_matrix(np.zeros((4, 3)), Linear())).kappa_sq == 1.0

    def test_overflowing_linear_sample_refused(self):
        rows = np.array([[1e200, 1.0], [2.0, 3.0]])
        with np.errstate(over="ignore"), pytest.raises(
            InputError, match=r"max k\(x,x\) must be positive and finite"
        ):
            normalize_gram(gram_matrix(rows, Linear()))
