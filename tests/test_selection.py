import numpy as np
import pytest

from kmse.errors import InputError
from kmse.estimators import spectral_weights
from kmse.filters import TSVD, Tikhonov
from kmse.kernels import (
    GaussianRBF,
    NormalizedGram,
    gram_matrix,
    median_heuristic_bandwidth,
    normalize_gram,
)
from kmse.linalg import SymMatrix
from kmse.selection import (
    gcv_select_tsvd,
    loocv_select_iterations,
    loocv_select_lambda,
)


def sample_rows(seed=0, n=20, d=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d))


def rbf_spec(rows):
    return GaussianRBF(median_heuristic_bandwidth(rows))


class TestLoocvIterations:
    def test_single_candidate(self):
        rows = sample_rows()
        result = loocv_select_iterations(rows, rbf_spec(rows), "landweber", 1)
        assert result.chosen.iters == 1
        assert result.score_kind == "LOOCV"

    def test_chosen_attains_minimum(self):
        rows = sample_rows(1)
        result = loocv_select_iterations(rows, rbf_spec(rows), "landweber", 25)
        scores = np.array([s for _, s in result.score_path])
        params = [t for t, _ in result.score_path]
        assert result.chosen.iters == params[int(np.argmin(scores))]
        assert np.isfinite(scores).all()

    def test_score_path_converges_for_large_t(self):
        # gradient iterates approach the uniform fixed point, so successive
        # score differences shrink toward zero
        rows = sample_rows(2, n=15)
        result = loocv_select_iterations(rows, rbf_spec(rows), "landweber", 80)
        scores = np.array([s for _, s in result.score_path])
        diffs = np.abs(np.diff(scores))
        assert diffs[-1] < 1e-3 * diffs[0]
        assert diffs[-1] < diffs[4]

    def test_permutation_invariance(self):
        rows = sample_rows(3, n=12)
        spec = rbf_spec(rows)
        perm = np.random.default_rng(0).permutation(12)
        a = loocv_select_iterations(rows, spec, "nu", 10)
        b = loocv_select_iterations(rows[perm], spec, "nu", 10)
        sa = np.array([s for _, s in a.score_path])
        sb = np.array([s for _, s in b.score_path])
        np.testing.assert_allclose(sa, sb, rtol=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(InputError):
            loocv_select_iterations(np.eye(2), GaussianRBF(1.0), "landweber", 5)

    def test_unknown_algo(self):
        with pytest.raises(InputError):
            loocv_select_iterations(sample_rows(), GaussianRBF(1.0), "ridge", 5)


class TestLoocvLambda:
    def test_single_value_grid(self):
        rows = sample_rows(4)
        result = loocv_select_lambda(rows, rbf_spec(rows), [0.3], family="tikhonov")
        assert result.chosen == Tikhonov(0.3)

    def test_interior_minimizer_common(self):
        grid = np.geomspace(1e-6, 1e2, 30)
        hits = 0
        for seed in range(10):
            rows = sample_rows(seed, n=25, d=6)
            result = loocv_select_lambda(rows, rbf_spec(rows), grid, family="tikhonov")
            lam = result.chosen.lam
            hits += grid[0] < lam < grid[-1]
        assert hits >= 8

    def test_duplicate_rows_tolerated(self):
        rows = sample_rows(5, n=10)
        rows = np.vstack([rows, rows[:3]])
        result = loocv_select_lambda(rows, rbf_spec(rows), [0.1, 1.0], family="tikhonov")
        assert result.chosen.lam in (0.1, 1.0)

    def test_skmse_family_selects(self):
        rows = sample_rows(6)
        result = loocv_select_lambda(
            rows, rbf_spec(rows), np.geomspace(1e-4, 10, 10), family="skmse"
        )
        scores = [s for _, s in result.score_path]
        assert result.chosen.lam == result.score_path[int(np.argmin(scores))][0]

    def test_itik_family_keeps_iteration_count(self):
        rows = sample_rows(7)
        result = loocv_select_lambda(
            rows, rbf_spec(rows), [0.01, 0.1], family="itik", itik_iters=3
        )
        assert result.chosen.iters == 3


class TestGcvTsvd:
    def test_rank_one_duplicate_points(self):
        gram = gram_matrix(np.array([[1.0], [1.0]]), GaussianRBF(1.0))
        result = gcv_select_tsvd(normalize_gram(gram))
        assert result.score_path[0][0] == 1.0  # m = 1 evaluated
        assert result.score_path[0][1] <= 1e-20  # residual exactly captured
        kbar = normalize_gram(gram)
        np.testing.assert_allclose(result.chosen.threshold, 1.0, atol=1e-12)

    def test_two_distinct_points_select_m1(self):
        gram = gram_matrix(np.array([[0.0], [1.0]]), GaussianRBF(1.0))
        result = gcv_select_tsvd(normalize_gram(gram))
        assert [m for m, _ in result.score_path] == [1.0]

    @staticmethod
    def brute_force_scores(kbar):
        # direct ||Kbar beta_m - Kbar 1_n||^2 / (1 - m/n)^2 with beta_m the
        # top-m truncated solve, built from dense projector matrices
        n = kbar.n
        eig = kbar.spectrum
        gammas = np.clip(eig.eigenvalues, 0.0, None)
        ones = np.full(n, 1.0 / n)
        kv = kbar.matrix.values
        scores = []
        for m in range(1, n):
            if gammas[m - 1] <= 0.0:
                break
            u = eig.eigenvectors[:, :m]
            beta = u @ np.diag(1.0 / gammas[:m]) @ u.T @ (kv @ ones)
            scores.append(
                np.linalg.norm(kv @ beta - kv @ ones) ** 2 / (1 - m / n) ** 2
            )
        return scores

    def test_scaled_identity_matches_brute_force(self):
        c = 0.17
        n = 6
        kbar = NormalizedGram(SymMatrix(c * np.eye(n)), kappa_sq=1.0)
        result = gcv_select_tsvd(kbar)
        brute = self.brute_force_scores(kbar)
        fast = [s for _, s in result.score_path]
        np.testing.assert_allclose(fast, brute, atol=1e-12)
        # numerator c^2 (n-m)/n^2 over (1 - m/n)^2 gives c^2/(n-m): increasing
        assert result.score_path[int(np.argmin(fast))][0] == 1.0
        assert 1 + int(np.argmin(brute)) == 1

    def test_fast_path_equals_brute_force_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            rows = rng.standard_normal((12, 3))
            kbar = normalize_gram(
                gram_matrix(rows, GaussianRBF(median_heuristic_bandwidth(rows)))
            )
            result = gcv_select_tsvd(kbar)
            brute = self.brute_force_scores(kbar)
            fast = [s for _, s in result.score_path]
            assert len(fast) == len(brute)
            for fast_score, direct in zip(fast, brute):
                assert abs(fast_score - direct) <= 1e-10 * max(1.0, direct)

    def test_chosen_threshold_is_positive(self):
        rows = sample_rows(9, n=15)
        result = gcv_select_tsvd(
            normalize_gram(gram_matrix(rows, rbf_spec(rows)))
        )
        assert result.chosen.threshold > 0.0
