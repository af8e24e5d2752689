import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmse import kernels, risk, selection
from kmse.errors import ConfigurationError, InputError
from kmse.estimators import fit_spec, landweber_path, nu_method_path, tsvd_ladder
from kmse.filters import (
    SKMSE,
    IteratedTikhonov,
    Landweber,
    NuMethod,
    TSVD,
    Tikhonov,
    default_lambda_grid,
    retention_values,
)
from kmse.kernels import (
    GaussianRBF,
    NormalizedGram,
    gram_matrix,
    linear_spec_for,
    median_heuristic_bandwidth,
    normalize_gram,
)
from kmse.linalg import SymMatrix, sym_eigendecompose
from kmse.selection import (
    gcv_select_tsvd,
    loocv_select_iterations,
    loocv_select_lambda,
    oracle_select,
)


def sample_rows(seed=0, n=20, d=3):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, d))


def rbf_spec(rows):
    return GaussianRBF(median_heuristic_bandwidth(rows))


def kbar_of(rows, spec=None):
    return normalize_gram(gram_matrix(rows, rbf_spec(rows) if spec is None else spec))


def iteration_ladder(kbar, family, t_max):
    """Landweber or nu-method (nu = 1) candidates t = 1..t_max at step 1/kappa^2."""
    eta = 1.0 / kbar.kappa_sq
    if family == "landweber":
        return tuple(Landweber(t, eta) for t in range(1, t_max + 1))
    return tuple(NuMethod(t, 1.0, eta) for t in range(1, t_max + 1))


def lambda_ladder(family, grid, itik_iters=3):
    """One S-KMSE, Tikhonov or iterated-Tikhonov candidate per grid value."""
    if family == "skmse":
        return tuple(SKMSE(float(lam)) for lam in grid)
    if family == "tikhonov":
        return tuple(Tikhonov(float(lam)) for lam in grid)
    return tuple(IteratedTikhonov(itik_iters, float(lam)) for lam in grid)


def select_iterations(rows, family, t_max, spec=None):
    kbar = kbar_of(rows, spec)
    return loocv_select_iterations(kbar, iteration_ladder(kbar, family, t_max))


def select_lambda(rows, family, grid, itik_iters=3):
    return loocv_select_lambda(kbar_of(rows), lambda_ladder(family, grid, itik_iters))


class TestLoocvIterations:
    def test_single_candidate(self):
        rows = sample_rows()
        result = select_iterations(rows, "landweber", 1)
        assert result.chosen.iters == 1
        assert result.score_kind == "LOOCV"

    def test_chosen_attains_minimum(self):
        rows = sample_rows(1)
        result = select_iterations(rows, "landweber", 25)
        scores = np.array([s for _, s in result.score_path])
        params = [t for t, _ in result.score_path]
        assert result.chosen.iters == params[int(np.argmin(scores))]
        assert np.isfinite(scores).all()

    def test_score_path_converges_for_large_t(self):
        # gradient iterates approach the uniform fixed point, so successive
        # score differences shrink toward zero
        rows = sample_rows(2, n=15)
        result = select_iterations(rows, "landweber", 80)
        scores = np.array([s for _, s in result.score_path])
        diffs = np.abs(np.diff(scores))
        assert diffs[-1] < 1e-3 * diffs[0]
        assert diffs[-1] < diffs[4]

    def test_permutation_invariance(self):
        rows = sample_rows(3, n=12)
        spec = rbf_spec(rows)
        perm = np.random.default_rng(0).permutation(12)
        a = select_iterations(rows, "nu", 10, spec)
        b = select_iterations(rows[perm], "nu", 10, spec)
        sa = np.array([s for _, s in a.score_path])
        sb = np.array([s for _, s in b.score_path])
        np.testing.assert_allclose(sa, sb, rtol=1e-9)

    def test_needs_three_points(self):
        with pytest.raises(InputError):
            select_iterations(np.eye(2), "landweber", 5, GaussianRBF(1.0))

    @pytest.mark.parametrize("algo,t_max", [("ridge", 5), ("landweber", 0), ("nu", 0)])
    def test_invalid_ladder_rejected_before_any_work(self, algo, t_max, monkeypatch):
        monkeypatch.setattr(selection, "loocv_select_iterations", no_selection)
        rows = sample_rows()
        with pytest.raises(InputError):
            config = risk.EstimatorConfig(algo, selection="loocv", t_max=t_max)
            risk.fit_weights(config, rows, rbf_spec(rows))

    @pytest.mark.parametrize("nu", [-0.25, -1.0, 0.0])
    def test_non_positive_nu_rejected(self, nu, monkeypatch):
        monkeypatch.setattr(selection, "loocv_select_iterations", no_selection)
        rows = sample_rows()
        config = risk.EstimatorConfig("nu", selection="loocv", t_max=5, nu=nu)
        with pytest.raises(InputError, match="nu must be positive"):
            risk.fit_weights(config, rows, rbf_spec(rows))


class TestLoocvLambda:
    def test_single_value_grid(self):
        rows = sample_rows(4)
        result = select_lambda(rows, "tikhonov", [0.3])
        assert result.chosen == Tikhonov(0.3)

    def test_interior_minimizer_common(self):
        grid = np.geomspace(1e-6, 1e2, 30)
        hits = 0
        for seed in range(10):
            rows = sample_rows(seed, n=25, d=6)
            result = select_lambda(rows, "tikhonov", grid)
            lam = result.chosen.lam
            hits += grid[0] < lam < grid[-1]
        assert hits >= 8

    def test_duplicate_rows_tolerated(self):
        rows = sample_rows(5, n=10)
        rows = np.vstack([rows, rows[:3]])
        result = select_lambda(rows, "tikhonov", [0.1, 1.0])
        assert result.chosen.lam in (0.1, 1.0)

    MESSAGES = {
        "skmse": "SKMSE lam must be non-negative and finite, got -0.5",
        "tikhonov": "Tikhonov lam must be positive and finite, got -0.5",
        "itik": "IteratedTikhonov lam must be positive and finite, got -0.5",
    }

    @pytest.mark.parametrize("family", ["skmse", "tikhonov", "itik"])
    def test_invalid_grid_value_rejected_before_any_work(self, family, monkeypatch):
        # -0.5 scores worse than 0.5 here; it must be rejected all the same
        monkeypatch.setattr(selection, "loocv_select_lambda", no_selection)
        rows = sample_rows(8, n=10)
        config = risk.EstimatorConfig(family, selection="loocv", lambda_grid=(-0.5, 0.5, 2.0))
        with pytest.raises(InputError, match=self.MESSAGES[family]):
            risk.fit_weights(config, rows, rbf_spec(rows))

    def test_skmse_family_selects(self):
        rows = sample_rows(6)
        result = select_lambda(rows, "skmse", np.geomspace(1e-4, 10, 10))
        scores = [s for _, s in result.score_path]
        assert result.chosen.lam == result.score_path[int(np.argmin(scores))][0]

    def test_itik_family_keeps_iteration_count(self):
        rows = sample_rows(7)
        result = select_lambda(rows, "itik", [0.01, 0.1], itik_iters=3)
        assert result.chosen.iters == 3


def no_selection(*args):
    raise AssertionError("LOOCV ran before the ladder was checked")


def no_scoring(*args):
    raise AssertionError("a candidate was scored before the ladder was checked")


def zero_loss(weights):
    return 0.0


class TestSelectorInputs:
    SELECTORS = [
        (loocv_select_lambda, (Tikhonov(0.1), Tikhonov(1.0))),
        (loocv_select_iterations, (Landweber(1, 1.0), Landweber(2, 1.0))),
    ]
    EMPTY_LADDER_ONLY = [
        (gcv_select_tsvd, (TSVD(0.1),)),
        (lambda kbar, ladder: oracle_select(kbar, ladder, zero_loss), (Tikhonov(0.1),)),
        *[
            (lambda kbar, ladder, rule=rule: selection.select(rule, kbar, ladder, zero_loss), ())
            for rule in ("loocv", "gcv", "oracle")
        ],
    ]

    @pytest.mark.parametrize("select,ladder", SELECTORS + EMPTY_LADDER_ONLY)
    def test_empty_ladder_rejected(self, select, ladder):
        with pytest.raises(InputError, match="at least one candidate"):
            select(kbar_of(sample_rows()), ladder[:0])

    @pytest.mark.parametrize("select,ladder", SELECTORS)
    def test_needs_three_points(self, select, ladder):
        kbar = kbar_of(sample_rows(n=2))
        with pytest.raises(InputError, match="at least three points"):
            select(kbar, ladder)

    @pytest.mark.parametrize("rule", ["none", "default", "LOOCV", "bogus"])
    def test_unknown_rule_rejected(self, rule):
        with pytest.raises(InputError, match="unknown selection rule"):
            selection.select(rule, kbar_of(sample_rows()), (Tikhonov(0.1),), zero_loss)

    def test_oracle_needs_a_loss(self):
        with pytest.raises(InputError, match="loss callback"):
            selection.select("oracle", kbar_of(sample_rows()), (Tikhonov(0.1),))

    @pytest.mark.parametrize("rule", ["loocv", "oracle"])
    @pytest.mark.parametrize(
        "ladder,bad",
        [
            # scoring steps 1 and 2 as t = 30 and 40 picks t = 40 under both rules
            ((Landweber(30, 1.0), Landweber(40, 1.0)), 0),
            ((Landweber(1, 1.0), Landweber(3, 1.0), Landweber(3, 1.0)), 1),
            ((Landweber(1, 1.0), Landweber(2, 1.0), Landweber(2, 1.0)), 2),
            ((Landweber(1, 0.5), Landweber(2, 1.0)), 0),
            ((NuMethod(1), NuMethod(2, 2.0)), 0),
            ((NuMethod(1), NuMethod(2, 1.0, 0.5)), 0),
            ((NuMethod(1), Landweber(2, 1.0)), 0),
        ],
    )
    def test_iteration_ladder_must_count_one_schedule_from_one(self, rule, ladder, bad):
        kbar = kbar_of(sample_rows(n=12))
        message = re.escape(f"iteration ladder entry {bad} is {ladder[bad]!r}")
        with pytest.raises(InputError, match=message):
            selection.select(rule, kbar, ladder, zero_loss)

    @pytest.mark.parametrize(
        "rule,ladder",
        [("loocv", (TSVD(0.1),)), ("gcv", (Tikhonov(0.1),)), ("gcv", (Landweber(1, 1.0),))],
    )
    def test_rule_without_a_selector_for_the_family(self, rule, ladder):
        family = type(ladder[0]).__name__
        with pytest.raises(InputError, match=f"no {rule} selector for a {family} ladder"):
            selection.select(rule, kbar_of(sample_rows()), ladder)

    # (ladder, index of the entry each rule refuses): an entry of another
    # family or solve count than the last one, or a last entry of a family
    # the rule cannot score
    MIXED = [
        ((IteratedTikhonov(3, 0.1), IteratedTikhonov(1, 1.0)), {"loocv": 0, "gcv": 1, "oracle": 0}),
        ((SKMSE(0.5), Tikhonov(0.1)), {"loocv": 0, "gcv": 1, "oracle": 0}),
        ((Tikhonov(0.1), TSVD(0.1)), {"loocv": 1, "gcv": 0, "oracle": 0}),
        ((TSVD(0.1), Tikhonov(0.2)), {"loocv": 0, "gcv": 1, "oracle": 0}),
        ((Tikhonov(0.1), Tikhonov(0.2), IteratedTikhonov(1, 0.3)), {"oracle": 0}),
    ]

    @pytest.mark.parametrize(
        "rule,ladder,bad",
        [(rule, ladder, bad) for ladder, bads in MIXED for rule, bad in bads.items()],
    )
    def test_mixed_ladder_rejected_before_scoring(self, rule, ladder, bad, monkeypatch):
        for scorer in ("_skmse_scores", "_resolvent_scores", "_iteration_scores", "_target",
                       "fit_spec", "two_term_path"):
            monkeypatch.setattr(selection, scorer, no_scoring)
        message = re.escape(f"entry {bad} is {ladder[bad]!r}")
        with pytest.raises(InputError, match=message):
            selection.select(rule, kbar_of(sample_rows(n=12)), ladder, no_scoring)

    @pytest.mark.parametrize("rule", ["loocv", "oracle"])
    @pytest.mark.parametrize("family,message", [("landweber", "Landweber step size"),
                                                ("nu", "accelerated step scale")])
    def test_step_above_inverse_kappa_sq_rejected_before_scoring(self, rule, family, message,
                                                                 monkeypatch):
        # the same error fit_spec raises, before any fold iterate or path
        for scorer in ("_iteration_scores", "_target", "fit_spec", "two_term_path"):
            monkeypatch.setattr(selection, scorer, no_scoring)
        kbar = kbar_of(sample_rows(n=12))
        eta = 2.0 / kbar.kappa_sq
        if family == "landweber":
            ladder = tuple(Landweber(t, eta) for t in range(1, 6))
        else:
            ladder = tuple(NuMethod(t, 1.0, eta) for t in range(1, 6))
        with pytest.raises(ConfigurationError, match=message):
            selection.select(rule, kbar, ladder, no_scoring)


class TestOracle:
    @pytest.mark.parametrize("family", ["landweber", "nu", "tikhonov", "skmse", "itik"])
    def test_path_holds_the_loss_of_every_entry(self, family):
        rows = sample_rows(17, n=15)
        kbar = kbar_of(rows)
        if family in ("landweber", "nu"):
            ladder = iteration_ladder(kbar, family, 12)
        else:
            ladder = lambda_ladder(family, default_lambda_grid(9))
        target = np.linspace(0.2, -0.1, kbar.n)  # a loss with an interior minimum

        def loss(weights):
            return float(np.sum((weights - target) ** 2))

        result = selection.select("oracle", kbar, ladder, loss)
        want = [loss(fit_spec(kbar, spec).weights) for spec in ladder]
        assert [i for i, _ in result.score_path] == list(range(len(ladder)))
        np.testing.assert_allclose([s for _, s in result.score_path], want, rtol=1e-12)
        assert result.chosen == ladder[int(np.argmin(want))]
        assert result.score_kind == "oracle"


def brute_force_iteration_scores(K, algo, t_max, eta, nu=1.0):
    """LOOCV path by running the iteration on each held-out fold."""
    n = K.shape[0]
    scores = np.zeros(t_max)
    index = np.arange(n)
    for i in range(n):
        keep = index != i
        Ksub = K[np.ix_(keep, keep)]
        kcol = K[keep, i]
        if algo == "landweber":
            path = landweber_path(Ksub / (n - 1), t_max, eta)
        else:
            path = nu_method_path(Ksub / (n - 1), t_max, nu, eta)
        quad = np.einsum("ti,ti->t", path @ Ksub, path)
        cross = path @ kcol
        scores += quad - 2.0 * cross + K[i, i]
    return scores / n


def brute_force_lambda_scores(K, grid, family, itik_iters=3):
    """LOOCV scores by refitting on each held-out fold (one eigh per fold)."""
    n = K.shape[0]
    m = n - 1
    scores = np.zeros(len(grid))
    index = np.arange(n)
    for i in range(n):
        keep = index != i
        Ksub = K[np.ix_(keep, keep)]
        kcol = K[keep, i]
        if family == "skmse":
            # refit is the uniform vector scaled by 1/(1+lambda)
            s_quad = Ksub.sum() / m**2
            s_cross = kcol.mean()
            for j, lam in enumerate(grid):
                shrink = 1.0 / (1.0 + lam)
                scores[j] += shrink**2 * s_quad - 2.0 * shrink * s_cross + K[i, i]
            continue
        eig = sym_eigendecompose(Ksub / m)
        gammas = np.clip(eig.eigenvalues, 0.0, None)
        coeff = eig.eigenvectors.T @ np.full(m, 1.0 / m)
        for j, lam in enumerate(grid):
            if family == "tikhonov":
                spec = Tikhonov(float(lam))
            else:
                spec = IteratedTikhonov(iters=itik_iters, lam=float(lam))
            beta = eig.eigenvectors @ (retention_values(spec, gammas) * coeff)
            scores[j] += beta @ Ksub @ beta - 2.0 * (kcol @ beta) + K[i, i]
    return scores / n


def path_scores(result):
    return np.array([s for _, s in result.score_path])


def assert_scores_match(fast, brute, K):
    # relative to the score, or to the kernel scale where the score is tiny
    scale = np.maximum(np.abs(brute), np.mean(np.diag(K)))
    assert np.all(np.abs(fast - brute) <= 1e-12 * scale), np.max(
        np.abs(fast - brute) / scale
    )


FAMILIES = ("skmse", "tikhonov", "itik", "landweber", "nu")


def loocv_scores(rows, spec, family, grid, itik_iters, t_max):
    kbar = kbar_of(rows, spec)
    if family in ("landweber", "nu"):
        result = loocv_select_iterations(kbar, iteration_ladder(kbar, family, t_max))
    else:
        result = loocv_select_lambda(kbar, lambda_ladder(family, grid, itik_iters))
    return path_scores(result)


def brute_force_scores(rows, spec, family, grid, itik_iters, t_max):
    K = gram_matrix(rows, spec).raw.values
    if family in ("landweber", "nu"):
        return brute_force_iteration_scores(K, family, t_max, 1.0 / spec.kappa_sq)
    return brute_force_lambda_scores(K, grid, family, itik_iters)


class TestLoocvMatchesPerFoldRefit:
    """The shared-eigenbasis scores equal a refit on every held-out fold."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(3, 40),
        d=st.integers(1, 4),
        seed=st.integers(0, 2**16),
        family=st.sampled_from(FAMILIES),
        itik_iters=st.sampled_from((1, 3, 50)),
        log_grid=st.lists(st.floats(-6.0, 2.0), min_size=1, max_size=6),
        t_max=st.integers(1, 30),
        duplicates=st.integers(0, 3),
        linear=st.booleans(),
    )
    def test_random_sizes_and_grids(
        self, n, d, seed, family, itik_iters, log_grid, t_max, duplicates, linear
    ):
        rows = np.random.default_rng(seed).standard_normal((n, d))
        # repeated rows make K rank-deficient
        repeats = min(duplicates, n - 1)
        rows[n - repeats:] = rows[:repeats]
        spec = linear_spec_for(rows) if linear else GaussianRBF(1.0 + d)
        grid = 10.0 ** np.asarray(log_grid)
        fast = loocv_scores(rows, spec, family, grid, itik_iters, t_max)
        brute = brute_force_scores(rows, spec, family, grid, itik_iters, t_max)
        assert_scores_match(fast, brute, gram_matrix(rows, spec).raw.values)

    @pytest.mark.parametrize(
        "family,itik_iters",
        [(f, 3) for f in FAMILIES if f != "itik"] + [("itik", t) for t in (1, 2, 3, 50)],
    )
    def test_every_family_on_the_default_grid(self, family, itik_iters):
        rows = sample_rows(11, n=30, d=4)
        rows[-4:] = rows[:4]
        grid = np.geomspace(1e-6, 1e2, 30)
        for spec in (rbf_spec(rows), linear_spec_for(rows)):
            fast = loocv_scores(rows, spec, family, grid, itik_iters, 40)
            brute = brute_force_scores(rows, spec, family, grid, itik_iters, 40)
            assert_scores_match(fast, brute, gram_matrix(rows, spec).raw.values)
            assert np.argmin(fast) == np.argmin(brute)

    def test_itik_with_more_solves_than_points(self):
        # the solve recursion runs past the dimension of the folds
        rows = sample_rows(15, n=8, d=3)
        rows[-2:] = rows[:2]
        grid = default_lambda_grid()[[0, -1]]
        for spec in (rbf_spec(rows), linear_spec_for(rows)):
            fast = loocv_scores(rows, spec, "itik", grid, 64, 1)
            brute = brute_force_scores(rows, spec, "itik", grid, 64, 1)
            assert_scores_match(fast, brute, gram_matrix(rows, spec).raw.values)

    def test_itik_working_memory_is_a_few_gram_matrices(self):
        # the scorer keeps four n x n arrays (the fold basis and its products
        # with u) and a grid chunk three more (P, X and Gamma X); stacking every
        # grid point or every solve would need 30 or 50
        n = 200
        rows = sample_rows(16, n=n, d=5)
        spec = rbf_spec(rows)
        kbar = normalize_gram(gram_matrix(rows, spec))
        kbar.spectrum  # cached before tracing, as every caller has it
        ladder = lambda_ladder("itik", default_lambda_grid(), itik_iters=50)
        tracemalloc.start()
        try:
            loocv_select_lambda(kbar, ladder)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10 * n * n * 8, peak / (n * n * 8)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_given_kbar_equals_built_kbar(self, family):
        # fit_weights builds K/n when it is not given; LOOCV then picks the same
        rows = sample_rows(12, n=18)
        spec = rbf_spec(rows)
        config = risk.EstimatorConfig(
            family, selection="loocv", t_max=20, lambda_grid=tuple(np.geomspace(1e-4, 10.0, 7))
        )
        built = risk.fit_weights(config, rows, spec)
        given = risk.fit_weights(config, rows, spec, kbar_of(rows, spec))
        np.testing.assert_array_equal(built.weights, given.weights)
        assert built.shrinkage == given.shrinkage

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_eigendecomposition_for_all_folds(self, family, monkeypatch):
        calls = []

        def counting(matrix):
            calls.append(matrix)
            return sym_eigendecompose(matrix)

        monkeypatch.setattr(kernels, "sym_eigendecompose", counting)
        rows = sample_rows(13, n=15)
        loocv_scores(rows, rbf_spec(rows), family, [0.01, 0.1, 1.0], 3, 10)
        assert len(calls) == (0 if family == "skmse" else 1)

    @pytest.mark.parametrize("algo", ["landweber", "nu"])
    def test_step_above_inverse_kappa_sq_trips_the_guard(self, algo):
        # kbar claims kappa^2 = 0.05, so eta = 20 far exceeds 2 / gamma_max
        rows = sample_rows(14, n=12)
        K = gram_matrix(rows, rbf_spec(rows)).raw.values
        kbar = NormalizedGram(SymMatrix(K / 12), kappa_sq=0.05)
        with pytest.raises(ConfigurationError, match="diverged"):
            loocv_select_iterations(kbar, iteration_ladder(kbar, algo, 50))


class TestGcvTsvd:
    def test_rank_one_duplicate_points(self):
        gram = gram_matrix(np.array([[1.0], [1.0]]), GaussianRBF(1.0))
        kbar = normalize_gram(gram)
        result = gcv_select_tsvd(kbar, tsvd_ladder(kbar))
        assert result.score_path[0][0] == 1.0  # m = 1 evaluated
        assert result.score_path[0][1] <= 1e-20  # residual exactly captured
        np.testing.assert_allclose(result.chosen.threshold, 1.0, atol=1e-12)

    def test_two_distinct_points_select_m1(self):
        gram = gram_matrix(np.array([[0.0], [1.0]]), GaussianRBF(1.0))
        kbar = normalize_gram(gram)
        result = gcv_select_tsvd(kbar, tsvd_ladder(kbar))
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
        result = gcv_select_tsvd(kbar, tsvd_ladder(kbar))
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
            result = gcv_select_tsvd(kbar, tsvd_ladder(kbar))
            brute = self.brute_force_scores(kbar)
            fast = [s for _, s in result.score_path]
            assert len(fast) == len(brute)
            for fast_score, direct in zip(fast, brute):
                assert abs(fast_score - direct) <= 1e-10 * max(1.0, direct)

    @staticmethod
    def per_level_scores(kbar):
        """GCV level by level, stopping at the first zero eigenvalue."""
        n = kbar.n
        eig = kbar.spectrum
        gammas = np.clip(eig.eigenvalues, 0.0, None)
        sq = (eig.eigenvectors.T @ kbar.matrix.values.mean(axis=1)) ** 2
        tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])
        levels, scores = [], []
        for m in range(1, n):
            if gammas[m - 1] <= 0.0:
                break
            levels.append(float(m))
            scores.append(tail[m] / (1.0 - m / n) ** 2)
        return levels, scores

    def assert_equals_per_level(self, kbar):
        result = gcv_select_tsvd(kbar, tsvd_ladder(kbar))
        levels, scores = self.per_level_scores(kbar)
        assert [m for m, _ in result.score_path] == levels
        assert np.array_equal([s for _, s in result.score_path], scores)
        m_star = int(levels[int(np.argmin(scores))])
        gammas = np.clip(kbar.spectrum.eigenvalues, 0.0, None)
        assert result.chosen.threshold == float(gammas[m_star - 1])
        return levels

    @pytest.mark.parametrize("n,samples", [(50, 20), (200, 8), (700, 2)])
    def test_scores_equal_the_per_level_loop(self, n, samples):
        rng = np.random.default_rng(n)
        for _ in range(samples):
            rows = rng.standard_normal((n, int(rng.integers(1, 6))))
            self.assert_equals_per_level(kbar_of(rows))

    def test_levels_stop_at_the_numerical_rank(self):
        gammas = [0.5, 0.3, 0.3, 0.1, 0.0, 0.0, 0.0]
        kbar = NormalizedGram(SymMatrix(np.diag(gammas)), kappa_sq=1.0)
        assert self.assert_equals_per_level(kbar) == [1.0, 2.0, 3.0, 4.0]
        rows = np.random.default_rng(3).standard_normal((40, 4))  # linear kernel: rank 4
        self.assert_equals_per_level(kbar_of(rows, linear_spec_for(rows)))

    @pytest.mark.parametrize("gammas", [[0.0, 0.0, 0.0, 0.0], [0.5]])
    def test_no_positive_eigenvalue_or_single_point_rejected(self, gammas):
        kbar = NormalizedGram(SymMatrix(np.diag(gammas)), kappa_sq=1.0)
        with pytest.raises(InputError, match="at least two points and a positive eigenvalue"):
            gcv_select_tsvd(kbar, (TSVD(0.1),))

    def test_ladder_without_the_chosen_threshold_rejected(self):
        kbar = NormalizedGram(SymMatrix(np.diag([0.5, 0.2, 0.0, 0.0])), kappa_sq=1.0)
        with pytest.raises(InputError, match="GCV level 2's threshold 0.2"):
            gcv_select_tsvd(kbar, (TSVD(0.1),))

    def test_chosen_threshold_is_positive(self):
        rows = sample_rows(9, n=15)
        kbar = normalize_gram(gram_matrix(rows, rbf_spec(rows)))
        result = gcv_select_tsvd(kbar, tsvd_ladder(kbar))
        assert result.chosen.threshold > 0.0
