import tracemalloc

import numpy as np
import pytest
from scipy.special import eval_jacobi

from kmse import filters
from kmse.errors import InputError, require_positive
from kmse.filters import (
    SHRINKAGE_FIELD,
    IteratedTikhonov,
    Landweber,
    NuMethod,
    SKMSE,
    TSVD,
    Tikhonov,
    check_admissibility,
    default_lambda_grid,
    effective_shrinkage,
    filter_values,
    nu_method_coefficients,
    qualification,
    residual,
    residual_values,
    retention_matrix,
    retention_values,
    scalar_filter,
    two_term_iterates,
    two_term_steps,
)

GRID = np.linspace(0.0, 1.0, 2001)


class TestScalarFilter:
    def test_tikhonov_value(self):
        assert scalar_filter(Tikhonov(1.0), 1.0) == 0.5

    def test_tsvd_below_threshold_is_zero(self):
        assert scalar_filter(TSVD(0.5), 0.3) == 0.0

    def test_tsvd_above_threshold_inverts(self):
        np.testing.assert_allclose(scalar_filter(TSVD(0.5), 0.8), 1.25)

    def test_landweber_single_step(self):
        # single-term sum: g = eta for every gamma (closed form rounds in floats)
        for gamma in (0.0, 0.3, 1.0):
            np.testing.assert_allclose(
                scalar_filter(Landweber(1, 0.25), gamma), 0.25, rtol=1e-12
            )

    def test_landweber_geometric_sum(self):
        # t=3, eta=1 at gamma=0.5: (1 - 0.5^3) / 0.5 = 1.75
        np.testing.assert_allclose(scalar_filter(Landweber(3, 1.0), 0.5), 1.75)

    def test_landweber_matches_literal_sum(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            t = int(rng.integers(1, 30))
            eta = float(rng.uniform(0.1, 1.0))
            gamma = float(rng.uniform(0.0, 1.0))
            literal = eta * sum((1.0 - eta * gamma) ** i for i in range(t))
            np.testing.assert_allclose(
                scalar_filter(Landweber(t, eta), gamma), literal, rtol=1e-10
            )

    def test_iterated_tikhonov_reduces_to_tikhonov_at_t1(self):
        for gamma in (0.0, 0.2, 1.0):
            np.testing.assert_allclose(
                scalar_filter(IteratedTikhonov(1, 0.3), gamma),
                scalar_filter(Tikhonov(0.3), gamma),
                rtol=1e-14,
            )

    def test_skmse_uniform_retention(self):
        # gamma * g = 1 / (1 + lambda) on positive eigenvalues
        kept = retention_values(SKMSE(1.0), np.array([0.1, 0.5, 1.0]))
        np.testing.assert_allclose(kept, 0.5)

    @pytest.mark.parametrize("lam", [-0.1, float("nan")])
    def test_skmse_rejects_negative_or_nan_lambda(self, lam):
        message = f"SKMSE lam must be non-negative and finite, got {lam}"
        with pytest.raises(InputError, match=message):
            SKMSE(lam)

    def test_negative_gamma_rejected(self):
        with pytest.raises(InputError):
            scalar_filter(Tikhonov(1.0), -0.1)


def nu_literal(t, nu, eta, gamma):
    """The nu-method filter from its Jacobi residual r (see
    test_residual_is_normalized_jacobi_polynomial): (1 - r) / gamma, and at
    gamma = 0 the limit -r'(0), by d/dx P_t^(a,b) = (t+a+b+1)/2 P_{t-1}^(a+1,b+1)."""
    a, b = 2.0 * nu - 0.5, -0.5
    at_one = eval_jacobi(t, a, b, 1.0)
    if gamma == 0.0:
        return eta * (t + a + b + 1.0) * eval_jacobi(t - 1, a + 1.0, b + 1.0, 1.0) / at_one
    return (1.0 - eval_jacobi(t, a, b, 1.0 - 2.0 * eta * gamma) / at_one) / gamma


class TestFilterValues:
    """g(gamma) of every family against its formula written out, at gamma = 0
    (the limit of retention / gamma) and at gamma > 0."""

    GAMMAS = [0.0, 0.05, 0.3, 0.7, 1.0]
    CASES = [
        (Tikhonov(0.3), lambda g: 1.0 / (g + 0.3)),
        (Landweber(7, 0.9), lambda g: 0.9 * sum((1.0 - 0.9 * g) ** i for i in range(7))),
        (IteratedTikhonov(3, 0.3),
         lambda g: sum(0.3**s / (g + 0.3) ** (s + 1) for s in range(3))),
        (TSVD(0.3), lambda g: 1.0 / g if g >= 0.3 else 0.0),
        (SKMSE(0.7), lambda g: 1.0 / (1.7 * g) if g > 0 else 0.0),
        (NuMethod(1, 1.0, 0.5), lambda g: nu_literal(1, 1.0, 0.5, g)),
        (NuMethod(5, 1.0, 0.5), lambda g: nu_literal(5, 1.0, 0.5, g)),
        (NuMethod(12, 2.0, 1.0), lambda g: nu_literal(12, 2.0, 1.0, g)),
    ]

    @pytest.mark.parametrize("spec,literal", CASES, ids=[repr(case[0]) for case in CASES])
    def test_matches_literal_formula(self, spec, literal):
        want = [literal(g) for g in self.GAMMAS]
        np.testing.assert_allclose(filter_values(spec, np.array(self.GAMMAS)), want,
                                   rtol=1e-14, atol=0)


class TestSpecParameters:
    # each spec with its one floating parameter set to x, and that field's name
    SPECS = [
        (Tikhonov, "Tikhonov lam"),
        (lambda x: Landweber(3, x), "Landweber eta"),
        (lambda x: NuMethod(3, x), "NuMethod nu"),
        (lambda x: NuMethod(3, 1.0, x), "NuMethod eta_bar"),
        (lambda x: IteratedTikhonov(3, x), "IteratedTikhonov lam"),
        (TSVD, "TSVD threshold"),
        (SKMSE, "SKMSE lam"),
    ]

    @pytest.mark.parametrize("make,field", SPECS)
    def test_infinite_parameter_named(self, make, field):
        condition = "non-negative" if field == "SKMSE lam" else "positive"
        with pytest.raises(InputError, match=f"{field} must be {condition} and finite, got inf"):
            make(float("inf"))

    @pytest.mark.parametrize("make,field", SPECS)
    def test_nan_parameter_named(self, make, field):
        with pytest.raises(InputError, match="must be .*, got nan"):
            make(float("nan"))

    @pytest.mark.parametrize(
        "make", [lambda t: Landweber(t, 1.0), NuMethod, lambda t: IteratedTikhonov(t, 0.1)]
    )
    @pytest.mark.parametrize("iters", [0, -2, 2.0])
    def test_bad_iteration_count_named(self, make, iters):
        with pytest.raises(InputError, match=rf"iters must be an integer >= 1, got {iters}$"):
            make(iters)


class TestRequirePositive:
    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0, float("inf"), float("-inf")])
    def test_refused_with_its_name_and_value(self, value):
        with pytest.raises(InputError, match=rf"^width must be positive and finite, got {value}$"):
            require_positive("width", value)

    @pytest.mark.parametrize("value", [5e-324, 1.0, 3, 1.7e308])
    def test_positive_finite_accepted(self, value):
        require_positive("width", value)


class TestTwoTermSteps:
    def test_landweber_steps_are_plain_gradient_steps(self):
        assert two_term_steps(Landweber(3, 0.5)) == [(0.0, 0.5)] * 3

    def test_nu_steps_follow_the_coefficients(self):
        spec = NuMethod(4, 1.5, 0.5)
        want = [nu_method_coefficients(t, 1.5, 0.5) for t in range(1, 5)]
        assert two_term_steps(spec) == want

    @pytest.mark.parametrize("shape", [(30,), (30, 30), (4, 30, 30)],
                             ids=["vector", "fold-block", "stack"])
    @pytest.mark.parametrize("spec", [Landweber(40, 0.9), NuMethod(40, 1.0, 0.9)],
                             ids=["landweber", "nu"])
    def test_iterates_equal_the_plain_expression(self, spec, shape):
        # the in-place step gives the bits of x + omega (x - x_prev) + kappa (b - A x)
        rng = np.random.default_rng(21)
        A = rng.standard_normal(shape[-1:] * 2)
        A = A @ A.T / (2.0 * np.linalg.eigvalsh(A @ A.T)[-1])
        if len(shape) == 3:  # a stack of operators, one per member
            A = np.stack([A * scale for scale in (1.0, 0.5, 0.25, 0.125)])
        target = rng.standard_normal(shape)
        before = target.copy()

        def plain(coefficients):
            prev = curr = np.zeros_like(target)
            for step, (omega, kappa) in enumerate(coefficients):
                residual = target - A @ curr if step else target
                prev, curr = curr, curr + omega * (curr - prev) + kappa * residual
                yield curr

        steps = two_term_steps(spec)
        got = list(two_term_iterates(steps, target, A.__matmul__))
        assert all(np.array_equal(a, b) for a, b in zip(got, plain(steps), strict=True))
        assert len({id(x) for x in got}) == len(got)  # a fresh array per step
        assert np.array_equal(target, before)

    @pytest.mark.parametrize("iters", [1, 2, 10])
    @pytest.mark.parametrize("family", [Landweber, NuMethod], ids=["landweber", "nu"])
    def test_operator_applied_only_to_form_the_next_iterate(self, family, iters):
        gammas = np.linspace(0.0, 1.0, 5)
        applied = []

        def apply(x):
            applied.append(x.copy())
            return gammas * x

        steps = two_term_steps(family(iters, 1.0))  # eta = 1, or nu = 1
        iterates = list(two_term_iterates(steps, np.ones_like(gammas), apply))
        assert len(iterates) == iters
        assert len(applied) == iters - 1
        assert all(np.array_equal(a, x) for a, x in zip(applied, iterates))


class TestResidual:
    def test_tikhonov_closed_form(self):
        # r(gamma) = lambda / (gamma + lambda); at gamma = lambda = 1 -> 0.5
        assert residual(Tikhonov(1.0), 1.0) == 0.5

    @pytest.mark.parametrize(
        "spec",
        [
            Tikhonov(0.2),
            Landweber(5, 1.0),
            NuMethod(4),
            IteratedTikhonov(3, 0.2),
            TSVD(0.3),
            SKMSE(0.7),
        ],
    )
    def test_residual_is_one_at_zero(self, spec):
        assert residual(spec, 0.0) == 1.0

    def test_tsvd_exact_inverse_above_threshold(self):
        assert residual(TSVD(0.3), 0.3) == 0.0
        assert residual(TSVD(0.3), 0.9) == 0.0

    @pytest.mark.parametrize(
        "spec,closed",
        [
            (Tikhonov(1e-17), lambda g: 1e-17 / (g + 1e-17)),
            (IteratedTikhonov(3, 1e-12), lambda g: (1e-12 / (g + 1e-12)) ** 3),
            (Landweber(4, 0.999), lambda g: (1.0 - 0.999 * g) ** 4),
        ],
    )
    def test_closed_form_where_retention_is_near_one(self, spec, closed):
        # 1 - retention cancels where these residuals are tiny; the closed form keeps them
        gammas = np.array([0.0, 1e-3, 0.5, 1.0])
        np.testing.assert_array_equal(residual_values(spec, gammas), closed(gammas))

    @pytest.mark.parametrize("spec", [Landweber(7, 0.8), IteratedTikhonov(3, 0.2)])
    def test_retention_is_one_minus_the_closed_residual(self, spec):
        np.testing.assert_array_equal(
            retention_values(spec, GRID), 1.0 - residual_values(spec, GRID)
        )

    @pytest.mark.parametrize("spec", [NuMethod(5), TSVD(0.3), SKMSE(0.7)])
    def test_other_families_are_one_minus_retention(self, spec):
        np.testing.assert_array_equal(
            residual_values(spec, GRID), 1.0 - retention_values(spec, GRID)
        )


def nu_last_iterate(spec, gammas):
    """gamma p_t(gamma) from a recursion run for this spec's t alone."""
    *_, p = two_term_iterates(two_term_steps(spec), np.ones_like(gammas), lambda x: gammas * x)
    return gammas * p


# one spec's closed-form retention, written as the per-spec formula
CLOSED_RETENTION = {
    Tikhonov: lambda s, g: g / (g + s.lam),
    Landweber: lambda s, g: 1.0 - (1.0 - s.eta * g) ** s.iters,
    IteratedTikhonov: lambda s, g: 1.0 - (s.lam / (g + s.lam)) ** s.iters,
    TSVD: lambda s, g: np.where(g >= s.threshold, 1.0, 0.0),
    SKMSE: lambda s, g: np.where(g > 0, 1.0 / (1.0 + s.lam), 0.0),
    NuMethod: nu_last_iterate,
}


class TestRetentionMatrix:
    GAMMAS = np.concatenate([[0.0, 0.0], np.geomspace(1e-13, 1.0, 97), [0.5, 0.5]])
    LAMS = [0.0, *default_lambda_grid(), 1e-17, 3e4]
    LADDERS = {
        "tikhonov": [Tikhonov(lam) for lam in LAMS[1:]],
        "landweber": [Landweber(t, 0.999) for t in range(1, 61)],
        "nu": [NuMethod(t, 1.5, 0.999) for t in range(1, 41)],
        "itik": [IteratedTikhonov(3, lam) for lam in LAMS[1:]],
        "itik-2": [IteratedTikhonov(2, lam) for lam in LAMS[1:]],
        "tsvd": [TSVD(float(g)) for g in GAMMAS[GAMMAS > 0]],
        "skmse": [SKMSE(lam) for lam in LAMS],
    }

    @pytest.mark.parametrize("family", LADDERS)
    def test_rows_are_bit_identical_to_each_spec_alone(self, family):
        # a whole ladder in one matrix gives each spec's retention bits,
        # which spectral_weights (selected Tikhonov and TSVD, itik below the
        # Cholesky floor) turns into weights
        ladder = self.LADDERS[family]
        params = [getattr(s, SHRINKAGE_FIELD[type(s)]) for s in ladder]
        kept = retention_matrix(ladder[-1], params, self.GAMMAS)
        assert kept.shape == (len(ladder), len(self.GAMMAS))
        for row, spec in zip(kept, ladder):
            np.testing.assert_array_equal(row, retention_values(spec, self.GAMMAS))
            np.testing.assert_array_equal(row, CLOSED_RETENTION[type(spec)](spec, self.GAMMAS))

    def test_nu_rows_in_any_order(self):
        spec = NuMethod(9, 1.0, 0.9)
        kept = retention_matrix(spec, [4, 1, 9, 4], GRID)
        for row, t in zip(kept, (4, 1, 9, 4)):
            np.testing.assert_array_equal(row, retention_values(NuMethod(t, 1.0, 0.9), GRID))

    def test_nu_keeps_only_the_requested_steps(self):
        # the 500 steps' polynomials would take 500 rows; about ten rows of
        # working arrays and the step schedule (under two rows) remain
        gammas = np.linspace(0.0, 1.0, 4001)
        retention_values(NuMethod(5), gammas)  # first-call imports and caches
        tracemalloc.start()
        try:
            retention_values(NuMethod(500), gammas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * gammas.nbytes, peak / gammas.nbytes


class TestNuMethod:
    def test_first_step_coefficient(self):
        omega, kappa = nu_method_coefficients(1, 1.0, 1.0)
        assert omega == 0.0
        np.testing.assert_allclose(kappa, 6.0 / 5.0)

    def test_filter_at_t1_is_constant(self):
        vals = retention_values(NuMethod(1), GRID[1:])
        np.testing.assert_allclose(vals / GRID[1:], 1.2, rtol=1e-12)

    def test_acceleration_effective_shrinkage(self):
        # residual mass concentrates like 1/t^2: the gamma where the
        # residual first drops below 1/2 shrinks quadratically with t
        def crossing(t):
            res = 1.0 - retention_values(NuMethod(t), GRID)
            idx = np.argmax(res < 0.5)
            return GRID[idx]

        assert crossing(16) < crossing(8) / 2.5

    @pytest.mark.parametrize("nu", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("t", [1, 2, 5, 20])
    def test_residual_is_normalized_jacobi_polynomial(self, nu, t):
        # Engl, Hanke & Neubauer (1996), section 6.3: the nu-method residual
        # is P_t^(a, b)(1 - 2 gamma) / P_t^(a, b)(1), a = 2 nu - 1/2, b = -1/2
        a, b = 2.0 * nu - 0.5, -0.5
        expected = eval_jacobi(t, a, b, 1.0 - 2.0 * GRID) / eval_jacobi(t, a, b, 1.0)
        res = 1.0 - retention_values(NuMethod(t, nu, 1.0), GRID)
        np.testing.assert_allclose(res, expected, rtol=0, atol=1e-13)

    def test_bounded_overshoot(self):
        for t in (1, 2, 5, 10, 20):
            kept = retention_values(NuMethod(t), GRID)
            assert kept.max() <= 2.0
            assert np.abs(1.0 - kept).max() <= 2.0


class TestBoundsAndLimits:
    @pytest.mark.parametrize("lam", default_lambda_grid(8))
    def test_retention_in_unit_interval(self, lam):
        # holds for every family except the accelerated method, whose
        # first steps deliberately overshoot
        specs = [
            Tikhonov(lam),
            IteratedTikhonov(3, lam),
            SKMSE(lam),
            TSVD(min(lam, 1.0)),
            Landweber(max(1, int(1.0 / min(lam, 1.0))), 1.0),
        ]
        for spec in specs:
            kept = retention_values(spec, GRID)
            assert kept.min() >= 0.0
            assert kept.max() <= 1.0 + 1e-12

    def test_residual_in_unit_interval(self):
        for spec in [Tikhonov(0.3), IteratedTikhonov(4, 0.3), TSVD(0.4), Landweber(7, 1.0)]:
            res = 1.0 - retention_values(spec, GRID)
            assert res.min() >= 0.0
            assert res.max() <= 1.0 + 1e-12

    def test_tikhonov_qualification_exact(self):
        # sup_gamma r(gamma) * gamma = lambda * kappa^2 / (kappa^2 + lambda) <= lambda
        for lam in (1e-4, 1e-2, 1.0):
            res = 1.0 - retention_values(Tikhonov(lam), GRID)
            assert (res * GRID).max() <= lam * (1.0 + 1e-12)

    def test_vanishing_shrinkage_monotone(self):
        gammas = np.array([0.05, 0.2, 0.7, 1.0])
        lams = [1e-2, 1e-4, 1e-6]
        for build in (Tikhonov, lambda l: IteratedTikhonov(3, l), SKMSE, TSVD):
            kept = np.stack([retention_values(build(l), gammas) for l in lams])
            assert np.all(np.diff(kept, axis=0) >= -1e-15)
            assert np.abs(kept[-1] - 1.0).max() < 2e-5
        kept = np.stack(
            [retention_values(Landweber(t, 1.0), gammas) for t in (10, 1000, 100000)]
        )
        assert np.all(np.diff(kept, axis=0) >= -1e-15)
        assert np.abs(kept[-1] - 1.0).max() < 1e-2

    def test_nu_method_converges_without_monotonicity(self):
        gammas = np.array([0.05, 0.2, 0.7, 1.0])
        final = retention_values(NuMethod(60), gammas)
        early = retention_values(NuMethod(2), gammas)
        assert np.abs(final - 1.0).max() < np.abs(early - 1.0).max()
        assert np.abs(final - 1.0).max() < 1e-2


class TestAdmissibilityReport:
    def test_tikhonov_constants(self):
        report = check_admissibility(Tikhonov(0.1), 10_000, [1.0])
        assert report.sup_gamma_g <= 1.0
        assert report.sup_residual <= 1.0
        eta, bound = report.residual_eta_bounds[0]
        assert eta == 1.0 and bound <= 1.0 + 1e-12

    def test_tsvd_indicator_structure(self):
        report = check_admissibility(TSVD(0.5), 1000, [1.0, 2.0])
        assert report.sup_gamma_g == 1.0
        assert report.sup_residual == 1.0
        for _, bound in report.residual_eta_bounds:
            assert bound <= 1.0 + 1e-12

    def test_landweber_fixed_step_bound(self):
        report = check_admissibility(Landweber(20, 1.0), 1000, [1.0])
        assert report.sup_gamma_g <= 1.0

    @pytest.mark.parametrize("spec", [NuMethod(40), TSVD(0.3), SKMSE(0.5), Tikhonov(0.1)])
    def test_one_retention_row_per_report(self, spec, monkeypatch):
        # sup_gamma_g and the residual come from one retention row
        calls = []
        monkeypatch.setattr(filters, "two_term_iterates",
                            lambda *args: calls.append(args) or two_term_iterates(*args))
        report = check_admissibility(spec, 1000, [1.0, 2.0])
        assert len(calls) == isinstance(spec, NuMethod)
        lam = effective_shrinkage(spec)
        grid = np.append(np.linspace(0.0, 1.0, 1000), lam)
        res = np.abs(residual_values(spec, grid))
        assert report.sup_residual == float(np.max(res))
        assert report.sup_gamma_g == float(np.max(np.abs(retention_values(spec, grid))))
        assert report.residual_eta_bounds == [
            (eta, float(np.max(res * grid**eta)) / lam**eta) for eta in (1.0, 2.0)]

    def test_grid_size_minimum(self):
        with pytest.raises(InputError):
            check_admissibility(Tikhonov(0.1), 99, [1.0])

    def test_small_lambda_bounds_match_the_closed_form_supremum(self):
        # 1 - retention cancels here and reads 1.85 and 1.73e16; on [0, 1]
        # the supremum of lam / (g + lam) (g / lam)^eta sits at g = 1
        lam = 1e-17
        report = check_admissibility(Tikhonov(lam), 10_000, [1.0, 2.0])
        (_, d1), (_, d2) = report.residual_eta_bounds
        assert d1 == pytest.approx(1.0 / (1.0 + lam), rel=1e-12)
        assert d2 == pytest.approx(1.0 / (lam * (1.0 + lam)), rel=1e-12)

    def test_zero_shrinkage_rejected(self):
        # the D bounds divide by lam^eta; lam = 0 gave NaN instead of an error
        with pytest.raises(InputError, match="positive shrinkage parameter"):
            check_admissibility(SKMSE(0.0), 200, [1.0])


class TestQualification:
    def test_metadata_values(self):
        assert qualification(Tikhonov(0.1)) == 1.0
        assert qualification(IteratedTikhonov(5, 0.1)) == 5.0
        assert qualification(Landweber(3, 0.5)) == np.inf
        assert qualification(TSVD(0.2)) == np.inf
        assert qualification(NuMethod(4, nu=2.5)) == 2.5
