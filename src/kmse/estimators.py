"""Weight vectors for every kernel mean estimator.

An estimate is Sum_i beta_i k(x_i, .). The empirical estimator uses the
uniform vector 1_n = [1/n, ..., 1/n]; shrinkage estimators produce

    beta = g(Kbar) Kbar 1_n,      Kbar = K / n,

either through the spectral closed form (the canonical path) or through the
iterative updates the filters correspond to. Iterative and spectral paths
agree to machine precision and are tested against each other. The shrinkage
target is the zero function throughout, i.e. all iterations start at
beta = 0.

``ESTIMATORS`` registers every estimator with its selection rules, its fixed
spec and its candidate ladder; ``fit_spec`` turns any spec into weights.

An iterated Tikhonov spec with lam >= RESOLVENT_MIN_LAMBDA * kappa^2 is t
Cholesky solves on one factor of Kbar + lam I; below that floor the solves
lose digits to the conditioning of Kbar + lam I, so it goes through the
spectrum. The floor alone picks the path, whatever the selection rule.
``fit_fixed`` fits a spec chosen without selection: above the floor a
Tikhonov spec is one such solve, so no eigendecomposition is made; it agrees
with the spectral path to about 1e-12 relative. A selected spec is fitted by
``fit_spec``: a selected Tikhonov or TSVD spec is applied to the spectrum its
selector has already built, and Landweber and nu specs run their iterations
on Kbar.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset, as_rows
from .errors import ConfigurationError, InputError
from .filters import (
    FilterSpec,
    Landweber,
    NuMethod,
    IteratedTikhonov,
    SKMSE,
    TSVD,
    Tikhonov,
    retention_values,
    two_term_iterates,
    two_term_steps,
)
from .kernels import KernelSpec, NormalizedGram, cross_kernel
from .linalg import spd_factor

STEP_SIZE_SLACK = 1e-12
DIVERGENCE_FACTOR = 1e6
#: Smallest lam / kappa^2 at which iterated Tikhonov and fixed Tikhonov fits
#: go through Cholesky solves; below it their error grows like 1/lam
#: (TestFitFixed in tests/test_estimators.py measures it).
RESOLVENT_MIN_LAMBDA = 1e-3


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Length-n coefficients defining an estimate Sum_i beta_i k(x_i, .)."""

    weights: np.ndarray
    estimator_id: str
    shrinkage: FilterSpec | None = None

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1:
            raise InputError("weights must be a 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InputError("weights contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)


class EstimatorKind(NamedTuple):
    """The filter family an estimator fits (None for the empirical mean), the
    selection rules it accepts (the first is its default), the spec it fits
    under selection "none", ``fixed(config, kappa_sq)``, and the ordered
    candidates the other rules choose from, ``ladder(config, kbar)``, where
    ``config`` is a ``risk.EstimatorConfig``. Each row builds its own specs;
    LOOCV and the oracle rule (fitting none) score that ladder; GCV picks from it."""

    spec_type: type | None
    selections: tuple[str, ...]
    fixed: Callable | None = None
    ladder: Callable | None = None


def _grid(config) -> list[float]:
    """The lambda candidates of ``config``, in grid order."""
    if len(config.lambda_grid) == 0:
        raise InputError("lambda grid is empty")
    return [float(lam) for lam in config.lambda_grid]


def _counts(config) -> range:
    """The iteration-count candidates of ``config``: 1..t_max."""
    if config.t_max < 1:
        raise InputError("t_max must be at least 1")
    return range(1, config.t_max + 1)


def tsvd_ladder(kbar: NormalizedGram) -> tuple[TSVD, ...]:
    """Candidates of TSVD: the distinct positive eigenvalues of K/n, descending."""
    gammas = kbar.spectrum.eigenvalues
    ladder = tuple(TSVD(g) for g in dict.fromkeys(float(g) for g in gammas if g > 0))
    if not ladder:
        raise InputError("normalized Gram matrix has no positive eigenvalues")
    return ladder


_LAMBDA_RULES = ("loocv", "none", "oracle")

#: Every estimator by name, in report order.
ESTIMATORS: dict[str, EstimatorKind] = {
    "kme": EstimatorKind(None, ("none",)),
    "skmse": EstimatorKind(
        SKMSE, _LAMBDA_RULES, lambda c, kappa_sq: SKMSE(c.lam),
        lambda c, kbar: tuple(SKMSE(lam) for lam in _grid(c))),
    "tikhonov": EstimatorKind(
        Tikhonov, _LAMBDA_RULES, lambda c, kappa_sq: Tikhonov(c.lam),
        lambda c, kbar: tuple(Tikhonov(lam) for lam in _grid(c))),
    "landweber": EstimatorKind(
        Landweber, _LAMBDA_RULES, lambda c, kappa_sq: Landweber(c.iters, 1.0 / kappa_sq),
        lambda c, kbar: tuple(Landweber(t, 1.0 / kbar.kappa_sq) for t in _counts(c))),
    "nu": EstimatorKind(
        NuMethod, _LAMBDA_RULES, lambda c, kappa_sq: NuMethod(c.iters, c.nu, 1.0 / kappa_sq),
        lambda c, kbar: tuple(NuMethod(t, c.nu, 1.0 / kbar.kappa_sq) for t in _counts(c))),
    "itik": EstimatorKind(
        IteratedTikhonov, _LAMBDA_RULES, lambda c, kappa_sq: IteratedTikhonov(c.itik_iters, c.lam),
        lambda c, kbar: tuple(IteratedTikhonov(c.itik_iters, lam) for lam in _grid(c))),
    "tsvd": EstimatorKind(
        TSVD, ("gcv", "none", "oracle"), lambda c, kappa_sq: TSVD(c.lam),
        lambda c, kbar: tsvd_ladder(kbar)),
}
_FILTER_IDS = {kind.spec_type: name for name, kind in ESTIMATORS.items()}


def empirical_kme_weights(n: int) -> WeightVector:
    """Uniform weights 1/n of the empirical kernel mean."""
    if n < 1:
        raise InputError("n must be at least 1")
    return WeightVector(np.full(n, 1.0 / n), "kme", None)


def skmse_weights(n: int, lam: float) -> WeightVector:
    """Uniform shrinkage toward zero: constant weights 1 / (n (1 + lambda))."""
    spec = SKMSE(lam)
    if n < 1:
        raise InputError("n must be at least 1")
    return WeightVector(np.full(n, 1.0 / (n * (1.0 + lam))), "skmse", spec)


def _validate_step(spec: FilterSpec, kappa_sq: float) -> None:
    if isinstance(spec, Landweber) and spec.eta * kappa_sq > 1.0 + STEP_SIZE_SLACK:
        raise ConfigurationError(
            f"Landweber step size {spec.eta} exceeds 1/kappa^2 = {1.0 / kappa_sq}"
        )
    if isinstance(spec, NuMethod) and spec.eta_bar * kappa_sq > 1.0 + STEP_SIZE_SLACK:
        raise ConfigurationError(
            f"accelerated step scale {spec.eta_bar} exceeds 1/kappa^2 = {1.0 / kappa_sq}"
        )


def spectral_weights(kbar: NormalizedGram, spec: FilterSpec) -> WeightVector:
    """Canonical spectral path: beta = U diag(g(gamma) gamma) U^T 1_n.

    Eigenvalues are clamped at zero before the filter is applied; retention
    factors are evaluated in closed form so near-null components stay finite.
    """
    _validate_step(spec, kbar.kappa_sq)
    eig = kbar.spectrum
    gammas = np.clip(eig.eigenvalues, 0.0, None)
    kept = retention_values(spec, gammas)
    ones = np.full(kbar.n, 1.0 / kbar.n)
    beta = eig.eigenvectors @ (kept * (eig.eigenvectors.T @ ones))
    return WeightVector(beta, _FILTER_IDS[type(spec)], spec)


def _target(kbar_values: np.ndarray) -> np.ndarray:
    # Kbar 1_n with 1_n = [1/n, ..., 1/n]
    return kbar_values.mean(axis=1)


def _guard(beta: np.ndarray, n: int) -> None:
    # beta is one length-n weight vector, or one per column; no column may
    # have a norm above DIVERGENCE_FACTOR / sqrt(n), compared squared
    _guard_norms(beta @ beta if beta.ndim == 1 else np.einsum("ij,ij->j", beta, beta), n)


def _guard_norms(sq_norms: np.ndarray, n: int) -> None:
    # squared weight norms above DIVERGENCE_FACTOR^2 / n, NaN or inf fail
    if not np.all(sq_norms <= DIVERGENCE_FACTOR**2 / n):
        raise ConfigurationError(
            "iteration diverged (weights exceeded guard); step size too large"
        )


def two_term_path(kbar_values: np.ndarray, coefficients) -> np.ndarray:
    """Iterates beta^1..beta^T of the two-term recursion on K/n toward
    Kbar 1_n, one per (omega, kappa) pair, shape (T, n); every iterate must
    pass the divergence guard."""
    n = kbar_values.shape[0]
    path = np.empty((len(coefficients), n))
    iterates = two_term_iterates(coefficients, _target(kbar_values), kbar_values.__matmul__)
    for step, beta in enumerate(iterates):
        _guard(beta, n)
        path[step] = beta
    return path


def landweber_path(
    kbar_values: np.ndarray, t_max: int, eta: float
) -> np.ndarray:
    """Gradient-descent iterates beta^1..beta^t_max, shape (t_max, n)."""
    return two_term_path(kbar_values, two_term_steps(Landweber(t_max, eta)))


def nu_method_path(
    kbar_values: np.ndarray, t_max: int, nu: float, eta_bar: float
) -> np.ndarray:
    """Accelerated two-term iterates beta^1..beta^t_max, shape (t_max, n)."""
    return two_term_path(kbar_values, two_term_steps(NuMethod(t_max, nu, eta_bar)))


def landweber_weights(
    kbar: NormalizedGram, t: int, eta: float | None = None
) -> WeightVector:
    """Run t gradient steps from beta = 0; eta defaults to 1/kappa^2."""
    spec = Landweber(iters=t, eta=1.0 / kbar.kappa_sq if eta is None else eta)
    _validate_step(spec, kbar.kappa_sq)
    path = landweber_path(kbar.matrix.values, t, spec.eta)
    return WeightVector(path[-1], "landweber", spec)


def nu_method_weights(kbar: NormalizedGram, t: int, nu: float = 1.0) -> WeightVector:
    """Accelerated gradient iteration; the step is scaled by 1/kappa^2."""
    return fit_spec(kbar, NuMethod(iters=t, nu=nu, eta_bar=1.0 / kbar.kappa_sq))


def iterated_tikhonov_weights(kbar: NormalizedGram, t: int, lam: float) -> WeightVector:
    """Solve (Kbar + lam I) beta_s = Kbar 1_n + lam beta_{s-1} from beta_0 = 0,
    all t solves on one Cholesky factor of Kbar + lam I."""
    spec = IteratedTikhonov(iters=t, lam=lam)
    target = _target(kbar.matrix.values)
    factor = spd_factor(kbar.matrix, lam)
    beta = np.zeros(kbar.n)
    for _ in range(t):
        beta = factor.solve(target + lam * beta)
    return WeightVector(beta, "itik", spec)


def tsvd_weights(kbar: NormalizedGram, threshold: float) -> WeightVector:
    """Keep spectral components with gamma >= threshold, invert them exactly."""
    return spectral_weights(kbar, TSVD(threshold))


def fit_spec(kbar: NormalizedGram, spec: FilterSpec) -> WeightVector:
    """Weights of one filter spec on K/n, each family by its own arithmetic.

    Tikhonov and TSVD go through the spectrum of K/n (``spectral_weights``),
    which selected fits have already built. Iterated Tikhonov makes its t
    solves on one Cholesky factor of K/n + lam I when lam >=
    RESOLVENT_MIN_LAMBDA * kappa^2, with no spectrum, and goes through the
    spectrum below that floor. Landweber and the nu-method run at the step
    their spec carries, which must not exceed 1/kappa^2 of ``kbar``.
    """
    if isinstance(spec, SKMSE):
        return skmse_weights(kbar.n, spec.lam)
    if isinstance(spec, Landweber):
        return landweber_weights(kbar, spec.iters, spec.eta)
    if isinstance(spec, NuMethod):
        _validate_step(spec, kbar.kappa_sq)
        path = nu_method_path(kbar.matrix.values, spec.iters, spec.nu, spec.eta_bar)
        return WeightVector(path[-1], "nu", spec)
    if isinstance(spec, IteratedTikhonov) and spec.lam >= RESOLVENT_MIN_LAMBDA * kbar.kappa_sq:
        return iterated_tikhonov_weights(kbar, spec.iters, spec.lam)
    return spectral_weights(kbar, spec)


def fit_fixed(kbar: NormalizedGram, spec: FilterSpec) -> WeightVector:
    """Weights of a spec fitted without parameter selection.

    A Tikhonov spec with lam >= RESOLVENT_MIN_LAMBDA * kappa^2 is iterated
    Tikhonov with one solve, on a Cholesky factor of Kbar + lam I, with no
    eigendecomposition; every other spec goes to ``fit_spec``. The path
    depends on the spec alone, never on whether the spectrum is cached.
    """
    if isinstance(spec, Tikhonov) and spec.lam >= RESOLVENT_MIN_LAMBDA * kbar.kappa_sq:
        return WeightVector(iterated_tikhonov_weights(kbar, 1, spec.lam).weights, "tikhonov", spec)
    return fit_spec(kbar, spec)


def _rows_and_weights(
    X: Dataset | np.ndarray, beta: WeightVector | np.ndarray, d: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The sample's rows and one weight per row; the rows must have dimension
    ``d`` when it is given."""
    rows = as_rows(X)
    weights = beta.weights if isinstance(beta, WeightVector) else np.asarray(beta, float)
    if weights.shape != (rows.shape[0],):
        raise InputError(f"weights of shape {weights.shape} for {rows.shape[0]} points")
    if d is not None and d != rows.shape[1]:
        raise InputError(f"model dimension {d} != data dimension {rows.shape[1]}")
    return rows, weights


def evaluate_estimate(
    points: Dataset | np.ndarray,
    beta: WeightVector | np.ndarray,
    spec: KernelSpec,
    query: np.ndarray,
) -> float:
    """Evaluate Sum_i beta_i k(x_i, query)."""
    rows, weights = _rows_and_weights(points, beta)
    q = np.asarray(query, dtype=float).reshape(1, -1)
    if q.shape[1] != rows.shape[1]:
        raise InputError(f"query dimension {q.shape[1]} != data dimension {rows.shape[1]}")
    return float(cross_kernel(spec, rows, q)[:, 0] @ weights)
