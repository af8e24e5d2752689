"""Executable closed forms and numeric equivalence checks.

These routines evaluate the exact risk expressions of the uniform-shrinkage
estimator, the admissibility threshold on ||mu_P||^2 / int k(x,x) dP, the
per-component shrinkage condition, and the two structural equivalences
(iterative vs. spectral coefficient paths; Gram-side vs. operator-side
estimates under the linear kernel), plus the lambda = c n^{-b} decay-rate
experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import as_rows
from .errors import InputError, require_positive
from .estimators import EstimatorConfig, iterated_tikhonov_weights, landweber_weights
from .estimators import nu_method_weights, spectral_weights
from .filters import Tikhonov
from .kernels import Linear, NormalizedGram, gram_matrix, normalize_gram
from .risk import risk_estimate
from .synthetic import MixtureParams, effective_components


def skmse_risk_difference_exact(
    c: float, b: float, n: int, mu_norm_sq: float, k_diag_mean: float
) -> float:
    """Exact excess risk of uniform shrinkage with lambda = c n^{-b}.

    Returns E||mu_check - mu||^2 - Delta, where Delta is the risk of the
    empirical estimator:

        [(n c^2 + c^2 + 2 c n^b) ||mu||^2 - (c^2 + 2 c n^b) int k dP]
        / [n (n^b + c)^2]

    Negative values mean shrinkage helps at this sample size.
    """
    _check_theorem1_parameters(c, b)
    if not n >= 1:
        raise InputError(f"need n >= 1, got {n}")
    if not 0 <= mu_norm_sq <= k_diag_mean:
        raise InputError("need 0 <= ||mu||^2 <= int k(x,x) dP (Cauchy-Schwarz)")
    nb = float(n) ** b
    numerator = math.fsum(
        [
            n * c * c * mu_norm_sq,
            c * c * mu_norm_sq,
            2.0 * c * nb * mu_norm_sq,
            -c * c * k_diag_mean,
            -2.0 * c * nb * k_diag_mean,
        ]
    )
    return numerator / (n * (nb + c) ** 2)


def shrinkage_helps(c: float, b: float, n: int, mu_norm_sq: float, k_diag_mean: float) -> bool:
    """The closed-form inequality: ||mu||^2 / int k dP < (c^2 + 2cn^b) / (nc^2 + c^2 + 2cn^b)."""
    nb = float(n) ** b
    return mu_norm_sq * (n * c * c + c * c + 2.0 * c * nb) < k_diag_mean * (
        c * c + 2.0 * c * nb
    )


def _check_theorem1_parameters(c: float, b: float) -> None:
    """lambda = c n^{-b} with a finite c > 0 and a finite b > 1."""
    if not (b > 1 and math.isfinite(b)):
        raise InputError(f"the bound requires a finite b > 1, got b = {b}")
    require_positive("c", c)


def theorem1_admissibility_bound(c: float, b: float) -> float:
    """Threshold A on ||mu||^2 / int k dP for uniform admissibility of
    lambda = c n^{-b} shrinkage:

        A = 2^{1/b} b / (2^{1/b} b + c^{1/b} (b-1)^{(b-1)/b}),  A in (0, 1).
    """
    _check_theorem1_parameters(c, b)
    two_b = 2.0 ** (1.0 / b)
    return two_b * b / (two_b * b + c ** (1.0 / b) * (b - 1.0) ** ((b - 1.0) / b))


def risk_ratio_infimum(c: float, b: float, grid_points: int = 4001) -> float:
    """Brute-force infimum over real x > 0 of
    (c^2 + 2 c x^b) / (x c^2 + c^2 + 2 c x^b).

    Independent oracle for :func:`theorem1_admissibility_bound`: coarse
    log-spaced scan followed by two local linear refinements.
    """
    _check_theorem1_parameters(c, b)

    def f(x: np.ndarray) -> np.ndarray:
        # (c^2 + 2c x^b) / (x c^2 + c^2 + 2c x^b) = 1 / (1 + q) with
        # q = x / (1 + (2/c) x^b), evaluated in log space to survive large b
        log_x = np.log(x)
        log_q = log_x - np.logaddexp(0.0, b * log_x + np.log(2.0 / c))
        return 1.0 / (1.0 + np.exp(log_q))

    lo, hi = 1e-8, 1e8
    xs = np.geomspace(lo, hi, grid_points)
    for _ in range(3):
        vals = f(xs)
        i = int(np.argmin(vals))
        lo = xs[max(i - 1, 0)]
        hi = xs[min(i + 1, xs.size - 1)]
        xs = np.linspace(lo, hi, grid_points)
    return float(f(xs).min())


def component_risk_difference(alpha: float, delta: float, f_star: float, mu: float) -> float:
    """Per-component excess risk of shrinking coefficient i by alpha toward
    f*_i: alpha^2 (Delta_i + (f*_i - mu_i)^2) - 2 alpha Delta_i.

    Negative exactly on the open interval 0 < alpha < 2 Delta / (Delta + (f*-mu)^2).
    """
    if not delta > 0:
        raise InputError("the per-component risk Delta must be positive")
    gap = f_star - mu
    return alpha * alpha * (delta + gap * gap) - 2.0 * alpha * delta


def component_shrinkage_upper(delta: float, f_star: float, mu: float) -> float:
    """Right endpoint 2 Delta / (Delta + (f* - mu)^2) of the helpful range."""
    gap = f_star - mu
    return 2.0 * delta / (delta + gap * gap)


def verify_spectral_equivalence(kbar: NormalizedGram, algo: str, t: int, lam: float = 0.1) -> float:
    """Max-abs difference between the iterative and spectral coefficient paths
    (the nu-method at nu = 1); iterated Tikhonov is solved by Cholesky at every
    lam, even below the floor where ``fit_spec`` would take the spectrum and
    compare it with itself."""
    if t == 0:
        return 0.0  # both paths are identically zero before the first step
    if algo == "landweber":
        iterative = landweber_weights(kbar, t)
    elif algo == "nu":
        iterative = nu_method_weights(kbar, t)
    elif algo == "itik":
        iterative = iterated_tikhonov_weights(kbar, t, lam)
    else:
        raise InputError(f"unknown iterative algorithm {algo!r}")
    gap = iterative.weights - spectral_weights(kbar, iterative.shrinkage).weights
    return float(np.abs(gap).max())


def verify_operator_equivalence(X, lam: float) -> float:
    """Pointwise agreement of the Gram-side and covariance-side estimates.

    Under the linear kernel the feature space is R^d: the operator-side
    estimate is w = C (C + lam I)^{-1} xbar with C = X^T X / n, evaluated at
    sample points as X w; the Gram side evaluates K beta with
    beta = g(K/n) (K/n) 1_n. Returns the max-abs difference over the sample.
    """
    rows = as_rows(X)
    n, d = rows.shape
    if d > 20 or n > 200:
        raise InputError("operator-side check is limited to d <= 20, n <= 200")
    gram = gram_matrix(rows, Linear())
    beta = spectral_weights(normalize_gram(gram), Tikhonov(lam)).weights
    gram_side = gram.values @ beta

    cov = rows.T @ rows / n
    xbar = rows.mean(axis=0)
    w = cov @ np.linalg.solve(cov + lam * np.eye(d), xbar)
    operator_side = rows @ w
    return float(np.abs(gram_side - operator_side).max())


# ---------------------------------------------------------------------------
# lambda = c n^{-b} rate experiment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RateExperimentConfig:
    """Grid of sample sizes for the shrinkage-decay experiment.

    ``smoothness_exponent`` is the decay exponent b in lambda = c n^{-b}
    (named to avoid clashing with weight vectors). The linear kernel uses
    the exact risk expressions; the RBF kernel falls back to Monte-Carlo.
    """

    c: float
    smoothness_exponent: float
    n_grid: tuple[int, ...]
    replications: int = 100
    kernel: str = "linear"
    d: int = 3
    seed: int = 0

    def __post_init__(self):
        require_positive("c", self.c)
        require_positive("the decay exponent b", self.smoothness_exponent)
        grid = tuple(int(v) for v in self.n_grid)
        if len(grid) < 2:
            raise InputError("need at least two grid points to fit a slope")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise InputError("n_grid must be strictly increasing")
        if grid[0] < 1:
            raise InputError(f"sample sizes must be at least 1, got {grid[0]}")
        if self.d < 1:
            raise InputError(f"the dimension d must be at least 1, got {self.d}")
        if self.kernel not in ("linear", "rbf"):
            raise InputError("kernel must be 'linear' or 'rbf'")
        object.__setattr__(self, "n_grid", grid)


@dataclass(frozen=True)
class RatePoint:
    n: int
    risk: float
    stderr: float
    kme_risk: float


@dataclass(frozen=True)
class RateResult:
    points: list[RatePoint]
    slope: float


def standard_gaussian_params(d: int) -> MixtureParams:
    """Single standard normal component, no extra noise."""
    return MixtureParams(
        weights=np.asarray([1.0]),
        means=np.zeros((1, d)),
        covariances=np.eye(d)[None, :, :],
        noise_var=0.0,
    )


def linear_kernel_moments(params: MixtureParams) -> tuple[float, float]:
    """(||mu_P||^2, int k(x,x) dP) under the linear kernel, exactly."""
    folded = effective_components(params)
    mean = folded.weights @ folded.means
    mu_norm_sq = float(mean @ mean)
    traces = np.trace(folded.covariances, axis1=1, axis2=2)
    mean_sq = np.einsum("kj,kj->k", folded.means, folded.means)
    k_diag = float(folded.weights @ (traces + mean_sq))
    return mu_norm_sq, k_diag


def rate_experiment(
    config: RateExperimentConfig, params: MixtureParams | None = None
) -> RateResult:
    """Risk of the uniform-shrinkage estimator with lambda = c n^{-b} on a
    grid of sample sizes, plus the fitted log-log slope.

    Linear kernel: exact risk
        (n^b / (n^b + c))^2 Delta + (c / (n^b + c))^2 ||mu||^2,
    with Delta = (int k dP - ||mu||^2)/n the empirical estimator's risk
    (reported alongside as ``kme_risk``). RBF kernel: Monte-Carlo through the
    replication harness.
    """
    c = config.c
    b = config.smoothness_exponent
    points: list[RatePoint] = []
    if config.kernel == "linear":
        mixture = params if params is not None else standard_gaussian_params(config.d)
        mu_norm_sq, k_diag = linear_kernel_moments(mixture)
        for n in config.n_grid:
            delta = (k_diag - mu_norm_sq) / n
            nb = float(n) ** b
            risk = (nb / (nb + c)) ** 2 * delta + (c / (nb + c)) ** 2 * mu_norm_sq
            points.append(RatePoint(n=n, risk=risk, stderr=0.0, kme_risk=delta))
    else:
        for n in config.n_grid:
            lam = c * float(n) ** (-b)
            report, kme = risk_estimate(
                [EstimatorConfig("skmse", selection="none", lam=lam), EstimatorConfig("kme")],
                n=n,
                d=config.d,
                m=config.replications,
                seed=config.seed,
            )
            points.append(
                RatePoint(n=n, risk=report.mean_loss, stderr=report.stderr,
                          kme_risk=kme.mean_loss)
            )
    logs_n = np.log([p.n for p in points])
    logs_r = np.log([p.risk for p in points])
    slope = float(np.polyfit(logs_n, logs_r, 1)[0])
    return RateResult(points=points, slope=slope)
