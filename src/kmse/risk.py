"""Closed-form loss against Gaussian mixtures and the replication harness.

For the Gaussian RBF kernel k(x, y) = exp(-||x - y||^2 / (2 sigma^2)) and a
mixture P = sum_j pi_j N(theta_j, Sigma_j) (noise already folded into the
components), the squared RKHS distance between an estimate
sum_i beta_i k(x_i, .) and the mean element of P expands into

    L(beta) = beta^T K beta - 2 sum_i beta_i z_i + ||mu_P||^2,

with the two Gaussian integrals

    z_i        = sum_j pi_j (sigma^2)^{d/2} det(Sigma_j + sigma^2 I)^{-1/2}
                 exp(-(x_i - theta_j)^T (Sigma_j + sigma^2 I)^{-1} (x_i - theta_j) / 2)
    ||mu_P||^2 = sum_{j,l} pi_j pi_l (sigma^2)^{d/2} det(Sigma_j + Sigma_l + sigma^2 I)^{-1/2}
                 exp(-Delta^T (Sigma_j + Sigma_l + sigma^2 I)^{-1} Delta / 2)

(both via the Gaussian convolution identity; validated against Monte-Carlo
oracles in the test suite before any benchmark relies on them). Both are one
integral, ``_gaussian_inners``: ||mu_P||^2 evaluates it at x = theta_j with
mean theta_l and covariance Sigma_j + Sigma_l. Determinants and quadratic
forms come from ``synthetic.psd_eigh`` factors, so rank-deficient covariances
are handled symmetrically; z reads the factors the mixture already holds.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .data import as_rows
from .errors import InputError, KmseError, ReplicationError, require_positive
from .estimators import ESTIMATORS, WeightVector, _rows_and_weights, empirical_kme_weights
from .estimators import fit_fixed, fit_spec
from .filters import default_lambda_grid
from .kernels import (
    GaussianRBF,
    KernelSpec,
    NormalizedGram,
    gram_matrix,
    median_heuristic_bandwidth,
    normalize_gram,
)
from .selection import select
from .synthetic import (
    MixtureParams,
    RngStream,
    draw_mixture_params,
    effective_components,
    psd_eigh,
    sample_mixture,
)


def _gaussian_inners(X: np.ndarray, theta: np.ndarray, factor: tuple, sigma_sq: float):
    """E_{y ~ N(theta, Sigma)} k(x_i, y) for every row x_i of a 2-d X, with
    Sigma given by its ``psd_eigh`` factor."""
    require_positive("sigma_sq", sigma_sq)
    evals, evecs = factor
    denom = evals + sigma_sq
    log_pref = 0.5 * float(np.sum(np.log(sigma_sq / denom)))
    Y = (X - theta) @ evecs
    quad = (Y**2 / denom).sum(axis=1)
    return np.exp(log_pref - 0.5 * quad)


def component_mean_inners(
    X: np.ndarray, theta: np.ndarray, sigma: np.ndarray, sigma_sq: float
) -> np.ndarray:
    """E_{y ~ N(theta, Sigma)} k(x_i, y) for every row x_i, vectorized."""
    return _gaussian_inners(np.atleast_2d(X), theta, psd_eigh(sigma), sigma_sq)


def kernel_mean_inner(
    x: np.ndarray, theta: np.ndarray, sigma: np.ndarray, sigma_sq: float
) -> float:
    """Closed form of int k(x, y) N(y; theta, Sigma) dy; always in (0, 1]."""
    return float(
        component_mean_inners(
            np.asarray(x, float).reshape(1, -1), np.asarray(theta, float), sigma, sigma_sq
        )[0]
    )


def _require_folded(params: MixtureParams) -> None:
    if params.noise_var != 0:
        raise InputError("fold the noise into the components first (effective_components)")


def mixture_mean_inners(
    X: np.ndarray, params: MixtureParams, sigma_sq: float
) -> np.ndarray:
    """z_i = <k(x_i, .), mu_P> for every row, mixing over components (noise
    folded)."""
    _require_folded(params)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros(X.shape[0])
    for pi_j, theta, factor in zip(params.weights, params.means, params.factors):
        out += pi_j * _gaussian_inners(X, theta, factor, sigma_sq)
    return out


def mixture_mean_sq_norm(params: MixtureParams, sigma_sq: float) -> float:
    """||mu_P||^2 for a Gaussian mixture under the RBF kernel (noise folded)."""
    _require_folded(params)
    k = params.k
    total = 0.0
    for j in range(k):
        for l in range(j, k):
            factor = psd_eigh(params.covariances[j] + params.covariances[l])
            inner = _gaussian_inners(params.means[j : j + 1], params.means[l], factor, sigma_sq)
            term = params.weights[j] * params.weights[l] * inner[0]
            total += term if j == l else 2.0 * term
    return float(total)


def _rkhs_loss(w: np.ndarray, K: np.ndarray, z: np.ndarray, mu_sq_norm: float) -> float:
    """L(w) = w^T K w - 2 w^T z + ||mu_P||^2."""
    return float(w @ K @ w - 2.0 * (w @ z) + mu_sq_norm)


def loss(
    beta: WeightVector | np.ndarray,
    X,
    params: MixtureParams,
    spec: KernelSpec,
) -> float:
    """Squared RKHS distance between the weighted estimate and the mean of P."""
    if not isinstance(spec, GaussianRBF):
        raise InputError("the analytic loss requires the Gaussian RBF kernel")
    rows, w = _rows_and_weights(X, beta)
    K = gram_matrix(rows, spec).values
    z = mixture_mean_inners(rows, params, spec.bandwidth_sq)
    return _rkhs_loss(w, K, z, mixture_mean_sq_norm(params, spec.bandwidth_sq))


# ---------------------------------------------------------------------------
# Replication harness
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator plus how its shrinkage parameter is chosen.

    ``selection``: "none" (fit the fixed parameters below), "loocv", "gcv",
    "oracle" (minimize the true analytic loss over the candidates; only
    available inside the synthetic harness), or "default".
    ``estimators.ESTIMATORS`` lists the rules each estimator accepts, its
    default first (loocv for lambda and iteration methods, gcv for tsvd, none
    for kme); any other pair raises.

    Under "none", ``lam`` is the lambda of skmse, tikhonov and itik and the
    threshold of tsvd, and ``iters`` is the iteration count of landweber and
    nu. The other rules choose lambda from ``lambda_grid`` and the iteration
    count from 1..``t_max``. Every rule fits itik with ``itik_iters`` solves
    and the nu-method with qualification ``nu``.
    """

    name: str
    selection: str = "default"
    lam: float = 0.1
    iters: int = 10
    nu: float = 1.0
    itik_iters: int = 3
    t_max: int = 50
    lambda_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(default_lambda_grid())
    )

    def __post_init__(self):
        if self.name not in ESTIMATORS:
            raise InputError(f"unknown estimator {self.name!r}")
        rules = ESTIMATORS[self.name].selections
        if self.selection not in rules + ("default",):
            raise InputError(
                f"selection {self.selection!r} is not available for {self.name}; "
                f"choose one of {', '.join(rules)}"
            )

    def resolved_selection(self) -> str:
        if self.selection == "default":
            return ESTIMATORS[self.name].selections[0]
        return self.selection


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Monte-Carlo risk of one estimator: mean loss and its standard error."""

    estimator_id: str
    mean_loss: float
    stderr: float


def improvement_percent(risk_base: float, risk_est: float) -> float:
    """100 (R - R_lambda) / R: positive when the estimator beats the baseline."""
    return 100.0 * (risk_base - risk_est) / risk_base


def fit_weights(
    config: EstimatorConfig,
    X: np.ndarray,
    kspec: KernelSpec,
    kbar: NormalizedGram | None = None,
    truth: tuple[np.ndarray, float] | None = None,
) -> WeightVector:
    """Fit one estimator on a sample, running its parameter selection.

    "none" fits the estimator's ``fixed`` spec with ``estimators.fit_fixed``,
    which solves a Tikhonov spec with lam >= RESOLVENT_MIN_LAMBDA * kappa^2 on
    one Cholesky factor instead of an eigendecomposition. Any other rule has
    ``selection.select`` pick an entry of its ``ladder`` (the "oracle" rule
    against ``truth`` = (z, ||mu_P||^2)) and ``estimators.fit_spec`` fits it;
    that floor alone sends an iterated Tikhonov spec to Cholesky or the spectrum.
    The path depends on the rule and the spec alone, so a fit's bits never
    depend on what another estimator cached on ``kbar``.
    ``kbar`` is K/n of ``X`` under ``kspec``; it is built when not given
    (kme's uniform weights need neither).
    """
    kind = ESTIMATORS[config.name]
    if kind.spec_type is None:
        return empirical_kme_weights(as_rows(X).shape[0])
    if kbar is None:
        kbar = normalize_gram(gram_matrix(X, kspec))
    selection = config.resolved_selection()
    if selection == "none":
        return fit_fixed(kbar, kind.fixed(config, kbar.kappa_sq))
    return fit_spec(kbar, select(selection, kbar, kind.ladder(config, kbar), truth).chosen)


def _worker_count() -> int:
    raw = os.environ.get("KMSE_THREADS", "1")
    try:
        count = int(raw)
    except ValueError:
        count = 0
    if count < 1:
        raise InputError(f"KMSE_THREADS must be a positive integer, got {raw!r}")
    return count


def replication_losses(
    configs: Sequence[EstimatorConfig],
    n: int,
    d: int,
    m: int,
    seed: int,
    redraw_params: bool = False,
    bandwidth: float | None = None,
) -> np.ndarray:
    """True analytic loss of every fitted estimator for replications 1..m.

    Returns an (m, len(configs)) array; column j belongs to ``configs[j]``.
    Replication r draws its sample from stream (seed, r); mixture parameters
    come from stream (seed, 0) once, or are redrawn per replication when
    ``redraw_params`` is set. Within a replication every estimator is fitted
    on the same sample, Gram matrix and K/n (so on one cached spectrum) and
    scored against the same ground truth, each built once. Results are
    independent of execution order and of which other configs are fitted.
    """
    configs = tuple(configs)
    if m < 1:
        raise InputError("need at least one replication")
    workers = _worker_count()
    base_params = base_folded = None
    if not redraw_params:
        base_params = draw_mixture_params(d, RngStream(seed, 0))
        base_folded = effective_components(base_params)

    def one(r: int) -> list[float]:
        estimator = None  # names the fit that fails; None in the shared steps
        try:
            gen = RngStream(seed, r).generator()
            if redraw_params:
                params = draw_mixture_params(d, gen)
                folded = effective_components(params)
            else:
                params, folded = base_params, base_folded
            X = sample_mixture(params, n, gen).rows
            sigma_sq = bandwidth if bandwidth is not None else median_heuristic_bandwidth(X)
            kspec = GaussianRBF(sigma_sq)
            gram = gram_matrix(X, kspec)
            kbar = normalize_gram(gram)
            K = gram.values
            truth = (mixture_mean_inners(X, folded, sigma_sq),
                     mixture_mean_sq_norm(folded, sigma_sq))
            losses = []
            for config in configs:
                estimator = config.name
                wv = fit_weights(config, X, kspec, kbar, truth=truth)
                losses.append(_rkhs_loss(wv.weights, K, *truth))
            return losses
        except KmseError as exc:
            raise ReplicationError(r, exc, estimator) from exc

    if workers == 1:
        return np.asarray([one(r) for r in range(1, m + 1)])
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return np.asarray(list(pool.map(one, range(1, m + 1))))


def risk_estimate(
    configs: Sequence[EstimatorConfig],
    n: int,
    d: int,
    m: int,
    seed: int,
    redraw_params: bool = False,
    bandwidth: float | None = None,
) -> list[RiskReport]:
    """Approximate each estimator's risk by averaging over m shared replications.

    Returns one report per config, in order.
    """
    if m < 2:
        raise InputError("risk estimation needs at least two replications")
    configs = tuple(configs)
    losses = replication_losses(
        configs, n, d, m, seed, redraw_params=redraw_params, bandwidth=bandwidth
    )
    return [
        RiskReport(
            estimator_id=config.name,
            mean_loss=float(column.mean()),
            stderr=float(column.std(ddof=1) / np.sqrt(m)),
        )
        for config, column in zip(configs, losses.T)
    ]
