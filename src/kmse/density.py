"""Density estimation by kernel mean matching.

Fits an isotropic Gaussian mixture Q = sum_j pi_j N(theta_j, s_j^2 I) to a
target kernel mean estimate sum_i beta_i k(x_i, .) by minimizing the squared
RKHS distance ||mu_Q - mu_hat||^2 under the RBF kernel. The simplex and
positivity constraints are handled by reparameterization (softmax for pi,
variance floor plus exponential for s^2), so plain gradient descent with a
backtracking line search applies. Models are scored by held-out average
negative log-likelihood.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .data import Dataset, as_rows
from .errors import ConvergenceError, InputError
from .estimators import WeightVector, _rows_and_weights
from .kernels import GaussianRBF, cross_kernel
from .synthetic import RngStream, as_generator

VARIANCE_FLOOR = 1e-6
WEIGHT_FLOOR = 1e-3
#: ``kmm_fit`` stops once a step lowers the objective by less than this share.
REL_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class MixtureModel:
    """Isotropic Gaussian mixture: weights on the simplex, per-component
    scalar variances floored at VARIANCE_FLOOR."""

    weights: np.ndarray  # (r,)
    means: np.ndarray  # (r, d)
    variances: np.ndarray  # (r,)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        var = np.asarray(self.variances, dtype=float)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InputError("mixture weights must be non-negative and sum to 1")
        if mu.ndim != 2 or w.shape[0] != mu.shape[0] or var.shape != w.shape:
            raise InputError("inconsistent mixture model shapes")
        if np.any(var < VARIANCE_FLOOR * (1 - 1e-12)):
            raise InputError(f"variances must be at least {VARIANCE_FLOOR}")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    @property
    def r(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


# ---------------------------------------------------------------------------
# K-means initialization
# ---------------------------------------------------------------------------


def _lloyd(rows: np.ndarray, centers: np.ndarray, max_iter: int = 100):
    n = rows.shape[0]
    assign = np.full(n, -1)
    for _ in range(max_iter):
        dist = cdist(rows, centers, "sqeuclidean")
        new_assign = dist.argmin(axis=1)
        reseeded: list[int] = []
        for j in range(centers.shape[0]):
            mask = new_assign == j
            if not np.any(mask):
                # re-seed an empty cluster to the farthest point not already
                # claimed by another re-seed this sweep (deterministic rule)
                order = np.argsort(-dist.min(axis=1))
                far = next(int(i) for i in order if int(i) not in reseeded)
                reseeded.append(far)
                centers[j] = rows[far]
                new_assign[far] = j
                mask = new_assign == j
            centers[j] = rows[mask].mean(axis=0)
        if np.array_equal(new_assign, assign):
            break
        assign = new_assign
    dist = cdist(rows, centers, "sqeuclidean")
    assign = dist.argmin(axis=1)
    wcss = float(dist[np.arange(n), assign].sum())
    return centers, assign, wcss


def kmeans_init(
    data: Dataset | np.ndarray,
    r: int,
    restarts: int,
    rng: RngStream | np.random.Generator,
) -> MixtureModel:
    """Best-of-``restarts`` Lloyd's algorithm, converted to an isotropic mixture.

    Component weights are cluster fractions floored at 1e-3 and renormalized;
    variances are the mean within-cluster squared deviation divided by d.
    """
    rows = as_rows(data)
    n, d = rows.shape
    if r < 1 or restarts < 1:
        raise InputError("component count and restarts must be positive")
    if n < r:
        raise InputError(f"need at least {r} rows to fit {r} clusters")
    gen = as_generator(rng)
    best = None
    for _ in range(restarts):
        seeds = gen.choice(n, size=r, replace=False)
        centers, assign, wcss = _lloyd(rows, rows[seeds].copy())
        if best is None or wcss < best[2]:
            best = (centers, assign, wcss)
    centers, assign, _ = best
    weights = np.array([(assign == j).sum() / n for j in range(r)])
    weights = np.maximum(weights, WEIGHT_FLOOR)
    weights /= weights.sum()
    variances = np.empty(r)
    for j in range(r):
        mask = assign == j
        spread = ((rows[mask] - centers[j]) ** 2).sum(axis=1).mean() if mask.any() else 0.0
        variances[j] = max(spread / d, VARIANCE_FLOOR)
    return MixtureModel(weights=weights, means=centers, variances=variances)


# ---------------------------------------------------------------------------
# Kernel mean matching objective
# ---------------------------------------------------------------------------


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max()
    e = np.exp(shifted)
    return e / e.sum()


def _pack(model: MixtureModel) -> np.ndarray:
    logits = np.log(np.maximum(model.weights, 1e-300))
    rho = np.log(np.maximum(model.variances - VARIANCE_FLOOR, 1e-12))
    return np.concatenate([logits, rho, model.means.ravel()])


def _unpack(vec: np.ndarray, r: int, d: int) -> MixtureModel:
    logits = vec[:r]
    rho = vec[r : 2 * r]
    means = vec[2 * r :].reshape(r, d)
    return MixtureModel(
        weights=_softmax(logits),
        means=means,
        variances=VARIANCE_FLOOR + np.exp(rho),
    )


def _value_and_grad(
    vec: np.ndarray,
    rows: np.ndarray,
    beta: np.ndarray,
    sigma_sq: float,
    r: int,
    d: int,
    quad_const: float,
):
    """KMM objective and its gradient in the packed parameterization."""
    logits = vec[:r]
    rho = vec[r : 2 * r]
    theta = vec[2 * r :].reshape(r, d)
    pi = _softmax(logits)
    s2 = VARIANCE_FLOOR + np.exp(rho)

    u = s2 + sigma_sq  # (r,)
    d2x = cdist(rows, theta, "sqeuclidean")  # (n, r)
    bmat = (sigma_sq / u) ** (d / 2.0) * np.exp(-d2x / (2.0 * u))  # (n, r)

    s = s2[:, None] + s2[None, :] + sigma_sq  # (r, r)
    d2t = cdist(theta, theta, "sqeuclidean")
    cmat = (sigma_sq / s) ** (d / 2.0) * np.exp(-d2t / (2.0 * s))

    cross = beta @ bmat  # (r,)
    value = float(pi @ cmat @ pi - 2.0 * pi @ cross + quad_const)

    # pi gradient, chained through the softmax
    dpi = 2.0 * (cmat @ pi) - 2.0 * cross
    dlogits = pi * (dpi - float(pi @ dpi))

    # means
    cpi = cmat * pi[None, :]  # c_{jl} pi_l
    diff = theta[:, None, :] - theta[None, :, :]  # theta_j - theta_l
    grad_theta_pairs = -2.0 * pi[:, None] * np.einsum("jl,jlk->jk", cpi / s, diff)
    wb = beta[:, None] * bmat  # (n, r)
    # sum_i beta_i b_ij (x_i - theta_j), shape (d, r)
    moment = rows.T @ wb - theta.T * wb.sum(axis=0)[None, :]
    grad_theta_data = -2.0 * (pi / u)[:, None] * moment.T
    grad_theta = grad_theta_pairs + grad_theta_data

    # variances
    pair_term = cpi * (-d / (2.0 * s) + d2t / (2.0 * s * s))
    ds2_pairs = 2.0 * pi * pair_term.sum(axis=1)
    data_term = wb * (-d / (2.0 * u) + d2x / (2.0 * u * u))
    ds2_data = -2.0 * pi * data_term.sum(axis=0)
    drho = (ds2_pairs + ds2_data) * (s2 - VARIANCE_FLOOR)

    grad = np.concatenate([dlogits, drho, grad_theta.ravel()])
    return value, grad


def kmm_objective(
    model: MixtureModel,
    target_beta: WeightVector | np.ndarray,
    X: Dataset | np.ndarray,
    sigma_sq: float,
) -> float:
    """||mu_Q - sum_i beta_i k(x_i,.)||^2 under the RBF kernel with bandwidth
    sigma_sq. ``_value_and_grad`` computes it with its own closed forms of the
    Gaussian integrals for isotropic components, together with the gradient."""
    rows, beta = _rows_and_weights(X, target_beta, model.d)
    quad = _beta_quad(rows, beta, sigma_sq)
    value, _ = _value_and_grad(
        _pack(model), rows, beta, sigma_sq, model.r, model.d, quad
    )
    return value


def _beta_quad(rows: np.ndarray, beta: np.ndarray, sigma_sq: float) -> float:
    return float(beta @ cross_kernel(GaussianRBF(sigma_sq), rows, rows) @ beta)


def kmm_objective_grad(
    model: MixtureModel,
    target_beta: WeightVector | np.ndarray,
    X: Dataset | np.ndarray,
    sigma_sq: float,
) -> np.ndarray:
    """Gradient of the objective w.r.t. (pi logits, log-variances, means)."""
    rows, beta = _rows_and_weights(X, target_beta, model.d)
    _, grad = _value_and_grad(
        _pack(model), rows, beta, sigma_sq, model.r, model.d, 0.0
    )
    return grad


@dataclass(frozen=True)
class KmmFitConfig:
    max_iters: int = 2000
    restarts: int = 50
    seed: int = 0


def kmm_fit(
    X: Dataset | np.ndarray,
    target_beta: WeightVector | np.ndarray,
    r: int,
    sigma_sq: float,
    config: KmmFitConfig = KmmFitConfig(),
) -> MixtureModel:
    """Minimize the KMM objective by descent with backtracking line search.

    Initialized from the best of ``config.restarts`` k-means runs; returns
    the best iterate seen. The weight simplex and the variance floor are
    maintained by the parameterization itself.
    """
    rows, beta = _rows_and_weights(X, target_beta)
    init = kmeans_init(rows, r, config.restarts, RngStream(config.seed, 0))
    quad = _beta_quad(rows, beta, sigma_sq)
    vec = _pack(init)
    value, grad = _value_and_grad(vec, rows, beta, sigma_sq, r, rows.shape[1], quad)
    if not np.isfinite(value):
        raise ConvergenceError("objective not finite at initialization")
    best_vec, best_value = vec, value
    step = 1.0
    for iteration in range(config.max_iters):
        direction = -grad
        slope = float(grad @ grad)
        if slope == 0.0:
            break
        t = step
        accepted = False
        for _ in range(60):
            candidate = vec + t * direction
            cand_value, cand_grad = _value_and_grad(
                candidate, rows, beta, sigma_sq, r, rows.shape[1], quad
            )
            if not np.isfinite(cand_value):
                raise ConvergenceError(f"objective diverged at iteration {iteration}")
            if cand_value <= value - 1e-4 * t * slope:
                accepted = True
                break
            t *= 0.5
        if not accepted:
            break
        rel_decrease = (value - cand_value) / max(abs(value), 1e-12)
        vec, value, grad = candidate, cand_value, cand_grad
        if value < best_value:
            best_vec, best_value = vec, value
        step = min(t * 2.0, 1e3)
        if 0 <= rel_decrease < REL_TOL:
            break
    return _unpack(best_vec, r, rows.shape[1])


def nll(model: MixtureModel, test: Dataset | np.ndarray) -> float:
    """Average negative log-likelihood of the mixture on a test set,
    computed with log-sum-exp stabilization."""
    rows = as_rows(test)
    if rows.shape[0] < 1:
        raise InputError("test set is empty")
    if rows.shape[1] != model.d:
        raise InputError(f"test dimension {rows.shape[1]} != model dimension {model.d}")
    d = model.d
    d2 = cdist(rows, model.means, "sqeuclidean")
    log_comp = (
        np.log(np.maximum(model.weights, 1e-300))[None, :]
        - 0.5 * d * np.log(2.0 * np.pi * model.variances)[None, :]
        - d2 / (2.0 * model.variances[None, :])
    )
    return float(-logsumexp(log_comp, axis=1).mean())
