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
are handled symmetrically; z reads the factors the mixture already holds, and
||mu_P||^2 the pairwise factors it computes once per parameter set.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import InputError, KmseError, ReplicationError, require_positive
from .estimators import ESTIMATORS, STACKED, EstimatorConfig, WeightVector, _rows_and_weights
from .estimators import fit_chunk, fit_weights
from .kernels import (
    GaussianRBF,
    KernelSpec,
    gram_matrix,
    median_heuristic_bandwidth,
    normalize_gram,
)
from .linalg import _ONE_BLAS_THREAD
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
            inner = _gaussian_inners(
                params.means[j : j + 1], params.means[l], params.pair_factors[j, l], sigma_sq
            )
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


@dataclass(frozen=True, eq=False)
class RiskReport:
    """Monte-Carlo risk of one estimator: mean loss and its standard error."""

    estimator_id: str
    mean_loss: float
    stderr: float


def improvement_percent(risk_base: float, risk_est: float) -> float:
    """100 (R - R_lambda) / R: positive when the estimator beats the baseline."""
    return 100.0 * (risk_base - risk_est) / risk_base


#: Doubles of K/n stacked per chunk of replications, n^2 each: a chunk holds
#: _CHUNK_DOUBLES // n^2 replications, and one once n^2 fills the budget.
_CHUNK_DOUBLES = 2**15


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
    scored against the same ground truth, each built once.

    Replications run in chunks of consecutive indices, sized by
    ``_CHUNK_DOUBLES``. Landweber and nu-method estimators are fitted on a
    whole chunk at once (``estimators.fit_chunk``), every other estimator per
    replication by ``fit_weights``. ``KMSE_THREADS`` workers take chunks. A
    failing chunk is run again one replication at a time, so the
    ``ReplicationError`` names the first replication, and its estimator, that
    fails in replication order. Results are independent of execution order, of
    the chunk size and of which other configs are fitted, and, with BLAS held
    at one thread (``linalg._ONE_BLAS_THREAD``), of OPENBLAS_NUM_THREADS and
    KMSE_THREADS.
    """
    configs = tuple(configs)
    if m < 1:
        raise InputError("need at least one replication")
    workers = _worker_count()
    base_params = base_folded = None
    if not redraw_params:
        base_params = draw_mixture_params(d, RngStream(seed, 0))
        base_folded = effective_components(base_params)

    def draw(r: int):
        """The sample, kernel, K, K/n and ground truth (z, ||mu_P||^2) of
        replication r."""
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
        truth = (mixture_mean_inners(X, folded, sigma_sq), mixture_mean_sq_norm(folded, sigma_sq))
        return X, kspec, gram.values, kbar, truth

    def chunk_losses(reps: range) -> np.ndarray:
        estimator = None  # names the fit that fails; None in the shared steps
        try:
            samples, kspecs, grams, kbars, truths = zip(*(draw(r) for r in reps))
            out = np.empty((len(reps), len(configs)))
            for j, config in enumerate(configs):
                estimator = config.name
                if ESTIMATORS[config.name].spec_type in STACKED:
                    fits = fit_chunk(config, kbars, truths)
                else:
                    fits = [fit_weights(config, *replication, truth=truth)
                            for *replication, truth in zip(samples, kspecs, kbars, truths)]
                out[:, j] = [_rkhs_loss(wv.weights, K, *truth)
                             for wv, K, truth in zip(fits, grams, truths)]
            return out
        except KmseError as exc:
            raise ReplicationError(reps[0], exc, estimator) from exc

    def run_chunk(reps: range) -> np.ndarray:
        # a failing chunk runs again one replication at a time, so the error
        # names the first failure; a separate closure, since chunk_losses
        # calling itself would be a reference cycle holding the mixture's
        # arrays until a full garbage collection
        try:
            return chunk_losses(reps)
        except ReplicationError:
            if len(reps) == 1:
                raise
            return np.concatenate([chunk_losses(range(r, r + 1)) for r in reps])

    size = max(1, _CHUNK_DOUBLES // max(1, n * n))
    chunks = [range(start, min(start + size, m + 1)) for start in range(1, m + 1, size)]
    # replications are the unit of parallelism, so BLAS gets one thread; the
    # count is per process, so one pin covers every worker and is restored
    # once, after the last chunk
    with _ONE_BLAS_THREAD:
        if workers == 1:
            return np.concatenate([run_chunk(chunk) for chunk in chunks])
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return np.concatenate(list(pool.map(run_chunk, chunks)))


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
