"""Shrinkage-parameter selection: leave-one-out CV and generalized CV.

LOOCV refits the estimator on each held-out fold and scores it by the
squared RKHS distance to the held-out kernel function,

    LOOCV = (1/n) sum_i || mu^(-i) - k(x_i, .) ||^2,

expanded into kernel evaluations. Iterative methods are scored along their
whole iteration path (the path comes for free); lambda-methods are scored
on a log grid. TSVD truncation levels are picked by GCV on the projection
residual. Ties always break toward the smaller parameter.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, as_rows
from .errors import InputError
from .filters import (
    FilterSpec,
    IteratedTikhonov,
    Landweber,
    NuMethod,
    SKMSE,
    TSVD,
    Tikhonov,
    retention_values,
)
from .kernels import KernelSpec, NormalizedGram, gram_matrix
from .estimators import _target, landweber_path, nu_method_path
from .linalg import sym_eigendecompose


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Chosen filter plus the full (parameter, score) path that produced it."""

    chosen: FilterSpec
    score_path: list[tuple[float, float]]
    score_kind: str


def _argmin_first(scores: np.ndarray) -> int:
    # np.argmin returns the first occurrence, i.e. the smaller parameter
    return int(np.argmin(scores))


def _fold_scores_iterative(
    K: np.ndarray, algo: str, t_max: int, eta: float, nu: float
) -> np.ndarray:
    """Sum of held-out squared RKHS distances for each iteration count."""
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


def loocv_select_iterations(
    points: Dataset | np.ndarray,
    spec: KernelSpec,
    algo: str,
    t_max: int,
    nu: float = 1.0,
) -> SelectionResult:
    """Pick the iteration count for a gradient-type filter by LOOCV."""
    rows = as_rows(points)
    n = rows.shape[0]
    if n < 3:
        raise InputError("LOOCV needs at least three points")
    if t_max < 1:
        raise InputError("t_max must be at least 1")
    if algo not in ("landweber", "nu"):
        raise InputError(f"unknown iterative algorithm {algo!r}")
    K = gram_matrix(rows, spec).raw.values
    eta = 1.0 / spec.kappa_sq
    scores = _fold_scores_iterative(K, algo, t_max, eta, nu)
    best = _argmin_first(scores)
    if algo == "landweber":
        chosen: FilterSpec = Landweber(iters=best + 1, eta=eta)
    else:
        chosen = NuMethod(iters=best + 1, nu=nu, eta_bar=eta)
    path = [(float(t + 1), float(s)) for t, s in enumerate(scores)]
    return SelectionResult(chosen=chosen, score_path=path, score_kind="LOOCV")


def _lambda_family_spec(family: str, lam: float, itik_iters: int) -> FilterSpec:
    if family == "tikhonov":
        return Tikhonov(lam)
    if family == "skmse":
        return SKMSE(lam)
    if family == "itik":
        return IteratedTikhonov(iters=itik_iters, lam=lam)
    raise InputError(f"unknown lambda-selection family {family!r}")


def loocv_select_lambda(
    points: Dataset | np.ndarray,
    spec: KernelSpec,
    lambda_grid,
    family: str = "tikhonov",
    itik_iters: int = 3,
) -> SelectionResult:
    """LOOCV over a lambda grid by direct refitting on each held-out fold."""
    rows = as_rows(points)
    n = rows.shape[0]
    if n < 3:
        raise InputError("LOOCV needs at least three points")
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InputError("lambda grid is empty")
    K = gram_matrix(rows, spec).raw.values
    scores = np.zeros(grid.size)
    index = np.arange(n)
    for i in range(n):
        keep = index != i
        Ksub = K[np.ix_(keep, keep)]
        kcol = K[keep, i]
        m = n - 1
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
            kept = retention_values(
                _lambda_family_spec(family, float(lam), itik_iters), gammas
            )
            beta = eig.eigenvectors @ (kept * coeff)
            scores[j] += beta @ Ksub @ beta - 2.0 * (kcol @ beta) + K[i, i]
    scores /= n
    best = _argmin_first(scores)
    chosen = _lambda_family_spec(family, float(grid[best]), itik_iters)
    path = [(float(lam), float(s)) for lam, s in zip(grid, scores)]
    return SelectionResult(chosen=chosen, score_path=path, score_kind="LOOCV")


def gcv_select_tsvd(kbar: NormalizedGram) -> SelectionResult:
    """Pick the TSVD truncation level by generalized cross-validation.

    With H_m the projector onto the top-m eigenvectors of Kbar,
    GCV(m) = ||(I - H_m) Kbar 1_n||^2 / (1 - m/n)^2; GCV(n) is +inf by
    definition. Levels whose eigenvalue is zero are not valid thresholds
    and are excluded. Returns the threshold gamma_m of the argmin.
    """
    n = kbar.n
    if n < 2:
        raise InputError("GCV needs at least two points")
    eig = kbar.spectrum
    gammas = np.clip(eig.eigenvalues, 0.0, None)
    coeff = eig.eigenvectors.T @ _target(kbar.matrix.values)
    sq = coeff**2
    # residual^2 after keeping the top m components, for m = 1..n
    tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])  # tail[m] = sum_{i>m} sq
    scores = []
    levels = []
    for m in range(1, n):
        if gammas[m - 1] <= 0.0:
            break  # beyond the numerical rank: no valid threshold
        scores.append(tail[m] / (1.0 - m / n) ** 2)
        levels.append(m)
    if not levels:
        raise InputError("normalized Gram matrix has no positive eigenvalues")
    scores_arr = np.asarray(scores)
    best = _argmin_first(scores_arr)
    m_star = levels[best]
    chosen = TSVD(threshold=float(gammas[m_star - 1]))
    path = [(float(m), float(s)) for m, s in zip(levels, scores_arr)]
    return SelectionResult(chosen=chosen, score_path=path, score_kind="GCV")
