"""Shrinkage-parameter selection: leave-one-out CV and generalized CV.

LOOCV scores an estimator by the squared RKHS distance between its fit on
each held-out fold and the held-out kernel function,

    LOOCV = (1/n) sum_i || mu^(-i) - k(x_i, .) ||^2,

expanded into kernel evaluations. All n folds share one eigendecomposition
A = K/(n-1) = U Gamma U^T, the cached spectrum of K/n with its eigenvalues
scaled by n/(n-1). Fold i fits on A_i, A with row and column i removed. A
fold's weights are embedded in R^n with entry i equal to zero, where A_i acts
as P_i A P_i with P_i = I - e_i e_i^T. In eigen-coordinates x = U^T beta that
is a diagonal plus a rank-one term along u_i = U[i, :]:

    U^T P_i A beta = Gamma x - u_i (U Gamma x)_i.

Column i of one n x n coefficient matrix X holds fold i, so one step for all
folds together costs O(n^2):

* Landweber and the nu-method iterate with that operator against the fold
  targets U^T b_i, b_i = P_i A (1_n - e_i) / (n-1), which is (K_i/(n-1)^2) 1
  embedded; the divergence guard is applied to every column.
* Tikhonov (one solve) and iterated Tikhonov (t solves) use the fold
  resolvent. By the Schur complement, (A_i + lam)^{-1} embedded is
  C - c_i c_i^T / C_ii with C = (A + lam)^{-1} = U diag(1/(gamma + lam)) U^T
  and c_i = C e_i, again a diagonal plus a rank-one term in the eigenbasis.
* S-KMSE's fold fit is the uniform vector scaled by 1/(1+lam), so its score
  needs only the column sums of K.

With m = n - 1 and beta_i = 0, fold i's score is

    beta^T K_i beta - 2 k_i^T beta + K_ii
        = m sum_k gamma_k x_k^2 - 2 m (U Gamma x)_i + K_ii.

The work is one eigendecomposition plus O(n^2) per iteration or grid point.
Iterative methods are scored along their whole iteration path (the path
comes for free); lambda methods are scored on a grid. TSVD truncation levels
are picked by GCV on the projection residual. Ties always break toward the
smaller parameter.
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
    nu_method_coefficients,
)
from .kernels import KernelSpec, NormalizedGram, gram_matrix, normalize_gram
from .estimators import _guard, _target


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Chosen filter plus the full (parameter, score) path that produced it."""

    chosen: FilterSpec
    score_path: list[tuple[float, float]]
    score_kind: str


def _argmin_first(scores: np.ndarray) -> int:
    # np.argmin returns the first occurrence, i.e. the smaller parameter
    return int(np.argmin(scores))


def _sample_size(points: Dataset | np.ndarray, kbar: NormalizedGram | None) -> int:
    return kbar.n if kbar is not None else as_rows(points).shape[0]


@dataclass(frozen=True, eq=False)
class _FoldBasis:
    """The eigenbasis of A = K/(n-1) shared by all n leave-one-out folds.

    Column i of ``ut`` is u_i and column i of ``targets`` is fold i's target
    U^T b_i.
    """

    m: int
    gammas: np.ndarray
    ut: np.ndarray
    targets: np.ndarray
    k_diag: np.ndarray

    @classmethod
    def of(cls, kbar: NormalizedGram) -> "_FoldBasis":
        m = kbar.n - 1
        scale = kbar.n / m  # K/n -> K/(n-1)
        eig = kbar.spectrum
        gammas = np.clip(eig.eigenvalues, 0.0, None) * scale
        ut = np.ascontiguousarray(eig.eigenvectors.T)
        a_diag = np.diagonal(kbar.matrix.values) * scale
        a_rows = kbar.matrix.values.sum(axis=1) * scale
        # U^T P_i A (1_n - e_i) = Gamma (U^T 1_n - u_i) - u_i ((A 1_n)_i - A_ii)
        spread = gammas[:, None] * (ut.sum(axis=1)[:, None] - ut)
        targets = (spread - ut * (a_rows - a_diag)) / m
        return cls(m, gammas, ut, targets, m * a_diag)

    def apply(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        """Every fold's operator applied to its column of X, and the summed
        fold scores of X: (U^T P_i A beta_i for each i, sum_i score_i)."""
        gx = self.gammas[:, None] * X
        held_out = np.einsum("ki,ki->i", self.ut, gx)  # (A beta_i)_i
        quad = np.einsum("ki,ki->i", gx, X)  # beta_i^T A beta_i
        score = np.sum(self.m * (quad - 2.0 * held_out) + self.k_diag)
        return gx - self.ut * held_out, float(score)


def _iteration_scores(
    kbar: NormalizedGram, algo: str, t_max: int, eta: float, nu: float
) -> np.ndarray:
    """Mean held-out squared RKHS distance after each iteration count."""
    basis = _FoldBasis.of(kbar)
    n = kbar.n
    scores = np.empty(t_max)
    prev = curr = applied = np.zeros((n, n))
    for t in range(1, t_max + 1):
        if algo == "landweber":
            omega, kappa = 0.0, eta
        else:
            omega, kappa = nu_method_coefficients(t, nu, eta)
        nxt = curr + omega * (curr - prev) + kappa * (basis.targets - applied)
        _guard(nxt, basis.m)
        prev, curr = curr, nxt
        applied, scores[t - 1] = basis.apply(curr)
    return scores / n


def loocv_select_iterations(
    points: Dataset | np.ndarray,
    spec: KernelSpec,
    algo: str,
    t_max: int,
    nu: float = 1.0,
    kbar: NormalizedGram | None = None,
) -> SelectionResult:
    """Pick the iteration count for a gradient-type filter by LOOCV.

    ``kbar`` is K/n of ``points`` under ``spec``; it is built when not given.
    The step is 1/kappa^2 of ``kbar``.
    """
    n = _sample_size(points, kbar)
    if n < 3:
        raise InputError("LOOCV needs at least three points")
    if t_max < 1:
        raise InputError("t_max must be at least 1")
    if algo not in ("landweber", "nu"):
        raise InputError(f"unknown iterative algorithm {algo!r}")
    if kbar is None:
        kbar = normalize_gram(gram_matrix(points, spec))
    eta = 1.0 / kbar.kappa_sq
    scores = _iteration_scores(kbar, algo, t_max, eta, nu)
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


def _skmse_scores(kbar: NormalizedGram, grid: np.ndarray) -> np.ndarray:
    """Fold i refits (1/(1+lam)) 1_{n-1}/(n-1); its score needs K's sums."""
    n = kbar.n
    m = n - 1
    total = n * kbar.matrix.values.sum()
    trace = n * np.trace(kbar.matrix.values)
    # sum over folds of 1^T K_i 1 / m^2 and of mean(k_i)
    quad = ((n - 2) * total + trace) / m**2
    cross = (total - trace) / m
    shrink = 1.0 / (1.0 + grid)
    return (shrink**2 * quad - 2.0 * shrink * cross + trace) / n


def _resolvent_scores(
    kbar: NormalizedGram, grid: np.ndarray, solves: int
) -> np.ndarray:
    """Scores of ``solves`` Tikhonov solves from beta = 0 per lambda: one
    solve is Tikhonov, several are iterated Tikhonov."""
    basis = _FoldBasis.of(kbar)
    ut = basis.ut
    ut_sq = ut * ut
    scores = np.empty(grid.size)
    for j, lam in enumerate(grid):
        inv = 1.0 / (basis.gammas + lam)
        c_diag = inv @ ut_sq  # C_ii
        inv_ut = inv[:, None] * ut  # column i: U^T c_i
        inv_targets = inv[:, None] * basis.targets
        # X <- U^T (C y_i - c_i (C y_i)_i / C_ii) with y_i = b_i + lam beta_i
        X = inv_targets.copy()
        correction = np.empty_like(X)
        for solve in range(solves):
            if solve:
                X *= (lam * inv)[:, None]
                X += inv_targets
            np.multiply(inv_ut, np.einsum("ki,ki->i", ut, X) / c_diag, out=correction)
            X -= correction
        scores[j] = basis.apply(X)[1]
    return scores / kbar.n


def loocv_select_lambda(
    points: Dataset | np.ndarray,
    spec: KernelSpec,
    lambda_grid,
    family: str = "tikhonov",
    itik_iters: int = 3,
    kbar: NormalizedGram | None = None,
) -> SelectionResult:
    """LOOCV over a lambda grid, all folds from one eigendecomposition.

    ``kbar`` is K/n of ``points`` under ``spec``; it is built when not given.
    """
    n = _sample_size(points, kbar)
    if n < 3:
        raise InputError("LOOCV needs at least three points")
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0:
        raise InputError("lambda grid is empty")
    # every grid value must make a valid filter, checked before any work
    for lam in grid:
        _lambda_family_spec(family, float(lam), itik_iters)
    if kbar is None:
        kbar = normalize_gram(gram_matrix(points, spec))
    if family == "skmse":
        scores = _skmse_scores(kbar, grid)
    else:
        scores = _resolvent_scores(kbar, grid, 1 if family == "tikhonov" else itik_iters)
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
