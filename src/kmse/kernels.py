"""Kernels, Gram matrices (``SymMatrix``), bandwidth selection, and K / n.

Shrinkage filters in this package act on the normalized Gram matrix
K / n, whose nonzero spectrum coincides with that of the empirical
covariance operator. That keeps the Gram-side coefficient formula in exact
agreement with the operator-side estimate (see
``theory.verify_operator_equivalence``).

kappa^2 is measured, not declared: ``normalize_gram`` takes the largest
K_ii of the Gram matrix it is given (1.0 when every K_ii is 0). K is
positive semidefinite, so max K_ii >= trace(K)/n >= lambda_max(K/n), the
spectrum of K/n lies inside [0, kappa^2], and the fixed step size
eta = 1/kappa^2 stays valid for gradient-type filters.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .data import Dataset, as_rows
from .errors import DegenerateBandwidthError, InputError, require_positive
from .linalg import EigenDecomposition, SymMatrix, sym_eigendecompose


@dataclass(frozen=True)
class GaussianRBF:
    """k(x, y) = exp(-||x - y||^2 / (2 sigma^2)). k(x, x) = exp(-0.0) is
    exactly 1, so the measured kappa^2 of every RBF Gram matrix is 1."""

    bandwidth_sq: float

    def __post_init__(self):
        require_positive("bandwidth_sq", self.bandwidth_sq)


@dataclass(frozen=True)
class Linear:
    """k(x, y) = <x, y>; kappa^2 is the largest ||x||^2 of the sample."""


KernelSpec = GaussianRBF | Linear


def kernel_eval(spec: KernelSpec, x: np.ndarray, y: np.ndarray) -> float:
    """Evaluate the kernel on a single pair of points."""
    return float(cross_kernel(spec, np.ravel(x)[None, :], np.ravel(y)[None, :])[0, 0])


def cross_kernel(spec: KernelSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Kernel matrix between two row sets, shape (len(X), len(Y))."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"dimension mismatch: {X.shape[1]} vs {Y.shape[1]}")
    if isinstance(spec, GaussianRBF):
        return np.exp(-cdist(X, Y, "sqeuclidean") / (2.0 * spec.bandwidth_sq))
    return X @ Y.T


@dataclass(eq=False)
class NormalizedGram:
    """K/n together with its (lazily computed, cached) eigendecomposition."""

    matrix: SymMatrix
    kappa_sq: float
    _spectrum: EigenDecomposition | None = dataclasses.field(
        default=None, init=False, repr=False
    )

    @property
    def n(self) -> int:
        return self.matrix.dim

    @property
    def spectrum(self) -> EigenDecomposition:
        if self._spectrum is None:
            self._spectrum = sym_eigendecompose(self.matrix)
        return self._spectrum


def gram_matrix(points: Dataset | np.ndarray, spec: KernelSpec) -> SymMatrix:
    """Pairwise kernel matrix K over a dataset, as a ``SymMatrix``.

    K is exactly symmetric as built, so it is not symmetrized again: ``cdist``
    squares the same differences for (i, j) and (j, i), and numpy computes
    X X^T of one contiguous X with a symmetric rank-k update and mirrors it.
    """
    rows = np.ascontiguousarray(as_rows(points))
    if rows.shape[0] < 1:
        raise InputError("cannot build a Gram matrix from an empty dataset")
    return SymMatrix.exact(cross_kernel(spec, rows, rows))


def normalize_gram(gram: SymMatrix) -> NormalizedGram:
    """Scale K to K/n, with kappa^2 = max K_ii (1.0 when every K_ii is 0).

    K is exactly symmetric and so is K/n, elementwise; it is not symmetrized
    again. A linear-kernel sample whose ||x||^2 overflows is refused here.
    """
    kappa_sq = float(np.diagonal(gram.values).max())
    if kappa_sq == 0.0:
        kappa_sq = 1.0  # all-zero data: any positive bound is valid
    require_positive("kernel diagonal max k(x,x)", kappa_sq)
    return NormalizedGram(matrix=SymMatrix.exact(gram.values / gram.dim), kappa_sq=kappa_sq)


def median_heuristic_bandwidth(points: Dataset | np.ndarray) -> float:
    """Lower median of pairwise squared distances over i < j pairs.

    Diagonal (zero) distances are excluded so duplicated points do not bias
    the bandwidth downward. Raises if the median itself degenerates to zero.
    """
    rows = as_rows(points)
    if rows.shape[0] < 2:
        raise InputError("median heuristic needs at least two points")
    sq = pdist(rows, "sqeuclidean")
    k = sq.shape[0]
    lower_mid = (k - 1) // 2
    value = float(np.partition(sq, lower_mid)[lower_mid])
    if value <= 0.0:
        raise DegenerateBandwidthError(
            "median pairwise squared distance is zero (too many coincident points)"
        )
    return value
