"""Dense symmetric linear algebra: eigendecompositions and SPD solves.

The numerical work is delegated to LAPACK through numpy/scipy. This module
adds the conventions the rest of the package relies on: symmetrized storage,
eigenvalues sorted descending (so truncation indices read as "top-m
components"), and explicit failure types. All values are immutable after
construction and every operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DefinitenessError, InputError


def _square(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise InputError(f"expected a square matrix, got shape {arr.shape}")
    if arr.shape[0] < 1:
        raise InputError("matrix dimension must be at least 1")
    return arr


@dataclass(frozen=True, eq=False)
class SymMatrix:
    """Dense real symmetric matrix, symmetrized to (M + M^T)/2 at construction
    (``exact`` wraps a matrix that is symmetric already)."""

    values: np.ndarray

    def __post_init__(self):
        arr = _square(self.values)
        sym = (arr + arr.T) / 2.0
        sym.setflags(write=False)
        object.__setattr__(self, "values", sym)

    @classmethod
    def exact(cls, values: np.ndarray) -> SymMatrix:
        """Wrap a matrix that is exactly symmetric by construction, skipping the
        (M + M^T)/2 pass. The array is kept, not copied, and made read-only."""
        arr = _square(values)
        arr.setflags(write=False)
        sym = object.__new__(cls)
        object.__setattr__(sym, "values", arr)
        return sym

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    Column ``i`` of ``eigenvectors`` pairs with ``eigenvalues[i]``; the
    eigenvector matrix is orthogonal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _as_sym(matrix: SymMatrix | np.ndarray) -> SymMatrix:
    if isinstance(matrix, SymMatrix):
        return matrix
    return SymMatrix(np.asarray(matrix, dtype=float))


def sym_eigendecompose(matrix: SymMatrix | np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition with eigenvalues in non-increasing order."""
    sym = _as_sym(matrix)
    if not np.all(np.isfinite(sym.values)):
        raise InputError("matrix contains non-finite entries")
    try:
        evals, evecs = np.linalg.eigh(sym.values)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - pathological
        residual = float(np.linalg.norm(sym.values, ord="fro"))
        raise ConvergenceError(
            f"symmetric eigensolver did not converge (input Frobenius norm {residual:.3e})"
        ) from exc
    evals = evals[::-1].copy()
    evecs = evecs[:, ::-1].copy()
    evals.setflags(write=False)
    evecs.setflags(write=False)
    return EigenDecomposition(eigenvalues=evals, eigenvectors=evecs)


@dataclass(frozen=True, eq=False)
class SpdFactor:
    """Cached Cholesky factorization for repeated solves against one matrix."""

    _factor: tuple

    def solve(self, b: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(self._factor, b, check_finite=False)


def spd_factor(matrix: SymMatrix | np.ndarray, shift: float = 0.0) -> SpdFactor:
    """Factor the symmetric positive definite matrix + shift I once for later
    solves. The factorization overwrites one private copy, never ``matrix``."""
    sym = _as_sym(matrix)
    # the transpose of exactly symmetric C-ordered values is the same matrix
    # in Fortran order, which LAPACK factors in place after a plain copy
    values = np.array(sym.values.T, order="F")
    values.flat[:: sym.dim + 1] += shift
    if not np.all(np.isfinite(values)):
        raise InputError("matrix contains non-finite entries")
    try:
        factor = scipy.linalg.cho_factor(
            values, lower=True, overwrite_a=True, check_finite=False
        )
    except scipy.linalg.LinAlgError as exc:
        raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc
    return SpdFactor(factor)


def solve_spd(matrix: SymMatrix | np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve M x = b for symmetric positive definite M via Cholesky."""
    sym = _as_sym(matrix)
    vec = np.asarray(b, dtype=float)
    if vec.ndim != 1 or vec.shape[0] != sym.dim:
        raise InputError(
            f"right-hand side has length {vec.shape}, expected ({sym.dim},)"
        )
    return spd_factor(sym).solve(vec)
