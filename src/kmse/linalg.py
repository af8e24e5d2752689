"""Dense symmetric linear algebra: eigendecompositions and SPD solves.

The numerical work is delegated to LAPACK through numpy/scipy. This module
adds the conventions the rest of the package relies on: symmetrized storage,
eigenvalues sorted descending (so truncation indices read as "top-m
components"), and explicit failure types. All values are immutable after
construction and every operation is a pure function.

One BLAS thread inside the replications. The numpy and scipy wheels each
vendor their own OpenBLAS, and each copy keeps its own thread pool. After a
threaded call an OpenBLAS worker spins for a while before it sleeps, so once
both pools have run, their spinning workers and the calling thread contend
for the cores. ``_ONE_BLAS_THREAD`` sets both copies to one thread while any
thread is inside it. The Monte-Carlo harness (``risk.replication_losses``)
runs its replications inside it, since there the replications are the unit
of parallelism (``KMSE_THREADS``); so do the Cholesky factorization and its
solves (``spd_factor``, ``SpdFactor.solve``), the package's only calls into
scipy's LAPACK. Elsewhere numpy's pool keeps the machine's threads, so
``estimate`` runs its large ``eigh`` on every core. On one thread a BLAS or
LAPACK call gives the same bits whatever OPENBLAS_NUM_THREADS says, which a
threaded ``potrf`` is not for n >= 128, nor the harness's losses from
n ~ 150.

``CHOLESKY_PINNED`` says whether scipy's copy is pinned, and
``NUMPY_BLAS_PINNED`` whether numpy's is. A flag is False when that
package's BLAS is not an OpenBLAS of its own Linux wheel (MKL, Accelerate, a
system OpenBLAS shared by both) or that OpenBLAS lacks
``openblas_set_num_threads_local``. Then nothing of that copy is pinned, and
it runs on as many threads as the library chooses. The wheels' OpenBLAS is
built with pthreads and keeps the thread count per process, not per thread,
so the scope counts the threads inside it: the first to enter sets one
thread and the last to leave restores the counts the first one found.
"""

from __future__ import annotations

import ctypes
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DefinitenessError, InputError


def _vendored_openblas(package, pattern: str) -> ctypes.CDLL | None:
    """The OpenBLAS that ``package``'s wheel vendors as ``<package>.libs/<pattern>``,
    if the process has loaded it and it exports ``openblas_set_num_threads_local``."""
    libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
    for path in sorted(libs.glob(pattern)):
        try:  # RTLD_NOLOAD: only a copy this process has loaded already
            lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        except OSError:
            continue
        if hasattr(lib, "openblas_set_num_threads_local"):
            lib.openblas_set_num_threads_local.argtypes = [ctypes.c_int]
            lib.openblas_set_num_threads_local.restype = ctypes.c_int
            return lib
    return None


class _OneThreadScope:
    """Holds the OpenBLAS copies whose setters it is given at one thread while
    any thread is inside."""

    def __init__(self, setters):
        self._setters = tuple(setters)
        self._lock = threading.Lock()
        self._inside = 0
        self._found = ()

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                self._found = tuple(set_threads(1) for set_threads in self._setters)
            self._inside += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                for set_threads, found in zip(self._setters, self._found):
                    set_threads(found)
        return False


_SCIPY_OPENBLAS = _vendored_openblas(scipy, "libscipy_openblas-*.so")
_NUMPY_OPENBLAS = _vendored_openblas(np, "libscipy_openblas64_-*.so")
CHOLESKY_PINNED = _SCIPY_OPENBLAS is not None
NUMPY_BLAS_PINNED = _NUMPY_OPENBLAS is not None
_ONE_BLAS_THREAD = _OneThreadScope(
    lib.openblas_set_num_threads_local
    for lib in (_SCIPY_OPENBLAS, _NUMPY_OPENBLAS)
    if lib is not None
)


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
        with _ONE_BLAS_THREAD:
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
        with _ONE_BLAS_THREAD:
            factor = scipy.linalg.cho_factor(
                values, lower=True, overwrite_a=True, check_finite=False
            )
    except scipy.linalg.LinAlgError as exc:
        raise DefinitenessError(f"matrix is not positive definite: {exc}") from exc
    return SpdFactor(factor)

