"""Dense symmetric linear algebra: eigendecompositions and SPD solves.

The numerical work is delegated to LAPACK through numpy/scipy. This module
adds the conventions the rest of the package relies on: symmetrized storage,
eigenvalues sorted descending (so truncation indices read as "top-m
components"), and explicit failure types. All values are immutable after
construction and every operation is a pure function.

One BLAS thread pool. The numpy and scipy wheels each vendor their own
OpenBLAS, and each copy keeps its own thread pool. After a threaded call an
OpenBLAS worker spins for a while before it sleeps, so once both pools have
run, their spinning workers and the calling thread contend for the cores.
The Cholesky factorization and its solves (``spd_factor``,
``SpdFactor.solve``) are the package's only calls into scipy's LAPACK, and
they run inside ``_ONE_BLAS_THREAD``, which sets scipy's OpenBLAS to one
thread; numpy's pool keeps the machine's threads. On one thread the factor
is also the same bits whatever OPENBLAS_NUM_THREADS says, which a threaded
``potrf`` is not for n >= 128.

``CHOLESKY_PINNED`` says whether that pin is in force. It is False when
scipy's LAPACK is not an OpenBLAS of scipy's own Linux wheel (MKL,
Accelerate, a system OpenBLAS shared with numpy) or that OpenBLAS lacks
``openblas_set_num_threads_local``. Then nothing is pinned, and the
factorization runs on as many threads as that library chooses. OpenBLAS
built with pthreads keeps the thread count per process, not per thread, so
the scope counts the threads inside it: the first to enter sets one thread
and the last to leave restores the count the first one found.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DefinitenessError, InputError


def _scipy_openblas() -> ctypes.CDLL | None:
    """The OpenBLAS that scipy's wheel vendors, if ``scipy.linalg`` has loaded
    it and it exports ``openblas_set_num_threads_local``."""
    libs = Path(scipy.__file__).resolve().parent.parent / "scipy.libs"
    for path in sorted(libs.glob("libscipy_openblas-*.so")):
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
    """Holds scipy's OpenBLAS at one thread while any thread is inside."""

    def __init__(self, set_threads):
        self._set_threads = set_threads
        self._lock = threading.Lock()
        self._inside = 0
        self._found = 1

    def __enter__(self):
        with self._lock:
            if self._inside == 0:
                self._found = self._set_threads(1)
            self._inside += 1

    def __exit__(self, *exc_info):
        with self._lock:
            self._inside -= 1
            if self._inside == 0:
                self._set_threads(self._found)
        return False


_SCIPY_OPENBLAS = _scipy_openblas()
CHOLESKY_PINNED = _SCIPY_OPENBLAS is not None
_ONE_BLAS_THREAD = (
    _OneThreadScope(_SCIPY_OPENBLAS.openblas_set_num_threads_local)
    if CHOLESKY_PINNED
    else contextlib.nullcontext()
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

