"""Synthetic benchmark distributions: Gaussian mixtures with random Wishart
covariances, plus seeded RNG streams for order-independent replications.

``psd_eigh`` is the one PSD check and covariance eigendecomposition. Each
``MixtureParams`` keeps it per component as ``factors``, which sampling and
the analytic loss in ``risk`` share, and per pair of components as
``pair_factors``, which ||mu_P||^2 reads."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset
from .errors import InputError

DEFAULT_WEIGHTS = (0.05, 0.3, 0.4, 0.25)
DEFAULT_NOISE_VAR = 0.2
MEAN_RANGE = 10.0
WISHART_SCALE = 3.0
WISHART_DF = 7
PSD_TOLERANCE = 1e-10


@dataclass(frozen=True)
class RngStream:
    """Seeded, indexed random stream; (seed, stream_id) fully determines draws."""

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        )


def as_generator(rng: RngStream | np.random.Generator) -> np.random.Generator:
    if isinstance(rng, RngStream):
        return rng.generator()
    return rng


@dataclass(frozen=True, eq=False)
class MixtureParams:
    """Ground-truth mixture: weights pi, means, full covariances, additive
    isotropic noise variance."""

    weights: np.ndarray
    means: np.ndarray  # (k, d)
    covariances: np.ndarray  # (k, d, d)
    noise_var: float = 0.0
    # psd_eigh of each covariance: (clamped ascending eigenvalues, eigenvectors)
    factors: tuple = field(init=False, repr=False)

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.asarray(self.means, dtype=float)
        cov = np.asarray(self.covariances, dtype=float)
        for name, value in (
            ("weights", w), ("means", mu), ("covariances", cov), ("noise_var", self.noise_var)
        ):
            if not np.all(np.isfinite(value)):
                raise InputError(f"mixture {name} must be finite")
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-12:
            raise InputError("mixture weights must be non-negative and sum to 1")
        if mu.ndim != 2 or cov.ndim != 3 or cov.shape[1] != cov.shape[2]:
            raise InputError("means must be (k, d) and covariances (k, d, d)")
        if w.shape[0] != mu.shape[0] or w.shape[0] != cov.shape[0]:
            raise InputError("component counts disagree")
        if self.noise_var < 0:
            raise InputError("noise variance must be non-negative")
        object.__setattr__(self, "factors", tuple(psd_eigh(sigma) for sigma in cov))
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covariances", cov)

    @functools.cached_property
    def pair_factors(self) -> dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]:
        """psd_eigh of Sigma_j + Sigma_l for every pair j <= l, computed on
        first use and kept."""
        cov = self.covariances
        return {(j, l): psd_eigh(cov[j] + cov[l])
                for j in range(self.k) for l in range(j, self.k)}

    @property
    def k(self) -> int:
        return self.weights.shape[0]

    @property
    def d(self) -> int:
        return self.means.shape[1]


def psd_eigh(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues, clamped at zero, and eigenvectors of (M + M^T)/2
    for a finite M that is PSD up to PSD_TOLERANCE times its largest eigenvalue."""
    arr = np.asarray(matrix, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise InputError("matrix contains non-finite entries")
    evals, evecs = np.linalg.eigh((arr + arr.T) / 2.0)
    if evals[0] < -PSD_TOLERANCE * max(1.0, abs(evals[-1])):
        raise InputError(f"matrix is not positive semidefinite (eigenvalue {evals[0]:.3g})")
    return np.clip(evals, 0.0, None), evecs


def _symmetric_root(factor: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    evals, evecs = factor
    return evecs @ (np.sqrt(evals)[:, None] * evecs.T)


def wishart_sample(
    scale: np.ndarray, df: int, rng: RngStream | np.random.Generator
) -> np.ndarray:
    """Draw S G G^T S^T with S a symmetric root of ``scale`` and G d x df standard
    normal. numpy computes A A^T with a symmetric rank-k update and mirrors it,
    so the draw is exactly symmetric."""
    if df < 1:
        raise InputError("degrees of freedom must be at least 1")
    gen = as_generator(rng)
    root = _symmetric_root(psd_eigh(scale))
    g = gen.standard_normal((root.shape[0], df))
    a = root @ g
    return a @ a.T


def draw_mixture_params(
    d: int, rng: RngStream | np.random.Generator
) -> MixtureParams:
    """Four components: means uniform on (-10, 10), Wishart(3 I_d, 7)
    covariances, noise variance 0.2."""
    if d < 1:
        raise InputError("dimension must be at least 1")
    gen = as_generator(rng)
    k = len(DEFAULT_WEIGHTS)
    means = gen.uniform(-MEAN_RANGE, MEAN_RANGE, size=(k, d))
    scale = WISHART_SCALE * np.eye(d)
    covs = np.stack([wishart_sample(scale, WISHART_DF, gen) for _ in range(k)])
    return MixtureParams(
        weights=np.asarray(DEFAULT_WEIGHTS),
        means=means,
        covariances=covs,
        noise_var=DEFAULT_NOISE_VAR,
    )


def sample_mixture(
    params: MixtureParams, n: int, rng: RngStream | np.random.Generator
) -> Dataset:
    """Component index from pi, Gaussian draw via the root of the component's
    factor (rank-deficient covariances are fine), plus isotropic noise."""
    if n < 1:
        raise InputError("sample size must be at least 1")
    gen = as_generator(rng)
    comps = gen.choice(params.k, size=n, p=params.weights)
    z = gen.standard_normal((n, params.d))
    out = np.empty((n, params.d))
    for j in range(params.k):
        mask = comps == j
        if not np.any(mask):
            continue
        root = _symmetric_root(params.factors[j])
        out[mask] = params.means[j] + z[mask] @ root.T
    if params.noise_var > 0:
        out += np.sqrt(params.noise_var) * gen.standard_normal((n, params.d))
    return Dataset(out)


def effective_components(params: MixtureParams) -> MixtureParams:
    """Fold the additive noise into the component covariances.

    Sampling from the result is distributionally identical to sampling from
    the original; analytic loss formulas require this folded form.
    """
    if params.noise_var == 0:
        return params
    eye = np.eye(params.d)
    covs = params.covariances + params.noise_var * eye
    return replace(params, covariances=covs, noise_var=0.0)
