"""Scalar filter functions, residuals, and admissibility diagnostics.

A filter family g_lam approximates the inverse gamma -> 1/gamma on the
spectral domain [0, kappa^2] as lam -> 0. The product gamma * g_lam(gamma)
is the retention factor of a spectral component and

    r_lam(gamma) = 1 - gamma * g_lam(gamma)

is the shrinkage applied to it (r = 0: component kept exactly, r = 1:
component fully shrunk to the target). Implemented families:

* ``Tikhonov``            g(gamma) = 1 / (gamma + lam)
* ``Landweber``           g(gamma) = eta * sum_{i=0}^{t-1} (1 - eta*gamma)^i,
                          i.e. (1 - (1 - eta*gamma)^t) / gamma, with g(0) = eta*t
* ``NuMethod``            g = p_t(gamma), the degree-(t-1) polynomial of the
                          two-term recursion ``two_term_iterates`` run on gamma
                          with the step schedule ``two_term_steps``
* ``IteratedTikhonov``    g(gamma) = ((gamma+lam)^t - lam^t) / (gamma * (gamma+lam)^t)
* ``TSVD``                g(gamma) = 1/gamma if gamma >= lam else 0
* ``SKMSE``               g(gamma) = 1 / ((1+lam) * gamma) for gamma > 0, the
                          uniform shrinkage mu_hat / (1+lam) in filter form

Retention factors are evaluated through dedicated closed forms rather than
as a literal product g * gamma, so they stay finite and accurate down to
gamma = 0 (where every residual equals 1), each written once, for a whole
ladder, in ``retention_matrix``. ``filter_values`` divides them by gamma and
takes each family's limit at gamma = 0. ``residual_values`` forms r in
closed form where 1 - retention would cancel near retention 1.
``two_term_steps`` is the one (omega_t, kappa_t) schedule of a Landweber or
nu-method spec; the filter polynomials, weight paths and LOOCV all run it,
after ``_validate_step`` has checked its step against 1/kappa^2, and
``_guard_norms`` refuses the weight norms of a diverging run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, InputError, require_positive

#: Default shrinkage-parameter grid for model selection: logarithmic over
#: [1e-6, 1e2], 30 points.
LAMBDA_GRID_MIN = 1e-6
LAMBDA_GRID_MAX = 1e2
LAMBDA_GRID_POINTS = 30
STEP_SIZE_SLACK = 1e-12
#: A path with a weight norm above DIVERGENCE_FACTOR / sqrt(n) fails ``_guard_norms``.
DIVERGENCE_FACTOR = 1e6


def default_lambda_grid(num: int = LAMBDA_GRID_POINTS) -> np.ndarray:
    return np.geomspace(LAMBDA_GRID_MIN, LAMBDA_GRID_MAX, num)


def _require_count(spec) -> None:
    if not (isinstance(spec.iters, int) and spec.iters >= 1):
        raise InputError(f"{type(spec).__name__} iters must be an integer >= 1, got {spec.iters}")


@dataclass(frozen=True)
class Tikhonov:
    lam: float

    def __post_init__(self):
        require_positive("Tikhonov lam", self.lam)


@dataclass(frozen=True)
class Landweber:
    iters: int
    eta: float

    def __post_init__(self):
        _require_count(self)
        require_positive("Landweber eta", self.eta)


@dataclass(frozen=True)
class NuMethod:
    """Accelerated gradient filter; ``eta_bar`` scales the step to the
    spectrum bound (set it to 1/kappa^2)."""

    iters: int
    nu: float = 1.0
    eta_bar: float = 1.0

    def __post_init__(self):
        _require_count(self)
        require_positive("NuMethod nu", self.nu)
        require_positive("NuMethod eta_bar", self.eta_bar)


@dataclass(frozen=True)
class IteratedTikhonov:
    iters: int
    lam: float

    def __post_init__(self):
        _require_count(self)
        require_positive("IteratedTikhonov lam", self.lam)


@dataclass(frozen=True)
class TSVD:
    threshold: float

    def __post_init__(self):
        require_positive("TSVD threshold", self.threshold)


@dataclass(frozen=True)
class SKMSE:
    lam: float

    def __post_init__(self):
        if not 0 <= self.lam < math.inf:
            raise InputError(f"SKMSE lam must be non-negative and finite, got {self.lam}")


FilterSpec = Tikhonov | Landweber | NuMethod | IteratedTikhonov | TSVD | SKMSE

#: The shrinkage parameter of each family, the one field its ladders vary.
SHRINKAGE_FIELD = {SKMSE: "lam", Tikhonov: "lam", IteratedTikhonov: "lam", TSVD: "threshold",
                   Landweber: "iters", NuMethod: "iters"}


def qualification(spec: FilterSpec) -> float:
    """The largest smoothness order the filter can exploit (metadata only)."""
    if isinstance(spec, Tikhonov):
        return 1.0
    if isinstance(spec, IteratedTikhonov):
        return float(spec.iters)
    if isinstance(spec, (Landweber, TSVD)):
        return math.inf
    if isinstance(spec, NuMethod):
        return spec.nu
    return 1.0  # SKMSE: uniform-shrinkage analogue of Tikhonov


def effective_shrinkage(spec: FilterSpec) -> float:
    """Shrinkage parameter on a common lambda scale.

    Iteration counts convert via lam ~ 1/(eta t) for plain gradient steps
    and lam ~ 1/(eta t^2) for the accelerated method.
    """
    if isinstance(spec, (Tikhonov, IteratedTikhonov, SKMSE)):
        return spec.lam
    if isinstance(spec, TSVD):
        return spec.threshold
    if isinstance(spec, Landweber):
        return 1.0 / (spec.eta * spec.iters)
    return 1.0 / (spec.eta_bar * spec.iters**2)


def nu_method_coefficients(t: int, nu: float, eta_bar: float) -> tuple[float, float]:
    """(omega_t, kappa_t) of the accelerated two-term recursion at step t >= 1."""
    if t == 1:
        return 0.0, (4.0 * nu + 2.0) / (4.0 * nu + 1.0) * eta_bar
    omega = ((t - 1.0) * (2.0 * t - 3.0) * (2.0 * t + 2.0 * nu - 1.0)) / (
        (t + 2.0 * nu - 1.0) * (2.0 * t + 4.0 * nu - 1.0) * (2.0 * t + 2.0 * nu - 3.0)
    )
    kappa = (
        4.0
        * (2.0 * t + 2.0 * nu - 1.0)
        * (t + nu - 1.0)
        / ((t + 2.0 * nu - 1.0) * (2.0 * t + 4.0 * nu - 1.0))
        * eta_bar
    )
    return omega, kappa


def two_term_steps(spec: Landweber | NuMethod) -> list[tuple[float, float]]:
    """(omega_t, kappa_t) of steps t = 1..iters of a Landweber or nu-method
    spec; Landweber steps have omega = 0 and kappa = eta."""
    if isinstance(spec, Landweber):
        return [(0.0, spec.eta)] * spec.iters
    return [nu_method_coefficients(t, spec.nu, spec.eta_bar) for t in range(1, spec.iters + 1)]


def _validate_step(spec: FilterSpec, kappa_sq: float) -> None:
    """Refuse a Landweber or nu-method step above 1/kappa^2 (and the slack)."""
    if isinstance(spec, (Landweber, NuMethod)):
        landweber = isinstance(spec, Landweber)
        step = spec.eta if landweber else spec.eta_bar
        if step * kappa_sq > 1.0 + STEP_SIZE_SLACK:
            name = "Landweber step size" if landweber else "accelerated step scale"
            raise ConfigurationError(f"{name} {step} exceeds 1/kappa^2 = {1.0 / kappa_sq}")


def _guard_norms(sq_norms: np.ndarray, n: int) -> None:
    """Refuse squared weight norms above DIVERGENCE_FACTOR^2 / n, and NaN and inf:
    a path's norms come all at once, after a diverging run has overflowed."""
    if not np.all(sq_norms <= DIVERGENCE_FACTOR**2 / n):
        raise ConfigurationError(
            "iteration diverged (weights exceeded guard); step size too large"
        )


def two_term_iterates(coefficients, target: np.ndarray, apply):
    """Yield x_1, x_2, ... of the two-term recursion

        x_t = (x_{t-1} + omega_t (x_{t-1} - x_{t-2})) + kappa_t (b - A x_{t-1}),

    run from x_0 = x_{-1} = 0, one step per (omega_t, kappa_t) pair, over any
    leading stack axes of ``target`` (b). ``apply(x)`` returns A x as a new
    array, which the step overwrites with kappa_t (b - A x); it is called only
    to form the next iterate: T steps make T - 1 calls. Each step allocates
    only the iterate it yields, in the order of operations written above.
    """
    prev = curr = np.zeros_like(target)
    for step, (omega, kappa) in enumerate(coefficients):
        nxt = np.subtract(curr, prev)
        nxt *= omega
        nxt += curr
        if step:
            residual = apply(curr)
            np.subtract(target, residual, out=residual)
            residual *= kappa
        else:
            residual = kappa * target  # b - A x_0 = b
        nxt += residual
        prev, curr = curr, nxt
        yield nxt


def _check_gammas(gammas: np.ndarray) -> np.ndarray:
    g = np.asarray(gammas, dtype=float)
    if np.any(g < 0):
        raise InputError("filter functions are defined on gamma >= 0")
    return g


#: r(gamma) in closed form where 1 - retention would cancel; TSVD and S-KMSE
#: retention is exact, and the nu residual is 1 - gamma p_t(gamma)
_CLOSED_RESIDUALS = {
    Tikhonov: lambda spec, g: spec.lam / (g + spec.lam),
    Landweber: lambda spec, g: (1.0 - spec.eta * g) ** spec.iters,
    IteratedTikhonov: lambda spec, g: (spec.lam / (g + spec.lam)) ** spec.iters,
}


def _residual_of(spec: FilterSpec, g: np.ndarray, kept: np.ndarray) -> np.ndarray:
    """r(gamma) at ``g`` from its retention ``kept`` there: 1 - kept, or the
    closed form where that would cancel (``_CLOSED_RESIDUALS``)."""
    closed = _CLOSED_RESIDUALS.get(type(spec))
    return 1.0 - kept if closed is None else closed(spec, g)


def residual_values(spec: FilterSpec, gammas: np.ndarray) -> np.ndarray:
    """r(gamma) = 1 - gamma * g(gamma), in closed form where 1 - retention
    would cancel."""
    g = _check_gammas(gammas)
    return _residual_of(spec, g, retention_values(spec, g))


def retention_matrix(spec: FilterSpec, params, gammas: np.ndarray) -> np.ndarray:
    """gamma * g(gamma) of ``spec`` with its ``SHRINKAGE_FIELD`` set to each of
    ``params``, a row each; nu runs one two-term recursion on A = gamma, b = 1."""
    g = _check_gammas(gammas)
    p = np.asarray(params, dtype=float)[:, None]
    if isinstance(spec, Tikhonov):
        return g / (g + p)
    if isinstance(spec, Landweber):  # int powers: w ** 2 is numpy's square, not pow()
        return 1.0 - np.array([(1.0 - spec.eta * g) ** int(t) for t in p[:, 0]])
    if isinstance(spec, IteratedTikhonov):
        return 1.0 - (p / (g + p)) ** spec.iters
    if isinstance(spec, TSVD):
        return np.where(g >= p, 1.0, 0.0)
    if isinstance(spec, SKMSE):
        return np.where(g > 0, 1.0 / (1.0 + p), 0.0)
    counts = p[:, 0].astype(int)  # only the requested steps are kept
    polynomials = np.empty((len(counts),) + g.shape)
    steps = two_term_steps(replace(spec, iters=int(counts.max())))
    for t, poly in enumerate(two_term_iterates(steps, np.ones_like(g), lambda x: g * x), 1):
        polynomials[counts == t] = poly
    return g * polynomials


def retention_values(spec: FilterSpec, gammas: np.ndarray) -> np.ndarray:
    """gamma * g(gamma) of one spec: its row of ``retention_matrix``."""
    return retention_matrix(spec, [getattr(spec, SHRINKAGE_FIELD[type(spec)])], gammas)[0]


def _value_at_zero(spec: FilterSpec) -> float:
    """g(0): the limit of gamma * g(gamma) / gamma, or 0 where the filter
    drops the null component."""
    if isinstance(spec, Tikhonov):
        return 1.0 / spec.lam
    if isinstance(spec, Landweber):
        return spec.eta * spec.iters
    if isinstance(spec, IteratedTikhonov):
        return spec.iters / spec.lam
    if isinstance(spec, NuMethod):  # p_t(0): the recursion with A = 0 and b = 1
        *_, last = two_term_iterates(two_term_steps(spec), np.ones(1), np.zeros_like)
        return float(last[0])
    return 0.0  # TSVD and SKMSE


def filter_values(spec: FilterSpec, gammas: np.ndarray) -> np.ndarray:
    """g(gamma) on an array of eigenvalues: the retention factor over gamma."""
    g = _check_gammas(gammas)
    positive = g > 0
    out = np.full_like(g, _value_at_zero(spec))
    out[positive] = retention_values(spec, g[positive]) / g[positive]
    return out


def scalar_filter(spec: FilterSpec, gamma: float) -> float:
    """g(gamma) at a single point."""
    return float(filter_values(spec, np.asarray([gamma], dtype=float))[0])


def residual(spec: FilterSpec, gamma: float) -> float:
    """r(gamma) = 1 - gamma * g(gamma); equals 1 at gamma = 0 for every filter."""
    return float(residual_values(spec, np.asarray([gamma], dtype=float))[0])


@dataclass(frozen=True)
class AdmissibilityReport:
    """Numeric estimates of the admissibility constants of a filter family.

    ``sup_gamma_g`` estimates B = sup |gamma g(gamma)|, ``sup_residual``
    estimates C = sup |r(gamma)|, and each entry of ``residual_eta_bounds``
    is (eta, sup |r(gamma)| gamma^eta / lam^eta), an estimate of D at that
    smoothness order.
    """

    sup_gamma_g: float
    sup_residual: float
    residual_eta_bounds: list[tuple[float, float]]
    grid_size: int


def check_admissibility(
    spec: FilterSpec, grid_size: int, eta_list: list[float]
) -> AdmissibilityReport:
    """Evaluate the three admissibility suprema on a uniform grid.

    The grid covers [0, kappa^2] with kappa^2 = 1 and always includes the
    point gamma = effective lambda, where TSVD-style residuals switch; that
    lambda must be positive.
    """
    if grid_size < 100:
        raise InputError("grid_size must be at least 100")
    lam = effective_shrinkage(spec)
    if not lam > 0:  # the D bounds divide by lam^eta
        raise InputError(f"admissibility needs a positive shrinkage parameter, got {lam}")
    grid = np.linspace(0.0, 1.0, grid_size)
    if 0.0 <= lam <= 1.0:
        grid = np.append(grid, lam)
    kept = retention_values(spec, grid)  # one nu recursion serves both suprema
    res = _residual_of(spec, grid, kept)
    bounds = []
    for eta in eta_list:
        try:  # lam**eta underflows to 0 or overflows for extreme lambda
            scale = lam**eta
        except OverflowError:
            scale = math.inf
        bound = float(np.max(np.abs(res) * grid**eta)) / scale if scale > 0 else math.inf
        if not math.isfinite(bound):
            raise InputError(
                f"the D bound at eta = {eta} is not finite in floating point "
                f"for lambda = {lam}"
            )
        bounds.append((float(eta), bound))
    return AdmissibilityReport(
        sup_gamma_g=float(np.max(np.abs(kept))),
        sup_residual=float(np.max(np.abs(res))),
        residual_eta_bounds=bounds,
        grid_size=grid_size,
    )
