"""Weight vectors for every kernel mean estimator.

An estimate is Sum_i beta_i k(x_i, .). The empirical estimator uses the
uniform vector 1_n = [1/n, ..., 1/n]; shrinkage estimators produce

    beta = g(Kbar) Kbar 1_n,      Kbar = K / n,

either through the spectral closed form (the canonical path) or through the
iterative updates the filters correspond to. Iterative and spectral paths
agree to machine precision and are tested against each other. The shrinkage
target is the zero function throughout, i.e. all iterations start at
beta = 0.

``ESTIMATORS`` registers every estimator with its selection rules, its fixed
spec and its candidate ladder; ``fit_weights`` fits an ``EstimatorConfig``
through it, the one path from an estimator and its selection rule to
weights, and ``fit_spec`` turns any spec into weights. ``fit_chunk`` is
``fit_weights`` of a Landweber or nu-method estimator over a chunk of
Monte-Carlo replications, stacked: one LOOCV over the chunk and one path to
the longest chosen t (``two_term_path``). A single fit is a stack of one.

An iterated Tikhonov spec with lam >= RESOLVENT_MIN_LAMBDA * kappa^2 is t
Cholesky solves on one factor of Kbar + lam I; below that floor the solves
lose digits to the conditioning of Kbar + lam I, so it goes through the
spectrum. The floor alone picks the path, whatever the selection rule.
Under selection "none" a Tikhonov spec above the floor is one such solve, so
no eigendecomposition is made; it agrees with the spectral path to about
1e-12 relative. A selected spec is fitted by ``fit_spec``: a selected
Tikhonov or TSVD spec is applied to the spectrum its selector has already
built, and Landweber and nu specs run their iterations on Kbar.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .data import Dataset, as_rows
from .errors import InputError
from .filters import (
    FilterSpec,
    Landweber,
    NuMethod,
    IteratedTikhonov,
    SKMSE,
    TSVD,
    Tikhonov,
    _guard_norms,
    _validate_step,
    default_lambda_grid,
    retention_values,
    two_term_iterates,
    two_term_steps,
)
from .kernels import KernelSpec, NormalizedGram, _target, cross_kernel, gram_matrix, normalize_gram
from .linalg import spd_factor
from .selection import _stack, loocv_select_stacked, select

#: Smallest lam / kappa^2 at which iterated Tikhonov and fixed Tikhonov fits
#: go through Cholesky solves; below it their error grows like 1/lam
#: (TestFitFixed in tests/test_estimators.py measures it).
RESOLVENT_MIN_LAMBDA = 1e-3


@dataclass(frozen=True, eq=False)
class WeightVector:
    """Length-n coefficients defining an estimate Sum_i beta_i k(x_i, .), and
    the spec that shrank them (None for the empirical mean)."""

    weights: np.ndarray
    shrinkage: FilterSpec | None = None

    def __post_init__(self):
        arr = np.asarray(self.weights, dtype=float)
        if arr.ndim != 1:
            raise InputError("weights must be a 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise InputError("weights contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "weights", arr)

    @property
    def estimator_id(self) -> str:
        """The ``ESTIMATORS`` name of the spec's family; "kme" without a spec."""
        return "kme" if self.shrinkage is None else _FILTER_IDS[type(self.shrinkage)]


class EstimatorKind(NamedTuple):
    """The filter family an estimator fits (None for the empirical mean), the
    selection rules it accepts (the first is its default), the spec it fits
    under selection "none", ``fixed(config, kappa_sq)``, and the ordered
    candidates the other rules choose from, ``ladder(config, kbar)``, where
    ``config`` is an ``EstimatorConfig``. Each row builds its own specs;
    LOOCV and the oracle rule (fitting none) score that ladder; GCV picks from it."""

    spec_type: type | None
    selections: tuple[str, ...]
    fixed: Callable | None = None
    ladder: Callable | None = None


def _grid(config) -> list[float]:
    """The lambda candidates of ``config``, in grid order."""
    if len(config.lambda_grid) == 0:
        raise InputError("lambda grid is empty")
    return [float(lam) for lam in config.lambda_grid]


def _counts(config) -> range:
    """The iteration-count candidates of ``config``: 1..t_max."""
    if config.t_max < 1:
        raise InputError("t_max must be at least 1")
    return range(1, config.t_max + 1)


def tsvd_ladder(kbar: NormalizedGram) -> tuple[TSVD, ...]:
    """Candidates of TSVD: the distinct positive eigenvalues of K/n, descending."""
    gammas = kbar.spectrum.eigenvalues
    ladder = tuple(TSVD(g) for g in dict.fromkeys(float(g) for g in gammas if g > 0))
    if not ladder:
        raise InputError("normalized Gram matrix has no positive eigenvalues")
    return ladder


_LAMBDA_RULES = ("loocv", "none", "oracle")

#: Every estimator by name, in report order.
ESTIMATORS: dict[str, EstimatorKind] = {
    "kme": EstimatorKind(None, ("none",)),
    "skmse": EstimatorKind(
        SKMSE, _LAMBDA_RULES, lambda c, kappa_sq: SKMSE(c.lam),
        lambda c, kbar: tuple(SKMSE(lam) for lam in _grid(c))),
    "tikhonov": EstimatorKind(
        Tikhonov, _LAMBDA_RULES, lambda c, kappa_sq: Tikhonov(c.lam),
        lambda c, kbar: tuple(Tikhonov(lam) for lam in _grid(c))),
    "landweber": EstimatorKind(
        Landweber, _LAMBDA_RULES, lambda c, kappa_sq: Landweber(c.iters, 1.0 / kappa_sq),
        lambda c, kbar: tuple(Landweber(t, 1.0 / kbar.kappa_sq) for t in _counts(c))),
    "nu": EstimatorKind(
        NuMethod, _LAMBDA_RULES, lambda c, kappa_sq: NuMethod(c.iters, c.nu, 1.0 / kappa_sq),
        lambda c, kbar: tuple(NuMethod(t, c.nu, 1.0 / kbar.kappa_sq) for t in _counts(c))),
    "itik": EstimatorKind(
        IteratedTikhonov, _LAMBDA_RULES, lambda c, kappa_sq: IteratedTikhonov(c.itik_iters, c.lam),
        lambda c, kbar: tuple(IteratedTikhonov(c.itik_iters, lam) for lam in _grid(c))),
    "tsvd": EstimatorKind(
        TSVD, ("gcv", "none", "oracle"), lambda c, kappa_sq: TSVD(c.lam),
        lambda c, kbar: tsvd_ladder(kbar)),
}
_FILTER_IDS = {kind.spec_type: name for name, kind in ESTIMATORS.items()}


@dataclass(frozen=True)
class EstimatorConfig:
    """One estimator plus how its shrinkage parameter is chosen.

    ``selection``: "none" (fit the fixed parameters below), "loocv", "gcv",
    "oracle" (minimize the true analytic loss over the candidates; only
    available inside the synthetic harness), or "default", which construction
    replaces by the estimator's default rule. ``ESTIMATORS`` lists the rules
    each estimator accepts, its default first (loocv for lambda and iteration
    methods, gcv for tsvd, none for kme); any other pair raises.

    Under "none", ``lam`` is the lambda of skmse, tikhonov and itik and the
    threshold of tsvd, and ``iters`` is the iteration count of landweber and
    nu. The other rules choose lambda from ``lambda_grid`` and the iteration
    count from 1..``t_max``. Every rule fits itik with ``itik_iters`` solves
    and the nu-method with qualification ``nu``.
    """

    name: str
    selection: str = "default"
    lam: float = 0.1
    iters: int = 10
    nu: float = 1.0
    itik_iters: int = 3
    t_max: int = 50
    lambda_grid: tuple[float, ...] = field(default_factory=lambda: tuple(default_lambda_grid()))

    def __post_init__(self):
        if self.name not in ESTIMATORS:
            raise InputError(f"unknown estimator {self.name!r}")
        rules = ESTIMATORS[self.name].selections
        if self.selection not in rules + ("default",):
            raise InputError(
                f"selection {self.selection!r} is not available for {self.name}; "
                f"choose one of {', '.join(rules)}"
            )
        if self.selection == "default":
            object.__setattr__(self, "selection", rules[0])


def empirical_kme_weights(n: int) -> WeightVector:
    """Uniform weights 1/n of the empirical kernel mean."""
    if n < 1:
        raise InputError("n must be at least 1")
    return WeightVector(np.full(n, 1.0 / n))


def skmse_weights(n: int, lam: float) -> WeightVector:
    """Uniform shrinkage toward zero: constant weights 1 / (n (1 + lambda))."""
    spec = SKMSE(lam)
    if n < 1:
        raise InputError("n must be at least 1")
    return WeightVector(np.full(n, 1.0 / (n * (1.0 + lam))), spec)


def spectral_weights(kbar: NormalizedGram, spec: FilterSpec) -> WeightVector:
    """Canonical spectral path: beta = U diag(g(gamma) gamma) U^T 1_n.

    Retention factors are evaluated in closed form on the spectrum of K/n,
    clamped at zero, so near-null components stay finite.
    """
    _validate_step(spec, kbar.kappa_sq)
    eig = kbar.spectrum
    kept = retention_values(spec, eig.eigenvalues)
    ones = np.full(kbar.n, 1.0 / kbar.n)
    beta = eig.eigenvectors @ (kept * (eig.eigenvectors.T @ ones))
    return WeightVector(beta, spec)


def two_term_path(kbar_values: np.ndarray, coefficients, stops) -> np.ndarray:
    """Iterate beta^(stops[r]) of the two-term recursion on each K/n of an
    (R, n, n) stack toward its Kbar 1_n, shape (R, n): one stacked run of the
    (omega, kappa) pairs up to the longest stop. Replication r's divergence
    guard checks its norms up to its own stop once the run is done, so a
    diverging run overflows to inf or NaN before it fails."""
    stops = list(stops)
    n = kbar_values.shape[-1]
    at_step = {}
    for r, t in enumerate(stops):
        at_step.setdefault(t, []).append(r)
    out = np.empty((len(stops), n))
    norms = np.empty((max(stops), len(stops)))
    target = _target(kbar_values)[..., None]  # (R, n, 1), so A x is one stacked matmul
    iterates = two_term_iterates(coefficients[:max(stops)], target, kbar_values.__matmul__)
    with np.errstate(over="ignore", invalid="ignore"):
        for step, beta in enumerate(iterates, 1):
            np.einsum("rij,rij->r", beta, beta, out=norms[step - 1])
            if step in at_step:
                out[at_step[step]] = beta[at_step[step], :, 0]
        for r, t in enumerate(stops):
            _guard_norms(norms[:t, r], n)
    return out


def landweber_path(kbar_values: np.ndarray, stops, eta: float) -> np.ndarray:
    """Gradient-descent iterate beta^(stops[r]) on each K/n of an (R, n, n) stack."""
    return two_term_path(kbar_values, two_term_steps(Landweber(max(stops), eta)), stops)


def nu_method_path(kbar_values: np.ndarray, stops, nu: float, eta_bar: float) -> np.ndarray:
    """Accelerated two-term iterate beta^(stops[r]) on each K/n of an (R, n, n) stack."""
    return two_term_path(kbar_values, two_term_steps(NuMethod(max(stops), nu, eta_bar)), stops)


def _two_term_fits(kbars, specs) -> list[WeightVector]:
    """``fit_spec`` of each Landweber or nu-method spec on its K/n, one run
    over the stack; the specs differ in ``iters`` alone, and the K/n share n."""
    for kbar, spec in zip(kbars, specs):
        _validate_step(spec, kbar.kappa_sq)
    values = _stack([kbar.matrix.values for kbar in kbars])
    stops = [spec.iters for spec in specs]
    last = specs[0]
    if isinstance(last, Landweber):
        betas = landweber_path(values, stops, last.eta)
    else:
        betas = nu_method_path(values, stops, last.nu, last.eta_bar)
    return [WeightVector(beta, spec) for beta, spec in zip(betas, specs)]


def landweber_weights(kbar: NormalizedGram, t: int) -> WeightVector:
    """Run t gradient steps of size 1/kappa^2 from beta = 0."""
    return fit_spec(kbar, Landweber(iters=t, eta=1.0 / kbar.kappa_sq))


def nu_method_weights(kbar: NormalizedGram, t: int, nu: float = 1.0) -> WeightVector:
    """Accelerated gradient iteration; the step is scaled by 1/kappa^2."""
    return fit_spec(kbar, NuMethod(iters=t, nu=nu, eta_bar=1.0 / kbar.kappa_sq))


def iterated_tikhonov_weights(kbar: NormalizedGram, t: int, lam: float) -> WeightVector:
    """Solve (Kbar + lam I) beta_s = Kbar 1_n + lam beta_{s-1} from beta_0 = 0,
    all t solves on one Cholesky factor of Kbar + lam I."""
    spec = IteratedTikhonov(iters=t, lam=lam)
    target = _target(kbar.matrix.values)
    factor = spd_factor(kbar.matrix, lam)
    beta = np.zeros(kbar.n)
    for _ in range(t):
        beta = factor.solve(target + lam * beta)
    return WeightVector(beta, spec)


def tsvd_weights(kbar: NormalizedGram, threshold: float) -> WeightVector:
    """Keep spectral components with gamma >= threshold, invert them exactly."""
    return spectral_weights(kbar, TSVD(threshold))


def fit_spec(kbar: NormalizedGram, spec: FilterSpec) -> WeightVector:
    """Weights of one filter spec on K/n, each family by its own arithmetic.

    Tikhonov and TSVD go through the spectrum of K/n (``spectral_weights``),
    which selected fits have already built. Iterated Tikhonov makes its t
    solves on one Cholesky factor of K/n + lam I when lam >=
    RESOLVENT_MIN_LAMBDA * kappa^2, with no spectrum, and goes through the
    spectrum below that floor. Landweber and the nu-method run at the step
    their spec carries, which must not exceed 1/kappa^2 of ``kbar``.
    """
    if isinstance(spec, SKMSE):
        return skmse_weights(kbar.n, spec.lam)
    if isinstance(spec, (Landweber, NuMethod)):
        return _two_term_fits([kbar], [spec])[0]
    if isinstance(spec, IteratedTikhonov) and spec.lam >= RESOLVENT_MIN_LAMBDA * kbar.kappa_sq:
        return iterated_tikhonov_weights(kbar, spec.iters, spec.lam)
    return spectral_weights(kbar, spec)


def fit_weights(
    config: EstimatorConfig,
    X: np.ndarray,
    kspec: KernelSpec,
    kbar: NormalizedGram | None = None,
    truth: tuple[np.ndarray, float] | None = None,
) -> WeightVector:
    """Fit one estimator on a sample, running its parameter selection.

    "none" fits the estimator's ``fixed`` spec; a Tikhonov spec with lam >=
    RESOLVENT_MIN_LAMBDA * kappa^2 is one iterated Tikhonov solve on a
    Cholesky factor instead of an eigendecomposition, and any other spec goes
    to ``fit_spec``. Any other rule has ``selection.select`` pick an entry of
    its ``ladder`` (the "oracle" rule against ``truth`` = (z, ||mu_P||^2)) and
    ``fit_spec`` fits it. The path depends on the rule and the spec alone, so
    a fit's bits never depend on what another estimator cached on ``kbar``.
    ``kbar`` is K/n of ``X`` under ``kspec``; it is built when not given
    (kme's uniform weights need neither).
    """
    kind = ESTIMATORS[config.name]
    if kind.spec_type is None:
        return empirical_kme_weights(as_rows(X).shape[0])
    if kbar is None:
        kbar = normalize_gram(gram_matrix(X, kspec))
    if config.selection != "none":
        chosen = select(config.selection, kbar, kind.ladder(config, kbar), truth).chosen
        return fit_spec(kbar, chosen)
    spec = kind.fixed(config, kbar.kappa_sq)
    if isinstance(spec, Tikhonov) and spec.lam >= RESOLVENT_MIN_LAMBDA * kbar.kappa_sq:
        return WeightVector(iterated_tikhonov_weights(kbar, 1, spec.lam).weights, spec)
    return fit_spec(kbar, spec)


#: The families whose fits ``fit_chunk`` stacks over a chunk of replications.
STACKED = (Landweber, NuMethod)


def fit_chunk(config: EstimatorConfig, kbars, truths) -> list[WeightVector]:
    """``fit_weights`` of a Landweber or nu-method ``config`` on each K/n of a
    chunk of replications, which share n, against each one's ``truths`` entry
    (None outside the oracle rule), with the fits stacked.

    LOOCV scores the chunk at once (``loocv_select_stacked``), the oracle
    picks per replication, and one ``two_term_path`` runs to the longest
    chosen t. A chunk whose kappa^2 values differ splits where they change,
    since kappa^2 sets the ladder's step.
    """
    kind = ESTIMATORS[config.name]
    if kind.spec_type not in STACKED:
        raise InputError(f"fit_chunk stacks Landweber and nu-method fits, not {config.name}")
    kappa_sq = kbars[0].kappa_sq
    split = next((r for r, kbar in enumerate(kbars) if kbar.kappa_sq != kappa_sq), len(kbars))
    if split < len(kbars):
        return (fit_chunk(config, kbars[:split], truths[:split])
                + fit_chunk(config, kbars[split:], truths[split:]))
    if config.selection == "none":
        specs = [kind.fixed(config, kappa_sq)] * len(kbars)
    else:
        ladder = kind.ladder(config, kbars[0])
        if config.selection == "loocv":
            specs = [result.chosen for result in loocv_select_stacked(kbars, ladder)]
        else:
            specs = [select(config.selection, kbar, ladder, truth).chosen
                     for kbar, truth in zip(kbars, truths)]
    return _two_term_fits(kbars, specs)


def _rows_and_weights(
    X: Dataset | np.ndarray, beta: WeightVector | np.ndarray, d: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The sample's rows and one weight per row; the rows must have dimension
    ``d`` when it is given."""
    rows = as_rows(X)
    weights = beta.weights if isinstance(beta, WeightVector) else np.asarray(beta, float)
    if weights.shape != (rows.shape[0],):
        raise InputError(f"weights of shape {weights.shape} for {rows.shape[0]} points")
    if d is not None and d != rows.shape[1]:
        raise InputError(f"model dimension {d} != data dimension {rows.shape[1]}")
    return rows, weights


def evaluate_estimate(
    points: Dataset | np.ndarray,
    beta: WeightVector | np.ndarray,
    spec: KernelSpec,
    query: np.ndarray,
) -> float:
    """Evaluate Sum_i beta_i k(x_i, query)."""
    rows, weights = _rows_and_weights(points, beta)
    q = np.asarray(query, dtype=float).reshape(1, -1)
    if q.shape[1] != rows.shape[1]:
        raise InputError(f"query dimension {q.shape[1]} != data dimension {rows.shape[1]}")
    return float(cross_kernel(spec, rows, q)[:, 0] @ weights)
