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

* Landweber and the nu-method run the shared two-term iteration
  (``filters.two_term_iterates``) with that operator against the fold
  targets U^T b_i, b_i = P_i A (1_n - e_i) / (n-1), which is (K_i/(n-1)^2) 1
  embedded; each application of the operator also scores the iterate, and
  the divergence guard is applied to every column.
* Tikhonov (one solve) and iterated Tikhonov (t solves) use the fold
  resolvent. By the Schur complement, (A_i + lam)^{-1} embedded is
  C - c_i c_i^T / C_ii with C = (A + lam)^{-1} = U diag(1/(gamma + lam)) U^T
  and c_i = C e_i, again a diagonal plus a rank-one term in the eigenbasis.
  The t solves are unrolled: the rank-one multipliers of all solves follow
  from two matrix products and a lower-triangular Toeplitz recursion per
  fold, and a third product assembles the fit, so no grid point loops over
  solves (O(n^2 t + n t^2) per grid point).
* S-KMSE's fold fit is the uniform vector scaled by 1/(1+lam), so its score
  needs only the column sums of K.

With m = n - 1 and beta_i = 0, fold i's score is

    beta^T K_i beta - 2 k_i^T beta + K_ii
        = m sum_k gamma_k x_k^2 - 2 m (U Gamma x)_i + K_ii.

The work is one eigendecomposition plus O(n^2) per iteration or grid point
(times t for iterated Tikhonov, in matrix products).
Iterative methods are scored along their whole iteration path (the path
comes for free); lambda methods are scored on a grid. TSVD truncation levels
are picked by GCV on the projection residual. Ties always break toward the
smaller parameter. The oracle rule, where the true loss is known, keeps the
candidate of least loss. Every selector takes K/n and a ladder, one family
varying one field (``lam``, ``iters`` = 1..T or ``threshold``), as ``(kbar,
ladder)``, checks it with ``_check_ladder`` and scores the values it returns.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import _guard, _target, _validate_step, fit_spec, two_term_path
from .filters import SKMSE, TSVD, FilterSpec, IteratedTikhonov, Landweber, NuMethod, Tikhonov
from .filters import two_term_iterates, two_term_steps
from .kernels import NormalizedGram

#: Doubles the resolvent scorer stacks per chunk of grid points, g n (n + t):
#: stacking the whole grid raised peak memory and ran slower at n = 50.
_CHUNK_DOUBLES = 2**14


@dataclass(frozen=True, eq=False)
class SelectionResult:
    """Chosen filter plus the full (parameter, score) path that produced it."""

    chosen: FilterSpec
    score_path: list[tuple[float, float]]
    score_kind: str


def _argmin_first(scores: np.ndarray) -> int:
    # np.argmin returns the first occurrence, i.e. the smaller parameter
    return int(np.argmin(scores))


#: The field each family's ladder varies; its entries agree on every other one.
_VARIED = {SKMSE: "lam", Tikhonov: "lam", IteratedTikhonov: "lam", TSVD: "threshold",
           Landweber: "iters", NuMethod: "iters"}
_ITERATIONS = (Landweber, NuMethod)


def _check_ladder(ladder, rule: str, families) -> tuple[FilterSpec, np.ndarray]:
    """The last entry of ``ladder`` and its varied-field values, after refusing an
    empty ladder, a last entry of none of ``families`` and an entry that differs
    from the last in another field (iteration ladders must count t = 1..T)."""
    if len(ladder) == 0:
        raise InputError(f"{rule} selection needs at least one candidate")
    last = ladder[-1]
    if type(last) not in families:
        raise InputError(f"no {rule} selector for a {type(last).__name__} ladder: "
                         f"entry {len(ladder) - 1} is {last!r}")
    field = _VARIED[type(last)]
    counts = field == "iters"
    values = range(1, len(ladder) + 1) if counts else [getattr(s, field, None) for s in ladder]
    for i, (spec, value) in enumerate(zip(ladder, values)):
        if type(spec) is not type(last) or vars(spec) != {**vars(last), field: value}:
            kind, want = ("iteration", f"step {i + 1}") if counts else (field, f"another {field}")
            raise InputError(f"{kind} ladder entry {i} is {spec!r}, not {want} of {last!r}")
    return last, np.array(values, dtype=float)


def _check_loocv(kbar: NormalizedGram, ladder, families) -> tuple[FilterSpec, np.ndarray]:
    if kbar.n < 3:
        raise InputError("LOOCV needs at least three points")
    return _check_ladder(ladder, "loocv", families)


def _result(ladder, params, scores: np.ndarray, kind: str) -> SelectionResult:
    path = [(float(p), float(s)) for p, s in zip(params, scores)]
    return SelectionResult(
        chosen=ladder[_argmin_first(scores)], score_path=path, score_kind=kind
    )


@dataclass(frozen=True, eq=False)
class _FoldBasis:
    """The eigenbasis of A = K/(n-1) shared by all n leave-one-out folds.

    Column i of ``ut`` is u_i and column i of ``targets`` is fold i's target
    U^T b_i. ``_fold_basis`` builds one per K/n for all its LOOCV selectors.
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

    def _score_parts(self, X: np.ndarray):
        gx = self.gammas[:, None] * X
        held_out = np.einsum("ki,...ki->...i", self.ut, gx)  # (A beta_i)_i
        quad = np.einsum("...ki,...ki->...i", gx, X)  # beta_i^T A beta_i
        score = np.sum(self.m * (quad - 2.0 * held_out) + self.k_diag, axis=-1)
        return gx, held_out, score

    def apply(self, X: np.ndarray) -> tuple[np.ndarray, float]:
        """Every fold's operator applied to its column of X, and the summed
        fold scores of X: (U^T P_i A beta_i for each i, sum_i score_i)."""
        gx, held_out, score = self._score_parts(X)
        return gx - self.ut * held_out, float(score)

    def scores(self, X: np.ndarray) -> np.ndarray:
        """The summed fold scores of X, or of each matrix in a stack of them."""
        return self._score_parts(X)[2]


#: The fold basis of each live K/n; an entry goes when its K/n is collected.
_FOLD_BASES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _fold_basis(kbar: NormalizedGram) -> _FoldBasis:
    """The fold basis of ``kbar``, built on first use and shared afterwards."""
    basis = _FOLD_BASES.get(kbar)
    if basis is None:
        basis = _FOLD_BASES[kbar] = _FoldBasis.of(kbar)
    return basis


def _iteration_scores(kbar: NormalizedGram, steps) -> np.ndarray:
    """Mean held-out squared RKHS distance after each step of ``steps``."""
    basis = _fold_basis(kbar)
    scores = []

    def apply(X):  # every iterate is applied once; its score comes along
        applied, score = basis.apply(X)
        scores.append(score)
        return applied

    for X in two_term_iterates(steps, basis.targets, apply):
        _guard(X, basis.m)
    return np.array(scores) / kbar.n


def loocv_select_iterations(kbar: NormalizedGram, ladder) -> SelectionResult:
    """Pick the iteration count of a Landweber or nu-method ladder, which holds
    t = 1, 2, ... in order, by LOOCV on K/n ``kbar``."""
    last, iters = _check_loocv(kbar, ladder, _ITERATIONS)
    _validate_step(last, kbar.kappa_sq)
    return _result(ladder, iters, _iteration_scores(kbar, two_term_steps(last)), "LOOCV")


def _skmse_scores(kbar: NormalizedGram, lams: np.ndarray) -> np.ndarray:
    """Fold i refits (1/(1+lam)) 1_{n-1}/(n-1); its score needs K's sums."""
    n = kbar.n
    m = n - 1
    total = n * kbar.matrix.values.sum()
    trace = n * np.trace(kbar.matrix.values)
    # sum over folds of 1^T K_i 1 / m^2 and of mean(k_i)
    quad = ((n - 2) * total + trace) / m**2
    cross = (total - trace) / m
    shrink = 1.0 / (1.0 + lams)
    return (shrink**2 * quad - 2.0 * shrink * cross + trace) / n


def _resolvent_scores(kbar: NormalizedGram, lams: np.ndarray, solves: int) -> np.ndarray:
    """Scores of t = ``solves`` Tikhonov solves from beta = 0 per lambda in
    ``lams``: one solve is Tikhonov, t solves are iterated Tikhonov.

    With d = 1/(gamma + lam) and W = lam d, solve s of fold i is
    X_s = W X_{s-1} + d T_i - alpha_s d u_i, where alpha_s makes
    (U X_s)_i = 0 (the Schur correction). Unrolled from X_0 = 0,

        X_t = d G_t T_i - d u_i sum_s alpha_s W^(t-s),   G_s = sum_{j<s} W^j,
        alpha_s Q_0 = M_s - sum_{r<s} alpha_r Q_{s-r},

    with M_s = sum_k u_k T_k d_k G_{s,k} and Q_j = sum_k u_k^2 d_k W_k^j. M and
    Q are two matrix products for all folds, alpha is a lower-triangular
    Toeplitz solve per fold, and the sum over s is a third product. Grid
    points are stacked in chunks of at most about ``_CHUNK_DOUBLES``.
    """
    basis = _fold_basis(kbar)
    n = kbar.n
    u_targets = basis.ut * basis.targets
    u_sq = basis.ut * basis.ut
    chunk = max(1, _CHUNK_DOUBLES // (n * (n + solves)))
    scores = np.empty(len(lams))
    for start in range(0, len(lams), chunk):
        lam = lams[start:start + chunk, None]
        inv = 1.0 / (basis.gammas + lam)  # d, one row per grid point
        powers = np.empty((len(lam), n, solves))  # W^j, j = 0..t-1
        powers[..., 0] = 1.0
        np.cumprod(
            np.broadcast_to((lam * inv)[..., None], powers[..., 1:].shape),
            axis=-1,
            out=powers[..., 1:],
        )
        geometric = np.cumsum(powers, axis=-1)  # G_s, s = 1..t
        powers *= inv[..., None]  # d W^j
        # (grid, step, fold) stacks of M_s and Q_j
        M = np.matmul((inv[..., None] * geometric).transpose(0, 2, 1), u_targets)
        Q = np.matmul(powers.transpose(0, 2, 1), u_sq)
        lags = Q[:, :0:-1] / Q[:, :1]  # lags[:, t-1-j] = Q_j / Q_0, j >= 1
        alpha = M / Q[:, :1]
        for s in range(1, solves):
            alpha[:, s] -= np.einsum("gri,gri->gi", alpha[:, :s], lags[:, solves - 1 - s:])
        # column i of P[g] is d sum_s alpha_s W^(t-s); contiguous for BLAS
        P = np.matmul(powers, np.ascontiguousarray(alpha[:, ::-1]))
        P *= basis.ut
        X = (inv * geometric[..., -1])[..., None] * basis.targets
        X -= P
        scores[start:start + chunk] = basis.scores(X)
    return scores / n


def loocv_select_lambda(kbar: NormalizedGram, ladder) -> SelectionResult:
    """Pick the lambda of an S-KMSE, Tikhonov or iterated-Tikhonov ladder by
    LOOCV on K/n ``kbar``, all folds from one eigendecomposition."""
    last, lams = _check_loocv(kbar, ladder, (SKMSE, Tikhonov, IteratedTikhonov))
    if isinstance(last, SKMSE):
        return _result(ladder, lams, _skmse_scores(kbar, lams), "LOOCV")
    solves = last.iters if isinstance(last, IteratedTikhonov) else 1
    return _result(ladder, lams, _resolvent_scores(kbar, lams, solves), "LOOCV")


def gcv_select_tsvd(kbar: NormalizedGram, ladder) -> SelectionResult:
    """Pick the TSVD truncation level by generalized cross-validation.

    With H_m the projector onto the top-m eigenvectors of Kbar,
    GCV(m) = ||(I - H_m) Kbar 1_n||^2 / (1 - m/n)^2; GCV(n) is +inf by
    definition. Levels whose eigenvalue is zero are not valid thresholds
    and are excluded. Returns the ``ladder`` entry at gamma_m of the argmin.
    """
    n = kbar.n
    _, thresholds = _check_ladder(ladder, "gcv", (TSVD,))
    eig = kbar.spectrum
    gammas = np.clip(eig.eigenvalues, 0.0, None)
    sq = (eig.eigenvectors.T @ _target(kbar.matrix.values)) ** 2
    # residual^2 after keeping the top m components, for m = 1..n
    tail = np.concatenate([np.cumsum(sq[::-1])[::-1], [0.0]])  # tail[m] = sum_{i>m} sq
    # levels 1..n-1, up to the numerical rank: no valid threshold beyond it
    head = gammas[: n - 1] > 0.0
    levels = np.arange(1, (n - 1 if head.all() else int(np.argmin(head))) + 1)
    if len(levels) == 0:
        raise InputError("GCV needs at least two points and a positive eigenvalue of K/n")
    scores = tail[levels] / (1.0 - levels / n) ** 2
    m_star = int(levels[_argmin_first(scores)])
    # tied eigenvalues share one threshold, so a level's ladder index can be lower
    chosen = dict(zip(thresholds, ladder)).get(gammas[m_star - 1])
    if chosen is None:
        raise InputError(f"no ladder entry has GCV level {m_star}'s threshold {gammas[m_star - 1]}")
    path = [(float(m), float(s)) for m, s in zip(levels, scores)]
    return SelectionResult(chosen=chosen, score_path=path, score_kind="GCV")


def oracle_select(kbar: NormalizedGram, ladder, loss) -> SelectionResult:
    """Pick the ladder entry whose weights on K/n ``kbar`` have the smallest
    true loss ``loss(weights)``; the path holds (index, loss) per entry. One
    two-term path fits every count of a Landweber or nu-method ladder."""
    if loss is None:
        raise InputError("oracle selection needs a loss callback")
    last, _ = _check_ladder(ladder, "oracle", _VARIED)
    _validate_step(last, kbar.kappa_sq)
    if isinstance(last, _ITERATIONS):
        candidates = two_term_path(kbar.matrix.values, two_term_steps(last))
    else:
        candidates = (fit_spec(kbar, spec).weights for spec in ladder)
    losses = np.array([loss(w) for w in candidates])
    return _result(ladder, range(len(ladder)), losses, "oracle")


def select(rule: str, kbar: NormalizedGram, ladder, loss=None) -> SelectionResult:
    """Choose from ``ladder`` on K/n ``kbar`` by ``rule``: "loocv" (lambda or,
    by the last entry, iteration ladders), "gcv" (TSVD) or "oracle" (any family),
    which minimizes ``loss``. The rule's selector checks ``ladder`` (``_check_ladder``)."""
    # the selectors are looked up per call, so a wrapped module binding is seen
    if rule == "oracle":
        return oracle_select(kbar, ladder, loss)
    if rule == "gcv":
        return gcv_select_tsvd(kbar, ladder)
    if rule != "loocv":
        raise InputError(f"unknown selection rule {rule!r}")
    if len(ladder) > 0 and isinstance(ladder[-1], _ITERATIONS):
        return loocv_select_iterations(kbar, ladder)
    return loocv_select_lambda(kbar, ladder)
