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

With m = n - 1 and beta_i = 0, fold i's score is

    beta^T K_i beta - 2 k_i^T beta + K_ii
        = m sum_k gamma_k x_k^2 - 2 m (U Gamma x)_i + K_ii,

and its target is T_i = U^T b_i, b_i = P_i A (1_n - e_i) / (n-1), which is
(K_i/(n-1)^2) 1 embedded. Column i of an n x n matrix holds fold i. Each
family has one scorer:

* Tikhonov (``_tikhonov_scores``): by the Schur complement, (A_i + lam)^{-1}
  embedded is C - c_i c_i^T / C_ii with C = (A + lam)^{-1} = U diag(1/(gamma
  + lam)) U^T and c_i = C e_i, a diagonal plus a rank-one term in the
  eigenbasis. Each fold's score then needs only sums over k of fold
  moments: three (grid x n) @ (n x n) products against v∘v, u∘v and u∘u,
  with v_i = (U^T 1_n - u_i)/m. No fold fit is formed.
* Landweber (``_landweber_scores``): the fold residuals r_q follow a
  diagonal-plus-rank-one recursion whose rank-one coefficients a_q obey a
  lower-triangular Toeplitz recursion in moments of w^q, w = 1 - eta gamma.
  The fold operator is symmetric on u_i's complement, so r_j^T Gamma r_l and
  r_j^T r_l depend on j + l alone. The score and the norm the divergence
  guard checks then read off for every t from 2T - 1 such inner products
  per fold, four (2T - 1) x n x n products in all.
* Iterated Tikhonov (``_resolvent_scores``, t solves): the same resolvent,
  with the t solves unrolled. The rank-one multipliers of all solves follow
  from two matrix products and a Toeplitz recursion per fold, and a third
  product assembles the fits X, which are scored directly (O(n^2 t + n t^2)
  per grid point).
* The nu-method (``_iteration_scores``) runs the shared two-term iteration
  (``filters.two_term_iterates``) with the fold operator on all columns of X
  at once; each application of the operator also scores the iterate, and the
  divergence guard is applied to every column.
* S-KMSE's fold fit is the uniform vector scaled by 1/(1+lam), so its score
  needs only the column sums of K.

The work is one eigendecomposition plus a few n x n matrix products per
ladder (Tikhonov, Landweber), per grid point (iterated Tikhonov, times t)
or per iteration (nu). TSVD truncation levels are picked by GCV on the
projection residual. The oracle rule keeps the candidate of least true loss,
scored from the spectrum of K/n and the ground truth. Exact ties break toward
the smaller parameter; scores equal only in exact arithmetic, as on a
converged Landweber plateau, differ in their last bits and rounding picks.
Every selector takes K/n and a ladder, one family varying one field (``lam``,
``iters`` = 1..T or ``threshold``), as ``(kbar, ladder)``, checks it with
``_check_ladder`` and scores the values it returns.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .estimators import _guard, _guard_norms, _target, _validate_step
from .filters import SHRINKAGE_FIELD, SKMSE, TSVD, FilterSpec, IteratedTikhonov, Landweber
from .filters import NuMethod, Tikhonov, retention_matrix, two_term_iterates, two_term_steps
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
    # np.argmin's first occurrence: the smaller parameter of an exact tie only
    return int(np.argmin(scores))


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
    field = SHRINKAGE_FIELD[type(last)]
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
    if isinstance(last, Landweber):
        scores = _landweber_scores(kbar, last.eta, len(iters))
    else:
        scores = _iteration_scores(kbar, two_term_steps(last))
    return _result(ladder, iters, scores, "LOOCV")


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


def _tikhonov_scores(kbar: NormalizedGram, lams: np.ndarray) -> np.ndarray:
    """Scores of one Tikhonov solve from beta = 0 per lambda in ``lams``.

    With d = 1/(gamma + lam), s = U^T 1_n and v_i = (s - u_i)/m, fold i's
    target is T_i = Gamma v_i - c_i u_i, c_i = ((A 1_n)_i - A_ii)/m. Its fit
    x_i = d T_i - alpha d u_i has (U x_i)_i = 0; folding c_i into alpha,

        x_i = d (Gamma v_i - b_i u_i),   b_i = sum gamma d u v / sum d u^2,
        quad_i = sum gamma^3 d^2 v^2 - 2 b_i sum gamma^2 d^2 u v + b_i^2 sum gamma d^2 u^2,
        held_i = sum gamma^2 d u v - b_i sum gamma d u^2,

    sums over k. Each sum is one (grid x n) @ (n x n) product against v∘v,
    u∘v or u∘u, so no fold fit is formed. T and c_i never enter: expanded
    in T instead, the terms cancel where gamma/lam spans many decades, and
    ``TestLoocvMatchesPerFoldRefit::test_cancellation_region`` fails.
    """
    basis = _fold_basis(kbar)
    gammas, ut = basis.gammas, basis.ut
    v = (ut.sum(axis=1)[:, None] - ut) / basis.m
    inv = 1.0 / (gammas + lams[:, None])  # d, one row per grid point
    gd = gammas * inv
    # (term, grid point, fold) sums against u∘v and u∘u
    uv = (np.vstack([gd, gd * gd, gammas * gd]) @ (ut * v)).reshape(3, len(lams), -1)
    uu = (np.vstack([inv, gd * inv, gd]) @ (ut * ut)).reshape(3, len(lams), -1)
    b = uv[0] / uu[0]
    quad = (gammas * gd * gd) @ (v * v) - 2.0 * b * uv[1] + b * b * uu[1]
    held = uv[2] - b * uu[2]
    return (basis.m * (quad - 2.0 * held) + basis.k_diag).sum(axis=1) / kbar.n


def _landweber_scores(kbar: NormalizedGram, eta: float, steps: int) -> np.ndarray:
    """Scores of Landweber iterates t = 1..``steps`` at step ``eta``.

    Fold i's residual r_q = T_i - U^T P_i A beta_q runs r_{q+1} = W r_q +
    eta u_i a_q with W = I - eta Gamma and a_q = u_i^T Gamma r_q, and x_t =
    eta sum_{j<t} r_j. On u_i's complement the fold operator is symmetric,
    both plainly and in the Gamma inner product, so r_j^T Gamma r_l and
    r_j^T r_l depend on j + l = q alone. With w = 1 - eta gamma, per fold,

        a_q   = e_q + eta sum_{s<q} h_{q-1-s} a_s,
        mu_q  = f_q + eta sum_{s<q} e_{q-1-s} a_s,
        rho_q = g_q + eta sum_{s<q} ehat_{q-1-s} a_s,

    for q < 2 steps - 1, with the moments e_q = sum gamma w^q u T, h_q = sum
    gamma w^q u^2, ehat_q = sum w^q u T, g_q = sum w^q T^2 and f_q = sum
    gamma w^q T^2 over k: (q x n) @ (n x n) products. With N_t(q) = max(0,
    min(q + 1, 2t - 1 - q)) pairs j, l < t summing to q, every t reads off at
    once: x_t^T Gamma x_t = eta^2 sum_q N_t(q) mu_q, (U Gamma x_t)_i = eta
    sum_{j<t} a_j and ||x_t||^2 = eta^2 sum_q N_t(q) rho_q, which the
    divergence guard checks for every fold and t. A step above 2/gamma_max
    can overflow the moments; inf and NaN fail the guard.
    """
    basis = _fold_basis(kbar)
    gammas, ut, targets, n = basis.gammas, basis.ut, basis.targets, kbar.n
    lags = 2 * steps - 1
    t = np.arange(1, steps + 1)[:, None]
    q = np.arange(lags)
    pairs = eta**2 * np.maximum(0, np.minimum(q + 1, 2 * t - 1 - q))  # eta^2 N_t(q)
    with np.errstate(over="ignore", invalid="ignore"):
        powers = np.empty((lags, n))  # w^q
        powers[0] = 1.0
        np.cumprod(np.broadcast_to(1.0 - eta * gammas, (lags - 1, n)), axis=0, out=powers[1:])
        weighted = gammas * powers
        u_targets, sq_targets = (ut * targets).T, (targets * targets).T
        # (fold, moment, q): h, e and ehat, each convolved with a below
        moments = np.empty((n, 3, lags))
        moments[:, 0] = (ut * ut).T @ weighted.T
        moments[:, 1] = u_targets @ weighted.T
        moments[:, 2] = u_targets @ powers.T
        lagged = np.ascontiguousarray(moments[..., ::-1])  # lag j at lags - 1 - j
        sums = np.zeros((n, 3, lags))  # eta sum_{s<q} moment_{q-1-s} a_s
        a = moments[:, 1].copy()
        for lag in range(1, lags):
            sums[..., lag] = eta * np.einsum("ijs,is->ij", lagged[..., lags - lag:], a[:, :lag])
            a[:, lag] += sums[:, 0, lag]
        mu = weighted @ sq_targets.sum(axis=0) + sums[:, 1].sum(axis=0)
        rho = sq_targets @ powers.T + sums[:, 2]
        _guard_norms(rho @ pairs.T, basis.m)
    quad = pairs @ mu
    held = eta * np.cumsum(a[:, :steps].sum(axis=0))
    return (basis.m * (quad - 2.0 * held) + basis.k_diag.sum()) / n


def _resolvent_scores(kbar: NormalizedGram, lams: np.ndarray, solves: int) -> np.ndarray:
    """Scores of t = ``solves`` iterated Tikhonov solves from beta = 0 per
    lambda in ``lams``.

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
    if isinstance(last, Tikhonov):
        return _result(ladder, lams, _tikhonov_scores(kbar, lams), "LOOCV")
    return _result(ladder, lams, _resolvent_scores(kbar, lams, last.iters), "LOOCV")


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


def oracle_select(kbar: NormalizedGram, ladder, truth) -> SelectionResult:
    """Pick the ladder entry of least true loss against ``truth`` = (z,
    ||mu_P||^2), z_i = <k(x_i, .), mu_P>, fitting none; the path holds (index,
    loss) per entry. With K/n = U Gamma U^T and c = U^T 1_n, retention rho has
    loss n sum gamma rho^2 c^2 - 2 sum rho c U^T z + ||mu_P||^2."""
    if truth is None:
        raise InputError("oracle selection needs the ground truth (z, ||mu_P||^2)")
    last, params = _check_ladder(ladder, "oracle", SHRINKAGE_FIELD)
    _validate_step(last, kbar.kappa_sq)
    eig = kbar.spectrum
    gammas = np.clip(eig.eigenvalues, 0.0, None)
    coeff = eig.eigenvectors.T @ np.full(kbar.n, 1.0 / kbar.n)
    kept = retention_matrix(last, params, gammas)
    losses = (kept * kept) @ (kbar.n * gammas * coeff**2) + truth[1]
    losses -= 2.0 * kept @ (coeff * (eig.eigenvectors.T @ truth[0]))
    return _result(ladder, range(len(ladder)), losses, "oracle")


def select(rule: str, kbar: NormalizedGram, ladder, truth=None) -> SelectionResult:
    """Choose from ``ladder`` on K/n ``kbar`` by ``rule``: "loocv" (lambda or,
    by the last entry, iteration ladders), "gcv" (TSVD) or "oracle" (any family,
    against ``truth``). The rule's selector checks ``ladder`` (``_check_ladder``)."""
    # the selectors are looked up per call, so a wrapped module binding is seen
    if rule == "oracle":
        return oracle_select(kbar, ladder, truth)
    if rule == "gcv":
        return gcv_select_tsvd(kbar, ladder)
    if rule != "loocv":
        raise InputError(f"unknown selection rule {rule!r}")
    if len(ladder) > 0 and isinstance(ladder[-1], _ITERATIONS):
        return loocv_select_iterations(kbar, ladder)
    return loocv_select_lambda(kbar, ladder)
