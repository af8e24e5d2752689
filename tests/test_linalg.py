import sys
import threading

import numpy as np
import pytest
import scipy.linalg

from kmse import linalg, risk
from kmse.errors import DefinitenessError, InputError, ReplicationError
from kmse.linalg import (
    SymMatrix,
    spd_factor,
    sym_eigendecompose,
)
from kmse.risk import EstimatorConfig, replication_losses


def random_psd(rng, dim, entry_bound=10.0):
    b = rng.uniform(-1.0, 1.0, size=(dim, dim))
    m = b @ b.T
    peak = np.abs(m).max()
    if peak > entry_bound:
        m *= entry_bound / peak
    return m


class TestSymMatrix:
    def test_symmetrizes_at_construction(self):
        m = SymMatrix(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert np.array_equal(m.values, m.values.T)
        np.testing.assert_allclose(m.values, [[1.0, 1.0], [1.0, 3.0]])

    def test_returns_the_symmetric_part(self):
        a = np.random.default_rng(3).standard_normal((7, 7))
        assert np.array_equal(SymMatrix(a).values, (a + a.T) / 2.0)

    def test_exact_keeps_the_array_read_only(self):
        a = np.random.default_rng(4).standard_normal((5, 5))
        a = a + a.T
        values = SymMatrix.exact(a).values
        assert values is a
        assert not values.flags.writeable
        with pytest.raises(InputError):
            SymMatrix.exact(np.zeros((2, 3)))

    def test_rejects_non_square(self):
        with pytest.raises(InputError):
            SymMatrix(np.zeros((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(InputError):
            SymMatrix(np.zeros((0, 0)))


class TestEigendecompose:
    def test_identity(self):
        eig = sym_eigendecompose(np.eye(3))
        np.testing.assert_allclose(eig.eigenvalues, np.ones(3))
        np.testing.assert_allclose(
            eig.eigenvectors @ eig.eigenvectors.T, np.eye(3), atol=1e-12
        )

    def test_two_by_two_by_hand(self):
        # characteristic polynomial of [[2,1],[1,2]]: (2-g)^2 - 1 = 0
        eig = sym_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 1.0], atol=1e-12)
        want_top = np.full(2, 1.0 / np.sqrt(2.0))
        got_top = eig.eigenvectors[:, 0]
        np.testing.assert_allclose(np.abs(got_top), want_top, atol=1e-12)
        got_bot = eig.eigenvectors[:, 1]
        np.testing.assert_allclose(np.abs(got_bot), want_top, atol=1e-12)
        assert abs(got_top @ got_bot) < 1e-12

    def test_reconstruction_random(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((10, 10))
        m = (m + m.T) / 2.0
        eig = sym_eigendecompose(m)
        rebuilt = eig.eigenvectors @ np.diag(eig.eigenvalues) @ eig.eigenvectors.T
        assert np.abs(rebuilt - m).max() <= 1e-8

    def test_descending_order(self):
        rng = np.random.default_rng(1)
        eig = sym_eigendecompose(random_psd(rng, 8))
        assert np.all(np.diff(eig.eigenvalues) <= 0)

    def test_rejects_non_finite(self):
        bad = np.eye(2)
        bad[0, 1] = bad[1, 0] = np.nan
        with pytest.raises(InputError):
            sym_eigendecompose(bad)

    def test_psd_invariants_many_seeds(self):
        # reconstruction <= 1e-8 and orthogonality <= 1e-10 on PSD inputs
        # with entries in [-10, 10], dims up to 50
        rng = np.random.default_rng(42)
        for trial in range(100):
            dim = int(rng.integers(2, 51))
            m = random_psd(rng, dim)
            eig = sym_eigendecompose(m)
            ortho = np.abs(eig.eigenvectors.T @ eig.eigenvectors - np.eye(dim)).max()
            rebuilt = eig.eigenvectors @ (eig.eigenvalues[:, None] * eig.eigenvectors.T)
            assert ortho <= 1e-10
            assert np.abs(rebuilt - m).max() <= 1e-8
            assert eig.eigenvalues.min() >= -1e-10 * max(1.0, eig.eigenvalues.max())


class TestSolveSpd:
    def test_identity(self):
        np.testing.assert_allclose(spd_factor(np.eye(2)).solve([1.0, 2.0]), [1.0, 2.0])

    def test_diagonal(self):
        np.testing.assert_allclose(
            spd_factor(np.diag([2.0, 4.0])).solve([2.0, 4.0]), [1.0, 1.0]
        )

    def test_two_by_two_by_hand(self):
        # inverse of [[2,1],[1,2]] is [[2,-1],[-1,2]]/3; times (3,3) gives (1,1)
        got = spd_factor(np.array([[2.0, 1.0], [1.0, 2.0]])).solve([3.0, 3.0])
        np.testing.assert_allclose(got, [1.0, 1.0], atol=1e-12)

    def test_non_pd_raises(self):
        with pytest.raises(DefinitenessError):
            spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]])).solve([1.0, 1.0])

    def test_roundtrip_random_pd(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            dim = int(rng.integers(2, 30))
            m = random_psd(rng, dim) + 0.5 * np.eye(dim)
            x = rng.standard_normal(dim)
            b = m @ x
            got = spd_factor(m).solve(b)
            assert np.linalg.norm(m @ got - b) <= 1e-8 * np.linalg.norm(b)


class TestShiftedFactor:
    def test_solves_the_shifted_system_and_leaves_the_matrix(self):
        rng = np.random.default_rng(8)
        sym = SymMatrix(random_psd(rng, 12))
        before = sym.values.copy()
        b = rng.standard_normal(12)
        got = spd_factor(sym, 0.3).solve(b)
        want = spd_factor(sym.values + 0.3 * np.eye(12)).solve(b)
        assert np.array_equal(got, want)
        assert np.array_equal(sym.values, before)

    def test_factoring_a_sym_matrix_leaves_it(self):
        rng = np.random.default_rng(9)
        sym = SymMatrix(random_psd(rng, 6) + np.eye(6))
        before = sym.values.copy()
        spd_factor(sym)
        assert np.array_equal(sym.values, before)

    def test_non_pd_shift_raises(self):
        with pytest.raises(DefinitenessError):
            spd_factor(SymMatrix(np.eye(3)), -2.0)


def scipy_blas_threads() -> int:
    """Thread count of scipy's vendored OpenBLAS, read without changing it."""
    return linalg._SCIPY_OPENBLAS.scipy_openblas_get_num_threads()


def numpy_blas_threads() -> int:
    """Thread count of numpy's vendored OpenBLAS, read without changing it."""
    return linalg._NUMPY_OPENBLAS.scipy_openblas_get_num_threads64_()


def blas_threads() -> tuple[int, int]:
    return scipy_blas_threads(), numpy_blas_threads()


@pytest.fixture
def two_blas_threads():
    """Set every vendored OpenBLAS the package found to two threads for the
    test, then put back the counts they had."""
    setters = [lib.openblas_set_num_threads_local
               for lib in (linalg._SCIPY_OPENBLAS, linalg._NUMPY_OPENBLAS) if lib is not None]
    found = [set_threads(2) for set_threads in setters]
    yield
    for set_threads, count in zip(setters, found):
        set_threads(count)


both_pinned = pytest.mark.skipif(
    not (linalg.CHOLESKY_PINNED and linalg.NUMPY_BLAS_PINNED),
    reason="numpy's or scipy's BLAS is not pinned",
)
REPLICATION_CONFIGS = [EstimatorConfig("tikhonov", selection="none", lam=0.5),
                       EstimatorConfig("landweber")]


@pytest.fixture
def record_replication_blas_threads(monkeypatch):
    """(scipy, numpy) thread counts seen at the start of every fit inside
    ``replication_losses``."""
    seen = []
    original = risk.fit_weights

    def recorded(*args, **kwargs):
        seen.append(blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(risk, "fit_weights", recorded)
    return seen


@pytest.fixture
def record_scipy_blas_threads(monkeypatch):
    """Thread counts of scipy's OpenBLAS seen inside each cho_factor and
    cho_solve call."""
    seen = []
    for name in ("cho_factor", "cho_solve"):
        original = getattr(scipy.linalg, name)

        def recorded(*args, _original=original, **kwargs):
            seen.append(scipy_blas_threads())
            return _original(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, name, recorded)
    return seen


class TestOneBlasThread:
    def test_pinned_when_scipy_vendors_openblas(self):
        blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"scipy uses {blas}, which has no pin")
        assert linalg.CHOLESKY_PINNED

    def test_numpy_pinned_when_its_wheel_vendors_openblas(self):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"numpy uses {blas}, which has no pin")
        assert linalg.NUMPY_BLAS_PINNED

    def test_unpinned_copies_have_no_setter(self):
        # a copy that was not found is left alone: the scope sets only what it holds
        pinned = [linalg.CHOLESKY_PINNED, linalg.NUMPY_BLAS_PINNED]
        assert len(linalg._ONE_BLAS_THREAD._setters) == sum(pinned)

    @pytest.mark.skipif(not linalg.CHOLESKY_PINNED, reason="scipy's BLAS is not pinned")
    def test_factor_and_solve_run_on_one_thread_then_restore(
        self, two_blas_threads, record_scipy_blas_threads
    ):
        rng = np.random.default_rng(10)
        factor = spd_factor(random_psd(rng, 150) + np.eye(150))
        assert scipy_blas_threads() == 2
        factor.solve(rng.standard_normal(150))
        assert record_scipy_blas_threads == [1, 1]
        assert scipy_blas_threads() == 2

    @pytest.mark.skipif(not linalg.CHOLESKY_PINNED, reason="scipy's BLAS is not pinned")
    def test_restores_after_a_definiteness_error(
        self, two_blas_threads, record_scipy_blas_threads
    ):
        with pytest.raises(DefinitenessError):
            spd_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert record_scipy_blas_threads == [1]
        assert scipy_blas_threads() == 2

    @pytest.mark.skipif(not linalg.CHOLESKY_PINNED, reason="scipy's BLAS is not pinned")
    def test_concurrent_factorizations_share_the_pin(
        self, two_blas_threads, record_scipy_blas_threads
    ):
        # the count is process-wide: a thread leaving while another is inside
        # must not restore it, and the last to leave must
        rng = np.random.default_rng(11)
        matrix = random_psd(rng, 20) + np.eye(20)
        b = rng.standard_normal(20)
        want = spd_factor(matrix).solve(b)
        results = []

        def work():
            for _ in range(40):
                results.append(np.array_equal(spd_factor(matrix).solve(b), want))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [True] * 240
        assert set(record_scipy_blas_threads) == {1}
        assert scipy_blas_threads() == 2

    @both_pinned
    def test_replications_run_on_one_thread_then_restore(
        self, two_blas_threads, record_replication_blas_threads
    ):
        assert blas_threads() == (2, 2)
        replication_losses(REPLICATION_CONFIGS, 20, 2, 3, seed=12)
        assert record_replication_blas_threads == [(1, 1)] * 6
        assert blas_threads() == (2, 2)

    @both_pinned
    def test_restores_after_a_replication_error(
        self, two_blas_threads, record_replication_blas_threads
    ):
        with pytest.raises(ReplicationError):
            replication_losses(REPLICATION_CONFIGS, 20, 2, 3, seed=12, bandwidth=-1.0)
        with pytest.raises(ReplicationError):
            replication_losses(
                [EstimatorConfig("kme"), EstimatorConfig("tikhonov", selection="none", lam=-1.0)],
                20, 2, 3, seed=12,
            )
        assert set(record_replication_blas_threads) == {(1, 1)}
        assert blas_threads() == (2, 2)

    @both_pinned
    def test_workers_share_one_pin_restored_once(
        self, two_blas_threads, record_replication_blas_threads, monkeypatch
    ):
        # four workers, each nesting the Cholesky scope inside the harness one:
        # each copy is set to one thread once and restored once
        calls = []

        def recording(index, set_threads):
            def wrapped(count):
                calls.append((index, count))
                return set_threads(count)
            return wrapped

        scope = linalg._ONE_BLAS_THREAD
        monkeypatch.setattr(scope, "_setters", tuple(
            recording(index, set_threads) for index, set_threads in enumerate(scope._setters)
        ))
        monkeypatch.setenv("KMSE_THREADS", "4")
        replication_losses(REPLICATION_CONFIGS, 20, 2, 8, seed=12)
        assert record_replication_blas_threads == [(1, 1)] * 16
        assert calls == [(0, 1), (1, 1), (0, 2), (1, 2)]
        assert blas_threads() == (2, 2)
