import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.errors import DomainError, NotHermitianError, NotPsdError
from cnpick.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    eig_hermitian,
    hermitian_part,
    inv_sqrt_psd,
    is_psd,
    operator_norm,
    sqrt_psd,
)

from conftest import random_hermitian, random_psd, rng_for


class TestEigHermitian:
    def test_identity(self):
        w, v = eig_hermitian(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])
        assert np.allclose(v @ v.conj().T, np.eye(2))

    def test_symmetric_2x2(self):
        w, _ = eig_hermitian(np.array([[1.0, 2.0], [2.0, 1.0]]))
        assert np.allclose(w, [-1.0, 3.0])

    def test_diagonal(self):
        w, _ = eig_hermitian(np.diag([5.0, -3.0, 0.0]))
        assert np.allclose(w, [-3.0, 0.0, 5.0])

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            eig_hermitian(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction(self, seed):
        a = random_hermitian(rng_for(seed), int(rng_for(seed).integers(1, 9)))
        w, v = eig_hermitian(a)
        residual = operator_norm(a - v @ np.diag(w) @ v.conj().T)
        assert residual <= DEFAULT_TOL.residual_tol * (1.0 + operator_norm(a))
        assert operator_norm(v @ v.conj().T - np.eye(a.shape[0])) <= DEFAULT_TOL.residual_tol


class TestIsPsd:
    def test_identity(self):
        verdict, min_eig = is_psd(np.eye(3))
        assert verdict and min_eig == pytest.approx(1.0)

    def test_rank_one(self):
        verdict, min_eig = is_psd(np.array([[1.0, 1.0], [1.0, 1.0]]))
        assert verdict and abs(min_eig) < 1e-12

    def test_infeasible_pick_fixture(self):
        # Unconstrained Pick matrix of nodes (0.1, -0.1), targets (0.8, -0.8).
        a = np.array([[0.3636, 1.6238], [1.6238, 0.3636]])
        verdict, min_eig = is_psd(a)
        assert not verdict
        assert min_eig == pytest.approx(-1.2602, abs=1e-4)

    @pytest.mark.parametrize("seed", range(15))
    def test_sum_of_psd_is_psd(self, seed):
        rng = rng_for(seed)
        n = int(rng.integers(1, 8))
        a, b = random_psd(rng, n), random_psd(rng, n)
        assert is_psd(a)[0] and is_psd(b)[0] and is_psd(a + b)[0]

    def test_tolerance_validation(self):
        for bad in ({"psd_tol": -1.0}, {"psd_tol": np.inf}, {"residual_tol": np.nan}):
            with pytest.raises(DomainError):
                ToleranceConfig(**bad)


class TestSqrtPsd:
    def test_identity(self):
        assert np.allclose(sqrt_psd(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_projection_idempotent(self, rng):
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(v)
        proj = q @ q.conj().T
        assert np.allclose(sqrt_psd(proj), proj, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_square_reconstructs(self, seed):
        a = random_psd(rng_for(seed), 5)
        s = sqrt_psd(a)
        assert is_psd(s)[0]
        assert operator_norm(s @ s - a) <= DEFAULT_TOL.residual_tol * (1 + operator_norm(a))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            sqrt_psd(np.diag([1.0, -1.0]))

    def test_inverse_root(self, rng):
        a = random_psd(rng, 4) + np.eye(4)
        r = inv_sqrt_psd(a)
        assert np.allclose(r @ a @ r, np.eye(4), atol=1e-9)


class TestOperatorNorm:
    def test_zero(self):
        assert operator_norm(np.zeros((3, 2))) == 0.0

    def test_unitary(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        assert operator_norm(q) == pytest.approx(1.0)

    def test_nilpotent(self):
        assert operator_norm(np.array([[0.0, 2.0], [0.0, 0.0]])) == pytest.approx(2.0)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
)
def test_operator_norm_same_bits_as_norm_2(seed, rows, cols):
    rng = rng_for(seed)
    a = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    assert operator_norm(a) == float(np.linalg.norm(a, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=8))
def test_hermitian_part_fixes_asymmetry(seed, n):
    rng = rng_for(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    h = hermitian_part(a)
    assert np.array_equal(h, h.conj().T)
