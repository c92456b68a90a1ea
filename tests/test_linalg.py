import collections
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnpick.errors import DomainError, NotHermitianError, NotPsdError
from cnpick.linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _psd_root,
    hermitian_part,
    is_psd,
    operator_norm,
)

from conftest import inv_sqrt_psd_oracle, random_hermitian, random_psd, rng_for, sqrt_psd_oracle


class TestEigHermitian:
    """The checked Hermitian eigendecomposition inside ``_psd_root``: its
    refusals, and the spectrum it reports through the PSD floor."""

    def test_identity(self):
        assert np.allclose(_psd_root(np.eye(2), DEFAULT_TOL), np.eye(2))
        assert np.allclose(_psd_root(np.eye(2), DEFAULT_TOL, inverse=True), np.eye(2))

    def test_symmetric_2x2(self):
        a = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1 and 3
        with pytest.raises(NotPsdError, match="min eigenvalue -1.000e"):
            _psd_root(a, DEFAULT_TOL)
        assert np.allclose(_psd_root(a + np.eye(2), DEFAULT_TOL), np.ones((2, 2)))

    def test_diagonal(self):
        with pytest.raises(NotPsdError, match="min eigenvalue -3.000e"):
            _psd_root(np.diag([5.0, -3.0, 0.0]), DEFAULT_TOL)
        root = _psd_root(np.diag([5.0, 3.0, 0.0]), DEFAULT_TOL)
        assert np.allclose(root, np.diag(np.sqrt([5.0, 3.0, 0.0])))

    def test_rejects_non_square(self):
        with pytest.raises(DomainError):
            _psd_root(np.ones((2, 3)), DEFAULT_TOL)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            _psd_root(np.array([[0.0, 1.0], [0.0, 0.0]]), DEFAULT_TOL)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            _psd_root(np.array([[np.nan, 0.0], [0.0, 1.0]]), DEFAULT_TOL)

    @pytest.mark.parametrize("seed", range(20))
    def test_reconstruction(self, seed):
        # a^2 has a's eigenvectors, so its root squares back and its inverse root inverts.
        a = random_hermitian(rng_for(seed), int(rng_for(seed).integers(1, 9)))
        square = hermitian_part(a @ a) + np.eye(a.shape[0])
        root = _psd_root(square, DEFAULT_TOL)
        inverse = _psd_root(square, DEFAULT_TOL, inverse=True)
        bound = DEFAULT_TOL.residual_tol * (1.0 + operator_norm(square))
        assert operator_norm(root @ root - square) <= bound
        assert operator_norm(inverse @ square @ inverse - np.eye(len(a))) <= DEFAULT_TOL.residual_tol


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
        assert np.allclose(_psd_root(np.eye(3), DEFAULT_TOL), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(_psd_root(np.diag([4.0, 9.0]), DEFAULT_TOL), np.diag([2.0, 3.0]))

    def test_projection_idempotent(self, rng):
        v = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        q, _ = np.linalg.qr(v)
        proj = q @ q.conj().T
        assert np.allclose(_psd_root(proj, DEFAULT_TOL), proj, atol=1e-10)

    @pytest.mark.parametrize("seed", range(10))
    def test_square_reconstructs(self, seed):
        a = random_psd(rng_for(seed), 5)
        s = _psd_root(a, DEFAULT_TOL)
        assert is_psd(s)[0]
        assert operator_norm(s @ s - a) <= DEFAULT_TOL.residual_tol * (1 + operator_norm(a))

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsdError):
            _psd_root(np.diag([1.0, -1.0]), DEFAULT_TOL)

    def test_inverse_root(self, rng):
        a = random_psd(rng, 4) + np.eye(4)
        r = _psd_root(a, DEFAULT_TOL, inverse=True)
        assert np.allclose(r @ a @ r, np.eye(4), atol=1e-9)


def _root_cases(count=1_500):
    """Seeded matrices of size 1-8: PD, PSD and singular PSD (400 each), then 300
    that add indefinite ones and singular PSD ones perturbed into the tolerance
    band or off Hermitian, then the empty matrix."""
    for seed in range(count):
        rng = rng_for(770_000 + seed)
        n = int(rng.integers(1, 9))
        kind = seed % 5 if seed >= 1_200 else seed % 3
        if kind == 0:
            yield random_psd(rng, n) + np.eye(n)
        elif kind == 1:
            yield random_psd(rng, n)
        elif kind == 2:
            yield random_psd(rng, n, rank=int(rng.integers(0, n)))
        elif kind == 3:
            yield random_hermitian(rng, n)
        else:
            a = random_psd(rng, n, rank=int(rng.integers(0, n)))
            a += float(rng.choice([-1e-12, 1e-9, 1e-6])) * rng.standard_normal((n, n))
            yield a
    yield np.zeros((0, 0))


def _outcome(root, a):
    try:
        return root(a).tobytes()
    except Exception as exc:
        return type(exc), str(exc)


def test_psd_root_matches_separate_roots():
    # Both directions of the helper keep the bits and the refusals of the separate roots.
    # A zero PSD tolerance puts exact zero eigenvalues on the floor; a tight residual
    # tolerance puts the perturbed cases on both sides of the Hermitian check.
    tols = (DEFAULT_TOL, ToleranceConfig(psd_tol=0.0, residual_tol=1e-10))
    refusals = collections.Counter()
    for a, tol in itertools.product(_root_cases(), tols):
        for inverse, oracle in ((False, sqrt_psd_oracle), (True, inv_sqrt_psd_oracle)):
            got = _outcome(lambda m: _psd_root(m, tol, inverse=inverse), a)
            assert got == _outcome(lambda m: oracle(m, tol), a)
            if isinstance(got, tuple):
                refusals[inverse, got[0]] += 1
    # Singular PSD input and the tail refuse, each error in both directions.
    errors = (NotPsdError, NotHermitianError)
    assert set(refusals) == {(inverse, error) for inverse in (False, True) for error in errors}


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
