"""Dense complex Hermitian linear-algebra primitives with an explicit
tolerance policy.

Everything in this package eventually reduces to a handful of operations
on small dense complex matrices: Hermitian eigendecomposition,
positive-semidefiniteness tests and PSD square roots.  They live here so
the tolerance policy is defined in exactly one place.

Conventions
-----------
* PSD tests are relative: ``A`` counts as positive semidefinite when
  ``lambda_min(A) >= -psd_tol * (1 + ||A||)``, with the spectral norm
  taken from the same eigendecomposition.  Relative scaling keeps the
  verdict stable across matrix magnitudes.
* Inputs are symmetrized as ``(A + A*) / 2`` before eigen-analysis.
  Builders upstream introduce rounding asymmetry of order 1e-16 and the
  tests must not be sensitive to it.

All functions are pure and reentrant; none keeps mutable state.
"""

from __future__ import annotations


import numpy as np

from .errors import DomainError, NotHermitianError, NotPsdError
from .record import Record

__all__ = [
    "ToleranceConfig",
    "DEFAULT_TOL",
    "hermitian_part",
    "eig_hermitian",
    "is_psd",
    "psd_margin",
    "sqrt_psd",
    "inv_sqrt_psd",
    "operator_norm",
]


class ToleranceConfig(Record):
    """Numerical tolerances used by every PSD test and residual check.

    psd_tol
        Relative eigenvalue slack in positive-semidefiniteness verdicts.
    residual_tol
        Relative slack for equation residuals and Hermitian symmetry
        checks.
    """

    psd_tol: float
    residual_tol: float

    def __init__(self, psd_tol=1e-9, residual_tol=1e-8):
        # NaN compares false against everything and inf passes every PSD
        # test, so either would silently change verdicts.
        if not (np.isfinite(psd_tol) and np.isfinite(residual_tol)):
            raise DomainError("tolerances must be finite")
        if psd_tol < 0 or residual_tol < 0:
            raise DomainError("tolerances must be nonnegative")
        self.__dict__.update(psd_tol=psd_tol, residual_tol=residual_tol)


DEFAULT_TOL = ToleranceConfig()


def _as_square(a, name="matrix"):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a.view(float))):
        raise DomainError(f"{name} contains non-finite entries")
    return a


def hermitian_part(a):
    """Return ``(A + A*) / 2`` of a matrix or a stack of matrices.  Hermitian to the bit."""
    a = np.asarray(a, dtype=complex)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two matrices as one broadcast product: the same products, the same bits."""
    (p, q), (r, s) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(p * r, q * s)


def eig_hermitian(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Parameters
    ----------
    a
        Square matrix, Hermitian within ``residual_tol * (1 + ||a||)``
        measured entrywise.
    tol
        Tolerance configuration.

    Returns
    -------
    (eigenvalues, eigenvectors)
        Eigenvalues ascending and real; eigenvector columns unitary, so
        ``a ~= V @ diag(w) @ V*``.

    Raises
    ------
    NotHermitianError
        If the asymmetry exceeds the tolerance.  The check runs before
        symmetrization so genuinely non-Hermitian input is rejected
        rather than silently averaged.
    """
    a = _as_square(a)
    scale = 1.0 + np.max(np.abs(a), initial=0.0)
    asym = np.max(np.abs(a - a.conj().T), initial=0.0)
    if asym > tol.residual_tol * scale:
        raise NotHermitianError(
            f"matrix asymmetry {asym:.3e} exceeds {tol.residual_tol:.1e} * {scale:.3e}"
        )
    w, v = np.linalg.eigh(hermitian_part(a))
    return w, v


def psd_margin(a):
    """Smallest eigenvalue and the relative scale used by :func:`is_psd`.

    Returns ``(min_eig, scale)`` where ``scale = 1 + max |eigenvalue|``.
    The input is symmetrized first, so mildly asymmetric matrices are
    accepted.
    """
    a = _as_square(a)
    w = np.linalg.eigvalsh(hermitian_part(a))
    if w.size == 0:
        return 0.0, 1.0
    return float(w[0]), float(1.0 + max(abs(w[0]), abs(w[-1])))


def _batched_margins(stack: np.ndarray):
    """:func:`psd_margin` of each matrix of a Hermitian stack (not symmetrized here)."""
    w = np.linalg.eigvalsh(stack)
    lmin = w[:, 0]
    scale = 1.0 + np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    return lmin, scale


def is_psd(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Relative-tolerance PSD test.

    Returns ``(verdict, min_eig)``.  The verdict is
    ``min_eig >= -psd_tol * (1 + ||a||)``; the raw smallest eigenvalue is
    returned for margin reporting.
    """
    min_eig, scale = psd_margin(a)
    return bool(min_eig >= -tol.psd_tol * scale), min_eig


def sqrt_psd(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Hermitian PSD square root via eigendecomposition.

    Requires ``is_psd(a)``; eigenvalues inside the negative tolerance
    band are clamped to zero before taking roots.
    """
    a = _as_square(a)
    w, v = eig_hermitian(a, tol)
    scale = 1.0 + (max(abs(w[0]), abs(w[-1])) if w.size else 0.0)
    if w.size and w[0] < -tol.psd_tol * scale:
        raise NotPsdError(f"matrix is not PSD: min eigenvalue {w[0]:.3e}")
    root = v @ np.diag(np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return hermitian_part(root)


def inv_sqrt_psd(a, tol: ToleranceConfig = DEFAULT_TOL):
    """Hermitian inverse square root of a positive definite matrix."""
    a = _as_square(a)
    w, v = eig_hermitian(a, tol)
    scale = 1.0 + (max(abs(w[0]), abs(w[-1])) if w.size else 0.0)
    if w.size == 0 or w[0] <= tol.psd_tol * scale:
        raise NotPsdError(
            f"matrix is not positive definite: min eigenvalue {w[0] if w.size else 0.0:.3e}"
        )
    root = v @ np.diag(w ** -0.5) @ v.conj().T
    return hermitian_part(root)


def operator_norm(a):
    """Largest singular value.  Zero for empty matrices."""
    a = np.asarray(a, dtype=complex)
    if a.size == 0:
        return 0.0
    return float(np.linalg.svd(np.atleast_2d(a), compute_uv=False)[0])
