"""Pick-type matrices for interpolation in the algebras ``C + B H^inf``.

A problem instance consists of interpolation data ``(z_i, W_i)`` with
distinct nodes ``z_i`` in the open unit disk and k x k target matrices
``W_i``, together with a finite Blaschke product ``B`` whose zeros
``lambda_i`` (with multiplicities ``r_i``) carry the constraint: the
interpolant must lie in ``C + B H^inf``, i.e. take a common value at all
zeros of ``B`` and have vanishing jets there up to the multiplicities.
A function of sup-norm at most one satisfying all of that exists exactly
when one of the structured Hermitian matrices built here is positive
semidefinite for some choice of the free k x k parameter ``x`` (the
common value at the constraint zeros).

Builders
--------
``pick_matrix``
    The classical Pick matrix of the unconstrained problem.
``constrained_pick`` / ``constrained_pick_cf`` / ``constrained_pick_compressed``
    The general-Blaschke forms: linearized (the affine map whose
    coefficients ``constrained_pick_terms`` returns, evaluated at ``x``),
    Caratheodory-Fejer, and the Schur-complement compression onto the
    node block (the last one needs ``||x|| < 1``).

All of them read one displacement pair.  The node part

    G = [ K   Qt* ]        K_ij = I / (1 - z_i conj(z_j))
        [ Qt  Q   ]

is the Caratheodory-Fejer form of zero-value data at ``x = 0``.  It
depends on the nodes and ``B`` only and solves the Stein equation

    G - T G T* = F F*        T = diag(Z, J),  F = [E; Et]

where ``Z, E`` encode the nodes and ``J, Et`` collect Jordan-type jet
blocks at the constraint zeros; its blocks ``Q`` and ``Qt`` are solved
exactly as finite linear systems (the convergent-series form is a test
oracle, outside the library).  The value part
``V = diag(W_1, ..., W_n, x, ..., x)`` depends on the values and ``x``
only.  The Caratheodory-Fejer form is ``G - V G V*``, whose node block
``K - Wd K Wd*`` is the classical Pick matrix (read from
:func:`pick_matrix`, block by block), and the linearized form is its
Schur lift: corner ``Q``, mirrored block ``Q^-1``.

All builders are Hermitian-exact: Hermitian blocks are filled once and
mirrored, never recomputed, so ``||M - M*|| = 0`` holds to the bit.
Builders are pure; every array of a :class:`PickBundle` is read-only, so
a bundle is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, IllConditionedError, SingularBlockError
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _kron,
    hermitian_part,
    operator_norm,
    psd_margin,
    schur_complement,
)

__all__ = [
    "DataSet",
    "BlaschkeSpec",
    "PickBundle",
    "pick_matrix",
    "jet_matrices",
    "stein_solve",
    "assemble_bundle",
    "constrained_pick",
    "constrained_pick_terms",
    "constrained_pick_cf",
    "constrained_pick_compressed",
]


# ---------------------------------------------------------------------------
# data types


@dataclass(frozen=True)
class DataSet:
    """Interpolation data: nodes in the open disk and k x k target matrices.

    ``nodes`` has shape (n,), ``values`` shape (n, k, k).  Nodes must be
    pairwise distinct and of modulus < 1.  Node 0 is allowed here (the
    classical Pick matrix is fine with it); constrained builders reject
    it when the Blaschke product vanishes at the origin.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=complex).reshape(-1)
        values = np.asarray(self.values, dtype=complex)
        if nodes.size < 1:
            raise DomainError("data set needs at least one node")
        if values.ndim != 3 or values.shape[0] != nodes.size or values.shape[1] != values.shape[2]:
            raise DomainError(
                f"values must have shape (n, k, k) with n={nodes.size}, got {values.shape}"
            )
        if not np.all(np.isfinite(nodes.view(float))) or not np.all(
            np.isfinite(values.view(float))
        ):
            raise DomainError("data set contains non-finite entries")
        if np.max(np.abs(nodes)) >= 1.0:
            raise DomainError("all nodes must lie in the open unit disk")
        for i in range(nodes.size):
            for j in range(i + 1, nodes.size):
                if nodes[i] == nodes[j]:
                    raise DomainError(f"nodes {i} and {j} coincide ({nodes[i]})")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "values", values)

    @classmethod
    def scalar(cls, nodes, values) -> "DataSet":
        """Build a k=1 data set from flat node and value sequences."""
        values = np.asarray(values, dtype=complex).reshape(-1, 1, 1)
        return cls(np.asarray(nodes, dtype=complex), values)

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def scalar_values(self) -> np.ndarray:
        if self.k != 1:
            raise DomainError("scalar_values requires k = 1")
        return self.values[:, 0, 0]


@dataclass(frozen=True)
class BlaschkeSpec:
    """Finite Blaschke product given by its distinct zeros and multiplicities."""

    zeros: np.ndarray
    multiplicities: np.ndarray

    def __post_init__(self):
        zeros = np.asarray(self.zeros, dtype=complex).reshape(-1)
        mult = np.asarray(self.multiplicities, dtype=int).reshape(-1)
        if zeros.size < 1 or mult.size != zeros.size:
            raise DomainError("need matching nonempty zero and multiplicity lists")
        if np.any(mult < 1):
            raise DomainError("multiplicities must be >= 1")
        if zeros.size and np.max(np.abs(zeros)) >= 1.0:
            raise DomainError("Blaschke zeros must lie in the open unit disk")
        for i in range(zeros.size):
            for j in range(i + 1, zeros.size):
                if zeros[i] == zeros[j]:
                    raise DomainError("Blaschke zeros must be pairwise distinct")
        object.__setattr__(self, "zeros", zeros)
        object.__setattr__(self, "multiplicities", mult)

    @classmethod
    def z_squared(cls) -> "BlaschkeSpec":
        """The default constraint B(z) = z^2 (vanishing derivative at 0)."""
        return cls(np.array([0.0 + 0.0j]), np.array([2]))

    @property
    def m(self) -> int:
        return self.zeros.size

    @property
    def degree(self) -> int:
        return int(self.multiplicities.sum())

    def is_z_squared(self) -> bool:
        return self.m == 1 and self.zeros[0] == 0 and self.multiplicities[0] == 2

    def evaluate(self, z):
        """Evaluate the Blaschke product at points of the closed disk."""
        z = np.asarray(z, dtype=complex)
        out = np.ones_like(z)
        for lam, r in zip(self.zeros, self.multiplicities):
            out = out * ((z - lam) / (1.0 - np.conj(lam) * z)) ** int(r)
        return out


@dataclass(frozen=True)
class PickBundle:
    """All matrices needed by the general-Blaschke builders, precomputed.

    ``g`` is the node part ``G = [[K, Qt*], [Qt, Q]]`` (see the module
    docstring); ``q`` (Hermitian positive definite, the identity exactly
    when all constraint zeros sit at the origin) and ``q_tilde``
    (coupling jets to nodes) are views of its blocks.  ``p`` is the
    classical Pick matrix, ``j`` and ``e_tilde`` the jet matrices at the
    constraint zeros and ``q_inv`` the inverse of ``Q``.  Every array is
    read-only, so a bundle is immutable after construction and safe to
    share across threads.
    """

    data: DataSet
    blaschke: BlaschkeSpec
    g: np.ndarray
    p: np.ndarray
    j: np.ndarray
    e_tilde: np.ndarray
    q_inv: np.ndarray
    stein_residuals: tuple = field(default=(0.0, 0.0))

    @property
    def q(self) -> np.ndarray:
        nk = self.data.n * self.data.k
        return self.g[nk:, nk:]

    @property
    def q_tilde(self) -> np.ndarray:
        nk = self.data.n * self.data.k
        return self.g[nk:, :nk]


# ---------------------------------------------------------------------------
# elementary builders


def pick_matrix(d: DataSet) -> np.ndarray:
    """Classical Pick matrix with blocks ``(I - W_i W_j*) / (1 - z_i conj(z_j))``.

    Upper-triangle blocks are computed once and mirrored, so the result
    is Hermitian to the bit.
    """
    n, k = d.n, d.k
    out = np.empty((n * k, n * k), dtype=complex)
    eye = np.eye(k, dtype=complex)
    for i in range(n):
        rows = slice(i * k, (i + 1) * k)
        diag = (eye - d.values[i] @ d.values[i].conj().T) / (
            1.0 - d.nodes[i] * np.conj(d.nodes[i])
        )
        out[rows, rows] = hermitian_part(diag)
        for j in range(i + 1, n):
            cols = slice(j * k, (j + 1) * k)
            block = (eye - d.values[i] @ d.values[j].conj().T) / (
                1.0 - d.nodes[i] * np.conj(d.nodes[j])
            )
            out[rows, cols] = block
            out[cols, rows] = block.conj().T
    return out


def jet_matrices(b: BlaschkeSpec, k: int):
    """Jet matrices at the constraint zeros.

    Returns ``(j, e_tilde)`` where ``j`` is block diagonal with one
    lower-bidiagonal Jordan-type block per zero (``lambda_i I_k`` on the
    diagonal, ``I_k`` on the first block subdiagonal, size ``k r_i``)
    and ``e_tilde`` stacks ``(I_k, 0, ..., 0)^T`` blocks.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    d = b.degree
    ik = np.eye(k, dtype=complex)
    j = np.zeros((k * d, k * d), dtype=complex)
    e_tilde = np.zeros((k * d, k), dtype=complex)
    row = 0
    for lam, r in zip(b.zeros, b.multiplicities):
        r = int(r)
        for s in range(r):
            j[row + s * k : row + (s + 1) * k, row + s * k : row + (s + 1) * k] = lam * ik
            if s > 0:
                j[row + s * k : row + (s + 1) * k, row + (s - 1) * k : row + s * k] = ik
        e_tilde[row : row + k, :] = ik
        row += r * k
    return j, e_tilde


# Stein operator amplification beyond which the solve is refused.
STEIN_COND_LIMIT = 1e13


def stein_solve(j, e_tilde, z, e):
    """Solve the two Stein equations exactly as finite linear systems.

    Solves ``Q - J Q J* = Et Et*`` via the vectorized operator
    ``I - conj(J) (x) J`` and ``Qt - J Qt Z* = Et E*`` in one batched
    solve over its columns (``Z`` is diagonal, so they decouple).  Both
    operators are invertible whenever the spectra of ``J`` and ``Z``
    stay inside the unit disk; zeros or nodes creeping towards the
    boundary make them ill-conditioned, which is reported.

    Returns ``(q, q_tilde)`` with ``q`` Hermitian-exact.
    """
    j = np.asarray(j, dtype=complex)
    e_tilde = np.asarray(e_tilde, dtype=complex)
    z = np.asarray(z, dtype=complex)
    e = np.asarray(e, dtype=complex)
    kd = j.shape[0]
    op = np.eye(kd * kd, dtype=complex) - _kron(j.conj(), j)
    # Amplification of the solve; blows up as |lambda_i conj(z_j)| -> 1.
    smin = np.linalg.svd(op, compute_uv=False)[-1]
    zdiag = np.diag(z)
    col_ops = np.eye(kd)[None, :, :] - np.conj(zdiag)[:, None, None] * j[None, :, :]
    smin = min(smin, np.min(np.linalg.svd(col_ops, compute_uv=False)[:, -1]))
    cond = np.inf if smin == 0 else 1.0 / smin
    if not np.isfinite(cond) or cond > STEIN_COND_LIMIT:
        raise IllConditionedError(
            f"Stein operator amplification ~ {cond:.3e} exceeds {STEIN_COND_LIMIT:.1e}",
            cond=cond,
        )
    rhs = (e_tilde @ e_tilde.conj().T).reshape(-1, order="F")
    q = np.linalg.solve(op, rhs).reshape(kd, kd, order="F")
    q = hermitian_part(q)

    # Qt column i solves (I - conj(z_i) J) Qt_i = (Et E*)_i.
    rhs_t = e_tilde @ e.conj().T
    q_tilde = np.linalg.solve(col_ops, rhs_t.T[:, :, None])[:, :, 0].T
    return q, q_tilde


def _check_constrained_domain(d: DataSet, b: BlaschkeSpec):
    for i, zi in enumerate(d.nodes):
        for lam in b.zeros:
            if zi == lam:
                if zi == 0:
                    raise DomainError(
                        "node 0 coincides with a constraint zero at the origin; "
                        "the instance is a Caratheodory-Fejer problem in disguise "
                        "(value and jet data at 0) and must be posed that way, or "
                        "decided by search_x_grid"
                    )
                raise DomainError(
                    f"node {i} ({zi}) coincides with a constraint zero; "
                    "decide the instance with search_x_grid"
                )


def assemble_bundle(
    d: DataSet, b: BlaschkeSpec, tol: ToleranceConfig = DEFAULT_TOL
) -> PickBundle:
    """Precompute everything the general-Blaschke builders need.

    Verifies the Stein residuals against ``residual_tol`` and positive
    semidefiniteness of the Stein solution before returning; both hold
    by construction, so a failure indicates numerically hostile data
    (zeros or nodes hugging the boundary).
    """
    _check_constrained_domain(d, b)
    p = pick_matrix(d)
    ik = np.eye(d.k, dtype=complex)
    z = _kron(np.diag(d.nodes), ik)
    e = np.tile(ik, (d.n, 1))
    j, e_tilde = jet_matrices(b, d.k)
    q, q_tilde = stein_solve(j, e_tilde, z, e)

    res_q = operator_norm(q - j @ q @ j.conj().T - e_tilde @ e_tilde.conj().T)
    res_t = operator_norm(q_tilde - j @ q_tilde @ z.conj().T - e_tilde @ e.conj().T)
    if res_q > tol.residual_tol * (1.0 + operator_norm(q)):
        raise IllConditionedError(f"Stein residual {res_q:.3e} out of tolerance")
    if res_t > tol.residual_tol * (1.0 + operator_norm(q_tilde)):
        raise IllConditionedError(f"Stein residual {res_t:.3e} out of tolerance")
    # Q is positive definite (controllability of the jet pair); it equals
    # the identity exactly when all constraint zeros sit at the origin,
    # but in general its smallest eigenvalue can drop below 1 and, for
    # high multiplicities, very close to 0.
    min_eig, scale = psd_margin(q)
    if min_eig < -tol.psd_tol * scale:
        raise IllConditionedError(f"Stein solution not PSD: min eig = {min_eig:.3e}")

    q_inv = hermitian_part(np.linalg.solve(q, np.eye(q.shape[0], dtype=complex)))
    cauchy = hermitian_part(_kron(1.0 / (1.0 - np.outer(d.nodes, d.nodes.conj())), ik))
    g = np.block([[cauchy, q_tilde.conj().T], [q_tilde, q]])
    for array in (g, p, j, e_tilde, q_inv):
        array.flags.writeable = False
    return PickBundle(
        data=d,
        blaschke=b,
        g=g,
        p=p,
        j=j,
        e_tilde=e_tilde,
        q_inv=q_inv,
        stein_residuals=(res_q, res_t),
    )


# ---------------------------------------------------------------------------
# constrained builders, general Blaschke product


def _as_param(x, k: int, name="x") -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    if x.shape != (k, k):
        raise DomainError(f"{name} must be a {k}x{k} matrix, got shape {x.shape}")
    return x


def _bundle_for(d, b, bundle: Optional[PickBundle]) -> PickBundle:
    if bundle is None:
        return assemble_bundle(d, b)
    pairs = (
        (bundle.data.nodes, d.nodes),
        (bundle.data.values, d.values),
        (bundle.blaschke.zeros, b.zeros),
        (bundle.blaschke.multiplicities, b.multiplicities),
    )
    if not all(np.array_equal(have, want) for have, want in pairs):
        raise DomainError("bundle was assembled for a different data set / Blaschke spec")
    return bundle


def _value_part(d: DataSet, x: np.ndarray, degree: int) -> np.ndarray:
    """``V = diag(W_1, ..., W_n, x, ..., x)`` with ``degree`` copies of ``x``."""
    blocks = np.concatenate([d.values, np.broadcast_to(x, (degree,) + x.shape)])
    m, k = blocks.shape[:2]
    v = np.zeros((m, k, m, k), dtype=complex)
    v[np.arange(m), :, np.arange(m)] = blocks
    return v.reshape(m * k, m * k)


def constrained_pick(
    d: DataSet, b: BlaschkeSpec, x, bundle: Optional[PickBundle] = None
) -> np.ndarray:
    """Linearized constrained Pick matrix for a general Blaschke constraint.

    The Schur lift of the Caratheodory-Fejer form ``G - V G V*``: its
    jet corner becomes ``Q`` and a mirrored block ``Q^-1`` is coupled in
    through ``Xd``.  Rows and columns are grouped (nodes, jets, mirrored
    jets):

        [ P                Qt* - Wd Qt* Xd*   0     ]
        [ Qt - Xd Qt Wd*   Q                  Xd    ]
        [ 0                Xd*                Q^-1  ]

    with ``Wd`` the block diagonal of the target matrices and ``Xd`` the
    block-diagonal repetition of ``x`` over the jet blocks.  Solvability
    of the constrained interpolation problem is equivalent to this
    matrix being PSD for some ``x``.  For ``B(z) = z^2`` it reproduces
    the 5-block linearized form of that constraint.  It is evaluated as
    ``a0 + L + L*``, ``L = sum_ab x_ab A_ab`` (:func:`constrained_pick_terms`);
    ``L`` and ``L*`` have disjoint supports, so it is Hermitian to the bit.
    """
    x = _as_param(x, d.k)
    a0, terms = constrained_pick_terms(_bundle_for(d, b, bundle))
    lin = np.tensordot(x, terms, 2)
    return a0 + lin + lin.conj().T


def constrained_pick_terms(bundle: PickBundle):
    """Coefficients of :func:`constrained_pick` as an affine map of ``x``.

    Returns ``(a0, terms)`` with ``a0`` the matrix at ``x = 0`` and
    ``terms[a, b]`` the coefficient ``A_ab`` of ``x_ab``, so that

        constrained_pick(x) = a0 + sum_ab (x_ab A_ab + conj(x_ab) A_ab*).

    ``a0`` is read off the bundle's blocks, ``[[P, Qt*, 0], [Qt, Q, 0],
    [0, 0, Q^-1]]``.  ``A_ab`` holds ``-Qt (I_n (x) E_ab) Wd*`` in the
    (jets, nodes) block (``Xd Qt = Qt (I_n (x) x)``, as ``Qt`` is
    ``I_k``-structured) and ``I_deg (x) E_ab`` in the (jets, mirrored)
    block, zero elsewhere; ``terms`` has shape (k, k, size, size).
    """
    d, deg = bundle.data, bundle.blaschke.degree
    k, nk, dk = d.k, d.n * d.k, deg * d.k
    a0 = np.zeros((nk + 2 * dk, nk + 2 * dk), dtype=complex)
    a0[: nk + dk, : nk + dk] = bundle.g
    a0[:nk, :nk] = bundle.p
    a0[nk + dk :, nk + dk :] = bundle.q_inv
    terms = np.zeros((k, k) + a0.shape, dtype=complex)
    # Column (i, c) of Qt (I_n (x) E_ab) Wd* is Qt[:, (i, a)] conj(W_i[c, b]).
    coupling = np.einsum("ria,icb->abric", bundle.q_tilde.reshape(dk, d.n, k), d.values.conj())
    terms[:, :, nk : nk + dk, :nk] = -coupling.reshape(k, k, dk, nk)
    jets = k * np.arange(deg)
    for a, b in np.ndindex(k, k):
        terms[a, b, nk + jets + a, nk + dk + jets + b] = 1.0
    return a0, terms


def constrained_pick_cf(
    d: DataSet, b: BlaschkeSpec, x, bundle: Optional[PickBundle] = None
) -> np.ndarray:
    """Caratheodory-Fejer form of the general constrained Pick matrix:

        G - V G V* = [ P                Qt* - Wd Qt* Xd* ]
                     [ Qt - Xd Qt Wd*   Q - Xd Q Xd*     ]

    with the node part ``G`` of the bundle and the value part
    ``V = diag(Wd, Xd)``; the node block is the bundle's ``p``.
    PSD-equivalent to :func:`constrained_pick` for every ``x``.
    """
    x = _as_param(x, d.k)
    bundle = _bundle_for(d, b, bundle)
    nk = d.n * d.k
    v = _value_part(d, x, b.degree)
    form = hermitian_part(bundle.g - v @ bundle.g @ v.conj().T)
    form[:nk, :nk] = bundle.p
    return form


def constrained_pick_compressed(
    d: DataSet, b: BlaschkeSpec, x, bundle: Optional[PickBundle] = None
) -> np.ndarray:
    """Schur-complement compression of the CF form onto the node block.

    ``P - (Qt* - Wd Qt* Xd*) (Q - Xd Q Xd*)^{-1} (Qt - Xd Qt Wd*)``.
    Requires ``Q - Xd Q Xd*`` invertible, which holds whenever
    ``||x|| < 1``; on the boundary a :class:`SingularBlockError` is
    raised and the caller should test the CF form directly.
    """
    cf = constrained_pick_cf(d, b, x, bundle=bundle)
    try:
        compressed = schur_complement(cf, head=d.n * d.k)
    except SingularBlockError as exc:
        raise SingularBlockError(
            f"Q - Xd Q Xd* is numerically singular (cond ~ {exc.cond:.3e}); "
            "test the CF form directly",
            cond=exc.cond,
        ) from exc
    return hermitian_part(compressed)
