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
``constrained_pick`` / ``constrained_pick_cf``
    The general-Blaschke forms: linearized (the affine map whose
    coefficients ``constrained_pick_terms`` returns, evaluated at ``x``)
    and Caratheodory-Fejer.

Both are read off the Caratheodory-Fejer form ``G - V G V*``,
with the value part ``V = diag(W_1, ..., W_n, x, ..., x)`` and the node
part

    G = [ K   Qt* ]        K_ij = I / (1 - z_i conj(z_j))
        [ Qt  Q   ]

the Caratheodory-Fejer form of zero-value data at ``x = 0``.  ``G``
depends on the nodes and ``B`` only and solves the Stein equation

    G - T G T* = F F*        T = diag(Z, J),  F = [E; Et]

where ``Z, E`` encode the nodes and ``J, Et`` (:func:`jet_matrices`)
collect Jordan-type jet blocks at the constraint zeros.  ``G`` is the
Gram matrix of Szego kernels at the nodes and of their jets at the
zeros, so ``Q`` and ``Qt`` are built exactly with no solver (solvers are
test oracles, outside the library), once at ``k = 1`` and tensored with
``I_k``.  ``G`` itself is never built: the node block ``K - Wd K Wd*`` of
the form is the classical Pick matrix (read from :func:`pick_matrix`),
so the Caratheodory-Fejer form is assembled from its block formula

    [ P                Qt* - Wd Qt* Xd* ]
    [ Qt - Xd Qt Wd*   Q - Xd Q Xd*     ]

with ``Wd`` the block diagonal of the targets and ``Xd = I_deg (x) x``.
The linearized form is its Schur lift, taken through the congruence
``diag(I, R^-1, R*)`` with ``Q = R R*``:

    [ P                  Psi* - Wd Psi* Xd*   0  ]
    [ Psi - Xd Psi Wd*   I                    Xd ]
    [ 0                  Xd*                  I  ]

``Psi`` (``R^-1 Qt`` up to row phases) is the Takenaka-Malmquist basis of
``K_B = H^2 - B H^2`` at the nodes, in closed form: nothing is inverted.

All builders are Hermitian-exact: Hermitian blocks are filled once and
mirrored, never recomputed, so ``||M - M*|| = 0`` holds to the bit.
Builders are pure; every array of a :class:`PickBundle` is read-only, so
a bundle is safe to share across threads.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .errors import CnpError, DomainError, IllConditionedError
from .linalg import DEFAULT_TOL, ToleranceConfig, _kron, hermitian_part, operator_norm, psd_margin
from .record import Record

__all__ = [
    "DataSet",
    "BlaschkeSpec",
    "PickBundle",
    "pick_matrix",
    "jet_matrices",
    "assemble_bundle",
    "constrained_pick",
    "constrained_pick_terms",
    "constrained_pick_cf",
]


# ---------------------------------------------------------------------------
# data types


class DataSet(Record):
    """Interpolation data: nodes in the open disk and k x k target matrices.

    ``nodes`` has shape (n,), ``values`` shape (n, k, k).  Nodes must be
    pairwise distinct and of modulus < 1.  Node 0 is allowed here (the
    classical Pick matrix is fine with it); constrained builders reject
    it when the Blaschke product vanishes at the origin.
    """

    nodes: np.ndarray
    values: np.ndarray

    def __init__(self, nodes, values):
        nodes = np.asarray(nodes, dtype=complex).reshape(-1)
        values = np.asarray(values, dtype=complex)
        if nodes.size < 1:
            raise DomainError("data set needs at least one node")
        if values.ndim != 3 or values.shape[0] != nodes.size or values.shape[1] != values.shape[2]:
            raise DomainError(
                f"values must have shape (n, k, k) with n={nodes.size}, got {values.shape}"
            )
        if values.shape[1] < 1:
            raise DomainError("values must be k x k matrices with k >= 1")
        if not np.all(np.isfinite(nodes.view(float))) or not np.all(
            np.isfinite(values.view(float))
        ):
            raise DomainError("data set contains non-finite entries")
        if np.max(np.abs(nodes)) >= 1.0:
            raise DomainError("all nodes must lie in the open unit disk")
        same = nodes[:, None] == nodes
        if np.count_nonzero(same) > nodes.size:  # more than the diagonal (entries are finite)
            i, j = divmod(int(np.triu(same, 1).argmax()), nodes.size)  # first pair, row-major
            raise DomainError(f"nodes {i} and {j} coincide ({nodes[i]})")
        self.__dict__.update(nodes=nodes, values=values)

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


class BlaschkeSpec(Record):
    """Finite Blaschke product given by its distinct zeros and multiplicities."""

    zeros: np.ndarray
    multiplicities: np.ndarray

    def __init__(self, zeros, multiplicities):
        zeros = np.asarray(zeros, dtype=complex).reshape(-1)
        mult = np.asarray(multiplicities, dtype=int).reshape(-1)
        if zeros.size < 1 or mult.size != zeros.size:
            raise DomainError("need matching nonempty zero and multiplicity lists")
        if np.any(mult < 1):
            raise DomainError("multiplicities must be >= 1")
        if not np.all(np.abs(zeros) < 1.0):  # written so that NaN fails
            raise DomainError("Blaschke zeros must be finite and lie in the open unit disk")
        if np.count_nonzero(zeros[:, None] == zeros) > zeros.size:  # more than the diagonal
            raise DomainError("Blaschke zeros must be pairwise distinct")
        self.__dict__.update(zeros=zeros, multiplicities=mult)

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


class PickBundle(Record):
    """The arrays the general-Blaschke builders read, precomputed.

    ``p`` is the classical Pick matrix.  ``q`` (Hermitian positive
    definite, the identity exactly when all constraint zeros sit at the
    origin) and ``q_tilde`` (coupling jets to nodes) are the jet blocks
    of the node part (see the module docstring), built exactly with no
    solver.  ``basis`` is the block ``Psi`` of the linearized form
    (:func:`constrained_pick`; ``Psi = Qt`` when all zeros sit at the
    origin).  ``q``, ``q_tilde`` and ``basis`` are their ``k = 1`` arrays
    ``(x) I_k``.  Every array is read-only, so a bundle is safe to share
    across threads.
    """

    data: DataSet
    blaschke: BlaschkeSpec
    p: np.ndarray
    q: np.ndarray
    q_tilde: np.ndarray
    basis: np.ndarray

    def __init__(self, data, blaschke, p, q, q_tilde, basis):
        self.__dict__.update(data=data, blaschke=blaschke, p=p, q=q, q_tilde=q_tilde, basis=basis)

    @property
    def stein_residuals(self) -> tuple:
        """Residuals of ``Q - J Q J* = Et Et*`` and ``Qt - J Qt Z* = Et E*`` at ``k = 1``."""
        k = self.data.k
        q, q_tilde = self.q[::k, ::k], self.q_tilde[::k, ::k]
        j, e_tilde = jet_matrices(self.blaschke, 1)
        res_q = operator_norm(q - j @ q @ j.conj().T - e_tilde @ e_tilde.conj().T)
        res_t = operator_norm(q_tilde - j @ q_tilde * self.data.nodes.conj() - e_tilde)
        return res_q, res_t


# ---------------------------------------------------------------------------
# elementary builders


def pick_matrix(d: DataSet) -> np.ndarray:
    """Classical Pick matrix with blocks ``(I - W_i W_j*) / (1 - z_i conj(z_j))``.

    One broadcast over all blocks; the strict upper triangle is mirrored
    and the diagonal taken real, so the result is Hermitian to the bit.
    """
    w, z = d.values.reshape(d.n * d.k, d.k), np.repeat(d.nodes, d.k)
    full = (np.tile(np.eye(d.k), (d.n, d.n)) - w @ w.conj().T) / (1.0 - np.outer(z, z.conj()))
    upper = np.triu(full, 1)
    return upper + upper.conj().T + np.diag(full.diagonal().real)


def jet_matrices(b: BlaschkeSpec, k: int):
    """Jet matrices at the constraint zeros.

    Returns ``(j, e_tilde)`` where ``j`` is block diagonal with one
    lower-bidiagonal Jordan-type block per zero (``lambda_i I_k`` on the
    diagonal, ``I_k`` on the first block subdiagonal, size ``k r_i``)
    and ``e_tilde`` stacks ``(I_k, 0, ..., 0)^T`` blocks.  Both are the
    scalar (``k = 1``) Jordan pair tensored with ``I_k``.
    """
    if k < 1:
        raise DomainError("k must be >= 1")
    deg = b.degree
    starts = np.cumsum(b.multiplicities) - b.multiplicities  # first row of each zero's block
    j = np.eye(deg, k=-1, dtype=complex)
    j[starts[1:], starts[1:] - 1] = 0.0  # no subdiagonal 1 between two zeros' blocks
    np.fill_diagonal(j, np.repeat(b.zeros, b.multiplicities))
    e_tilde = np.zeros((deg, 1), dtype=complex)
    e_tilde[starts] = 1.0
    ik = np.eye(k, dtype=complex)
    return _kron(j, ik), _kron(e_tilde, ik)


# Stein amplification beyond which the node part is refused.
STEIN_COND_LIMIT = 1e13


def _node_part(nodes: np.ndarray, b: BlaschkeSpec):
    """``(Q, Qt, Psi, amplification)`` of the ``k = 1`` node part, built exactly with no solver.

    ``Q`` and ``Qt`` are Gram matrices of Szego-kernel jets: ``Qt[(lam, p), i] =
    conj(z_i)^p / (1 - lam conj(z_i))^(p + 1)``, and ``Q - J Q J* = Et Et*``
    reads, entry by entry, for the jet ``p`` at ``lam`` and ``q`` at ``mu``,

        Q[p, q] (1 - lam conj(mu)) = [p = q = 0] + lam Q[p, q-1] + conj(mu) Q[p-1, q] + Q[p-1, q-1],

    run for all pairs of zeros at once, one antidiagonal ``p + q`` a step.
    ``P - J P J* = I`` is the same run with ``[p = q]``, within each zero.
    The amplification is ``max(||P||_inf, max_i ||(I - conj(z_i) J)^-1||_inf)``,
    the latter the largest sum of ``|Qt|`` over one node and one zero's jets.
    ``Psi[m, i] = conj(e_m(z_i))`` (``Phi^-1 Qt`` for the triangular factor ``Q = Phi Phi*``)
    is the orthonormal Takenaka-Malmquist basis of ``K_B`` at the nodes, with ``a`` the zeros
    in jet order: ``e_m(z) = sqrt(1 - |a_m|^2) / (1 - conj(a_m) z) prod_{j < m} b_(a_j)(z)``,
    ``b_a(z) = (z - a) / (1 - conj(a) z)``.  The product is taken as powers of each zero's
    factor, so zeros at the origin give the bits of ``Qt``.
    """
    lam, mult = b.zeros, b.multiplicities
    top, starts = int(mult.max()), np.cumsum(mult) - mult
    zero = np.repeat(np.arange(lam.size), mult)  # the zero of each jet
    jet = np.arange(b.degree) - starts[zero]  # its order
    zc = nodes.conj()
    den = 1.0 - lam[:, None] * zc
    q_tilde = zc ** jet[:, None] / den[zero] ** (jet[:, None] + 1)
    factor = (zc - lam.conj()[:, None]) / den  # conj(b_lam(z_i))
    earlier = np.cumprod(np.vstack([np.ones_like(zc), factor[:-1] ** mult[:-1, None]]), axis=0)
    head = np.sqrt(1.0 - np.abs(lam) ** 2)[:, None] / den
    basis = (head * earlier)[zero] * factor[zero] ** jet[:, None]
    # runs[0 or 1, a, c, p + q + 2, p + 1] is Q or P at (lam_a, p), (lam_c, q), seeded with
    # the right-hand side; the zero padding stands for the entries at p - 1 or q - 1 = -1.
    runs = np.zeros((2, lam.size, lam.size, 2 * top + 1, top + 1), dtype=complex)
    runs[0, :, :, 2, 1] = 1.0
    runs[1, :, :, 2 * np.arange(top) + 2, np.arange(top) + 1] = 1.0
    left, right = lam[:, None, None], lam.conj()[None, :, None]
    for s in range(2 * top - 1):
        row = runs[..., s + 2, 1:]  # a view, seeded with the right-hand side
        row += left * runs[..., s + 1, 1:] + right * runs[..., s + 1, :-1] + runs[..., s, :-1]
        row /= 1.0 - left * right
    q, p = runs[:, zero[:, None], zero, jet[:, None] + jet + 2, jet[:, None] + 1]
    p_norm = np.max(np.sum(np.abs(p) * (zero[:, None] == zero), axis=1))
    column_norm = np.max(np.add.reduceat(np.abs(q_tilde), starts, axis=0))
    return hermitian_part(q), q_tilde, basis, max(p_norm, column_norm)


def _check_constrained_domain(d: DataSet, b: BlaschkeSpec):
    on_zero = np.any(d.nodes[:, None] == b.zeros, axis=1)
    if not on_zero.any():
        return
    i = int(np.argmax(on_zero))  # the first node on a zero
    if d.nodes[i] == 0:
        raise DomainError(
            "node 0 coincides with a constraint zero at the origin; "
            "the instance is a Caratheodory-Fejer problem in disguise "
            "(value and jet data at 0) and must be posed that way, or "
            "decided by search_x_grid"
        )
    raise DomainError(
        f"node {i} ({d.nodes[i]}) coincides with a constraint zero; "
        "decide the instance with search_x_grid"
    )


def assemble_bundle(
    d: DataSet, b: BlaschkeSpec, tol: ToleranceConfig = DEFAULT_TOL
) -> PickBundle:
    """Precompute everything the general-Blaschke builders need.

    The jet blocks ``Q``, ``Qt`` of the node part and the identity-corner
    block ``Psi`` (:func:`_node_part`) are built exactly, with no solve or
    inverse, once at ``k = 1``: ``q``, ``q_tilde`` and ``basis`` are the
    scalar arrays ``(x) I_k``, so :data:`STEIN_COND_LIMIT` refuses the same
    data at every ``k``.  Amplification beyond it (zeros or nodes hugging
    the boundary) and a Q that fails the PSD test raise
    :class:`IllConditionedError`; a Pick matrix that overflows raises
    :class:`CnpError`.
    """
    _check_constrained_domain(d, b)
    p = pick_matrix(d)
    if not np.all(np.isfinite(p)):
        raise CnpError("Pick matrix is not finite: the data overflow")
    q, q_tilde, basis, amplification = _node_part(d.nodes, b)
    if not amplification <= STEIN_COND_LIMIT:  # written so that NaN is refused
        raise IllConditionedError(
            f"Stein operator amplification ~ {amplification:.3e} exceeds {STEIN_COND_LIMIT:.1e}",
            cond=amplification,
        )
    # Q is positive definite (controllability of the jet pair), but for
    # high multiplicities its smallest eigenvalue comes very close to 0.
    min_eig, scale = psd_margin(q)
    if min_eig < -tol.psd_tol * scale:
        raise IllConditionedError(f"Stein solution not PSD: min eig = {min_eig:.3e}")

    ik = np.eye(d.k, dtype=complex)
    q, q_tilde, basis = (_kron(array, ik) for array in (q, q_tilde, basis))
    for array in (p, q, q_tilde, basis):
        array.flags.writeable = False
    return PickBundle(data=d, blaschke=b, p=p, q=q, q_tilde=q_tilde, basis=basis)


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


def constrained_pick(
    d: DataSet, b: BlaschkeSpec, x, bundle: Optional[PickBundle] = None
) -> np.ndarray:
    """Linearized constrained Pick matrix for a general Blaschke constraint.

    The Schur lift of the Caratheodory-Fejer form ``G - V G V*`` (corner
    ``Q``, mirrored block ``Q^-1``) under the congruence
    ``diag(I, R^-1, R*)``, ``Q = R R*``.  Rows and columns are grouped
    (nodes, jets, mirrored jets):

        [ P                  Psi* - Wd Psi* Xd*   0  ]
        [ Psi - Xd Psi Wd*   I                    Xd ]
        [ 0                  Xd*                  I  ]

    with ``Wd`` the block diagonal of the targets, ``Xd = I_deg (x) x``
    and ``Psi`` the bundle's ``basis``.  ``R = R_1 (x) I_k`` and the row
    phases commute with ``Xd``, so the mirrored block stays ``Xd``.
    Solvability is equivalent to this matrix being PSD for some ``x``.
    For ``B(z) = z^2`` (``Q = I``, ``Psi = Qt``) it is the 5-block
    linearized form of that constraint.  It is evaluated as
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

    ``a0`` is read off the bundle's ``p`` and ``basis``, ``[[P, Psi*, 0],
    [Psi, I, 0], [0, 0, I]]``.  ``A_ab`` holds ``-Psi (I_n (x) E_ab) Wd*``
    in the (jets, nodes) block (``Xd Psi = Psi (I_n (x) x)``, as ``Psi``
    is ``I_k``-structured) and ``I_deg (x) E_ab`` in the (jets, mirrored)
    block, zero elsewhere; ``terms`` has shape (k, k, size, size).
    """
    d, deg = bundle.data, bundle.blaschke.degree
    k, nk, dk = d.k, d.n * d.k, deg * d.k
    a0 = np.eye(nk + 2 * dk, dtype=complex)
    a0[:nk, :nk] = bundle.p
    a0[nk : nk + dk, :nk] = bundle.basis
    a0[:nk, nk : nk + dk] = bundle.basis.conj().T
    terms = np.zeros((k, k) + a0.shape, dtype=complex)
    # Column (i, c) of Psi (I_n (x) E_ab) Wd* is Psi[:, (i, a)] conj(W_i[c, b]).
    coupling = np.einsum("ria,icb->abric", bundle.basis.reshape(dk, d.n, k), d.values.conj())
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

    with the node part ``G`` and the value part ``V = diag(Wd, Xd)``,
    built from this block formula and the bundle's ``p``, ``q`` and
    ``q_tilde``.  As ``Q = Q_1 (x) I_k`` and ``Qt = Qt_1 (x) I_k``, the
    jet blocks are ``Q_1 (x) (I - x x*)`` and, at node ``i``,
    ``Qt_1[:, i] (x) (I - x W_i*)``.  Hermitian to the bit, and
    PSD-equivalent to :func:`constrained_pick` for every ``x``.
    """
    x = _as_param(x, d.k)
    bundle = _bundle_for(d, b, bundle)
    k, ik, nk = d.k, np.eye(d.k), d.n * d.k
    q, q_tilde = bundle.q[::k, ::k], bundle.q_tilde[::k, ::k]
    coupling = ik - x @ d.values.conj().transpose(0, 2, 1)  # I - x W_i*, one per node
    lower = np.einsum("ri,iac->raic", q_tilde, coupling).reshape(bundle.q_tilde.shape)
    form = np.empty((nk + lower.shape[0],) * 2, dtype=complex)
    form[:nk, :nk] = bundle.p
    form[nk:, :nk] = lower
    form[:nk, nk:] = lower.conj().T
    form[nk:, nk:] = _kron(q, hermitian_part(ik - x @ x.conj().T))
    return form
