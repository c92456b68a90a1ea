"""Interpolation bodies: the set of values an interpolant can take at a
fresh point of the disk.

Unconstrained case: for data ``(z_i, W_i)`` with positive definite Pick
matrix and an evaluation point ``z0`` off the nodes, the attainable
values ``S(z0)`` over all Schur-class interpolants form a matrix ball.
The ball comes from the augmented Pick matrix of the extended data set,
rewritten as the standard LMI pencil: with ``delta0 = 1 - |z0|^2`` and
the Cauchy row scaling ``D = diag(1/(1 - z_i conj(z0)))``,

    Et = D E delta0^(1/2),      Wt = -D W delta0^(1/2).

(The row scaling and the sign are forced by matching the augmented Pick
matrix to the pencil; membership in the resulting ball agrees with the
PSD test on the (n+1)-point Pick matrix, which the tests check.)

Constrained case (scalar, one node): the body is no longer a disk.  For
each admissible origin value ``x`` the constrained problem reduces to
an unconstrained one with a single node (:func:`schur_reduce_constrained`),
so the attainable values form a disk ``D(c_x, R_x)``: the image under
``t -> (t + x) / (1 + conj(x) t)`` of ``z0^2`` times the closed-form
Schwarz-Pick disk of the reduced data.  All swept ``x`` are handled in
one array pass (:func:`_inner_disks`); :func:`unconstrained_body` stays
as the independent pencil route.  Sweeping ``x`` over its own feasible
disk yields a union of disks that is contained in the body.  The outer grid
is that union read off on a raster of candidate values: a 1 is attainable
(it lies in some ``D(c_x, R_x)``), a 0 is only "not covered at this
parameter resolution"; :class:`BodyReport` holds both as arrays.  A
single membership query is decided by the certified solver behind
:func:`search_x_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NotPsdError, SingularBlockError
from .feasibility import (
    Disk,
    FeasReport,
    MatrixBall,
    INFEASIBLE,
    _disk_grid,
    matrix_ball,
    one_point_disk,
    search_x_grid,
)
from .linalg import DEFAULT_TOL, ToleranceConfig
from .pick import DataSet, pick_matrix

__all__ = [
    "Disk",
    "BodyReport",
    "unconstrained_body",
    "body_disk_x",
    "body_membership",
    "body_union",
]


def unconstrained_body(d: DataSet, z0: complex, tol: ToleranceConfig = DEFAULT_TOL) -> MatrixBall:
    """Matrix ball of attainable values ``S(z0)`` for unconstrained interpolants.

    Requires the Pick matrix of the data positive definite (else
    :class:`NotPsdError` from :func:`matrix_ball`) and ``z0`` inside the
    disk, distinct from every node.  Within about 1e-6 of a node the
    pivot passes ``M_COND_LIMIT`` and :class:`NotPsdError` ("body pencil
    unusable") is raised on purpose: the radius comes from
    ``Lam = I - Et* G^-1 Et``, which cancels there.  Without the gate the
    one-node radius at 1e-9 to 1e-12 from the node is off by about 1e-8,
    far more than the radius itself.
    """
    if not abs(z0) < 1.0:  # written so that NaN fails
        raise DomainError("z0 must be finite and lie in the open unit disk")
    if np.any(d.nodes == z0):
        raise DomainError("z0 must differ from every interpolation node")
    delta0 = 1.0 - abs(z0) ** 2
    cauchy = np.kron(np.diag(1.0 / (1.0 - d.nodes * np.conj(z0))), np.eye(d.k))
    e_t = cauchy @ np.tile(np.eye(d.k, dtype=complex), (d.n, 1)) * np.sqrt(delta0)
    w_t = -cauchy @ d.values.reshape(d.n * d.k, d.k) * np.sqrt(delta0)
    try:
        ball = matrix_ball(pick_matrix(d), e_t, w_t, tol)
    except SingularBlockError as err:
        raise NotPsdError(f"body pencil unusable: {err}") from err
    if ball is None:
        # With P > 0 the unconstrained problem is solvable, so only rounding lands here.
        raise NotPsdError("body pencil unusable: solvability complement indefinite")
    return ball


# ---------------------------------------------------------------------------
# constrained body, scalar data with one node

# Fraction of the feasible parameter disk swept by ``body_union``; the
# rim is left out because its disks shrink to points.
INTERIOR_SHRINK = 0.995


def _check_body_args(z1, w1, z0):
    if not 0 < abs(z1) < 1 or not 0 < abs(z0) < 1:
        raise DomainError("need nonzero z0, z1 in the open unit disk")
    if z0 == z1:
        raise DomainError("z0 must differ from z1")
    if not abs(w1) < 1:  # written so that NaN fails
        raise DomainError("need finite w1 with |w1| < 1")


def _inner_disks(z1: complex, w1: complex, z0: complex, xs, tol: ToleranceConfig = DEFAULT_TOL):
    """Disks ``D_x`` for an array of origin values ``xs``, in one pass.

    The reduced target ``g = (w1 - x) / ((1 - conj(x) w1) z1^2)`` (as in
    :func:`schur_reduce_constrained`) is admissible when its 1x1 Pick
    value ``p = (1 - |g|^2) / (1 - |z1|^2)`` passes the test of
    :func:`unconstrained_body`.  The Schur functions through ``(z1, g)``
    take at ``z0`` the Schwarz-Pick disk with ``b2 = |(z0 - z1) /
    (1 - conj(z1) z0)|^2``,

        c = g (1 - b2) / (1 - |g|^2 b2),   r = sqrt(b2) (1 - |g|^2) / (1 - |g|^2 b2),

    which is scaled by ``z0^2`` and mapped by ``M_x``.  Returns
    ``(centers, radii, admissible)``; entries off the mask are meaningless.
    """
    xs = np.asarray(xs, dtype=complex)
    if not np.all(np.abs(xs) < 1.0):  # written so that NaN fails
        raise DomainError("need finite x with |x| < 1")
    g = (w1 - xs) / ((1.0 - np.conj(xs) * w1) * z1**2)
    g2 = np.abs(g) ** 2
    p = (1.0 - g2) / (1.0 - abs(z1) ** 2)
    admissible = p > tol.psd_tol * (1.0 + np.abs(p))
    b2 = abs((z0 - z1) / (1.0 - np.conj(z1) * z0)) ** 2
    c = z0**2 * g * (1.0 - b2) / (1.0 - g2 * b2)
    r = abs(z0) ** 2 * np.sqrt(b2) * (1.0 - g2) / (1.0 - g2 * b2)
    pole = np.conj(xs) * c + 1.0
    den = np.abs(pole) ** 2 - np.abs(xs) ** 2 * r**2
    centers = ((c + xs) * np.conj(pole) - xs * r**2) / den
    radii = r * (1.0 - np.abs(xs) ** 2) / den
    return centers, radii, admissible


def body_disk_x(
    z1: complex, w1: complex, z0: complex, x: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> Optional[Disk]:
    """Disk of attainable values at ``z0`` for one fixed origin value ``x``.

    The interpolants with ``s(0) = x`` are ``s = M_x(z^2 g)``, with
    ``M_x(t) = (t + x) / (1 + conj(x) t)`` and ``g`` any Schur function
    through the one-node reduced data of :func:`schur_reduce_constrained`.
    The disk is therefore the image under ``M_x`` of ``z0^2`` times the
    closed-form Schwarz-Pick disk of the reduced data
    (:func:`_inner_disks`).  Returns None when the reduced Pick value is
    not positive (the parameter contributes no interior disk).
    """
    _check_body_args(z1, w1, z0)
    centers, radii, admissible = _inner_disks(z1, w1, z0, [x], tol)
    if not admissible[0]:
        return None
    return Disk(complex(centers[0]), float(radii[0]))


def body_membership(
    z1: complex, w1: complex, z0: complex, w0: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> FeasReport:
    """Decide whether ``w0`` is an attainable value at ``z0``.

    ``w0`` is attainable exactly when the augmented data
    ``{(z1, w1), (z0, w0)}`` is solvable, so the verdict is the
    :class:`FeasReport` of :func:`search_x_grid` on it: ``feasible``
    says whether ``w0`` is inside, a Feasible report carries the
    maximising origin value as ``witness_x`` and an Infeasible one a
    dual ``certificate``.  Certified Infeasible and Undetermined stay
    apart.  A value with ``|w0| > 1`` is Infeasible without the solver.
    """
    _check_body_args(z1, w1, z0)
    if abs(w0) > 1.0:
        # Its Pick entry (1 - |w0|^2) / (1 - |z0|^2) < 0 does not depend on
        # x, so the unit matrix at that row is a dual certificate of the
        # 6 x 6 LMI (two nodes, two jets and their mirrors).
        certificate = np.zeros((6, 6))
        certificate[1, 1] = 1.0
        return FeasReport(
            INFEASIBLE, detail="|w0| > 1 exceeds the sup-norm bound", certificate=certificate
        )
    return search_x_grid(DataSet.scalar([z1, z0], [w1, w0]), tol=tol)


@dataclass(frozen=True, eq=False)  # array fields: compare and hash by identity
class BodyReport:
    """Inner and outer approximations of a constrained interpolation body.

    ``xs`` are the admissible swept origin values and ``centers``,
    ``radii`` their disks ``D(c_x, R_x)``, one entry each; the union of
    the disks is contained in the body.  ``outer_grid`` is a complex
    array of candidate values ``w0`` and ``inside`` (set from it) its
    :meth:`covers` flags: True is proved attainable, False is not a
    proof of exclusion.
    """

    z0: complex
    xs: np.ndarray
    centers: np.ndarray
    radii: np.ndarray
    outer_grid: np.ndarray
    inside: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "inside", self.covers(self.outer_grid))

    def diameter(self) -> float:
        """Exact diameter of the union of the inner disks (0 for none)."""
        i, j = np.triu_indices(self.radii.size, 1)
        pairs = np.abs(self.centers[i] - self.centers[j]) + self.radii[i] + self.radii[j]
        return float(max(2.0 * self.radii.max(initial=0.0), pairs.max(initial=0.0)))

    def covers(self, w0, slack: float = 0.0):
        """Whether ``w0`` lies in some inner disk; elementwise for arrays.

        A point is covered when ``|w0 - c| <= r + slack`` for some disk.
        Only the points inside the disks' bounding box, widened by a
        relative pad far above rounding, get that per-disk test; the
        others cannot pass it.  When the box is not finite (no disks, or
        NaN or infinite entries), every point is tested.
        """
        w0 = np.asarray(w0)
        points = w0.reshape(-1)
        reach = self.radii + slack
        re_lo, re_hi, im_lo, im_hi = box = np.array([
            (self.centers.real - reach).min(initial=np.inf),
            (self.centers.real + reach).max(initial=-np.inf),
            (self.centers.imag - reach).min(initial=np.inf),
            (self.centers.imag + reach).max(initial=-np.inf),
        ])
        near = np.arange(points.size)
        if np.isfinite(box).all():
            pad = 1e-9 * (1.0 + np.abs(box).max())
            re, im = points.real, points.imag
            near = np.flatnonzero(
                (re >= re_lo - pad) & (re <= re_hi + pad) & (im >= im_lo - pad) & (im <= im_hi + pad)
            )
        candidates = points[near]
        found = np.zeros(candidates.shape, dtype=bool)
        for center, radius in zip(self.centers.tolist(), reach.tolist()):
            found |= np.abs(candidates - center) <= radius
        hit = np.zeros(points.shape, dtype=bool)
        hit[near] = found
        return bool(hit[0]) if w0.ndim == 0 else hit.reshape(w0.shape)


def body_union(
    z1: complex,
    w1: complex,
    z0: complex,
    x_resolution: int = 10,
    w_resolution: int = 32,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BodyReport:
    """Inner union-of-disks approximation plus its membership grid.

    The parameter sweeps an equal-area grid of the (slightly shrunk)
    feasible parameter disk; each admissible value contributes one disk
    to the report's arrays.  The outer grid is a ``w_resolution`` grid
    of candidate values ``w0`` in the unit disk, flagged where the inner
    union covers them.
    """
    _check_body_args(z1, w1, z0)
    disk0 = one_point_disk(z1, w1)
    xs = disk0.center + INTERIOR_SHRINK * disk0.radius * _disk_grid(x_resolution)
    xs = xs[np.abs(xs) < 1.0]
    centers, radii, ok = _inner_disks(z1, w1, z0, xs, tol)
    return BodyReport(complex(z0), xs[ok], centers[ok], radii[ok], _disk_grid(w_resolution))
