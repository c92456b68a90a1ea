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

from typing import Optional

import numpy as np

from .errors import DomainError, IllConditionedError, NotPsdError
from .feasibility import (
    Disk,
    FeasReport,
    MatrixBall,
    _disk_grid,
    matrix_ball,
    one_point_disk,
    search_x_grid,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, _kron
from .pick import DataSet, pick_matrix
from .record import Record

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
    cauchy = _kron(np.diag(1.0 / (1.0 - d.nodes * np.conj(z0))), np.eye(d.k))
    e_t = cauchy @ np.tile(np.eye(d.k, dtype=complex), (d.n, 1)) * np.sqrt(delta0)
    w_t = -cauchy @ d.values.reshape(d.n * d.k, d.k) * np.sqrt(delta0)
    try:
        ball = matrix_ball(pick_matrix(d), e_t, w_t, tol)
    except IllConditionedError as err:
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

# Most entries in one broadcast block of ``BodyReport.covers`` and
# ``BodyReport.diameter``.  A complex block of 2**12 entries is 64 KiB; with
# the iteration buffers numpy allocates for a broadcast, a block peaks near
# 200 KiB at any resolution, which is less than the rest of a default
# ``body`` command allocates.  Twice the size raised the command's peak.
_BLOCK_ENTRIES = 1 << 12


def _row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` whose ``rows x width`` blocks hold at most
    ``_BLOCK_ENTRIES`` entries (one row when a single row is wider)."""
    step = max(1, _BLOCK_ENTRIES // max(1, width))
    return [slice(start, start + step) for start in range(0, rows, step)]


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
    solver's witness origin value as ``witness_x`` and an Infeasible one a
    dual ``certificate``.  Certified Infeasible and Undetermined stay
    apart.
    """
    _check_body_args(z1, w1, z0)
    return search_x_grid(DataSet.scalar([z1, z0], [w1, w0]), tol=tol)


class BodyReport(Record, eq=False):  # array fields: compare and hash by identity
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
    inside: np.ndarray

    def __init__(self, z0, xs, centers, radii, outer_grid):
        self.__dict__.update(z0=z0, xs=xs, centers=centers, radii=radii, outer_grid=outer_grid)
        self.__dict__["inside"] = self.covers(outer_grid)

    def diameter(self) -> float:
        """Exact diameter of the union of the inner disks (0 for none).

        The largest of ``2 r_i`` and ``(|c_i - c_j| + r_i) + r_j`` over the
        pairs ``i < j``.  The pair matrix is built in row blocks of at most
        ``_BLOCK_ENTRIES`` entries, each holding the columns from its first row on,
        and reduced over its strict upper triangle; so the temporaries stay under
        a megabyte however many disks there are.
        """
        c, r = self.centers, self.radii
        pairs = 0.0
        for rows in _row_blocks(r.size, r.size):
            block = np.abs(c[rows, None] - c[rows.start :])
            block += r[rows, None]
            block += r[rows.start :]
            pairs = np.maximum(pairs, np.triu(block, 1).max(initial=0.0))
        return float(max(2.0 * r.max(initial=0.0), pairs))

    def covers(self, w0, slack: float = 0.0):
        """Whether ``w0`` lies in some inner disk; elementwise for arrays.

        A point is covered when ``|w0 - c| <= r + slack`` for some disk.
        Only the points inside the disks' bounding box, widened by a
        relative pad far above rounding, get that test; the others cannot
        pass it.  When the box is not finite (no disks, or NaN or infinite
        entries), every point is tested.  The tested points meet all disks
        in one broadcast per block of at most ``_BLOCK_ENTRIES`` point-disk
        pairs, so the temporaries stay under a megabyte at any raster size.
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
        found = np.empty(candidates.shape, dtype=bool)
        for rows in _row_blocks(candidates.size, reach.size):
            found[rows] = (np.abs(candidates[rows, None] - self.centers) <= reach).any(axis=1)
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
