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
each admissible parameter value ``x`` the attainable values form a disk
``D(c_x, R_x)``; sweeping ``x`` over its own feasible disk yields a
union of disks that is contained in the body.  Only the inclusion is
proved, so results are reported as an (inner union, outer grid) pair
and never as the full body.

Everything here is embarrassingly parallel over grid points; the
implementation simply vectorizes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DomainError, NotPsdError
from .feasibility import (
    Disk,
    MatrixBall,
    FEASIBLE,
    _batched_margins,
    _disk_grid,
    _disk_search,
    ball_unstructured,
    one_point_disk,
    pencil_from_parts,
)
from .linalg import DEFAULT_TOL, ToleranceConfig, psd_margin
from .pick import DataSet, aux_matrices, pick_matrix

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

    Requires the Pick matrix of the data positive definite and ``z0``
    inside the disk, distinct from every node.
    """
    if abs(z0) >= 1.0:
        raise DomainError("z0 must lie in the open unit disk")
    if np.any(d.nodes == z0):
        raise DomainError("z0 must differ from every interpolation node")
    p = pick_matrix(d)
    min_eig, scale = psd_margin(p, tol)
    if min_eig <= tol.psd_tol * scale:
        raise NotPsdError(
            f"Pick matrix must be positive definite (min eig {min_eig:.3e})"
        )
    aux = aux_matrices(d)
    delta0 = 1.0 - abs(z0) ** 2
    cauchy = np.kron(np.diag(1.0 / (1.0 - d.nodes * np.conj(z0))), np.eye(d.k))
    e_t = cauchy @ aux.e * np.sqrt(delta0)
    w_t = -cauchy @ aux.w_col * np.sqrt(delta0)
    outcome = ball_unstructured(pencil_from_parts(p, e_t, w_t, tol), tol)
    if outcome.status != FEASIBLE:
        # With P > 0 the unconstrained problem is solvable, so only a
        # numerically unusable pivot lands here.
        raise NotPsdError(f"body pencil unusable: {outcome.detail}")
    return outcome.ball


# ---------------------------------------------------------------------------
# constrained body, scalar data with one node


def _check_body_args(z1, w1, z0):
    if not 0 < abs(z1) < 1 or not 0 < abs(z0) < 1:
        raise DomainError("need nonzero z0, z1 in the open unit disk")
    if z0 == z1:
        raise DomainError("z0 must differ from z1")
    if abs(w1) >= 1:
        raise DomainError("need |w1| < 1")


def _anchored_one_node(z1: complex, w1: complex, x) -> np.ndarray:
    """3x3 anchored Pick matrix of the one-node problem, parameter first."""
    x = complex(x)
    return np.array(
        [
            [1 - abs(x) ** 2, 0, 1 - np.conj(w1) * x],
            [0, 1 - abs(x) ** 2, np.conj(z1) * (1 - np.conj(w1) * x)],
            [1 - w1 * np.conj(x), z1 * (1 - w1 * np.conj(x)), (1 - abs(w1) ** 2) / (1 - abs(z1) ** 2)],
        ],
        dtype=complex,
    )


def _body_columns(z1: complex, w1: complex, z0: complex, x) -> tuple:
    delta0 = 1.0 - abs(z0) ** 2
    root = np.sqrt(delta0)
    e = np.array([[1.0], [np.conj(z0)], [1.0 / (1.0 - np.conj(z0) * z1)]], dtype=complex) * root
    w = (
        np.array([[-x], [-np.conj(z0) * x], [-w1 / (1.0 - np.conj(z0) * z1)]], dtype=complex)
        * root
    )
    return e, w


def body_disk_x(
    z1: complex, w1: complex, z0: complex, x: complex, tol: ToleranceConfig = DEFAULT_TOL
) -> Optional[Disk]:
    """Disk of attainable values at ``z0`` for one fixed parameter value.

    Returns ``D(c_x, R_x)`` when the anchored one-node Pick matrix at
    ``x`` is positive definite and the evaluation-side semi-radius is
    positive; otherwise None (the parameter contributes no interior
    disk).
    """
    _check_body_args(z1, w1, z0)
    if abs(x) >= 1:
        raise DomainError("need |x| < 1")
    p = _anchored_one_node(z1, w1, x)
    min_eig, scale = psd_margin(p, tol)
    if min_eig <= tol.psd_tol * scale:
        return None
    e, w = _body_columns(z1, w1, z0, x)
    gram = p + w @ w.conj().T
    sol_e = np.linalg.solve(gram, e)
    sol_w = np.linalg.solve(gram, w)
    center = complex((-e.conj().T @ sol_w)[0, 0])
    r_x = float((1.0 - e.conj().T @ sol_e)[0, 0].real)
    l_x = float((1.0 - w.conj().T @ sol_w)[0, 0].real)
    if r_x <= 0:
        return None
    return Disk(center, float(np.sqrt(max(l_x, 0.0) * r_x)))


def _membership_stack(z1, w1, z0, w0, xs: np.ndarray) -> np.ndarray:
    """Batch of 4x4 membership matrices over parameter values ``xs``."""
    xs = np.asarray(xs, dtype=complex).reshape(-1)
    m = np.zeros((xs.size, 4, 4), dtype=complex)
    delta0 = 1.0 - abs(z0) ** 2
    root = np.sqrt(delta0)
    gap = 1.0 - np.abs(xs) ** 2
    top1 = 1.0 - np.conj(w1) * xs
    top0 = (1.0 - np.conj(w0) * xs) * root
    m[:, 0, 0] = gap
    m[:, 1, 1] = gap
    m[:, 0, 2] = top1
    m[:, 2, 0] = np.conj(top1)
    m[:, 1, 2] = np.conj(z1) * top1
    m[:, 2, 1] = np.conj(np.conj(z1) * top1)
    m[:, 0, 3] = top0
    m[:, 3, 0] = np.conj(top0)
    m[:, 1, 3] = np.conj(z0) * top0
    m[:, 3, 1] = np.conj(np.conj(z0) * top0)
    m[:, 2, 2] = (1.0 - abs(w1) ** 2) / (1.0 - abs(z1) ** 2)
    cross = root * (1.0 - w1 * np.conj(w0)) / (1.0 - np.conj(z0) * z1)
    m[:, 2, 3] = cross
    m[:, 3, 2] = np.conj(cross)
    m[:, 3, 3] = 1.0 - abs(w0) ** 2
    return m


def body_membership(
    z1: complex,
    w1: complex,
    z0: complex,
    w0: complex,
    x_resolution: int = 24,
    refine: int = 2,
    hints=(),
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Decide whether ``w0`` is an attainable value at ``z0``.

    Membership holds exactly when some parameter ``x`` in the disk makes
    the 4x4 augmented matrix PSD.  The search covers any caller-supplied
    hint values first, then a polar grid of the feasible parameter disk,
    and always runs all ``refine`` local refinement passes, so the
    witness is the best point found rather than the first that passes.

    Returns ``(inside, witness_x, margin)``; ``witness_x`` is None when
    no parameter passed the test (which does not prove exclusion, only
    grid-level absence).
    """
    _check_body_args(z1, w1, z0)
    if abs(w0) > 1.0:
        return False, None, -np.inf
    disk0 = one_point_disk(z1, w1)
    pts = [complex(h) for h in hints]
    pts.append(complex(disk0.center))
    base = np.asarray(pts, dtype=complex)
    grid = disk0.center + disk0.radius * _disk_grid(x_resolution)
    xs = np.concatenate([base, grid])
    xs = xs[np.abs(xs) < 1.0]
    best_x, best_lmin, best_scale, _, _ = _disk_search(
        lambda pts: _membership_stack(z1, w1, z0, w0, pts),
        xs,
        2.5 * disk0.radius / max(x_resolution, 4),
        refine,
        tol,
    )
    inside = bool(best_lmin >= -tol.psd_tol * best_scale)
    return inside, (complex(best_x) if inside else None), best_lmin


@dataclass(frozen=True)
class BodyReport:
    """Inner and outer approximations of a constrained interpolation body.

    ``inner_disks`` holds ``(x, Disk)`` pairs from the parameter sweep;
    their union is contained in the body.  ``outer_grid`` is an
    independent membership map (rows ``(w0, inside)``) over a grid of
    candidate values; it is reported alongside because only the inner
    inclusion is proved.
    """

    z0: complex
    inner_disks: tuple
    outer_grid: tuple = field(default=())

    def diameter(self) -> float:
        """Exact diameter of the union of the inner disks."""
        if not self.inner_disks:
            return 0.0
        best = max(2.0 * disk.radius for _, disk in self.inner_disks)
        disks = [disk for _, disk in self.inner_disks]
        for i, a in enumerate(disks):
            for bdisk in disks[i + 1 :]:
                best = max(best, abs(a.center - bdisk.center) + a.radius + bdisk.radius)
        return float(best)

    def covers(self, w0: complex, slack: float = 0.0) -> bool:
        return any(disk.contains(w0, slack) for _, disk in self.inner_disks)


def body_union(
    z1: complex,
    w1: complex,
    z0: complex,
    x_resolution: int = 10,
    w_resolution: int = 32,
    interior_shrink: float = 0.995,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> BodyReport:
    """Inner union-of-disks approximation plus an independent outer grid.

    The parameter sweeps an equal-area grid of the (slightly shrunk)
    feasible parameter disk; each admissible value contributes one disk.
    The outer grid tests candidate values ``w0`` directly with the 4x4
    PSD oracle against the same parameter grid, independently of the
    disk formulas.
    """
    _check_body_args(z1, w1, z0)
    disk0 = one_point_disk(z1, w1)
    xs = disk0.center + interior_shrink * disk0.radius * _disk_grid(x_resolution)
    xs = xs[np.abs(xs) < 1.0]
    inner = []
    for x in xs:
        disk = body_disk_x(z1, w1, z0, complex(x), tol)
        if disk is not None:
            inner.append((complex(x), disk))

    outer = []
    for w0 in _disk_grid(w_resolution):
        lmin, scale = _batched_margins(_membership_stack(z1, w1, z0, complex(w0), xs))
        inside = bool(np.any(lmin >= -tol.psd_tol * scale))
        outer.append((complex(w0), inside))
    return BodyReport(z0=complex(z0), inner_disks=tuple(inner), outer_grid=tuple(outer))
