"""Solvability analysis: matrix-ball description of the relaxed LMI,
scalar closed forms, the certified solver and the lambda-criterion
grid search.

The constrained interpolation problem is solvable exactly when the
linearized constrained Pick matrix is PSD for some value of the free
parameter.  Dropping the repetition structure of the parameter turns
the question into a standard linear matrix inequality

    [ P            Et + Wt Xt* ]
    [ Et* + Xt Wt*  I - Xt Xt* ]  >=  0

whose solution set, when the Pick matrix ``P`` is positive definite and
the pivot matrix ``M`` is invertible, is a matrix ball

    Xt = C + Lam^(1/2) K L^(1/2),        ||K|| <= 1,

with ``C = -Et* G^-1 Wt``, ``Lam = I - Et* G^-1 Et``,
``L = I - Wt* G^-1 Wt`` and ``G = P + Wt Wt*``.  Solutions exist iff
``Lam`` is PSD, and strict contractions ``K`` correspond exactly to
strict positivity.  Note the factor order: the completed square reads
``(Xt - C) L^-1 (Xt - C)* <= Lam``, so ``Lam`` is the left semi-radius.

``search_x_grid`` decides solvability for every k and every Blaschke
constraint with one log-barrier solver: ``A(X)`` is affine in the
parameter (``constrained_pick_terms`` reads its coefficients off the
Pick bundle), so ``lambda_min(A(X))`` is concave over ``||X|| <= 1``.
The maximiser is the Feasible witness; the dual matrix is an Infeasible
certificate that ``_dual_bound`` checks without the solver.  Body
membership is not a separate search: it is ``search_x_grid`` on the
augmented data.  ``search_lambda`` alone stays a grid search (one
batched eigenvalue call per stack of points, then local refinement):
the lambda criterion is not affine in its parameter, and
``search_lambda`` is the independent cross-check of ``search_x_grid``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import DegenerateDataError, DomainError, NotPsdError, SingularBlockError
from .kernels import lambda_criterion_matrix
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    hermitian_part,
    inv_sqrt_psd,
    is_psd,
    operator_norm,
    psd_margin,
    sqrt_psd,
)
from .pick import (
    BlaschkeSpec,
    DataSet,
    assemble_bundle,
    aux_matrices,
    constrained_pick,
    constrained_pick_terms,
    pick_matrix,
)

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "UNDETERMINED",
    "Disk",
    "MatrixBall",
    "FeasReport",
    "LmiPencil",
    "BallOutcome",
    "pencil_build",
    "pencil_from_parts",
    "ball_unstructured",
    "ball_membership",
    "ball_sample",
    "scalar_delta",
    "scalar_feasible_x",
    "one_point_disk",
    "search_x_grid",
    "search_lambda",
]

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDETERMINED = "Undetermined"

# Pivot matrices with condition number beyond this give no matrix ball.
M_COND_LIMIT = 1e12

# Grid-based infeasibility is only declared at or beyond this resolution
# and with margins uniformly below 10 * psd_tol (relative).
INFEASIBLE_MIN_RESOLUTION = 200
INFEASIBLE_MARGIN_FACTOR = 10.0
# Local refinement passes of ``search_lambda`` after the disk grid.
REFINE_PASSES = 2


@dataclass(frozen=True)
class Disk:
    """Closed disk in the complex plane."""

    center: complex
    radius: float

    def __post_init__(self):
        if self.radius < 0:
            raise DomainError("disk radius must be nonnegative")

    def contains(self, point: complex, slack: float = 0.0) -> bool:
        return abs(point - self.center) <= self.radius + slack

    def boundary(self, count: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(count) / count
        return self.center + self.radius * np.exp(1j * theta)


@dataclass(frozen=True)
class MatrixBall:
    """Matrix ball ``{ C + left^(1/2) K right^(1/2) : ||K|| <= 1 }``."""

    center: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def as_disk(self) -> Disk:
        """Scalar specialization (all blocks 1 x 1)."""
        if self.center.shape != (1, 1):
            raise DomainError("as_disk requires a 1x1 ball")
        radius = np.sqrt(max(self.left[0, 0].real, 0.0) * max(self.right[0, 0].real, 0.0))
        return Disk(complex(self.center[0, 0]), float(radius))


def ball_sample(ball: MatrixBall, k_param, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Point of the ball at the free contraction parameter ``k_param``."""
    return ball.center + sqrt_psd(ball.left, tol) @ np.asarray(k_param, dtype=complex) @ sqrt_psd(
        ball.right, tol
    )


def ball_membership(ball: MatrixBall, xt, tol: ToleranceConfig = DEFAULT_TOL):
    """Invert the ball parametrization at a candidate point.

    Returns ``(inside, K, norm)`` with
    ``K = left^(-1/2) (xt - C) right^(-1/2)`` and
    ``inside = (||K|| <= 1 + psd_tol)``.  Requires both semi-radii to be
    positive definite; otherwise :class:`NotPsdError` propagates.
    """
    xt = np.asarray(xt, dtype=complex)
    k = inv_sqrt_psd(ball.left, tol) @ (xt - ball.center) @ inv_sqrt_psd(ball.right, tol)
    norm = operator_norm(k)
    return bool(norm <= 1.0 + tol.psd_tol), k, norm


@dataclass(frozen=True)
class FeasReport:
    """Verdict of a solvability question, the one record every route returns.

    ``status`` is Feasible, Infeasible or Undetermined.  A Feasible
    report carries ``witness_x``, a k x k origin value at which the
    constrained Pick matrix is PSD, so :func:`constrained_pick_cf`
    re-checks it.  The solver of :func:`search_x_grid` reports its
    maximiser, its overlap route the value shared by the nodes that meet
    the constraint zeros, and :func:`search_lambda` its ``[[lambda]]``
    (lambda is the origin value).  ``margin`` is the best smallest
    eigenvalue found; ``grid_stats`` records the work done and the
    bounds behind the verdict.  Its ``points`` counts grid points for
    :func:`search_lambda` and Newton steps for :func:`search_x_grid`
    (the key keeps its name).  Infeasible verdicts of the solver carry
    their dual ``certificate``.
    """

    status: str
    witness_x: Optional[np.ndarray] = None
    margin: float = -np.inf
    grid_stats: dict = field(default_factory=dict)
    detail: str = ""
    certificate: Optional[np.ndarray] = None

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


@dataclass(frozen=True)
class LmiPencil:
    """Data of the relaxed LMI: Pick matrix, stacked side matrices, pivot.

    ``e_tilde`` stacks (E, ZE), ``w_tilde`` stacks (W, ZW).  ``m`` is the
    4k x 4k pivot matrix of the positive-subspace argument, ``lam`` the
    Schur complement deciding solvability; both are None when the Pick
    matrix is not positive definite (the ball route then refuses).
    """

    p: np.ndarray
    e_tilde: np.ndarray
    w_tilde: np.ndarray
    p_is_pd: bool
    p_min_eig: float
    m: Optional[np.ndarray] = None
    lam: Optional[np.ndarray] = None
    m_cond: float = np.inf


def pencil_from_parts(p, e_tilde, w_tilde, tol: ToleranceConfig = DEFAULT_TOL) -> LmiPencil:
    """Build a pencil from an arbitrary (P, Et, Wt) triple.

    Used both for the structured feasibility pencil and for the
    interpolation-body pencils, which share the algebra but not the
    stacking.
    """
    p = np.asarray(p, dtype=complex)
    e_tilde = np.asarray(e_tilde, dtype=complex)
    w_tilde = np.asarray(w_tilde, dtype=complex)
    min_eig, scale = psd_margin(p)
    pd = min_eig > tol.psd_tol * scale
    if not pd:
        return LmiPencil(p, e_tilde, w_tilde, p_is_pd=False, p_min_eig=min_eig)
    pinv_e = np.linalg.solve(p, e_tilde)
    pinv_w = np.linalg.solve(p, w_tilde)
    a = e_tilde.shape[1]
    b = w_tilde.shape[1]
    m = np.block(
        [
            [np.eye(a) - e_tilde.conj().T @ pinv_e, -e_tilde.conj().T @ pinv_w],
            [-w_tilde.conj().T @ pinv_e, -(np.eye(b) + w_tilde.conj().T @ pinv_w)],
        ]
    )
    gram = p + w_tilde @ w_tilde.conj().T
    lam = hermitian_part(np.eye(a) - e_tilde.conj().T @ np.linalg.solve(gram, e_tilde))
    return LmiPencil(
        p,
        e_tilde,
        w_tilde,
        p_is_pd=True,
        p_min_eig=min_eig,
        m=hermitian_part(m),
        lam=lam,
        m_cond=float(np.linalg.cond(m)),
    )


def pencil_build(d: DataSet, tol: ToleranceConfig = DEFAULT_TOL) -> LmiPencil:
    """Structured pencil of a data set: Et = [E  ZE], Wt = [W  ZW]."""
    p = pick_matrix(d)
    aux = aux_matrices(d)
    e_tilde = np.hstack([aux.e, aux.z @ aux.e])
    w_tilde = np.hstack([aux.w_col, aux.z @ aux.w_col])
    return pencil_from_parts(p, e_tilde, w_tilde, tol)


@dataclass(frozen=True)
class BallOutcome:
    status: str
    ball: Optional[MatrixBall] = None
    detail: str = ""


def ball_unstructured(pencil: LmiPencil, tol: ToleranceConfig = DEFAULT_TOL) -> BallOutcome:
    """Matrix-ball description of the unstructured LMI solution set.

    Requires the Pick matrix positive definite and a usable pivot;
    otherwise the outcome is Undetermined and carries no ball.  An
    indefinite Schur complement certifies infeasibility of the
    unstructured LMI (hence of the structured problem as well).
    """
    if not pencil.p_is_pd:
        return BallOutcome(
            UNDETERMINED,
            detail=f"Pick matrix not positive definite (min eig {pencil.p_min_eig:.3e})",
        )
    if not np.isfinite(pencil.m_cond) or pencil.m_cond > M_COND_LIMIT:
        return BallOutcome(
            UNDETERMINED,
            detail=f"pivot matrix nearly singular (cond ~ {pencil.m_cond:.3e})",
        )
    ok, min_eig = is_psd(pencil.lam, tol)
    if not ok:
        return BallOutcome(
            INFEASIBLE, detail=f"solvability complement indefinite (min eig {min_eig:.3e})"
        )
    gram = pencil.p + pencil.w_tilde @ pencil.w_tilde.conj().T
    center = -pencil.e_tilde.conj().T @ np.linalg.solve(gram, pencil.w_tilde)
    b = pencil.w_tilde.shape[1]
    right = hermitian_part(
        np.eye(b) - pencil.w_tilde.conj().T @ np.linalg.solve(gram, pencil.w_tilde)
    )
    return BallOutcome(FEASIBLE, ball=MatrixBall(center=center, left=pencil.lam, right=right))


# ---------------------------------------------------------------------------
# scalar closed forms


def scalar_delta(d: DataSet):
    """Scalar-route matrices ``(Delta, Delta_tilde)`` for k = 1 data.

    ``Delta = P + W W* + Z W W* Z*`` (the trailing factor is the adjoint
    of ``Z``; ``Delta`` must be Hermitian for its square root to exist)
    and

    ``Delta_tilde = P - E E* - Z E E* Z*
                    + (W E* + Z W E* Z*) Delta^-1 (E W* + Z E W* Z*)``.

    ``Delta_tilde`` PSD is necessary for solvability; membership of a
    parameter in the feasible set reduces to a single PSD test, see
    :func:`scalar_feasible_x`.
    """
    if d.k != 1:
        raise DomainError("scalar route requires k = 1")
    if np.any(np.abs(d.scalar_values()) >= 1.0):
        raise DomainError("scalar route requires all |w_i| < 1")
    aux = aux_matrices(d)
    p = pick_matrix(d)
    z, e, w = aux.z, aux.e, aux.w_col
    delta = hermitian_part(p + w @ w.conj().T + z @ w @ w.conj().T @ z.conj().T)
    cond = np.linalg.cond(delta)
    if not np.isfinite(cond) or cond > 1e14:
        raise SingularBlockError("Delta is numerically singular", cond=cond)
    cross = e @ w.conj().T + z @ e @ w.conj().T @ z.conj().T  # E W* + Z E W* Z*
    delta_tilde = hermitian_part(
        p
        - e @ e.conj().T
        - z @ e @ e.conj().T @ z.conj().T
        + cross.conj().T @ np.linalg.solve(delta, cross)
    )
    return delta, delta_tilde


def scalar_feasible_x(
    d: DataSet, x: complex, deltas=None, tol: ToleranceConfig = DEFAULT_TOL
):
    """Scalar-route PSD test of one parameter value (k = 1, ``|x| < 1``).

    Forms ``K = conj(x) Delta^(1/2) - Delta^(-1/2) (E W* + Z E W* Z*)``
    and tests ``Delta_tilde - K* K`` for positive semidefiniteness; the
    verdict coincides with PSD of the quadratic constrained Pick matrix
    at ``x``.

    Returns ``(psd, margin)``.
    """
    if abs(x) >= 1.0:
        raise DomainError("the scalar route assumes |x| < 1")
    if deltas is None:
        deltas = scalar_delta(d)
    delta, delta_tilde = deltas
    min_eig, scale = psd_margin(delta)
    if min_eig <= tol.psd_tol * scale:
        raise NotPsdError("Delta must be positive definite for the scalar route")
    aux = aux_matrices(d)
    z, e, w = aux.z, aux.e, aux.w_col
    cross = e @ w.conj().T + z @ e @ w.conj().T @ z.conj().T
    k_mat = np.conj(x) * sqrt_psd(delta, tol) - inv_sqrt_psd(delta, tol) @ cross
    verdict, margin = is_psd(delta_tilde - k_mat.conj().T @ k_mat, tol)
    return verdict, margin


def one_point_disk(z1: complex, w1: complex) -> Disk:
    """Feasible-parameter disk of a one-point scalar problem.

    For a single interpolation condition ``s(z1) = w1`` with
    ``0 < |z1| < 1`` and ``|w1| < 1`` a solution always exists and the
    feasible parameter set is the closed disk with

        c = w1 (1 - |z1|^4) / (1 - |z1|^4 |w1|^2)
        r = |z1|^2 (1 - |w1|^2) / (1 - |z1|^4 |w1|^2).

    The constrained Pick matrix is positive definite exactly on the open
    disk, and the closed disk always stays inside the unit disk.
    """
    if not 0 < abs(z1) < 1:
        raise DomainError("need 0 < |z1| < 1")
    if abs(w1) > 1:
        raise DomainError("need |w1| <= 1")
    if abs(w1) == 1:
        raise DegenerateDataError(
            "|w1| = 1 is degenerate: the constant function is the unique solution "
            "and only x = w1 is feasible"
        )
    denom = 1.0 - abs(z1) ** 4 * abs(w1) ** 2
    center = w1 * (1.0 - abs(z1) ** 4) / denom
    radius = abs(z1) ** 2 * (1.0 - abs(w1) ** 2) / denom
    return Disk(complex(center), float(radius))


# ---------------------------------------------------------------------------
# grid machinery


def _disk_grid(resolution: int) -> np.ndarray:
    """Equal-area polar grid of the unit disk.

    ``resolution`` counts points across a diameter; rings sit at
    ``sqrt((i - 1/2) / rings)`` so every cell covers the same area, with
    the angular count matched per ring.  Total points ~ pi/4 *
    resolution^2.
    """
    rings = max(1, resolution // 2)
    points = [0.0 + 0.0j]
    for i in range(1, rings + 1):
        radius = np.sqrt((i - 0.5) / rings)
        count = max(8, int(round(np.pi * (2 * i - 1))))
        theta = 2.0 * np.pi * (np.arange(count) + 0.5 * (i % 2)) / count
        points.append(radius * np.exp(1j * theta))
    return np.concatenate([np.atleast_1d(p) for p in points])


def _refine_grid(center: complex, halfwidth: float, per_side: int = 17) -> np.ndarray:
    side = np.linspace(-halfwidth, halfwidth, per_side)
    re, im = np.meshgrid(side, side)
    pts = center + re.ravel() + 1j * im.ravel()
    pts = pts[np.abs(pts) < 1.0 - 1e-12]
    return pts


def _batched_margins(stack: np.ndarray):
    """Smallest eigenvalue and relative scale for a stack of Hermitian matrices."""
    w = np.linalg.eigvalsh(stack)
    lmin = w[:, 0]
    scale = 1.0 + np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1]))
    return lmin, scale


def _dual_bound(a0: np.ndarray, terms: np.ndarray, y: np.ndarray) -> float:
    """Upper bound on ``lambda_min(A(X))`` over all ``||X|| <= 1``, certified by ``y``.

    With ``y`` clipped to its PSD part and scaled to unit trace,
    ``lambda_min(A(X)) <= Re tr(y A(X)) = Re tr(y A0) + 2 Re tr(X G^T)``,
    ``G_ab = tr(y A_ab)``, and ``|tr(X G^T)| <= ||X|| ||G||_*``.  Every
    admissible ``X`` is the value of a contractive function at the
    constraint zeros, so ``||X|| <= 1`` loses nothing.
    """
    w, v = np.linalg.eigh(hermitian_part(y))
    w = np.clip(w, 0.0, None)
    y = (v * (w / w.sum())) @ v.conj().T
    g = np.einsum("ij,abji->ab", y, terms)
    return float(np.trace(y @ a0).real + 2.0 * np.linalg.norm(g, "nuc"))


def _maximize_min_eig(a0: np.ndarray, terms: np.ndarray, tol: ToleranceConfig):
    """Maximise ``lambda_min(A(X))`` over ``||X|| <= 1`` by a log-barrier method.

    Damped Newton on ``-s t - log det(A(X) - t I) - log det [[I, X], [X*, I]]``
    in the real coordinates of ``(X, t)``, with ``s`` growing eight-fold
    per pass.  Each pass yields a lower bound ``lambda_min(A(X))`` at the
    current ``X`` and an upper bound :func:`_dual_bound` of
    ``Y = (A(X) - t I)^-1``.  Stops once the upper bound is below
    ``-psd_tol * scale``, or the gap or the central path's gap bound
    ``size / s`` is at most ``psd_tol * scale`` (beyond it lies rounding).
    Returns ``(best_x, best_lmin, best_scale, upper_bound, Y, newton_steps)``.
    """
    k, m = terms.shape[0], a0.shape[0]
    units = np.eye(k * k).reshape(k * k, k, k)
    coords = np.concatenate([units, 1j * units])  # X = sum_j y_j coords[j]
    # One block-diagonal pencil F(v) = F0 + sum_j v_j F_j, v = (y, t), for both barriers.
    f = np.zeros((len(coords) + 2, m + 2 * k, m + 2 * k), dtype=complex)
    f[0, :m, :m] = a0
    f[0, m:, m:] = np.eye(2 * k)
    flat = terms.reshape(k * k, m, m)
    flat_h = flat.conj().transpose(0, 2, 1)
    f[1:-1, :m, :m] = np.concatenate([flat + flat_h, 1j * (flat - flat_h)])
    f[1:-1, m : m + k, m + k :] = coords
    f[1:-1, m + k :, m : m + k] = coords.conj().transpose(0, 2, 1)
    f[-1, :m, :m] = -np.eye(m)
    f = 0.5 * (f + f.conj().transpose(0, 2, 1))

    def pencil(v):
        return f[0] + np.tensordot(v, f[1:], 1)

    def barrier(v, s):
        try:
            chol = np.linalg.cholesky(pencil(v))
        except np.linalg.LinAlgError:
            return np.inf
        return -s * v[-1] - 2.0 * np.sum(np.log(chol.diagonal().real))

    v = np.zeros(len(f) - 1)
    v[-1] = -1.0 - np.linalg.norm(a0)  # A0 - t I >= I
    s = np.trace(np.linalg.inv(pencil(v)[:m, :m])).real
    best = (None, -np.inf, 1.0)
    upper, certificate, steps = np.inf, None, 0
    for _ in range(40):
        for _ in range(50):
            g_mats = np.linalg.inv(pencil(v)) @ f[1:]
            grad = -np.einsum("jaa->j", g_mats).real
            grad[-1] -= s
            flat = g_mats.reshape(len(g_mats), -1)  # hess_ij = Re tr(G_i G_j)
            hess = (flat @ g_mats.transpose(0, 2, 1).reshape(len(g_mats), -1).T).real
            step = -np.linalg.solve(hess, grad)
            slope = grad @ step
            if -slope < 1e-6:
                break
            value, alpha = barrier(v, s), 1.0
            while alpha > 1e-6 and barrier(v + alpha * step, s) > value + 0.25 * alpha * slope:
                alpha *= 0.5
            if alpha <= 1e-6:  # the barrier's decrease is below its rounding
                break
            v, steps = v + alpha * step, steps + 1
        shifted = pencil(v)[:m, :m]
        lmin, scale = _batched_margins(shifted[None] + v[-1] * np.eye(m))
        if lmin[0] / scale[0] > best[1] / best[2]:
            best = (np.tensordot(v[:-1], coords, 1), float(lmin[0]), float(scale[0]))
        y = np.linalg.inv(shifted)
        y /= np.trace(y).real
        bound = _dual_bound(a0, terms, y)
        if bound < upper:
            upper, certificate = bound, y
        if upper < -tol.psd_tol * best[2] or upper - best[1] <= tol.psd_tol * best[2]:
            break
        if len(f[0]) <= s * tol.psd_tol * best[2]:
            break
        s *= 8.0
    return best[0], best[1], best[2], upper, certificate, steps


def _overlap_search(d: DataSet, b: BlaschkeSpec, tol: ToleranceConfig) -> FeasReport:
    """Decide instances whose nodes meet the constraint zeros.

    If some nodes coincide with zeros of the Blaschke product, a
    solution exists exactly when all the overlapped target values agree
    (they all equal the shared value at the zeros) and the constrained
    Pick matrix at that value, built on the de-duplicated node set, is
    PSD.  With no remaining nodes this collapses to contractivity of the
    shared value.  A Feasible verdict carries the shared value as
    ``witness_x``.
    """
    overlap = [i for i, z in enumerate(d.nodes) if np.any(b.zeros == z)]
    anchor = d.values[overlap[0]]
    wscale = 1.0 + max(operator_norm(d.values[i]) for i in overlap)
    if any(operator_norm(d.values[i] - anchor) > tol.residual_tol * wscale for i in overlap[1:]):
        return FeasReport(INFEASIBLE, detail="overlap values differ")
    keep = [i for i in range(d.n) if i not in overlap]
    if keep:
        reduced = DataSet(d.nodes[keep], d.values[keep])
        ok, margin = is_psd(constrained_pick(reduced, b, anchor), tol)
        detail = "reduced to a PSD test at the shared overlap value"
    else:
        margin = 1.0 - operator_norm(anchor)
        ok = margin >= -tol.psd_tol
        detail = "all nodes overlap; feasibility = contractivity of the shared value"
    status = FEASIBLE if ok else INFEASIBLE
    return FeasReport(status, witness_x=anchor if ok else None, margin=float(margin), detail=detail)


def search_x_grid(
    d: DataSet, b: Optional[BlaschkeSpec] = None, tol: ToleranceConfig = DEFAULT_TOL
) -> FeasReport:
    """Decide whether some parameter makes the constrained Pick matrix PSD.

    Feasible when the maximal smallest eigenvalue found is at least
    ``-psd_tol * scale`` (the maximiser is the witness), Infeasible when
    the dual ``certificate`` bounds it below ``-psd_tol * scale``, else
    Undetermined.  Overlapping nodes and constraint zeros short-circuit
    to the exact overlap analysis (:func:`_overlap_search`).
    """
    b = b if b is not None else BlaschkeSpec.z_squared()
    if any(np.any(b.zeros == z) for z in d.nodes):
        return _overlap_search(d, b, tol)
    a0, terms = constrained_pick_terms(assemble_bundle(d, b, tol))
    best_x, best_lmin, best_scale, upper, certificate, steps = _maximize_min_eig(a0, terms, tol)
    certified = upper < -tol.psd_tol * best_scale
    stats = {"points": steps, "best_margin": best_lmin, "best_scale": best_scale,
             "upper_bound": upper, "uniform_infeasible": certified}
    if best_lmin >= -tol.psd_tol * best_scale:
        status, detail = FEASIBLE, "witness maximises the smallest eigenvalue"
    elif certified:
        status, detail = INFEASIBLE, "dual certificate bounds every admissible parameter below zero"
    else:
        status, detail = UNDETERMINED, f"gap [{best_lmin:.3e}, {upper:.3e}] straddles the tolerance"
    return FeasReport(
        status, witness_x=best_x if status == FEASIBLE else None, margin=best_lmin,
        grid_stats=stats, detail=detail, certificate=certificate if certified else None,
    )


def search_lambda(
    d: DataSet,
    resolution: int = 64,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FeasReport:
    """One-parameter grid search of the disk-automorphism criterion (k = 1).

    A single parameter value ``lambda`` whose criterion matrix is PSD
    certifies feasibility and is reported as ``witness_x = [[lambda]]``:
    the criterion matrix at ``lambda`` is congruent to the reduced Pick
    matrix at the origin value ``x = lambda``.  Infeasible needs
    resolution >= 200 and uniformly negative margins.
    """
    if d.k != 1:
        raise DomainError("the one-parameter criterion applies to scalar data only")
    if np.any(d.nodes == 0):
        raise DomainError("the one-parameter criterion requires nonzero nodes")
    candidates = [0.0 + 0.0j] + [complex(v) for v in d.scalar_values() if abs(v) < 1]
    points = np.concatenate([np.asarray(candidates), _disk_grid(resolution)])
    halfwidth = 2.5 / max(resolution, 4)
    # Best point by relative margin, then ``REFINE_PASSES`` passes over a square
    # of ``halfwidth`` around it (shrinking six-fold); ties go to the earliest index.
    best_l, best_lmin, best_scale = None, -np.inf, 1.0
    total, uniform = 0, True
    for step in range(REFINE_PASSES + 1):
        if step:
            points = _refine_grid(best_l, halfwidth)
            halfwidth /= 6.0
            if points.size == 0:
                break
        lmin, scale = _batched_margins(lambda_criterion_matrix(d, points))
        rel = lmin / scale
        best = int(np.argmax(rel))
        total += len(points)
        uniform = uniform and bool(np.all(lmin < -INFEASIBLE_MARGIN_FACTOR * tol.psd_tol * scale))
        if best_l is None or rel[best] > best_lmin / best_scale:
            best_l, best_lmin, best_scale = points[best], lmin[best], scale[best]
    best_lmin, best_scale = float(best_lmin), float(best_scale)
    stats = {
        "resolution": int(resolution),
        "points": total,
        "best_margin": best_lmin,
        "uniform_infeasible": uniform,
    }
    if best_lmin >= -tol.psd_tol * best_scale:
        return FeasReport(
            FEASIBLE,
            witness_x=np.array([[complex(best_l)]]),
            margin=best_lmin,
            grid_stats=stats,
            detail="criterion matrix PSD at the reported parameter",
        )
    if resolution >= INFEASIBLE_MIN_RESOLUTION and uniform:
        return FeasReport(
            INFEASIBLE, margin=best_lmin, grid_stats=stats,
            detail="margin uniformly negative over the refined grid",
        )
    return FeasReport(
        UNDETERMINED, margin=best_lmin, grid_stats=stats,
        detail="no witness found; grid too coarse to certify infeasibility",
    )

