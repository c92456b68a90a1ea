"""Solvability analysis: matrix-ball description of the relaxed LMI,
scalar closed forms, and seeded/grid parameter searches.

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

The searches (``search_x_grid``, ``search_lambda`` and the body
membership test) each ask whether some point of a disk makes a small
Hermitian matrix PSD.  All run through ``_disk_search``: one batched
eigenvalue call per stack of points, then optional local refinement
around the best point (earliest index on ties).  The constrained Pick
matrix is affine in the parameter, so ``_AffineBuilder`` builds whole
stacks from ``2 k^2 + 1`` builder calls; ``search_lambda`` takes its
stacks from ``lambda_criterion_matrix`` applied to the whole array of
parameter values at once.  Scalar data are searched on
an equal-area polar grid plus candidates; matrix data only over one
stack of structured candidates (data values, ball-guided points,
seeded contractions), so a miss reports Undetermined, never
Infeasible: the structured set is a positive-dimensional manifold that
finitely many candidates cannot exhaust.
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
    check_overlap,
    constrained_pick,
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

# Pivot matrices with condition number beyond this route to grid search.
M_COND_LIMIT = 1e12

# Grid-based infeasibility is only declared at or beyond this resolution
# and with margins uniformly below 10 * psd_tol (relative).
INFEASIBLE_MIN_RESOLUTION = 200
INFEASIBLE_MARGIN_FACTOR = 10.0


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
    """Verdict of a feasibility search.

    ``status`` is Feasible, Infeasible or Undetermined.  Feasible
    reports carry a witness (parameter matrix or disk point).  ``margin``
    is the best smallest-eigenvalue found; ``grid_stats`` records grid
    resolution, point counts and the uniform margin bound that backs an
    Infeasible verdict.
    """

    status: str
    witness_x: Optional[np.ndarray] = None
    witness_lambda: Optional[complex] = None
    margin: float = -np.inf
    grid_stats: dict = field(default_factory=dict)
    detail: str = ""

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
    min_eig, scale = psd_margin(p, tol)
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
    otherwise the outcome is Undetermined and callers fall back to grid
    search.  An indefinite Schur complement certifies infeasibility of
    the unstructured LMI (hence of the structured problem as well).
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


def scalar_delta(d: DataSet, tol: ToleranceConfig = DEFAULT_TOL):
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
        deltas = scalar_delta(d, tol)
    delta, delta_tilde = deltas
    min_eig, scale = psd_margin(delta, tol)
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


class _AffineBuilder:
    """Batch evaluator of an affine Hermitian-valued map of a k x k parameter,

        x -> A0 + sum_ab (x_ab A_ab + conj(x_ab) A_ab*),

    recovered from ``2 k^2 + 1`` calls of ``build``.  For k = 1 this is
    ``A0 + x A1 + conj(x) A1*`` evaluated in that order.
    """

    def __init__(self, build, k: int):
        self.k = k
        self.a0 = build(np.zeros((k, k), dtype=complex))
        self.terms = []
        for index in range(k * k):
            unit = np.zeros((k, k), dtype=complex)
            unit.flat[index] = 1.0
            b1 = build(unit) - self.a0
            b2 = build(1j * unit) - self.a0
            a1 = 0.5 * (b1 - 1j * b2)
            self.terms.append((a1, a1.conj().T))

    def stack(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs, dtype=complex).reshape(-1, self.k * self.k)
        out = self.a0[None, :, :]
        for index, (a1, a1h) in enumerate(self.terms):
            x = xs[:, index, None, None]
            out = out + x * a1[None, :, :] + np.conj(x) * a1h[None, :, :]
        return out


def _certifies_infeasible(resolution: int, refine: int, uniform: bool) -> bool:
    """Gate for a grid-backed Infeasible verdict: fine grid, refined, uniformly negative."""
    return resolution >= INFEASIBLE_MIN_RESOLUTION and refine >= 2 and uniform


def _disk_search(stack_for, points, halfwidth: float, refine: int, tol: ToleranceConfig):
    """Best of ``points`` by relative smallest eigenvalue, then ``refine`` local passes.

    ``stack_for`` maps an array of points to the stack of Hermitian
    matrices to test.  Each refinement pass evaluates a square grid of
    ``halfwidth`` around the best point so far (the halfwidth shrinks
    six-fold per pass) and keeps a strictly better point; ties go to the
    earliest index.  Returns ``(best_point, margin, scale, points_evaluated,
    uniformly_negative)``, the last flag covering every evaluated point.
    """
    best_x, best_lmin, best_scale = None, -np.inf, 1.0
    total, uniform = 0, True
    for step in range(max(0, refine) + 1):
        if step:
            points = _refine_grid(best_x, halfwidth)
            halfwidth /= 6.0
            if points.size == 0:
                break
        lmin, scale = _batched_margins(stack_for(points))
        rel = lmin / scale
        best = int(np.argmax(rel))
        total += len(points)
        uniform = uniform and bool(np.all(lmin < -INFEASIBLE_MARGIN_FACTOR * tol.psd_tol * scale))
        if best_x is None or rel[best] > best_lmin / best_scale:
            best_x, best_lmin, best_scale = points[best], lmin[best], scale[best]
    return best_x, float(best_lmin), float(best_scale), total, uniform


def _overlap_report(d: DataSet, b: BlaschkeSpec, tol: ToleranceConfig) -> FeasReport:
    verdict = check_overlap(d, b, tol)
    if verdict.conflict:
        return FeasReport(INFEASIBLE, detail="overlap values differ", margin=-np.inf)
    status = FEASIBLE if verdict.feasible else INFEASIBLE
    return FeasReport(
        status,
        witness_x=verdict.anchor if verdict.feasible else None,
        margin=float(verdict.margin if verdict.margin is not None else -np.inf),
        detail=verdict.detail,
    )


def _structured_candidates(d: DataSet, b: BlaschkeSpec, seed: int, count: int, tol):
    """Candidate parameter matrices: data values, ball-guided, seeded contractions."""
    k = d.k
    cands = [np.zeros((k, k), dtype=complex)]
    cands.extend(d.values[i] for i in range(d.n))
    cands.append(d.values.mean(axis=0))
    pencil = pencil_build(d, tol)
    outcome = ball_unstructured(pencil, tol)
    if outcome.status == FEASIBLE:
        ball = outcome.ball
        # Project the unstructured ball center onto the repeated structure;
        # the LMI was posed with the opposite parameter sign, hence the flip.
        blocks = [ball.center[i * k : (i + 1) * k, i * k : (i + 1) * k] for i in range(2)]
        cands.append(-0.5 * (blocks[0] + blocks[1]))
        rng = np.random.default_rng(seed)
        lh = sqrt_psd(ball.left, tol)
        rh = sqrt_psd(ball.right, tol)
        for _ in range(8):
            kk = rng.standard_normal((2 * k, 2 * k)) + 1j * rng.standard_normal((2 * k, 2 * k))
            kk *= rng.uniform(0.0, 1.0) / max(operator_norm(kk), 1e-12)
            xt = ball.center + lh @ kk @ rh
            blocks = [xt[i * k : (i + 1) * k, i * k : (i + 1) * k] for i in range(2)]
            cands.append(-0.5 * (blocks[0] + blocks[1]))
    rng = np.random.default_rng(seed + 1)
    for _ in range(count):
        x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        x *= rng.uniform(0.0, 0.999) / max(operator_norm(x), 1e-12)
        cands.append(x)
    return cands


def search_x_grid(
    d: DataSet,
    b: Optional[BlaschkeSpec] = None,
    resolution: int = 64,
    refine: int = 2,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FeasReport:
    """Search for a parameter making the constrained Pick matrix PSD.

    Scalar data: equal-area polar grid over the disk (plus the data
    values, the one-point disk center when available, and ball-guided
    candidates), followed by ``refine`` local refinement passes around
    the best margin.  The verdict is Feasible as soon as the best point
    passes the PSD test.  Infeasible is declared only for scalar data,
    only at ``resolution >= 200`` with ``refine >= 2``, and only when
    the margin stays below ``-10 psd_tol`` (relative) uniformly over
    every evaluated point; anything weaker reports Undetermined, since
    a finite grid cannot prove emptiness.

    Matrix data: candidates plus seeded random contractions only, so the
    outcome is Feasible or Undetermined.

    Overlapping nodes and constraint zeros short-circuit to the exact
    overlap analysis.
    """
    b = b if b is not None else BlaschkeSpec.z_squared()
    if any(np.any(b.zeros == z) for z in d.nodes):
        return _overlap_report(d, b, tol)
    bundle = assemble_bundle(d, b, tol)
    builder = _AffineBuilder(lambda x: constrained_pick(d, b, x, bundle=bundle), d.k)

    if d.k == 1:
        candidates = [0.0 + 0.0j]
        candidates.extend(complex(v) for v in d.scalar_values() if abs(v) < 1)
        if d.n == 1 and 0 < abs(d.nodes[0]) < 1 and abs(d.scalar_values()[0]) < 1:
            candidates.append(complex(one_point_disk(d.nodes[0], d.scalar_values()[0]).center))
        pencil = pencil_build(d, tol)
        outcome = ball_unstructured(pencil, tol)
        if outcome.status == FEASIBLE:
            c = outcome.ball.center
            candidates.append(complex(-0.5 * (c[0, 0] + c[1, 1])))

        pts = np.concatenate([np.asarray(candidates, dtype=complex), _disk_grid(resolution)])
        best_x, best_lmin, best_scale, total, uniform = _disk_search(
            builder.stack, pts, 2.5 / max(resolution, 4), refine, tol
        )
        stats = {
            "resolution": int(resolution),
            "refine": int(refine),
            "points": total,
            "best_margin": best_lmin,
            "best_scale": best_scale,
            "uniform_infeasible": uniform,
        }
        if best_lmin >= -tol.psd_tol * best_scale:
            return FeasReport(
                FEASIBLE,
                witness_x=np.array([[best_x]]),
                margin=best_lmin,
                grid_stats=stats,
                detail="witness found by disk grid",
            )
        if _certifies_infeasible(resolution, refine, uniform):
            return FeasReport(
                INFEASIBLE,
                margin=best_lmin,
                grid_stats=stats,
                detail="margin uniformly negative over the refined grid",
            )
        return FeasReport(
            UNDETERMINED,
            margin=best_lmin,
            grid_stats=stats,
            detail="no witness found; grid too coarse to certify infeasibility",
        )

    # matrix data: candidate search only
    count = max(64, 4 * resolution)
    candidates = np.asarray(_structured_candidates(d, b, seed, count, tol))
    witness, best_margin, best_scale, _, _ = _disk_search(builder.stack, candidates, 0.0, 0, tol)
    stats = {"resolution": int(resolution), "candidates": count, "best_margin": best_margin}
    if best_margin >= -tol.psd_tol * best_scale:
        return FeasReport(
            FEASIBLE, witness_x=witness, margin=best_margin, grid_stats=stats,
            detail="witness found among structured candidates",
        )
    return FeasReport(
        UNDETERMINED,
        margin=best_margin,
        grid_stats=stats,
        detail="candidate search cannot certify infeasibility for matrix data",
    )


def search_lambda(
    d: DataSet,
    resolution: int = 64,
    refine: int = 2,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> FeasReport:
    """One-parameter grid search of the disk-automorphism criterion (k = 1).

    A single parameter value whose criterion matrix is PSD certifies
    feasibility.  The Infeasible gate mirrors :func:`search_x_grid`:
    resolution >= 200, refine >= 2 and uniformly negative margins.
    """
    if d.k != 1:
        raise DomainError("the one-parameter criterion applies to scalar data only")
    if np.any(d.nodes == 0):
        raise DomainError("the one-parameter criterion requires nonzero nodes")
    candidates = [0.0 + 0.0j] + [complex(v) for v in d.scalar_values() if abs(v) < 1]
    pts = np.concatenate([np.asarray(candidates), _disk_grid(resolution)])
    best_l, best_lmin, best_scale, total, uniform = _disk_search(
        lambda lams: lambda_criterion_matrix(d, lams), pts, 2.5 / max(resolution, 4), refine, tol
    )
    stats = {
        "resolution": int(resolution),
        "refine": int(refine),
        "points": total,
        "best_margin": best_lmin,
        "uniform_infeasible": uniform,
    }
    if best_lmin >= -tol.psd_tol * best_scale:
        return FeasReport(
            FEASIBLE,
            witness_lambda=complex(best_l),
            margin=best_lmin,
            grid_stats=stats,
            detail="criterion matrix PSD at the reported parameter",
        )
    if _certifies_infeasible(resolution, refine, uniform):
        return FeasReport(
            INFEASIBLE, margin=best_lmin, grid_stats=stats,
            detail="margin uniformly negative over the refined grid",
        )
    return FeasReport(
        UNDETERMINED, margin=best_lmin, grid_stats=stats,
        detail="no witness found; grid too coarse to certify infeasibility",
    )

