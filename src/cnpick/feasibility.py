"""Solvability analysis: matrix-ball description of the relaxed LMI,
the one-point closed form, the certified solver and the
lambda-criterion grid search.

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
:func:`matrix_ball` returns that ball, None when ``Lam`` is indefinite
(the relaxed LMI has no solution), and refuses with a typed error when
``P`` or ``M`` is unusable; it describes a set and decides nothing.
Every solvability verdict is a :class:`FeasReport`.

``search_x_grid`` decides solvability for every k and every Blaschke
constraint with one primal-dual interior-point solver: ``A(X)`` is
affine in the parameter (``constrained_pick_terms`` reads its
coefficients off the Pick bundle), so maximising ``lambda_min(A(X))``
over ``||X|| <= 1`` is a small semidefinite program.  It starts at
``X = 0`` with ``t`` just below ``lambda_min(A(0))``, and each iteration
(an HKM direction with a Mehrotra predictor-corrector) gives a primal
``X``, whose ``lambda_min(A(X))`` is a lower bound, and a dual ``Y``,
whose ``Re tr(Y A0) + 2 ||G||_*`` (``G_ab = tr(Y A_ab)``) is an upper
bound.  While the iteration's Cholesky factorisation proves ``Y``
positive definite, that bound is read off one product of precomputed
trace rows with ``Y``; only when the factorisation fails (the stall
path) does ``_dual_bound`` clip ``Y`` to its PSD part first.  The
solver stops as soon as the two bounds decide the verdict (for Feasible:
a nonnegative margin that the upper bound proves within a factor
``DECIDED_FACTOR`` of the best one) or meet within the tolerance, and
the stop rule is reported.  The best primal iterate is the Feasible
witness; the dual matrix is an Infeasible certificate that
``_dual_bound`` checks without the solver.  Body
membership is not a separate search: it is ``search_x_grid`` on the
augmented data.  ``search_lambda`` alone stays a grid search (one
batched eigenvalue call per stack of points, then local refinement):
the lambda criterion is not affine in its parameter, and
``search_lambda`` is the independent cross-check of ``search_x_grid``.
A passing grid point proves Feasible, but no finite grid proves that
no point passes, so ``search_lambda`` says Feasible or Undetermined and
every Infeasible verdict comes with a certificate from the solver route.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .errors import DegenerateDataError, DomainError, NotPsdError, SingularBlockError
from .kernels import lambda_criterion_matrix
from .linalg import (
    DEFAULT_TOL,
    ToleranceConfig,
    _batched_margins,
    _kron,
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
    constrained_pick,
    constrained_pick_terms,
    pick_matrix,
)
from .record import Record

__all__ = [
    "FEASIBLE",
    "INFEASIBLE",
    "UNDETERMINED",
    "Disk",
    "MatrixBall",
    "FeasReport",
    "pencil_build",
    "matrix_ball",
    "ball_membership",
    "ball_sample",
    "one_point_disk",
    "search_x_grid",
    "search_lambda",
]

FEASIBLE = "Feasible"
INFEASIBLE = "Infeasible"
UNDETERMINED = "Undetermined"

# Pivot matrices with condition number beyond this give no matrix ball.
M_COND_LIMIT = 1e12

# Local refinement passes of ``search_lambda`` after the disk grid.
REFINE_PASSES = 2
# Iteration cap of the primal-dual solver, the fraction of the largest
# PSD-keeping step its corrector takes, and the factor within which a
# nonnegative margin must be certified optimal to end it as Feasible.
MAX_ITERATIONS = 50
STEP_FRACTION = 0.98
DECIDED_FACTOR = 2.0


class Disk(Record):
    """Closed disk in the complex plane."""

    center: complex
    radius: float

    def __init__(self, center, radius):
        if not np.isfinite(center):
            raise DomainError("disk center must be finite")
        if not radius >= 0:  # written so that NaN fails
            raise DomainError("disk radius must be nonnegative")
        self.__dict__.update(center=center, radius=radius)

    def contains(self, point: complex, slack: float = 0.0) -> bool:
        return abs(point - self.center) <= self.radius + slack

    def boundary(self, count: int) -> np.ndarray:
        theta = 2.0 * np.pi * np.arange(count) / count
        return self.center + self.radius * np.exp(1j * theta)


class MatrixBall(Record):
    """Matrix ball ``{ C + left^(1/2) K right^(1/2) : ||K|| <= 1 }``."""

    center: np.ndarray
    left: np.ndarray
    right: np.ndarray

    def __init__(self, center, left, right):
        self.__dict__.update(center=center, left=left, right=right)

    def as_disk(self) -> Disk:
        """Scalar specialization (all blocks 1 x 1)."""
        if self.center.shape != (1, 1):
            raise DomainError("as_disk requires a 1x1 ball")
        radius = np.sqrt(max(self.left[0, 0].real, 0.0) * max(self.right[0, 0].real, 0.0))
        return Disk(complex(self.center[0, 0]), float(radius))


def _ball_shaped(ball: MatrixBall, a, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.shape != ball.center.shape:
        raise DomainError(f"{name} has shape {a.shape}; the ball's points have {ball.center.shape}")
    return a


def ball_sample(ball: MatrixBall, k_param, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Point of the ball at the free contraction parameter ``k_param`` (shaped like a point)."""
    k = _ball_shaped(ball, k_param, "k_param")
    return ball.center + sqrt_psd(ball.left, tol) @ k @ sqrt_psd(ball.right, tol)


def ball_membership(ball: MatrixBall, xt, tol: ToleranceConfig = DEFAULT_TOL):
    """Invert the ball parametrization at a candidate point.

    Returns ``(inside, K, norm)`` with
    ``K = left^(-1/2) (xt - C) right^(-1/2)`` and
    ``inside = (||K|| <= 1 + psd_tol)``.  Requires both semi-radii to be
    positive definite; otherwise :class:`NotPsdError` propagates.  An
    argument of another shape than the ball's points raises
    :class:`DomainError`.
    """
    xt = _ball_shaped(ball, xt, "xt")
    k = inv_sqrt_psd(ball.left, tol) @ (xt - ball.center) @ inv_sqrt_psd(ball.right, tol)
    norm = operator_norm(k)
    return bool(norm <= 1.0 + tol.psd_tol), k, norm


class FeasReport(Record):
    """Verdict of a solvability question, the one record every route returns.

    ``status`` is Feasible, Infeasible or Undetermined.  A Feasible
    report carries ``witness_x``, a k x k origin value at which the
    constrained Pick matrix is PSD, so :func:`constrained_pick_cf`
    re-checks it.  The solver of :func:`search_x_grid` reports its best
    iterate, its overlap route the value shared by the nodes that meet
    the constraint zeros, and :func:`search_lambda` its ``[[lambda]]``
    (lambda is the origin value).  ``margin`` is the best smallest
    eigenvalue found; ``grid_stats`` records the work done and the
    bounds behind the verdict.  On a Feasible verdict of the solver,
    ``margin`` need not be the best achievable margin: after a
    ``decided`` stop it is nonnegative and ``grid_stats["upper_bound"]``
    proves it at least half of the best, after a ``gap`` stop it is
    within ``psd_tol * scale`` of the best.  On an Infeasible verdict of
    the solver, ``margin`` is the best lower bound met before the dual
    certified, so it says how far the solver got, not how infeasible the
    data are; ``grid_stats["upper_bound"]`` is the certified bound.  Its
    ``points`` counts grid points for :func:`search_lambda` and
    primal-dual iterations for :func:`search_x_grid` (the key keeps its
    name), whose ``stop`` names the rule that ended the solver:
    ``certified``, ``decided``, ``gap``, ``stall`` or ``cap``.  An
    Infeasible verdict may carry a ``certificate``, and
    ``certificate_kind`` says which of three it is (None without one):

    - ``"dual"``: the solver's dual matrix, checked by :func:`_dual_bound`
      over every admissible parameter;
    - ``"overlap_psd"``: ``v v*`` from the overlap route's PSD test, with
      ``tr(v v* A) < 0`` at the shared value;
    - ``"overlap_pair"``: the node indices ``[i, j]`` of two nodes on
      constraint zeros whose values differ by more than
      ``residual_tol * (1 + max ||W||)`` over those nodes.
    """

    status: str
    witness_x: Optional[np.ndarray]
    margin: float
    grid_stats: dict
    detail: str
    certificate: Optional[np.ndarray]
    certificate_kind: Optional[str]

    def __init__(self, status, witness_x=None, margin=-np.inf, grid_stats=None, detail="",
                 certificate=None, certificate_kind=None):
        self.__dict__.update(
            status=status, witness_x=witness_x, margin=margin,
            grid_stats={} if grid_stats is None else grid_stats, detail=detail,
            certificate=certificate, certificate_kind=certificate_kind,
        )

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE


def pencil_build(d: DataSet):
    """Relaxed-LMI data ``(P, Et, Wt)`` of a data set: Et = [E  ZE], Wt = [W  ZW]."""
    ik = np.eye(d.k, dtype=complex)
    z, e = _kron(np.diag(d.nodes), ik), np.tile(ik, (d.n, 1))
    w = d.values.reshape(d.n * d.k, d.k)
    e_tilde = np.hstack([e, z @ e])
    w_tilde = np.hstack([w, z @ w])
    return pick_matrix(d), e_tilde, w_tilde


def _pivot(p, e_tilde, w_tilde) -> np.ndarray:
    """Pivot matrix of the positive-subspace argument, ``diag(I, -I) - [Et Wt]* P^-1 [Et Wt]``."""
    sides = np.hstack([e_tilde, w_tilde])
    signs = np.r_[np.ones(e_tilde.shape[1]), -np.ones(w_tilde.shape[1])]
    return np.diag(signs) - sides.conj().T @ np.linalg.solve(p, sides)


def matrix_ball(p, e_tilde, w_tilde, tol: ToleranceConfig = DEFAULT_TOL) -> Optional[MatrixBall]:
    """Solution set of the relaxed LMI as a matrix ball, or None when it is empty.

    Raises :class:`NotPsdError` unless the Pick matrix ``P`` is positive
    definite and :class:`SingularBlockError` when the pivot matrix is
    nearly singular (condition number beyond ``M_COND_LIMIT``).  An
    indefinite ``Lam`` certifies that the relaxed LMI, hence the
    structured problem as well, has no solution: the result is None.
    """
    p, e_tilde, w_tilde = (np.asarray(a, dtype=complex) for a in (p, e_tilde, w_tilde))
    min_eig, scale = psd_margin(p)
    if min_eig <= tol.psd_tol * scale:
        raise NotPsdError(f"Pick matrix must be positive definite (min eig {min_eig:.3e})")
    cond = float(np.linalg.cond(_pivot(p, e_tilde, w_tilde)))
    if not cond <= M_COND_LIMIT:
        raise SingularBlockError(f"pivot matrix nearly singular (cond ~ {cond:.3e})", cond=cond)
    a = e_tilde.shape[1]
    solved = np.linalg.solve(p + w_tilde @ w_tilde.conj().T, np.hstack([e_tilde, w_tilde]))
    lam = hermitian_part(np.eye(a) - e_tilde.conj().T @ solved[:, :a])
    if not is_psd(lam, tol)[0]:
        return None
    center = -e_tilde.conj().T @ solved[:, a:]
    right = hermitian_part(np.eye(w_tilde.shape[1]) - w_tilde.conj().T @ solved[:, a:])
    return MatrixBall(center=center, left=lam, right=right)


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
    if not abs(w1) <= 1:  # written so that NaN fails
        raise DomainError("need finite w1 with |w1| <= 1")
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
    # Per ring, the center first as a ring of one point at radius 0: the index of
    # its first point less the ring's half-step offset, its size and its radius.
    # The rings are few, so Python builds this table and numpy repeats it per point.
    start, first, count, radius = 1, [0.0], [1], [0.0]
    for i in range(1, rings + 1):
        first.append(start - 0.5 * (i % 2))
        count.append(max(8, round(math.pi * (2 * i - 1))))
        radius.append(math.sqrt((i - 0.5) / rings))
        start += count[-1]
    first, size, radius = np.repeat([first, count, radius], count, axis=1)
    return radius * np.exp(1j * (2.0 * np.pi * (np.arange(start) - first) / size))


def _refine_grid(center: complex, halfwidth: float, per_side: int = 17) -> np.ndarray:
    side = np.linspace(-halfwidth, halfwidth, per_side)
    re, im = np.meshgrid(side, side)
    pts = center + re.ravel() + 1j * im.ravel()
    pts = pts[np.abs(pts) < 1.0 - 1e-12]
    return pts


def _bound(tr_a0: complex, g: np.ndarray) -> float:
    """The dual bound ``Re tr(Y A0) + 2 ||G||_*`` of a unit-trace ``Y`` from its traces."""
    return float(tr_a0.real + 2.0 * np.linalg.svd(g, compute_uv=False).sum())


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
    return _bound(np.trace(y @ a0), np.einsum("ij,abji->ab", y, terms))


def _maximize_min_eig(a0: np.ndarray, terms: np.ndarray, tol: ToleranceConfig):
    """Maximise ``lambda_min(A(X))`` over ``||X|| <= 1`` by a primal-dual method.

    The problem is the SDP ``max t`` subject to
    ``S = F(v) = (A(X) - t I) (+) [[I, X], [X*, I]] >= 0``, with ``v`` the
    real coordinates of ``(X, t)``; its dual variable ``Z >= 0`` has
    ``tr(F_j Z) = 0`` for the coordinates of ``X`` and a unit-trace
    ``m x m`` block.  The start is ``X = 0`` with ``t`` one percent of
    the scale ``1 + max |eig(A0)|`` below ``lambda_min(A0)``, and
    ``Z = S^-1`` scaled to a unit-trace ``m x m`` block, so it is exactly
    central; the eigenvalues of ``A0`` that place ``t`` are also
    iteration 0's margin.  Each iteration takes the HKM direction with a
    Mehrotra predictor-corrector from the Schur system
    ``M_ij = Re tr(F_i Z F_j S^-1)`` and keeps ``S`` and ``Z`` positive
    definite by step lengths read off one batched ``eigvalsh`` per
    direction; the corrector takes ``STEP_FRACTION`` of the largest such
    step, at most a full one.  ``S`` stays equal to ``F(v)``; ``Z`` may
    start off its equality constraints and reaches them at its first full
    step.

    Every iterate yields a lower bound ``lambda_min(A(X))``; the witness
    is the iterate with the largest one.  Every iterate also yields an
    upper bound from ``Z``'s ``m x m`` block ``Y``, which holds whether
    or not ``Z`` meets its constraints.  Each iteration starts with the
    Cholesky factorisation of ``(S, Z)``; when it succeeds, ``Y`` is
    positive definite and the bound is read off one product of
    precomputed trace rows ``[I; A0; A_ab]`` with the entries of ``Y``
    (no eigendecomposition).  When it fails, :func:`_dual_bound` gives
    the bound of ``Y`` clipped to its PSD part, and the iteration ends
    the solver as a stall unless a stop rule before it fires.  Both use
    the one formula of :func:`_bound`.  Stop rules, by name:
    ``certified`` once the upper bound is below ``-psd_tol * scale``;
    ``decided`` once the lower bound is nonnegative and the upper bound
    at most ``DECIDED_FACTOR`` times it (the verdict is Feasible, the
    witness has the nonnegative margin a chain needs, and the dual proves
    that margin at least half of the best one);
    ``gap`` once the two bounds are within ``psd_tol * scale`` (this ends
    near-threshold data, whose best margin is about zero);
    ``stall`` when a Cholesky factorisation of ``S``, ``Z`` or ``M``
    fails, or a direction is not finite; ``cap`` after
    ``MAX_ITERATIONS``.  While the two bounds straddle zero or
    ``-psd_tol * scale``, the gap rule waits: the iterations go on until
    the verdict is decided and the margin has reached zero (the Schur
    construction needs a witness with a nonnegative margin), or progress
    stalls.

    Returns ``(best_x, best_lmin, best_scale, upper_bound, Y, iterations,
    stop)``.
    """
    k, m = terms.shape[0], a0.shape[0]
    units = np.eye(k * k).reshape(k * k, k, k)
    coords = np.concatenate([units, 1j * units])  # X = sum_j y_j coords[j]
    coords_rows = coords.reshape(len(coords), -1)
    # One block-diagonal pencil F(v) = F0 + sum_j v_j F_j, v = (y, t).
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
    f0, fj = f[0], f[1:]
    fj_rows = fj.reshape(len(fj), -1)  # tr(F_j W) = fj_rows @ W.T.ravel()
    size = len(f0)
    eye_m = np.eye(m)
    target = np.zeros(len(fj))
    target[-1] = 1.0  # maximise t
    # tr(Y), tr(Y A0) and tr(Y A_ab) of an m x m block Y: one product with its flat entries.
    trace_rows = np.concatenate(
        [eye_m.reshape(1, -1), a0.T.reshape(1, -1), terms.swapaxes(-1, -2).reshape(k * k, -1)]
    )

    # ``np.dot`` on flat rows is the call ``np.tensordot(v, fj, 1)`` makes, without its wrapper.
    def combine(v):
        return np.dot(v[None], fj_rows).reshape(size, size)

    def traces(w):
        return (fj_rows @ w.T.ravel()).real

    def step_lengths(inv_chol, inv_chol_h, ds, dz, gamma):
        # Largest steps keeping S + a dS and Z + a dZ PSD, shortened by gamma, capped at 1.
        lowest = np.linalg.eigvalsh(inv_chol @ np.stack([ds, dz]) @ inv_chol_h)[:, 0]
        return np.minimum(1.0, gamma / np.maximum(-lowest, gamma))

    w = np.linalg.eigvalsh(a0)  # the spectrum of A(0): iteration 0's margin and the start's t
    v = np.zeros(len(fj))
    v[-1] = w[0] - 0.01 * (1.0 + max(abs(w[0]), abs(w[-1])))
    s = f0 + combine(v)
    z = np.linalg.inv(s)
    z /= np.trace(z[:m, :m]).real  # the central point of S, with a unit-trace Y block
    best = (None, -np.inf, 1.0)
    upper, certificate, stop = np.inf, None, "cap"
    for iterations in range(MAX_ITERATIONS + 1):
        if w[0] > best[1]:
            x = np.dot(v[None, :-1], coords_rows).reshape(k, k)
            best = (x, float(w[0]), float(1.0 + max(abs(w[0]), abs(w[-1]))))
        y = z[:m, :m]
        try:
            chol = np.linalg.cholesky(np.stack([s, z]))
            # Z > 0, so its block Y > 0 and needs no clipping: the bound is read off its traces.
            t = trace_rows @ y.ravel()
            bound = _bound(t[1] / t[0].real, t[2:].reshape(k, k) / t[0].real)
        except np.linalg.LinAlgError:
            chol = None
            bound = _dual_bound(a0, terms, y / np.trace(y).real)
        if bound < upper:
            upper, certificate = bound, y / np.trace(y).real
        slack = tol.psd_tol * best[2]
        if upper < -slack:
            stop = "certified"
            break
        if 0.0 <= best[1] and upper <= DECIDED_FACTOR * best[1]:
            stop = "decided"
            break
        straddles = upper >= 0 > best[1] or upper >= -slack > best[1]
        if not straddles and upper - best[1] <= slack:
            stop = "gap"
            break
        if iterations == MAX_ITERATIONS:
            break
        if chol is None:
            stop = "stall"
            break
        try:
            inv_chol = np.linalg.inv(chol)
            inv_chol_h = inv_chol.conj().swapaxes(-1, -2)
            s_inv = inv_chol_h[0] @ inv_chol[0]
            fz, fs = fj @ z, fj @ s_inv
            schur = (fz.reshape(len(fj), -1) @ fs.transpose(0, 2, 1).reshape(len(fj), -1).T).real
            schur_inv = np.linalg.inv(np.linalg.cholesky(schur))
            # Predictor: the affine-scaling direction (centring weight 0).
            dv = schur_inv.T @ (schur_inv @ target)
            ds = combine(dv)
            dz = z @ ds @ s_inv
            dz = -z - 0.5 * (dz + dz.conj().T)
            alpha = step_lengths(inv_chol, inv_chol_h, ds, dz, 1.0)
            mu = np.vdot(z, s).real / size
            mu_aff = np.vdot(z + alpha[1] * dz, s + alpha[0] * ds).real / size
            # Corrector: centring weight sigma and Mehrotra's second-order term.
            sigma = min(1.0, max(mu_aff / mu, 0.0)) ** 3 if mu > 0 else 1.0
            second = dz @ ds @ s_inv
            dv = schur_inv.T @ (schur_inv @ (target + sigma * mu * traces(s_inv) - traces(second)))
            ds = combine(dv)
            dz = z @ ds @ s_inv + second
            dz = sigma * mu * s_inv - z - 0.5 * (dz + dz.conj().T)
            if not (np.all(np.isfinite(dv)) and np.all(np.isfinite(dz))):
                raise np.linalg.LinAlgError("direction is not finite")
            alpha = step_lengths(inv_chol, inv_chol_h, ds, dz, STEP_FRACTION)
        except np.linalg.LinAlgError:
            stop = "stall"
            break
        v = v + alpha[0] * dv
        s = f0 + combine(v)
        z = z + alpha[1] * dz
        z = 0.5 * (z + z.conj().T)
        w = np.linalg.eigvalsh(s[:m, :m] + v[-1] * eye_m)  # the spectrum of A(X)
    return best[0], best[1], best[2], upper, certificate, iterations, stop


def _overlap_search(
    d: DataSet, b: BlaschkeSpec, overlap: np.ndarray, tol: ToleranceConfig
) -> FeasReport:
    """Decide instances whose nodes meet the constraint zeros.

    ``overlap`` holds the ascending indices of the nodes that sit on zeros
    of the Blaschke product, at least one.  A solution exists exactly
    when all the overlapped target values agree (they all equal the
    shared value at the zeros) and the constrained Pick matrix at that
    value, built on the de-duplicated node set, is PSD.  With no
    remaining nodes this collapses to contractivity of the shared value.
    A Feasible verdict carries the shared value as ``witness_x``.  An
    Infeasible verdict of the PSD test carries ``v v*`` as its
    ``certificate``, ``v`` the bottom eigenvector of that matrix, so
    ``tr(v v* A) < 0`` re-checks it.
    """
    anchor = d.values[overlap[0]]
    wscale = 1.0 + max(operator_norm(d.values[i]) for i in overlap)
    for i in overlap[1:]:
        if operator_norm(d.values[i] - anchor) > tol.residual_tol * wscale:
            pair = np.array([overlap[0], i])
            return FeasReport(INFEASIBLE, detail="overlap values differ", certificate=pair,
                              certificate_kind="overlap_pair")
    keep = np.delete(np.arange(d.n), overlap)
    certificate = kind = None
    if keep.size:
        reduced = DataSet(d.nodes[keep], d.values[keep])
        pick = constrained_pick(reduced, b, anchor, bundle=assemble_bundle(reduced, b, tol))
        ok, margin = is_psd(pick, tol)
        if not ok:
            bottom = np.linalg.eigh(hermitian_part(pick))[1][:, :1]
            certificate, kind = bottom @ bottom.conj().T, "overlap_psd"
        detail = "reduced to a PSD test at the shared overlap value"
    else:
        margin = 1.0 - operator_norm(anchor)
        ok = margin >= -tol.psd_tol
        detail = "all nodes overlap; feasibility = contractivity of the shared value"
    status = FEASIBLE if ok else INFEASIBLE
    return FeasReport(
        status, witness_x=anchor if ok else None, margin=float(margin), detail=detail,
        certificate=certificate, certificate_kind=kind,
    )


def search_x_grid(
    d: DataSet, b: Optional[BlaschkeSpec] = None, tol: ToleranceConfig = DEFAULT_TOL
) -> FeasReport:
    """Decide whether some parameter makes the constrained Pick matrix PSD.

    Feasible when the largest smallest eigenvalue found is at least
    ``-psd_tol * scale`` (its parameter is the witness), Infeasible when
    the dual ``certificate`` bounds it below ``-psd_tol * scale``, else
    Undetermined.  Overlapping nodes and constraint zeros short-circuit
    to the exact overlap analysis (:func:`_overlap_search`).
    """
    b = b if b is not None else BlaschkeSpec.z_squared()
    overlap = np.flatnonzero(np.any(d.nodes[:, None] == b.zeros, axis=1))
    if overlap.size:
        return _overlap_search(d, b, overlap, tol)
    a0, terms = constrained_pick_terms(assemble_bundle(d, b, tol))
    best_x, best_lmin, best_scale, upper, certificate, steps, stop = _maximize_min_eig(a0, terms, tol)
    certified = upper < -tol.psd_tol * best_scale
    stats = {"points": steps, "best_margin": best_lmin, "best_scale": best_scale,
             "upper_bound": upper, "uniform_infeasible": certified, "stop": stop}
    if best_lmin >= -tol.psd_tol * best_scale:
        status, detail = FEASIBLE, (
            "witness margin certified within a factor 2 of the best" if stop == "decided"
            else f"witness margin {best_lmin:.3e}, the best at most {upper:.3e}"
        )
    elif certified:
        status, detail = INFEASIBLE, "dual certificate bounds every admissible parameter below zero"
    else:
        status, detail = UNDETERMINED, f"gap [{best_lmin:.3e}, {upper:.3e}] straddles the tolerance"
    return FeasReport(
        status, witness_x=best_x if status == FEASIBLE else None, margin=best_lmin,
        grid_stats=stats, detail=detail, certificate=certificate if certified else None,
        certificate_kind="dual" if certified else None,
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
    matrix at the origin value ``x = lambda``.  The data are solvable iff
    some ``lambda`` in the disk passes, and no finite grid shows that none
    does, so without a passing point the verdict is Undetermined at every
    ``resolution``; that only sets the grid's fineness.  Infeasible
    verdicts, each with a certificate, come from :func:`search_x_grid`.
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
    total = 0
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
        if best_l is None or rel[best] > best_lmin / best_scale:
            best_l, best_lmin, best_scale = points[best], lmin[best], scale[best]
    best_lmin, best_scale = float(best_lmin), float(best_scale)
    stats = {"resolution": int(resolution), "points": total, "best_margin": best_lmin}
    if best_lmin >= -tol.psd_tol * best_scale:
        return FeasReport(
            FEASIBLE,
            witness_x=np.array([[complex(best_l)]]),
            margin=best_lmin,
            grid_stats=stats,
            detail="criterion matrix PSD at the reported parameter",
        )
    return FeasReport(
        UNDETERMINED, margin=best_lmin, grid_stats=stats,
        detail="no witness found; the one-parameter route certifies no infeasibility",
    )
