"""Construction and verification of scalar constrained interpolants.

An interpolant is represented as a chain of Moebius-Blaschke reduction
steps.  A chain with steps ``(zeta_1, v_1), ..., (zeta_m, v_m)`` and
terminal constant ``t`` evaluates innermost-out as

    s_m = t,      s_{j-1}(z) = mu(b(z, zeta_j) * s_j(z), v_j)

where ``b(z, zeta) = (z - zeta) / (1 - conj(zeta) z)`` and
``mu(t, v) = (t + v) / (1 + conj(v) t)``.  Every chain is a genuine
Schur function, so the sup-norm bound holds by construction and only
the interpolation and constraint residuals need checking.

The constrained problem (vanishing derivative at the origin, shared
value ``x`` there) reduces by two chain steps at 0: first with value
``x``, then with value 0.  The remaining data is a plain interpolation
problem solved by the classical Schur algorithm with terminal constant
0 (the central solution; the constant is exposed because any constant
of modulus <= 1 gives another solution).

Construction requires strict positivity of the reduced Pick matrix;
boundary-feasible data (where the solution degenerates to a finite
Blaschke product) is refused with a diagnostic rather than handled.

Chains are immutable values and evaluation is pure.
"""

from __future__ import annotations

import functools
import math
import numbers
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, ProblemFileError
from .linalg import operator_norm, psd_margin
from .pick import BlaschkeSpec, DataSet, pick_matrix
from .problemfile import _complex_from
from .record import Record

__all__ = [
    "SchurChain",
    "ResidualReport",
    "chain_eval",
    "schur_reduce_constrained",
    "np_central_solve",
    "assemble_constrained",
    "construct_interpolant",
    "derivative_at",
    "check_residual_tol",
    "verify_interpolant",
    "generate_feasible",
    "chain_to_json",
    "chain_from_json",
]


class SchurChain(Record):
    """Moebius-Blaschke reduction chain: steps ``(zeta_j, v_j)`` plus tail.

    Step nodes and values lie strictly inside the disk; the terminal
    constant may sit on the circle (then the chain is a Blaschke
    product).
    """

    steps: Tuple[Tuple[complex, complex], ...]
    tail: complex

    def __init__(self, steps, tail=0.0 + 0.0j):
        steps = tuple((complex(z), complex(v)) for z, v in steps)
        for zeta, v in steps:
            if not (abs(zeta) < 1 and abs(v) < 1):  # written so that NaN fails
                raise DomainError("chain steps must be finite, strictly inside the unit disk")
        if not abs(tail) <= 1:  # likewise
            raise DomainError("chain tail must be finite and lie in the closed unit disk")
        self.__dict__.update(steps=steps, tail=complex(tail))

    def __len__(self) -> int:
        return len(self.steps)


def _blaschke_factor(z, zeta):
    return (z - zeta) / (1.0 - np.conj(zeta) * z)


def chain_eval(chain: SchurChain, z):
    """Evaluate a chain at points of the open unit disk (vectorized).

    The result has modulus at most one everywhere by construction.  A
    step at the origin skips its Blaschke factor (it is ``z``) and a step
    with value 0 its Moebius map (the identity): exact, up to the sign of
    a zero component.
    """
    z = np.asarray(z, dtype=complex)
    if not np.all(np.abs(z) < 1.0):  # written so that NaN fails
        raise DomainError("evaluation points must be finite and lie in the open unit disk")
    val = np.full_like(z, chain.tail, dtype=complex)
    for zeta, v in reversed(chain.steps):
        t = (z if zeta == 0 else _blaschke_factor(z, zeta)) * val
        val = t if v == 0 else (t + v) / (1.0 + np.conj(v) * t)
    return val if val.shape else complex(val)


def schur_reduce_constrained(d: DataSet, x: complex) -> DataSet:
    """Strip the origin constraint from scalar data via two chain steps.

    With shared origin value ``x`` the reduced targets are

        t_i = (w_i - x) / ((1 - conj(x) w_i) z_i^2),

    and the classical Pick matrix of the reduced data is PSD exactly
    when the constrained Pick matrix at ``x`` is.  Reduced targets may
    land on or outside the circle; the construction step refuses those.
    """
    if d.k != 1:
        raise DomainError("construction is scalar-only")
    if np.any(d.nodes == 0):
        raise DomainError("reduction requires nonzero nodes")
    if not abs(x) < 1:  # written so that NaN fails
        raise DomainError("need finite x with |x| < 1")
    w = d.scalar_values()
    denom = (1.0 - np.conj(x) * w) * d.nodes**2
    if np.any(np.abs(1.0 - np.conj(x) * w) < 1e-14):
        raise DomainError("reduction pole: some 1 - conj(x) w_i vanishes")
    return DataSet.scalar(d.nodes, (w - x) / denom)


def np_central_solve(d: DataSet) -> SchurChain:
    """Classical Schur algorithm for scalar data with positive definite Pick matrix.

    Performs one reduction step per node in the given order and closes
    with terminal constant 0.  Refuses (with a diagnostic) as soon as an
    intermediate target reaches the unit circle, which happens exactly
    when the data is not strictly solvable, or when rounding pushes a
    target of data with a nearly singular Pick matrix there; the message
    names the smallest eigenvalue of the Pick matrix of ``d`` (for
    :func:`construct_interpolant`, of the reduced data), so the two cases
    can be told apart.  Callers should move the parameter into the
    interior of the feasible set instead.
    """
    if d.k != 1:
        raise DomainError("construction is scalar-only")
    nodes = d.nodes.copy()
    targets = d.scalar_values().astype(complex).copy()
    steps = []
    for j in range(nodes.size):
        zeta, v = nodes[j], targets[j]
        if abs(v) >= 1.0 - 1e-13:
            min_eig, scale = psd_margin(pick_matrix(d))
            raise DomainError(
                f"intermediate target {abs(v):.6f} at step {j} reached the unit "
                f"circle: the Pick matrix has smallest eigenvalue {min_eig:.3e} "
                f"(scale {scale:.3e}), so it is not safely positive definite; "
                "construction refuses"
            )
        steps.append((complex(zeta), complex(v)))
        rest = slice(j + 1, nodes.size)
        targets[rest] = ((targets[rest] - v) / (1.0 - np.conj(v) * targets[rest])) / (
            _blaschke_factor(nodes[rest], zeta)
        )
    return SchurChain(steps=tuple(steps), tail=0.0 + 0.0j)


def assemble_constrained(chain: SchurChain, x: complex) -> SchurChain:
    """Reattach the origin constraint: ``s(z) = mu(z^2 s2(z), x)``.

    Prepends the two origin steps to the chain of the reduced solution.
    The result satisfies ``s(0) = x`` and has vanishing derivative at 0.
    """
    if not abs(x) < 1:  # written so that NaN fails
        raise DomainError("need finite x with |x| < 1")
    return SchurChain(
        steps=((0.0 + 0.0j, complex(x)), (0.0 + 0.0j, 0.0 + 0.0j)) + chain.steps,
        tail=chain.tail,
    )


def construct_interpolant(d: DataSet, x: complex) -> SchurChain:
    """Reduce, solve centrally, reassemble.  Scalar data, origin constraint."""
    return assemble_constrained(np_central_solve(schur_reduce_constrained(d, x)), x)


MAX_ORDER = 4
CAUCHY_NODES = 256


def _cauchy_ring(point, order: int):
    """Cauchy ring around ``point`` and the weights that take its values to the derivative."""
    unit, turns, _ = _rings()
    rho = min(0.1, (1.0 - abs(point)) / 2.0)
    weights = turns[order] * (math.factorial(order) / (CAUCHY_NODES * rho**order))
    return point + rho * unit, weights


def _quadrature(weights, vals):
    """Weighted sum of ring values: a complex for scalar values, a matrix for matrix values."""
    if vals.ndim == 1:
        return complex(np.sum(weights * vals))
    return np.tensordot(weights, vals, axes=(0, 0))


def derivative_at(fn, point: complex, order: int = 1):
    """Derivative by Cauchy quadrature on a circle inside the disk.

    ``fn`` is a chain or any callable analytic on the disk (scalar or
    matrix valued; callables must accept numpy arrays of points).  The
    circle radius is ``min(0.1, (1 - |point|)/2)``, shrunk automatically
    so it never leaves the disk; the trapezoid rule on ``CAUCHY_NODES``
    points is spectrally accurate for these functions.  ``order`` must be
    an integer in 0..``MAX_ORDER`` (:class:`DomainError` otherwise).
    """
    if not abs(point) < 1:  # written so that NaN fails
        raise DomainError("point must be finite and lie in the open unit disk")
    if not (isinstance(order, numbers.Integral) and 0 <= order <= MAX_ORDER):
        raise DomainError(f"derivative order must be an integer in 0..{MAX_ORDER}, got {order!r}")
    evaluate = (lambda z: chain_eval(fn, z)) if isinstance(fn, SchurChain) else fn
    if order == 0:
        return evaluate(point)
    ring, weights = _cauchy_ring(point, order)
    return _quadrature(weights, np.asarray(evaluate(ring), dtype=complex))


class ResidualReport(Record):
    """Residuals of a candidate interpolant against data and constraint.

    ``interpolation[i] = |s(z_i) - w_i|`` (operator norm for matrix
    candidates); ``jets`` lists ``|s^(j)(lambda_i)|`` for derivative
    orders 1 .. r_i - 1 at each constraint zero; ``coupling`` lists
    ``|s(lambda_i) - s(lambda_1)|``; ``sup_norm`` estimates the circle
    sup-norm from 4096 samples at radius 0.999.  ``passed`` requires all
    residuals within ``tol`` and ``sup_norm <= 1 + 1e-6``.
    """

    interpolation: tuple
    jets: tuple
    coupling: tuple
    sup_norm: float
    tol: float
    passed: bool

    def __init__(self, interpolation, jets, coupling, sup_norm, tol, passed):
        self.__dict__.update(
            interpolation=interpolation, jets=jets, coupling=coupling, sup_norm=sup_norm, tol=tol,
            passed=passed,
        )

    def worst(self) -> float:
        vals = list(self.interpolation) + [r for js in self.jets for r in js] + list(self.coupling)
        return max(vals) if vals else 0.0


SUP_NORM_SLACK = 1e-6
SUP_NORM_RADIUS = 0.999
SUP_NORM_SAMPLES = 4096


@functools.cache
def _rings():
    """The unit Cauchy ring, its turns ``exp(-i j theta)`` for orders j = 0..MAX_ORDER,
    and the sup-norm ring, built on first use: only derivatives and verification read them."""
    theta = 2.0 * np.pi * np.arange(CAUCHY_NODES) / CAUCHY_NODES
    turns = tuple(np.exp(-1j * order * theta) for order in range(MAX_ORDER + 1))
    sup_theta = 2.0 * np.pi * np.arange(SUP_NORM_SAMPLES) / SUP_NORM_SAMPLES
    return np.exp(1j * theta), turns, SUP_NORM_RADIUS * np.exp(1j * sup_theta)


def check_residual_tol(tol: float) -> None:
    """Refuse a residual tolerance that is not finite and nonnegative.

    Raises :class:`DomainError`: an infinite tolerance would pass every
    residual, a NaN one none.
    """
    if not (np.isfinite(tol) and tol >= 0):
        raise DomainError(f"residual tolerance must be finite and nonnegative, got {tol}")


def verify_interpolant(
    fn: Union[SchurChain, Callable],
    d: DataSet,
    b: Optional[BlaschkeSpec] = None,
    tol: float = 1e-7,
) -> ResidualReport:
    """Check a candidate against data, constraint membership and norm.

    Accepts a chain or a bare callable (the latter is the verify-only
    path for matrix-valued candidates supplied from outside).  Class
    membership in ``C + B H^inf`` is tested through its jet
    characterization: vanishing derivatives at each constraint zero up
    to the multiplicity, equal values across distinct zeros.  ``tol``
    must be finite and nonnegative (see :func:`check_residual_tol`).  A
    multiplicity above ``MAX_ORDER + 1`` is refused with :class:`DomainError`.

    The candidate is evaluated once, on one array of all the points: the
    nodes, the constraint zeros, one Cauchy ring per zero of multiplicity
    at least 2, and the sup-norm ring.  A callable receives that 1-d
    array and must return one value per point: shape ``(N,)``, or
    ``(N, k, k)`` for matrix values (the only shape for k >= 2); any
    other shape is refused with :class:`DomainError`.
    """
    check_residual_tol(tol)
    b = b if b is not None else BlaschkeSpec.z_squared()
    if b.multiplicities.max() > MAX_ORDER + 1:  # its jet needs a derivative above MAX_ORDER
        raise DomainError(f"constraint zero of multiplicity {b.multiplicities.max()}: "
                          f"multiplicities up to {MAX_ORDER + 1} are supported")
    rules = [  # per zero: (ring, weights) for the derivative orders 1 .. r - 1, all on one ring
        [_cauchy_ring(lam, j) for j in range(1, int(r))]
        for lam, r in zip(b.zeros, b.multiplicities)
    ]
    rings = [orders[0][0] for orders in rules if orders]
    points = np.concatenate([d.nodes, b.zeros, *rings, _rings()[2]])

    vals = chain_eval(fn, points) if isinstance(fn, SchurChain) else fn(points)
    vals = np.asarray(vals, dtype=complex)
    value_shapes = [(d.k, d.k)] if d.k > 1 else [(), (1, 1)]
    if vals.shape[:1] != points.shape or vals.shape[1:] not in value_shapes:
        expected = " or ".join(str(points.shape + shape) for shape in value_shapes)
        raise DomainError(f"candidate values have shape {vals.shape}, expected {expected}")

    def residual(a):
        a = np.asarray(a, dtype=complex)
        return float(abs(complex(a))) if a.ndim == 0 else operator_norm(a)

    n, start = d.n, d.n + b.zeros.size
    want = d.values if vals.ndim > 1 else d.values[:, 0, 0]
    interpolation = [residual(a) for a in vals[:n] - want]
    coupling = [residual(v - vals[n]) for v in vals[n + 1 : start]]
    jets = []
    for orders in rules:
        ring_values = vals[start : start + CAUCHY_NODES]
        jets.append(tuple(residual(_quadrature(weights, ring_values)) for _, weights in orders))
        start += CAUCHY_NODES if orders else 0

    sup_values = vals[start:]
    if sup_values.ndim == 1:
        sup = float(np.max(np.abs(sup_values)))
    else:  # one stacked SVD: each sample's largest singular value, as operator_norm gives it
        sup = float(np.linalg.svd(sup_values, compute_uv=False)[:, 0].max())

    passed = (
        all(r <= tol for r in interpolation)
        and all(r <= tol for js in jets for r in js)
        and all(r <= tol for r in coupling)
        and sup <= 1.0 + SUP_NORM_SLACK
    )
    return ResidualReport(
        interpolation=tuple(interpolation),
        jets=tuple(jets),
        coupling=tuple(coupling),
        sup_norm=sup,
        tol=float(tol),
        passed=bool(passed),
    )


def generate_feasible(seed: int, n: int):
    """Seeded generator of guaranteed-feasible scalar instances.

    Builds a random constrained function ``s = mu(z^2 g(z), x)`` with a
    strictly contractive random chain ``g``, samples distinct nonzero
    nodes, and reads the targets off the function.  The certificate
    chain is returned so every generated instance is feasible by
    construction (strictly: the chain tail stays inside the disk, so the
    function has sup-norm < 1).
    """
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise DomainError(f"seed must be a nonnegative integer, got {seed!r}")
    if n < 1:
        raise DomainError("need n >= 1")
    rng = np.random.default_rng(seed)

    def disk_point(radius):
        return radius * np.sqrt(rng.uniform()) * np.exp(2j * np.pi * rng.uniform())

    x = disk_point(0.6)
    inner_steps = tuple(
        (disk_point(0.7), disk_point(0.7)) for _ in range(int(rng.integers(0, 3)))
    )
    certificate = assemble_constrained(
        SchurChain(steps=inner_steps, tail=disk_point(0.7)), x
    )

    nodes = []
    while len(nodes) < n:
        z = rng.uniform(0.15, 0.8) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - other) > 0.08 for other in nodes):
            nodes.append(z)
    nodes = np.asarray(nodes, dtype=complex)
    return DataSet.scalar(nodes, chain_eval(certificate, nodes)), certificate


# ---------------------------------------------------------------------------
# serialization


def chain_to_json(chain: SchurChain) -> dict:
    """JSON form: step rows ``[zeta_re, zeta_im, v_re, v_im]`` plus tail."""
    return {
        "schema": "cnp/1",
        "steps": [
            [zeta.real, zeta.imag, v.real, v.imag] for zeta, v in chain.steps
        ],
        "tail": [chain.tail.real, chain.tail.imag],
    }


def chain_from_json(payload: dict) -> SchurChain:
    if not isinstance(payload, dict):
        raise ProblemFileError("chain file must be a JSON object")
    steps = payload.get("steps")
    tail = payload.get("tail")
    if not isinstance(steps, list):
        raise ProblemFileError("missing or invalid list", location="steps")
    parsed = []
    for idx, row in enumerate(steps):
        if not (isinstance(row, list) and len(row) == 4):
            raise ProblemFileError(
                "each step must be [zeta_re, zeta_im, v_re, v_im]", location=f"steps[{idx}]"
            )
        where = f"steps[{idx}]"
        parsed.append((_complex_from(row[:2], where), _complex_from(row[2:], where)))
    tail = _complex_from(tail, "tail")
    try:
        return SchurChain(steps=tuple(parsed), tail=tail)
    except DomainError as exc:
        raise ProblemFileError(str(exc)) from exc
