"""Kernel-family criteria for constrained interpolation.

For interpolants constrained to have vanishing derivative at the origin,
solvability is governed by a family of reproducing kernels indexed by
pairs ``(alpha, beta)`` of ``ell' x ell`` matrices with
``alpha alpha* + beta beta* = I`` and ``alpha`` injective:

    K(z, w) = (alpha* + conj(w) beta*) (alpha + z beta)
              + conj(w)^2 z^2 / (1 - conj(w) z) * I.

The necessity side of the criterion says: if a constrained interpolant
exists for data ``(z_i, W_i)``, then for every admissible ``(alpha,
beta)`` and every tuple of ``k x ell`` coefficient matrices ``X_i``

    sum_ij trace[ X_j K(z_i, z_j) X_i*
                  - W_j* X_j K(z_i, z_j) X_i* W_i ]  >=  0.

A single negative value is a certificate of infeasibility; running out
of samples proves nothing, so a scan reports "no witness found among N
samples", never feasibility.  For scalar data the scalar parameter
family already decides the problem, which is why the scan sweeps the
normalized scalar pairs first.

There is also a complementary one-parameter test: solvability (k = 1) is
equivalent to the existence of a single ``lambda`` in the disk making

    [ (z_i^2 conj(z_j)^2 - phi(w_i) conj(phi(w_j))) / (1 - z_i conj(z_j)) ]

positive semidefinite, where ``phi`` is the disk automorphism
``phi(t) = (t - lambda) / (1 - conj(lambda) t)``.  Finding one good
``lambda`` certifies feasibility.  The parameter ``lambda`` is the
origin value ``x = s(0)``: the matrix equals ``diag(z_i^2) P_x
diag(conj(z_i)^2)``, with ``P_x`` the Pick matrix of the data reduced
at ``x`` (``schur_reduce_constrained``), so the two are congruent.

All functions here are pure.  The scan's random parameters come from
one generator per shape, spawned from ``SeedSequence(seed)``, and scan
samples are independent, so the scan evaluates them in blocks (the
canonical scalar parameters, then runs of random draws sized by
``_SCAN_BUDGET``, one block for a default scan of small data): per block
and shape one stacked draw, one stack of form matrices and one batched
``eigvalsh``.  Only the witness matrix gets an ``eigh``, for its
coefficient tuple.  The reported witness is the one with the lowest
sample index, and neither it nor any margin depends on the block size.

A shape with ``ell' = 2 ell`` needs one sample only.  There ``[alpha
beta]`` is square with orthonormal rows, hence unitary, so its columns
are orthonormal too: ``alpha* alpha = beta* beta = I`` and ``alpha* beta
= 0``.  The kernel is then ``(1 + conj(w) z) I`` plus the tail for every
draw, and so is the form matrix; the scan evaluates such a shape once,
at its first random index.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .errors import CnpError, DomainError
from .linalg import DEFAULT_TOL, ToleranceConfig, _batched_margins
from .pick import DataSet
from .record import Record

# Least singular value of ``alpha`` at or below which a drawn parameter
# counts as non-injective; the next draw from the same generator replaces it.
# Tested as lambda_min(alpha* alpha) > floor**2 (see ``_injective``): a drawn
# ``alpha`` has norm at most 1, so the Gram eigenvalues carry about 1e-15 of
# absolute rounding against 1e-12, and the test can differ from comparing
# the least singular value only within about 5e-4 (relative) of the floor.
# ``GrassmannParam`` keeps an SVD for its own bound of 1e-8, whose square
# lies at that rounding level.
_INJECTIVITY_FLOOR = 1e-6
# Stacked form entries per block of the necessity scan.  A block holds
# max(#shapes, _SCAN_BUDGET // (n k k)^2) random samples, (n k k)^2 being the
# entry count of the largest form: a default scan of data with n k k <= 23
# runs as one stack per shape, while large data get small blocks, so memory
# stays bounded for any sample count.  Shapes with ell' = 2 ell add one form
# per scan, not one per sample: their forms do not depend on the draw (see
# the module docstring).  A speed setting only: the scan's samples and
# report do not depend on it.
_SCAN_BUDGET = 1 << 18

__all__ = [
    "GrassmannParam",
    "ScanReport",
    "grassmann_sample",
    "kernel_eval",
    "kernel_gram",
    "necessity_form",
    "necessity_form_matrix",
    "lambda_criterion_matrix",
    "necessity_scan",
]


class GrassmannParam(Record):
    """Normalized kernel parameter: ``alpha alpha* + beta beta* = I``, alpha injective."""

    alpha: np.ndarray
    beta: np.ndarray

    def __init__(self, alpha, beta):
        alpha = np.atleast_2d(np.asarray(alpha, dtype=complex))
        beta = np.atleast_2d(np.asarray(beta, dtype=complex))
        if alpha.shape != beta.shape:
            raise DomainError("alpha and beta must have the same shape")
        lp, l = alpha.shape
        if not 1 <= l <= lp:
            raise DomainError(f"need 1 <= ell <= ell', got ell={l}, ell'={lp}")
        if not (np.all(np.isfinite(alpha)) and np.all(np.isfinite(beta))):  # written so that NaN fails
            raise DomainError("alpha and beta must be finite")
        gram = alpha @ alpha.conj().T + beta @ beta.conj().T
        if np.max(np.abs(gram - np.eye(lp))) > DEFAULT_TOL.residual_tol * 10:
            raise DomainError("alpha alpha* + beta beta* must equal the identity")
        smin = np.linalg.svd(alpha, compute_uv=False)[-1]
        if smin <= DEFAULT_TOL.residual_tol:
            raise DomainError(f"alpha must be injective (min singular value {smin:.2e})")
        self.__dict__.update(alpha=alpha, beta=beta)

    @classmethod
    def scalar(cls, alpha: complex, beta: complex) -> "GrassmannParam":
        return cls(np.array([[alpha]]), np.array([[beta]]))

    @property
    def ell(self) -> int:
        return self.alpha.shape[1]


def _injective(alpha: np.ndarray) -> np.ndarray:
    """Mask of the stacked ``alpha`` whose least singular value exceeds ``_INJECTIVITY_FLOOR``."""
    return np.linalg.eigvalsh(alpha.conj().swapaxes(-1, -2) @ alpha)[:, 0] > _INJECTIVITY_FLOOR**2


def _draw_params(rng: np.random.Generator, count: int, ell: int, ell_prime: int):
    """Stacked normalized pairs ``(alpha, beta)`` of shape ``(count, ell', ell)``.

    Each candidate is a complex Gaussian ``ell' x 2 ell`` block (two
    ``standard_normal`` blocks of ``rng``) with orthonormalized rows.  A
    candidate whose ``alpha`` is nearly non-injective (least singular
    value <= 1e-6) is dropped and the next one from the stream takes its
    place, so the rows equal ``count`` successive one-row draws from
    ``rng`` bit for bit, whatever ``count``.  All candidates missing from
    the stack are drawn in one call.

    Injectivity is tested without an SVD, as ``lambda_min(alpha* alpha)
    > 1e-12`` by one batched ``eigvalsh`` of the Gram matrices: the rows
    are orthonormal, so ``||alpha|| <= 1`` and the Gram eigenvalues carry
    about 1e-15 of rounding (see ``_INJECTIVITY_FLOOR``).
    """
    if not 1 <= ell <= ell_prime:
        raise DomainError(f"need 1 <= ell <= ell', got ell={ell}, ell'={ell_prime}")
    if ell_prime > 2 * ell:
        raise DomainError("ell' > 2 ell admits no normalized pair")
    kept = []
    have = misses = 0  # misses: rejections since the last accepted candidate
    while have < count:
        raw = rng.standard_normal((count - have, 2, ell_prime, 2 * ell))
        g = raw[:, 0] + 1j * raw[:, 1]
        qmat, _ = np.linalg.qr(g.conj().swapaxes(-1, -2), mode="reduced")
        rows = qmat.conj().swapaxes(-1, -2)  # orthonormal rows
        ok = _injective(rows[:, :, :ell])
        runs = np.diff(np.concatenate([[-1 - misses], np.flatnonzero(ok), [ok.size]])) - 1
        if runs.max() >= 128:
            raise DomainError("failed to draw an injective alpha in 128 attempts")
        misses = runs[-1]
        kept.append(rows[ok])
        have += int(ok.sum())
    rows = np.concatenate(kept)
    return rows[..., :ell], rows[..., ell:]


def grassmann_sample(seed: int, ell: int, ell_prime: int) -> GrassmannParam:
    """Deterministic sample of a normalized kernel parameter.

    Draws a complex Gaussian ``ell' x 2 ell`` block from
    ``np.random.default_rng(seed)``, orthonormalizes its rows and splits
    it into ``(alpha, beta)``.  Samples with nearly non-injective
    ``alpha`` (least singular value <= 1e-6, tested on the eigenvalues of
    ``alpha* alpha`` as in :func:`_draw_params`) are rejected and redrawn
    from the same generator; the rejected set has measure zero, so this
    does not bias coverage.  The returned :class:`GrassmannParam` still
    checks injectivity by an SVD: its bound, 1e-8, squared lies at the
    rounding level of the Gram eigenvalues.  Bitwise deterministic for a
    fixed nonnegative seed.  The necessity scan draws from one stream per
    shape instead (see :func:`necessity_scan`), not from this function.
    """
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    alpha, beta = _draw_params(np.random.default_rng(seed), 1, ell, ell_prime)
    return GrassmannParam(alpha[0], beta[0])


def _check_disk(z, name):
    # Written so that NaN fails: |NaN| < 1 is False, as is |NaN| >= 1.
    if not np.all(np.abs(np.asarray(z)) < 1.0):
        raise DomainError(f"{name} must be finite and lie in the open unit disk")


def _kernel(alpha, beta, z, w) -> np.ndarray:
    """The kernel formula for parameter arrays of shape ``(..., ell', ell)``.

    The leading axes of ``alpha`` and ``beta`` broadcast against those of
    ``z`` and ``w``; the result has shape ``leading + (ell, ell)``.
    """
    z = np.asarray(z, dtype=complex)[..., None, None]
    wc = np.conj(np.asarray(w, dtype=complex))[..., None, None]
    adjoint = alpha.conj().swapaxes(-1, -2) + wc * beta.conj().swapaxes(-1, -2)
    rank_part = adjoint @ (alpha + z * beta)
    tail = wc**2 * z**2 / (1.0 - wc * z)
    return rank_part + tail * np.eye(alpha.shape[-1])


def kernel_eval(p: GrassmannParam, z, w) -> np.ndarray:
    """Evaluate the ``ell x ell`` kernel at pairs of disk points.

    ``z`` and ``w`` broadcast against each other; the result has shape
    ``broadcast(z, w) + (ell, ell)``, so scalar points give one
    ``ell x ell`` matrix and ``(nodes[:, None], nodes[None, :])`` gives
    every pair ``K(z_i, z_j)`` at once.
    """
    _check_disk(z, "z")
    _check_disk(w, "w")
    return _kernel(p.alpha, p.beta, z, w)


def kernel_gram(p: GrassmannParam, points) -> np.ndarray:
    """Block Gram matrix of the kernel on disk points.

    Block (i, j) holds ``K(z_j, z_i)``: the kernel is analytic in its
    first argument, and this is the arrangement under which the Gram
    matrix of kernel sections is positive semidefinite (both the
    rank-one part and the Cauchy tail decompose as sums of squares).
    For scalar parameters the two arrangements are transposes of each
    other and equally PSD.
    """
    points = np.asarray(points, dtype=complex).reshape(-1)
    _check_disk(points, "points")
    m, l = points.size, p.ell
    blocks = kernel_eval(p, points[None, :], points[:, None])
    return blocks.transpose(0, 2, 1, 3).reshape(m * l, m * l)


def lambda_criterion_matrix(d: DataSet, lam) -> np.ndarray:
    """One-parameter criterion matrix (k = 1) at disk points ``lam``.

    Entry (i, j) is
    ``(z_i^2 conj(z_j)^2 - phi(w_i) conj(phi(w_j))) / (1 - z_i conj(z_j))``
    with ``phi`` the disk automorphism vanishing at ``lam``.  Feasibility
    of the constrained problem is equivalent to this matrix being PSD
    for some ``lam`` in the open disk.  An array of ``lam`` gives the
    stack of shape ``lam.shape + (n, n)``; a scalar gives one matrix.
    """
    if d.k != 1:
        raise DomainError("the one-parameter criterion applies to scalar data only")
    lam = np.asarray(lam)
    _check_disk(lam, "lambda")
    w = d.scalar_values()
    lam = lam[..., None]
    u = (w - lam) / (1.0 - np.conj(lam) * w)
    z = d.nodes
    return (np.outer(z**2, np.conj(z) ** 2) - u[..., :, None] * u.conj()[..., None, :]) / (
        1.0 - np.outer(z, z.conj())
    )


def _check_nodes(d: DataSet):
    if np.any(d.nodes == 0):
        raise DomainError("necessity criteria require nonzero nodes")


def necessity_form(d: DataSet, p: GrassmannParam, xs, tol: ToleranceConfig = DEFAULT_TOL) -> float:
    """Evaluate the necessity form for one parameter and coefficient tuple.

    ``xs`` stacks the coefficient matrices ``X_i``: shape ``(n, k, ell)``.
    Nonnegative for every admissible input whenever the constrained
    problem is solvable; a negative value is an infeasibility witness.
    The result is real up to rounding; the imaginary part is checked
    against ``residual_tol`` and discarded.
    """
    _check_nodes(d)
    x, w = np.asarray(xs, dtype=complex), d.values
    if x.shape != (d.n, d.k, p.ell):
        raise DomainError(
            f"coefficient tuple must have shape ({d.n}, {d.k}, {p.ell}), got {x.shape}"
        )
    kmat = kernel_eval(p, d.nodes[:, None], d.nodes[None, :])
    core = x[None, :] @ kmat @ x[:, None].conj().swapaxes(-1, -2)
    outer = w[None, :].conj().swapaxes(-1, -2) @ core @ w[:, None]
    total = np.sum(np.trace(core, axis1=-2, axis2=-1) - np.trace(outer, axis1=-2, axis2=-1))
    if abs(total.imag) > tol.residual_tol * (1.0 + abs(total.real)):
        raise DomainError(f"necessity form has non-real value {total}")
    return float(total.real)


def _form_stack(d: DataSet, alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Necessity form matrices for stacked parameters ``(S, ell', ell)``: shape ``(S, N, N)``."""
    _check_nodes(d)
    n, k, l = d.n, d.k, alpha.shape[-1]
    kmat = _kernel(alpha[:, None, None], beta[:, None, None], d.nodes[:, None], d.nodes[None, :])
    gap = np.eye(k) - d.values[:, None] @ d.values[None, :].conj().swapaxes(-1, -2)
    forms = np.einsum("pijtr,ijsu->pirsjtu", kmat, gap, order="C")  # reshaped without a copy
    return forms.reshape(len(alpha), n * l * k, n * l * k)


def necessity_form_matrix(d: DataSet, p: GrassmannParam) -> np.ndarray:
    """Hermitian matrix of the necessity form in stacked coordinates.

    With the coefficient matrices vectorized column-major and stacked,
    the form equals ``v* F v`` where ``F`` has blocks
    ``K(z_i, z_j)^T  (x)  (I - W_i W_j*)``.  Its smallest eigenvalue is
    the sharpest witness value available for the given parameter, with
    the eigenvector giving the witness tuple.
    """
    return _form_stack(d, p.alpha[None], p.beta[None])[0]


class ScanReport(Record):
    """Outcome of a necessity scan.

    ``status`` is ``"PASS"`` (no witness found among the evaluated
    samples; explicitly not a proof of feasibility) or ``"WITNESS"``.
    For a witness, the offending parameter, coefficient tuple (shape
    ``(n, k, ell)``), form value and sample index are recorded.
    ``min_value`` tracks the most negative relative margin seen across
    all evaluated samples.  ``forms_evaluated`` counts the form matrices
    the scan decomposed: one per sample, except one per scan for each
    ``ell' = 2 ell`` shape; after a witness it includes the rest of the
    witness's block.
    """

    status: str
    samples_requested: int
    samples_evaluated: int
    min_value: float
    forms_evaluated: int
    witness_param: Optional[GrassmannParam]
    witness_tuple: Optional[np.ndarray]
    witness_value: Optional[float]
    witness_index: Optional[int]

    def __init__(self, status, samples_requested, samples_evaluated, min_value, forms_evaluated,
                 witness_param=None, witness_tuple=None, witness_value=None, witness_index=None):
        self.__dict__.update(
            status=status, samples_requested=samples_requested, samples_evaluated=samples_evaluated,
            min_value=min_value, forms_evaluated=forms_evaluated, witness_param=witness_param,
            witness_tuple=witness_tuple, witness_value=witness_value, witness_index=witness_index,
        )

    @property
    def passed(self) -> bool:
        return self.status == "PASS"


def _canonical_scalar_params(count: int = 16):
    """The pair ``(1, 0)`` and a ``count``-point sweep of ``(cos t, sin t)``, stacked."""
    thetas = [-np.pi / 2.0 + np.pi * (jj + 0.5) / count for jj in range(count)]
    alpha = np.array([1.0] + [np.cos(t) for t in thetas], dtype=complex)
    beta = np.array([0.0] + [np.sin(t) for t in thetas], dtype=complex)
    return alpha.reshape(-1, 1, 1), beta.reshape(-1, 1, 1)


def default_shapes(k: int) -> Tuple[Tuple[int, int], ...]:
    """All admissible (ell, ell') shape pairs for k x k data: ell <= ell' <= min(k, 2 ell)."""
    return tuple((l, lp) for lp in range(1, k + 1) for l in range(1, lp + 1) if lp <= 2 * l)


def _scan_blocks(samples: int, shapes, seed: int, size: int):
    """Yield the scan's blocks as lists of ``(indices, alpha, beta)``, one entry per shape.

    The canonical scalar parameters form the first block, then come runs
    of ``size`` random samples.  Random sample ``i`` cycles through
    ``shapes``; each shape draws its samples in index order from its own
    generator, spawned from ``SeedSequence(seed)``, so the samples do not
    depend on ``size``.  An ``ell' = 2 ell`` shape yields its first random
    index only, with its stream's first draw: its later samples share that
    form (see the module docstring).
    """
    alpha, beta = _canonical_scalar_params()
    canonical = len(alpha)
    stop = min(canonical, samples)
    yield [(np.arange(stop), alpha[:stop], beta[:stop])]
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(shapes))]
    for start in range(canonical, samples, size):
        stop = min(start + size, samples)
        block = []
        for j, ((l, lp), rng) in enumerate(zip(shapes, streams)):
            first = start + (j - (start - canonical)) % len(shapes)
            indices = np.arange(first, stop, len(shapes))
            if lp == 2 * l:
                indices = indices[indices == canonical + j]
            if indices.size:
                block.append((indices, *_draw_params(rng, indices.size, l, lp)))
        yield block


def necessity_scan(
    d: DataSet,
    samples: int = 500,
    seed: int = 0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ScanReport:
    """Hunt for an infeasibility witness of the necessity criterion.

    The scan always evaluates the canonical scalar parameters first (the
    pair ``(1, 0)`` followed by a 16-point sweep of ``(cos t, sin t)``),
    since for scalar data the scalar family already decides feasibility
    and these are the cheapest witnesses.  Remaining samples draw random
    parameters cycling through the shapes of :func:`default_shapes`; the
    samples of each shape come in order from one generator per shape,
    spawned from ``np.random.SeedSequence(seed)``.  Each sampled
    parameter is probed with the extremal coefficient tuple taken from
    the eigendecomposition of the induced quadratic form, which
    dominates any random tuple for that parameter.

    A shape with ``ell' = 2 ell`` is evaluated once, at its first random
    index with its stream's first draw: ``[alpha beta]`` is then unitary,
    so every draw of the shape gives the same kernel ``(1 + conj(w) z) I``
    plus the tail, and the same form matrix.  Its later indices still
    count as evaluated samples.

    Samples are evaluated in blocks: the canonical parameters first, so
    infeasible data usually exit after one small batch, then runs of
    ``max(#shapes, _SCAN_BUDGET // (n k k)^2)`` random samples, so a
    default scan of small data is one block.  Per block and shape the
    parameters are drawn, their form matrices stacked and their
    eigenvalues taken by one batched ``eigvalsh``; a block containing a
    witness ends the scan, and only the witness matrix is passed to
    ``eigh`` for its coefficient tuple.  The block size affects speed
    only.

    A sample is a witness when the relative margin of the form matrix
    drops below ``-psd_tol``; a form whose eigenvalues overflow raises
    :class:`CnpError`.  Deterministic for a fixed nonnegative seed; the
    first (lowest-index) witness is returned, with ``samples_evaluated``
    counting the samples up to and including it.
    """
    if samples < 1:
        raise DomainError("samples must be >= 1")
    if seed < 0:
        raise DomainError(f"seed must be nonnegative, got {seed}")
    shapes = default_shapes(d.k)
    size = max(len(shapes), _SCAN_BUDGET // (d.n * d.k * d.k) ** 2)
    min_rel, forms = np.inf, 0
    for block in _scan_blocks(samples, shapes, seed, size):
        hit = None
        for indices, alpha, beta in block:
            forms += indices.size
            f = _form_stack(d, alpha, beta)
            f += f.conj().swapaxes(-1, -2)  # hermitian_part in place: same bits, one stack less
            f *= 0.5
            lmin, scale = _batched_margins(f)
            if not np.all(np.isfinite(scale)):  # a NaN or infinite lmin makes its scale so too
                raise CnpError("necessity form matrices are not finite: the data overflow")
            rel = lmin / scale
            min_rel = min(min_rel, np.min(rel))
            bad = np.flatnonzero(lmin < -tol.psd_tol * scale)
            if bad.size and (hit is None or indices[bad[0]] < hit[0]):
                j = bad[0]
                hit = (int(indices[j]), rel[j], alpha[j], beta[j], f[j])
        if hit is not None:
            index, rel, alpha, beta, form = hit
            param = GrassmannParam(alpha, beta)
            vec = np.linalg.eigh(form)[1][:, 0]
            xs = vec.reshape(d.n, param.ell, d.k).transpose(0, 2, 1)
            return ScanReport(
                status="WITNESS",
                samples_requested=samples,
                samples_evaluated=index + 1,
                min_value=float(rel),
                forms_evaluated=forms,
                witness_param=param,
                witness_tuple=xs,
                witness_value=necessity_form(d, param, xs, tol),
                witness_index=index,
            )
    return ScanReport(
        status="PASS",
        samples_requested=samples,
        samples_evaluated=samples,
        min_value=float(min_rel),
        forms_evaluated=forms,
    )
