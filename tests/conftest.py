"""Shared seeded generators for the test suite.

Everything is driven by explicit integer seeds so failures reproduce
exactly; no test draws from global random state.
"""

import collections
import csv
import math

import numpy as np
import pytest

from cnpick import body, feasibility, interpolant, kernels, pick
from cnpick.kernels import (
    GrassmannParam,
    ScanReport,
    default_shapes,
    necessity_form,
    necessity_form_matrix,
)
from cnpick.errors import DomainError, NotPsdError, SingularBlockError
from cnpick.interpolant import ResidualReport, SchurChain, generate_feasible
from cnpick.linalg import (
    DEFAULT_TOL,
    hermitian_part,
    inv_sqrt_psd,
    is_psd,
    operator_norm,
    psd_margin,
    sqrt_psd,
)
from cnpick.pick import (
    BlaschkeSpec,
    DataSet,
    _as_param,
    _check_constrained_domain,
    assemble_bundle,
    constrained_pick_cf,
    pick_matrix,
)


def rng_for(seed):
    return np.random.default_rng(seed)


def disk_point(rng, radius=0.8, rmin=0.0):
    r = rng.uniform(rmin, radius)
    return r * np.exp(2j * np.pi * rng.uniform())


def distinct_nodes(rng, n, rmin=0.1, rmax=0.85, gap=0.05):
    nodes = []
    while len(nodes) < n:
        z = rng.uniform(rmin, rmax) * np.exp(2j * np.pi * rng.uniform())
        if all(abs(z - other) > gap for other in nodes):
            nodes.append(z)
    return np.asarray(nodes, dtype=complex)


def random_dataset(seed, n=None, k=1, wmax=0.85):
    """Scalar or matrix data with nodes away from 0 and moderate targets."""
    rng = rng_for(seed)
    n = n if n is not None else int(rng.integers(1, 4))
    nodes = distinct_nodes(rng, n)
    if k == 1:
        values = np.array([disk_point(rng, wmax) for _ in range(n)]).reshape(n, 1, 1)
    else:
        values = (rng.standard_normal((n, k, k)) + 1j * rng.standard_normal((n, k, k)))
        for i in range(n):
            norm = np.linalg.norm(values[i], 2)
            values[i] *= rng.uniform(0.0, wmax) / max(norm, 1e-12)
    return DataSet(nodes, values)


def past_threshold(seed, n, k, threshold):
    """Random data with values scaled 1e-2 past ``threshold``, where bisection
    on ``search_x_grid`` found the switch from Feasible to Infeasible."""
    d = random_dataset(seed, n=n, k=k)
    return DataSet(d.nodes, d.values * threshold * (1 + 1e-2))


# The first witness of a seed-10 necessity scan lies in the second random
# block (index 115).
NEAR_THRESHOLD = past_threshold(3, 3, 2, 0.0743615205137915)
NEAR_SEED = 10


def accept5_instances():
    """The 200 scalar instances of ACCEPT-5: 100 feasible by construction, 100 random."""
    feasible = [generate_feasible(s, int(rng_for(s).integers(1, 4)))[0] for s in range(100)]
    return feasible + [random_dataset(5_000_000 + s, k=1, wmax=0.9) for s in range(100)]


def matrix_feasible(seed, k, n):
    """``W_i = C + z_i^2 D`` with ``||C|| + ||D|| < 1``: feasible by construction."""
    rng = rng_for(seed)
    nodes = random_dataset(seed, n=n).nodes
    c, dd = rng.standard_normal((2, k, k)) + 1j * rng.standard_normal((2, k, k))
    c *= 0.3 / np.linalg.norm(c, 2)
    dd *= 0.5 / np.linalg.norm(dd, 2)
    return DataSet(nodes, np.array([c + z**2 * dd for z in nodes]))


def random_blaschke(seed, max_degree=4):
    """Blaschke spec with distinct zeros, total degree <= max_degree."""
    rng = rng_for(seed)
    m = int(rng.integers(1, 3))
    zeros = distinct_nodes(rng, m, rmin=0.0, rmax=0.6, gap=0.1)
    mult = []
    left = max_degree
    for i in range(m):
        hi = max(1, left - (m - 1 - i))
        r = int(rng.integers(1, hi + 1))
        mult.append(r)
        left -= r
    return BlaschkeSpec(zeros, np.array(mult))


def pick_matrix_loop(d):
    """The classical Pick matrix block by block, in a double loop over node pairs.

    Test-side reference for the library's broadcast build:
    ``(I - W_i W_j*) / (1 - z_i conj(z_j))`` from k x k products.
    """
    n, k = d.n, d.k
    out = np.empty((n * k, n * k), dtype=complex)
    for i in range(n):
        for j in range(n):
            block = np.eye(k) - d.values[i] @ d.values[j].conj().T
            block /= 1.0 - d.nodes[i] * np.conj(d.nodes[j])
            out[i * k : (i + 1) * k, j * k : (j + 1) * k] = block
    return out


def degree4_feasible(rng, n):
    """Degree-4 data from ``c + B g``: two double zeros off the origin.

    Test-side copy of the benchmark's construction: ``g`` is a scaled
    disk automorphism and ``|c| + ||g|| < 0.9``, so the data are feasible;
    scaling the values walks them past their threshold.
    """
    b = BlaschkeSpec(distinct_nodes(rng, 2, rmin=0.2, rmax=0.6, gap=0.1), np.array([2, 2]))
    nodes = distinct_nodes(rng, n)
    c = rng.uniform(0.0, 0.4) * np.exp(2j * np.pi * rng.uniform())
    gain = rng.uniform(0.0, 0.9 - abs(c)) * np.exp(2j * np.pi * rng.uniform())
    h = rng.uniform(0.0, 0.9) * np.exp(2j * np.pi * rng.uniform())
    values = c + b.evaluate(nodes) * gain * (nodes - h) / (1.0 - np.conj(h) * nodes)
    return DataSet.scalar(nodes, values), b


def constrained_pick_lift(bundle, x):
    """The linearized constrained Pick matrix as the unconjugated Schur lift of the CF form.

    The Caratheodory-Fejer form ``G - V G V*`` with its jet corner
    replaced by ``Q``, bordered by ``Xd = I_deg (x) x`` and the mirrored
    block ``Q^-1`` (inverted here, on the test side), assembled with
    ``np.block``.  The library evaluates its congruent image,
    :func:`congruent_lift`.
    """
    d, b = bundle.data, bundle.blaschke
    x = _as_param(x, d.k)
    nk = d.n * d.k
    form = constrained_pick_cf(d, b, x, bundle=bundle)
    form[nk:, nk:] = bundle.q
    x_d = np.kron(np.eye(b.degree, dtype=complex), x)
    x_col = np.vstack([np.zeros((nk, x_d.shape[1]), dtype=complex), x_d])
    q_inv = hermitian_part(np.linalg.inv(bundle.q))
    return np.block([[form, x_col], [x_col.conj().T, q_inv]])


def congruent_lift(bundle, x):
    """``T A T*`` for the Schur lift ``A`` of :func:`constrained_pick_lift`.

    Test-side oracle for the library's linearized form, with
    ``T = diag(I, Phi R^-1, Phi R*)``, ``R = cholesky(Q)``: both corners
    become identities and the mirrored block stays ``Xd``.  The
    Takenaka-Malmquist factor of ``Q`` (lower triangular, ``e_m``'s leading
    jet at ``a_m`` on its diagonal) is ``R`` times the phases of the
    earlier zeros' Blaschke factors at ``a_m``; ``Phi`` undoes them, so
    ``Phi R^-1 Qt`` is the library's ``basis``.  Equal to the library's
    matrix to rounding amplified by ``cond(Q)``, not to the bit.
    """
    d, b = bundle.data, bundle.blaschke
    lam, mult = b.zeros, b.multiplicities
    lead = np.array([
        np.prod([((a - mu) / (1.0 - np.conj(mu) * a)) ** r for mu, r in zip(lam[:c], mult[:c])])
        for c, a in enumerate(lam)
    ])
    phi = np.diag(np.repeat(np.conj(lead) / np.abs(lead), mult * d.k))
    r = np.linalg.cholesky(bundle.q)
    nk, dk = d.n * d.k, b.degree * d.k
    t = np.zeros((nk + 2 * dk, nk + 2 * dk), dtype=complex)
    t[:nk, :nk] = np.eye(nk)
    t[nk : nk + dk, nk : nk + dk] = phi @ np.linalg.inv(r)
    t[nk + dk :, nk + dk :] = phi @ r.conj().T
    return hermitian_part(t @ constrained_pick_lift(bundle, x) @ t.conj().T)


def fresh_builder(data, b=None):
    """Affine coefficients ``(a0, terms)`` of the constrained Pick matrix by finite differences.

    Test-side oracle, independent of the library's closed form: ``2 k^2 + 1``
    builds of :func:`congruent_lift` give ``a0 = A(0)`` and
    ``terms[a, b] = ((A(E_ab) - a0) - i (A(i E_ab) - a0)) / 2``.
    """
    b = b if b is not None else BlaschkeSpec.z_squared()
    bundle = assemble_bundle(data, b)
    k = data.k

    def build(x):
        return congruent_lift(bundle, x)

    a0 = build(np.zeros((k, k), dtype=complex))
    terms = np.empty((k, k) + a0.shape, dtype=complex)
    for a in range(k):
        for c in range(k):
            unit = np.zeros((k, k), dtype=complex)
            unit[a, c] = 1.0
            terms[a, c] = 0.5 * ((build(unit) - a0) - 1j * (build(1j * unit) - a0))
    return a0, terms


def stein_kronecker(j, e_tilde, z, e):
    """Solve the two Stein equations as finite linear systems.

    Test-side oracle for the library's entrywise node part: solves
    ``Q - J Q J* = Et Et*`` via the vectorized operator
    ``I - conj(J) (x) J`` and ``Qt - J Qt Z* = Et E*`` in one batched
    solve over its columns (``Z`` is diagonal, so they decouple).

    Returns ``(q, q_tilde, amplification)`` with ``q`` Hermitian-exact
    and ``amplification`` the reciprocal of the smallest singular value
    of the two operators (infinite when one is singular).
    """
    j, e_tilde, z, e = (np.asarray(a, dtype=complex) for a in (j, e_tilde, z, e))
    kd = j.shape[0]
    op = np.eye(kd * kd, dtype=complex) - np.kron(j.conj(), j)
    # Amplification of the solve; blows up as |lambda_i conj(z_j)| -> 1.
    smin = np.linalg.svd(op, compute_uv=False)[-1]
    zdiag = np.diag(z)
    col_ops = np.eye(kd)[None, :, :] - np.conj(zdiag)[:, None, None] * j[None, :, :]
    smin = min(smin, np.min(np.linalg.svd(col_ops, compute_uv=False)[:, -1]))
    cond = np.inf if smin == 0 else 1.0 / smin
    rhs = (e_tilde @ e_tilde.conj().T).reshape(-1, order="F")
    q = np.linalg.solve(op, rhs).reshape(kd, kd, order="F")
    q = hermitian_part(q)

    # Qt column i solves (I - conj(z_i) J) Qt_i = (Et E*)_i.
    rhs_t = e_tilde @ e.conj().T
    q_tilde = np.linalg.solve(col_ops, rhs_t.T[:, :, None])[:, :, 0].T
    return q, q_tilde, cond


def stein_series(j, e_tilde, z, e, terms=200):
    """Truncated-series solutions of the Stein equations.

    Test-side oracle for the library's exact node part:
    ``Q = sum_i J^i Et Et* J*^i`` and ``Qt = sum_i J^i Et E* Z*^i``,
    truncated after ``terms`` terms.
    """
    j, e_tilde, z, e = (np.asarray(a, dtype=complex) for a in (j, e_tilde, z, e))
    q = np.zeros((j.shape[0], j.shape[0]), dtype=complex)
    q_tilde = np.zeros((j.shape[0], z.shape[0]), dtype=complex)
    jp = np.eye(j.shape[0], dtype=complex)
    zp = np.eye(z.shape[0], dtype=complex)
    core_q = e_tilde @ e_tilde.conj().T
    core_t = e_tilde @ e.conj().T
    for _ in range(terms):
        q += jp @ core_q @ jp.conj().T
        q_tilde += jp @ core_t @ zp.conj().T
        jp = jp @ j
        zp = zp @ z
    return q, q_tilde


def node_matrices(d):
    """``(Z, E, W)``: block diagonal of ``z_i I_k``, stack of identities, stack of the targets."""
    ik = np.eye(d.k, dtype=complex)
    return np.kron(np.diag(d.nodes), ik), np.tile(ik, (d.n, 1)), d.values.reshape(d.n * d.k, d.k)


def constrained_pick_z2_quadratic(d, x):
    """Caratheodory-Fejer Pick matrix for the origin constraint, quadratic in x.

    Closed-form oracle for ``B(z) = z^2``.  Rows and columns are grouped
    (nodes, value-at-0, jet-at-0):

        [ P            E - W x*      Z (E - W x*) ]
        [ *            I - x x*      0            ]
        [ *            0             I - x x*     ]
    """
    k = d.k
    x = _as_param(x, k)
    _check_constrained_domain(d, BlaschkeSpec.z_squared())
    z, e, w = node_matrices(d)
    top1 = e - w @ x.conj().T
    top2 = z @ top1
    gap = hermitian_part(np.eye(k) - x @ x.conj().T)
    zero = np.zeros((k, k), dtype=complex)
    return np.block(
        [
            [pick_matrix(d), top1, top2],
            [top1.conj().T, gap, zero],
            [top2.conj().T, zero, gap],
        ]
    )


def constrained_pick_z2(d, x):
    """Linearized 5-block form of :func:`constrained_pick_z2_quadratic`.

    Closed-form oracle for ``B(z) = z^2``.  The free parameter enters
    affinely; positive semidefiniteness of this matrix and of the
    quadratic form agree for every ``x``.
    """
    k = d.k
    x = _as_param(x, k)
    _check_constrained_domain(d, BlaschkeSpec.z_squared())
    z, e, w = node_matrices(d)
    top1 = e - w @ x.conj().T
    top2 = z @ top1
    ik = np.eye(k, dtype=complex)
    zk = np.zeros((k, k), dtype=complex)
    znk = np.zeros((d.n * k, k), dtype=complex)
    return np.block(
        [
            [pick_matrix(d), top1, top2, znk, znk],
            [top1.conj().T, ik, zk, x, zk],
            [top2.conj().T, zk, ik, zk, x],
            [znk.conj().T, x.conj().T, zk, ik, zk],
            [znk.conj().T, zk, x.conj().T, zk, ik],
        ]
    )


def node_part(bundle):
    """The node part ``G = [[K, Qt*], [Qt, Q]]`` of a bundle, its Cauchy block built here.

    The library builds only the jet blocks ``Q`` and ``Qt``; the Cauchy
    block is ``K = K_1 (x) I_k`` with ``K_1[i, j] = 1 / (1 - z_i conj(z_j))``.
    """
    d = bundle.data
    cauchy = hermitian_part(1.0 / (1.0 - np.outer(d.nodes, d.nodes.conj())))
    cauchy = np.kron(cauchy, np.eye(d.k, dtype=complex))
    return np.block([[cauchy, bundle.q_tilde.conj().T], [bundle.q_tilde, bundle.q]])


def value_part(d, x, degree):
    """``V = diag(W_1, ..., W_n, x, ..., x)`` with ``degree`` copies of ``x``."""
    blocks = np.concatenate([d.values, np.broadcast_to(x, (degree,) + x.shape)])
    m, k = blocks.shape[:2]
    v = np.zeros((m, k, m, k), dtype=complex)
    v[np.arange(m), :, np.arange(m)] = blocks
    return v.reshape(m * k, m * k)


def constrained_pick_cf_product(bundle, x):
    """The Caratheodory-Fejer form as the product ``G - V G V*``.

    Oracle for the library's block formula: the full node part
    (:func:`node_part`) and value part (:func:`value_part`) multiplied
    out, with the node block set to the bundle's ``p``.
    """
    d = bundle.data
    x = _as_param(x, d.k)
    g, v = node_part(bundle), value_part(d, x, bundle.blaschke.degree)
    form = hermitian_part(g - v @ g @ v.conj().T)
    nk = d.n * d.k
    form[:nk, :nk] = bundle.p
    return form


def constrained_pick_cf_blocks(bundle, x):
    """The Caratheodory-Fejer form by its block formula.

    Oracle for the library's ``G - V G V*``:

        [ P                  (I - Wd Xn*) Qt* ]
        [ Qt (I - Xn Wd*)    Q - Xd Q Xd*     ]

    with ``Wd`` the block diagonal of the targets and ``Xn`` (``Xd``) the
    block-diagonal repetition of ``x`` over the node (jet) blocks.
    """
    d, deg = bundle.data, bundle.blaschke.degree
    n, k = d.n, d.k
    x = _as_param(x, k)
    w_diag = np.zeros((n * k, n * k), dtype=complex)
    for i in range(n):
        w_diag[i * k : (i + 1) * k, i * k : (i + 1) * k] = d.values[i]
    x_n = np.kron(np.eye(n, dtype=complex), x)
    lower = bundle.q_tilde @ (np.eye(n * k, dtype=complex) - x_n @ w_diag.conj().T)
    x_d = np.kron(np.eye(deg, dtype=complex), x)
    corner = hermitian_part(bundle.q - x_d @ bundle.q @ x_d.conj().T)
    return np.block([[bundle.p, lower.conj().T], [lower, corner]])


def scalar_delta(d):
    """Scalar-route matrices ``(Delta, Delta_tilde)`` for k = 1 data.

    Test-side oracle for the quadratic constrained Pick matrix:
    ``Delta = P + W W* + Z W W* Z*`` and
    ``Delta_tilde = P - E E* - Z E E* Z* + (W E* + Z W E* Z*) Delta^-1 (E W* + Z E W* Z*)``.
    ``Delta_tilde`` PSD is necessary for solvability; membership of a
    parameter in the feasible set reduces to one PSD test
    (:func:`scalar_feasible_x`).
    """
    if d.k != 1:
        raise DomainError("scalar route requires k = 1")
    if np.any(np.abs(d.scalar_values()) >= 1.0):
        raise DomainError("scalar route requires all |w_i| < 1")
    p = pick_matrix(d)
    z, e, w = node_matrices(d)
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


def scalar_feasible_x(d, x, deltas=None, tol=DEFAULT_TOL):
    """Scalar-route PSD test of one parameter value (k = 1, ``|x| < 1``).

    Forms ``K = conj(x) Delta^(1/2) - Delta^(-1/2) (E W* + Z E W* Z*)``
    and tests ``Delta_tilde - K* K``; the verdict coincides with PSD of
    the quadratic constrained Pick matrix at ``x``.  Returns
    ``(psd, margin)``.
    """
    if abs(x) >= 1.0:
        raise DomainError("the scalar route assumes |x| < 1")
    if deltas is None:
        deltas = scalar_delta(d)
    delta, delta_tilde = deltas
    min_eig, scale = psd_margin(delta)
    if min_eig <= tol.psd_tol * scale:
        raise NotPsdError("Delta must be positive definite for the scalar route")
    z, e, w = node_matrices(d)
    cross = e @ w.conj().T + z @ e @ w.conj().T @ z.conj().T
    k_mat = np.conj(x) * sqrt_psd(delta, tol) - inv_sqrt_psd(delta, tol) @ cross
    return is_psd(delta_tilde - k_mat.conj().T @ k_mat, tol)


def scan_oracle(d, samples=500, seed=0, tol=DEFAULT_TOL):
    """The necessity scan evaluated one sample at a time.

    Test-side oracle for the library's blocked scan: the same samples in
    the same order (the pair (1, 0), a 16-point sweep of (cos t, sin t),
    then random parameters cycling through ``default_shapes(d.k)``, each
    drawn alone from its shape's generator, the generators spawned from
    ``SeedSequence(seed)``), each with its own form matrix; the margin
    comes from ``eigvalsh`` and the first sample whose relative margin
    drops below ``-psd_tol`` is the witness, its tuple from ``eigh``.
    """
    shapes = default_shapes(d.k)
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(len(shapes))]
    canonical = [GrassmannParam.scalar(1.0, 0.0)]
    for jj in range(16):
        theta = -np.pi / 2.0 + np.pi * (jj + 0.5) / 16
        canonical.append(GrassmannParam.scalar(np.cos(theta), np.sin(theta)))
    min_rel = np.inf
    for index in range(samples):
        if index < len(canonical):
            param = canonical[index]
        else:
            j = (index - len(canonical)) % len(shapes)
            alpha, beta = kernels._draw_params(streams[j], 1, *shapes[j])
            param = GrassmannParam(alpha[0], beta[0])
        f = necessity_form_matrix(d, param)
        f = 0.5 * (f + f.conj().T)
        w = np.linalg.eigvalsh(f)
        scale = 1.0 + max(abs(w[0]), abs(w[-1]))
        rel = w[0] / scale
        min_rel = min(min_rel, rel)
        if w[0] < -tol.psd_tol * scale:
            xs = np.linalg.eigh(f)[1][:, 0].reshape(d.n, param.ell, d.k).transpose(0, 2, 1)
            return ScanReport(
                status="WITNESS",
                samples_requested=samples,
                samples_evaluated=index + 1,
                min_value=float(rel),
                forms_evaluated=index + 1,
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
        forms_evaluated=samples,
    )


def csv_oracle(path, header, columns):
    """The body CSV files written row by row with ``csv.writer``.

    Test-side oracle for the one-string writer in the CLI: same header,
    same rows (the ``tolist()`` values of the equal-length ``columns``),
    UTF-8 with LF line ends.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(column.tolist() for column in columns)))


def check_lines_oracle(report, disk):
    """The text lines of ``cnpick check``, built eagerly as one list.

    Test-side oracle for the CLI's lazily built lines: status, margin and
    detail, then the witness (``np.array2string`` at precision 6) and the
    one-point disk where there are any.
    """
    lines = [f"status: {report.status}", f"margin: {report.margin:.6e}", f"detail: {report.detail}"]
    if report.witness_x is not None:
        lines.append(f"witness x: {np.array2string(report.witness_x, precision=6)}")
    if disk is not None:
        lines.append(
            f"one-point feasible disk: center {disk['center']}, radius {disk['radius']:.6f}"
        )
    return lines


def disk_grid_oracle(resolution):
    """The equal-area polar grid of the unit disk built one ring at a time.

    Test-side oracle for the library's one-pass grid: the origin, then
    ring ``i`` at radius ``sqrt((i - 1/2) / rings)`` with
    ``max(8, round(pi (2 i - 1)))`` points, odd rings turned by half a step.
    """
    rings = max(1, resolution // 2)
    points = [0.0 + 0.0j]
    for i in range(1, rings + 1):
        radius = np.sqrt((i - 0.5) / rings)
        count = max(8, int(round(np.pi * (2 * i - 1))))
        theta = 2.0 * np.pi * (np.arange(count) + 0.5 * (i % 2)) / count
        points.append(radius * np.exp(1j * theta))
    return np.concatenate([np.atleast_1d(p) for p in points])


def disk_grid_formula_oracle(resolution):
    """The equal-area polar grid of the unit disk from one array per point quantity.

    Test-side oracle for the library's table-driven grid: every point gets
    its ring, its ring's size and its index on the ring, and the angles and
    radii follow elementwise; the origin is prepended.
    """
    rings = max(1, resolution // 2)
    i = np.arange(1, rings + 1)
    counts = np.maximum(8, np.rint(np.pi * (2 * i - 1)).astype(int))
    ring = np.repeat(i, counts)
    count = np.repeat(counts, counts)
    j = np.arange(count.size) - np.repeat(np.cumsum(counts) - counts, counts)
    theta = 2.0 * np.pi * (j + 0.5 * (ring % 2)) / count
    radius = np.sqrt((ring - 0.5) / rings)
    return np.concatenate([[0.0 + 0.0j], radius * np.exp(1j * theta)])


def covers_oracle(centers, radii, w0, slack=0.0):
    """Whether ``w0`` lies in some disk ``D(c, r + slack)``, testing every point against every disk.

    Test-side oracle for ``BodyReport.covers``: elementwise for arrays,
    a ``bool`` for scalar and 0-d input.
    """
    w0 = np.asarray(w0)
    hit = np.zeros(w0.shape, dtype=bool)
    for center, reach in zip(centers.tolist(), (radii + slack).tolist()):
        hit |= np.abs(w0 - center) <= reach
    return bool(hit) if hit.ndim == 0 else hit


def chain_eval_oracle(chain, z):
    """Chain values by the full step loop, origin steps included.

    Test-side oracle for ``chain_eval``, which skips the Blaschke factor
    of a step at the origin and the Moebius map of a step with value 0:
    here every step computes ``b(z, zeta) * s`` and ``mu(t, v)`` in full.
    """
    z = np.asarray(z, dtype=complex)
    val = np.full_like(z, chain.tail, dtype=complex)
    for zeta, v in reversed(chain.steps):
        t = (z - zeta) / (1.0 - np.conj(zeta) * z) * val
        val = (t + v) / (1.0 + np.conj(v) * t)
    return val if val.shape else complex(val)


def verify_oracle(fn, d, b=None, tol=1e-7):
    """Residual report with one evaluation per node, per constraint zero, per derivative and of the sup-norm ring.

    Test-side oracle for the one-pass ``verify_interpolant``: the node and
    zero values come from scalar evaluations, each derivative of order j
    at a zero from its own 256-point Cauchy ring, the sup-norm from its
    own 4096-point ring at radius 0.999; chains go through
    :func:`chain_eval_oracle`.
    """
    b = b if b is not None else BlaschkeSpec.z_squared()
    evaluate = (lambda z: chain_eval_oracle(fn, z)) if isinstance(fn, SchurChain) else fn

    def residual(a):
        a = np.asarray(a, dtype=complex)
        return float(abs(complex(a))) if a.ndim == 0 else operator_norm(a)

    def derivative(point, order, nodes=256):
        rho = min(0.1, (1.0 - abs(point)) / 2.0)
        theta = 2.0 * np.pi * np.arange(nodes) / nodes
        vals = np.asarray(evaluate(point + rho * np.exp(1j * theta)), dtype=complex)
        weights = np.exp(-1j * order * theta) * (math.factorial(order) / (nodes * rho**order))
        if vals.ndim == 1:
            return complex(np.sum(weights * vals))
        return np.tensordot(weights, vals, axes=(0, 0))

    interpolation = []
    for i in range(d.n):
        got = np.asarray(evaluate(d.nodes[i]), dtype=complex)
        want = d.values[i] if d.k > 1 or got.ndim else d.values[i, 0, 0]
        interpolation.append(residual(got - want))
    zero_values = [np.asarray(evaluate(lam), dtype=complex) for lam in b.zeros]
    coupling = [residual(v - zero_values[0]) for v in zero_values[1:]]
    jets = [
        tuple(residual(derivative(lam, j)) for j in range(1, int(r)))
        for lam, r in zip(b.zeros, b.multiplicities)
    ]
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    vals = np.asarray(evaluate(0.999 * np.exp(1j * theta)), dtype=complex)
    sup = float(np.max(np.abs(vals))) if vals.ndim == 1 else float(max(operator_norm(v) for v in vals))
    passed = (
        all(r <= tol for r in interpolation)
        and all(r <= tol for js in jets for r in js)
        and all(r <= tol for r in coupling)
        and sup <= 1.0 + 1e-6
    )
    return ResidualReport(
        interpolation=tuple(interpolation),
        jets=tuple(jets),
        coupling=tuple(coupling),
        sup_norm=sup,
        tol=float(tol),
        passed=bool(passed),
    )


def random_contraction(rng, k, norm=None):
    x = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    target = rng.uniform(0.0, 0.95) if norm is None else norm
    return x * (target / max(np.linalg.norm(x, 2), 1e-12))


def random_hermitian(rng, n, scale=1.0):
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return scale * 0.5 * (a + a.conj().T)


def random_psd(rng, n, rank=None):
    rank = rank if rank is not None else n
    b = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return b @ b.conj().T


@pytest.fixture
def rng():
    return rng_for(1234)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count the ``np.linalg`` eigh, eigvalsh, cholesky, inv, solve and svd calls of a test.

    Returns a ``Counter`` keyed by function name.  The library looks each
    function up on ``np.linalg`` at call time, so every call is counted.
    """
    counts = collections.Counter()
    for name in ("eigh", "eigvalsh", "cholesky", "inv", "solve", "svd"):
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.fixture
def chain_eval_calls(monkeypatch):
    """Record the ``chain_eval`` calls made during a test.

    Returns a list with the shape of the points of each call.  The
    library looks ``chain_eval`` up in its module at call time, so every
    call is recorded.
    """
    shapes = []
    original = interpolant.chain_eval

    def recorded(chain, z):
        shapes.append(np.shape(z))
        return original(chain, z)

    monkeypatch.setattr(interpolant, "chain_eval", recorded)
    return shapes


@pytest.fixture
def kron_oracle(monkeypatch):
    """Put ``np.kron`` back where the library forms Kronecker products by broadcasting.

    Test-side oracle for ``_kron``: after the returned function is called,
    every build in the test forms the node matrix, the bundle's arrays
    tensored with ``I_k`` and the Cauchy blocks of the body pencil with
    ``np.kron`` itself.
    """

    def use_np_kron():
        for module in (pick, body, feasibility):
            monkeypatch.setattr(module, "_kron", np.kron)

    return use_np_kron


@pytest.fixture
def solver_trace(monkeypatch):
    """Record the bounds the primal-dual solver's stop rules read, iteration by iteration.

    Returns a list with one entry per ``_maximize_min_eig`` run made
    during the test: the list of its iterations' ``(lower, upper)`` pairs,
    the best margin so far and the smallest dual bound so far at the
    iteration's stop test.  An iterate's margin is the bottom of the one
    ``eigvalsh`` of a single matrix that the solver makes for it (the step
    lengths decompose stacks), and an iteration's dual bound is its one
    ``_bound`` call.
    """
    runs, margins = [], []
    solve, bound, eigvalsh = feasibility._maximize_min_eig, feasibility._bound, np.linalg.eigvalsh

    def traced_solve(*args, **kwargs):
        runs.append([])
        margins.append(-np.inf)  # nonempty while a run is active
        try:
            return solve(*args, **kwargs)
        finally:
            margins.clear()

    def traced_eigvalsh(a, *args, **kwargs):
        w = eigvalsh(a, *args, **kwargs)
        if margins and np.ndim(a) == 2:
            margins.append(float(w[0]))
        return w

    def traced_bound(*args):
        value = bound(*args)
        if margins:  # inside a solver run
            run = runs[-1]
            run.append((max(margins), min(value, run[-1][1]) if run else value))
        return value

    monkeypatch.setattr(feasibility, "_maximize_min_eig", traced_solve)
    monkeypatch.setattr(feasibility, "_bound", traced_bound)
    monkeypatch.setattr(np.linalg, "eigvalsh", traced_eigvalsh)
    return runs
