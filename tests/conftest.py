"""Shared seeded generators for the test suite.

Everything is driven by explicit integer seeds so failures reproduce
exactly; no test draws from global random state.
"""

import numpy as np
import pytest

from cnpick.pick import BlaschkeSpec, DataSet, assemble_bundle, constrained_pick


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


def fresh_builder(data, b=None):
    """Affine coefficients ``(a0, terms)`` of the constrained Pick matrix by finite differences.

    Test-side oracle, independent of the library's closed form: ``2 k^2 + 1``
    builds give ``a0 = A(0)`` and ``terms[a, b] = ((A(E_ab) - a0) - i (A(i E_ab) - a0)) / 2``.
    """
    b = b if b is not None else BlaschkeSpec.z_squared()
    bundle = assemble_bundle(data, b)
    k = data.k

    def build(x):
        return constrained_pick(data, b, x, bundle=bundle)

    a0 = build(np.zeros((k, k), dtype=complex))
    terms = np.empty((k, k) + a0.shape, dtype=complex)
    for a in range(k):
        for c in range(k):
            unit = np.zeros((k, k), dtype=complex)
            unit[a, c] = 1.0
            terms[a, c] = 0.5 * ((build(unit) - a0) - 1j * (build(1j * unit) - a0))
    return a0, terms


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
