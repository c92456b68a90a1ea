"""Numpy-only reference kernels that measure the host's current speed.

The benchmark runs a reference kernel right before every timed problem
and divides each problem time by the running median of the kernel's
times, so that a slowdown of the shared host scales both and cancels.
A slowdown does not hit every kind of work alike, so each workload is
scaled by the kernel that does its kind of work:

* ``StackKernel`` (``decide``): one batched Hermitian eigensolve over a
  stack of small matrices, plus a short loop of small numpy calls, like
  the disk-grid layer.
* ``BodyKernel`` (``body``): a loop that fills a stack of 4x4 matrices
  field by field and takes its smallest eigenvalues, like the outer grid
  of ``body_union``.
* ``FormKernel`` (``witness``): a Python loop that builds necessity-form
  sized matrices from ``kron`` and small products, with a QR, an SVD and
  an ``eigh`` per round, like the kernel scan.

On the development host, over 15-s windows of the ``witness`` workload,
the pass time varied by 6.7% (coefficient of variation) raw, 4.5% scaled
by ``StackKernel`` and 1.6% scaled by ``FormKernel``.  On ``body`` the
max/min of 15-s window pass times was 1.21 raw, 1.16 scaled by
``StackKernel`` and 1.11 scaled by ``BodyKernel``.

This module must never import cnpick: a change to cnpick would then move
the yardstick together with the thing it measures.  The smoke tests
check this.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Captured at import time, so a tracer that later wraps numpy.linalg
# never sees (or slows) the reference work.
_eigvalsh = np.linalg.eigvalsh
_eigh = np.linalg.eigh
_qr = np.linalg.qr
_svd = np.linalg.svd

WINDOW = 4


class _Kernel:
    """Fixed inputs, drawn once, so every call does identical work."""

    # Median kernel time on the 2-core development host.  It only fixes
    # the unit: scaled times read as milliseconds on a host running the
    # kernel in exactly this long.
    NOMINAL_S: float

    def _work(self) -> float:
        raise NotImplementedError

    def run(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        start = time.perf_counter()
        acc = self._work()
        elapsed = time.perf_counter() - start
        if not np.isfinite(acc):
            raise ArithmeticError("reference kernel produced a non-finite value")
        return elapsed


class StackKernel(_Kernel):
    """Batched eigensolve plus a short loop of small calls."""

    NOMINAL_S = 0.0128

    def __init__(self):
        rng = np.random.default_rng(20080915)
        a = rng.standard_normal((300, 11, 11)) + 1j * rng.standard_normal((300, 11, 11))
        self._stack = a + np.conj(np.swapaxes(a, 1, 2))
        self._left = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._right = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        self._nodes = rng.uniform(0.1, 0.8, 100) * np.exp(2j * np.pi * rng.uniform(size=100))

    def _work(self) -> float:
        acc = float(_eigvalsh(self._stack)[:, 0].sum())
        for z in self._nodes:
            blk = np.kron(self._left * z, self._right)
            acc += float(_eigh(blk + blk.conj().T)[0][0])
        return acc


class FormKernel(_Kernel):
    """Python-bound loop of small numpy calls shaped like necessity-form samples."""

    NOMINAL_S = 0.0109

    def __init__(self):
        rng = np.random.default_rng(20080916)
        self._alpha = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._beta = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        self._values = [0.3 * rng.standard_normal((2, 2)) for _ in range(3)]
        self._nodes = rng.uniform(0.1, 0.8, 3) * np.exp(2j * np.pi * rng.uniform(size=3))
        self._gauss = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))

    def _work(self) -> float:
        acc = 0.0
        for _ in range(12):
            q, _ = _qr(self._gauss.conj().T, mode="reduced")
            acc += float(_svd(q[:2, :2], compute_uv=False)[-1])
            form = np.empty((12, 12), dtype=complex)
            for i, zi in enumerate(self._nodes):
                for j, zj in enumerate(self._nodes):
                    left = self._alpha.conj().T + np.conj(zj) * self._beta.conj().T
                    kij = left @ (self._alpha + zi * self._beta) + np.eye(2) * zi / (1 - np.conj(zj) * zi)
                    gap = np.eye(2) - self._values[i] @ self._values[j].conj().T
                    form[4 * i : 4 * i + 4, 4 * j : 4 * j + 4] = np.kron(kij.T, gap)
            acc += float(_eigh(0.5 * (form + form.conj().T))[0][0])
        return acc


class BodyKernel(_Kernel):
    """Stacks of 4x4 Hermitian matrices built field by field, then ``eigvalsh``."""

    NOMINAL_S = 0.0140

    def __init__(self):
        rng = np.random.default_rng(20080917)
        self._xs = 0.6 * np.sqrt(rng.uniform(size=81)) * np.exp(2j * np.pi * rng.uniform(size=81))
        self._w0s = 0.9 * np.sqrt(rng.uniform(size=40)) * np.exp(2j * np.pi * rng.uniform(size=40))
        self._z = complex(0.3, 0.2)

    def _work(self) -> float:
        acc = 0.0
        xs = self._xs
        gap = 1.0 - np.abs(xs) ** 2
        for w0 in self._w0s:
            m = np.zeros((xs.size, 4, 4), dtype=complex)
            top = 1.0 - np.conj(w0) * xs
            m[:, 0, 0] = gap
            m[:, 1, 1] = gap
            m[:, 0, 2] = top
            m[:, 2, 0] = np.conj(top)
            m[:, 1, 2] = self._z * top
            m[:, 2, 1] = np.conj(self._z * top)
            m[:, 0, 3] = top
            m[:, 3, 0] = np.conj(top)
            m[:, 2, 2] = 2.0
            m[:, 3, 3] = 1.5 - abs(w0) ** 2
            w = _eigvalsh(m)
            acc += float(np.max(w[:, 0] / (1.0 + np.maximum(np.abs(w[:, 0]), np.abs(w[:, -1])))))
        return acc


KERNELS = {"decide": StackKernel, "witness": FormKernel, "body": BodyKernel}


def speed_factors(samples, nominal_s):
    """Per-slot slowdown factors from the interleaved reference samples.

    ``samples[i]`` is the kernel time taken right before timed item ``i``
    (one extra sample follows the last item).  Item ``i`` is scaled by the
    median of the samples within ``WINDOW`` slots of it, divided by
    ``nominal_s``; a factor above 1 means the host is slower than nominal.
    """
    factors = []
    for i in range(len(samples) - 1):
        window = samples[max(0, i - WINDOW + 1) : i + WINDOW + 1]
        factors.append(statistics.median(window) / nominal_s)
    return factors
