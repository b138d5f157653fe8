"""Dense small-matrix kernels every other module builds on.

All routines operate on plain ``numpy`` arrays and are pure functions:
nothing here mutates its inputs or keeps state, so everything is safe to
call concurrently. Intended scale is n <= ~50; nothing is tuned beyond
that. ``svd_ordered`` is the SVD a ``DeformationGradient`` with n != 2
takes all its decompositions from. ``skew_exp`` is the exact exponential
of a skew matrix, public and the reference the oracle's Cayley step is
tested against; it takes stacks and needs no Pade approximant: one
Hermitian eigendecomposition in every dimension.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NotSkew

# skew_exp's skewness check uses an absolute tolerance.
STRUCTURAL_TOL = 1e-12


def svd_ordered(f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD F = left @ diag(values) @ right.T with descending values.

    ``left`` and ``right`` are orthogonal (not necessarily det +1). F must
    be a finite square matrix of dim >= 1, else ``ValueError``. In the hot
    path its one caller is the ``DeformationGradient`` constructor, which
    for n != 2 takes every decomposition it caches from this one SVD.
    """
    a = np.asarray(f, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    # a non-finite entry makes the sum non-finite, and a finite sum that overflows
    # falls through to the exact test; numpy's a.sum() would warn on that overflow
    if not math.isfinite(sum(a.ravel().tolist())) and not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    u, s, vh = np.linalg.svd(a)
    return u, s, vh.T


def skew_exp(a) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix; the result is a rotation.

    Takes one (n, n) matrix or a stack (..., n, n) and exponentiates each
    slice on its own, so a slice's result does not depend on the stack
    around it. In every dimension the Hermitian eigendecomposition
    1j A = V diag(lam) V^H gives exp(A) = 1 + Re(V diag(expm1(-1j lam)) V^H),
    with no Pade fallback. Raises ``NotSkew`` when the symmetric part
    exceeds the structural tolerance, measured as one Frobenius norm over
    the stack.
    """
    m = np.asarray(a, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] < 1:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    nsq = float(np.vdot(m, m))
    if not np.isfinite(nsq) and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    n = m.shape[-1]
    mt = m.swapaxes(-1, -2)
    d = m + mt
    # one norm over the whole stack, as for a single matrix
    if np.sqrt(np.vdot(d, d)) > STRUCTURAL_TOL * max(1.0, np.sqrt(nsq)) + STRUCTURAL_TOL:
        raise NotSkew("input is not skew-symmetric within tolerance")
    m = (m - mt) / 2.0
    lam, v = np.linalg.eigh(1j * m)
    # exp(A) - 1 from expm1 keeps the error relative to |A| for small steps
    return np.eye(n) + ((v * np.expm1(-1j * lam)[..., None, :]) @ v.swapaxes(-1, -2).conj()).real
