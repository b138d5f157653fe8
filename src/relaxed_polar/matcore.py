"""Dense small-matrix kernels every other module builds on.

All routines operate on plain ``numpy`` arrays and are pure functions:
nothing here mutates its inputs or keeps state, so everything is safe to
call concurrently. Intended scale is n <= ~50; nothing is tuned beyond
that. ``skew_exp`` takes stacks and needs no Pade approximant: closed
forms for n = 2 and 3, a Hermitian eigendecomposition otherwise.
"""

from __future__ import annotations

import numpy as np

from .errors import NotSkew

# Structural checks (orthogonality, skewness, ...) use an absolute tolerance.
STRUCTURAL_TOL = 1e-12


def as_square(x) -> np.ndarray:
    """Coerce to a finite, square, float matrix of dim >= 1."""
    a = np.asarray(x, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def sym(x) -> np.ndarray:
    """Symmetric part (X + X^T) / 2."""
    a = as_square(x)
    return (a + a.T) / 2.0


def skew(x) -> np.ndarray:
    """Skew-symmetric part (X - X^T) / 2."""
    a = as_square(x)
    return (a - a.T) / 2.0


def frobenius_sq(x) -> float:
    """Squared Frobenius norm tr(X^T X)."""
    a = np.asarray(x, dtype=float)
    return float(np.sum(a * a))


def is_rotation(r, tol: float = STRUCTURAL_TOL) -> bool:
    """True if R^T R = 1 and det R = 1 within ``tol`` (Frobenius / absolute)."""
    a = np.asarray(r, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    n = a.shape[0]
    if not np.all(np.isfinite(a)):
        return False
    ortho = np.linalg.norm(a.T @ a - np.eye(n)) <= tol * max(1.0, np.sqrt(n))
    return bool(ortho and abs(np.linalg.det(a) - 1.0) <= tol * max(1.0, np.sqrt(n)))


def svd_ordered(f) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """SVD F = left @ diag(values) @ right.T with descending values.

    ``left`` and ``right`` are orthogonal (not necessarily det +1). In the
    hot path its one caller is the ``DeformationGradient`` constructor,
    which takes every decomposition it caches from this one SVD.
    """
    a = as_square(f)
    u, s, vh = np.linalg.svd(a)
    return u, s, vh.T


def skew_exp(a) -> np.ndarray:
    """Matrix exponential of a skew-symmetric matrix; the result is a rotation.

    Takes one (n, n) matrix or a stack (..., n, n) and exponentiates each
    slice on its own, so a slice's result does not depend on the stack
    around it. Closed forms are used for n = 2 (planar rotation) and
    n = 3 (Rodrigues form, equal to its series below an angle of 1e-8);
    otherwise the Hermitian eigendecomposition 1j A = V diag(lam) V^H gives
    exp(A) = 1 + Re(V diag(expm1(-1j lam)) V^H). There is no Pade fallback.
    Raises ``NotSkew`` when the symmetric part exceeds the structural
    tolerance, measured as one Frobenius norm over the stack.
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
    if n == 2:
        c, s = np.cos(m[..., 1, 0]), np.sin(m[..., 1, 0])
        return np.stack((c, -s, s, c), axis=-1).reshape(m.shape)
    if n == 3:
        # exp(A) = 1 + sin(t)/t A + (1 - cos t)/t^2 A^2 in half-angle form: below
        # t = 1e-8 both round to the series' 1 and 1/2; the clamp keeps t = 0 finite
        t = np.maximum(np.sqrt(0.5 * (m * m).sum(axis=(-2, -1))), 1e-300)
        h = np.sin(0.5 * t) / (0.5 * t)
        a1 = (np.sin(t) / t)[..., None, None]
        a2 = (0.5 * h * h)[..., None, None]
        return np.eye(3) + a1 * m + a2 * (m @ m)
    lam, v = np.linalg.eigh(1j * m)
    # exp(A) - 1 from expm1 keeps the error relative to |A| for small steps
    return np.eye(n) + ((v * np.expm1(-1j * lam)[..., None, :]) @ v.swapaxes(-1, -2).conj()).real
