"""Classical polar decomposition and Euclidean distance to the rotation group.

The polar factor is computed from the SVD (rotation = left @ right.T),
which is unconditionally stable at the small sizes this package targets
and reuses the singular values every other formula needs anyway.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch

if TYPE_CHECKING:  # pragma: no cover
    from .energy import DeformationGradient


@dataclass(frozen=True)
class PolarData:
    """Factors of F = rotation @ stretch plus the spectral frame of the stretch.

    ``values`` are the descending eigenvalues of the stretch (the singular
    values of F), and the columns of ``frame``, a rotation, are its matching
    eigenvectors q_i. ``stretch`` = Q diag(nu) Q^T, symmetric positive
    definite and read-only, is computed on first read.
    """

    rotation: np.ndarray
    values: np.ndarray
    frame: np.ndarray

    @functools.cached_property
    def stretch(self) -> np.ndarray:
        s = self.frame @ np.diag(self.values) @ self.frame.T
        s = (s + s.T) / 2.0
        s.setflags(write=False)
        return s


def dist_sq_so_n(F: "DeformationGradient") -> float:
    """Squared Euclidean (Frobenius) distance of F to the rotation group.

    Equals sum_i (nu_i - 1)^2 in the singular values of F, the minimum of
    ||R^T F - 1||^2 over rotations, attained at the polar factor.
    """
    nu = F.singular_values
    return float(np.sum((nu - 1.0) ** 2))


def polar_2d_explicit(F: "DeformationGradient") -> np.ndarray:
    """Closed-form planar polar factor from the traces of F and JF.

    Uses tr(U) = sqrt(tr(F)^2 + tr(JF)^2), so no decomposition is needed.
    """
    if F.dim != 2:
        raise DimensionMismatch("explicit polar formula requires a 2x2 input")
    m = F.matrix
    tr_f = m[0, 0] + m[1, 1]
    tr_jf = m[0, 1] - m[1, 0]
    tr_u = np.hypot(tr_f, tr_jf)
    return np.array([[tr_f, tr_jf], [-tr_jf, tr_f]]) / tr_u

