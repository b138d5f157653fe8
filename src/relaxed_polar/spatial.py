"""Closed-form solution of the three-dimensional minimization problem.

In 3D the optimal deviation from the polar factor is a rotation inside
the plane of maximal stretch span{q1, q2} about the axis q3 (eigenvector
of the stretch for the smallest singular value). The bifurcation is
controlled by nu_1 + nu_2 against the singular radius rho of the weights.
:func:`rpolar_3d` is :func:`~relaxed_polar.energy.solve` limited to 3D,
and :func:`mean_planar_stretch` gives the u_mmp of the CLI report.
"""

from __future__ import annotations

import numpy as np

from .energy import (
    DEGENERACY_RTOL,
    CosseratWeights,
    DeformationGradient,
    MinimizerSet,
    _as_values,
    dist_sq_so_n,
    reduced_energy_values,
    solve,
)
from .errors import DegenerateSpectrum, DimensionMismatch, RegimeError


def _require_3d(F: DeformationGradient):
    if F.dim != 3:
        raise DimensionMismatch(f"spatial routine requires dim 3, got {F.dim}")


def wred_3d_values(W: CosseratWeights, nus) -> float:
    """Reduced 3D energy of three positive, finite singular values in any order."""
    d = _as_values(nus)
    if len(d) != 3:
        raise DimensionMismatch(f"spatial routine requires dim 3, got {len(d)}")
    return reduced_energy_values(W, d)[1]


def wred_3d(W: CosseratWeights, F: DeformationGradient) -> float:
    """Reduced 3D shear-stretch energy min over all rotations."""
    return wred_3d_values(W, F.singular_values)


def mean_planar_stretch(W: CosseratWeights, F: DeformationGradient) -> float:
    """u_mmp = (nu_1 + nu_2) / 2 of F / lam, or of F for classical weights."""
    s = float(F.singular_values[0] + F.singular_values[1])
    return s / 2.0 if W.is_classical else s / (2.0 * W.scaling)


def rpolar_3d(W: CosseratWeights, F: DeformationGradient) -> MinimizerSet:
    """The :func:`~relaxed_polar.energy.solve` set of a 3D F.

    Its branches turn about the axis q3 = ``F.polar.frame[:, 2]``.
    """
    _require_3d(F)
    return solve(W, F)


def plane_of_max_stretch(
    F: DeformationGradient,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal principal triple (q1, q2, q3) by descending stretch.

    q1, q2 span the plane of maximal stretch; q3 is the rotation axis of
    the optimal deviation. Ill-defined when the two smallest singular
    values coincide, in which case ``DegenerateSpectrum`` is raised.
    """
    _require_3d(F)
    nu = F.singular_values
    if nu[1] - nu[2] <= DEGENERACY_RTOL * nu[0]:
        raise DegenerateSpectrum(
            f"nu_2 = {nu[1]:g} and nu_3 = {nu[2]:g} too close; plane undefined"
        )
    q = F.polar.frame
    return q[:, 0].copy(), q[:, 1].copy(), q[:, 2].copy()


def classical_neighborhood_check(W: CosseratWeights, F: DeformationGradient) -> bool:
    """Whether F lies in the guaranteed-classical neighborhood of SO(3).

    For mu > muc > 0, every F with ||U - 1||^2 < zeta^2 / 2 is classical.
    Raises ``RegimeError`` for muc = 0 (the neighborhood is empty) and for
    classical weights.
    """
    _require_3d(F)
    if W.is_classical:
        raise RegimeError("neighborhood criterion requires non-classical weights")
    if W.muc == 0.0:
        raise RegimeError("neighborhood criterion requires muc > 0")
    return dist_sq_so_n(F) < 0.5 * W.zeta**2


def sl3_criterion(F: DeformationGradient) -> bool:
    """True iff det F = 1 within 1e-10, which forces nu_1 + nu_2 >= 2.

    Unit-determinant gradients always admit a non-classical response at
    weights (1, 0); the inequality is strict for distinct singular values.
    """
    _require_3d(F)
    det = float(np.linalg.det(F.matrix))
    return abs(det - 1.0) <= 1e-10
