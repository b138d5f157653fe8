"""Closed-form solution of the planar minimization problem.

Everything in 2D reduces to a single rotation angle. The polar factor
corresponds to the angle alpha_p; for non-classical weights a pitchfork
bifurcation at tr U = rho opens two optimal branches alpha_p -/+ beta
with cos(beta) = rho / tr U: branch i is minimizer i of ``energy.solve``,
whose relative rotation turns by +beta for i = 0 and by -beta for i = 1.
:func:`polar_2d_explicit` reads the polar factor off two traces instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .energy import CosseratWeights, DeformationGradient, solve
from .errors import DimensionMismatch


def wrap_angle(a: float) -> float:
    """Wrap to (-pi, pi], choosing +pi over -pi; floored ``%``, as ``np.remainder``."""
    w = (a + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if w == -math.pi else w


@dataclass(frozen=True)
class PlanarSolution:
    """Optimal planar rotation angles for one (weights, F) instance.

    ``branch_angles[i]`` is the angle of minimizer i of
    :func:`~relaxed_polar.energy.solve`, and ``relative_angles[i]`` the
    angle of its :func:`~relaxed_polar.energy.relative_rotation`: (beta,
    -beta) when bifurcated, else (0.0,). A minimizer with relative angle b
    sits at ``polar_angle - b`` (wrapped to (-pi, pi]). ``bifurcated`` is
    true exactly when two branches exist, i.e. tr U strictly exceeds the
    singular radius.
    """

    polar_angle: float
    branch_angles: tuple[float, ...]
    relative_angles: tuple[float, ...]
    reduced_energy: float
    bifurcated: bool


def _require_2d(F: DeformationGradient):
    if F.dim != 2:
        raise DimensionMismatch(f"planar routine requires dim 2, got {F.dim}")


def polar_angle(F: DeformationGradient) -> float:
    """Rotation angle alpha_p of the planar polar factor, in (-pi, pi].

    Read with atan2 from the first column (cos a, sin a) of F's cached
    polar factor, whose entries cannot overflow at any scale of F; the
    compressive case, polar factor -1, lands on +pi.
    """
    _require_2d(F)
    r = F.polar.rotation
    a = math.atan2(r[1, 0], r[0, 0])
    return math.pi if a == -math.pi else a


def polar_2d_explicit(F: DeformationGradient) -> np.ndarray:
    """Closed-form planar polar factor from the traces of F and JF.

    Uses tr(U) = sqrt(tr(F)^2 + tr(JF)^2), so no decomposition is needed.
    """
    _require_2d(F)
    (a, b), (c, d) = F.matrix
    tr_f, tr_jf = a + d, b - c
    return np.array([[tr_f, tr_jf], [-tr_jf, tr_f]]) / np.hypot(tr_f, tr_jf)


def _branch_angles(ap: float, relative_angles, k: int) -> tuple[float, ...]:
    """Minimizer angles wrap_angle(ap - b) for relative angles b; (ap,) as given if k = 0."""
    return tuple([wrap_angle(ap - b) for b in relative_angles]) if k else (ap,)


def optimal_angles(W: CosseratWeights, F: DeformationGradient) -> PlanarSolution:
    """All energy-minimizing rotation angles for the given weights.

    Classical weights yield the single polar angle. Non-classical weights
    yield alpha_p -/+ arccos(rho / tr U), in the order of ``solve``, once
    the pairing rule pairs the two singular values, that is once tr U
    exceeds the singular radius rho; at or below the threshold the branches
    coincide with alpha_p and the solution is reported as un-bifurcated.
    """
    _require_2d(F)
    ap = polar_angle(F)
    mset = solve(W, F)
    rel = mset.relative_angles
    return PlanarSolution(ap, _branch_angles(ap, rel, mset.k), rel, mset.reduced_energy, mset.k > 0)


def simple_shear(gamma: float) -> DeformationGradient:
    """Simple shear [[1, gamma], [0, 1]]; volume preserving for any amount."""
    return DeformationGradient([[1.0, float(gamma)], [0.0, 1.0]])
