"""Closed-form solution of the three-dimensional minimization problem.

In 3D the optimal deviation from the polar factor is a rotation inside
the plane of maximal stretch span{q1, q2} about the axis q3 (eigenvector
of the stretch for the smallest singular value). The bifurcation is
controlled by nu_1 + nu_2 against the singular radius rho of the weights.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .energy import CosseratWeights, DeformationGradient, reduced_energy_values
from .errors import DegenerateSpectrum, DimensionMismatch, RegimeError
from .polar import dist_sq_so_n

# relative width of the band classified as the bifurcation boundary
BOUNDARY_RTOL = 1e-12
# relative gap under which singular values count as repeated
DEGENERACY_RTOL = 1e-10


class Domain(enum.Enum):
    CLASSICAL = "classical"
    BOUNDARY = "boundary"
    NON_CLASSICAL = "non-classical"


@dataclass(frozen=True)
class SpatialSolution:
    """Globally optimal rotations for one (weights, F) instance in 3D.

    ``minimizers`` holds one rotation (classical response, the polar
    factor) or two (the bifurcated pair); ``relative_angles`` are the
    matching in-plane angles of Q^T R^T polar(F) Q about ``axis`` = q3.
    ``u_mmp`` is the maximal mean planar stretch of the rescaled gradient
    (of F itself when the weights are classical and no rescaling exists),
    and ``s_mmp`` = u_mmp - 1 the corresponding strain. ``degenerate``
    flags repeated singular values, for which the minimizer set is a
    representative sample from the cached frame rather than exhaustive.
    """

    minimizers: tuple[np.ndarray, ...]
    relative_angles: tuple[float, ...]
    axis: np.ndarray
    reduced_energy: float
    domain: Domain
    u_mmp: float
    s_mmp: float
    degenerate: bool = False


def _require_3d(F: DeformationGradient):
    if F.dim != 3:
        raise DimensionMismatch(f"spatial routine requires dim 3, got {F.dim}")


def _block_z(cos_b: float, sign: float) -> np.ndarray:
    s = sign * np.sqrt(max(0.0, 1.0 - cos_b * cos_b))
    return np.array([[cos_b, -s, 0.0], [s, cos_b, 0.0], [0.0, 0.0, 1.0]])


def classify_domain(W: CosseratWeights, F: DeformationGradient) -> Domain:
    """Compare nu_1 + nu_2 against the singular radius of the weights.

    The boundary tag is a thin deterministic band of relative width
    ``BOUNDARY_RTOL`` around rho; strictly below is classical, strictly
    above non-classical. Requires non-classical weights (mu > muc).
    """
    _require_3d(F)
    rho = W.singular_radius
    s = float(F.singular_values[0] + F.singular_values[1])
    if abs(s - rho) <= BOUNDARY_RTOL * rho:
        return Domain.BOUNDARY
    return Domain.CLASSICAL if s < rho else Domain.NON_CLASSICAL


def relative_rotation_3d(
    W: CosseratWeights, F: DeformationGradient
) -> tuple[np.ndarray, ...]:
    """Energy-minimizing relative rotations in block form about e3.

    Beyond the bifurcation (nu_1 + nu_2 > rho) the pair of z-axis block
    rotations by +/- arccos(rho / (nu_1 + nu_2)) is returned; otherwise
    the identity alone. Requires non-classical weights.
    """
    _require_3d(F)
    rho = W.singular_radius
    s = float(F.singular_values[0] + F.singular_values[1])
    if classify_domain(W, F) is Domain.NON_CLASSICAL:
        c = rho / s
        return (_block_z(c, +1.0), _block_z(c, -1.0))
    return (np.eye(3),)


def wred_3d_values(W: CosseratWeights, nus) -> float:
    """Reduced 3D energy as a function of the singular values, in any order."""
    return reduced_energy_values(W, nus)[1]


def wred_3d(W: CosseratWeights, F: DeformationGradient) -> float:
    """Reduced 3D shear-stretch energy min over all rotations."""
    _require_3d(F)
    return wred_3d_values(W, F.singular_values)


def rpolar_3d(W: CosseratWeights, F: DeformationGradient) -> SpatialSolution:
    """The set of globally optimal rotations with branch labels.

    For classical weights or a classical-domain F the set is the polar
    factor alone. On the non-classical domain the two minimizers are
    polar(F) @ Q @ Rz(-/+ beta) @ Q.T, labeled so that the "+" branch has
    relative rotation angle +beta (the transpose inside the relative
    rotation flips the sign, hence the crossed construction).
    """
    _require_3d(F)
    nu = F.singular_values
    pol = F.polar.rotation
    frame = F.polar.spectral.frame
    s = float(nu[0] + nu[1])
    minimizers, angles = (pol.copy(),), (0.0,)
    degenerate = False
    if W.is_classical:
        domain = Domain.CLASSICAL
        u = s / 2.0
        degenerate = bool(nu[0] - nu[2] <= DEGENERACY_RTOL * nu[0])
    else:
        domain = classify_domain(W, F)
        # the rescaled gradient F / lam has singular values nu / lam
        u = s / (2.0 * W.scaling)
        if domain is Domain.NON_CLASSICAL:
            c = W.singular_radius / s
            b = float(np.arccos(c))
            minimizers = (
                pol @ frame @ _block_z(c, -1.0) @ frame.T,
                pol @ frame @ _block_z(c, +1.0) @ frame.T,
            )
            angles = (b, -b)
            degenerate = bool(
                nu[0] - nu[1] <= DEGENERACY_RTOL * nu[0]
                or nu[1] - nu[2] <= DEGENERACY_RTOL * nu[0]
            )
    return SpatialSolution(
        minimizers=minimizers,
        relative_angles=angles,
        axis=frame[:, 2].copy(),
        reduced_energy=wred_3d(W, F),
        domain=domain,
        u_mmp=u,
        s_mmp=u - 1.0,
        degenerate=degenerate,
    )


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
    q = F.polar.spectral.frame
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
