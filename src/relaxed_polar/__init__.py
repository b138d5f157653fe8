"""Energy-minimizing rotations for the weighted Cosserat shear-stretch energy.

Closed-form relaxed polar factors in every dimension from one
``solve(W, F)`` (or ``solve_values(W, nus)`` from singular values alone),
the reduced energies in terms of singular values, and an independent
stochastic Riemannian-descent oracle that verifies every closed form.
"""

from .energy import (
    CosseratWeights,
    DeformationGradient,
    Domain,
    MinimizerSet,
    PolarData,
    Regime,
    absolute_rotation,
    dist_sq_so_n,
    energy,
    reduce_parameters,
    reduced_energy,
    relative_rotation,
    rescale,
    solve,
    solve_values,
)
from .errors import (
    DegenerateSpectrum,
    DimensionMismatch,
    InadmissiblePartition,
    MatrixParseError,
    NotSkew,
    OrientationError,
    RegimeError,
    TooLarge,
)
from .matcore import skew_exp
from .ndim import (
    CriticalPartition,
    GlobalMinimizers,
    critical_value,
    enumerate_critical_partitions,
    global_minimizers_nd,
    realize_rotation,
    traversal_path,
)
from .oracle import (
    OracleConfig,
    OracleResult,
    critical_scan,
    global_minimize,
    haar_sample,
    riemannian_descent,
)
from .planar import PlanarSolution, optimal_angles, polar_2d_explicit, polar_angle, simple_shear
from .spatial import (
    classical_neighborhood_check,
    plane_of_max_stretch,
    rpolar_3d,
    sl3_criterion,
    wred_3d,
)

__version__ = "0.1.0"

__all__ = [
    "CosseratWeights",
    "CriticalPartition",
    "DeformationGradient",
    "DegenerateSpectrum",
    "DimensionMismatch",
    "Domain",
    "GlobalMinimizers",
    "InadmissiblePartition",
    "MatrixParseError",
    "MinimizerSet",
    "NotSkew",
    "OracleConfig",
    "OracleResult",
    "OrientationError",
    "PlanarSolution",
    "PolarData",
    "Regime",
    "RegimeError",
    "TooLarge",
    "absolute_rotation",
    "classical_neighborhood_check",
    "critical_scan",
    "critical_value",
    "dist_sq_so_n",
    "energy",
    "enumerate_critical_partitions",
    "global_minimize",
    "global_minimizers_nd",
    "haar_sample",
    "optimal_angles",
    "plane_of_max_stretch",
    "polar_2d_explicit",
    "polar_angle",
    "realize_rotation",
    "reduce_parameters",
    "reduced_energy",
    "relative_rotation",
    "rescale",
    "riemannian_descent",
    "rpolar_3d",
    "simple_shear",
    "skew_exp",
    "sl3_criterion",
    "solve",
    "solve_values",
    "traversal_path",
    "wred_3d",
]
