"""Energy-minimizing rotations for the weighted Cosserat shear-stretch energy.

Closed-form relaxed polar factors in every dimension from one
``solve(W, F)`` (or ``solve_values(W, nus)`` from singular values alone),
the reduced energies in terms of singular values, and an independent
stochastic Riemannian-descent oracle that verifies every closed form.

Importing the package loads ``energy``, ``errors`` and ``matcore``; the
names of ``ndim``, ``oracle``, ``planar`` and ``spatial`` load their
module on first use.
"""

import importlib as _importlib
import types as _types

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

_LAZY = {
    "ndim": (
        "CriticalPartition",
        "GlobalMinimizers",
        "critical_value",
        "enumerate_critical_partitions",
        "global_minimizers_nd",
        "realize_rotation",
        "traversal_path",
    ),
    "oracle": (
        "OracleConfig",
        "OracleResult",
        "critical_scan",
        "global_minimize",
        "haar_sample",
        "riemannian_descent",
    ),
    "planar": ("PlanarSolution", "optimal_angles", "polar_2d_explicit", "polar_angle", "simple_shear"),
    "spatial": (
        "classical_neighborhood_check",
        "plane_of_max_stretch",
        "rpolar_3d",
        "sl3_criterion",
        "wred_3d",
    ),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(
    [n for n, v in globals().items() if n[0] != "_" and not isinstance(v, _types.ModuleType)]
    + list(_OWNER)
)


def __getattr__(name: str):
    """Import a lazy module, or the module owning a lazy name, and bind the name here."""
    if name in _LAZY:
        return _importlib.import_module(f"{__name__}.{name}")
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f"{__name__}.{_OWNER[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY, *_OWNER})
