"""The public names of relaxed_polar, and the library names the benchmark uses."""

import importlib

import numpy as np

import relaxed_polar

PUBLIC = {
    "CosseratWeights", "CriticalPartition", "DeformationGradient", "DegenerateSpectrum",
    "DimensionMismatch", "Domain", "GlobalMinimizers", "InadmissiblePartition",
    "MatrixParseError", "MinimizerSet", "NotSkew", "OracleConfig", "OracleResult",
    "OrientationError", "PlanarSolution", "PolarData", "Regime", "RegimeError",
    "TooLarge", "absolute_rotation",
    "classical_neighborhood_check", "critical_scan", "critical_value",
    "dist_sq_so_n", "energy", "enumerate_critical_partitions", "frobenius_sq",
    "global_minimize", "global_minimizers_nd", "haar_sample", "is_rotation", "optimal_angles",
    "plane_of_max_stretch", "polar_2d_explicit", "polar_angle", "realize_rotation",
    "reduce_parameters", "reduced_energy", "relative_rotation", "rescale",
    "riemannian_descent", "rpolar_3d", "simple_shear", "skew", "skew_exp", "sl3_criterion",
    "solve", "solve_values", "svd_ordered", "sym", "traversal_path", "wred_3d",
}

# (module, name) pairs that perfbench calls, or wraps in a timing shim; a
# missing shim target is skipped without a word, so a rename here would
# silently stop timing a layer
BENCHMARK_NAMES = [
    ("relaxed_polar", name)
    for name in (
        "CosseratWeights", "DeformationGradient", "OracleConfig", "absolute_rotation",
        "critical_value", "enumerate_critical_partitions", "global_minimize",
        "global_minimizers_nd", "haar_sample", "optimal_angles", "reduce_parameters",
        "reduced_energy", "riemannian_descent", "rpolar_3d", "skew_exp", "wred_3d",
    )
] + [
    ("relaxed_polar.cli", "DeformationGradient"),
    ("relaxed_polar.cli", "main"),
    ("relaxed_polar.energy", "rescale"),
    ("relaxed_polar.matcore", "svd_ordered"),
    ("relaxed_polar.oracle", "riemannian_descent"),
    ("relaxed_polar.spatial", "wred_3d_values"),
]


def test_all_is_the_pruned_public_set():
    assert len(relaxed_polar.__all__) == len(PUBLIC)
    assert set(relaxed_polar.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in relaxed_polar.__all__:
        assert getattr(relaxed_polar, name) is not None, name


def test_benchmark_names_exist():
    for module, name in BENCHMARK_NAMES:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"


def test_benchmark_reads_these_results():
    # the fields perfbench's workloads and checks read from the views it calls
    rp = relaxed_polar
    W = rp.CosseratWeights(1.0, 0.25)
    sol = rp.optimal_angles(W, rp.DeformationGradient(np.diag([3.0, 1.0])))
    assert len(sol.branch_angles) == 2 and isinstance(sol.reduced_energy, float)
    F = rp.DeformationGradient(np.diag([4.0, 2.0, 0.5]))
    sol = rp.rpolar_3d(W, F)
    assert len(sol.minimizers) == 2 and sol.degenerate is False
    assert all(m.shape == (3, 3) for m in sol.minimizers)
    regime, canon, ft = rp.reduce_parameters(W, F)
    assert regime is rp.Regime.NON_CLASSICAL and canon == rp.CosseratWeights(1.0, 0.0)
    gm = rp.global_minimizers_nd(ft.singular_values, with_rotations=False)
    assert gm.rotations == () and gm.k == 1 and gm.degenerate is False
    assert isinstance(gm.reduced_energy, float)
    rotations = rp.global_minimizers_nd(ft.singular_values).rotations
    assert len(rotations) == 2 and rp.absolute_rotation(rotations[0], F).shape == (3, 3)
