"""The public names of relaxed_polar, the library names the benchmark uses, and
the modules that an import and each rpolar command load."""

import importlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import relaxed_polar

PUBLIC = {
    "CosseratWeights", "CriticalPartition", "DeformationGradient", "DegenerateSpectrum",
    "DimensionMismatch", "Domain", "GlobalMinimizers", "InadmissiblePartition",
    "MatrixParseError", "MinimizerSet", "NotSkew", "OracleConfig", "OracleResult",
    "OrientationError", "PlanarSolution", "PolarData", "Regime", "RegimeError",
    "TooLarge", "absolute_rotation",
    "classical_neighborhood_check", "critical_scan", "critical_value",
    "dist_sq_so_n", "energy", "enumerate_critical_partitions",
    "global_minimize", "global_minimizers_nd", "haar_sample", "optimal_angles",
    "plane_of_max_stretch", "polar_2d_explicit", "polar_angle", "realize_rotation",
    "reduce_parameters", "reduced_energy", "relative_rotation", "rescale",
    "riemannian_descent", "rpolar_3d", "simple_shear", "skew_exp", "sl3_criterion",
    "solve", "solve_values", "traversal_path", "wred_3d",
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


def test_lazy_names_are_their_modules_own_objects():
    rp = relaxed_polar
    assert rp.global_minimize is importlib.import_module("relaxed_polar.oracle").global_minimize
    for name in rp.__all__:
        obj = getattr(rp, name)
        assert obj is getattr(sys.modules[obj.__module__], name), name
        assert vars(rp)[name] is obj, name  # bound: the next lookup skips __getattr__


def test_star_import_and_dir_give_every_public_name():
    namespace = {}
    exec("from relaxed_polar import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC
    assert PUBLIC <= set(dir(relaxed_polar))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(relaxed_polar, "no_such_name")
    assert not hasattr(relaxed_polar, "cli_main")


def _fresh(code: str, *args: str) -> str:
    """Standard output of ``python -c code args`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_lazy_modules_resolve_after_a_bare_import():
    code = ("import sys, relaxed_polar as rp; print(all(getattr(rp, m) is sys.modules["
            "'relaxed_polar.' + m] for m in ('ndim', 'oracle', 'planar', 'spatial')))")
    assert _fresh(code).strip() == "True"


# import the package, or run rpolar ARGS as ``python -m relaxed_polar.cli``
# would; then print the package's modules loaded
LOADED = """
import json, runpy, sys
if sys.argv[1:]:
    sys.argv = ["rpolar", *sys.argv[1:]]
    try:
        runpy.run_module("relaxed_polar.cli", run_name="__main__")
    except SystemExit as exc:
        assert exc.code == 0, exc.code
else:
    import relaxed_polar
print(json.dumps(sorted(m for m in sys.modules if m.startswith("relaxed_polar."))))
"""

M3 = "[[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.1, 0.0, 0.4]]"
M4 = "[[2.0, 0.0, 0.0, 0.0], [0.0, 1.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 0.5]]"


@pytest.mark.parametrize(
    "argv, lazy",
    [
        ([], set()),
        (["iso-grid", "--grid", "0.5", "2.0", "4", "--out", "{out}/iso.csv"], set()),
        (["sweep-planar", "--range", "1", "4", "5", "--out", "{out}/sweep.csv"], set()),
        (["ndim", "3", "2", "1", "0.5", "--census"], {"ndim"}),
        (["solve", "--matrix", M4], set()),
        (["solve", "--matrix", M3], {"spatial"}),
        (["solve", "--shear", "2.0"], {"planar"}),
        (["solve", "--matrix", M3, "--verify", "--samples", "3"], {"oracle", "spatial"}),
    ],
    ids=["import", "iso-grid", "sweep-planar", "census", "solve-4d", "solve-3d", "solve-2d",
         "verify"],
)
def test_import_and_each_command_load_only_the_modules_they_call(argv, lazy, tmp_path):
    out = _fresh(LOADED, *(a.format(out=tmp_path) for a in argv))
    loaded = {m.removeprefix("relaxed_polar.") for m in json.loads(out.splitlines()[-1])}
    assert loaded == {"energy", "errors", "matcore"} | lazy
