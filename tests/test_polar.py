import warnings

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    dist_sq_so_n,
    energy,
    polar_2d_explicit,
    reduced_energy,
)
from relaxed_polar.errors import DimensionMismatch
from relaxed_polar.oracle import OracleConfig, global_minimize

from conftest import random_gl_plus, random_rotation, rotation_2d, stretch


def test_spd_input_has_identity_rotation():
    rng = np.random.default_rng(30)
    q = random_rotation(3, rng)
    u = q @ np.diag([2.0, 1.0, 0.5]) @ q.T
    F = DeformationGradient(u)
    assert np.linalg.norm(F.polar.rotation - np.eye(3)) <= 1e-12
    assert np.linalg.norm(stretch(F) - u) <= 1e-12


def test_rotation_input_is_its_own_polar_factor():
    rng = np.random.default_rng(31)
    for n in (2, 3, 4):
        r = random_rotation(n, rng)
        F = DeformationGradient(r)
        assert np.linalg.norm(F.polar.rotation - r) <= 1e-12
        assert np.linalg.norm(stretch(F) - np.eye(n)) <= 1e-12


def test_simple_shear_polar_angle():
    # gamma = 1: tr F = 2, tr JF = 1, tr U = sqrt(5)
    F = DeformationGradient([[1.0, 1.0], [0.0, 1.0]])
    alpha_p = -np.sign(1.0) * np.arccos(2.0 / np.sqrt(5.0))
    assert np.linalg.norm(F.polar.rotation - rotation_2d(alpha_p)) <= 1e-12


def test_dist_sq_on_rotations_is_zero():
    rng = np.random.default_rng(32)
    for n in (2, 3, 5):
        F = DeformationGradient(random_rotation(n, rng))
        assert dist_sq_so_n(F) <= 1e-24


def test_dist_sq_planar_closed_form():
    rng = np.random.default_rng(33)
    for _ in range(30):
        F = random_gl_plus(2, rng)
        m = F.matrix
        norm_sq = np.sum(m * m)
        det = np.linalg.det(m)
        formula = norm_sq - 2.0 * np.sqrt(norm_sq + 2.0 * det) + 2.0
        assert dist_sq_so_n(F) == pytest.approx(formula, rel=1e-10, abs=1e-12)


def test_dist_sq_equals_equal_weights_energy_at_polar():
    rng = np.random.default_rng(34)
    w11 = CosseratWeights(1.0, 1.0)
    for _ in range(20):
        F = random_gl_plus(3, rng)
        assert dist_sq_so_n(F) == pytest.approx(
            energy(w11, F.polar.rotation, F), rel=1e-12, abs=1e-12
        )


def test_grioli_oracle_never_beats_polar():
    rng = np.random.default_rng(35)
    w11 = CosseratWeights(1.0, 1.0)
    for i in range(20):
        F = random_gl_plus(3, rng)
        cfg = OracleConfig(seed=300 + i, samples=6, tol_grad=1e-9)
        res = global_minimize(w11, F, cfg, warm_starts=False)
        assert res.best_energy == pytest.approx(dist_sq_so_n(F), abs=1e-6)


def test_polar_2d_explicit_examples():
    assert np.array_equal(
        polar_2d_explicit(DeformationGradient(np.eye(2))), np.eye(2)
    )
    assert np.allclose(
        polar_2d_explicit(DeformationGradient(np.diag([2.0, 1.0]))),
        np.eye(2),
        atol=1e-15,
    )
    with pytest.raises(DimensionMismatch):
        polar_2d_explicit(DeformationGradient(np.eye(3)))


def test_polar_2d_explicit_matches_svd_route():
    rng = np.random.default_rng(36)
    for _ in range(50):
        F = random_gl_plus(2, rng)
        u, _, vh = np.linalg.svd(F.matrix)
        assert np.linalg.norm(polar_2d_explicit(F) - u @ vh) <= 1e-12


@pytest.mark.parametrize("scale", [1e308, 1e-300])
def test_polar_2d_explicit_at_extreme_scales(scale):
    rng = np.random.default_rng(37)
    cases = [np.eye(2), rotation_2d(0.3), rotation_2d(2.0) @ np.diag([1.5, 0.25]) @ rotation_2d(-1.0)]
    for m in cases + [random_gl_plus(2, rng).matrix / 5.0 for _ in range(20)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            F = DeformationGradient(scale * m)
            r = polar_2d_explicit(F)
        u, _, vh = np.linalg.svd(m)
        assert np.max(np.abs(r - u @ vh)) <= 1e-15
        # a copy of the cached factor: writing to it leaves F as it was
        r[0, 0] = 2.0
        assert F.polar.rotation[0, 0] != 2.0


# the squared distance of F to SO(n)(1 + so(n)) is the (1, 0) reduced energy
W10 = CosseratWeights(1.0, 0.0)


def test_tangent_bundle_examples():
    assert reduced_energy(W10, DeformationGradient(np.eye(3))) == 0.0
    F = DeformationGradient(np.diag([4.0, 2.0, 0.5]))
    assert reduced_energy(W10, F) == pytest.approx(2.25, abs=1e-14)


def test_tangent_bundle_joint_minimization_oracle():
    # inf over (R, A) of ||R^T F - 1 - A||^2: the inner minimum over skew A
    # is attained at A = skew(R^T F - 1), leaving the (1, 0) energy, which
    # the descent oracle then minimizes over R
    rng = np.random.default_rng(37)
    w10 = CosseratWeights(1.0, 0.0)
    for i, n in enumerate((2, 3, 4, 2, 3, 4)):
        F = random_gl_plus(n, rng)
        cfg = OracleConfig(seed=400 + i, samples=12, tol_grad=1e-10)
        res = global_minimize(w10, F, cfg, warm_starts=False)
        x = res.best_rotation.T @ F.matrix - np.eye(n)
        a_opt = (x - x.T) / 2.0
        joint = np.sum((x - a_opt) ** 2)
        assert joint == pytest.approx(res.best_energy, rel=1e-12, abs=1e-12)
        assert reduced_energy(W10, F) == pytest.approx(joint, abs=1e-5)


class TestPolarProperties:
    def test_objectivity_and_isotropy(self):
        rng = np.random.default_rng(38)
        for _ in range(25):
            n = int(rng.integers(2, 5))
            F = random_gl_plus(n, rng)
            q = random_rotation(n, rng)
            left = DeformationGradient(q @ F.matrix).polar.rotation
            assert np.linalg.norm(left - q @ F.polar.rotation) <= 1e-10
            right = DeformationGradient(F.matrix @ q).polar.rotation
            assert np.linalg.norm(right - F.polar.rotation @ q) <= 1e-10

    def test_scaling_invariance(self):
        rng = np.random.default_rng(39)
        for _ in range(25):
            F = random_gl_plus(3, rng)
            lam = float(rng.uniform(0.1, 10.0))
            scaled = DeformationGradient(lam * F.matrix).polar.rotation
            assert np.linalg.norm(scaled - F.polar.rotation) <= 1e-10

    def test_inversion_symmetry(self):
        rng = np.random.default_rng(40)
        for _ in range(25):
            F = random_gl_plus(3, rng)
            inv = DeformationGradient(np.linalg.inv(F.matrix)).polar.rotation
            assert np.linalg.norm(inv - F.polar.rotation.T) <= 1e-9
