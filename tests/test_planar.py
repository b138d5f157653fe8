import math

import numpy as np
import pytest

from relaxed_polar import CosseratWeights, DeformationGradient, energy, solve
from relaxed_polar.errors import DimensionMismatch
from relaxed_polar.planar import (
    optimal_angles,
    polar_angle,
    simple_shear,
    wrap_angle,
)

from conftest import (
    angle_sets_match,
    planar_grid_minimize,
    random_gl_plus,
    random_rotation,
    rotation_2d,
)

W10 = CosseratWeights(1.0, 0.0)
W11 = CosseratWeights(1.0, 1.0)


def relative_angles_10(d):
    """Relative angles of the (1, 0) minimizers of the diagonal gradient diag(d)."""
    return optimal_angles(W10, DeformationGradient(np.diag(d))).relative_angles


class TestPolarAngle:
    def test_identity(self):
        assert polar_angle(DeformationGradient(np.eye(2))) == 0.0

    def test_round_trip(self):
        F = DeformationGradient(rotation_2d(0.7) @ np.diag([2.0, 1.0]))
        assert polar_angle(F) == pytest.approx(0.7, abs=1e-12)

    def test_simple_shear_two(self):
        # tr F = 2, tr JF = 2, tr U = sqrt(8)
        F = simple_shear(2.0)
        assert polar_angle(F) == pytest.approx(-np.pi / 4.0, abs=1e-14)

    def test_compressive_convention_returns_pi(self):
        # tr JF = 0 and tr F < 0: the polar factor is the half-turn
        F = DeformationGradient(np.diag([-1.0, -2.0]))
        assert polar_angle(F) == np.pi

    def test_matches_explicit_polar(self):
        rng = np.random.default_rng(50)
        for _ in range(50):
            F = random_gl_plus(2, rng)
            assert (
                np.linalg.norm(rotation_2d(polar_angle(F)) - F.polar.rotation) <= 1e-12
            )

    def test_huge_gradient_reads_the_polar_factor(self):
        # tr F overflows here; the polar factor's entries cannot
        F = DeformationGradient(1e308 * (rotation_2d(0.3) @ np.diag([1.2, 0.9])))
        assert polar_angle(F) == pytest.approx(0.3, abs=1e-15)
        sol = optimal_angles(W10, F)  # tr U >> rho: the branches sit at pi/2 either side
        assert sol.branch_angles == pytest.approx((0.3 - np.pi / 2, 0.3 + np.pi / 2), abs=1e-15)

    def test_dim_guard(self):
        with pytest.raises(DimensionMismatch):
            polar_angle(DeformationGradient(np.eye(3)))


def reference_wrap_angle(a):
    """wrap_angle as written on np.remainder before it took Python's %."""
    w = float(np.remainder(a + np.pi, 2.0 * np.pi) - np.pi)
    return np.pi if w == -np.pi else w


def test_wrap_angle_matches_np_remainder_bitwise():
    pi, tiny = math.pi, 5e-324
    edges = [0.0, -0.0, tiny, -tiny, pi, -pi, 2 * pi, -2 * pi, 3 * pi, -3 * pi, 1e300, -1e300,
             math.nextafter(pi, 0.0), math.nextafter(-pi, 0.0), math.nextafter(pi, 4.0),
             math.nextafter(-pi, -4.0), 1e16, -1e16, 2.5, -2.5]
    rng = np.random.default_rng(2402)
    wide = rng.standard_normal(50_000) * 10.0 ** rng.integers(-300, 301, 50_000)
    angles = edges + rng.uniform(-8.0, 8.0, 50_000).tolist() + wide.tolist()
    got = [wrap_angle(a) for a in angles]
    assert all(type(w) is float and -pi < w <= pi for w in got)
    assert np.array(got).tobytes() == np.array([reference_wrap_angle(a) for a in angles]).tobytes()


class TestRelativeAngles:
    def test_below_threshold(self):
        assert relative_angles_10([1.0, 0.5]) == (0.0,)

    def test_symmetric_pair(self):
        got = relative_angles_10([2.0, 2.0])
        assert got == pytest.approx((np.pi / 3.0, -np.pi / 3.0), abs=1e-14)

    def test_boundary_pinned_to_zero(self):
        assert relative_angles_10([1.5, 0.5]) == (0.0,)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):  # det < 0
            relative_angles_10([1.0, -0.5])


class TestOptimalAngles:
    def test_classical_weights_single_polar_angle(self):
        rng = np.random.default_rng(51)
        for _ in range(10):
            F = random_gl_plus(2, rng)
            sol = optimal_angles(W11, F)
            assert sol.branch_angles == (sol.polar_angle,)
            assert not sol.bifurcated
            nus = F.singular_values
            assert sol.reduced_energy == pytest.approx(
                np.sum((nus - 1.0) ** 2), rel=1e-12
            )

    def test_limit_case_branches(self):
        F = DeformationGradient(np.diag([3.0, 1.0]))
        sol = optimal_angles(W10, F)
        assert sol.bifurcated
        assert sol.relative_angles == pytest.approx(
            (np.pi / 3.0, -np.pi / 3.0), abs=1e-14
        )
        assert sol.reduced_energy == pytest.approx(2.0, abs=1e-14)

    def test_boundary_single_angle(self):
        # rho = 4 at weights (1, 1/2) and tr U = 4: branches coincide
        F = DeformationGradient(np.diag([3.0, 1.0]))
        sol = optimal_angles(CosseratWeights(1.0, 0.5), F)
        assert not sol.bifurcated
        assert sol.branch_angles == (sol.polar_angle,)

    def test_energy_at_each_branch_equals_reduced(self):
        rng = np.random.default_rng(52)
        for _ in range(50):
            F = random_gl_plus(2, rng)
            w = CosseratWeights(1.0, float(rng.choice([0.0, 0.25, 0.5])))
            sol = optimal_angles(w, F)
            for a in sol.branch_angles:
                e = energy(w, rotation_2d(a), F)
                assert abs(e - sol.reduced_energy) <= 1e-12 * (1.0 + e)

    def test_branch_energies_agree(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            F = random_gl_plus(2, rng, lo=1.0, hi=5.0)
            sol = optimal_angles(W10, F)
            if not sol.bifurcated:
                continue
            e_plus = energy(W10, rotation_2d(sol.branch_angles[0]), F)
            e_minus = energy(W10, rotation_2d(sol.branch_angles[1]), F)
            assert abs(e_plus - e_minus) <= 1e-12 * (1.0 + e_plus)

    def test_branch_i_is_minimizer_i_of_solve(self):
        rng = np.random.default_rng(57)
        cases = [(DeformationGradient([[3.0, 0.2], [0.1, 0.5]]), W10)]
        for _ in range(300):
            muc = float(rng.choice([0.0, 0.25, 0.5, 1.0, 2.0]))
            cases.append((random_gl_plus(2, rng, lo=0.1, hi=4.0), CosseratWeights(1.0, muc)))
        for F, w in cases:
            sol, mset = optimal_angles(w, F), solve(w, F)
            assert sol.relative_angles == mset.relative_angles
            assert len(sol.branch_angles) == len(mset.minimizers) == 1 + sol.bifurcated
            # the two paths round differently: up to 7 ulp over 20,000 random inputs
            for a, r in zip(sol.branch_angles, mset.minimizers):
                np.testing.assert_allclose(rotation_2d(a), r, rtol=0, atol=4e-15)


class TestWred2D:
    def test_compressive_example(self):
        F = DeformationGradient(np.diag([0.5, 0.4]))
        assert optimal_angles(W10, F).reduced_energy == pytest.approx(0.61, abs=1e-14)

    def test_expansive_example_two_forms(self):
        F = DeformationGradient(np.diag([3.0, 1.0]))
        assert optimal_angles(W10, F).reduced_energy == pytest.approx(2.0, abs=1e-14)
        m = F.matrix
        alt = 0.5 * np.sum(m * m) - np.linalg.det(m)
        assert optimal_angles(W10, F).reduced_energy == pytest.approx(alt, abs=1e-14)

    def test_piecewise_forms_agree_at_threshold(self):
        # tr U = 2 exactly: ||U - 1||^2 == tr(U)^2 / 2 - 2 det U
        for nu1 in (1.9, 1.5, 1.2):
            nu2 = 2.0 - nu1
            classical = (nu1 - 1.0) ** 2 + (nu2 - 1.0) ** 2
            expansive = 0.5 * (nu1 - nu2) ** 2
            assert classical == pytest.approx(expansive, abs=1e-12)

    def test_grid_oracle_agreement(self):
        rng = np.random.default_rng(54)
        for i in range(50):
            F = random_gl_plus(2, rng)
            w = CosseratWeights(1.0, float(rng.choice([0.0, 0.25])))
            best, _ = planar_grid_minimize(w.mu, w.muc, F, n_grid=1000)
            assert optimal_angles(w, F).reduced_energy == pytest.approx(best, abs=1e-6)


class TestSimpleShear:
    def test_zero_is_identity(self):
        assert np.array_equal(simple_shear(0.0).matrix, np.eye(2))

    def test_trace_of_stretch(self):
        F = simple_shear(2.0)
        assert float(F.singular_values.sum()) == pytest.approx(np.sqrt(8.0), abs=1e-12)
        assert np.linalg.det(F.matrix) == pytest.approx(1.0, abs=1e-15)

    def test_nonzero_shear_always_bifurcates(self):
        for gamma in (0.1, -0.5, 2.0, 10.0):
            sol = optimal_angles(W10, simple_shear(gamma))
            assert sol.bifurcated
            for a in sol.branch_angles:
                assert abs(a - sol.polar_angle) > 1e-8

    def test_first_deformation_tensor_not_symmetric(self):
        for gamma in (0.25, 1.0, 3.0):
            F = simple_shear(gamma)
            sol = optimal_angles(W10, F)
            for a in sol.branch_angles:
                ubar = rotation_2d(a).T @ F.matrix
                assert np.linalg.norm((ubar - ubar.T) / 2.0) > 1e-8


class TestPitchfork:
    def test_branch_curve_monotone_and_bounded(self):
        tr_us = np.linspace(0.5, 40.0, 400)
        betas = []
        for t in tr_us:
            angles = relative_angles_10([t / 2.0, t / 2.0])
            betas.append(max(angles))
        betas = np.array(betas)
        assert np.all(betas[tr_us <= 2.0] == 0.0)
        assert np.all(np.diff(betas) >= 0.0)
        assert np.all(betas < np.pi / 2.0)

    def test_identity_is_branch_point(self):
        F = DeformationGradient(np.eye(2))
        assert float(F.singular_values.sum()) == pytest.approx(
            W10.singular_radius, abs=0
        )

    def test_trace_identity(self):
        rng = np.random.default_rng(55)
        for _ in range(50):
            F = random_gl_plus(2, rng)
            m = F.matrix
            tr_f = m[0, 0] + m[1, 1]
            tr_jf = m[0, 1] - m[1, 0]
            lhs = tr_f**2 + tr_jf**2
            mid = np.sum(m * m) + 2.0 * np.linalg.det(m)
            rhs = float(F.singular_values.sum()) ** 2
            assert lhs == pytest.approx(mid, rel=1e-10)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_grid_oracle_finds_same_angles():
    rng = np.random.default_rng(56)
    for _ in range(20):
        F = random_gl_plus(2, rng, lo=0.5, hi=4.0)
        w = CosseratWeights(1.0, float(rng.choice([0.0, 0.5])))
        sol = optimal_angles(w, F)
        _, angles = planar_grid_minimize(w.mu, w.muc, F, n_grid=20_000)
        assert angle_sets_match(sol.branch_angles, angles, tol=1e-6)
