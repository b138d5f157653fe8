import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    Domain,
    energy,
    matcore,
    relative_rotation,
    solve,
)
from relaxed_polar.errors import DegenerateSpectrum, DimensionMismatch, RegimeError
from relaxed_polar.oracle import OracleConfig, global_minimize
from relaxed_polar.spatial import (
    classical_neighborhood_check,
    mean_planar_stretch,
    plane_of_max_stretch,
    rpolar_3d,
    sl3_criterion,
    wred_3d,
    wred_3d_values,
)

from conftest import random_gl_plus, random_rotation, sets_equal, z_angle

W10 = CosseratWeights(1.0, 0.0)
W11 = CosseratWeights(1.0, 1.0)
W_QUARTER = CosseratWeights(1.0, 0.25)
W_HALF = CosseratWeights(1.0, 0.5)


def gradient_from_values(nus, rng=None, conjugate=False):
    if not conjugate:
        return DeformationGradient(np.diag(nus))
    q1, q2 = random_rotation(3, rng), random_rotation(3, rng)
    return DeformationGradient(q1 @ np.diag(nus) @ q2.T)


def relative_rotations(W, F):
    return [relative_rotation(m, F) for m in solve(W, F).minimizers]


class TestRelativeRotation3D:
    def test_limit_case_block_form(self):
        F = gradient_from_values([4.0, 2.0, 0.5])
        pair = relative_rotations(W10, F)
        assert len(pair) == 2
        c = 1.0 / 3.0
        s = np.sqrt(1.0 - c * c)
        expected_plus = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(pair[0], expected_plus, atol=1e-14)
        assert np.allclose(pair[1], expected_plus.T, atol=1e-14)
        assert z_angle(pair[0]) == pytest.approx(1.2309594173407747, abs=1e-12)

    def test_compressive_spectrum_gives_identity(self):
        F = gradient_from_values([0.9, 0.8, 0.1])
        (only,) = relative_rotations(W10, F)
        assert np.array_equal(only, np.eye(3))

    def test_half_weights_still_bifurcate_for_large_stretch(self):
        # nu_1 + nu_2 = 6 exceeds rho = 4, so the response is non-classical
        # with cos(beta) = 4/6; confirmed against the descent oracle below
        F = gradient_from_values([4.0, 2.0, 0.5])
        pair = relative_rotations(W_HALF, F)
        assert len(pair) == 2
        assert pair[0][0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        res = global_minimize(
            W_HALF, F, OracleConfig(seed=60, samples=12, tol_grad=1e-10), warm_starts=False
        )
        assert res.best_energy == pytest.approx(9.25, abs=1e-7)
        assert res.best_energy < energy(W_HALF, F.polar.rotation, F) - 0.9

    def test_classical_weights_give_the_identity(self):
        F = gradient_from_values([4.0, 2.0, 0.5])
        (only,) = relative_rotations(W11, F)
        assert np.array_equal(only, np.eye(3))


class TestClassifyDomain:
    def test_identity_is_boundary_at_limit_weights(self):
        assert solve(W10, DeformationGradient(np.eye(3))).domain is Domain.BOUNDARY

    def test_unit_determinant_is_non_classical(self):
        rng = np.random.default_rng(61)
        for _ in range(25):
            g = rng.standard_normal((3, 3))
            f = g / np.cbrt(np.linalg.det(g))
            F = DeformationGradient(f)
            if abs(F.singular_values[0] + F.singular_values[1] - 2.0) < 1e-9:
                continue
            assert solve(W10, F).domain is Domain.NON_CLASSICAL

    def test_small_stretches_classical(self):
        F = gradient_from_values([0.5, 0.4, 0.3])
        assert solve(W10, F).domain is Domain.CLASSICAL


class TestRpolar3D:
    def test_classical_domain_returns_polar(self):
        rng = np.random.default_rng(62)
        q = random_rotation(3, rng)
        u = q @ np.diag([0.9, 0.8, 0.7]) @ q.T
        sol = rpolar_3d(W10, DeformationGradient(u))
        assert len(sol.minimizers) == 1
        assert np.linalg.norm(sol.minimizers[0] - np.eye(3)) <= 1e-12
        assert sol.relative_angles == (0.0,)

    def test_diagonal_example_branches(self):
        F = gradient_from_values([4.0, 2.0, 0.5])
        sol = rpolar_3d(W10, F)
        assert sol.domain is Domain.NON_CLASSICAL
        beta = np.arccos(1.0 / 3.0)
        assert sol.relative_angles == pytest.approx((beta, -beta), abs=1e-14)
        assert np.allclose(F.polar.frame[:, 2], [0.0, 0.0, 1.0], atol=1e-14)
        # the "+" branch carries relative angle +beta; as an absolute
        # rotation it is the z-block rotation by -beta (crossed signs)
        c, s = np.cos(beta), np.sin(beta)
        z_minus = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
        assert np.allclose(sol.minimizers[0], z_minus, atol=1e-12)
        assert np.allclose(sol.minimizers[1], z_minus.T, atol=1e-12)
        for m in sol.minimizers:
            assert energy(W10, m, F) == pytest.approx(sol.reduced_energy, abs=1e-10)
        from relaxed_polar import relative_rotation

        assert z_angle(relative_rotation(sol.minimizers[0], F)) == pytest.approx(
            beta, abs=1e-12
        )

    def test_oracle_soundness_across_weights(self):
        rng = np.random.default_rng(63)
        for i in range(50):
            F = random_gl_plus(3, rng)
            w = (W10, W_QUARTER, W_HALF)[i % 3]
            sol = rpolar_3d(w, F)
            cfg = OracleConfig(seed=500 + i, samples=4, tol_grad=1e-9)
            res = global_minimize(w, F, cfg, warm_starts=False)
            assert res.best_energy >= sol.reduced_energy - 1e-6
            for m in sol.minimizers:
                assert matcore.is_rotation(m, tol=1e-10)
                e = energy(w, m, F)
                assert abs(e - sol.reduced_energy) <= 1e-10 * (1.0 + e)

    def test_branch_energy_symmetry(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            F = random_gl_plus(3, rng, lo=1.0, hi=5.0)
            sol = rpolar_3d(W10, F)
            if len(sol.minimizers) != 2:
                continue
            e = [energy(W10, m, F) for m in sol.minimizers]
            assert abs(e[0] - e[1]) <= 1e-12 * (1.0 + e[0])


class TestWred3D:
    def test_expansive_example(self):
        assert wred_3d(W10, gradient_from_values([4.0, 2.0, 0.5])) == pytest.approx(
            2.25, abs=1e-14
        )

    def test_compressive_example(self):
        assert wred_3d(W10, gradient_from_values([0.5, 0.4, 0.3])) == pytest.approx(
            1.10, abs=1e-14
        )

    def test_continuity_across_boundary(self):
        # weights (1, 1/4): rho = 8/3; approach from both sides
        rho = W_QUARTER.singular_radius
        assert rho == pytest.approx(8.0 / 3.0, abs=1e-15)
        d = 0.4
        nu3 = 0.7
        for eps in (1e-7, 1e-9, 1e-11):
            lo = wred_3d_values(W_QUARTER, [(rho - eps + d) / 2, (rho - eps - d) / 2, nu3])
            hi = wred_3d_values(W_QUARTER, [(rho + eps + d) / 2, (rho + eps - d) / 2, nu3])
            assert abs(hi - lo) <= 1e-6 * eps / 1e-7 + 1e-10
        # exact junction: both closed forms evaluate identically
        nus = [(rho + d) / 2.0, (rho - d) / 2.0, nu3]
        classical = W_QUARTER.mu * sum((v - 1.0) ** 2 for v in nus)
        from relaxed_polar.energy import nonclassical_pair_energy

        bifurcated = nonclassical_pair_energy(
            W_QUARTER, nus[0], nus[1]
        ) + W_QUARTER.mu * (nus[2] - 1.0) ** 2
        assert classical == pytest.approx(bifurcated, abs=1e-10)

    def test_penalty_part_vanishes_at_bifurcation(self):
        rho = W_QUARTER.singular_radius
        s = rho
        penalty = 0.5 * W_QUARTER.muc * (s * s - rho * rho)
        assert penalty == 0.0

    def test_matches_oracle_on_random_inputs(self):
        rng = np.random.default_rng(65)
        for i in range(20):
            F = random_gl_plus(3, rng)
            w = (W10, W_QUARTER, W_HALF)[i % 3]
            cfg = OracleConfig(seed=600 + i, samples=10, tol_grad=1e-10)
            res = global_minimize(w, F, cfg, warm_starts=False)
            assert res.best_energy == pytest.approx(wred_3d(w, F), abs=1e-6)


class TestPlaneOfMaxStretch:
    def test_diagonal_case(self):
        q1, q2, q3 = plane_of_max_stretch(gradient_from_values([4.0, 2.0, 0.5]))
        assert np.allclose(np.abs(q1), [1, 0, 0], atol=1e-14)
        assert np.allclose(np.abs(q2), [0, 1, 0], atol=1e-14)
        assert np.allclose(np.abs(q3), [0, 0, 1], atol=1e-14)

    def test_conjugated_recovery(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            q = random_rotation(3, rng)
            u = q @ np.diag([4.0, 2.0, 0.5]) @ q.T
            got = plane_of_max_stretch(DeformationGradient(u))
            for k, v in enumerate(got):
                overlap = abs(float(v @ q[:, k]))
                assert overlap == pytest.approx(1.0, abs=1e-10)

    def test_degenerate_raises(self):
        with pytest.raises(DegenerateSpectrum):
            plane_of_max_stretch(gradient_from_values([4.0, 2.0, 2.0]))

    def test_dim_guard(self):
        with pytest.raises(DimensionMismatch):
            plane_of_max_stretch(DeformationGradient(np.eye(2)))


class TestNeighborhoodCriterion:
    def test_identity_case(self):
        F = DeformationGradient(np.eye(3))
        assert classical_neighborhood_check(W_HALF, F)
        assert solve(W_HALF, F).domain is Domain.CLASSICAL

    def test_small_strain_example(self):
        F = gradient_from_values([1.1, 1.0, 0.9])
        # ||U - 1||^2 = 0.02 < zeta^2 / 2 = 2
        assert classical_neighborhood_check(W_HALF, F)
        assert solve(W_HALF, F).domain is Domain.CLASSICAL

    def test_regime_guards(self):
        F = DeformationGradient(np.eye(3))
        with pytest.raises(RegimeError):
            classical_neighborhood_check(W10, F)
        with pytest.raises(RegimeError):
            classical_neighborhood_check(W11, F)

    def test_inclusion_property(self):
        rng = np.random.default_rng(67)
        hits = 0
        for _ in range(1000):
            nus = np.sort(1.0 + rng.uniform(-0.6, 0.8, 3))[::-1]
            F = gradient_from_values(nus)
            if classical_neighborhood_check(W_HALF, F):
                hits += 1
                assert solve(W_HALF, F).domain is not Domain.NON_CLASSICAL
        assert hits > 100  # the sample actually exercises the inclusion


class TestSL3Criterion:
    def test_identity(self):
        F = DeformationGradient(np.eye(3))
        assert sl3_criterion(F)
        assert float(F.singular_values[0] + F.singular_values[1]) == 2.0

    def test_strict_example(self):
        F = gradient_from_values([2.0, 1.0, 0.5])
        assert sl3_criterion(F)
        assert F.singular_values[0] + F.singular_values[1] > 2.0

    def test_normalized_gaussians_never_violate(self):
        rng = np.random.default_rng(68)
        for _ in range(1000):
            g = rng.standard_normal((3, 3))
            F = DeformationGradient(g / np.cbrt(np.linalg.det(g)))
            assert sl3_criterion(F)
            assert F.singular_values[0] + F.singular_values[1] >= 2.0 - 1e-10

    def test_non_unit_determinant(self):
        assert not sl3_criterion(gradient_from_values([4.0, 2.0, 0.5]))


class TestBifurcationGeometry:
    def test_angle_monotone_in_mean_planar_stretch(self):
        angles = []
        sums = np.linspace(2.0, 60.0, 300)
        for s in sums:
            angles.append(np.arccos(np.minimum(1.0, 2.0 / s)))
        angles = np.array(angles)
        assert np.all(np.diff(angles) >= 0.0)
        assert np.all(angles <= np.pi / 2.0)
        # asymptote
        assert angles[-1] == pytest.approx(np.pi / 2.0, abs=0.07)

    def test_pitchfork_set_cardinality(self):
        for w in (W10, W_QUARTER, W_HALF):
            rho = w.singular_radius
            lam = w.scaling
            for s in (0.8 * rho, rho, 1.2 * rho):
                nus = [s / 2 + 0.1, s / 2 - 0.1, 0.1]
                F = DeformationGradient(np.diag(nus))
                sol = rpolar_3d(w, F)
                u_rescaled = (nus[0] + nus[1]) / (2.0 * lam)
                assert mean_planar_stretch(w, F) == pytest.approx(u_rescaled, rel=1e-12)
                if s > rho * (1.0 + 1e-9):
                    assert len(sol.minimizers) == 2
                else:
                    assert len(sol.minimizers) == 1
        # at the branch point all minimizers coincide with the polar factor

    def test_broken_scaling_invariance_witness(self):
        F_star = gradient_from_values([4.0, 2.0, 0.5])
        lam_star = 0.2
        scaled = DeformationGradient(lam_star * F_star.matrix)
        sol_orig = rpolar_3d(W10, F_star)
        sol_scaled = rpolar_3d(W10, scaled)
        assert len(sol_orig.minimizers) == 2
        assert len(sol_scaled.minimizers) == 1
        assert not sets_equal(sol_orig.minimizers, sol_scaled.minimizers, tol=1e-8)

    def test_broken_inversion_symmetry_witness(self):
        F_star = gradient_from_values([1.5, 1.2, 1.1])
        inv = DeformationGradient(np.linalg.inv(F_star.matrix))
        assert solve(W10, F_star).domain is Domain.NON_CLASSICAL
        assert solve(W10, inv).domain is Domain.CLASSICAL
        sol_fwd = rpolar_3d(W10, F_star)
        sol_inv = rpolar_3d(W10, inv)
        inverted = [m.T for m in sol_fwd.minimizers]
        assert not sets_equal(sol_inv.minimizers, inverted, tol=1e-8)

    def test_objectivity_isotropy_of_sets(self):
        rng = np.random.default_rng(69)
        for i in range(100):
            F = random_gl_plus(3, rng, min_rel_gap=0.02)
            q = random_rotation(3, rng)
            w = (W10, W_QUARTER)[i % 2]
            sol = rpolar_3d(w, F)
            left = [q @ m for m in sol.minimizers]
            right = rpolar_3d(w, DeformationGradient(q @ F.matrix)).minimizers
            assert sets_equal(left, right, tol=1e-8)
            left = [m @ q for m in sol.minimizers]
            right = rpolar_3d(w, DeformationGradient(F.matrix @ q)).minimizers
            assert sets_equal(left, right, tol=1e-8)

    def test_degenerate_flag_for_repeated_values(self):
        sol = rpolar_3d(W10, gradient_from_values([3.0, 3.0, 0.5]))
        assert sol.degenerate
        # the representative pair still realizes the reduced energy
        for m in sol.minimizers:
            e = energy(W10, m, gradient_from_values([3.0, 3.0, 0.5]))
            assert e == pytest.approx(sol.reduced_energy, abs=1e-10)
