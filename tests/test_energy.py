import warnings

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    Regime,
    absolute_rotation,
    energy,
    matcore,
    reduce_parameters,
    reduced_energy,
    relative_rotation,
    rescale,
    solve,
)
from relaxed_polar.energy import (
    BOUNDARY_RTOL,
    nonclassical_pair_energy,
    reduced_energy_stack,
    reduced_energy_values,
)
from relaxed_polar.errors import DimensionMismatch, RegimeError
from relaxed_polar.oracle import OracleConfig, global_minimize

from conftest import random_gl_plus, random_rotation, sets_equal

W10 = CosseratWeights(1.0, 0.0)
W11 = CosseratWeights(1.0, 1.0)


class TestWeights:
    def test_validation(self):
        with pytest.raises(ValueError):
            CosseratWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            CosseratWeights(-1.0, 0.0)
        with pytest.raises(ValueError):
            CosseratWeights(1.0, -0.1)
        with pytest.raises(ValueError):
            CosseratWeights(np.nan, 0.0)

    def test_regime_boundary_is_classical(self):
        assert CosseratWeights(1.0, 1.0).regime is Regime.CLASSICAL
        assert CosseratWeights(2.0, 5.0).regime is Regime.CLASSICAL
        assert CosseratWeights(1.0, 0.999).regime is Regime.NON_CLASSICAL

    def test_derived_constants(self):
        w = CosseratWeights(1.0, 0.5)
        assert w.singular_radius == pytest.approx(4.0, abs=0)
        assert w.scaling == pytest.approx(2.0, abs=0)
        assert w.zeta == pytest.approx(2.0, abs=0)
        assert w.zeta == pytest.approx(w.singular_radius - 2.0, abs=1e-15)
        assert CosseratWeights(1.0, 0.0).singular_radius == 2.0

    def test_derived_constants_of_huge_weights_stay_finite(self):
        w = CosseratWeights(1.5e308, 1e308)
        assert (w.singular_radius, w.scaling, w.zeta) == (6.0, 3.0, 4.0)
        assert CosseratWeights(1e308, 0.0).singular_radius == 2.0

    def test_classical_has_no_derived_constants(self):
        for attr in ("singular_radius", "scaling", "zeta"):
            with pytest.raises(RegimeError):
                getattr(CosseratWeights(1.0, 1.0), attr)


def reference_decomposition(m):
    """Rotation, values, frame and stretch by the former constructor's formula."""
    left, values, right = matcore.svd_ordered(m)
    rotation = left @ right.T
    stretch = right @ np.diag(values) @ right.T
    stretch = (stretch + stretch.T) / 2.0
    frame = right.copy()
    if np.linalg.det(frame) < 0.0:
        frame[:, -1] = -frame[:, -1]
    return rotation, values, frame, stretch


def gradients_with_repeats(rng, count):
    """Matrices q1 diag(nus) q2^T, n = 1..8, Haar q1, q2, some values repeated."""
    for n in range(1, 9):
        for i in range(count):
            nus = rng.uniform(0.2, 5.0, n)
            if n > 1 and i % 2:
                nus[rng.integers(n - 1) + 1] = nus[0]
            nus = np.sort(nus)[::-1]
            yield random_rotation(n, rng) @ np.diag(nus) @ random_rotation(n, rng).T


def assert_bits(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDeformationGradient:
    def test_rejects_bad_input(self):
        reflection = np.diag([1.0, 1.0, -1.0]) @ random_rotation(3, np.random.default_rng(9))
        bad = [
            [[1.0, 1.0], [1.0, 1.0]],
            [[1.0, 2.0], [2.0, 4.0]],
            np.diag([1.0, 0.0, 1.0]),
            [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]],
            np.zeros((2, 2)),
            np.zeros((3, 3)),
            [[1.0, 0.0], [0.0, -1.0]],  # det < 0
            reflection,
            [[-2.0]],
            [[np.inf, 0.0], [0.0, 1.0]],
            [[np.nan, 0.0], [0.0, 1.0]],
            np.ones((2, 3)),
            np.ones(3),
        ]
        for m in bad:
            with pytest.raises(ValueError):
                DeformationGradient(m)

    def test_one_svd_gives_the_former_decompositions_bitwise(self):
        for m in gradients_with_repeats(np.random.default_rng(16), 25):
            F = DeformationGradient(m)
            rotation, values, frame, stretch = reference_decomposition(m)
            assert_bits(F.polar.rotation, rotation)
            assert_bits(F.singular_values, values)
            assert_bits(F.polar.values, values)
            assert_bits(F.polar.frame, frame)
            assert_bits(F.polar.stretch, stretch)

    @pytest.mark.parametrize("scale", [1e-110, 1e110])
    def test_extreme_scales_construct_without_warnings(self, scale):
        rng = np.random.default_rng(17)
        for n in range(1, 9):
            a = random_gl_plus(n, rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                F = DeformationGradient(scale * a.matrix)
            np.testing.assert_allclose(
                F.singular_values, scale * a.singular_values, rtol=1e-13, atol=0
            )

    def test_stretch_is_read_only_and_computed_once(self):
        F = DeformationGradient([[2.0, 0.3, 0.1], [0.0, 1.5, 0.2], [0.1, 0.0, 0.4]])
        p = F.polar
        assert "stretch" not in vars(p)  # nothing computes it at construction
        s = p.stretch
        assert p.stretch is s
        assert not s.flags.writeable
        with pytest.raises(ValueError):
            s[0, 0] = 0.0

    def test_construction_takes_one_svd_and_one_det_of_orthogonal_factors(self, monkeypatch):
        from relaxed_polar.spatial import rpolar_3d

        svds, dets = [], []
        for name, calls in (("svd", svds), ("det", dets)):
            original = getattr(np.linalg, name)

            def counted(a, *args, _calls=calls, _original=original, **kw):
                _calls.append(a)
                return _original(a, *args, **kw)

            monkeypatch.setattr(np.linalg, name, counted)
        w = CosseratWeights(1.0, 0.5)
        for m in gradients_with_repeats(np.random.default_rng(18), 2):
            svds.clear()
            dets.clear()
            F = DeformationGradient(m)
            assert len(svds) == 1 and len(dets) == 1
            # the det of the stacked factors U and V^T, never of the matrix
            (factors,) = dets
            assert factors.shape == (2, *m.shape)
            eye = np.broadcast_to(np.eye(len(m)), factors.shape)
            np.testing.assert_allclose(factors @ factors.swapaxes(-1, -2), eye, atol=1e-13)
            svds.clear()
            dets.clear()
            rescale(w, F)
            reduce_parameters(w, F)
            solve(w, F)
            if F.dim == 3:
                rpolar_3d(w, F)
            assert svds == [] and dets == []

    def test_rescale_divides_the_cached_values(self):
        rng = np.random.default_rng(19)
        for w in (CosseratWeights(1.0, 0.5), CosseratWeights(3.0, 1.0)):
            for n in range(1, 9):
                F = random_gl_plus(n, rng)
                ft = rescale(w, F)
                assert_bits(ft.singular_values, F.singular_values / w.scaling)
                assert_bits(ft.matrix, F.matrix / w.scaling)
                assert ft.polar.rotation is F.polar.rotation
                assert ft.polar.frame is F.polar.frame
                assert not ft.singular_values.flags.writeable

    def test_rescale_keeps_the_rank_rule(self):
        F = DeformationGradient(np.diag([1e-300, 1e-315]))
        w = CosseratWeights(1.0, 1.0 - 2.0**-52)  # lam = 2^52
        with pytest.raises(ValueError):
            rescale(w, F)  # 1e-315 / lam underflows to 0

    def test_cached_polar_invariants(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            n = int(rng.integers(2, 6))
            F = random_gl_plus(n, rng)
            p = F.polar
            assert np.linalg.norm(p.rotation @ p.stretch - F.matrix) <= 1e-10 * (
                1.0 + np.linalg.norm(F.matrix)
            )
            assert np.linalg.norm(p.stretch - p.stretch.T) <= 1e-12
            assert matcore.is_rotation(p.rotation, tol=1e-11)
            assert np.all(np.linalg.eigvalsh(p.stretch) > 0.0)
            assert np.allclose(p.values, F.singular_values, atol=1e-10)
            recon = p.frame @ np.diag(p.values) @ p.frame.T
            assert np.linalg.norm(recon - p.stretch) <= 1e-10 * (
                1.0 + np.linalg.norm(p.stretch)
            )


class TestEnergy:
    def test_polar_of_spd_gives_stretch_energy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            q = random_rotation(3, rng)
            nus = np.sort(rng.uniform(0.3, 3.0, 3))[::-1]
            u = q @ np.diag(nus) @ q.T
            F = DeformationGradient(u)
            w = CosseratWeights(rng.uniform(0.5, 2.0), rng.uniform(0.0, 3.0))
            expected = w.mu * np.sum((nus - 1.0) ** 2)
            got = energy(w, F.polar.rotation, F)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_identity(self):
        F = DeformationGradient(np.eye(3))
        assert energy(W11, np.eye(3), F) == 0.0

    def test_equal_weights_direct_frobenius(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            F = random_gl_plus(3, rng)
            r = random_rotation(3, rng)
            direct = matcore.frobenius_sq(r.T @ F.matrix - np.eye(3))
            assert energy(W11, r, F) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        F = DeformationGradient(np.eye(3))
        with pytest.raises(DimensionMismatch):
            energy(W10, np.eye(2), F)

    def test_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            F = random_gl_plus(3, rng)
            r = random_rotation(3, rng)
            assert energy(CosseratWeights(1.0, 0.5), r, F) >= 0.0
        # muc > 0: zero iff R^T F = 1
        F = DeformationGradient(np.eye(3))
        assert energy(CosseratWeights(1.0, 0.5), np.eye(3), F) == 0.0
        # muc = 0: zero iff sym(R^T F - 1) = 0; a rotated stretch-1 example
        q = random_rotation(3, np.random.default_rng(14))
        F = DeformationGradient(q)
        assert energy(W10, q, F) == pytest.approx(0.0, abs=1e-28)


class TestRescale:
    def test_muc_zero_returns_same_object(self):
        F = DeformationGradient(np.diag([2.0, 1.0, 0.5]))
        assert rescale(W10, F) is F

    def test_half_weights_arithmetic(self):
        F = DeformationGradient(np.diag([4.0, 2.0, 0.5]))
        ft = rescale(CosseratWeights(1.0, 0.5), F)
        assert np.allclose(ft.matrix, np.diag([2.0, 1.0, 0.25]), atol=1e-15)

    def test_singular_values_scale(self):
        rng = np.random.default_rng(15)
        w = CosseratWeights(3.0, 1.0)
        for _ in range(10):
            F = random_gl_plus(3, rng)
            ft = rescale(w, F)
            assert np.allclose(
                ft.singular_values, F.singular_values / w.scaling, atol=1e-12
            )

    def test_classical_raises(self):
        F = DeformationGradient(np.eye(3))
        with pytest.raises(RegimeError):
            rescale(W11, F)


class TestReduceParameters:
    def test_classical_case(self):
        F = DeformationGradient(np.diag([2.0, 1.0, 0.5]))
        regime, canon, same = reduce_parameters(CosseratWeights(2.0, 5.0), F)
        assert regime is Regime.CLASSICAL
        assert (canon.mu, canon.muc) == (1.0, 1.0)
        assert same is F

    def test_limit_case_is_fixed_point(self):
        F = DeformationGradient(np.diag([2.0, 1.0, 0.5]))
        regime, canon, same = reduce_parameters(W10, F)
        assert regime is Regime.NON_CLASSICAL
        assert (canon.mu, canon.muc) == (1.0, 0.0)
        assert same is F

    def test_argmin_equivalence_via_oracle(self):
        # argmin of W_{3,1}(.; F) equals argmin of W_{1,0}(.; (2/3) F)
        rng = np.random.default_rng(16)
        w = CosseratWeights(3.0, 1.0)
        for i in range(10):
            F = random_gl_plus(3, rng, min_rel_gap=0.02)
            _, canon, ft = reduce_parameters(w, F)
            assert np.allclose(ft.matrix, (2.0 / 3.0) * F.matrix, atol=1e-14)
            cfg = OracleConfig(seed=100 + i, samples=10, tol_grad=1e-10)
            res_a = global_minimize(w, F, cfg, warm_starts=False)
            res_b = global_minimize(canon, ft, cfg, warm_starts=False)
            # the two argmins coincide up to branch choice: compare energies
            # of each best rotation under the other problem
            cross = energy(w, res_b.best_rotation, F)
            assert cross == pytest.approx(res_a.best_energy, abs=1e-7)


class TestRelativeRotation:
    def test_polar_maps_to_identity(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            F = random_gl_plus(3, rng)
            rhat = relative_rotation(F.polar.rotation, F)
            assert np.linalg.norm(rhat - np.eye(3)) <= 1e-12

    def test_reconstruction_round_trip(self):
        rng = np.random.default_rng(18)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            F = random_gl_plus(n, rng)
            r = random_rotation(n, rng)
            rhat = relative_rotation(r, F)
            back = absolute_rotation(rhat, F)
            assert np.linalg.norm(back - r) <= 1e-10

    def test_sym_norm_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            F = random_gl_plus(3, rng)
            r = random_rotation(3, rng)
            rhat = relative_rotation(r, F)
            d = np.diag(F.singular_values)
            lhs = matcore.frobenius_sq(matcore.sym(r.T @ F.matrix - np.eye(3)))
            rhs = matcore.frobenius_sq(matcore.sym(rhat @ d - np.eye(3)))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_full_weighted_energy_carries_over(self):
        # the same change of variables carries the skew part, hence the
        # full weighted energy
        rng = np.random.default_rng(20)
        w = CosseratWeights(1.3, 0.4)
        for _ in range(10):
            F = random_gl_plus(3, rng)
            r = random_rotation(3, rng)
            x = relative_rotation(r, F) @ np.diag(F.singular_values) - np.eye(3)
            reduced = w.mu * matcore.frobenius_sq(
                matcore.sym(x)
            ) + w.muc * matcore.frobenius_sq(matcore.skew(x))
            assert energy(w, r, F) == pytest.approx(reduced, rel=1e-10, abs=1e-12)


class TestReducedEnergy:
    def test_identity_any_weights(self):
        F = DeformationGradient(np.eye(3))
        for w in (W10, W11, CosseratWeights(1.0, 0.25), CosseratWeights(2.0, 3.0)):
            assert reduced_energy(w, F) == pytest.approx(0.0, abs=1e-15)

    def test_limit_case_example(self):
        F = DeformationGradient(np.diag([4.0, 2.0, 0.5]))
        assert reduced_energy(W10, F) == pytest.approx(2.25, abs=1e-14)

    def test_matches_oracle_mixed_weights(self):
        rng = np.random.default_rng(21)
        weights = [W10, CosseratWeights(1.0, 0.25), CosseratWeights(2.0, 3.0)]
        for i in range(50):
            F = random_gl_plus(3, rng)
            w = weights[i % len(weights)]
            wred = reduced_energy(w, F)
            cfg = OracleConfig(seed=200 + i, samples=12, tol_grad=1e-10)
            res = global_minimize(w, F, cfg, warm_starts=False)
            assert res.best_energy == pytest.approx(wred, abs=1e-6)

    def test_reduction_consistency(self):
        # evaluating the full weighted energy at the reconstructed (1, 0)
        # minimizer of the rescaled problem reproduces the closed form
        rng = np.random.default_rng(22)
        from relaxed_polar.spatial import rpolar_3d

        for _ in range(25):
            F = random_gl_plus(3, rng, min_rel_gap=0.02)
            w = CosseratWeights(1.0, float(rng.uniform(0.05, 0.9)))
            _, canon, ft = reduce_parameters(w, F)
            sol_t = rpolar_3d(canon, ft)
            for m in sol_t.minimizers:
                assert energy(w, m, F) == pytest.approx(
                    reduced_energy(w, F), rel=1e-10, abs=1e-10
                )


def _reference_reduced_energy(W, nus):
    """Reference for the pairing rule, written with numpy sums.

    mu ||U - 1||^2 for classical weights; otherwise consecutive descending
    pairs while their sum exceeds rho, plus mu (nu - 1)^2 for the rest.
    """
    nus = np.sort(np.asarray(nus, dtype=float))[::-1]
    if W.is_classical:
        return 0, W.mu * float(np.sum((nus - 1.0) ** 2))
    rho = W.singular_radius
    n = len(nus)
    total = 0.0
    i = 0
    while i + 1 < n and nus[i] + nus[i + 1] > rho:
        total += nonclassical_pair_energy(W, float(nus[i]), float(nus[i + 1]))
        i += 2
    total += W.mu * float(np.sum((nus[i:] - 1.0) ** 2))
    return i // 2, total


class TestReducedEnergyValues:
    WEIGHTS = (W11, CosseratWeights(2.0, 3.0), W10, CosseratWeights(1.7, 0.0),
               CosseratWeights(1.0, 0.25), CosseratWeights(2.5, 1.5))

    @staticmethod
    def _spectra(W, n, rng):
        """Random spectra plus pair sums placed in and around the boundary band."""
        rho = 2.0 if W.is_classical else W.singular_radius
        for _ in range(20):
            yield rng.uniform(0.05, 1.5 * rho, size=n)
        for rel in (0.0, 1e-13, -1e-13, 1e-12, -1e-12, 3e-12, -3e-12, 1e-6, -1e-6):
            band = rho * (1.0 + rel)
            if n >= 2:  # first pair sum on the band, the rest well below it
                nus = rng.uniform(0.05, 0.3 * rho, size=n)
                nus[:2] = 0.6 * band, 0.4 * band
                yield nus
            if n >= 4:  # first pair well past the band, second pair on it
                nus = rng.uniform(0.05, 0.3 * rho, size=n)
                nus[:4] = 0.9 * rho, 0.8 * rho, 0.6 * band, 0.4 * band
                yield nus

    def test_matches_reference_loop(self):
        rng = np.random.default_rng(31)
        for n in range(1, 9):
            for w in self.WEIGHTS:
                for nus in self._spectra(w, n, rng):
                    k_ref, ref = _reference_reduced_energy(w, nus)
                    k, value = reduced_energy_values(w, nus)
                    assert k == k_ref
                    assert abs(value - ref) <= 2e-15 * (1.0 + abs(ref))

    def test_independent_of_input_order(self):
        rng = np.random.default_rng(32)
        for n in range(1, 9):
            for w in self.WEIGHTS:
                for nus in self._spectra(w, n, rng):
                    expected = reduced_energy_values(w, np.sort(nus)[::-1])
                    for _ in range(3):
                        assert reduced_energy_values(w, list(rng.permutation(nus))) == expected

    def test_reduced_energy_is_the_rule_on_singular_values(self):
        rng = np.random.default_rng(33)
        for n in range(1, 7):
            F = random_gl_plus(n, rng)
            for w in self.WEIGHTS:
                assert reduced_energy(w, F) == reduced_energy_values(w, F.singular_values)[1]

    def test_huge_equal_pairs_stay_finite_at_muc_zero(self):
        # (nu_i + nu_j)^2 overflows here, and muc = 0 must not turn it into nan
        assert reduced_energy_values(W10, [1e155] * 4) == (2, 0.0)


class TestReducedEnergyStack:
    """The stacked pairing rule against the scalar one, bit for bit."""

    WEIGHTS = TestReducedEnergyValues.WEIGHTS

    @staticmethod
    def _stack(W, n, rng):
        """Random rows, rows with pair sums exactly at rho, rows in the boundary band."""
        rho = 2.0 if W.is_classical else W.singular_radius
        rows = list(rng.uniform(0.05, 1.5 * rho, size=(600, n)))
        for p in range(0, n - 1, 2):  # pair p summing to rho exactly, earlier pairs past it
            for _ in range(6):
                a = rng.uniform(0.5 * rho, 0.9 * rho)
                if a + (rho - a) != rho:
                    continue
                nus = rng.uniform(0.01, 0.05 * rho, size=n)
                nus[:p] = rng.uniform(rho, 1.4 * rho, size=p)
                nus[p : p + 2] = a, rho - a
                rows.append(nus)
            for rel in (-3.0, -1.0, -0.5, 0.5, 1.0, 3.0):  # and within a few BOUNDARY_RTOL
                nus = rng.uniform(0.01, 0.05 * rho, size=n)
                nus[:p] = rng.uniform(rho, 1.4 * rho, size=p)
                band = rho * (1.0 + rel * BOUNDARY_RTOL)
                nus[p : p + 2] = 0.55 * band, 0.45 * band
                rows.append(nus)
        return np.array(rows).reshape(-1, n)

    def test_rows_equal_the_scalar_rule_bitwise(self):
        rng = np.random.default_rng(41)
        at_rho = 0
        for n in range(1, 9):
            for w in self.WEIGHTS:
                stack = self._stack(w, n, rng)
                rng.shuffle(stack)
                k, values = reduced_energy_stack(w, stack)
                assert k.shape == values.shape == (len(stack),)
                for row, k_row, v_row in zip(stack, k.tolist(), values.tolist()):
                    assert (k_row, v_row) == reduced_energy_values(w, row)
                if not w.is_classical and n >= 2:
                    at_rho += int(np.sum(stack[:, 0] + stack[:, 1] == w.singular_radius))
        assert at_rho > 0

    def test_classical_weights_pair_nothing(self):
        rng = np.random.default_rng(42)
        for w in (W11, CosseratWeights(2.0, 3.0)):
            k, _ = reduced_energy_stack(w, rng.uniform(0.05, 5.0, size=(50, 6)))
            assert not k.any()

    def test_shapes(self):
        rng = np.random.default_rng(43)
        w = CosseratWeights(1.7, 0.3)
        nus = rng.uniform(0.05, 4.0, size=(4, 5, 3))
        k, values = reduced_energy_stack(w, nus)
        assert k.shape == values.shape == (4, 5)
        for idx in np.ndindex(4, 5):
            assert (k[idx], values[idx]) == reduced_energy_values(w, nus[idx])
            k1, v1 = reduced_energy_stack(w, nus[idx])
            assert np.shape(k1) == np.shape(v1) == ()
            assert (int(k1), float(v1)) == reduced_energy_values(w, nus[idx])
        flat_k, flat_values = reduced_energy_stack(w, nus.reshape(-1, 3))
        np.testing.assert_array_equal(flat_k, k.ravel())
        np.testing.assert_array_equal(flat_values, values.ravel())
        for n in (1, 2, 5):
            k, values = reduced_energy_stack(w, np.zeros((0, n)))
            assert k.shape == values.shape == (0,)


class TestMinimizerSetSymmetries:
    @staticmethod
    def _minimizers(w, F):
        if F.dim == 2:
            from relaxed_polar.planar import optimal_angles, rotation_2d

            return [rotation_2d(a) for a in optimal_angles(w, F).branch_angles]
        from relaxed_polar.spatial import rpolar_3d

        return list(rpolar_3d(w, F).minimizers)

    def test_objectivity(self):
        rng = np.random.default_rng(23)
        for n in (2, 3):
            for _ in range(25):
                F = random_gl_plus(n, rng, min_rel_gap=0.02)
                q = random_rotation(n, rng)
                w = CosseratWeights(1.0, float(rng.choice([0.0, 0.25])))
                left = [q @ m for m in self._minimizers(w, F)]
                right = self._minimizers(w, DeformationGradient(q @ F.matrix))
                assert sets_equal(left, right, tol=1e-8)

    def test_isotropy(self):
        rng = np.random.default_rng(24)
        for n in (2, 3):
            for _ in range(25):
                F = random_gl_plus(n, rng, min_rel_gap=0.02)
                q = random_rotation(n, rng)
                w = CosseratWeights(1.0, float(rng.choice([0.0, 0.25])))
                left = [m @ q for m in self._minimizers(w, F)]
                right = self._minimizers(w, DeformationGradient(F.matrix @ q))
                assert sets_equal(left, right, tol=1e-8)
