import dataclasses
import decimal
import itertools
import math
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

from conftest import (
    is_rotation,
    random_gl_plus,
    random_rotation,
    rotation_2d,
    sets_equal,
    stretch,
)

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

    def test_finite_check_takes_ints_and_numpy_scalars(self):
        for mu, muc in [(2, 1), (np.float64(2.0), np.int64(1)), (np.float32(1.5), np.float64(0.0))]:
            w = CosseratWeights(mu, muc)
            assert (w.mu, w.muc) == (mu, muc)
        for mu, muc in [(np.float64("inf"), 0.0), (1.0, np.float64("inf")), (np.float64("nan"), 0.0),
                        (1.0, np.nan), (float("inf"), 0.0), (-np.inf, 0.0)]:
            with pytest.raises(ValueError, match="weights must be finite"):
                CosseratWeights(mu, muc)

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

    def test_stored_constants_are_the_formulas_bit_for_bit(self):
        rng = np.random.default_rng(20)
        pairs = [(mu, mu * f) for mu, f in zip(rng.uniform(0.1, 10.0, 50), rng.uniform(0.0, 1.0, 50))]
        pairs += [(2, 1), (np.float64(2.0), np.int64(1)), (np.float32(1.5), np.float64(0.0)),
                  (1.5e308, 1e308), (1, 1 - 2.0**-52)]
        for mu, muc in pairs:
            w = CosseratWeights(mu, muc)
            assert not w.is_classical
            for got, want in [(w.scaling, mu / (mu - muc)), (w.singular_radius, 2.0 * (mu / (mu - muc)))]:
                assert type(got) is type(want) and float(got).hex() == float(want).hex()

    def test_classical_weights_raise_the_same_regime_error(self):
        for mu, muc in [(1.0, 1.0), (2, 2), (np.float64(1.5), np.int64(2)), (1.0, 3.0), (1e308, 1.5e308)]:
            w = CosseratWeights(mu, muc)
            assert w.is_classical
            for attr in ("singular_radius", "scaling", "zeta"):
                with pytest.raises(RegimeError) as e:
                    getattr(w, attr)
                assert str(e.value) == f"quantity undefined for classical weights (mu={mu}, muc={muc})"

    def test_fields_alone_make_equality_hash_repr_and_copies(self):
        import pickle

        w = CosseratWeights(1.7, 0.4)
        assert [f.name for f in dataclasses.fields(w)] == ["mu", "muc"]
        assert dataclasses.asdict(w) == {"mu": 1.7, "muc": 0.4}
        assert w == CosseratWeights(1.7, 0.4) and w != CosseratWeights(1.7, 0.5)
        assert hash(w) == hash(CosseratWeights(1.7, 0.4)) == hash((1.7, 0.4))
        assert repr(w) == "CosseratWeights(mu=1.7, muc=0.4)"
        with pytest.raises(dataclasses.FrozenInstanceError):
            w.mu = 2.0
        moved = dataclasses.replace(w, muc=0.5)
        assert moved == CosseratWeights(1.7, 0.5) and moved.scaling == 1.7 / (1.7 - 0.5)
        classical = dataclasses.replace(w, muc=1.7)
        assert classical.is_classical
        with pytest.raises(RegimeError):
            classical.scaling
        for v in (w, classical, CosseratWeights(2, 1)):
            back = pickle.loads(pickle.dumps(v))
            assert back == v and hash(back) == hash(v) and repr(back) == repr(v)
            assert back.is_classical == v.is_classical
            if not v.is_classical:
                assert (back.scaling, back.singular_radius) == (v.scaling, v.singular_radius)


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


def planar_reference(m):
    """Rotation, values, frame and det of a 2 x 2 m by the planar closed form.

    On the entries scaled exactly by 2^-k, with e, f, g, h = (a + d) / 2,
    (a - d) / 2, (c + b) / 2, (c - b) / 2: nu_1 = hypot(e, h) + hypot(f, g),
    nu_2 = min(|ad - bc| / nu_1, nu_1) (nu_1 if hypot(f, g) = 0), the polar
    factor [[e, -h], [h, e]] / hypot(e, h) and the frame R(theta) with
    theta = (atan2(g, f) - atan2(h, e)) / 2 (0 if hypot(f, g) = 0).
    """
    (a, b), (c, d) = np.asarray(m, dtype=float).tolist()
    k = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b, c, d = (math.ldexp(x, -k) for x in (a, b, c, d))
    e, f, g, h = (a + d) / 2, (a - d) / 2, (c + b) / 2, (c - b) / 2
    conformal, anticonformal = math.hypot(e, h), math.hypot(f, g)
    nu1 = conformal + anticonformal
    nu2 = min(abs(a * d - b * c) / nu1, nu1) if anticonformal else nu1
    theta = (math.atan2(g, f) - math.atan2(h, e)) / 2 if anticonformal else 0.0
    frame = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rotation = np.array([[e, -h], [h, e]]) / conformal if conformal else None
    return rotation, np.array([math.ldexp(nu1, k), math.ldexp(nu2, k)]), frame, a * d - b * c


def exact_polar_2d(m):
    """The polar factor of a 2 x 2 m with det > 0, from its float entries in
    60-digit decimals, rounded once to floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        (a, b), (c, d) = [[decimal.Decimal(x) for x in row] for row in m.tolist()]
        e, h = (a + d) / 2, (c - b) / 2
        r = (e * e + h * h).sqrt()
        return np.array([[float(e / r), float(-h / r)], [float(h / r), float(e / r)]])


def assert_near_lapack(F, m, relative_nu2=False, lapack_rotation=True):
    """F against LAPACK's SVD of m: nu within 8 eps nu_1, the polar factor
    within 8 eps, F rebuilt within 8 eps nu_1, and if asked nu_2 within 4 eps
    relative. Subnormal values are rounded to steps of 2^-1074, so each bound
    on values also allows one step, and the rebuilt F two. Without
    ``lapack_rotation`` the polar factor is held to 1 eps of the exact one."""
    eps, tiny = np.finfo(float).eps, 2.0**-1074
    # values without vectors: with them LAPACK strays up to 8 eps nu_1 on near repeats
    u, _, vh = np.linalg.svd(m)
    s = np.linalg.svd(m, compute_uv=False)
    nu = F.singular_values
    assert np.max(np.abs(nu - s)) <= 8 * eps * s[0] + tiny
    if relative_nu2:
        assert abs(nu[1] - s[1]) <= 4 * eps * s[1] + tiny
    reference = u @ vh if lapack_rotation else exact_polar_2d(m)
    assert np.max(np.abs(F.polar.rotation - reference)) <= (8 if lapack_rotation else 1) * eps
    # rebuilt at the scale of 1, where no product overflows or underflows
    k = -math.frexp(s[0])[1]
    q = F.polar.frame
    rebuilt = F.polar.rotation @ q @ np.diag(np.ldexp(nu, k)) @ q.T
    assert np.max(np.abs(rebuilt - np.ldexp(m, k))) <= 8 * eps * math.ldexp(s[0], k) + math.ldexp(2 * tiny, k)


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
            if len(m) == 2:
                # the planar closed form, bit for bit, and near LAPACK's SVD
                rotation, values, frame, _ = planar_reference(m)
                assert_near_lapack(F, m)
                u = frame @ np.diag(values) @ frame.T
                u = (u + u.T) / 2.0
            else:
                rotation, values, frame, u = reference_decomposition(m)
            assert_bits(F.polar.rotation, rotation)
            assert_bits(F.singular_values, values)
            assert_bits(F.polar.frame, frame)
            assert_bits(stretch(F), u)

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
            # n = 2 takes the planar closed form, n = 1 and 3 the signs by
            # cofactors, n >= 4 the signs from one LAPACK det
            assert len(svds) == (len(m) != 2) and len(dets) == (len(m) > 3)
            # the det of the stacked factors U and V^T, never of the matrix
            for factors in dets:
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

    def test_orientation_signs_match_lapack_dets_of_the_factors(self):
        eps = np.finfo(float).eps

        def outcome(make):
            try:
                return None, make().tobytes()
            except ValueError as e:
                return str(e), None

        def reference(m):
            if len(m) == 2:
                _, values, frame, det = planar_reference(m)
            else:
                left, values, right = matcore.svd_ordered(m)
                frame = right.copy()
                if np.linalg.det(right) < 0.0:
                    frame[:, -1] = -frame[:, -1]
                det = np.linalg.det(left) * np.linalg.det(right)
            if not values[-1] > len(values) * eps * values[0]:
                raise ValueError(f"deformation gradient must be nonsingular, got singular values "
                                 f"{values[0]:g} to {values[-1]:g}")
            if det < 0.0:
                raise ValueError("deformation gradient must have det > 0, got det < 0")
            return frame

        rng = np.random.default_rng(21)
        cases = []
        for n in (1, 2, 3, 4):
            flip = np.diag([-1.0] + [1.0] * (n - 1))
            for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
                for _ in range(8):
                    a = random_rotation(n, rng) @ np.diag(rng.uniform(0.2, 5.0, n)) @ random_rotation(n, rng).T
                    cases += [scale * a, scale * (flip @ a)]
            for perm in itertools.permutations(range(n)):
                for signs in itertools.product((1.0, -1.0), repeat=n):
                    cases.append(np.eye(n)[list(perm)] * signs)
            # smallest value just above, at and below n eps times the largest
            for t in (2.0, 1.0 + 1e-6, 1.0, 1.0 - 1e-6, 0.5):
                nus = np.linspace(1.0, t * n * eps, n)
                q1, q2 = random_rotation(n, rng), random_rotation(n, rng)
                cases += [q1 @ np.diag(nus) @ q2.T, np.diag(nus), np.diag(nus) @ flip]
        refused = 0
        for m in cases:
            got = outcome(lambda: DeformationGradient(m).polar.frame)
            assert got == outcome(lambda: reference(m))
            refused += got[0] is not None
        assert 0 < refused < len(cases)

    def test_finiteness_check_refuses_exactly_the_non_finite(self):
        eps = np.finfo(float).eps
        overflowing = [np.diag([1e308] * 3), np.array([[1e308, 1e308], [-1e308, 1e308]]),
                       np.array([[1e308, -1e308], [1e308, 1e308]]), np.array([[1e308, 1e308], [1e308, -1e308]]),
                       np.full((3, 3), 1e308)]
        non_finite = []
        for bad in (np.nan, np.inf, -np.inf):
            m = np.eye(3)
            m[1, 2] = bad
            non_finite.append(m)
        non_finite.append(np.array([[np.inf, 0.0], [0.0, -np.inf]]))  # the sum is nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in overflowing:
                # the entry sum overflows, yet the matrix is decomposed as before
                assert np.isinf(sum(m.ravel().tolist()))
                u, s, vh = np.linalg.svd(m)
                left, values, right = matcore.svd_ordered(m)
                for a, b in [(left, u), (values, s), (right, vh.T)]:
                    assert_bits(a, b)
                if not s[-1] > len(s) * eps * s[0]:
                    message = f"deformation gradient must be nonsingular, got singular values {s[0]:g} to {s[-1]:g}"
                elif np.linalg.det(u) * np.linalg.det(vh) < 0.0:
                    message = "deformation gradient must have det > 0, got det < 0"
                else:
                    F = DeformationGradient(m)
                    rotation, values = u @ vh, s
                    if len(m) == 2:
                        # the planar closed form, bit for bit, and near LAPACK's SVD
                        rotation, values, _, _ = planar_reference(m)
                        assert_near_lapack(F, m)
                    assert_bits(F.singular_values, values)
                    assert_bits(F.polar.rotation, rotation)
                    continue
                with pytest.raises(ValueError) as e:
                    DeformationGradient(m)
                assert str(e.value) == message
            for m in non_finite:
                for build in (matcore.svd_ordered, DeformationGradient):
                    with pytest.raises(ValueError) as e:
                        build(m)
                    assert str(e.value) == "matrix entries must be finite"

    @pytest.mark.parametrize("n", [2, 3])
    def test_overflowing_singular_values_have_their_own_message(self, n):
        if n == 2:
            overflowing = [1.5e308 * np.array([[1.0, 1.0], [-1.0, 1.0]]),
                           1.5e308 * np.array([[1.0, 1.0], [1.0, -1.0]])]
            singular = [np.full((2, 2), 1.5e308)]
        else:
            overflowing = [1.5e308 * np.array([[1.0, 1.0, 0.0], [-1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
                           0.85e308 * np.array([[-1.0, 2.0, 2.0], [2.0, -1.0, 2.0], [2.0, 2.0, -1.0]])]
            singular = [np.full((3, 3), 1e308)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in overflowing:
                # finite, well conditioned, and nu_1 past the largest float
                assert np.isfinite(m).all()
                assert np.linalg.svd(m / 4.0, compute_uv=False)[0] > np.finfo(float).max / 4.0
                with pytest.raises(ValueError) as e:
                    DeformationGradient(m)
                assert str(e.value) == "deformation gradient singular values overflow float64"
            # overflowing and singular: the rank rule names it
            for m in singular:
                with pytest.raises(ValueError) as e:
                    DeformationGradient(m)
                assert str(e.value).startswith("deformation gradient must be nonsingular, got singular values inf to ")
            # just under the largest float, the same matrices are accepted
            for m in overflowing[:1]:
                F = DeformationGradient(m / 2.0)
                assert np.isfinite(F.singular_values).all()

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
            u = stretch(F)
            assert np.linalg.norm(p.rotation @ u - F.matrix) <= 1e-10 * (
                1.0 + np.linalg.norm(F.matrix)
            )
            assert np.linalg.norm(u - u.T) <= 1e-12
            assert is_rotation(p.rotation, tol=1e-11)
            assert np.all(np.linalg.eigvalsh(u) > 0.0)
            recon = p.frame @ np.diag(F.singular_values) @ p.frame.T
            assert np.linalg.norm(recon - u) <= 1e-10 * (1.0 + np.linalg.norm(u))


def check_planar(m, relative_nu2=False, lapack_rotation=True):
    """The 2 x 2 gradient of m, without a warning: its decomposition is the
    planar reference bit for bit and lies within the bounds of LAPACK's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = DeformationGradient(m)
    rotation, values, frame, _ = planar_reference(m)
    for a, b in [(F.singular_values, values), (F.polar.rotation, rotation), (F.polar.frame, frame)]:
        assert_bits(a, b)
    assert_near_lapack(F, m, relative_nu2, lapack_rotation)
    return F


def refusal(m):
    """The first words of the constructor's message for m, None if it accepts m."""
    try:
        DeformationGradient(m)
    except ValueError as e:
        return str(e).split(",")[0]
    return None


def lapack_refusal(m):
    """The same words by the rank rule and the orientation of LAPACK's SVD."""
    u, s, vh = np.linalg.svd(m)
    if not s[-1] > len(s) * np.finfo(float).eps * s[0]:
        return "deformation gradient must be nonsingular"
    if np.linalg.det(u) * np.linalg.det(vh) < 0.0:
        return "deformation gradient must have det > 0"
    return None


class TestPlanarClosedForm:
    """The closed-form 2 x 2 path against LAPACK on the hard inputs (fixed seeds)."""

    def test_exact_and_near_repeated_values(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            rho = rng.uniform(0.2, 5.0)
            # a scaled rotation has hypot(f, g) = 0: nu_1 = nu_2 and the identity frame
            F = check_planar(rho * rotation_2d(rng.uniform(-np.pi, np.pi)))
            assert F.singular_values[0] == F.singular_values[1]
            assert np.array_equal(F.polar.frame, np.eye(2))
            for gap in (1e-10, 1e-12, 1e-14):
                q1, q2 = rotation_2d(rng.uniform(-np.pi, np.pi)), rotation_2d(rng.uniform(-np.pi, np.pi))
                # LAPACK's U V^T strays up to 17 eps from the exact polar factor
                # here, so the closed form's is held to the exact one
                check_planar(q1 @ np.diag([rho, rho * (1.0 - gap)]) @ q2.T, lapack_rotation=False)

    @pytest.mark.parametrize("weights", [(1.0, 0.0), (1.7, 0.4)])
    def test_trace_of_the_stretch_on_the_bifurcation_band(self, weights):
        W = CosseratWeights(*weights)
        rho = W.singular_radius
        rng = np.random.default_rng(42)
        for side in (-1.0, 1.0):
            for _ in range(100):
                tr_u = rho * (1.0 + side * 1e-12)
                nu1 = tr_u * rng.uniform(0.5, 0.95)
                q1, q2 = rotation_2d(rng.uniform(-np.pi, np.pi)), rotation_2d(rng.uniform(-np.pi, np.pi))
                check_planar(q1 @ np.diag([nu1, tr_u - nu1]) @ q2.T)

    def test_graded_diagonal_and_triangular(self):
        rng = np.random.default_rng(43)
        for j in range(16):  # nu_2 / nu_1 down to 1e-15
            for _ in range(20):
                a = rng.uniform(0.5, 2.0)
                d = a * 10.0**-j * rng.uniform(1.0, 2.0)
                check_planar(np.diag([a, d]), relative_nu2=True)
                upper = np.array([[a, a * rng.uniform(-0.5, 0.5)], [0.0, d]])
                F = check_planar(upper, relative_nu2=True)
                G = check_planar(upper.T, relative_nu2=True)
                # the closed form gives F and F^T the same values, bit for bit
                assert_bits(G.singular_values, F.singular_values)

    def test_extreme_scales_and_subnormal_entries(self):
        rng = np.random.default_rng(44)
        tiny = 2.0**-1074
        for _ in range(100):
            nus = np.sort(rng.uniform(0.2, 5.0, 2))[::-1]
            m = rotation_2d(rng.uniform(-np.pi, np.pi)) @ np.diag(nus) @ rotation_2d(rng.uniform(-np.pi, np.pi)).T
            F = check_planar(m)
            for j in (-1000, -997, 997, 1000):  # about 1e-301, 1e-300, 1e300 and 1e301
                G = check_planar(np.ldexp(m, j))
                # an exact power of two leaves every bit of the scaled form
                assert_bits(G.singular_values, np.ldexp(F.singular_values, j))
                assert_bits(G.polar.rotation, F.polar.rotation)
                assert_bits(G.polar.frame, F.polar.frame)
            check_planar(m * 1e-300)
            check_planar(m * 1e300)
            # subnormal entries: a whole subnormal matrix, and a few beside normal ones
            small = rng.integers(-(2**20), 2**20, (2, 2)).astype(float)
            if np.linalg.det(small) > 0.0:
                check_planar(small * tiny)
            check_planar(np.diag(nus) * 1e-300 + small * tiny)

    def test_refusals_of_reflections_and_singular_matrices(self):
        rng = np.random.default_rng(45)
        flip = np.diag([1.0, -1.0])
        cases = [np.array([[1.0, 2.0], [2.0, 4.0]]), np.ones((2, 2)), np.zeros((2, 2)), flip]
        cases += [np.diag([1.0, t * np.finfo(float).eps]) for t in (0.5, 1.0, 2.0, 4.0, 8.0)]
        for scale in (1e-300, 1.0, 1e300):
            for _ in range(50):
                q1, q2 = rotation_2d(rng.uniform(-np.pi, np.pi)), rotation_2d(rng.uniform(-np.pi, np.pi))
                nus = np.diag(np.sort(rng.uniform(0.2, 5.0, 2))[::-1])
                cases += [scale * (q1 @ nus @ flip @ q2.T), scale * (q1 @ nus @ q2.T)]
        refused = 0
        for m in cases:
            got = refusal(m)
            assert got == lapack_refusal(m)
            refused += got is not None
        assert refused == 4 + 3 + 150


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
            x = r.T @ F.matrix - np.eye(3)
            direct = np.sum(x * x)
            assert energy(W11, r, F) == pytest.approx(direct, rel=1e-12)

    def test_dimension_mismatch(self):
        F = DeformationGradient(np.eye(3))
        for r in (np.eye(2), np.eye(3)[:, :2]):
            with pytest.raises(DimensionMismatch):
                energy(W10, r, F)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_a_non_finite_rotation(self, bad):
        r = np.eye(3)
        r[1, 2] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            energy(W10, r, DeformationGradient(np.eye(3)))
        # a finite pair whose X = R^T F - 1 overflows raises the same error,
        # without the overflow warning that the test configuration makes an error
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            energy(W10, 1.5 * np.eye(3), DeformationGradient(np.diag([1.7e308] * 3)))

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
        assert canon == CosseratWeights(1, 1) and canon.is_classical
        assert same is F

    def test_limit_case_is_fixed_point(self):
        F = DeformationGradient(np.diag([2.0, 1.0, 0.5]))
        regime, canon, same = reduce_parameters(W10, F)
        assert regime is Regime.NON_CLASSICAL
        assert (canon.mu, canon.muc) == (1.0, 0.0)
        assert canon == CosseratWeights(1, 0) and canon.singular_radius == 2.0
        assert same is F

    def test_canonical_weights_are_shared_and_frozen(self):
        F = DeformationGradient(np.diag([2.0, 1.0, 0.5]))
        for w, expected in [(CosseratWeights(1.7, 0.3), (1, 0)), (CosseratWeights(1.0, 4.0), (1, 1))]:
            canon = reduce_parameters(w, F)[1]
            assert canon == CosseratWeights(*expected)
            assert reduce_parameters(w, F)[1] is canon
            with pytest.raises(dataclasses.FrozenInstanceError):
                canon.mu = 2.0

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

    def test_a_stack_maps_slice_by_slice(self):
        rng = np.random.default_rng(21)
        for n in range(1, 7):
            F = random_gl_plus(n, rng)
            for k in range(4):
                stack = np.array([random_rotation(n, rng) for _ in range(2**k)])
                got = absolute_rotation(stack, F)
                assert got.shape == stack.shape
                for r, g in zip(stack, got):
                    assert np.array_equal(g, absolute_rotation(r, F))
                    back = relative_rotation(g, F)
                    assert np.linalg.norm(back - r) <= 1e-12

    def test_a_wrong_trailing_shape_is_a_dimension_mismatch(self):
        F = DeformationGradient(np.eye(3))
        for shape in ((3,), (3, 4), (2, 3, 4)):
            with pytest.raises(DimensionMismatch):
                absolute_rotation(np.zeros(shape), F)

    def test_sym_norm_invariance(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            F = random_gl_plus(3, rng)
            r = random_rotation(3, rng)
            rhat = relative_rotation(r, F)
            d = np.diag(F.singular_values)
            x, y = r.T @ F.matrix - np.eye(3), rhat @ d - np.eye(3)
            lhs, rhs = np.sum((x + x.T) ** 2) / 4.0, np.sum((y + y.T) ** 2) / 4.0
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
            reduced = w.mu * np.sum((x + x.T) ** 2) / 4.0 + w.muc * np.sum((x - x.T) ** 2) / 4.0
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

    def test_an_overflowing_row_reads_inf_without_a_warning(self):
        w = CosseratWeights(1.0, 0.5)
        rows = [[1.7e308, 1.7e308, 1.0], [1e200, 1.0, 1.0]]
        k, values = reduced_energy_stack(w, rows)
        got = list(zip(k.tolist(), values.tolist()))
        assert got == [reduced_energy_values(w, row) for row in rows] == [(1, math.inf)] * 2


class TestMinimizerSetSymmetries:
    @staticmethod
    def _minimizers(w, F):
        if F.dim == 2:
            from relaxed_polar.planar import optimal_angles

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
