"""solve(W, F): one minimizer set for every dimension and weight regime."""

import csv
import decimal
import importlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from relaxed_polar import (
    CosseratWeights,
    DeformationGradient,
    Domain,
    energy,
    matcore,
    reduced_energy,
    global_minimizers_nd,
    optimal_angles,
    relative_rotation,
    rpolar_3d,
    solve,
    solve_values,
)
from relaxed_polar import cli
from relaxed_polar.energy import BOUNDARY_RTOL, DEGENERACY_RTOL, reduced_energy_values
from relaxed_polar.ndim import CriticalPartition, realize_rotation
from relaxed_polar.spatial import mean_planar_stretch

from conftest import random_gl_plus, random_rotation

# muc = 0, 0 < muc < mu and classical
WEIGHTS = [CosseratWeights(1.0, 0.0), CosseratWeights(1.7, 0.3), CosseratWeights(1.0, 2.0)]
OFFSETS = (0.0, 0.5 * BOUNDARY_RTOL, -0.5 * BOUNDARY_RTOL, 3 * BOUNDARY_RTOL, -3 * BOUNDARY_RTOL)


def radius(W):
    return 2.0 if W.is_classical else W.singular_radius


def spectra(W, n, rng):
    """Descending spectra with a pair sum at or near rho at every pair position."""
    rho = radius(W)
    out = [np.sort(rng.uniform(0.2, 5.0, n))[::-1]]
    out.append(np.full(n, 1.3 * rho / 2.0))  # all repeated, every pair sum above rho
    out.append(np.array([3.0 * rho] * min(n, 2) + [0.3] * (n - min(n, 2))))
    # one branching pair whose second value repeats the first unpaired one,
    # and one followed by repeated unpaired values only
    out.append(np.array([2.0 * rho] + [0.4 * rho] * min(n - 1, 2) + [0.1 * rho] * max(n - 3, 0)))
    out.append(np.array([2.0 * rho, 0.5 * rho, 0.2 * rho, 0.2 * rho, 0.2 * rho, 0.1 * rho][:n]))
    for p in range(n // 2):
        for off in OFFSETS:
            # pairs before p well above rho, pair p summing to rho (1 + off)
            d = [2.0 * rho - 0.01 * i for i in range(2 * p)]
            b = 0.3 * rho
            d += [rho * (1.0 + off) - b, b]
            d += [0.2 * rho / (i + 1) for i in range(n - 2 * p - 2)]
            out.append(np.array(d))
    return out


def gradients(n, nus, rng):
    yield DeformationGradient(np.diag(nus))
    yield DeformationGradient(random_rotation(n, rng) @ np.diag(nus) @ random_rotation(n, rng).T)


def cases():
    rng = np.random.default_rng(2017)
    for n in range(1, 7):
        for W in WEIGHTS:
            for nus in spectra(W, n, rng):
                for F in gradients(n, nus, rng):
                    yield W, F


def expected_degenerate(W, d, k):
    gap = DEGENERACY_RTOL * d[0]
    if W.is_classical:
        return bool(d[0] - d[-1] <= gap)
    checks = [d[2 * p] - d[2 * p + 1] <= gap for p in range(k)]
    checks += [d[2 * p + 1] - d[2 * p + 2] <= gap for p in range(k) if 2 * p + 2 < len(d)]
    return any(checks)


def test_set_size_energy_and_relative_angles():
    count = 0
    for W, F in cases():
        mset = solve(W, F)
        n = F.dim
        k, value = reduced_energy_values(W, F.singular_values)
        assert mset.k == k and mset.reduced_energy == value == reduced_energy(W, F)
        assert len(mset.minimizers) == 2**k == len(mset.signs) and len(mset.angles) == k
        assert mset.signs == list(itertools.product((1, -1), repeat=k))
        rel = mset.relative_angles
        assert len(rel) == len(mset.minimizers)
        if k <= 1:
            assert rel == ((0.0,) if k == 0 else (mset.angles[0], -mset.angles[0]))
        else:
            assert rel == tuple(tuple(s * b for s, b in zip(signs, mset.angles))
                                for signs in mset.signs)
        for R, signs in zip(mset.minimizers, mset.signs):
            assert matcore.is_rotation(R, tol=1e-12)
            assert abs(energy(W, R, F) - value) <= 1e-12 * (1.0 + abs(value))
            rhat = relative_rotation(R, F)
            expected = np.eye(n)
            for p, (s, b) in enumerate(zip(signs, mset.angles)):
                i = 2 * p
                assert np.arctan2(rhat[i + 1, i], rhat[i, i]) == pytest.approx(s * b, abs=1e-12)
                expected[i : i + 2, i : i + 2] = rhat[i : i + 2, i : i + 2]
            # block form: nothing turns outside the k pair planes
            assert np.abs(rhat - expected).max() <= 1e-12
        count += 1
    assert count > 300


def test_minimizers_are_built_on_first_read_only(monkeypatch):
    energy_module = importlib.import_module("relaxed_polar.energy")
    calls = []
    pair_rotations = energy_module.pair_rotations

    def counted(*args):
        calls.append(args)
        return pair_rotations(*args)

    monkeypatch.setattr(energy_module, "pair_rotations", counted)
    W, nus = CosseratWeights(1.0, 0.0), [0.5, 2.0, 4.0, 3.0, 2.5]
    for mset in (solve(W, DeformationGradient(np.diag(nus))), solve_values(W, nus)):
        assert mset.k == 2 and mset.domain is Domain.NON_CLASSICAL and len(mset.angles) == 2
        assert mset.reduced_energy > 0.0 and not mset.degenerate
        assert len(mset.signs) == len(mset.relative_angles) == 4
        assert calls == []
        first = mset.minimizers
        assert mset.minimizers is first and len(first) == 4 and len(calls) == 1
        calls.clear()
    assert optimal_angles(W, DeformationGradient(np.diag([3.0, 1.0]))).bifurcated
    assert global_minimizers_nd(sorted(nus, reverse=True), with_rotations=False).k == 2
    assert calls == []


def test_solve_values_is_solve_in_the_principal_frame():
    rng = np.random.default_rng(2019)
    count = 0
    for W, F in cases():
        nus = F.singular_values.tolist()
        rng.shuffle(nus)
        mset, ref = solve_values(W, nus), solve(W, F)
        assert mset.k == ref.k and mset.angles == ref.angles
        assert mset.reduced_energy == ref.reduced_energy
        assert mset.domain is ref.domain and mset.degenerate == ref.degenerate
        assert len(mset.minimizers) == len(ref.minimizers)
        for rhat, R in zip(mset.minimizers, ref.minimizers):
            assert np.abs(rhat - relative_rotation(R, F)).max() <= 1e-14
        count += 1
    assert count > 300


@pytest.mark.parametrize("nus", [[], [0.0, 1.0], [2.0, -1.0], [np.nan, 1.0], [1.0, np.inf]])
def test_solve_values_rejects_bad_values(nus):
    with pytest.raises(ValueError, match="positive and finite"):
        solve_values(CosseratWeights(1.0, 0.0), nus)


def test_degenerate_generalises_the_spatial_rule():
    seen = set()
    for W, F in cases():
        mset = solve(W, F)
        d = F.singular_values.tolist()
        assert mset.degenerate == expected_degenerate(W, d, mset.k)
        seen.add(mset.degenerate)
    assert seen == {True, False}


def test_domain_is_symmetric_about_the_band_in_every_dimension():
    for W in WEIGHTS[:2]:
        rho = W.singular_radius
        for n in range(2, 7):
            for off, inside in [(0.5 * BOUNDARY_RTOL, True), (3 * BOUNDARY_RTOL, False)]:
                domains = []
                for s in (rho * (1.0 + off), rho * (1.0 - off)):
                    nus = [s - 0.3, 0.3] + [0.2] * (n - 2)
                    domains.append(solve(W, DeformationGradient(np.diag(nus))).domain)
                if inside:
                    assert domains == [Domain.BOUNDARY, Domain.BOUNDARY]
                else:
                    assert domains == [Domain.NON_CLASSICAL, Domain.CLASSICAL]
        assert solve(W, DeformationGradient([[5.0]])).domain is Domain.CLASSICAL
    for F in (DeformationGradient(np.diag([4.0, 3.0])), DeformationGradient(np.eye(3))):
        assert solve(WEIGHTS[2], F).domain is Domain.CLASSICAL


def rpolar_3d_reference(W, F):
    """The closed 3D formula that rpolar_3d used before it became a view of solve.

    Its pair block is written out: cosine rho / s, sine
    sqrt(((s - rho) / s) (1 + c)) and angle atan2(sine, c).
    """
    nu = F.singular_values
    pol = F.polar.rotation
    frame = F.polar.frame
    s = float(nu[0] + nu[1])
    minimizers, angles = (pol.copy(),), (0.0,)
    degenerate = False
    if W.is_classical:
        domain = Domain.CLASSICAL
        u = s / 2.0
        degenerate = bool(nu[0] - nu[2] <= DEGENERACY_RTOL * nu[0])
    else:
        rho = W.singular_radius
        if abs(s - rho) <= BOUNDARY_RTOL * rho:
            domain = Domain.BOUNDARY
        else:
            domain = Domain.CLASSICAL if s < rho else Domain.NON_CLASSICAL
        u = s / (2.0 * W.scaling)
        if domain is Domain.NON_CLASSICAL:
            c = rho / s
            sine = np.sqrt(np.fmin((s - rho) / s, 1.0) * (1.0 + c))
            b = float(np.arctan2(sine, c))

            def block_z(sign):
                t = sign * sine
                return np.array([[c, -t, 0.0], [t, c, 0.0], [0.0, 0.0, 1.0]])

            minimizers = (
                pol @ frame @ block_z(-1.0) @ frame.T,
                pol @ frame @ block_z(+1.0) @ frame.T,
            )
            angles = (b, -b)
            degenerate = bool(
                nu[0] - nu[1] <= DEGENERACY_RTOL * nu[0]
                or nu[1] - nu[2] <= DEGENERACY_RTOL * nu[0]
            )
    return minimizers, angles, domain, degenerate, frame[:, 2], u, u - 1.0


def test_spatial_view_is_bitwise_the_closed_3d_formula():
    rng = np.random.default_rng(2018)
    inputs = [(W, F) for W, F in cases() if F.dim == 3]
    for i in range(300):
        W = WEIGHTS[i % 3]
        inputs.append((W, random_gl_plus(3, rng)))
    checked = 0
    for W, F in inputs:
        s = float(F.singular_values[0] + F.singular_values[1])
        if not W.is_classical and W.singular_radius < s <= W.singular_radius * (1 + BOUNDARY_RTOL):
            continue  # the upper half of the band now bifurcates
        sol = rpolar_3d(W, F)
        mins, angles, domain, degenerate, axis, u, strain = rpolar_3d_reference(W, F)
        assert len(sol.minimizers) == len(mins)
        for a, b in zip(sol.minimizers, mins):
            assert np.array_equal(a, b)
        assert sol.relative_angles == angles and sol.domain is domain
        assert sol.degenerate == degenerate
        assert np.array_equal(F.polar.frame[:, 2], axis)
        u_mmp = mean_planar_stretch(W, F)
        assert u_mmp == u and u_mmp - 1.0 == strain
        assert sol.reduced_energy == reduced_energy_values(W, F.singular_values)[1]
        checked += 1
    assert checked > 300


def test_huge_weights_give_the_minimizers_of_their_ratio():
    # the minimizers depend on mu and muc only through rho = 2 mu / (mu - muc)
    F = DeformationGradient(np.diag([3.0, 1.0]))
    huge, unit = solve(CosseratWeights(1e308, 0.0), F), solve(CosseratWeights(1.0, 0.0), F)
    assert huge.k == 1 and huge.domain is Domain.NON_CLASSICAL
    assert huge.angles == unit.angles
    for a, b in zip(huge.minimizers, unit.minimizers, strict=True):
        assert a.tobytes() == b.tobytes()


def test_an_overflowing_pair_sum_turns_by_a_right_angle():
    # nu_1 + nu_2 = inf: the cosine rho / s is 0, with no warning on the way
    mset = solve(CosseratWeights(1.0, 0.0), DeformationGradient(np.diag([1e308, 1e308])))
    assert mset.k == 1 and mset.angles == (math.pi / 2,)
    assert mset.minimizers[1].tolist() == [[0.0, -1.0], [1.0, 0.0]]


# rho = 2, 2 / 0.7, 10 / 3 and 3.4 / 1.4
PAIR_WEIGHTS = [CosseratWeights(*w) for w in [(1.0, 0.0), (1.0, 0.3), (1.0, 0.4), (1.7, 0.3)]]
# relative distances s / rho - 1 of a pair sum s above the radius
DELTAS = [10.0**-e for e in range(15, -1, -1)]


def exact_sine(s, rho):
    """sqrt(1 - (rho / s)^2) for the doubles s and rho: exact fraction, 50-digit root."""
    x, r = Fraction(s), Fraction(rho)
    q = (x - r) * (x + r) / (x * x)
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        return float((decimal.Decimal(q.numerator) / q.denominator).sqrt())


def assert_ulps(got, expected, ulps=4):
    assert abs(got - expected) <= ulps * math.ulp(expected), (got, expected)


@pytest.mark.parametrize("W", PAIR_WEIGHTS, ids=lambda W: f"rho={W.singular_radius:.4f}")
def test_pair_sine_and_angle_keep_their_digits_next_to_the_radius(W):
    rho = W.singular_radius
    for delta in DELTAS:
        F = DeformationGradient(np.diag([rho * (1.0 + delta) - 0.5, 0.5]))
        a, b = F.singular_values.tolist()
        sine = exact_sine(a + b, rho)
        mset = solve(W, F)
        assert mset.k == 1
        assert_ulps(abs(mset.minimizers[0][0, 1]), sine)
        assert_ulps(math.sin(mset.angles[0]), sine)


def test_reflection_pair_keeps_its_digits_next_to_the_radius():
    # a -1 pair {i, j} is a reflection block with cosine 2 / (nu_i - nu_j)
    part = CriticalPartition(blocks=((0, 1), (2,)), signs=(-1, -1))
    for delta in DELTAS:
        d = [2.0 * (1.0 + delta) + 0.25, 0.25, 0.1]
        r = realize_rotation(part, d)
        assert r[0, 1] == r[1, 0] and r[1, 1] == -r[0, 0]
        assert_ulps(r[0, 1], exact_sine(d[0] - d[1], 2.0))


def test_sweep_planar_beta_keeps_its_digits_next_to_the_radius(tmp_path):
    out = tmp_path / "sweep.csv"
    for W in PAIR_WEIGHTS:
        rho = W.singular_radius
        for delta in DELTAS:
            # rows at rho (1 - delta / 2), about rho, rho (1 + delta / 2) and rho (1 + delta)
            lo, hi = rho * (1.0 - 0.5 * delta), rho * (1.0 + delta)
            argv = ["sweep-planar", "--mu", repr(W.mu), "--muc", repr(W.muc)]
            argv += ["--range", repr(lo), repr(hi), "4", "--out", str(out)]
            assert cli.main(argv) == cli.EXIT_OK
            with open(out, newline="", encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            bifurcated = [r for r in rows if r["bifurcated"] == "true"]
            assert len(bifurcated) >= 2
            for row in bifurcated:
                # the pair is diag(tr U - nu2, nu2) with the default nu2 = 0.25
                s = (float(row["tr_U"]) - 0.25) + 0.25
                assert_ulps(math.sin(float(row["beta_plus"])), exact_sine(s, rho))
