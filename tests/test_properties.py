"""Property tests of the paper's invariants, searched by hypothesis.

The spectra lean on the hard inputs: pair sums inside or next to the
``BOUNDARY_RTOL`` band around rho, gaps next to ``DEGENERACY_RTOL`` and
1e+-110 scales. One profile for every test: derandomized, no example
database on disk, no deadline and a capped example count, so a run is
reproducible and cheap.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from relaxed_polar import CosseratWeights, DeformationGradient, energy, matcore, solve
from relaxed_polar.energy import (
    BOUNDARY_RTOL,
    DEGENERACY_RTOL,
    reduce_parameters,
    reduced_energy_values,
)
from relaxed_polar.oracle import _gradient, _jacobian, _norm, _stretch, haar_sample

from conftest import sets_equal

PROFILE = settings(derandomize=True, database=None, deadline=None, max_examples=100)


def radius(W):
    return 2.0 if W.is_classical else W.singular_radius


@st.composite
def weights(draw, max_ratio=2.0):
    """mu and muc / mu up to ``max_ratio``: muc = 0, muc = mu and the regimes between."""
    mu = draw(st.floats(0.25, 4.0))
    ratios = [r for r in (0.0, 0.5, 1.0, 2.0) if r <= max_ratio]
    return CosseratWeights(mu, mu * draw(st.sampled_from(ratios) | st.floats(0.0, max_ratio)))


@st.composite
def spectra(draw, rho, max_n=5):
    """Descending values on the scale of rho, some pair sum or gap on a band edge."""
    n = draw(st.integers(1, max_n))
    d = sorted(draw(st.lists(st.floats(0.05, 1.5), min_size=n, max_size=n)), reverse=True)
    d = [rho * v for v in d]
    if n >= 2 and draw(st.booleans()):
        # pair p sums to rho within or just outside the boundary band
        p = draw(st.integers(0, n // 2 - 1))
        off = draw(st.sampled_from([0.0, 0.5, -0.5, 3.0, -3.0])) * BOUNDARY_RTOL
        a = min(max(d[2 * p], 0.5 * rho), 0.95 * rho)
        b = rho * (1.0 + off) - a
        d = [max(v, a) for v in d[: 2 * p]] + [a, b] + [min(v, b) for v in d[2 * p + 2 :]]
    if n >= 2 and draw(st.booleans()):
        # value j + 1 repeats value j within or just outside the degeneracy band
        j = draw(st.integers(0, n - 2))
        rel = draw(st.sampled_from([0.0, 0.5, 3.0, 1e3]))
        d[j + 1] = d[j] - rel * DEGENERACY_RTOL * d[0]
    return np.array(sorted(d, reverse=True))


def rotated(d, seed):
    rng = np.random.default_rng(seed)
    q1, q2 = haar_sample(len(d), rng), haar_sample(len(d), rng)
    return q1, q2, DeformationGradient(q1 @ np.diag(d) @ q2.T)


@PROFILE
@given(st.data(), weights(), st.integers(0, 2**32 - 1))
def test_objectivity_of_the_minimizer_set(data, W, seed):
    rho = radius(W)
    d = data.draw(spectra(rho))
    # the pairing rule sees the rotated values up to rounding: keep every
    # pair sum out of the band, where rounding can move k
    sums = d[0 : len(d) - 1 : 2] + d[1::2]
    assume(np.all(np.abs(sums - rho) > BOUNDARY_RTOL * rho))
    mset = solve(W, DeformationGradient(np.diag(d)))
    assume(not mset.degenerate)
    q1, q2, G = rotated(d, seed)
    got = solve(W, G)
    assert got.k == mset.k and got.domain is mset.domain
    # the set moves with the frames of the branching pairs, which a gap g fixes
    # to about eps d_1 / g, and with their angles, where arccos amplifies the
    # rounding of the values by 1 / sin(beta)
    gaps = [d[i] - d[i + 1] for i in range(min(2 * mset.k, len(d) - 1))]
    sine = min(np.sin(mset.angles), default=1.0)
    tol = 1e-12 * d[0] * (1.0 / min(gaps + [d[-1]]) + 1.0 / (rho * sine))
    assert sets_equal([q1 @ r @ q2.T for r in mset.minimizers], got.minimizers, tol=tol)


@PROFILE
@given(st.data(), weights(), st.sampled_from([1.0, 1e-110, 1e110]), st.integers(0, 2**32 - 1))
def test_reduced_energy_is_isotropic(data, W, scale, seed):
    d = scale * data.draw(spectra(radius(W)))
    _, _, G = rotated(d, seed)
    expected = reduced_energy_values(W, d)[1]
    got = solve(W, G).reduced_energy
    # the rotated values carry a few ulp of d_1; the energy moves by mu d_1 times that
    assert abs(got - expected) <= 1e-13 * W.mu * len(d) * (1.0 + d[0]) ** 2


@PROFILE
@given(st.data(), weights(max_ratio=0.9))
def test_reduced_energy_is_continuous_across_the_radius(data, W):
    rho = W.singular_radius
    a = data.draw(st.floats(0.5, 0.95)) * rho
    rest = sorted(data.draw(st.lists(st.floats(0.05, 0.95), max_size=3)), reverse=True)
    below, above = (
        [a, (rho - a) * (1.0 + s)] + [(rho - a) * v for v in rest] for s in (-1e-10, 1e-10)
    )
    k_below, e_below = reduced_energy_values(W, below)
    k_above, e_above = reduced_energy_values(W, above)
    assert (k_below, k_above) == (0, 1)
    # the energy is Lipschitz in the values with constant about 2 (mu + muc) rho
    assert abs(e_above - e_below) <= 1e-8 * (W.mu + W.muc) * rho * rho


@PROFILE
@given(st.data(), weights(), st.sampled_from([1.0, 1e-110, 1e110]), st.integers(0, 2**32 - 1))
def test_closed_form_is_below_sampled_rotations(data, W, scale, seed):
    d = scale * data.draw(spectra(radius(W)))
    n = len(d)
    _, _, F = rotated(d, seed)
    mset = solve(W, F)
    rng = np.random.default_rng(seed + 1)
    samples = [haar_sample(n, rng) for _ in range(8)]
    # and rotations a step of about 1e-5 from each minimizer, where a closed
    # form above the true minimum shows
    a = rng.standard_normal((len(mset.minimizers), n, n))
    samples += list(np.array(mset.minimizers) @ matcore.skew_exp(5e-6 * (a - a.swapaxes(1, 2))))
    for r in samples:
        assert energy(W, r, F) >= mset.reduced_energy * (1.0 - 1e-12) - 1e-12


@PROFILE
@given(st.data(), weights(), st.integers(0, 2**32 - 1))
def test_reduction_keeps_the_minimizers(data, W, seed):
    rho = radius(W)
    d = data.draw(spectra(rho))
    sums = d[0 : len(d) - 1 : 2] + d[1::2]
    assume(np.all(np.abs(sums - rho) > BOUNDARY_RTOL * rho))
    _, _, F = rotated(d, seed)
    mset = solve(W, F)
    assume(not mset.degenerate)
    red = solve(*reduce_parameters(W, F)[1:])
    assert red.k == mset.k
    # the reduced problem shares F's rotation and frame; its pair cosines
    # 2 / (s / lam) and rho / s differ by rounding, which arccos amplifies
    # by 1 / sin(beta) next to the band
    sine = min(np.sin(mset.angles), default=1.0)
    assert sets_equal(mset.minimizers, red.minimizers, tol=1e-12 / sine)


@PROFILE
@given(st.data(), weights(), st.integers(0, 2**32 - 1))
def test_closed_form_minimizers_are_second_order_critical_points(data, W, seed):
    d = data.draw(spectra(radius(W)))
    _, _, F = rotated(d, seed)
    r = np.array(solve(W, F).minimizers)
    y, nx = _stretch(W.mu, W.muc, r, F.matrix, np.eye(len(d)))
    # rounding of the energy's terms, which grow like mu |d|^2
    tol = 1e-12 * W.mu * (1.0 + float(d @ d))
    assert _norm(_gradient(y, nx)).max() <= tol
    # at a critical point the Hessian is the symmetric part of the gradient's Jacobian
    jac = _jacobian(W.mu, W.muc, y, nx)
    assert np.linalg.eigvalsh(0.5 * (jac + jac.swapaxes(1, 2))).min(initial=0.0) >= -tol


@PROFILE
@given(st.data(), weights(), st.integers(0, 2**32 - 1))
def test_objectivity_at_extreme_scales(data, W, seed):
    # both scales on every spectrum: no pair branches at 1e-110, and every pair
    # does at 1e110 when mu > muc
    spectrum = data.draw(spectra(radius(W)))
    for d in (1e-110 * spectrum, 1e110 * spectrum):
        mset = solve(W, DeformationGradient(np.diag(d)))
        if mset.degenerate:
            continue
        q1, q2, G = rotated(d, seed)
        got = solve(W, G)
        assert got.k == mset.k and got.domain is mset.domain
        # the frames of the branching pairs are fixed to about eps d_1 / gap
        gaps = [d[i] - d[i + 1] for i in range(min(2 * mset.k, len(d) - 1))]
        tol = 1e-12 * d[0] / min(gaps + [d[-1]])
        assert sets_equal([q1 @ r @ q2.T for r in mset.minimizers], got.minimizers, tol=tol)
