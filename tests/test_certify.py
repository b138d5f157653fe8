"""The 2D closed form, certified globally optimal by interval branch and bound."""

import math

import numpy as np
import pytest

from relaxed_polar import CosseratWeights, DeformationGradient, energy, reduced_energy, solve

from certify import certify_2d, curvature_bound, rotation, slope, trig_coefficients
from conftest import random_rotation

WEIGHTS = [(1.0, 0.0), (1.7, 0.4), (1.0, 3.0)]
SPECTRA = [(2.6, 0.5), (3.2, 0.3), (1.2, 0.5), (2.0, 2.0)]
BAND = [1e-1, 1e-2, 1e-3, 1e-4, -1e-4]


def cases():
    """22 (weights, F): four spectra at three weight pairs, and nu1 + nu2 =
    rho (1 + eps) at both non-classical pairs, in Haar frames of rng 5."""
    rng = np.random.default_rng(5)
    out = []
    for mu, muc in WEIGHTS:
        for nus in SPECTRA:
            out.append((mu, muc, nus))
    for mu, muc in WEIGHTS[:2]:
        s = CosseratWeights(mu, muc).singular_radius
        for eps in BAND:
            out.append((mu, muc, (0.6 * s * (1.0 + eps), 0.4 * s * (1.0 + eps))))
    return [
        (CosseratWeights(mu, muc), DeformationGradient(
            random_rotation(2, rng) @ np.diag(nus) @ random_rotation(2, rng).T))
        for mu, muc, nus in out
    ]


CASES = cases()


def test_the_energy_is_a_trigonometric_polynomial_of_degree_two():
    rng = np.random.default_rng(6)
    for W, F in CASES[:12]:
        a0, b, c, d, g = trig_coefficients(W, F)
        k = curvature_bound(W, F)
        for t in rng.uniform(-math.pi, math.pi, 20):
            e = energy(W, rotation(t), F)
            fit = a0 + b * math.cos(t) + c * math.sin(t) + d * math.cos(2 * t) + g * math.sin(2 * t)
            assert abs(e - fit) <= 1e-13 * (1.0 + abs(e))
            # E' against a central difference, whose error is about h^2 K
            h = 1e-5
            fd = (energy(W, rotation(t + h), F) - energy(W, rotation(t - h), F)) / (2.0 * h)
            assert abs(slope(W, rotation(t), F) - fd) <= 1e-9 * (1.0 + abs(e)) + h * h * k
            e2 = -b * math.cos(t) - c * math.sin(t) - 4.0 * d * math.cos(2 * t) - 4.0 * g * math.sin(2 * t)
            assert abs(e2) <= k


@pytest.mark.parametrize("index", range(len(CASES)))
def test_closed_form_is_certified_globally_optimal(index):
    W, F = CASES[index]
    e_star = reduced_energy(W, F)
    status, cells = certify_2d(W, F, e_star)
    assert status == "certified", (status, cells)
    # and attained: every closed-form minimizer has energy E*
    for r in solve(W, F).minimizers:
        assert abs(energy(W, r, F) - e_star) <= 1e-6 * (1.0 + e_star)


@pytest.mark.parametrize("index", range(len(CASES)))
def test_a_raised_closed_form_is_refuted(index):
    W, F = CASES[index]
    e_star = reduced_energy(W, F)
    status, _ = certify_2d(W, F, e_star + 1e-4 * (1.0 + e_star))
    assert status == "refuted"
