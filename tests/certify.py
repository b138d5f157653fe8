"""A deterministic certificate that a 2D closed form is the global minimum.

For a 2 x 2 F the energy of R(theta) = [[cos, -sin], [sin, cos]] is exactly

    E(theta) = a0 + b cos(theta) + c sin(theta) + d cos(2 theta) + g sin(2 theta),

since R^T F is linear in (cos, sin) and the energy is quadratic in R^T F. Five
samples of ``energy`` fix the coefficients, and |E''| <= K with
K = sqrt(b^2 + c^2) + 4 sqrt(d^2 + g^2). On an interval of half-width h
around theta_c, Taylor's theorem gives

    E(theta) >= E(theta_c) - |E'(theta_c)| h - K h^2 / 2,

with E' = <G, A>, A = [[0, -1], [1, 0]] and G = -2 (mu sym X + muc skew X) Y^T,
Y = R^T F, X = Y - 1. :func:`certify_2d` splits [-pi, pi] into halves until
every interval is pruned, its bound being at least E* - tau, or a centre
has E < E* - tau, which refutes E* as the minimum.
"""

from __future__ import annotations

import math

import numpy as np

from relaxed_polar import energy

A = np.array([[0.0, -1.0], [1.0, 0.0]])
CELL_CAP = 20_000
# rounding margin on K, relative to K and to the energy's size; the five-sample
# fit reproduces ``energy`` to about 1e-14 at energies near 10
K_MARGIN = 1e-6


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def trig_coefficients(W, F) -> np.ndarray:
    """(a0, b, c, d, g) of E(theta), from ``energy`` at five equispaced angles."""
    t = 2.0 * np.pi * np.arange(5) / 5.0
    basis = np.column_stack([np.ones(5), np.cos(t), np.sin(t), np.cos(2 * t), np.sin(2 * t)])
    return np.linalg.solve(basis, [energy(W, rotation(x), F) for x in t])


def curvature_bound(W, F) -> float:
    """K >= max |E''|, inflated by ``K_MARGIN`` for the rounding of the fit."""
    a0, b, c, d, g = trig_coefficients(W, F)
    return (math.hypot(b, c) + 4.0 * math.hypot(d, g)) * (1.0 + K_MARGIN) + K_MARGIN * (1.0 + abs(a0))


def slope(W, R, F) -> float:
    """E'(theta) = <G, A> at R = R(theta)."""
    y = R.T @ F.matrix
    x = y - np.eye(2)
    n = W.mu * (x + x.T) / 2.0 + W.muc * (x - x.T) / 2.0
    return float(np.sum(-2.0 * (n @ y.T) * A))


def certify_2d(W, F, e_star: float) -> tuple[str, int]:
    """("certified" | "refuted" | "cap", cells) for E >= e_star - tau on all angles.

    tau = 1e-6 (1 + e_star). Intervals are split level by level, so a refuting
    centre is found at the coarsest level that has one.
    """
    tau = 1e-6 * (1.0 + e_star)
    k = curvature_bound(W, F)
    cells, live = 0, [(0.0, math.pi)]
    while live:
        split = []
        for centre, h in live:
            cells += 1
            if cells > CELL_CAP:
                return "cap", cells
            r = rotation(centre)
            e = energy(W, r, F)
            if e < e_star - tau:
                return "refuted", cells
            if e - abs(slope(W, r, F)) * h - 0.5 * k * h * h < e_star - tau:
                split += [(centre - h / 2.0, h / 2.0), (centre + h / 2.0, h / 2.0)]
        live = split
    return "certified", cells
