"""Shared helpers: seeded samplers and the independent planar grid oracle."""

import numpy as np

from relaxed_polar import DeformationGradient
from relaxed_polar.oracle import haar_sample

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def random_rotation(n, rng):
    return haar_sample(n, rng)


def rotation_2d(angle):
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s], [s, c]])


def stretch(F):
    """The symmetric stretch U = Q diag(nu) Q^T of a gradient F."""
    u = F.polar.frame @ np.diag(F.singular_values) @ F.polar.frame.T
    return (u + u.T) / 2.0


def is_rotation(r, tol):
    """True if R is finite and square with R^T R = 1 and det R = 1 within
    tol max(1, sqrt(n)), the orthogonality error in the Frobenius norm."""
    a = np.asarray(r, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.isfinite(a).all():
        return False
    n = a.shape[0]
    bound = tol * max(1.0, np.sqrt(n))
    return bool(np.linalg.norm(a.T @ a - np.eye(n)) <= bound and abs(np.linalg.det(a) - 1.0) <= bound)


def random_singular_values(n, rng, lo=0.2, hi=5.0, min_rel_gap=0.0):
    """Descending positive singular values, optionally with a relative gap."""
    while True:
        nus = np.sort(rng.uniform(lo, hi, size=n))[::-1]
        if min_rel_gap == 0.0 or np.all(-np.diff(nus) > min_rel_gap * nus[0]):
            return nus


def random_gl_plus(n, rng, lo=0.2, hi=5.0, min_rel_gap=0.0):
    """Random n x n matrix with positive determinant and controlled spectrum."""
    nus = random_singular_values(n, rng, lo, hi, min_rel_gap)
    q1 = haar_sample(n, rng)
    q2 = haar_sample(n, rng)
    return DeformationGradient(q1 @ np.diag(nus) @ q2.T)


def sets_equal(rots_a, rots_b, tol=1e-8):
    """Minimizer-set equality: equal cardinality plus a pairwise bijection."""
    if len(rots_a) != len(rots_b):
        return False
    used = [False] * len(rots_b)
    for a in rots_a:
        hit = None
        for j, b in enumerate(rots_b):
            if not used[j] and np.linalg.norm(np.asarray(a) - np.asarray(b)) <= tol:
                hit = j
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def planar_energy_profile(mu, muc, F, alphas):
    """Vectorized W(R(alpha); F) over an array of angles."""
    m = F.matrix
    c, s = np.cos(alphas), np.sin(alphas)
    y11 = c * m[0, 0] + s * m[1, 0]
    y12 = c * m[0, 1] + s * m[1, 1]
    y21 = -s * m[0, 0] + c * m[1, 0]
    y22 = -s * m[0, 1] + c * m[1, 1]
    x11, x22 = y11 - 1.0, y22 - 1.0
    sym_off = 0.5 * (y12 + y21)
    skew_off = 0.5 * (y12 - y21)
    return mu * (x11**2 + x22**2 + 2.0 * sym_off**2) + muc * (2.0 * skew_off**2)


def _golden_min(f, a, b, tol=1e-12):
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return f(x), x


def planar_grid_minimize(mu, muc, F, n_grid=100_000):
    """Exhaustive 1-D oracle: dense angle grid plus golden-section refinement.

    Returns (global minimum, list of global minimizing angles in (-pi, pi]).
    Independent of the closed forms: only the raw energy is evaluated.
    """
    alphas = np.linspace(-np.pi, np.pi, n_grid, endpoint=False)
    vals = planar_energy_profile(mu, muc, F, alphas)
    local = np.where((vals <= np.roll(vals, 1)) & (vals <= np.roll(vals, -1)))[0]
    h = 2.0 * np.pi / n_grid

    def f(a):
        return float(planar_energy_profile(mu, muc, F, np.array([a]))[0])

    refined = [_golden_min(f, alphas[i] - h, alphas[i] + h) for i in local]
    best = min(v for v, _ in refined)
    angles = []
    for v, x in refined:
        if v > best + 1e-10 * (1.0 + abs(best)):
            continue
        x = float(np.remainder(x + np.pi, 2.0 * np.pi) - np.pi)
        if x == -np.pi:
            x = np.pi
        if all(
            min(abs(x - y), 2.0 * np.pi - abs(x - y)) > 1e-7 for y in angles
        ):
            angles.append(x)
    return best, sorted(angles)


def angle_sets_match(angles_a, angles_b, tol):
    if len(angles_a) != len(angles_b):
        return False
    for a in angles_a:
        if not any(
            min(abs(a - b), 2.0 * np.pi - abs(a - b)) <= tol for b in angles_b
        ):
            return False
    return True


def z_angle(rhat):
    """Signed rotation angle of a (near) block rotation about the third axis."""
    rhat = np.asarray(rhat)
    return float(np.arctan2(rhat[1, 0] - rhat[0, 1], rhat[0, 0] + rhat[1, 1]))
