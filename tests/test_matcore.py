import os
import subprocess
import sys

import numpy as np
import pytest

from relaxed_polar import DeformationGradient, matcore
from relaxed_polar.errors import NotSkew

from conftest import random_rotation


def test_sym_definition():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(matcore.sym(x), np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_sym_fixed_point_and_annihilation():
    s = np.array([[2.0, -1.0], [-1.0, 3.0]])
    assert np.array_equal(matcore.sym(s), s)
    a = np.array([[0.0, 4.0], [-4.0, 0.0]])
    assert np.array_equal(matcore.sym(a), np.zeros((2, 2)))


def test_skew_definition():
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(matcore.skew(x), np.array([[0.0, 0.5], [-0.5, 0.0]]))
    s = np.array([[2.0, -1.0], [-1.0, 3.0]])
    assert np.array_equal(matcore.skew(s), np.zeros((2, 2)))
    a = np.array([[0.0, 4.0], [-4.0, 0.0]])
    assert np.array_equal(matcore.skew(a), a)


def test_sym_plus_skew_recovers_input():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal((4, 4))
        # one rounding per half-sum: recovery is exact to a few ulps
        resid = np.abs(matcore.sym(x) + matcore.skew(x) - x)
        assert np.all(resid <= 1e-15 * (1.0 + np.abs(x)))
    # and bit-exact on dyadic entries
    x = np.array([[0.25, 1.5], [-0.75, 4.0]])
    assert np.array_equal(matcore.sym(x) + matcore.skew(x), x)


def test_frobenius_sq_values():
    assert matcore.frobenius_sq(np.eye(3)) == 3.0
    assert matcore.frobenius_sq(np.array([[1.0, 2.0], [3.0, 4.0]])) == 30.0
    nu = np.array([2.0, 0.5, 1.5])
    assert matcore.frobenius_sq(np.diag(nu)) == pytest.approx(np.sum(nu**2), abs=0)


def test_frobenius_orthogonal_split():
    rng = np.random.default_rng(2)
    for _ in range(30):
        x = rng.standard_normal((5, 5))
        total = matcore.frobenius_sq(x)
        split = matcore.frobenius_sq(matcore.sym(x)) + matcore.frobenius_sq(matcore.skew(x))
        assert abs(total - split) <= 1e-12 * (1.0 + total)


def test_frobenius_orthogonal_invariance():
    rng = np.random.default_rng(3)
    for _ in range(30):
        x = rng.standard_normal((4, 4))
        q = random_rotation(4, rng)
        a, b = matcore.frobenius_sq(q.T @ x @ q), matcore.frobenius_sq(x)
        assert abs(a - b) <= 1e-10 * (1.0 + b)


# the symmetric eigendecomposition (values descending, det +1 frame) is the
# spectral data of a gradient's stretch, which an SPD gradient equals


def test_sym_eig_diagonal():
    out = DeformationGradient(np.diag([1.0, 2.0, 3.0])).polar
    assert np.allclose(out.values, [3.0, 2.0, 1.0], atol=1e-14)
    # frame is a signed permutation with det +1
    assert np.allclose(np.abs(out.frame), np.fliplr(np.eye(3)), atol=1e-14)
    assert np.linalg.det(out.frame) == pytest.approx(1.0, abs=1e-12)


def test_sym_eig_identity_keeps_identity_frame():
    for n in (2, 3, 5):
        out = DeformationGradient(np.eye(n)).polar
        assert np.array_equal(out.values, np.ones(n))
        assert np.array_equal(out.frame, np.eye(n))


def test_sym_eig_round_trip():
    rng = np.random.default_rng(4)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        q = random_rotation(n, rng)
        d = np.sort(rng.uniform(0.2, 3.0, n))[::-1]
        s = q @ np.diag(d) @ q.T
        out = DeformationGradient(s).polar
        assert np.allclose(out.values, d, atol=1e-10)
        resid = np.linalg.norm(out.frame @ np.diag(out.values) @ out.frame.T - s)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(s))
        assert np.linalg.det(out.frame) == pytest.approx(1.0, abs=1e-10)


def test_svd_ordered_diagonal_and_rotation():
    _, vals, _ = matcore.svd_ordered(np.diag([2.0, 1.0]))
    assert np.allclose(vals, [2.0, 1.0], atol=1e-14)
    rng = np.random.default_rng(5)
    r = random_rotation(4, rng)
    _, vals, _ = matcore.svd_ordered(r)
    assert np.allclose(vals, 1.0, atol=1e-12)


def test_svd_ordered_simple_shear_hand_oracle():
    # solve the 2x2 characteristic polynomial of F^T F by hand for gamma = 2
    gamma = 2.0
    f = np.array([[1.0, gamma], [0.0, 1.0]])
    ftf = f.T @ f
    tr, det = ftf[0, 0] + ftf[1, 1], ftf[0, 0] * ftf[1, 1] - ftf[0, 1] * ftf[1, 0]
    lam_hi = (tr + np.sqrt(tr**2 - 4.0 * det)) / 2.0
    lam_lo = (tr - np.sqrt(tr**2 - 4.0 * det)) / 2.0
    expected = np.array([np.sqrt(lam_hi), np.sqrt(lam_lo)])
    assert np.allclose(expected, [1.0 + np.sqrt(2.0), np.sqrt(2.0) - 1.0], atol=1e-12)
    _, vals, _ = matcore.svd_ordered(f)
    assert np.allclose(vals, expected, atol=1e-12)


def test_svd_ordered_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        f = rng.standard_normal((n, n))
        left, vals, right = matcore.svd_ordered(f)
        resid = np.linalg.norm(left @ np.diag(vals) @ right.T - f)
        assert resid <= 1e-10 * (1.0 + np.linalg.norm(f))
        assert np.all(np.diff(vals) <= 0.0) and np.all(vals >= 0.0)


def test_skew_exp_zero_and_planar():
    assert np.array_equal(matcore.skew_exp(np.zeros((3, 3))), np.eye(3))
    theta = 0.9
    a = np.array([[0.0, -theta], [theta, 0.0]])
    expected = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
    )
    assert np.allclose(matcore.skew_exp(a), expected, atol=1e-15)


def test_skew_exp_rodrigues_vs_series():
    rng = np.random.default_rng(7)
    w = rng.standard_normal(3)
    w *= 0.3 / np.linalg.norm(w)
    a = np.array([[0.0, -w[2], w[1]], [w[2], 0.0, -w[0]], [-w[1], w[0], 0.0]])
    series = np.zeros((3, 3))
    term = np.eye(3)
    for k in range(20):
        series += term
        term = term @ a / (k + 1)
    assert np.allclose(matcore.skew_exp(a), series, atol=1e-14)


def test_skew_exp_rejects_non_skew():
    with pytest.raises(NotSkew):
        matcore.skew_exp(np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_skew_exp_rotation_invariants_and_inverse():
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 6):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = (a - a.T) / 2.0
            r = matcore.skew_exp(a)
            assert matcore.is_rotation(r, tol=1e-12)
            assert np.linalg.norm(r @ matcore.skew_exp(-a) - np.eye(n)) <= 1e-10


def _skew_stack(rng, count, n, norm):
    g = rng.standard_normal((count, n, n))
    a = g - g.swapaxes(-1, -2)
    scale = np.linalg.norm(a, axis=(-2, -1))
    return a * (norm / np.where(scale > 0.0, scale, 1.0))[:, None, None]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_skew_exp_stack_matches_slices(n):
    rng = np.random.default_rng(100 + n)
    a = np.concatenate([_skew_stack(rng, 4, n, s) for s in (1e-10, 1e-3, 0.7, 3.0, 30.0)])
    r = matcore.skew_exp(a)
    assert r.shape == a.shape
    for ak, rk in zip(a, r):
        assert matcore.is_rotation(rk, tol=1e-12)
        np.testing.assert_array_equal(rk, matcore.skew_exp(ak))
    # a stack of stacks is exponentiated slice by slice too
    np.testing.assert_array_equal(matcore.skew_exp(a.reshape(5, 4, n, n)), r.reshape(5, 4, n, n))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_skew_exp_eigh_route_matches_taylor_series(n):
    rng = np.random.default_rng(200 + n)
    a = np.concatenate([_skew_stack(rng, 5, n, s) for s in (1e-8, 1e-4, 0.1, 1.0)])
    series = np.zeros_like(a)
    term = np.broadcast_to(np.eye(n), a.shape).copy()
    for k in range(30):
        series += term
        term = term @ a / (k + 1)
    assert np.max(np.abs(matcore.skew_exp(a) - series)) <= 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_skew_exp_inverse_up_to_large_norms(n):
    rng = np.random.default_rng(300 + n)
    a = np.concatenate([_skew_stack(rng, 5, n, s) for s in (0.5, 5.0, 30.0)])
    prod = matcore.skew_exp(a) @ matcore.skew_exp(-a)
    assert np.max(np.linalg.norm(prod - np.eye(n), axis=(-2, -1))) <= 1e-12


def test_skew_exp_rejects_one_non_skew_slice():
    rng = np.random.default_rng(9)
    for n in (2, 3, 5):
        a = _skew_stack(rng, 6, n, 1.0)
        a[3, 0, 1] += 1e-3
        with pytest.raises(NotSkew):
            matcore.skew_exp(a)


def test_import_loads_no_scipy():
    code = "import sys, relaxed_polar; print('scipy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_is_rotation_rejects():
    assert not matcore.is_rotation(np.diag([1.0, -1.0]))
    assert not matcore.is_rotation(2.0 * np.eye(3))
    assert matcore.is_rotation(np.eye(5))
