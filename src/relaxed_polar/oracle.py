"""Independent numeric ground truth for the closed-form minimizers.

Multi-start Riemannian gradient descent over the rotation group, with
Haar-uniform restarts. The rotation group is compact, so enough restarts
make this a credible global oracle at the small dimensions the closed
forms are verified at. Every restart draws its own random stream from
(seed, restart index), so results do not depend on scheduling order and
are bit-identical for a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import matcore
from .energy import CosseratWeights, DeformationGradient, energy, relative_rotation
from .errors import DimensionMismatch

_MIN_STEP = 1e-18
# generous cap: backtracking rejects overshoots anyway, and nearly flat
# modes (repeated singular values) need steps far above unity to converge
_MAX_STEP = 1e6


@dataclass(frozen=True)
class OracleConfig:
    """Multi-start descent configuration. The seed is always explicit."""

    seed: int
    samples: int = 2000
    max_iters: int = 500
    step_init: float = 0.1
    tol_grad: float = 1e-10

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.samples < 1 or self.max_iters < 1:
            raise ValueError("samples and max_iters must be positive")
        if not (self.step_init > 0.0 and self.tol_grad > 0.0):
            raise ValueError("step_init and tol_grad must be positive")


@dataclass(frozen=True)
class OracleResult:
    best_rotation: np.ndarray
    best_energy: float
    grad_norm_at_best: float
    restarts_converged: int


def haar_sample(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-uniform rotation: QR of a Gaussian matrix with sign-corrected
    factors, then a last-column negation if the determinant is -1."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if n == 1:
        return np.ones((1, 1))
    g = rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.sign(np.diagonal(r))
    d[d == 0.0] = 1.0
    q = q * d
    if np.linalg.det(q) < 0.0:
        q = q.copy()
        q[:, -1] = -q[:, -1]
    return q


def _energy_fast(mu: float, muc: float, r: np.ndarray, f: np.ndarray, eye: np.ndarray) -> float:
    # mu||sym X||^2 + muc||skew X||^2 = ((mu+muc)||X||^2 + (mu-muc) tr X^2)/2
    x = r.T @ f - eye
    nsq = float(np.sum(x * x))
    q = float(np.sum(x * x.T))
    return 0.5 * ((mu + muc) * nsq + (mu - muc) * q)


def _gradient_fast(mu: float, muc: float, r: np.ndarray, f: np.ndarray, eye: np.ndarray) -> np.ndarray:
    y = r.T @ f
    x = y - eye
    # mu sym(X) - muc skew(X) = ((mu-muc) X + (mu+muc) X^T) / 2
    m = 0.5 * ((mu - muc) * x + (mu + muc) * x.T)
    b = y @ m
    return b - b.T  # = 2 skew(B)


def _skew_exp_fast(m: np.ndarray, n: int) -> np.ndarray:
    if n == 3:
        w0, w1, w2 = m[2, 1], m[0, 2], m[1, 0]
        theta = np.sqrt(w0 * w0 + w1 * w1 + w2 * w2)
        if theta < 1e-8:
            return np.eye(3) + m + (m @ m) / 2.0
        k = m / theta
        return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)
    if n == 2:
        t = m[1, 0]
        c, s = np.cos(t), np.sin(t)
        return np.array([[c, -s], [s, c]])
    if n == 1:
        return np.ones((1, 1))
    return scipy.linalg.expm(m)


def gradient(W: CosseratWeights, R, F: DeformationGradient) -> np.ndarray:
    """Riemannian gradient G of the energy at R, in the left trivialization.

    Along any curve R(s) = R expm(s A) with skew A, the derivative of the
    energy at s = 0 equals <G, A>; G itself is skew-symmetric:

        G = 2 skew( (R^T F) (mu sym(X) - muc skew(X)) ),  X = R^T F - 1.
    """
    r = np.asarray(R, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"rotation shape {r.shape} does not match dim {F.dim}")
    return _gradient_fast(W.mu, W.muc, r, F.matrix, np.eye(F.dim))


def riemannian_descent(
    W: CosseratWeights,
    F: DeformationGradient,
    R0,
    cfg: OracleConfig,
    energy_trace: list | None = None,
) -> tuple[np.ndarray, float, float]:
    """Backtracking gradient descent on the rotation group from R0.

    Steps R <- R expm(-t G); the step is halved until the energy strictly
    decreases and regrown after acceptance. Stops once ||G|| <= tol_grad,
    the step underflows (stationary to machine precision), or max_iters
    is hit. The energy sequence is non-increasing by construction; pass
    ``energy_trace`` to record it.
    """
    r = np.asarray(R0, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"start shape {r.shape} does not match dim {F.dim}")
    n, f, eye = F.dim, F.matrix, np.eye(F.dim)
    mu, muc = W.mu, W.muc
    e = _energy_fast(mu, muc, r, f, eye)
    if energy_trace is not None:
        energy_trace.append(e)
    t = cfg.step_init
    g = _gradient_fast(mu, muc, r, f, eye)
    gn = float(np.linalg.norm(g))
    for it in range(cfg.max_iters):
        if gn <= cfg.tol_grad:
            break
        moved = False
        while t >= _MIN_STEP:
            r_try = r @ _skew_exp_fast(-t * g, n)
            e_try = _energy_fast(mu, muc, r_try, f, eye)
            if e_try < e:
                r, e = r_try, e_try
                moved = True
                break
            t *= 0.5
        if not moved:
            break
        if energy_trace is not None:
            energy_trace.append(e)
        t = min(t * 2.0, _MAX_STEP)
        if (it + 1) % 64 == 0:
            # re-project to kill accumulated orthogonality drift
            u, _, vt = np.linalg.svd(r)
            r = u @ vt
            e = _energy_fast(mu, muc, r, f, eye)
        g = _gradient_fast(mu, muc, r, f, eye)
        gn = float(np.linalg.norm(g))
    return r, e, gn


def _closed_form_candidates(
    W: CosseratWeights, F: DeformationGradient
) -> list[np.ndarray]:
    """Warm-start rotations from the closed-form solution, capped at 8."""
    from .energy import absolute_rotation, reduce_parameters

    cands: list[np.ndarray] = []
    try:
        if W.is_classical:
            return cands
        if F.dim == 2:
            from .planar import optimal_angles, rotation_2d

            sol = optimal_angles(W, F)
            cands = [rotation_2d(a) for a in sol.branch_angles]
        elif F.dim == 3:
            from .spatial import rpolar_3d

            cands = [m for m in rpolar_3d(W, F).minimizers]
        else:
            from .ndim import global_minimizers_nd

            _, _, ft = reduce_parameters(W, F)
            gm = global_minimizers_nd(ft.singular_values)
            cands = [absolute_rotation(rh, F) for rh in gm.rotations[:8]]
    except ValueError:
        cands = []
    return cands[:8]


def global_minimize(
    W: CosseratWeights,
    F: DeformationGradient,
    cfg: OracleConfig,
    *,
    warm_starts: bool = True,
) -> OracleResult:
    """Best rotation over Haar restarts, optionally seeded with warm starts.

    Warm starts are the polar factor and the closed-form candidates; turn
    them off (``warm_starts=False``) for unbiased verification of those
    same closed forms. Restarts are independent, reduction picks the
    lowest energy with ties broken by start index, so the result does not
    depend on the order the restarts run in.
    """
    starts: list[np.ndarray] = []
    if warm_starts:
        starts.append(F.polar.rotation)
        starts.extend(_closed_form_candidates(W, F))
    n = F.dim
    for i in range(cfg.samples):
        starts.append(haar_sample(n, np.random.default_rng((cfg.seed, i))))

    results = [riemannian_descent(W, F, r0, cfg) for r0 in starts]

    best_idx = min(range(len(results)), key=lambda i: (results[i][1], i))
    r_best, _, gn_best = results[best_idx]
    converged = sum(1 for _, _, gn in results if gn <= cfg.tol_grad)
    # long polish from the winner: nearly flat modes (repeated singular
    # values) converge slowly and can need far more than max_iters steps
    polish = OracleConfig(
        seed=cfg.seed,
        samples=1,
        max_iters=20 * cfg.max_iters,
        step_init=cfg.step_init,
        tol_grad=cfg.tol_grad,
    )
    r_best, _, gn_best = riemannian_descent(W, F, r_best, polish)
    return OracleResult(
        best_rotation=r_best,
        best_energy=energy(W, r_best, F),
        grad_norm_at_best=gn_best,
        restarts_converged=converged,
    )


def _stationarity_defect(W: CosseratWeights, R, F: DeformationGradient) -> float:
    """Size of the Euler-Lagrange residual at R.

    For non-classical weights this is the symmetric-square condition on
    the reduced problem: ||skew((Rhat Dt - 1)^2)|| with Dt the rescaled
    diagonal (Dt = D for muc = 0). Classical weights fall back to the
    gradient norm.
    """
    if W.is_classical:
        return matcore.frobenius(gradient(W, R, F))
    rhat = relative_rotation(R, F)
    dt = np.diag(F.singular_values / W.scaling)
    x = rhat @ dt - np.eye(F.dim)
    return matcore.frobenius(matcore.skew(x @ x))


def _skew_basis(n: int) -> list[np.ndarray]:
    basis = []
    for i in range(n):
        for j in range(i + 1, n):
            e = np.zeros((n, n))
            e[i, j] = -1.0
            e[j, i] = 1.0
            basis.append(e)
    return basis


def _newton_refine(
    W: CosseratWeights,
    F: DeformationGradient,
    R0: np.ndarray,
    tol: float,
    max_iters: int = 60,
) -> np.ndarray:
    """Damped Newton iteration on the first-order condition G(R) = 0.

    The Jacobian of the gradient field over the skew basis is formed by
    forward differences; steps are halved until the residual shrinks.
    Converges quadratically to whichever critical point (minimum, saddle
    or maximum) the start lies near, which is what a census needs.
    """
    n = F.dim
    basis = _skew_basis(n)
    m = len(basis)
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]

    def vec(g):
        return np.array([g[j, i] for (i, j) in idx])

    h = 1e-7
    f, eye, mu, muc = F.matrix, np.eye(n), W.mu, W.muc
    r = np.asarray(R0, dtype=float)
    g = vec(_gradient_fast(mu, muc, r, f, eye))
    for _ in range(max_iters):
        gn = np.linalg.norm(g)
        if gn <= tol:
            break
        jac = np.empty((m, m))
        for k, e in enumerate(basis):
            rk = r @ _skew_exp_fast(h * e, n)
            jac[:, k] = (vec(_gradient_fast(mu, muc, rk, f, eye)) - g) / h
        dx, *_ = np.linalg.lstsq(jac, -g, rcond=None)
        step = sum(dx[k] * basis[k] for k in range(m))
        factor = 1.0
        while factor > 1e-6:
            r_try = r @ _skew_exp_fast(factor * step, n)
            g_try = vec(_gradient_fast(mu, muc, r_try, f, eye))
            if np.linalg.norm(g_try) < gn:
                r, g = r_try, g_try
                break
            factor *= 0.5
        else:
            break
    return r


def critical_scan(
    W: CosseratWeights, F: DeformationGradient, cfg: OracleConfig
) -> list[tuple[np.ndarray, float]]:
    """Distinct critical points found numerically, certified stationary.

    Two searches run from every start point (Haar samples plus the
    principal-frame sign corners polar(F) Q diag(+-1) Q^T with det +1,
    exact and slightly perturbed): energy descent, which lands on minima
    and stays put when started exactly at a critical point, and a damped
    Newton iteration on the gradient field, which also converges to
    saddles. Endpoints failing the Euler-Lagrange certificate (defect
    above 1e-8) are dropped; the rest are clustered (same point = energy
    within 1e-6 and Frobenius distance within 1e-4) and sorted by energy.
    """
    from itertools import product

    from .energy import absolute_rotation

    n = F.dim
    starts: list[np.ndarray] = []
    corners = []
    for signs in product((1.0, -1.0), repeat=n):
        if np.prod(signs) > 0:
            corners.append(np.diag(signs))
    for s in corners:
        starts.append(absolute_rotation(s, F))
    rng = np.random.default_rng((cfg.seed, 0xC0))
    for s in corners:
        a = matcore.skew(rng.standard_normal((n, n))) * 0.05
        starts.append(absolute_rotation(s, F) @ matcore.skew_exp(a))
    for i in range(cfg.samples):
        starts.append(haar_sample(n, np.random.default_rng((cfg.seed, i))))

    newton_tol = 1e-13 * (1.0 + matcore.frobenius_sq(F.matrix))
    candidates: list[np.ndarray] = []
    for r0 in starts:
        r_desc, _, _ = riemannian_descent(W, F, r0, cfg)
        candidates.append(r_desc)
        candidates.append(_newton_refine(W, F, r0, newton_tol))

    found: list[tuple[np.ndarray, float]] = []
    for r in candidates:
        if _stationarity_defect(W, r, F) > 1e-8:
            continue
        e = energy(W, r, F)
        matched = False
        for rk, ek in found:
            if abs(e - ek) <= 1e-6 and matcore.frobenius(r - rk) <= 1e-4:
                matched = True
                break
        if not matched:
            found.append((r, e))
    found.sort(key=lambda t: t[1])
    return found
