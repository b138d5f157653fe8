"""Independent numeric ground truth for the closed-form minimizers.

Multi-start Riemannian gradient descent over the rotation group from
Haar-uniform restarts, finished by Newton on the gradient field with its
exact Jacobian. The rotation group is compact, so enough restarts make
this a credible global oracle at the small dimensions the closed forms
are verified at. Every restart draws its own random stream from (seed,
restart index). Descent and Newton run their starts as one stack, each
with its own step and stopping rule, so results do not depend on how the
stack is split and are bit-identical for a fixed seed.

Stationarity has one measure, the gradient norm ||G|| both searches
return: for mu > muc it is mu lam ||skew((Rhat D / lam - 1)^2)||, the
paper's symmetric-square defect scaled, so it certifies critical points.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import matcore
from .energy import CosseratWeights, DeformationGradient, absolute_rotation, energy, solve
from .errors import DimensionMismatch

# first step length of every descent; each start then adapts its own
_STEP_INIT = 0.1
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
    tol_grad: float = 1e-10

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if self.samples < 1 or self.max_iters < 1:
            raise ValueError("samples and max_iters must be positive")
        if not self.tol_grad > 0.0:
            raise ValueError("tol_grad must be positive")


@dataclass(frozen=True)
class OracleResult:
    """What :func:`global_minimize` found.

    ``best_rotation`` is the lowest-energy descent endpoint after Newton,
    ``best_energy`` its energy by :func:`~relaxed_polar.energy.energy` and
    ``grad_norm_at_best`` its gradient norm ||G||. ``restarts_converged``
    counts the descents that ended with ||G|| <= tol_grad before Newton;
    at tol_grad = 1e-9 most descents end by step underflow with ||G|| near
    that bound, so the count depends on rounding.
    """

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
        q[:, -1] = -q[:, -1]
    return q


def _energy(mu: float, muc: float, r: np.ndarray, f: np.ndarray, eye: np.ndarray) -> np.ndarray:
    # mu||sym X||^2 + muc||skew X||^2 = ((mu+muc)||X||^2 + (mu-muc) tr X^2)/2
    x = r.swapaxes(-1, -2) @ f - eye
    nsq = (x * x).sum(axis=(-2, -1))
    q = (x * x.swapaxes(-1, -2)).sum(axis=(-2, -1))
    return 0.5 * ((mu + muc) * nsq + (mu - muc) * q)


def _weigh(mu: float, muc: float, x: np.ndarray) -> np.ndarray:
    # N(X) = mu sym(X) - muc skew(X) = ((mu-muc) X + (mu+muc) X^T) / 2, linear in X
    return 0.5 * ((mu - muc) * x + (mu + muc) * x.swapaxes(-1, -2))


def _gradient(mu: float, muc: float, r: np.ndarray, f: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Riemannian gradient G at R (or a stack), in the left trivialization.

    Along R(s) = R expm(s A) with skew A the energy changes at rate <G, A>:
    G = 2 skew( Y N(X) ),  Y = R^T F,  X = Y - 1,  N(X) = mu sym(X) - muc skew(X).
    """
    y = r.swapaxes(-1, -2) @ f
    b = y @ _weigh(mu, muc, y - eye)
    return b - b.swapaxes(-1, -2)  # = 2 skew(B)


def _jacobian(mu: float, muc: float, r: np.ndarray, f: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """Exact Jacobian (S, m, m) of the gradient field at a stack R (S, n, n).

    Skew G is a vector by its lower triangle G[jj, ii]; basis element k has
    +1 at (jj[k], ii[k]) and -1 at (ii[k], jj[k]). Along R expm(s B), Y =
    R^T F moves by dY = -B Y, so column k is 2 skew(dY N(X) + Y N(dY)).
    """
    ii, jj = np.triu_indices(f.shape[-1], 1)
    k = np.arange(len(ii))
    y = r.swapaxes(-1, -2) @ f
    dy = np.zeros((len(y), len(k)) + f.shape)
    dy[:, k, jj], dy[:, k, ii] = -y[:, ii], y[:, jj]  # rows of -B Y
    d = dy @ _weigh(mu, muc, y - eye)[:, None] + y[:, None] @ _weigh(mu, muc, dy)
    return (d - d.swapaxes(-1, -2))[..., jj, ii].swapaxes(-1, -2)


def _norm(g: np.ndarray) -> np.ndarray:
    return np.sqrt((g * g).sum(axis=(-2, -1)))


def _descend(
    W: CosseratWeights,
    F: DeformationGradient,
    starts: np.ndarray,
    cfg: OracleConfig,
    energy_trace: list | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Backtracking descent of a stack of starts (S, n, n), each on its own.

    Each start keeps its own step t: the trial R expm(-t G) is accepted if
    the energy strictly decreases, else t is halved; after acceptance t
    doubles up to ``_MAX_STEP``, and every 64 accepted steps R is
    re-projected onto the rotations by SVD. A start stops at ||G|| <=
    tol_grad, at t < ``_MIN_STEP`` or after max_iters accepted steps. A
    round evaluates only the running starts, slice by slice, so no start
    depends on the rest of the stack. ``energy_trace`` needs one start.
    Returns the rotations, energies and gradient norms.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    r = np.array(starts, dtype=float)
    e = _energy(mu, muc, r, f, eye)
    g = _gradient(mu, muc, r, f, eye)
    gn = _norm(g)
    out_r, out_e, out_gn = r.copy(), e.copy(), gn.copy()
    t = np.full(len(r), _STEP_INIT)
    steps = np.zeros(len(r), dtype=int)
    pos = np.arange(len(r))
    if energy_trace is not None:
        energy_trace.append(float(e[0]))
    stop = (gn <= cfg.tol_grad) | (t < _MIN_STEP)
    while True:
        if stop.any():
            # write out the starts that ended and drop them from the stack
            out_r[pos[stop]], out_e[pos[stop]], out_gn[pos[stop]] = r[stop], e[stop], gn[stop]
            keep = ~stop
            pos, r, e, g, gn, t, steps = (x[keep] for x in (pos, r, e, g, gn, t, steps))
        if not len(pos):
            return out_r, out_e, out_gn
        r_try = r @ matcore.skew_exp(-t[:, None, None] * g)
        e_try = _energy(mu, muc, r_try, f, eye)
        ok = e_try < e
        t = np.where(ok, np.minimum(2.0 * t, _MAX_STEP), 0.5 * t)
        if not ok.any():
            stop = t < _MIN_STEP
            continue
        if not ok.all():
            r_try = np.where(ok[:, None, None], r_try, r)
            e_try = np.where(ok, e_try, e)
        r, e = r_try, e_try
        steps += ok
        if energy_trace is not None:
            energy_trace.append(float(e[0]))
        due = ok & (steps % 64 == 0)
        if due.any():
            # re-project to kill accumulated orthogonality drift
            u, _, vt = np.linalg.svd(r[due])
            r[due] = u @ vt
            e[due] = _energy(mu, muc, r[due], f, eye)
        # a rejected start keeps its rotation, so its gradient is unchanged
        g = _gradient(mu, muc, r, f, eye)
        gn = _norm(g)
        stop = (t < _MIN_STEP) | (gn <= cfg.tol_grad) | (steps >= cfg.max_iters)


def _newton(
    W: CosseratWeights, F: DeformationGradient, starts: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton iteration on G(R) = 0 for a stack of starts (S, n, n).

    Each start takes the least-squares step on the exact Jacobian, halved
    until ||G|| shrinks, and stops at ||G|| <= tol, after 60 steps or once
    the factor falls to 1e-6. It converges quadratically to whichever
    critical point (minimum, saddle or maximum) it starts near. As in
    ``_descend``, a start's result does not depend on the rest of the stack.
    Returns the rotations and gradient norms.
    """
    mu, muc, f, eye = W.mu, W.muc, F.matrix, np.eye(F.dim)
    ii, jj = np.triu_indices(F.dim, 1)
    r = np.array(starts, dtype=float)
    g = _gradient(mu, muc, r, f, eye)
    gn = _norm(g)
    out_r, out_gn = r.copy(), gn.copy()
    pos, steps, factor = np.arange(len(r)), np.zeros(len(r), dtype=int), np.ones(len(r))
    step, fresh = np.zeros_like(r), np.ones(len(r), dtype=bool)
    stop = gn <= tol
    while True:
        if stop.any():
            out_r[pos[stop]], out_gn[pos[stop]] = r[stop], gn[stop]
            keep = ~stop
            pos, r, g, gn, steps, factor, step, fresh = (
                x[keep] for x in (pos, r, g, gn, steps, factor, step, fresh)
            )
        if not len(pos):
            return out_r, out_gn
        if fresh.any():
            # the minimum-norm solution of J dx = -G, as a skew step
            jac = _jacobian(mu, muc, r[fresh], f, eye)
            dx = (np.linalg.pinv(jac) @ -g[fresh][:, jj, ii, None])[..., 0]
            new = np.flatnonzero(fresh)[:, None]
            step[new, jj, ii], step[new, ii, jj], factor[fresh] = dx, -dx, 1.0
        r_try = r @ matcore.skew_exp(factor[:, None, None] * step)
        g_try = _gradient(mu, muc, r_try, f, eye)
        gn_try = _norm(g_try)
        fresh = gn_try < gn
        r[fresh], g[fresh], gn[fresh] = r_try[fresh], g_try[fresh], gn_try[fresh]
        steps += fresh
        factor[~fresh] *= 0.5
        stop = (gn <= tol) | (steps >= 60) | (factor <= 1e-6)


def riemannian_descent(
    W: CosseratWeights, F: DeformationGradient, R0, cfg: OracleConfig, energy_trace: list | None = None
) -> tuple[np.ndarray, float, float]:
    """Backtracking gradient descent on the rotation group from R0.

    Steps R <- R expm(-t G); the step is halved until the energy strictly
    decreases and regrown after acceptance. Stops once ||G|| <= tol_grad,
    the step underflows (stationary to machine precision), or max_iters
    is hit. This is the one-start case of the stacked descent of
    ``global_minimize``. Pass ``energy_trace`` to record the energy after
    each accepted step: it strictly decreases, except across the SVD
    re-projection every 64 steps, which can move it by rounding.
    """
    r = np.asarray(R0, dtype=float)
    if r.shape != (F.dim, F.dim):
        raise DimensionMismatch(f"start shape {r.shape} does not match dim {F.dim}")
    r, e, gn = _descend(W, F, r[None], cfg, energy_trace)
    return r[0], float(e[0]), float(gn[0])


def global_minimize(
    W: CosseratWeights,
    F: DeformationGradient,
    cfg: OracleConfig,
    *,
    warm_starts: bool = True,
) -> OracleResult:
    """Best rotation over Haar restarts, optionally seeded with warm starts.

    Warm starts are the polar factor and up to 8 rotations of the
    closed-form minimizer set from :func:`~relaxed_polar.energy.solve`; turn
    them off (``warm_starts=False``) for unbiased verification of those
    same closed forms. All starts descend as one stack, each with its own
    step and stopping rule, so a start ends where it would alone and the
    result does not depend on how the stack is split or ordered. The
    lowest energy wins, ties broken by start index, and Newton on the
    gradient field finishes it towards ||G|| <= tol_grad, which descent
    alone reaches slowly or not at all in nearly flat or narrow valleys.
    """
    starts: list[np.ndarray] = []
    if warm_starts:
        starts.append(F.polar.rotation)
        if not W.is_classical:  # a classical set is the polar factor alone
            starts.extend(solve(W, F).minimizers[:8])
    starts += [haar_sample(F.dim, np.random.default_rng((cfg.seed, i))) for i in range(cfg.samples)]

    r, e, gn = _descend(W, F, np.array(starts), cfg)
    best = int(np.argmin(e))  # the first of equal energies: lowest start index
    r_best, gn_best = _newton(W, F, r[best][None], cfg.tol_grad)
    return OracleResult(
        best_rotation=r_best[0],
        best_energy=energy(W, r_best[0], F),
        grad_norm_at_best=float(gn_best[0]),
        restarts_converged=int(np.count_nonzero(gn <= cfg.tol_grad)),
    )


def critical_scan(
    W: CosseratWeights, F: DeformationGradient, cfg: OracleConfig
) -> list[tuple[np.ndarray, float]]:
    """Distinct critical points found numerically, certified stationary.

    Two searches run from every start point (Haar samples plus the
    principal-frame sign corners polar(F) Q diag(+-1) Q^T with det +1,
    exact and slightly perturbed): energy descent, which lands on minima
    and stays put when started exactly at a critical point, and damped
    Newton on the gradient field, which also converges to saddles; each
    runs all the starts as one stack. An endpoint is kept when the ||G||
    its search returns is at most 1e-8 s, s = 1 for classical weights and
    mu lam otherwise, where ||G|| / (mu lam) = ||skew((Rhat D / lam - 1)^2)||
    is the paper's defect. Kept endpoints, each start's descent before its
    Newton, are clustered (same point = energy within 1e-6 and Frobenius
    distance within 1e-4; the first stays) and sorted by energy.
    """
    n = F.dim
    corners = [np.diag(s) for s in itertools.product((1.0, -1.0), repeat=n) if np.prod(s) > 0]
    starts = [absolute_rotation(s, F) for s in corners]
    rng = np.random.default_rng((cfg.seed, 0xC0))
    starts += [r @ matcore.skew_exp(matcore.skew(rng.standard_normal((n, n))) * 0.05) for r in starts]
    starts += [haar_sample(n, np.random.default_rng((cfg.seed, i))) for i in range(cfg.samples)]

    newton_tol = 1e-13 * (1.0 + matcore.frobenius_sq(F.matrix))
    r_desc, _, gn_desc = _descend(W, F, np.array(starts), cfg)
    r_newt, gn_newt = _newton(W, F, np.array(starts), newton_tol)
    r = np.stack((r_desc, r_newt), axis=1).reshape(-1, n, n)
    gn = np.stack((gn_desc, gn_newt), axis=1).ravel()
    tol = 1e-8 * (1.0 if W.is_classical else W.mu * W.scaling)

    found: list[tuple[np.ndarray, float]] = []
    for ri in r[gn <= tol]:
        e = energy(W, ri, F)
        if not any(abs(e - ek) <= 1e-6 and _norm(ri - rk) <= 1e-4 for rk, ek in found):
            found.append((ri, e))
    found.sort(key=lambda t: t[1])
    return found
